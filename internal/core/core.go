// Package core assembles the integrated maritime information
// infrastructure of the paper's Figure 2: in-situ stream processing of
// position reports through quality assessment, trajectory reconstruction
// and synopsis computation, archival and live storage, zone-aware complex
// event recognition and situation assembly — one configurable pipeline
// with per-stage metrics.
//
// A Pipeline is fed decoded AIS messages (or NMEA lines via the codec) in
// event-time order per vessel and exposes the live picture, the archive
// and the alert stream. For multi-core scaling, a Sharded pipeline
// partitions the fleet by MMSI across independent pipelines (pairwise
// detection then happens per shard; experiment E14 quantifies the
// throughput gain and README.md, "Sharded async ingest", records the
// cross-shard trade-off).
package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ais"
	"repro/internal/events"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/quality"
	"repro/internal/stream"
	"repro/internal/synopsis"
	"repro/internal/tstore"
	"repro/internal/va"
	"repro/internal/zones"
)

// Config parameterises a pipeline.
type Config struct {
	// Zones provides geographic context (nil disables zone-aware stages).
	Zones *zones.ZoneSet
	// SynopsisToleranceM controls the dead-reckoning synopsis filter that
	// decides which positions reach the archive (with a forced point
	// every synopsisMaxGap); 0 archives everything.
	SynopsisToleranceM float64
	// DarkThreshold configures the dark-period detector (default 10 min).
	DarkThreshold time.Duration
	// DisableEvents skips event recognition (ablation).
	DisableEvents bool
}

// synopsisMaxGap forces an archive point after this long regardless of
// deviation, when synopses are on.
const synopsisMaxGap = 3 * time.Minute

// Metrics counts pipeline activity; all fields are atomic and safe to
// read while the pipeline runs.
type Metrics struct {
	Ingested      atomic.Int64
	Rejected      atomic.Int64 // failed veracity hard checks
	Archived      atomic.Int64 // survived the synopsis filter
	Alerts        atomic.Int64
	StaticChecked atomic.Int64
	StaticFlagged atomic.Int64

	// Per-stage cumulative nanoseconds, 1-in-64 sampled estimates (each
	// sampled lap counts 64×; bench's core.self_counter_ratio checks them).
	NsQuality  atomic.Int64
	NsSynopsis atomic.Int64
	NsStore    atomic.Int64
	NsEvents   atomic.Int64
}

// Snapshot is a plain copy of the metrics.
type Snapshot struct {
	Ingested, Rejected, Archived, Alerts     int64
	StaticChecked, StaticFlagged             int64
	NsQuality, NsSynopsis, NsStore, NsEvents int64
}

// Snapshot copies the counters.
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
		Ingested: m.Ingested.Load(), Rejected: m.Rejected.Load(),
		Archived: m.Archived.Load(), Alerts: m.Alerts.Load(),
		StaticChecked: m.StaticChecked.Load(), StaticFlagged: m.StaticFlagged.Load(),
		NsQuality: m.NsQuality.Load(), NsSynopsis: m.NsSynopsis.Load(),
		NsStore: m.NsStore.Load(), NsEvents: m.NsEvents.Load(),
	}
}

// Pipeline is one instance of the integrated infrastructure. Ingest is
// safe for concurrent use (internally serialised); use Sharded for
// parallel scaling.
type Pipeline struct {
	cfg Config

	mu       sync.Mutex
	Store    *tstore.Store
	Live     *tstore.Live
	Engine   *events.Engine
	Patterns *events.PatternEngine
	Quality  *quality.Profile
	vessels  map[uint32]*vessel
	alerts   []events.Alert

	Metrics Metrics
}

// vessel is what the per-vessel stages carry from one report of a vessel
// to its next, behind one lookup.
type vessel struct {
	subject    string // the vessel's key in the quality profile
	checker    quality.KinematicChecker
	compressor synopsis.StreamingCompressor
}

// vesselLocked returns the vessel's stage state, created on first sight.
func (p *Pipeline) vesselLocked(mmsi uint32) *vessel {
	v := p.vessels[mmsi]
	if v == nil {
		v = &vessel{subject: subjectOf(mmsi), compressor: synopsis.StreamingCompressor{
			ToleranceM: p.cfg.SynopsisToleranceM,
			MaxGap:     synopsisMaxGap,
		}}
		p.vessels[mmsi] = v
	}
	return v
}

// New builds a pipeline with the full detector battery wired in.
func New(cfg Config) *Pipeline {
	if cfg.DarkThreshold == 0 {
		cfg.DarkThreshold = 10 * time.Minute
	}
	ctx := &events.Context{Zones: cfg.Zones}
	engine := events.NewEngine(ctx, 0.1)
	for _, d := range events.DefaultDetectors() {
		if dd, ok := d.(*events.DarkDetector); ok {
			dd.Threshold = cfg.DarkThreshold
		}
		engine.Register(d)
	}
	for _, d := range events.DefaultPairDetectors() {
		engine.RegisterPair(d)
	}
	pe := events.NewPatternEngine(ctx)
	pe.Register(events.SmugglingRunPattern(4 * time.Hour))

	return &Pipeline{
		cfg:      cfg,
		Store:    tstore.New(),
		Live:     tstore.NewLive(0.25),
		Engine:   engine,
		Patterns: pe,
		Quality:  quality.NewProfile(),
		vessels:  make(map[uint32]*vessel),
	}
}

// TimedReport pairs a position report with its receive timestamp — the
// unit of batched ingest.
type TimedReport struct {
	At  time.Time
	Rep *ais.PositionReport
	// Arrived is the wall-clock submission instant, stamped on a sampled
	// subset of reports when the ingest engine is instrumented so the
	// shard-queue wait can be measured without a clock read per message.
	// Zero on unsampled reports; never serialised.
	Arrived time.Time
}

// Ingest runs one position report through every stage and returns the
// alerts it raised.
func (p *Pipeline) Ingest(at time.Time, rep *ais.PositionReport) []events.Alert {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ingestLocked(at, rep)
}

// IngestBatch runs a batch of reports through the pipeline under a single
// lock acquisition, amortising the per-call synchronisation overhead that
// dominates when a high-rate feed is funnelled through Ingest one message
// at a time. Reports are processed in slice order; the returned alerts are
// the concatenation of the per-report alert slices.
func (p *Pipeline) IngestBatch(batch []TimedReport) []events.Alert {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []events.Alert
	for _, tr := range batch {
		out = append(out, p.ingestLocked(tr.At, tr.Rep)...)
	}
	return out
}

// sampleEvery is the stage timers' sampling period, as the tee sinks'.
const sampleEvery = 64

// stageClock times a sampled message's stages; zero (unsampled) reads no
// clock. lap charges the time since the last boundary to ns, ×sampleEvery.
type stageClock struct{ t time.Time }

func (c *stageClock) lap(ns *atomic.Int64) {
	if !c.t.IsZero() {
		now := time.Now()
		ns.Add(sampleEvery * int64(now.Sub(c.t)))
		c.t = now
	}
}

// ingestLocked is the stage sequence of Ingest; p.mu must be held.
func (p *Pipeline) ingestLocked(at time.Time, rep *ais.PositionReport) []events.Alert {
	n := p.Metrics.Ingested.Add(1)
	s := model.FromReport(at, rep)
	var clk stageClock
	if n%sampleEvery == 0 {
		clk.t = time.Now()
	}

	// Stage 1 — veracity. Hard failures (no usable position) reject the
	// message; soft issues only depress the vessel's reliability profile.
	if !rep.HasPosition() {
		p.Metrics.Rejected.Add(1)
		clk.lap(&p.Metrics.NsQuality)
		return nil
	}
	v := p.vesselLocked(s.MMSI)
	issues := v.checker.Check(s)
	p.Quality.Record(v.subject, len(issues) == 0)
	clk.lap(&p.Metrics.NsQuality)

	// Stage 2 — live picture (always full rate).
	p.Live.Update(s)
	clk.lap(&p.Metrics.NsStore)

	// Stage 3 — synopsis filter decides what the archive keeps.
	archive := true
	if p.cfg.SynopsisToleranceM > 0 {
		_, archive = v.compressor.Push(s)
	}
	clk.lap(&p.Metrics.NsSynopsis)
	if archive {
		p.Store.Append(s)
		p.Metrics.Archived.Add(1)
		clk.lap(&p.Metrics.NsStore)
	}

	// Stage 4 — event recognition (detectors + sequence patterns).
	var alerts []events.Alert
	if !p.cfg.DisableEvents {
		alerts = append(alerts, p.Engine.Process(s)...)
		alerts = append(alerts, p.Patterns.Process(s)...)
		clk.lap(&p.Metrics.NsEvents)
		if len(alerts) > 0 {
			p.alerts = append(p.alerts, alerts...)
			p.Metrics.Alerts.Add(int64(len(alerts)))
		}
	}
	return alerts
}

// IngestStatic runs a static/voyage message through the veracity stage.
func (p *Pipeline) IngestStatic(at time.Time, msg *ais.StaticVoyage) []quality.Issue {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.Metrics.StaticChecked.Add(1)
	issues := quality.CheckStatic(msg)
	if len(issues) > 0 {
		p.Metrics.StaticFlagged.Add(1)
	}
	p.Quality.Record(subjectOf(msg.MMSI), len(issues) == 0)
	return issues
}

func subjectOf(mmsi uint32) string { return fmt.Sprintf("vessel/%d", mmsi) }

// Alerts returns all alerts raised so far (copy).
func (p *Pipeline) Alerts() []events.Alert {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]events.Alert(nil), p.alerts...)
}

// Situation assembles the current operational picture over the given
// bounds (§3.2): live vessel states, density surface and the alert board.
func (p *Pipeline) Situation(at time.Time, bounds geo.Rect, rows, cols int) *va.Situation {
	vessels := p.Live.InRect(bounds)
	var alerts []va.SituationAlert
	for _, a := range p.Alerts() {
		alerts = append(alerts, va.SituationAlert{
			At: a.At, Kind: string(a.Kind), MMSI: a.MMSI,
			Where: a.Where, Severity: a.Severity, Note: a.Note,
		})
	}
	return va.BuildSituation(at, bounds, vessels, alerts, rows, cols)
}

// CompressionRatio reports the archive-side synopsis ratio achieved so
// far: 1 − archived/ingested (0 when synopses are disabled).
func (p *Pipeline) CompressionRatio() float64 {
	in := p.Metrics.Ingested.Load()
	ar := p.Metrics.Archived.Load()
	if in == 0 || p.cfg.SynopsisToleranceM == 0 {
		return 0
	}
	return 1 - float64(ar)/float64(in)
}

// --- sharded scaling -------------------------------------------------------------

// Sharded partitions the fleet across n independent pipelines by MMSI:
// per-vessel stages scale linearly; pairwise detection happens within a
// shard only (vessels of a pair usually co-locate in a shard only by
// luck, so pairwise detectors should run on a dedicated shard count of 1
// when cross-vessel recall matters more than throughput).
//
// Sharded is the shard container; ShardFor routes a vessel to its
// pipeline on the caller's goroutine. The asynchronous, backpressure-aware ingest path —
// decode workers, per-shard goroutines with bounded queues, merged alert
// output — lives in internal/ingest, which drives a Sharded underneath.
// Routing uses the same key hash as stream.Partition (stream.ShardOf), so
// synchronous calls and the async engine agree on shard placement.
type Sharded struct {
	Shards []*Pipeline
}

// NewSharded builds n pipelines with the same configuration.
func NewSharded(cfg Config, n int) *Sharded {
	if n < 1 {
		n = 1
	}
	s := &Sharded{}
	for i := 0; i < n; i++ {
		s.Shards = append(s.Shards, New(cfg))
	}
	return s
}

// ShardIndex returns the shard index responsible for the vessel — the
// stream.Partition hash, shared with the internal/ingest engine.
func (s *Sharded) ShardIndex(mmsi uint32) int {
	return stream.ShardOf(uint64(mmsi), len(s.Shards))
}

// ShardFor returns the pipeline responsible for the vessel.
func (s *Sharded) ShardFor(mmsi uint32) *Pipeline {
	return s.Shards[s.ShardIndex(mmsi)]
}

// Alerts merges all shards' alerts, time-ordered. Alerts with equal At
// keep a defined order: the lower shard's first, and within a shard the
// order it raised them in.
func (s *Sharded) Alerts() []events.Alert {
	var out []events.Alert
	for _, p := range s.Shards {
		out = append(out, p.Alerts()...)
	}
	slices.SortStableFunc(out, func(a, b events.Alert) int { return a.At.Compare(b.At) })
	return out
}

// CompressionRatio reports the archive-side synopsis ratio across all
// shards — the Pipeline.CompressionRatio definition over summed counters.
func (s *Sharded) CompressionRatio() float64 {
	var in, ar int64
	for _, p := range s.Shards {
		in += p.Metrics.Ingested.Load()
		ar += p.Metrics.Archived.Load()
	}
	if in == 0 || s.Shards[0].cfg.SynopsisToleranceM == 0 {
		return 0
	}
	return 1 - float64(ar)/float64(in)
}

// LiveCount sums the shards' live pictures.
func (s *Sharded) LiveCount() int {
	n := 0
	for _, p := range s.Shards {
		n += p.Live.Count()
	}
	return n
}

// Situation assembles the operational picture across every shard: the
// merged live layer plus the combined alert board, aggregated exactly as
// a single pipeline's Situation would be.
func (s *Sharded) Situation(at time.Time, bounds geo.Rect, rows, cols int) *va.Situation {
	var vessels []model.VesselState
	for _, p := range s.Shards {
		vessels = append(vessels, p.Live.InRect(bounds)...)
	}
	var alerts []va.SituationAlert
	for _, a := range s.Alerts() {
		alerts = append(alerts, va.SituationAlert{
			At: a.At, Kind: string(a.Kind), MMSI: a.MMSI,
			Where: a.Where, Severity: a.Severity, Note: a.Note,
		})
	}
	return va.BuildSituation(at, bounds, vessels, alerts, rows, cols)
}

// Snapshot sums the shards' metrics.
func (s *Sharded) Snapshot() Snapshot {
	var total Snapshot
	for _, p := range s.Shards {
		sn := p.Metrics.Snapshot()
		total.Ingested += sn.Ingested
		total.Rejected += sn.Rejected
		total.Archived += sn.Archived
		total.Alerts += sn.Alerts
		total.StaticChecked += sn.StaticChecked
		total.StaticFlagged += sn.StaticFlagged
		total.NsQuality += sn.NsQuality
		total.NsSynopsis += sn.NsSynopsis
		total.NsStore += sn.NsStore
		total.NsEvents += sn.NsEvents
	}
	return total
}
