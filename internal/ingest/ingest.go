// Package ingest is the asynchronous, backpressure-aware front door of the
// integrated infrastructure: it turns the synchronous core.Pipeline into a
// sharded dataflow that scales ingest across cores while keeping per-vessel
// ordering intact.
//
// The wiring:
//
//	Ingest() / StartLines' resequencer
//	      │  batches of reports, routed by MMSI (stream.ShardOf)
//	      ├── shard 0 queue ── core.Pipeline.IngestBatch ─┐
//	      ├── shard 1 queue ── core.Pipeline.IngestBatch ─┤ stream.Merge
//	      │   …                                           │
//	      └── shard n queue ── core.Pipeline.IngestBatch ─┴─→ Alerts()
//
// Each shard's input is bounded in reports (ShardBuf, in batches: see
// shardInput), so a slow shard propagates backpressure to the submitter
// instead of growing queues without limit. Partitioning uses the same key
// hash as core.Sharded.ShardFor (stream.ShardOf), so synchronous queries
// against the underlying shards observe exactly the vessels the dataflow
// routed there, and per-vessel processing order equals arrival order — the
// engine produces the same alert multiset as a sequential Pipeline over
// the same input.
//
// An optional NMEA front-end (StartLines) adds parallel decode workers in
// front of the shard queues; multi-fragment sentences are routed to a
// consistent worker so fragment reassembly still sees every part.
//
// An optional persistence back-end (Config.Backend, package
// internal/store) adds an asynchronous flush stage behind the shard
// stores: archived records queue into a bounded buffer that one flush
// goroutine drains into batched, checksummed WAL appends, so disk latency
// never sits on the ingest path yet saturation still backpressures. The
// stage drains and syncs when the dataflow completes (Wait), and a
// recovered archive re-enters the engine through Resume.
//
// An optional memory budget (Config.MemoryBudget, package internal/tier)
// makes the in-memory archive a cache over the durable store: an
// eviction manager watches per-vessel heat across the shard stores and
// spills the coldest vessels down to compact stubs once resident points
// exceed the budget, so the archive can grow past RAM while queries keep
// answering — reads page evicted spans back in transparently, minimally
// and singleflighted.
//
// The read side is the unified query surface (Query/QueryEngine, package
// internal/query): trajectory, space–time, nearest-vessel, live-picture,
// situation, alert-history and stats requests answered from the shards
// while ingest runs — cmd/maritimed serves it over HTTP with -http. The
// same surface runs continuously: every record that reaches a shard
// archive (and every raised alert) is published to the engine's
// subscription hub, so Subscribe turns any streamable request into a
// standing query (bounded per-subscriber queues; a slow consumer drops
// and is counted, never backpressuring ingest), and Config.Peers
// federates other daemons' pictures into every answer.
package ingest

import (
	"context"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ais"
	"repro/internal/anomaly"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/tier"
	"repro/internal/track"
	"repro/internal/tstore"
)

// Config parameterises an Engine. The zero value is usable: every field
// defaults to something sensible at New.
type Config struct {
	// Pipeline configures each shard's core.Pipeline.
	Pipeline core.Config
	// Shards is the number of pipeline shards (default runtime.GOMAXPROCS).
	Shards int
	// DecodeWorkers is the number of NMEA decode workers StartLines spawns
	// (default Shards).
	DecodeWorkers int
	// ShardBuf bounds each shard's input in reports, and each StartLines
	// decode stage in lines; a full one blocks its submitter (default 256).
	ShardBuf int
	// BatchSize caps the reports of one handoff batch (one IngestBatch call)
	// and the lines of one decode chunk (default 64, at most ShardBuf).
	BatchSize int
	// AlertBuf bounds the merged alert channel (default 256).
	AlertBuf int
	// Backend, when non-nil, persists every archived record through an
	// asynchronous batched flush stage: each shard's trajectory store
	// forwards its post-synopsis appends into a shared bounded queue that
	// a flush goroutine drains into Backend.Append calls. A full queue
	// backpressures the shard workers like every other stage. The engine
	// closes the flush stage (drain + final sync) when the dataflow
	// drains, but the Backend itself belongs to the caller.
	Backend store.Backend
	// Flush parameterises the flush stage (queue bound, batch size,
	// periodic fsync) when Backend is set.
	Flush store.FlushConfig
	// MemoryBudget, when > 0, bounds the resident in-memory archive
	// across all shards: a tier.Manager watches per-vessel heat and
	// evicts the coldest vessels down to compact stubs once resident
	// points exceed the budget, spilling their history into TierObjects.
	// Queries keep working over the evicted fleet — reads page the spans
	// they need back in transparently. Requires TierObjects.
	MemoryBudget int64
	// TierObjects is the object store evicted trajectory chunks spill to
	// (and page back from) when MemoryBudget is set — typically the same
	// store sealed WAL segments migrate to (store.Config.Remote), or a
	// local store.FSObjects directory.
	TierObjects store.ObjectStore
	// TierCheckEvery overrides the eviction manager's budget-check
	// cadence (default 2s; < 0 disables the loop so tests drive Check
	// explicitly via Tier()).
	TierCheckEvery time.Duration
	// Peers are federation members (typically query.NewClient per remote
	// daemon) merged into every query answer alongside the local shards,
	// deduplicated on (MMSI, timestamp). A degraded peer is skipped, not
	// fatal — see query.PeerSource.
	Peers []query.Source
	// Track, when non-nil, runs the online track-intelligence lane:
	// per-vessel folds attached to the post-synopsis tee (alongside the
	// hub and the flusher) maintaining fused Kalman state and an
	// integrity profile per vessel, answering the track/quality query
	// kinds live (and accepting non-AIS detections through
	// IngestDetections); Resume seeds it from the recovered archive. Nil
	// means no lane in the tee and zero cost — the query engine then
	// derives those kinds from the archive on demand. predict has no
	// lane: it is dead-reckoned from the archive either way.
	Track *track.Config
	// Anomaly, when non-nil, runs the streaming anomaly lane: per-vessel
	// folds attached to the post-synopsis tee maintaining a behavior
	// profile per vessel (sliding-window distribution shift against the
	// vessel's own history), extracting stop/move episodes incrementally
	// into Anomaly.Semantic, and matching reporting gaps continuously for
	// feasible covert meetings — possible-rendezvous alerts are published
	// through the hub to /v1/stream alert subscriptions only; the
	// engine's Alerts stream carries the pipelines' detections alone.
	// Answers the anomalies query kind live; Resume seeds it from the
	// recovered archive (state and episodes, never alerts). Nil means no
	// lane in the tee and zero cost — the query engine then derives the
	// kind from the archive on demand.
	Anomaly *anomaly.Config
	// Obs, when non-nil, instruments every stage of the dataflow through
	// the registry: message and decode counters, sampled decode and
	// shard-queue-wait latency, per-batch pipeline latency, flush-stage
	// and WAL timings, tier eviction/page-back stats, hub fan-out and
	// query latency. Nil keeps every hot path on its uninstrumented
	// no-op branch.
	Obs *obs.Registry
	// Flight, when non-nil, is the black-box flight recorder every layer
	// of the dataflow writes its load-bearing transitions into: segment
	// seals and upload outcomes, upload-queue stalls, flush
	// backpressure, tier evictions and page-back failures, subscriber
	// drops, and track/anomaly stage failures. Nil keeps every site on
	// its nil-check branch.
	Flight *obs.Flight
}

func (c *Config) normalize() {
	if c.Shards < 1 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.DecodeWorkers < 1 {
		c.DecodeWorkers = c.Shards
	}
	if c.ShardBuf < 1 {
		c.ShardBuf = 256
	}
	if c.BatchSize < 1 {
		c.BatchSize = 64
	}
	c.BatchSize = min(c.BatchSize, c.ShardBuf)
	if c.AlertBuf < 1 {
		c.AlertBuf = 256
	}
}

// Engine is the running dataflow. Build with New, wire with Start, submit
// with Ingest (or StartLines for raw NMEA), read Alerts until closed.
type Engine struct {
	cfg     Config
	sharded *core.Sharded

	// inputs feed the shard workers; batches recycles their buffers (by
	// pointer, so a Put does not allocate).
	inputs  []shardInput
	batches sync.Pool
	alerts  <-chan stream.Event[events.Alert]

	// Metrics counts position reports: In on submission, Out when a shard
	// worker has fully processed one, Dropped for reports refused because
	// the submission context was cancelled.
	Metrics stream.Metrics
	// DecodeMetrics counts the NMEA front-end when StartLines is used: In
	// per line, Out per decoded message, Dropped per undecodable line.
	DecodeMetrics stream.Metrics

	flusher   *store.Flusher
	flushDone chan struct{}
	tier      *tier.Manager
	tracks    *track.Stages   // nil unless Config.Track is set
	anoms     *anomaly.Stages // nil unless Config.Anomaly is set
	lanes     []lane          // the attached online lanes: tracks and anoms, where set

	// Instrumentation handles, set in Start (before any worker goroutine
	// launches) when Config.Obs is non-nil; nil means "don't measure".
	// Decode and shard-wait are sampled (1 in 64); batches are timed
	// whole, which amortises the clock reads across the batch.
	decodeNS    *obs.Histogram
	shardWaitNS *obs.Histogram
	batchNS     *obs.Histogram
	batchSizeH  *obs.Histogram

	hub       *query.Hub
	queryOnce sync.Once
	query     *query.Engine
	streamer  *query.Streamer

	started   bool
	closeOnce sync.Once
	workers   sync.WaitGroup
}

// lane is what the engine needs of an attached online lane (the
// lane.Host behind track.Stages and anomaly.Stages): a sink per shard
// for the post-synopsis tee, under a layer name; its metric series; its
// read side for the live source; and seeding from a recovered
// trajectory. Everything else about a lane goes through its typed
// accessor (Tracks, Anomalies).
type lane interface {
	Name() string
	Sink(shard int) tstore.Sink
	Instrument(*obs.Registry)
	Lane() query.Lane
	Seed(mmsi uint32, pts []model.VesselState)
}

// New builds an engine (its sharded pipelines and the online lanes the
// config asks for) without starting it.
func New(cfg Config) *Engine {
	cfg.normalize()
	e := &Engine{
		cfg:     cfg,
		sharded: core.NewSharded(cfg.Pipeline, cfg.Shards),
		hub:     query.NewHub(query.HubConfig{}),
	}
	if cfg.Track != nil {
		ts := track.NewStages(cfg.Shards, *cfg.Track)
		e.tracks, e.lanes = ts, append(e.lanes, ts)
	}
	if cfg.Anomaly != nil {
		as := anomaly.NewStages(cfg.Shards, *cfg.Anomaly)
		// CEP alerts join the pipelines' own detections on every standing
		// alert subscription (a no-op publish until someone subscribes).
		as.OnAlert(e.hub.PublishAlert)
		e.anoms, e.lanes = as, append(e.lanes, as)
	}
	return e
}

// Start wires the dataflow: one queue and worker per shard, merged
// alert stream, the publish hook feeding the subscription hub, and —
// when a Backend is configured — the persistence flush stage attached to
// every shard's archive store. It must be called exactly once, before
// Ingest.
func (e *Engine) Start(ctx context.Context) {
	if e.started {
		panic("ingest: Start called twice")
	}
	e.started = true
	if e.cfg.Flight != nil {
		e.hub.SetFlight(e.cfg.Flight)
		if d, ok := e.cfg.Backend.(*store.Disk); ok {
			d.SetFlight(e.cfg.Flight)
		}
	}
	if e.cfg.Backend != nil {
		e.flusher = store.NewFlusher(e.cfg.Backend, e.cfg.Flush)
		if e.cfg.Flight != nil {
			e.flusher.SetFlight(e.cfg.Flight)
		}
	}
	// Every shard store tees its post-synopsis appends into the hub
	// (standing queries see exactly the records a one-shot replay would
	// return), the flush stage when persistence is on, and every attached
	// lane (same shard routing as the pipelines, so each lane shard sees
	// exactly its shard's vessels). The hub is a single atomic check per
	// batch until something subscribes.
	for i, p := range e.sharded.Shards {
		sinks := []tstore.Sink{e.hub}
		if e.flusher != nil {
			sinks = append(sinks, e.flusher)
		}
		for _, l := range e.lanes {
			sinks = append(sinks, e.flightWrap(l.Sink(i), l.Name()))
		}
		if len(sinks) == 1 {
			p.Store.Attach(sinks[0])
		} else {
			p.Store.Attach(tstore.Tee(sinks...))
		}
	}
	// Tiered archive: the eviction manager watches every shard store
	// against the shared memory budget, spilling cold vessels into the
	// object store and leaving stubs queries page back transparently.
	if e.cfg.MemoryBudget > 0 {
		stores := make([]*tstore.Store, len(e.sharded.Shards))
		for i, p := range e.sharded.Shards {
			stores[i] = p.Store
		}
		m, err := tier.NewManager(tier.Config{
			Budget:     e.cfg.MemoryBudget,
			CheckEvery: e.cfg.TierCheckEvery,
			Objects:    e.cfg.TierObjects,
		}, stores...)
		if err != nil {
			// A misconfigured tier (no object store) is a programming
			// error on par with Start-before-Ingest, not a runtime
			// condition to limp through with an unbounded archive.
			panic("ingest: " + err.Error())
		}
		if e.cfg.Flight != nil {
			m.SetFlight(e.cfg.Flight)
		}
		e.tier = m
	}
	e.inputs = make([]shardInput, e.cfg.Shards)
	e.batches.New = func() any { return new([]core.TimedReport) }
	// Instrument before the shard workers launch so the histogram fields
	// are plainly visible to them without atomics.
	if e.cfg.Obs != nil {
		e.instrument(e.cfg.Obs)
	}
	outs := make([]<-chan stream.Event[events.Alert], e.cfg.Shards)
	for i := range e.inputs {
		// With the open batch, ShardBuf/BatchSize batches: ShardBuf reports.
		e.inputs[i].q = make(chan *[]core.TimedReport, e.cfg.ShardBuf/e.cfg.BatchSize-1)
		out := make(chan stream.Event[events.Alert], e.cfg.AlertBuf)
		outs[i] = out
		e.workers.Add(1)
		go e.shardWorker(ctx, i, out)
	}
	e.alerts = stream.Merge(ctx, outs, e.cfg.AlertBuf)
	// Quiesce the flush stage once every shard worker has exited: drain
	// the queue, final-sync the backend. Wait blocks on this, so "drain
	// Alerts, then Wait" guarantees the persisted state covers every
	// processed report.
	e.flushDone = make(chan struct{})
	go func() {
		defer close(e.flushDone)
		e.workers.Wait()
		if e.flusher != nil {
			e.flusher.Close()
		}
		if e.tier != nil {
			// One final pass so the budget holds at quiesce even when the
			// whole feed replayed inside the loop's first tick, then stop
			// evicting; stubs stay pageable, so post-ingest queries still
			// see the whole archive.
			e.tier.Check()
			e.tier.Close()
		}
	}()
}

// instrument wires every stage into the registry. Called from Start
// (after the dataflow channels exist, before any shard worker launches)
// so the hot-path histogram fields are set once and read plainly.
func (e *Engine) instrument(reg *obs.Registry) {
	e.decodeNS = reg.Histogram("ingest_decode_ns")
	e.shardWaitNS = reg.Histogram("ingest_shard_wait_ns")
	e.batchNS = reg.Histogram("ingest_batch_append_ns")
	e.batchSizeH = reg.Histogram("ingest_batch_size")
	reg.CounterFunc("ingest_messages_in_total", func() float64 { return float64(e.Metrics.In.Load()) })
	reg.CounterFunc("ingest_messages_out_total", func() float64 { return float64(e.Metrics.Out.Load()) })
	reg.CounterFunc("ingest_messages_dropped_total", func() float64 { return float64(e.Metrics.Dropped.Load()) })
	reg.CounterFunc("ingest_decode_lines_total", func() float64 { return float64(e.DecodeMetrics.In.Load()) })
	reg.CounterFunc("ingest_decoded_total", func() float64 { return float64(e.DecodeMetrics.Out.Load()) })
	reg.CounterFunc("ingest_decode_failures_total", func() float64 { return float64(e.DecodeMetrics.Dropped.Load()) })
	for i := range e.inputs {
		reg.GaugeFunc("ingest_shard_depth",
			func() float64 { return float64(e.inputs[i].depth.Load()) },
			"shard", strconv.Itoa(i))
	}
	reg.GaugeFunc("ingest_queue_depth", func() float64 {
		var d int64
		for i := range e.inputs {
			d += e.inputs[i].depth.Load()
		}
		return float64(d)
	})
	if e.flusher != nil {
		e.flusher.Instrument(reg)
	}
	if d, ok := e.cfg.Backend.(*store.Disk); ok {
		d.Instrument(reg)
	}
	if e.tier != nil {
		e.tier.Instrument(reg)
	}
	for _, l := range e.lanes {
		l.Instrument(reg)
	}
	e.hub.Instrument(reg)
}

// Resume hands a recovered archive (store.Open) over to the engine's
// shards before Start: each vessel's series moves, uncopied, into its
// owning shard's store (tstore.Store.MoveTo), its newest state seeds that
// shard's live picture, and every attached lane folds the moved points in
// (lane.Host.Seed), so the online derived kinds answer exactly what a
// replay of the archive would from the first post-restart record on. The
// archive is held once: st is empty afterwards and must not be read as
// the archive again. st must hold no spilled chunks, and the shards no
// vessel it holds (MoveTo panics otherwise). It returns the number of
// points handed over. Resumed points are not re-persisted (the flush
// stage attaches at Start), not published to the hub, raise no alerts and
// do not count in pipeline metrics; detector and synopsis state restarts
// fresh — only what the stored picture determines resumes, matching what
// the WAL can know.
func (e *Engine) Resume(st *tstore.Store) int {
	if e.started {
		panic("ingest: Resume after Start")
	}
	return st.MoveTo(
		func(mmsi uint32) *tstore.Store { return e.sharded.ShardFor(mmsi).Store },
		func(mmsi uint32, pts []model.VesselState) {
			e.sharded.ShardFor(mmsi).Live.Update(pts[len(pts)-1])
			for _, l := range e.lanes {
				l.Seed(mmsi, pts)
			}
		})
}

// A shardInput is one shard's input, bounded in reports. A report joins
// the open batch, which is queued on q once full (blocking while q is full:
// backpressure) or at once when the worker is idle; a busy worker takes it
// as soon as q runs dry. So a batch never waits to fill, and a burst costs
// one channel send and one pipeline lock per batch.
type shardInput struct {
	q      chan *[]core.TimedReport
	depth  atomic.Int64 // reports submitted and not yet taken by the worker
	mu     sync.Mutex
	open   *[]core.TimedReport // nil: no report waiting outside q
	idle   bool                // the worker found q and open empty and waits on q
	closed bool
}

// take blocks for the shard's next batch, oldest first: a queued one, else
// the open batch, else the next one queued. nil once closed and drained.
func (s *shardInput) take() *[]core.TimedReport {
	for {
		s.mu.Lock()
		if len(s.q) == 0 && (s.open != nil || s.closed) {
			b := s.open
			s.open = nil
			s.mu.Unlock()
			return b
		}
		s.idle = len(s.q) == 0 // nothing to take: hand the next report over at once
		s.mu.Unlock()
		if b, ok := <-s.q; ok {
			return b
		}
	}
}

// shardWorker runs one shard's batches through its pipeline, forwarding
// raised alerts.
func (e *Engine) shardWorker(ctx context.Context, shard int, out chan<- stream.Event[events.Alert]) {
	defer e.workers.Done()
	defer close(out)
	p, in := e.sharded.Shards[shard], &e.inputs[shard]
	for b := in.take(); b != nil; b = in.take() {
		batch := *b
		in.depth.Add(-int64(len(batch)))
		if e.shardWaitNS != nil {
			for _, tr := range batch {
				if !tr.Arrived.IsZero() {
					e.shardWaitNS.ObserveSince(tr.Arrived)
				}
			}
		}
		var t0 time.Time
		if e.batchNS != nil {
			t0 = time.Now()
		}
		alerts := p.IngestBatch(batch)
		if e.batchNS != nil {
			e.batchNS.ObserveSince(t0)
			e.batchSizeH.Observe(int64(len(batch)))
		}
		e.Metrics.Out.Add(int64(len(batch)))
		clear(batch) // drop the report pointers
		*b = batch[:0]
		e.batches.Put(b)
		for _, a := range alerts {
			e.hub.PublishAlert(a) // no-op until something subscribes
			select {
			case out <- stream.Event[events.Alert]{Time: a.At, Key: uint64(a.MMSI), Value: a}:
			case <-ctx.Done():
				return
			}
		}
	}
}

// Ingest submits one decoded position report (see shardInput). It blocks
// when the dataflow is saturated (backpressure) and reports false once the
// context is cancelled. Calling Ingest after Close panics, as does calling
// it before Start.
func (e *Engine) Ingest(ctx context.Context, at time.Time, rep *ais.PositionReport) bool {
	if !e.started {
		panic("ingest: Ingest before Start")
	}
	tr := core.TimedReport{At: at, Rep: rep}
	if n := e.Metrics.In.Add(1); e.shardWaitNS != nil && n&63 == 0 {
		// Sample the shard-queue wait on every 64th submission: one clock
		// read here, one in the shard worker — negligible against the
		// full-rate path, yet enough observations to hold a percentile.
		tr.Arrived = time.Now()
	}
	s := &e.inputs[e.sharded.ShardIndex(rep.MMSI)]
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		panic("ingest: Ingest after Close")
	}
	s.depth.Add(1)
	if s.open == nil {
		s.open = e.batches.Get().(*[]core.TimedReport)
	}
	b := s.open
	*b = append(*b, tr)
	if !s.idle && len(*b) < e.cfg.BatchSize {
		s.mu.Unlock()
		return true
	}
	s.open, s.idle = nil, false
	s.mu.Unlock()
	select {
	case s.q <- b:
		return true
	case <-ctx.Done():
		s.depth.Add(-int64(len(*b)))
		e.Metrics.Dropped.Add(int64(len(*b)))
		return false
	}
}

// IngestStatic runs a static/voyage message through its shard's veracity
// stage synchronously (static traffic is ~1/60 of position traffic; it
// does not need the async path).
func (e *Engine) IngestStatic(at time.Time, msg *ais.StaticVoyage) []quality.Issue {
	return e.sharded.ShardFor(msg.MMSI).IngestStatic(at, msg)
}

// Alerts is the merged alert stream. It closes after Close (or StartLines
// completion) once every in-flight report has been processed.
func (e *Engine) Alerts() <-chan stream.Event[events.Alert] { return e.alerts }

// Close stops intake. Queued reports keep flowing; the Alerts channel
// closes once everything in flight has been processed, so "drain Alerts
// until it closes" is the completion barrier. Safe to call more than once.
// Close does not block on the shard workers — a caller that drains Alerts
// only after Close would otherwise deadlock against a full alert buffer.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		for i := range e.inputs {
			s := &e.inputs[i]
			s.mu.Lock()
			s.closed = true
			close(s.q)
			s.mu.Unlock()
		}
	})
}

// Wait blocks until every shard worker has exited — i.e. all submitted
// reports are processed and all alerts forwarded — and, when a Backend is
// configured, until the flush stage has drained and final-synced it.
// Someone must be draining Alerts (or the merge buffers must suffice) for
// Wait to return.
func (e *Engine) Wait() {
	e.workers.Wait()
	if e.flushDone != nil {
		<-e.flushDone
	}
}

// FlushErr returns the first error the storage stages have seen — the
// flush goroutine's backend writes, a shard store whose forwarding into
// the queue was refused, a failed remote segment/snapshot migration
// (degraded to local disk), an eviction spill, or a chunk page-back
// (nil while every stage is healthy). Complete after Wait.
func (e *Engine) FlushErr() error {
	if e.flusher != nil {
		if err := e.flusher.Err(); err != nil {
			return err
		}
	}
	if d, ok := e.cfg.Backend.(*store.Disk); ok {
		// A failed segment/snapshot migration degrades to local disk —
		// nothing lost, but the operator must hear about it somewhere
		// other than the next restart.
		if err := d.UploadErr(); err != nil {
			return err
		}
	}
	for _, p := range e.sharded.Shards {
		if err := p.Store.SinkErr(); err != nil {
			return err
		}
	}
	if e.tier != nil {
		if err := e.tier.Err(); err != nil {
			return err
		}
		for _, p := range e.sharded.Shards {
			if err := p.Store.PageErr(); err != nil {
				return err
			}
		}
	}
	return nil
}

// IngestDetections feeds non-AIS sensor detections (radar contacts)
// into the online track stage, which gates and assigns them to fused
// vessel tracks (contacts no vessel gates become anonymous orphan
// tracks). Detections are fused synchronously — callers interleave them
// with Ingest in timeline order. Returns the number of contacts fused
// into identified tracks; a no-op 0 when the stage is off (Config.Track
// nil).
func (e *Engine) IngestDetections(ds []track.Detection) int {
	if e.tracks == nil {
		return 0
	}
	return e.tracks.Process(ds)
}

// Tracks exposes the online track stage (nil when Config.Track is nil):
// fused per-vessel state, the lane the query engine reads, and the stage
// counters.
func (e *Engine) Tracks() *track.Stages { return e.tracks }

// Anomalies exposes the streaming anomaly lane (nil when Config.Anomaly
// is nil): per-vessel behavior profiles, the lane the query engine
// reads and the episode/gap/rendezvous tallies.
func (e *Engine) Anomalies() *anomaly.Stages { return e.anoms }

// Sharded exposes the underlying pipelines for synchronous queries —
// situation pictures, forecasts, archive access. Quiesce (Close, or just
// stop submitting) before deep reads if exact cut-off points matter.
func (e *Engine) Sharded() *core.Sharded { return e.sharded }

// QueryEngine returns the unified read surface over the engine's shards
// plus any configured federation peers: every request kind of
// internal/query answered from the live pipelines (per-vessel reads
// route to the owning shard; set reads fan out and merge), with peer
// answers merged in and deduplicated on (MMSI, timestamp). The engine is
// built once and cached — its per-shard spatial snapshots persist across
// queries and rebuild only after new ingest. Safe to call while
// ingesting: reads see each shard's consistent current state.
func (e *Engine) QueryEngine() *query.Engine {
	e.queryOnce.Do(func() {
		// The live source answers the derived kinds straight from the
		// online lanes that run; the rest keep the replay-from-archive
		// fallback.
		var lanes []query.Lane
		for _, l := range e.lanes {
			lanes = append(lanes, l.Lane())
		}
		sources := append([]query.Source{query.NewLiveSource(e.sharded, lanes...)}, e.cfg.Peers...)
		e.query = query.NewEngine(sources...)
		if e.cfg.Obs != nil {
			e.query.Instrument(e.cfg.Obs)
		}
		e.streamer = query.NewStreamer(e.hub, e.query)
	})
	return e.query
}

// Query answers one unified read request from the engine's shards — the
// ingest engine's read surface, same contract as query.Engine.Query.
func (e *Engine) Query(req query.Request) (*query.Result, error) {
	return e.QueryEngine().Query(req)
}

// QueryContext is Query under a caller context: traces attached with
// obs.WithTrace propagate into the stage spans, and query.Server routes
// HTTP requests here so &trace=1 reaches the engine.
func (e *Engine) QueryContext(ctx context.Context, req query.Request) (*query.Result, error) {
	return e.QueryEngine().QueryContext(ctx, req)
}

// Subscribe turns a query request into a standing query over the live
// dataflow: state updates as they are archived, alerts as they are
// raised, situations on a ticker — the push half of the read surface,
// served remotely by maritimed's /v1/stream. Safe to call while
// ingesting; subscribe before feeding the engine to observe everything.
func (e *Engine) Subscribe(req query.Request, opt query.SubOptions) (*query.Subscription, error) {
	e.QueryEngine() // ensure the streamer exists
	return e.streamer.Subscribe(req, opt)
}

// Snapshot sums the per-shard pipeline metrics.
func (e *Engine) Snapshot() core.Snapshot { return e.sharded.Snapshot() }

// Line is one raw NMEA sentence with its receive timestamp.
type Line struct {
	At   time.Time
	Text string
}

// StartLines bolts the NMEA decode front-end onto a started engine: n
// decode workers (each with its own fragment-reassembling decoder) consume
// lines in parallel, a resequencer restores arrival order, decoded
// position reports feed the dataflow and static messages go to onStatic
// (which may be nil; it is called from the single resequencer goroutine,
// never concurrently). When lines closes and everything drains, the
// engine is Closed automatically, so the caller's lifecycle is: feed
// lines → close(lines) → drain Alerts.
//
// Lines travel in chunks: the distributor takes whatever is already
// queued, up to BatchSize lines, and cuts it into runs for one decoder
// each — single-fragment sentences, the overwhelming bulk of AIS traffic,
// to the chunk's round-robin decoder, multi-fragment sentences to the one
// their (message id, channel) linking key picks, so reassembly sees every
// part. Every run carries a sequence number and comes back with a
// per-line outcome, so the resequencer emits messages in exactly the
// order a single sequential decoder would have: per-vessel event-time
// order — which the pipelines rely on — survives parallel decode, and a
// replayed log produces the same alert multiset at any worker count.
func (e *Engine) StartLines(ctx context.Context, lines <-chan Line,
	onStatic func(at time.Time, msg *ais.StaticVoyage, issues []quality.Issue)) {
	if !e.started {
		panic("ingest: StartLines before Start")
	}
	n, size := e.cfg.DecodeWorkers, e.cfg.BatchSize
	slots := e.cfg.ShardBuf / size // in chunks: ShardBuf lines per stage
	// A chunk is a run of consecutive lines for one decoder and, once
	// decoded, the message each line completed (nil: none, or undecodable).
	type decoded struct {
		Line
		msg any
	}
	type chunk struct {
		seq   int64
		lines []decoded
	}
	chunks := sync.Pool{New: func() any { return new(chunk) }}
	perWorker := make([]chan *chunk, n)
	for i := range perWorker {
		perWorker[i] = make(chan *chunk, slots)
	}
	results := make(chan *chunk, n*slots)
	var decoders sync.WaitGroup
	decoders.Add(n)
	for i := range perWorker {
		go func(in <-chan *chunk) {
			defer decoders.Done()
			dec := ais.NewDecoder()
			var n int
			for c := range in {
				for i := range c.lines {
					n++
					var t0 time.Time
					timed := e.decodeNS != nil && n&63 == 0
					if timed {
						t0 = time.Now()
					}
					msg, err := dec.Decode(c.lines[i].Text)
					if timed {
						e.decodeNS.ObserveSince(t0)
					}
					if err != nil {
						e.DecodeMetrics.Dropped.Add(1)
						msg = nil
					}
					c.lines[i].msg = msg
				}
				select {
				case results <- c:
				case <-ctx.Done():
					return
				}
			}
		}(perWorker[i])
	}
	// Distributor: take what is queued, cut it into per-decoder runs with a
	// cheap scan (no full parse), stamp each run's sequence number.
	go func() {
		defer func() {
			for _, ch := range perWorker {
				close(ch)
			}
		}()
		var seq int64
		send := func(c *chunk, to int) bool {
			e.DecodeMetrics.In.Add(int64(len(c.lines)))
			c.seq = seq
			seq++
			select {
			case perWorker[to] <- c:
				return true
			case <-ctx.Done():
				return false
			}
		}
		for rr := 0; ; rr++ {
			l, ok := <-lines
			if !ok {
				return
			}
			c, to := (*chunk)(nil), 0
			for taken := 1; ok; taken++ {
				idx := rr % n
				if key, multi := fragmentKey(l.Text); multi {
					idx = stream.ShardOf(hashString(key), n)
				}
				if c == nil || idx != to {
					if c != nil && !send(c, to) {
						return
					}
					c, to = chunks.Get().(*chunk), idx
				}
				c.lines = append(c.lines, decoded{Line: l})
				ok = false
				if taken < size {
					select {
					case l, ok = <-lines:
					default: // nothing more queued: do not wait for it
					}
				}
			}
			if !send(c, to) {
				return
			}
		}
	}()
	// Close the results channel once every worker is done.
	go func() {
		decoders.Wait()
		close(results)
	}()
	// Resequencer: emit chunks in sequence order, then quiesce the engine
	// so Alerts closes.
	go func() {
		defer e.Close()
		emit := func(c *chunk) bool {
			var out int64
			for _, l := range c.lines {
				if l.msg != nil {
					out++
				}
				switch m := l.msg.(type) {
				case *ais.PositionReport:
					if !e.Ingest(ctx, l.At, m) {
						return false
					}
				case *ais.StaticVoyage:
					issues := e.IngestStatic(l.At, m)
					if onStatic != nil {
						onStatic(l.At, m, issues)
					}
				}
			}
			e.DecodeMetrics.Out.Add(out)
			clear(c.lines) // drop the line text and the messages
			c.lines = c.lines[:0]
			chunks.Put(c)
			return true
		}
		var next int64
		held := make(map[int64]*chunk)
		for c := range results {
			held[c.seq] = c
			for c := held[next]; c != nil; c = held[next] {
				delete(held, next)
				if !emit(c) {
					return
				}
				next++
			}
		}
	}()
}

// fragmentKey extracts the fragment linking key (msgID/channel) from an
// AIVDM/AIVDO line without a full parse, and whether the sentence is part
// of a multi-fragment message. Malformed lines report single-fragment; the
// decoder rejects them properly downstream.
func fragmentKey(line string) (string, bool) {
	// !AIVDM,<fragcount>,<fragnum>,<msgid>,<channel>,<payload>,<fill>*CS
	i := strings.IndexByte(line, ',')
	if i < 0 {
		return "", false
	}
	rest := line[i+1:] // <fragcount>,...
	if strings.HasPrefix(rest, "1,") {
		return "", false // fragment count 1: self-contained sentence
	}
	// Skip <fragcount> and <fragnum>.
	for field := 0; field < 2; field++ {
		j := strings.IndexByte(rest, ',')
		if j < 0 {
			return "", false
		}
		rest = rest[j+1:]
	}
	// rest = <msgid>,<channel>,<payload>,… — the key is msgid+channel,
	// exactly what the decoder groups pending fragments by.
	j := strings.IndexByte(rest, ',')
	if j < 0 {
		return "", false
	}
	k := strings.IndexByte(rest[j+1:], ',')
	if k < 0 {
		return "", false
	}
	return rest[:j+1+k], true
}

// hashString is FNV-1a, inlined to keep the distributor allocation-free.
func hashString(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
