// Package anomaly is the streaming anomaly lane: per-vessel folds on the
// shared lane host (internal/lane — sharding, the post-synopsis tee
// sink, locking, seeding on Resume) that watch the live feed for
// behavioral anomalies as records arrive —
//
//   - a behavior profile per vessel (query.AnomalyAccumulator): sliding-
//     window distribution shift over speed/heading/position against the
//     vessel's own history, the unsupervised behavior-change blueprint
//     of Petry et al.;
//   - incremental stop/move episode extraction: every episode the
//     accumulator closes is zone-annotated and materialised into a
//     semstore.Store as it closes, instead of by offline batch
//     segmentation;
//   - continuous open-world CEP: reporting gaps are recognised the
//     moment the first sample after the silence arrives, and each
//     closed gap is matched against recent gaps of other vessels for
//     physically feasible covert meetings (events.PossibleRendezvous) —
//     the offline E13 sweep, folded into the stream.
//
// What is this package's own is what it does with the facts the fold
// surfaces: the cross-shard episode materialiser and gap→rendezvous
// matcher (shared). The lane answers the engine's anomalies kind as a
// query.Lane behind the live source (Stages.Lane routes each vessel to
// its owning shard), so one-shot HTTP, standing /v1/stream
// subscriptions, federation and tiering all read the same state — and
// the profile fold itself lives in internal/query, shared with the
// offline replay (query.Replay), so online and replayed reports are
// byte-identical. Everything is off-switchable: a nil ingest
// Config.Anomaly means no lane in the tee and zero cost.
package anomaly

import (
	"sync"
	"sync/atomic"

	"repro/internal/events"
	"repro/internal/geo"
	"repro/internal/lane"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/semstore"
	"repro/internal/zones"
)

// recentGaps bounds the cross-vessel ring of closed reporting gaps the
// rendezvous matcher pairs each fresh gap against.
const recentGaps = 256

// openWorld qualifies the continuous possible-rendezvous matches.
var openWorld = events.DefaultOpenWorldConfig()

// Config tunes what the stage DOES with the stream facts the fold
// surfaces — never the fold itself. Profile thresholds, bin layouts and
// the gap threshold are query package constants, so configuring a stage
// differently cannot break the online==offline equivalence the
// anomalies kind is pinned to. The zero value is usable: no zone
// annotation, no semantic materialisation. Possible-rendezvous
// qualification always uses events.DefaultOpenWorldConfig().
type Config struct {
	// Zones annotates each incrementally closed episode (an anchored
	// stop inside a port becomes moored) before materialisation; nil
	// skips annotation. Annotation happens after the fold, so reports
	// stay zone-free either way.
	Zones *zones.ZoneSet
	// Semantic, when non-nil, receives every closed episode as linked
	// triples (semstore.MaterialiseEpisode) the moment it closes — the
	// continuous version of batch materialisation. The store locks
	// internally; it may be shared with readers.
	Semantic *semstore.Store
}

// shared is the cross-shard core of a stage set: episode
// materialisation and the continuous rendezvous matcher. Gaps of two
// vessels land on different shards, so pairing them has to cross the
// shard boundary; stages call in only after releasing their own lock
// (lock order: stage.mu strictly before shared.mu, never nested).
type shared struct {
	cfg     Config
	onAlert func(events.Alert) // set before traffic; nil = count only

	episodes   atomic.Int64
	gaps       atomic.Int64
	rendezvous atomic.Int64

	mu     sync.Mutex
	recent []events.Gap // ring of the last recentGaps closed gaps
	head   int
}

// deliver acts on the facts a fold surfaced, outside every stage lock.
// Seeded facts (Resume replaying the archive) rebuild only what is
// per-process: closed episodes re-materialise into the semantic store,
// which restarts empty, while gaps are skipped — the previous process
// already counted and matched them, so seeding raises no alert and
// leaves the recent-gap ring empty.
func (sh *shared) deliver(f query.AnomalyFacts, seeded bool) {
	if f.Closed != nil {
		sh.episodeClosed(*f.Closed, f.Index)
	}
	if f.Gap != nil && !seeded {
		sh.gapClosed(*f.Gap)
	}
}

// episodeClosed counts, annotates and (when configured) materialises
// one closed episode.
func (sh *shared) episodeClosed(e semstore.Episode, idx int) {
	sh.episodes.Add(1)
	if sh.cfg.Semantic == nil {
		return
	}
	semstore.Annotate(&e, sh.cfg.Zones)
	semstore.MaterialiseEpisode(sh.cfg.Semantic, e, idx)
}

// gapClosed matches one freshly closed gap against the recent gaps of
// every other vessel — the QualifyRendezvous pair sweep, restricted to
// pairs the new gap completes. The pair is ordered lower MMSI first and
// pruned by the same reachability heuristic, so a continuous run fires
// exactly the alerts the offline sweep finds.
func (sh *shared) gapClosed(g events.Gap) {
	sh.gaps.Add(1)
	var fired []events.Alert
	sh.mu.Lock()
	for _, h := range sh.recent {
		if h.MMSI == g.MMSI {
			continue
		}
		reach := openWorld.MaxSpeedKn * geo.Knot *
			(g.Duration().Seconds() + h.Duration().Seconds()) / 2
		if geo.Distance(g.Before.Pos, h.Before.Pos) > reach {
			continue
		}
		a, b := h, g
		if g.MMSI < h.MMSI {
			a, b = g, h
		}
		if alert, ok := events.PossibleRendezvous(a, b, openWorld); ok {
			fired = append(fired, alert)
		}
	}
	if len(sh.recent) < recentGaps {
		sh.recent = append(sh.recent, g)
	} else {
		sh.recent[sh.head] = g
		sh.head = (sh.head + 1) % len(sh.recent)
	}
	sh.mu.Unlock()
	sh.rendezvous.Add(int64(len(fired)))
	if sh.onAlert != nil {
		for _, a := range fired {
			sh.onAlert(a)
		}
	}
}

// Stages is the sharded lane: a lane.Host of per-vessel profiles (shard
// routing, the tee sinks, Stage/ShardFor, VesselCount, Seed — promoted
// from the host) plus the shared materialisation/CEP core. Lane is its
// read side for the query engine's live source.
type Stages struct {
	*lane.Host[*query.AnomalyAccumulator, query.AnomalyFacts]
	shared *shared
}

// NewStages builds the lane over n shards (one per ingest shard) and
// one shared core.
func NewStages(n int, cfg Config) *Stages {
	sh := &shared{cfg: cfg}
	return &Stages{shared: sh, Host: lane.New("anomaly", n, query.NewAnomalyAccumulator, sh.deliver)}
}

// OnAlert installs the CEP alert consumer (the ingest engine wires the
// hub's alert fan-out here). Set before the stages receive traffic; it
// is called outside every stage lock.
func (ss *Stages) OnAlert(fn func(events.Alert)) { ss.shared.onAlert = fn }

// VesselAnomaly returns one vessel's report from its owning stage
// (nil, false when unknown).
func (ss *Stages) VesselAnomaly(mmsi uint32) (va *query.VesselAnomaly, ok bool) {
	ss.ShardFor(mmsi).Vessel(mmsi, func(acc *query.AnomalyAccumulator) { va = acc.Report() })
	return va, va != nil
}

// RankedAnomalies is the fleet ranking: every shard's reports
// merged, sorted score-descending (MMSI ascending on ties) and
// truncated to limit when limit > 0.
func (ss *Stages) RankedAnomalies(limit int) ([]query.VesselAnomaly, bool) {
	var reports []*query.VesselAnomaly
	for i := range ss.Len() {
		ss.Stage(i).View(func(vessels map[uint32]*query.AnomalyAccumulator) {
			for _, acc := range vessels {
				if va := acc.Report(); va != nil {
					reports = append(reports, va)
				}
			}
		})
	}
	return query.RankAnomalies(reports, limit), true
}

// Lane is the stages' read side as the live source consumes it: the
// anomalies kind answered from the online profiles — per-vessel where
// the request names an MMSI (ok=false when the stage does not know it),
// the fleet ranking otherwise.
func (ss *Stages) Lane() query.Lane {
	return query.Lane{query.KindAnomalies: func(r query.Request) (*query.Result, bool) {
		rep, ok := &query.AnomalyReport{}, false
		if r.MMSI != 0 {
			rep.Vessel, ok = ss.VesselAnomaly(r.MMSI)
		} else {
			rep.Ranked, ok = ss.RankedAnomalies(r.Limit)
		}
		return &query.Result{Anomalies: rep}, ok
	}}
}

// EpisodeCount returns closed (kept) stop/move episodes so far,
// re-materialised ones of a resumed archive included.
func (ss *Stages) EpisodeCount() int64 { return ss.shared.episodes.Load() }

// GapCount returns reporting gaps recognised on the live feed so far
// (a resumed archive's gaps were the previous process's).
func (ss *Stages) GapCount() int64 { return ss.shared.gaps.Load() }

// RendezvousCount returns possible-rendezvous alerts fired so far.
func (ss *Stages) RendezvousCount() int64 { return ss.shared.rendezvous.Load() }

// Instrument registers the lane's series with reg: the host's
// profiled-vessel gauge and sampled append cost, episode/gap/rendezvous
// counters, and the semantic-store triple gauge when materialisation is
// on.
func (ss *Stages) Instrument(reg *obs.Registry) {
	ss.Host.Instrument(reg)
	reg.CounterFunc("anomaly_episodes_total", func() float64 { return float64(ss.EpisodeCount()) })
	reg.CounterFunc("anomaly_gaps_total", func() float64 { return float64(ss.GapCount()) })
	reg.CounterFunc("anomaly_rendezvous_total", func() float64 { return float64(ss.RendezvousCount()) })
	if st := ss.shared.cfg.Semantic; st != nil {
		reg.GaugeFunc("anomaly_semantic_triples", func() float64 { return float64(st.Len()) })
	}
}
