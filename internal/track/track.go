// Package track is the online track-intelligence lane: per-vessel folds
// on the shared lane host (internal/lane — sharding, the post-synopsis
// tee sink, locking, seeding on Resume) that maintain fused state as the
// feed arrives —
//
//   - a constant-velocity Kalman track per vessel
//     (query.TrackAccumulator, the same fold the offline replay runs;
//     pinned by TestStageMatchesOfflineReplay), optionally fused with
//     anonymous radar detections (Mahalanobis-gated, Hungarian-assigned,
//     identity bound to the owning MMSI by the assignment);
//   - a quality.Profile integrity score folded per vessel
//     (query.QualityAccumulator).
//
// What is this package's own is what is not a fold: radar gating, the
// Hungarian assignment across a scan, and the orphan tracker for
// contacts no vessel gates (persist.go parks those across restarts).
//
// The lane answers the engine's track and quality kinds as a query.Lane
// behind the live source (Stages.Lane routes each vessel to its owning
// shard), so one-shot HTTP, standing /v1/stream queries, federation and
// tiering all read the same state. predict is not a lane kind: it is
// dead reckoning from the vessel's last archived sample, which the live
// source's replay answers at any shard count. Everything is
// off-switchable: a nil ingest Config.Track means no lane in the tee
// and zero cost.
package track

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fusion"
	"repro/internal/geo"
	"repro/internal/lane"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/query"
)

// Detection is one non-AIS sensor measurement: a position without an
// identity (radar contact). Callers convert from their sensor type
// (e.g. sim.RadarContact) so the stage stays sensor-agnostic.
type Detection struct {
	At      time.Time
	Pos     geo.Point
	SigmaM  float64 // sensor noise (1-sigma); Config.RadarSigmaM when 0
	Station int     // producing sensor, used to home orphaned contacts
}

// Config tunes the stage. The zero value is usable: default tracker
// lifecycle, 120 m radar noise.
type Config struct {
	// Tracker is the fusion lifecycle (gate, process noise, confirmation,
	// drop); zero value = fusion.DefaultTrackerConfig(). The AIS
	// measurement model itself is fixed (query.AISPositionSigmaM) so the
	// online state stays replay-equivalent to the offline derivation.
	Tracker fusion.TrackerConfig
	// RadarSigmaM is the default detection noise (1-sigma, metres).
	RadarSigmaM float64
}

func (c Config) normalize() Config {
	if c.Tracker == (fusion.TrackerConfig{}) {
		c.Tracker = fusion.DefaultTrackerConfig()
	}
	if c.RadarSigmaM <= 0 {
		c.RadarSigmaM = 120
	}
	return c
}

// vesselTrack is one vessel's lane state: the two folds the feed
// advances together.
type vesselTrack struct {
	kf *query.TrackAccumulator
	qa *query.QualityAccumulator
}

// Observe folds one AIS record into the vessel (shard lock held).
func (v *vesselTrack) Observe(rec model.VesselState) query.NoFacts {
	v.kf.Observe(rec)
	v.qa.Observe(rec)
	return query.NoFacts{}
}

// Stage is one shard of the lane: the host shard holding its vessels'
// folds (a tstore.Sink — the ingest engine tees archived records into
// it) plus what is not a fold at all: the anonymous tracker for radar
// contacts that gate to no vessel.
type Stage struct {
	*lane.Shard[*vesselTrack, query.NoFacts]
	cfg Config

	omu     sync.Mutex
	orphans *fusion.Tracker // anonymous contacts gating to no vessel

	contacts  atomic.Int64
	assocHits atomic.Int64
	orphaned  atomic.Int64

	assocNS *obs.Histogram // per radar scan; nil when uninstrumented
}

// NewStage builds a one-shard lane.
func NewStage(cfg Config) *Stage { return NewStages(1, cfg).stages[0] }

// Track returns the fused state of one of this shard's vessels, ok=false
// when the stage does not know it.
func (s *Stage) Track(mmsi uint32) (ts *query.TrackState, ok bool) {
	s.Vessel(mmsi, func(v *vesselTrack) { ts = v.kf.Report() })
	return ts, ts != nil
}

// Quality returns the vessel's folded integrity score.
func (s *Stage) Quality(mmsi uint32) (qs *query.QualityScore, ok bool) {
	s.Vessel(mmsi, func(v *vesselTrack) { qs = v.qa.Report() })
	return qs, qs != nil
}

// OrphanCount returns the anonymous (never identity-bound) tracks held
// for detections that gated to no known vessel.
func (s *Stage) OrphanCount() int {
	s.omu.Lock()
	defer s.omu.Unlock()
	return len(s.orphans.Tracks)
}

// sigmaOf is a detection's noise, defaulted from the config.
func (s *Stage) sigmaOf(d Detection) float64 {
	if d.SigmaM > 0 {
		return d.SigmaM
	}
	return s.cfg.RadarSigmaM
}

// bestGate returns the smallest gated squared Mahalanobis distance from
// the detection to any of this stage's vessel tracks (predicted,
// non-mutating, to the detection instant).
func (s *Stage) bestGate(d Detection) (float64, bool) {
	best := math.Inf(1)
	s.View(func(vessels map[uint32]*vesselTrack) {
		for _, v := range vessels {
			f := v.kf.Predicted(d.At)
			if d2 := f.MahalanobisSq(d.Pos, s.sigmaOf(d)); d2 < best {
				best = d2
			}
		}
	})
	return best, best <= s.cfg.Tracker.GateChi2
}

// detect fuses one radar scan's contacts into this stage's vessels:
// a cost matrix of gated Mahalanobis distances (vessels × contacts),
// solved by the Hungarian assignment, committed as anonymous updates to
// the winning tracks — which binds each contact to that track's MMSI.
// Contacts the assignment leaves free go to the orphan tracker.
func (s *Stage) detect(at time.Time, contacts []Detection) int {
	var t0 time.Time
	if s.assocNS != nil {
		t0 = time.Now()
	}
	var assigned []fusion.Assignment
	var free []int
	s.View(func(vessels map[uint32]*vesselTrack) {
		// Deterministic row order: map iteration must not decide ties.
		mmsis := make([]uint32, 0, len(vessels))
		for m := range vessels {
			mmsis = append(mmsis, m)
		}
		sort.Slice(mmsis, func(i, j int) bool { return mmsis[i] < mmsis[j] })
		costs := make([][]float64, len(mmsis))
		for i, m := range mmsis {
			costs[i] = make([]float64, len(contacts))
			f := vessels[m].kf.Predicted(at)
			for j, d := range contacts {
				d2 := f.MahalanobisSq(d.Pos, s.sigmaOf(d))
				if d2 > s.cfg.Tracker.GateChi2 {
					d2 = math.Inf(1)
				}
				costs[i][j] = d2
			}
		}
		assigned, _, free = fusion.Associate(costs)
		for _, a := range assigned {
			d := contacts[a.Measurement]
			vessels[mmsis[a.Track]].kf.Fuse(at, d.Pos, s.sigmaOf(d))
		}
	})
	for _, j := range free {
		s.orphan(contacts[j])
	}
	s.assocHits.Add(int64(len(assigned)))
	if s.assocNS != nil {
		s.assocNS.ObserveSince(t0)
	}
	return len(assigned)
}

// orphan routes one contact that gated to no vessel into this stage's
// anonymous tracker (which associates it among the orphans).
func (s *Stage) orphan(d Detection) {
	s.omu.Lock()
	s.orphans.Process(d.At, []fusion.Measurement{{
		At: d.At, Pos: d.Pos, SigmaM: s.sigmaOf(d), Source: "radar",
	}})
	s.omu.Unlock()
	s.orphaned.Add(1)
}

// Stages is the sharded lane: a lane.Host of per-vessel folds (shard
// routing, the tee sinks, VesselCount, Seed — promoted from the host)
// plus each shard's Stage. The zero value is an empty stage set.
type Stages struct {
	*lane.Host[*vesselTrack, query.NoFacts]
	stages []*Stage
}

// NewStages builds the lane over n shards (one per ingest shard).
func NewStages(n int, cfg Config) *Stages {
	cfg = cfg.normalize()
	newKF := query.TrackFold(cfg.Tracker)
	ss := &Stages{Host: lane.New("track", n, func(mmsi uint32) *vesselTrack {
		return &vesselTrack{kf: newKF(mmsi), qa: query.NewQualityAccumulator(mmsi)}
	}, nil)}
	for i := range ss.Len() {
		ss.stages = append(ss.stages, &Stage{
			Shard:   ss.Stage(i),
			cfg:     cfg,
			orphans: fusion.NewTracker(cfg.Tracker),
		})
	}
	return ss
}

// of returns the stage owning a vessel.
func (ss Stages) of(mmsi uint32) *Stage { return ss.stages[ss.Index(mmsi)] }

// Track returns a vessel's fused state from its owning stage.
func (ss Stages) Track(mmsi uint32) (*query.TrackState, bool) { return ss.of(mmsi).Track(mmsi) }

// Lane is the stages' read side as the live source consumes it: track
// and quality answered from the owning shard's fused state, ok=false
// where the stage does not know the vessel.
func (ss Stages) Lane() query.Lane {
	return query.Lane{
		query.KindTrack: func(r query.Request) (*query.Result, bool) {
			ts, ok := ss.Track(r.MMSI)
			return &query.Result{Track: ts}, ok
		},
		query.KindQuality: func(r query.Request) (*query.Result, bool) {
			qs, ok := ss.of(r.MMSI).Quality(r.MMSI)
			return &query.Result{Quality: qs}, ok
		},
	}
}

// Process fuses a batch of detections, grouped into scans by timestamp
// (contacts of one scan arrive adjacent, as sensors emit them). Each
// contact is homed to the stage whose vessels gate it best, each
// stage's scan is Hungarian-assigned jointly, and contacts no vessel
// gates go to an orphan tracker (homed by station). Returns the number
// of contacts fused into identified vessel tracks.
func (ss Stages) Process(ds []Detection) int {
	if len(ss.stages) == 0 {
		return 0
	}
	n := 0
	for i := 0; i < len(ds); {
		j := i + 1
		for j < len(ds) && ds[j].At.Equal(ds[i].At) {
			j++
		}
		n += ss.scan(ds[i].At, ds[i:j])
		i = j
	}
	return n
}

func (ss Stages) scan(at time.Time, contacts []Detection) int {
	perStage := make([][]Detection, len(ss.stages))
	for _, d := range contacts {
		best, bestD2 := -1, math.Inf(1)
		for si, st := range ss.stages {
			if d2, ok := st.bestGate(d); ok && d2 < bestD2 {
				best, bestD2 = si, d2
			}
		}
		home := d.Station
		if home < 0 {
			home = -home
		}
		ss.stages[home%len(ss.stages)].contacts.Add(1)
		if best < 0 {
			ss.stages[home%len(ss.stages)].orphan(d)
			continue
		}
		perStage[best] = append(perStage[best], d)
	}
	n := 0
	for si, batch := range perStage {
		if len(batch) > 0 {
			n += ss.stages[si].detect(at, batch)
		}
	}
	return n
}

// OrphanCount sums anonymous tracks across stages.
func (ss Stages) OrphanCount() int {
	n := 0
	for _, st := range ss.stages {
		n += st.OrphanCount()
	}
	return n
}

// Instrument registers the lane's series with reg: the host's vessel
// gauge and sampled append cost, the orphan-track gauge, contact
// counters (seen / fused / orphaned) and per-scan association latency.
func (ss Stages) Instrument(reg *obs.Registry) {
	sum := func(f func(*Stage) int64) func() float64 {
		return func() float64 {
			var n int64
			for _, st := range ss.stages {
				n += f(st)
			}
			return float64(n)
		}
	}
	ss.Host.Instrument(reg)
	reg.GaugeFunc("track_orphan_tracks", func() float64 { return float64(ss.OrphanCount()) })
	reg.CounterFunc("track_contacts_total", sum(func(st *Stage) int64 { return st.contacts.Load() }))
	reg.CounterFunc("track_contacts_fused_total", sum(func(st *Stage) int64 { return st.assocHits.Load() }))
	reg.CounterFunc("track_contacts_orphaned_total", sum(func(st *Stage) int64 { return st.orphaned.Load() }))
	assocNS := reg.Histogram("track_associate_ns")
	for _, st := range ss.stages {
		st.assocNS = assocNS
	}
}
