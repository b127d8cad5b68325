// Package lane is the one sharded host behind the online derived-kind
// stages (internal/track, internal/anomaly): a lane is a per-vessel fold
// — an accumulator the feed advances one archived record at a time —
// and the host owns everything about running folds that is not the fold
// itself: routing vessels to shards by the hash the pipelines shard by
// (stream.ShardOf), the per-shard lock and vessel map, the tstore.Sink
// the ingest tee appends into (with its sampled timing histogram), the
// vessel gauge, a locked view for readers, and seeding folds from a
// stored trajectory so a restarted daemon resumes where the archive
// left off. What a lane adds is its fold, what it does with the stream
// facts the fold surfaces, and its query.Lane read side.
package lane

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/tstore"
)

// Fold is one vessel's accumulator as the host drives it: Observe folds
// in the vessel's next record (time order, like the feed) and returns
// the stream facts that record completed — the zero E on the vast
// majority of records, and always for a fold that surfaces none
// (E = struct{}).
type Fold[E comparable] interface {
	Observe(model.VesselState) E
}

// Shard is one shard's folds. It implements tstore.Sink, so the ingest
// engine tees the shard store's archived records into it.
type Shard[F Fold[E], E comparable] struct {
	newFold func(mmsi uint32) F
	deliver func(fact E, seeded bool) // nil = facts dropped

	mu      sync.Mutex
	vessels map[uint32]F

	appends  atomic.Int64
	appendNS *obs.Histogram // sampled (1/64); nil when uninstrumented
}

// fold advances each record's vessel and returns the facts the batch
// completed. They are collected under the shard lock and delivered
// (emit) after release, so a lane's reaction — materialising, matching,
// alerting — never runs under it and never blocks the shard's readers.
func (s *Shard[F, E]) fold(recs []model.VesselState) []E {
	var zero E
	var facts []E
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range recs {
		f, ok := s.vessels[recs[i].MMSI]
		if !ok {
			f = s.newFold(recs[i].MMSI)
			s.vessels[recs[i].MMSI] = f
		}
		if fact := f.Observe(recs[i]); fact != zero {
			facts = append(facts, fact)
		}
	}
	return facts
}

func (s *Shard[F, E]) emit(facts []E, seeded bool) {
	if s.deliver == nil {
		return
	}
	for _, fact := range facts {
		s.deliver(fact, seeded)
	}
}

// Append implements tstore.Sink: every archived record advances its
// vessel's fold. It never fails — like the hub, a lane cannot refuse
// traffic. The sampled timing covers the fold, not the delivery.
func (s *Shard[F, E]) Append(recs ...model.VesselState) error {
	if len(recs) == 0 {
		return nil
	}
	var t0 time.Time
	timed := s.appendNS != nil && s.appends.Add(1)&63 == 0
	if timed {
		t0 = time.Now()
	}
	facts := s.fold(recs)
	if timed {
		s.appendNS.ObserveSince(t0)
	}
	s.emit(facts, false)
	return nil
}

// View runs fn on the shard's folds by MMSI with the shard locked: the
// consistent all-vessel view (rankings, radar gating). fn must not
// retain the map.
func (s *Shard[F, E]) View(fn func(vessels map[uint32]F)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.vessels)
}

// Vessel runs fn on one vessel's fold with the shard locked; false (fn
// not called) when the shard has never seen the vessel.
func (s *Shard[F, E]) Vessel(mmsi uint32, fn func(F)) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.vessels[mmsi]
	if ok {
		fn(f)
	}
	return ok
}

// VesselCount returns the number of vessels the shard holds a fold for.
func (s *Shard[F, E]) VesselCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.vessels)
}

// Host is a lane's sharded fold set: one Shard per ingest shard.
type Host[F Fold[E], E comparable] struct {
	name   string
	shards []*Shard[F, E]
}

// New builds a host of n shards (at least one). name is the lane's
// layer name: the prefix of its metric families and its flight-recorder
// layer. newFold builds a vessel's empty fold when the vessel is first
// seen; deliver (may be nil) receives every non-zero fact a fold
// returns, outside the shard lock, with seeded telling a fact replayed
// by Seed from one the live feed just completed.
func New[F Fold[E], E comparable](name string, n int,
	newFold func(mmsi uint32) F, deliver func(fact E, seeded bool)) *Host[F, E] {
	if n < 1 {
		n = 1
	}
	h := &Host[F, E]{name: name, shards: make([]*Shard[F, E], n)}
	for i := range h.shards {
		h.shards[i] = &Shard[F, E]{newFold: newFold, deliver: deliver, vessels: make(map[uint32]F)}
	}
	return h
}

// Name returns the lane's layer name.
func (h *Host[F, E]) Name() string { return h.name }

// Len returns the shard count.
func (h *Host[F, E]) Len() int { return len(h.shards) }

// Stage returns shard i's folds.
func (h *Host[F, E]) Stage(i int) *Shard[F, E] { return h.shards[i] }

// Sink returns shard i as the sink the ingest tee attaches.
func (h *Host[F, E]) Sink(i int) tstore.Sink { return h.shards[i] }

// Index returns the shard owning a vessel — the same routing as the
// pipelines (stream.ShardOf), so each shard sees exactly the vessels
// its shard store archives.
func (h *Host[F, E]) Index(mmsi uint32) int {
	return stream.ShardOf(uint64(mmsi), len(h.shards))
}

// ShardFor returns the shard owning a vessel.
func (h *Host[F, E]) ShardFor(mmsi uint32) *Shard[F, E] { return h.shards[h.Index(mmsi)] }

// VesselCount sums the vessels held across shards.
func (h *Host[F, E]) VesselCount() int {
	n := 0
	for _, s := range h.shards {
		n += s.VesselCount()
	}
	return n
}

// Seed folds a vessel's stored trajectory (time-ordered) into its
// owning shard — what Engine.Resume does for every recovered vessel, so
// a restarted daemon's online answers equal a replay of its archive
// from the first post-restart record on. The fold state afterwards is
// exactly what Append(pts...) would have left; the difference is in the
// facts, which are delivered with seeded set: a lane acts on those that
// rebuild per-process state (anomaly re-materialises closed episodes
// into its semantic store, which otherwise restarts empty) and skips
// those the previous process already acted on — seeding raises no
// alert, publishes nothing to the hub, and does not refill anomaly's
// cross-vessel recent-gap ring, so a rendezvous whose two gaps straddle
// the restart goes unmatched (either process saw only one of them).
func (h *Host[F, E]) Seed(mmsi uint32, pts []model.VesselState) {
	s := h.ShardFor(mmsi)
	s.emit(s.fold(pts), true)
}

// Instrument registers the host's series with reg under the lane's
// name: the <name>_vessels gauge and the sampled <name>_append_ns
// histogram.
func (h *Host[F, E]) Instrument(reg *obs.Registry) {
	reg.GaugeFunc(h.name+"_vessels", func() float64 { return float64(h.VesselCount()) })
	appendNS := reg.Histogram(h.name + "_append_ns")
	for _, s := range h.shards {
		s.appendNS = appendNS
	}
}
