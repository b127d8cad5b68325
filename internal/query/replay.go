package query

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/tstore"
)

// Fold is the one shape behind every per-vessel derived kind: an
// accumulator whose Observe folds in the vessel's next sample (time
// order, like the feed), returning whatever stream facts the sample
// completed (NoFacts for a fold that surfaces none), and whose Report
// renders the accumulated state — nil before any observation. The
// online stages keep one per vessel behind the ingest tee
// (internal/lane hosts them); Replay folds a stored trajectory through
// a fresh one. Same code either way, so online and replayed answers are
// byte-identical by construction.
type Fold[T any, E comparable] interface {
	Observe(model.VesselState) E
	Report() *T
}

// NoFacts is the fact type of a fold that surfaces no stream facts.
type NoFacts = struct{}

// Replay folds a vessel's stored samples (time-ordered) through a fresh
// accumulator from newFold and renders it — the offline half of every
// fold. Nil when the history is empty.
func Replay[T any, E comparable, F Fold[T, E]](newFold func(mmsi uint32) F, mmsi uint32, pts []model.VesselState) *T {
	if len(pts) == 0 {
		return nil
	}
	f := newFold(mmsi)
	for _, p := range pts {
		f.Observe(p)
	}
	return f.Report()
}

// archived is a Source over tstore archives (the live shards, a
// recovered store); replaysOf is the memo of the store holding a vessel.
type archived interface {
	Source
	replaysOf(mmsi uint32) *replays
}

// replayDerived is an archive's Derived: its own replay of the kind.
func replayDerived(ctx context.Context, a archived, req Request) (*Result, bool) {
	if d := lookup(req.Kind); d != nil && d.replay != nil {
		return d.replay(ctx, a, req), true
	}
	return nil, false
}

// replays memoises one store's fold reports per (kind, vessel) under the
// vessel's point count when folded (Store.VesselLen, exact because tstore
// is append-only): reused until the count moves, which eviction does not.
// Hits share a report, so it is never written.
type replays struct {
	store *tstore.Store
	mu    sync.Mutex
	memo  map[replayKey]replayed
}

type replayKey struct {
	kind Kind
	mmsi uint32
}

type replayed struct {
	n      int
	report any // the fold's *T
}

// memoReplay returns the vessel's report of kind, re-folding its whole
// history only once the count moved (a degraded page-back folds short and
// never hits). No IO under the mutex: concurrent misses fold, last wins.
func memoReplay[T any, E comparable, F Fold[T, E]](ctx context.Context, m *replays, kind Kind, mmsi uint32, newFold func(uint32) F) *T {
	n := m.store.VesselLen(mmsi)
	if n == 0 {
		return nil
	}
	key := replayKey{kind, mmsi}
	m.mu.Lock()
	e, ok := m.memo[key]
	m.mu.Unlock()
	if tally(ctx, ok && e.n == n) {
		return e.report.(*T)
	}
	pts := m.store.Trajectory(mmsi).Points
	rep := Replay(newFold, mmsi, pts)
	m.mu.Lock()
	m.memo[key] = replayed{n: len(pts), report: rep}
	m.mu.Unlock()
	return rep
}

// memoised builds a fold kind's replay; field locates its payload.
func memoised[T any, E comparable, F Fold[T, E]](field func(*Result) **T, newFold func(uint32) F) func(context.Context, archived, Request) *Result {
	return func(ctx context.Context, a archived, r Request) *Result {
		res := &Result{}
		*field(res) = memoReplay(ctx, a.replaysOf(r.MMSI), r.Kind, r.MMSI, newFold)
		return res
	}
}

// replayTally counts an instrumented request's memo hits and re-folds.
type replayTally struct{ hits, folds atomic.Int64 }

type tallyKey struct{}

// tally counts a hit or a fold on the request's tally, if any; it returns hit.
func tally(ctx context.Context, hit bool) bool {
	if t, ok := ctx.Value(tallyKey{}).(*replayTally); ok && hit {
		t.hits.Add(1)
	} else if ok {
		t.folds.Add(1)
	}
	return hit
}
