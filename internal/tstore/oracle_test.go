package tstore

import (
	"bytes"
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/sim"
)

// The reference for the differential tests below: the read paths as they
// stood before run summaries. SpaceTime copied every in-window point of
// every vessel under the read lock and applied the box afterwards; the
// snapshot recomputed every chunk rectangle point by point, and
// NearestVessels queued every admissible chunk of the archive in one
// best-first level. The summarised paths must return the same answers in
// the same order.

func (st *Store) refSpaceTime(r geo.Rect, from, to time.Time) []model.VesselState {
	type vesselRead struct {
		mmsi     uint32
		resident []model.VesselState
		need     []evChunk
	}
	st.mu.RLock()
	reads := make([]vesselRead, 0, len(st.vessels))
	for m, ser := range st.vessels {
		lo, hi := ser.rangeIdx(from, to)
		need := ser.chunksInWindow(from, to, &r)
		if hi == lo && len(need) == 0 {
			continue
		}
		vr := vesselRead{mmsi: m, need: need}
		vr.resident = make([]model.VesselState, hi-lo)
		copy(vr.resident, ser.points[lo:hi])
		reads = append(reads, vr)
	}
	st.mu.RUnlock()
	sort.Slice(reads, func(i, j int) bool { return reads[i].mmsi < reads[j].mmsi })
	var out []model.VesselState
	for _, vr := range reads {
		merged := vr.resident
		if len(vr.need) > 0 {
			parts := st.fetchChunks(vr.mmsi, vr.need)
			for i, p := range parts {
				parts[i] = trimWindow(p, from, to)
			}
			parts = append(parts, vr.resident)
			merged = mergeByTime(parts)
		}
		for _, p := range merged {
			if r.Contains(p.Pos) {
				out = append(out, p)
			}
		}
	}
	return out
}

// refSnapshot is the old snapshot: a flat chunk directory (a Snapshot
// with no groups) whose rectangles were computed point by point at build
// time.
type refSnapshot struct {
	sn *Snapshot
}

func (st *Store) refSpatialSnapshot() *refSnapshot {
	st.mu.RLock()
	defer st.mu.RUnlock()
	states := make([]model.VesselState, 0, st.resident)
	mmsis := make([]uint32, 0, len(st.vessels))
	for m := range st.vessels {
		mmsis = append(mmsis, m)
	}
	sort.Slice(mmsis, func(i, j int) bool { return mmsis[i] < mmsis[j] })
	sn := &Snapshot{total: st.total}
	for _, m := range mmsis {
		ser := st.vessels[m]
		for _, c := range ser.chunks {
			sn.chunks = append(sn.chunks, snapChunk{
				mmsi: m, rect: c.rect, from: c.from, to: c.to,
				lazy: &lazyChunk{key: c.key, n: c.n},
			})
		}
		pts := ser.points
		base := len(states)
		states = append(states, pts...)
		for lo := 0; lo < len(pts); lo += nearestChunkLen {
			hi := min(lo+nearestChunkLen, len(pts))
			c := snapChunk{
				mmsi: m, rect: geo.EmptyRect(),
				from: pts[lo].At, to: pts[hi-1].At,
				lo: base + lo, hi: base + hi,
			}
			for _, p := range pts[lo:hi] {
				c.rect = c.rect.Extend(p.Pos)
			}
			sn.chunks = append(sn.chunks, c)
		}
	}
	sn.states = states
	sn.fetch = func(mmsi uint32, key string, n int) []model.VesselState {
		pts, _ := st.fetchChunk(mmsi, evChunk{key: key, n: n})
		return pts
	}
	return &refSnapshot{sn: sn}
}

func (rs *refSnapshot) NearestVessels(p geo.Point, at time.Time, tol time.Duration, k int) []model.VesselState {
	sn := rs.sn
	if k <= 0 || len(sn.chunks) == 0 {
		return nil
	}
	admit := func(t time.Time) bool {
		dt := t.Sub(at)
		if dt < 0 {
			dt = -dt
		}
		return dt <= tol
	}
	q := make(refQueue, 0, 64)
	for i := range sn.chunks {
		c := &sn.chunks[i]
		switch {
		case at.Before(c.from):
			if c.from.Sub(at) > tol {
				continue
			}
		case at.After(c.to):
			if at.Sub(c.to) > tol {
				continue
			}
		}
		q = append(q, refEntry{dist: c.rect.DistanceTo(p), chunk: i, mmsi: c.mmsi})
	}
	heap.Init(&q)
	seen := make(map[uint32]bool, k)
	out := make([]model.VesselState, 0, k)
	for q.Len() > 0 && len(out) < k {
		e := heap.Pop(&q).(refEntry)
		if seen[e.mmsi] {
			continue
		}
		if e.chunk < 0 {
			seen[e.mmsi] = true
			out = append(out, e.state)
			continue
		}
		c := &sn.chunks[e.chunk]
		var best model.VesselState
		found, bd := false, math.Inf(1)
		for _, s := range sn.resolve(c) {
			if !admit(s.At) {
				continue
			}
			if d := geo.Distance(p, s.Pos); d < bd {
				best, bd, found = s, d, true
			}
		}
		if found {
			heap.Push(&q, refEntry{dist: bd, chunk: -1, state: best, mmsi: c.mmsi})
		}
	}
	return out
}

type refEntry struct {
	dist  float64
	chunk int
	state model.VesselState
	mmsi  uint32
}

type refQueue []refEntry

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(refEntry)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// memChunks is an in-memory ChunkStore.
type memChunks struct {
	mu   sync.Mutex
	next int
	runs map[string][]model.VesselState
}

func newMemChunks() *memChunks { return &memChunks{runs: map[string][]model.VesselState{}} }

func (c *memChunks) Spill(mmsi uint32, pts []model.VesselState) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.next++
	key := fmt.Sprintf("%d/%d", mmsi, c.next)
	c.runs[key] = append([]model.VesselState(nil), pts...)
	return key, nil
}

func (c *memChunks) Fetch(key string, _ uint32, _ int) ([]model.VesselState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pts, ok := c.runs[key]
	if !ok {
		return nil, fmt.Errorf("no chunk %q", key)
	}
	return pts, nil
}

// checkSummaries asserts that every series' run rectangles and bound equal
// the ones recomputed from its resident points.
func checkSummaries(tb testing.TB, st *Store) {
	tb.Helper()
	st.mu.RLock()
	defer st.mu.RUnlock()
	for m, ser := range st.vessels {
		if want := len(ser.points) / nearestChunkLen; len(ser.runs) != want {
			tb.Fatalf("vessel %d: %d run summaries over %d resident points, want %d", m, len(ser.runs), len(ser.points), want)
		}
		for i, got := range ser.runs {
			if want := rectOf(ser.points[i*nearestChunkLen : (i+1)*nearestChunkLen]); got != want {
				tb.Fatalf("vessel %d run %d: summary %+v, recomputed %+v", m, i, got, want)
			}
		}
		if want := rectOf(ser.points); ser.bound != want {
			tb.Fatalf("vessel %d: bound %+v, recomputed %+v", m, ser.bound, want)
		}
	}
}

type boxQuery struct {
	r        geo.Rect
	from, to time.Time
}

type nearQuery struct {
	p   geo.Point
	at  time.Time
	tol time.Duration
	k   int
}

// randomQueries draws box reads (0.1–2° boxes around stored points over
// windows around their times, some unbounded) and nearest reads around
// the same points.
func randomQueries(rng *rand.Rand, st *Store, n int) ([]boxQuery, []nearQuery) {
	var pts []model.VesselState
	for _, m := range st.MMSIs() {
		pts = append(pts, st.Trajectory(m).Points...)
	}
	if len(pts) == 0 {
		return nil, nil
	}
	var boxes []boxQuery
	var nears []nearQuery
	tols := []time.Duration{time.Minute, 30 * time.Minute, 2 * time.Hour, 1<<63 - 1}
	for range n {
		c := pts[rng.Intn(len(pts))]
		half := 0.05 + rng.Float64()
		r := geo.Rect{MinLat: c.Pos.Lat - half, MinLon: c.Pos.Lon - half, MaxLat: c.Pos.Lat + half, MaxLon: c.Pos.Lon + half}
		span := time.Duration(rng.Intn(120)) * time.Minute
		q := boxQuery{r: r, from: c.At.Add(-span), to: c.At.Add(span)}
		if rng.Intn(8) == 0 {
			q.from, q.to = time.Time{}, time.Unix(1<<40, 0)
		}
		boxes = append(boxes, q)
		nears = append(nears, nearQuery{
			p:  geo.Point{Lat: c.Pos.Lat + rng.NormFloat64()*0.2, Lon: c.Pos.Lon + rng.NormFloat64()*0.2},
			at: c.At.Add(time.Duration(rng.Intn(3600)-1800) * time.Second), tol: tols[rng.Intn(len(tols))], k: 1 + rng.Intn(12),
		})
	}
	return boxes, nears
}

// assertMatchesReference diffs SpaceTime and NearestVessels against the
// reference on the given reads.
func assertMatchesReference(t *testing.T, st *Store, boxes []boxQuery, nears []nearQuery) {
	t.Helper()
	sn, ref := st.SpatialSnapshot(), st.refSpatialSnapshot()
	if sn.Len() != st.Len() {
		t.Fatalf("snapshot covers %d points, store holds %d", sn.Len(), st.Len())
	}
	for i, q := range boxes {
		want := st.refSpaceTime(q.r, q.from, q.to)
		if got := st.SpaceTime(q.r, q.from, q.to); !reflect.DeepEqual(got, want) {
			t.Fatalf("box read %d %+v: SpaceTime returned %d points, reference %d (or they differ)", i, q, len(got), len(want))
		}
	}
	for i, q := range nears {
		got := sn.NearestVessels(q.p, q.at, q.tol, q.k)
		want := ref.NearestVessels(q.p, q.at, q.tol, q.k)
		if !reflect.DeepEqual(got, want) && !sameUpToTies(q.p, got, want) {
			t.Fatalf("nearest read %d %+v:\n got %v\nwant %v", i, q, got, want)
		}
	}
}

// sameUpToTies accepts a nearest answer that differs from the reference's
// only where one vessel has several samples at exactly the nearest
// distance: the reference took whichever its heap popped first, the
// two-level search takes the earliest.
func sameUpToTies(p geo.Point, got, want []model.VesselState) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].MMSI != want[i].MMSI || geo.Distance(p, got[i].Pos) != geo.Distance(p, want[i].Pos) || want[i].At.Before(got[i].At) {
			return false
		}
	}
	return true
}

// simStore archives a seeded sim fleet's reported positions in arrival
// order, late reports included.
func simStore(tb testing.TB, seed int64, vessels int, dur time.Duration) *Store {
	cfg := sim.Config{Seed: seed, World: sim.MediterraneanWorld(1), NumVessels: vessels, Duration: dur, TickSec: 2}
	cfg.DefaultAnomalyRates()
	run, err := sim.Simulate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	st := New()
	for i := range run.Positions {
		o := &run.Positions[i]
		st.Append(model.FromReport(o.At, &o.Report))
	}
	return st
}

// TestReadsMatchReferenceOnSimFeeds diffs the summarised reads against the
// reference on three seeded fleets, fully resident and again with every
// other vessel evicted.
func TestReadsMatchReferenceOnSimFeeds(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			st := simStore(t, seed, 24, 40*time.Minute)
			st.SetChunkStore(newMemChunks())
			rng := rand.New(rand.NewSource(seed))
			boxes, nears := randomQueries(rng, st, 80)
			checkSummaries(t, st)
			assertMatchesReference(t, st, boxes, nears)
			for i, m := range st.MMSIs() {
				if i%2 == 0 {
					if _, err := st.EvictVessel(m); err != nil {
						t.Fatal(err)
					}
				}
			}
			if tc := st.Tier(); tc.EvictedVessels == 0 || tc.ResidentVessels == 0 {
				t.Fatalf("half eviction left %+v", tc)
			}
			checkSummaries(t, st)
			assertMatchesReference(t, st, boxes, nears)
		})
	}
}

// TestReadsMatchReferenceOnEdges diffs the summarised reads against the
// reference where the summaries change shape: run boundaries, stragglers,
// duplicate timestamps, eviction, Load, boundary-exact windows and boxes,
// and an empty store.
func TestReadsMatchReferenceOnEdges(t *testing.T) {
	// track appends n samples of one vessel, a minute apart, heading
	// north-east from (lat, lon).
	track := func(st *Store, mmsi uint32, n int, lat, lon float64) {
		for i := range n {
			st.Append(sample(mmsi, i*60, lat+float64(i)*0.01, lon+float64(i)*0.005))
		}
	}
	// reads covers every run boundary of the given store: windows that
	// start or end exactly on a run's first or last At, boxes cut at run
	// rectangle edges, plus random reads.
	reads := func(st *Store, seed int64) ([]boxQuery, []nearQuery) {
		boxes, nears := randomQueries(rand.New(rand.NewSource(seed)), st, 40)
		world := geo.Rect{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}
		for _, m := range st.MMSIs() {
			pts := st.Trajectory(m).Points
			for lo := 0; lo < len(pts); lo += nearestChunkLen {
				hi := min(lo+nearestChunkLen, len(pts))
				first, last := pts[lo].At, pts[hi-1].At
				run := rectOf(pts[lo:hi])
				boxes = append(boxes,
					boxQuery{world, first, last},
					boxQuery{world, first, first},
					boxQuery{world, last, last},
					boxQuery{world, last, last.Add(time.Hour)},
					boxQuery{world, first.Add(-time.Hour), first},
					// Boxes that touch the run's rectangle only at an edge
					// or a corner.
					boxQuery{geo.Rect{MinLat: run.MaxLat, MinLon: run.MinLon, MaxLat: run.MaxLat + 1, MaxLon: run.MaxLon}, first, last},
					boxQuery{geo.Rect{MinLat: run.MinLat - 1, MinLon: run.MinLon - 1, MaxLat: run.MinLat, MaxLon: run.MinLon}, first, last},
					boxQuery{geo.Rect{MinLat: run.MinLat, MinLon: run.MaxLon, MaxLat: run.MaxLat, MaxLon: run.MaxLon + 1}, time.Time{}, last},
				)
				if last.Sub(first) > time.Nanosecond { // strictly inside the run's span
					boxes = append(boxes, boxQuery{world, first.Add(time.Nanosecond), last.Add(-time.Nanosecond)})
				}
				nears = append(nears,
					nearQuery{p: geo.Point{Lat: run.MaxLat, Lon: run.MaxLon}, at: last, tol: 0, k: 3},
					nearQuery{p: geo.Point{Lat: run.MinLat, Lon: run.MinLon}, at: first.Add(-time.Minute), tol: time.Minute, k: 3},
				)
			}
		}
		return boxes, nears
	}
	check := func(t *testing.T, st *Store, seed int64) {
		t.Helper()
		checkSummaries(t, st)
		boxes, nears := reads(st, seed)
		assertMatchesReference(t, st, boxes, nears)
	}

	t.Run("63, 64 and 65 points", func(t *testing.T) {
		st := New()
		track(st, 1, 63, 40, 5)
		track(st, 2, 64, 40.2, 5)
		track(st, 3, 65, 40.4, 5)
		check(t, st, 1)
	})
	t.Run("straggler inside a sealed run", func(t *testing.T) {
		st := New()
		track(st, 1, 200, 40, 5)
		track(st, 2, 150, 40.3, 5.2)
		check(t, st, 2)
		// A late report far off the track lands at index 11 of run 0.
		st.Append(sample(1, 10*60+30, 44, 12))
		check(t, st, 3)
	})
	t.Run("straggler at a run boundary", func(t *testing.T) {
		st := New()
		track(st, 1, 200, 40, 5)
		st.Append(sample(1, 63*60+30, 45, 13)) // lands at index 64: run 0 keeps its summary
		check(t, st, 4)
		st.Append(sample(1, 62*60+30, 35, -3)) // lands at index 63: the last point of run 0
		check(t, st, 5)
		st.Append(sample(1, -60, 36, 0)) // before everything: every run reshuffles
		check(t, st, 6)
	})
	t.Run("duplicate timestamps", func(t *testing.T) {
		st := New()
		for i := range 140 {
			st.Append(sample(1, (i/3)*60, 40+float64(i%7)*0.01, 5+float64(i%5)*0.01))
			st.Append(sample(2, (i/2)*60, 40.05, 5.01)) // a stationary vessel: exact distance ties
		}
		st.Append(sample(1, 21*60, 41, 6)) // a duplicate of a run-boundary time
		check(t, st, 7)
	})
	t.Run("evict, append, read", func(t *testing.T) {
		st := New()
		st.SetChunkStore(newMemChunks())
		track(st, 1, 300, 40, 5)
		track(st, 2, 100, 40.5, 5.5)
		if _, err := st.EvictVessel(1); err != nil {
			t.Fatal(err)
		}
		check(t, st, 8)
		for i := range 90 {
			st.Append(sample(1, 300*60+i*60, 43, 7+float64(i)*0.01))
		}
		st.Append(sample(1, 150*60+30, 39, 4)) // older than the evicted tail
		check(t, st, 9)
		if _, err := st.EvictVessel(1); err != nil {
			t.Fatal(err)
		}
		if _, err := st.EvictVessel(2); err != nil {
			t.Fatal(err)
		}
		track(st, 2, 70, 38, 2) // duplicates every evicted timestamp of vessel 2
		check(t, st, 10)
	})
	t.Run("Load into a live store", func(t *testing.T) {
		src := New()
		track(src, 1, 130, 40, 5)
		track(src, 3, 40, 41, 6)
		var buf bytes.Buffer
		if _, err := src.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		st := New()
		for i := range 100 { // interleaves with the loaded vessel 1
			st.Append(sample(1, i*60+30, 39, 4+float64(i)*0.01))
		}
		track(st, 2, 70, 38, 3)
		if _, err := st.Load(&buf); err != nil {
			t.Fatal(err)
		}
		check(t, st, 11)
	})
	t.Run("empty store", func(t *testing.T) {
		st := New()
		checkSummaries(t, st)
		world := geo.Rect{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}
		if got := st.SpaceTime(world, time.Time{}, time.Unix(1<<40, 0)); got != nil {
			t.Fatalf("SpaceTime on an empty store: %v", got)
		}
		if got := st.SpatialSnapshot().NearestVessels(geo.Point{Lat: 40, Lon: 5}, t0(), 1<<63-1, 5); got != nil {
			t.Fatalf("NearestVessels on an empty store: %v", got)
		}
	})
}

// TestSpaceTimeHeatsOnlyWhatItReturns pins that a box read re-stamps the
// eviction heat of the vessels it returns points for, not of every vessel
// with a point in the window.
func TestSpaceTimeHeatsOnlyWhatItReturns(t *testing.T) {
	st := populated(rand.New(rand.NewSource(5)), 60, 100)
	touches := func() map[uint32]int64 {
		out := map[uint32]int64{}
		for _, h := range st.Heat() {
			out[h.MMSI] = h.LastTouch
		}
		return out
	}
	before := touches()
	corner := geo.Rect{MinLat: -60, MinLon: -170, MaxLat: -59, MaxLon: -169}
	if got := st.SpaceTime(corner, t0(), t0().Add(time.Hour)); len(got) != 0 {
		t.Fatalf("empty corner returned %d points", len(got))
	}
	if after := touches(); !reflect.DeepEqual(after, before) {
		t.Fatal("a read of an empty box moved vessels' LastTouch")
	}
	box := geo.RectAround(geo.Point{Lat: 39, Lon: 10}, 200000)
	got := st.SpaceTime(box, t0(), t0().Add(10*time.Minute))
	returned := map[uint32]bool{}
	for _, s := range got {
		returned[s.MMSI] = true
	}
	if len(returned) == 0 || len(returned) == len(before) {
		t.Fatalf("populated box returned %d of %d vessels; pick a box that returns some", len(returned), len(before))
	}
	for m, touch := range touches() {
		if moved := touch != before[m]; moved != returned[m] {
			t.Fatalf("vessel %d: LastTouch moved=%v, returned=%v", m, moved, returned[m])
		}
	}
}
