package tstore

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/geo"
	"repro/internal/model"
)

func t0() time.Time { return time.Date(2017, 3, 21, 0, 0, 0, 0, time.UTC) }

func sample(mmsi uint32, sec int, lat, lon float64) model.VesselState {
	return model.VesselState{
		MMSI: mmsi, At: t0().Add(time.Duration(sec) * time.Second),
		Pos: geo.Point{Lat: lat, Lon: lon}, SpeedKn: 10, CourseDeg: 90,
		Status: ais.StatusUnderWayEngine,
	}
}

func populated(rng *rand.Rand, vessels, pointsPer int) *Store {
	st := New()
	for v := 0; v < vessels; v++ {
		mmsi := uint32(201000000 + v)
		lat := 35 + rng.Float64()*8
		lon := rng.Float64() * 20
		for i := 0; i < pointsPer; i++ {
			st.Append(sample(mmsi, i*10, lat+float64(i)*0.001, lon))
		}
	}
	return st
}

func TestAppendAndTrajectory(t *testing.T) {
	st := New()
	st.Append(sample(1, 10, 40, 5))
	st.Append(sample(1, 30, 40.01, 5))
	st.Append(sample(1, 20, 40.005, 5)) // out of order
	st.Append(sample(2, 5, 41, 6))

	if st.Len() != 4 || st.VesselCount() != 2 {
		t.Fatalf("len=%d vessels=%d", st.Len(), st.VesselCount())
	}
	tr := st.Trajectory(1)
	if tr.Len() != 3 {
		t.Fatalf("trajectory len %d", tr.Len())
	}
	for i := 1; i < tr.Len(); i++ {
		if tr.Points[i].At.Before(tr.Points[i-1].At) {
			t.Fatal("out-of-order append not repaired")
		}
	}
	if got := st.Trajectory(99); got.Len() != 0 {
		t.Error("unknown vessel should have empty trajectory")
	}
	// The returned trajectory must be a copy: mutating it must not corrupt
	// the store.
	tr.Points[0].Pos.Lat = -77
	if st.Trajectory(1).Points[0].Pos.Lat == -77 {
		t.Error("Trajectory should return a copy")
	}
}

func TestTimeRange(t *testing.T) {
	st := New()
	for i := 0; i < 100; i++ {
		st.Append(sample(1, i*10, 40, 5))
	}
	got := st.TimeRange(1, t0().Add(100*time.Second), t0().Add(200*time.Second))
	if len(got) != 11 {
		t.Fatalf("time range returned %d, want 11", len(got))
	}
	for _, p := range got {
		if p.At.Before(t0().Add(100*time.Second)) || p.At.After(t0().Add(200*time.Second)) {
			t.Fatal("point outside requested range")
		}
	}
	if got := st.TimeRange(1, t0().Add(time.Hour), t0().Add(2*time.Hour)); len(got) != 0 {
		t.Error("empty range expected")
	}
}

func TestNearestVessels(t *testing.T) {
	st := New()
	// Three vessels at increasing distance from the query point, all at t0.
	st.Append(sample(1, 0, 40.0, 5.0))
	st.Append(sample(2, 0, 40.1, 5.0))
	st.Append(sample(3, 0, 40.5, 5.0))
	// A fourth very close but far in time.
	st.Append(sample(4, 7200, 40.0, 5.001))
	sn := st.SpatialSnapshot()
	got := sn.NearestVessels(geo.Point{Lat: 40, Lon: 5}, t0(), time.Minute, 2)
	if len(got) != 2 {
		t.Fatalf("got %d vessels", len(got))
	}
	if got[0].MMSI != 1 || got[1].MMSI != 2 {
		t.Errorf("wrong order: %d, %d", got[0].MMSI, got[1].MMSI)
	}
	for _, s := range got {
		if s.MMSI == 4 {
			t.Error("time-filtered vessel leaked into results")
		}
	}
}

func TestLiveLayer(t *testing.T) {
	l := NewLive(0.5)
	l.Update(sample(1, 0, 40, 5))
	l.Update(sample(2, 0, 41, 6))
	l.Update(sample(1, 60, 40.5, 5.5)) // moves vessel 1

	if l.Count() != 2 {
		t.Fatalf("count %d", l.Count())
	}
	// The old position must no longer be indexed.
	old := l.InRect(geo.RectAround(geo.Point{Lat: 40, Lon: 5}, 10000))
	for _, v := range old {
		if v.MMSI == 1 {
			t.Error("stale position still indexed")
		}
	}
	got := l.InRect(geo.RectAround(geo.Point{Lat: 40.5, Lon: 5.5}, 10000))
	if len(got) != 1 || got[0].MMSI != 1 || got[0].Pos.Lat != 40.5 {
		t.Errorf("new position not indexed: %+v", got)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	st := populated(rng, 20, 50)
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	st2 := New()
	n, err := st2.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != st.Len() {
		t.Fatalf("read %d points, want %d", n, st.Len())
	}
	for _, mmsi := range st.MMSIs() {
		a := st.Trajectory(mmsi)
		b := st2.Trajectory(mmsi)
		if a.Len() != b.Len() {
			t.Fatalf("vessel %d: %d vs %d points", mmsi, a.Len(), b.Len())
		}
		for i := range a.Points {
			pa, pb := a.Points[i], b.Points[i]
			if !pa.At.Equal(pb.At) || pa.Pos != pb.Pos || pa.Status != pb.Status {
				t.Fatalf("vessel %d point %d differs: %+v vs %+v", mmsi, i, pa, pb)
			}
			// Speed/course survive at centi-unit precision.
			if diff := pa.SpeedKn - pb.SpeedKn; diff > 0.006 || diff < -0.006 {
				t.Fatalf("speed lost precision: %f vs %f", pa.SpeedKn, pb.SpeedKn)
			}
		}
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	st := New()
	if _, err := st.Load(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("garbage input must error")
	}
	if _, err := st.Load(bytes.NewReader(nil)); err == nil {
		t.Error("empty input must error")
	}
}

func TestConcurrentAppendAndQuery(t *testing.T) {
	st := New()
	l := NewLive(0.5)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s := sample(uint32(201000000+w), i*10, 40+float64(w)*0.1, 5)
				st.Append(s)
				l.Update(s)
				if i%50 == 0 {
					_ = st.TimeRange(uint32(201000000+w), t0(), t0().Add(time.Hour))
					_ = l.InRect(geo.RectAround(geo.Point{Lat: 40, Lon: 5}, 100000))
				}
			}
		}(w)
	}
	wg.Wait()
	if st.Len() != 8*500 {
		t.Fatalf("lost appends: %d", st.Len())
	}
	if l.Count() != 8 {
		t.Fatalf("live count %d", l.Count())
	}
}

func TestMMSIsSorted(t *testing.T) {
	st := New()
	for _, m := range []uint32{5, 1, 9, 3} {
		st.Append(sample(m, 0, 40, 5))
	}
	got := st.MMSIs()
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatal("MMSIs not sorted")
		}
	}
}

func BenchmarkAppend(b *testing.B) {
	st := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.Append(sample(uint32(201000000+i%500), i, 40, 5))
	}
}

func BenchmarkTimeRange(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	st := populated(rng, 100, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = st.TimeRange(201000050, t0().Add(100*time.Second), t0().Add(500*time.Second))
	}
}

// benchStores fills two shard stores the way the bench archive is shaped:
// 2000 vessels × 115 reports a minute apart across the Mediterranean,
// split between the stores by MMSI parity. It also returns the reports
// the reads centre on, one per 20 vessels, mid-track.
func benchStores() ([]*Store, []model.VesselState) {
	rng := rand.New(rand.NewSource(1))
	stores := []*Store{New(), New()}
	var centres []model.VesselState
	for v := range 2000 {
		lat, lon := 31+rng.Float64()*13, -5+rng.Float64()*40
		dLat, dLon := (rng.Float64()-0.5)*0.006, (rng.Float64()-0.5)*0.006
		for i := range 115 {
			s := sample(uint32(201000000+v), i*60, lat+float64(i)*dLat, lon+float64(i)*dLon)
			stores[v%2].Append(s)
			if i == 57 && v%20 == 0 {
				centres = append(centres, s)
			}
		}
	}
	return stores, centres
}

// BenchmarkSpaceTime is one archive-mix spacetime read over both stores:
// a 0.5° box over ±1 h around a vessel's report.
func BenchmarkSpaceTime(b *testing.B) {
	stores, centres := benchStores()
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		c := centres[i%len(centres)]
		r := geo.Rect{MinLat: c.Pos.Lat - 0.25, MinLon: c.Pos.Lon - 0.25, MaxLat: c.Pos.Lat + 0.25, MaxLon: c.Pos.Lon + 0.25}
		for _, st := range stores {
			st.SpaceTime(r, c.At.Add(-time.Hour), c.At.Add(time.Hour))
		}
	}
}

// BenchmarkSnapshotBuild builds both stores' spatial snapshots.
func BenchmarkSnapshotBuild(b *testing.B) {
	stores, _ := benchStores()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, st := range stores {
			st.SpatialSnapshot()
		}
	}
}

// BenchmarkNearestVessels is one archive-mix nearest read over both
// stores' snapshots: k 5 within 30 min of a vessel's report.
func BenchmarkNearestVessels(b *testing.B) {
	stores, centres := benchStores()
	snaps := []*Snapshot{stores[0].SpatialSnapshot(), stores[1].SpatialSnapshot()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		c := centres[i%len(centres)]
		for _, sn := range snaps {
			sn.NearestVessels(c.Pos, c.At, 30*time.Minute, 5)
		}
	}
}

func BenchmarkLiveUpdate(b *testing.B) {
	l := NewLive(0.25)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Update(sample(uint32(201000000+i%2000), i, 40+float64(i%100)*0.01, 5))
	}
}

// TestLoadMergesIntoNonEmpty pins Load's append-merge contract: loading
// into a non-empty store inserts alongside existing points in per-vessel
// time order, never replacing, and a double Load duplicates every point.
func TestLoadMergesIntoNonEmpty(t *testing.T) {
	src := New()
	src.Append(sample(1, 10, 40, 5))
	src.Append(sample(1, 30, 40.1, 5))
	src.Append(sample(2, 20, 41, 6))
	var buf bytes.Buffer
	if _, err := src.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	encoded := buf.Bytes()

	dst := New()
	dst.Append(sample(1, 20, 39, 4)) // interleaves between the loaded 10s and 30s points
	dst.Append(sample(3, 5, 42, 7))  // vessel absent from the archive
	n, err := dst.Load(bytes.NewReader(encoded))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("Load returned %d points, want 3", n)
	}
	if dst.Len() != 5 || dst.VesselCount() != 3 {
		t.Fatalf("after merge: Len=%d VesselCount=%d, want 5 and 3", dst.Len(), dst.VesselCount())
	}
	tr := dst.Trajectory(1)
	if len(tr.Points) != 3 {
		t.Fatalf("vessel 1 has %d points, want 3 (merged)", len(tr.Points))
	}
	for i := 1; i < len(tr.Points); i++ {
		if tr.Points[i].At.Before(tr.Points[i-1].At) {
			t.Fatalf("vessel 1 points out of time order after merge: %v", tr.Points)
		}
	}
	if tr.Points[1].Pos.Lat != 39 {
		t.Fatalf("pre-existing point not preserved in order: %v", tr.Points)
	}

	// Loading the same archive again duplicates every archived point.
	if _, err := dst.Load(bytes.NewReader(encoded)); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 8 {
		t.Fatalf("after double load: Len=%d, want 8 (duplicates appended)", dst.Len())
	}
	if got := len(dst.Trajectory(1).Points); got != 5 {
		t.Fatalf("vessel 1 has %d points after double load, want 5", got)
	}
}

// sinkRecorder is a test Sink capturing forwarded records.
type sinkRecorder struct {
	mu   sync.Mutex
	recs []model.VesselState
	err  error
}

func (r *sinkRecorder) Append(recs ...model.VesselState) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recs = append(r.recs, recs...)
	return r.err
}

func TestStoreAttachForwards(t *testing.T) {
	st := New()
	st.Append(sample(1, 0, 40, 5)) // before Attach: not forwarded
	rec := &sinkRecorder{}
	st.Attach(rec)
	st.Append(sample(1, 10, 40.1, 5))
	st.Append(sample(2, 20, 41, 6))
	st.Append(sample(2, 30, 41.1, 6))
	if len(rec.recs) != 3 {
		t.Fatalf("sink saw %d records, want 3", len(rec.recs))
	}
	if st.SinkErr() != nil {
		t.Fatalf("unexpected sink error: %v", st.SinkErr())
	}
	st.Attach(nil)
	st.Append(sample(1, 40, 40.2, 5))
	if len(rec.recs) != 3 {
		t.Fatalf("detached sink still saw appends: %d records", len(rec.recs))
	}
}

// TestMoveToMatchesAppend pins the handover against the copy it replaces:
// a seeded fleet (late reports included) moved into three stores leaves
// each exactly as appending every vessel's trajectory there in MMSI order
// would — points, run summaries, bound, newest sample, counts and
// last-touch clock — calls back once per vessel in MMSI order with the
// moved points, and empties the source.
func TestMoveToMatchesAppend(t *testing.T) {
	src, want := simStore(t, 4, 30, 20*time.Minute), simStore(t, 4, 30, 20*time.Minute)
	route := func(stores []*Store) func(uint32) *Store {
		return func(m uint32) *Store { return stores[m%uint32(len(stores))] }
	}
	ref := []*Store{New(), New(), New()}
	for _, m := range want.MMSIs() {
		for _, s := range want.Trajectory(m).Points {
			route(ref)(m).Append(s)
		}
	}
	got := []*Store{New(), New(), New()}
	var order []uint32
	n := src.MoveTo(route(got), func(m uint32, pts []model.VesselState) {
		order = append(order, m)
		if !slices.Equal(pts, want.Trajectory(m).Points) {
			t.Fatalf("vessel %d: moved points differ from its trajectory", m)
		}
	})
	if n != want.Len() || !slices.Equal(order, want.MMSIs()) {
		t.Fatalf("moved %d points over vessels %v, want %d over %v", n, order, want.Len(), want.MMSIs())
	}
	if src.Len() != 0 || src.VesselCount() != 0 || src.Tier() != (TierCounters{}) {
		t.Fatalf("source after the move: %d points, %d vessels, %+v", src.Len(), src.VesselCount(), src.Tier())
	}
	for i := range got {
		g, r := got[i], ref[i]
		if g.Len() != r.Len() || g.Tier() != r.Tier() || g.clock != r.clock {
			t.Fatalf("store %d: len %d, tier %+v, clock %d; appending gives %d, %+v, %d",
				i, g.Len(), g.Tier(), g.clock, r.Len(), r.Tier(), r.clock)
		}
		checkSummaries(t, g)
		for m, rs := range r.vessels {
			gs := g.vessels[m]
			if gs == nil || !slices.Equal(gs.points, rs.points) || !slices.Equal(gs.runs, rs.runs) ||
				gs.bound != rs.bound || gs.last != rs.last || gs.n != rs.n || gs.lastTouch != rs.lastTouch {
				t.Fatalf("store %d vessel %d: moved series differs from the appended one", i, m)
			}
		}
	}
}

// TestMoveToPreconditions pins MoveTo's programming-error panics: a
// destination that already holds the vessel, the source itself as a
// destination, and a source with spilled chunks.
func TestMoveToPreconditions(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: MoveTo did not panic", name)
			}
		}()
		f()
	}
	// moveOne moves a one-vessel store into the store dst picks.
	moveOne := func(dst func(src *Store) *Store) func() {
		return func() {
			src := New()
			src.Append(sample(1, 0, 40, 5))
			src.SetChunkStore(newMemChunks())
			to := dst(src)
			src.MoveTo(func(uint32) *Store { return to }, func(uint32, []model.VesselState) {})
		}
	}
	mustPanic("destination holds the vessel", moveOne(func(*Store) *Store {
		dst := New()
		dst.Append(sample(1, 10, 40, 5))
		return dst
	}))
	mustPanic("routed to itself", moveOne(func(src *Store) *Store { return src }))
	mustPanic("spilled chunks", moveOne(func(src *Store) *Store {
		if _, err := src.EvictVessel(1); err != nil {
			t.Fatal(err)
		}
		return New()
	}))
}
