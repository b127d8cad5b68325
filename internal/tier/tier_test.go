package tier_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/store"
	"repro/internal/tier"
	"repro/internal/tstore"
)

// fillStores builds two identical archives (control stays fully
// resident, tiered gets evicted) from a deterministic synthetic fleet
// with full-precision floats and unique per-vessel timestamps.
func fillStores(seed int64, vessels, pointsPer int) (control, tiered *tstore.Store) {
	rng := rand.New(rand.NewSource(seed))
	control, tiered = tstore.New(), tstore.New()
	t0 := time.Date(2017, 3, 21, 0, 0, 0, 0, time.UTC)
	for v := 0; v < vessels; v++ {
		mmsi := uint32(201000000 + v)
		lat := 32 + rng.Float64()*12
		lon := rng.Float64() * 30
		for i := 0; i < pointsPer; i++ {
			s := model.VesselState{
				MMSI: mmsi,
				At:   t0.Add(time.Duration(v) * time.Millisecond).Add(time.Duration(i*10) * time.Second),
				Pos: geo.Point{
					Lat: lat + float64(i)*0.0004 + rng.Float64()*1e-6,
					Lon: lon + rng.Float64()*1e-6,
				},
				SpeedKn:   10 + rng.Float64(),
				CourseDeg: rng.Float64() * 360,
				Status:    0,
			}
			control.Append(s)
			tiered.Append(s)
		}
	}
	return control, tiered
}

func newManager(t *testing.T, budget int64, stores ...*tstore.Store) *tier.Manager {
	t.Helper()
	objects, err := store.NewFSObjects(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, err := tier.NewManager(tier.Config{
		Budget: budget, CheckEvery: -1, Objects: objects,
	}, stores...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func statesEqual(t *testing.T, what string, got, want []model.VesselState) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d states, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.MMSI != w.MMSI || !g.At.Equal(w.At) || g.Pos != w.Pos ||
			g.SpeedKn != w.SpeedKn || g.CourseDeg != w.CourseDeg || g.Status != w.Status {
			t.Fatalf("%s: state %d differs:\n got %+v\nwant %+v", what, i, g, w)
		}
	}
}

// TestEvictionIsInvisible evicts every vessel down to its stub and
// checks each read kind returns exactly what the fully resident control
// store returns — including the float64 bits the WAL encoding would have
// quantised away.
func TestEvictionIsInvisible(t *testing.T) {
	control, tiered := fillStores(1, 30, 300)
	m := newManager(t, 1, tiered) // 1-byte budget: evict everything evictable

	if n := m.Check(); n == 0 {
		t.Fatal("expected evictions under a 1-byte budget")
	}
	tc := tiered.Tier()
	if tc.ResidentPoints != 0 || tc.EvictedVessels != 30 {
		t.Fatalf("expected a fully evicted archive, got %+v", tc)
	}
	if tiered.Len() != control.Len() {
		t.Fatalf("Len changed across eviction: %d != %d", tiered.Len(), control.Len())
	}

	mmsi := uint32(201000007)
	statesEqual(t, "Trajectory",
		tiered.Trajectory(mmsi).Points, control.Trajectory(mmsi).Points)

	from := time.Date(2017, 3, 21, 0, 10, 0, 0, time.UTC)
	to := from.Add(20 * time.Minute)
	statesEqual(t, "TimeRange",
		tiered.TimeRange(mmsi, from, to), control.TimeRange(mmsi, from, to))

	box := geo.Rect{MinLat: 33, MinLon: 2, MaxLat: 41, MaxLon: 22}
	statesEqual(t, "SpaceTime",
		tiered.SpaceTime(box, from, to), control.SpaceTime(box, from, to))

	statesEqual(t, "LatestStates", tiered.LatestStates(), control.LatestStates())

	gl, okG := tiered.Latest(mmsi)
	wl, okW := control.Latest(mmsi)
	if okG != okW || gl != wl {
		t.Fatalf("Latest differs: %v/%v vs %v/%v", gl, okG, wl, okW)
	}

	snG, snW := tiered.SpatialSnapshot(), control.SpatialSnapshot()
	if snG.Len() != snW.Len() {
		t.Fatalf("snapshot Len: %d != %d", snG.Len(), snW.Len())
	}
	p := geo.Point{Lat: 38, Lon: 12}
	at := from.Add(5 * time.Minute)
	statesEqual(t, "NearestVessels",
		snG.NearestVessels(p, at, 15*time.Minute, 7),
		snW.NearestVessels(p, at, 15*time.Minute, 7))

	if err := tiered.PageErr(); err != nil {
		t.Fatalf("page error: %v", err)
	}
	if st := m.Stats(); st.PageIns == 0 {
		t.Fatalf("expected page-ins to be counted, got %+v", st)
	}
}

// TestAppendAfterEvictionMerges checks the stub + fresh-resident-tail
// shape: appends to an evicted vessel land resident and reads merge them
// with the spilled history.
func TestAppendAfterEvictionMerges(t *testing.T) {
	control, tiered := fillStores(2, 4, 100)
	m := newManager(t, 1, tiered)
	if n := m.Check(); n == 0 {
		t.Fatal("expected evictions")
	}
	// New traffic for one vessel, including a straggler that is older
	// than the evicted span's end.
	mmsi := uint32(201000002)
	last, _ := control.Latest(mmsi)
	fresh := []model.VesselState{
		{MMSI: mmsi, At: last.At.Add(-5 * time.Second), Pos: geo.Point{Lat: 35, Lon: 5}, SpeedKn: 1.25},
		{MMSI: mmsi, At: last.At.Add(10 * time.Second), Pos: geo.Point{Lat: 35.1, Lon: 5.1}, SpeedKn: 2.5},
	}
	for _, s := range fresh {
		control.Append(s)
		tiered.Append(s)
	}
	statesEqual(t, "Trajectory after append",
		tiered.Trajectory(mmsi).Points, control.Trajectory(mmsi).Points)
	if tiered.Tier().ResidentPoints != len(fresh) {
		t.Fatalf("expected %d resident points, got %+v", len(fresh), tiered.Tier())
	}
	// Re-evicting spills only the fresh tail into new chunks.
	if n := m.Check(); n == 0 {
		t.Fatal("expected the fresh tail to evict")
	}
	statesEqual(t, "Trajectory after re-eviction",
		tiered.Trajectory(mmsi).Points, control.Trajectory(mmsi).Points)
}

// TestWriteToPagesEvicted checks snapshot serialisation over a partially
// evicted store matches the control byte-for-byte.
func TestWriteToPagesEvicted(t *testing.T) {
	control, tiered := fillStores(3, 6, 120)
	m := newManager(t, int64(tstore.PointBytes)*200, tiered)
	if n := m.Check(); n == 0 {
		t.Fatal("expected evictions")
	}
	var a, b bytesBuffer
	if _, err := control.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := tiered.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !a.equal(&b) {
		t.Fatal("WriteTo bytes differ between evicted and resident stores")
	}
}

type bytesBuffer struct{ data []byte }

func (b *bytesBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

func (b *bytesBuffer) equal(o *bytesBuffer) bool {
	if len(b.data) != len(o.data) {
		return false
	}
	for i := range b.data {
		if b.data[i] != o.data[i] {
			return false
		}
	}
	return true
}
