package query

import (
	"encoding/json"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/tstore"
)

// --- fixtures -------------------------------------------------------------------

var t0 = time.Date(2017, 3, 21, 12, 0, 0, 0, time.UTC)

// testStates builds a deterministic fleet: `vessels` tracks of `n`
// samples each, one sample a minute, marching north-east from a
// per-vessel offset inside the Ligurian box.
func testStates(vessels, n int) []model.VesselState {
	var out []model.VesselState
	for v := 0; v < vessels; v++ {
		for i := 0; i < n; i++ {
			out = append(out, testState(v, i))
		}
	}
	return out
}

// testState is sample i of vessel v in the testStates fleet.
func testState(v, i int) model.VesselState {
	return model.VesselState{
		MMSI: uint32(201000001 + v),
		At:   t0.Add(time.Duration(i) * time.Minute),
		Pos: geo.Point{
			Lat: 42.0 + float64(v)*0.05 + float64(i)*0.002,
			Lon: 5.0 + float64(v)*0.08 + float64(i)*0.003,
		},
		SpeedKn:   8 + float64(v%5),
		CourseDeg: 45,
		Status:    ais.StatusUnderWayEngine,
	}
}

func fill(st *tstore.Store, states []model.VesselState) *tstore.Store {
	for _, s := range states {
		st.Append(s)
	}
	return st
}

func statesEqual(t *testing.T, label string, got, want []model.VesselState) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d states, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].MMSI != want[i].MMSI || !got[i].At.Equal(want[i].At) ||
			got[i].Pos != want[i].Pos || got[i].SpeedKn != want[i].SpeedKn {
			t.Fatalf("%s: state %d differs: got %+v want %+v", label, i, got[i], want[i])
		}
	}
}

// --- engine == direct store methods (acceptance criterion 1) --------------------

func TestStoreSourceMatchesDirectStore(t *testing.T) {
	states := testStates(12, 40)
	st := fill(tstore.New(), states)
	eng := NewEngine(NewStoreSource("archive", st))

	mmsi := uint32(201000004)
	from, to := t0.Add(5*time.Minute), t0.Add(25*time.Minute)
	box := Box{MinLat: 42.1, MinLon: 5.2, MaxLat: 42.5, MaxLon: 5.8}

	t.Run("trajectory", func(t *testing.T) {
		res, err := eng.Query(Request{Kind: KindTrajectory, MMSI: mmsi, From: from, To: to})
		if err != nil {
			t.Fatal(err)
		}
		statesEqual(t, "trajectory", res.ModelStates(), st.TimeRange(mmsi, from, to))
	})
	t.Run("trajectory unbounded", func(t *testing.T) {
		res, err := eng.Query(Request{Kind: KindTrajectory, MMSI: mmsi})
		if err != nil {
			t.Fatal(err)
		}
		statesEqual(t, "trajectory", res.ModelStates(), st.Trajectory(mmsi).Points)
	})
	t.Run("spacetime", func(t *testing.T) {
		res, err := eng.Query(Request{Kind: KindSpaceTime, Box: &box, From: from, To: to})
		if err != nil {
			t.Fatal(err)
		}
		statesEqual(t, "spacetime", res.ModelStates(), st.SpaceTime(box.Rect(), from, to))
		if res.Count == 0 {
			t.Fatal("spacetime fixture query matched nothing — fixture broken")
		}
	})
	t.Run("nearest", func(t *testing.T) {
		p := geo.Point{Lat: 42.3, Lon: 5.5}
		at := t0.Add(20 * time.Minute)
		tol := 10 * time.Minute
		res, err := eng.Query(Request{
			Kind: KindNearest, Lat: p.Lat, Lon: p.Lon, At: at, Tol: Duration(tol), K: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := st.SpatialSnapshot().NearestVessels(p, at, tol, 5)
		statesEqual(t, "nearest", res.ModelStates(), want)
		if res.Count == 0 {
			t.Fatal("nearest fixture query matched nothing — fixture broken")
		}
	})
	t.Run("live picture", func(t *testing.T) {
		wide := Box{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}
		res, err := eng.Query(Request{Kind: KindLivePicture, Box: &wide})
		if err != nil {
			t.Fatal(err)
		}
		var want []model.VesselState
		for _, m := range st.MMSIs() {
			pts := st.Trajectory(m).Points
			want = append(want, pts[len(pts)-1])
		}
		statesEqual(t, "live", res.ModelStates(), want)
	})
	t.Run("stats", func(t *testing.T) {
		res, err := eng.Query(Request{Kind: KindStats})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Points != st.Len() || res.Stats.Vessels != st.VesselCount() {
			t.Fatalf("stats: got %d points / %d vessels, want %d / %d",
				res.Stats.Points, res.Stats.Vessels, st.Len(), st.VesselCount())
		}
	})
}

// simReports feeds a simulated run (for live-pipeline tests that need
// realistic traffic and alerts).
func simReports(t testing.TB, vessels int, dur time.Duration) *sim.Run {
	t.Helper()
	cfg := sim.Config{Seed: 7, NumVessels: vessels, Duration: dur, TickSec: 2}
	cfg.DefaultAnomalyRates()
	run, err := sim.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestLiveSourceMatchesDirectSharded(t *testing.T) {
	run := simReports(t, 30, 15*time.Minute)
	sharded := core.NewSharded(core.Config{Zones: run.Config.World.Zones}, 4)
	single := core.New(core.Config{Zones: run.Config.World.Zones})
	for i := range run.Positions {
		o := &run.Positions[i]
		sharded.ShardFor(o.Report.MMSI).Ingest(o.At, &o.Report)
		single.Ingest(o.At, &o.Report)
	}
	eng := NewEngine(NewLiveSource(sharded))
	bounds := run.Config.World.Bounds
	box := BoxOf(bounds)

	t.Run("spacetime matches single pipeline", func(t *testing.T) {
		res, err := eng.Query(Request{Kind: KindSpaceTime, Box: &box})
		if err != nil {
			t.Fatal(err)
		}
		want := single.Store.SpaceTime(bounds, time.Time{}, t0.AddDate(10, 0, 0))
		statesEqual(t, "spacetime", res.ModelStates(), want)
		if res.Count == 0 {
			t.Fatal("fixture query matched nothing")
		}
	})
	t.Run("trajectory routes to owning shard", func(t *testing.T) {
		for _, mmsi := range single.Store.MMSIs() {
			res, err := eng.Query(Request{Kind: KindTrajectory, MMSI: mmsi})
			if err != nil {
				t.Fatal(err)
			}
			statesEqual(t, fmt.Sprintf("vessel %d", mmsi), res.ModelStates(), single.Store.Trajectory(mmsi).Points)
		}
	})
	t.Run("live picture matches merged InRect", func(t *testing.T) {
		res, err := eng.Query(Request{Kind: KindLivePicture, Box: &box})
		if err != nil {
			t.Fatal(err)
		}
		want := single.Live.InRect(bounds)
		statesEqual(t, "live", res.ModelStates(), want)
	})
	t.Run("nearest matches single-pipeline snapshot", func(t *testing.T) {
		p := bounds.Center()
		at := run.Positions[len(run.Positions)/2].At
		res, err := eng.Query(Request{
			Kind: KindNearest, Lat: p.Lat, Lon: p.Lon, At: at, Tol: Duration(10 * time.Minute), K: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := single.Store.SpatialSnapshot().NearestVessels(p, at, 10*time.Minute, 7)
		// Shard merge must produce the same vessel set at the same
		// distances (order between equidistant vessels may differ).
		if len(res.States) != len(want) {
			t.Fatalf("nearest: got %d vessels, want %d", len(res.States), len(want))
		}
		for i := range want {
			gd := geo.Distance(p, geo.Point{Lat: res.States[i].Lat, Lon: res.States[i].Lon})
			wd := geo.Distance(p, want[i].Pos)
			if diff := gd - wd; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("nearest: rank %d distance %.9f != %.9f", i, gd, wd)
			}
		}
	})
	t.Run("alert history matches sharded alerts", func(t *testing.T) {
		res, err := eng.Query(Request{Kind: KindAlertHistory})
		if err != nil {
			t.Fatal(err)
		}
		want := sharded.Alerts()
		if len(res.Alerts) != len(want) {
			t.Fatalf("alerts: got %d, want %d", len(res.Alerts), len(want))
		}
		// Both sides are time-ordered; ties may interleave differently,
		// so compare as multisets.
		got := make([]string, len(res.Alerts))
		for i, a := range res.Alerts {
			got[i] = fmt.Sprintf("%s|%d|%d|%s|%d", a.Kind, a.MMSI, a.Other, a.At.Format(time.RFC3339Nano), a.Severity)
		}
		exp := make([]string, len(want))
		for i, a := range want {
			exp[i] = fmt.Sprintf("%s|%d|%d|%s|%d", a.Kind, a.MMSI, a.Other, a.At.Format(time.RFC3339Nano), a.Severity)
		}
		sort.Strings(got)
		sort.Strings(exp)
		for i := range exp {
			if got[i] != exp[i] {
				t.Fatalf("alert multiset differs at %d: got %s want %s", i, got[i], exp[i])
			}
		}
	})
	t.Run("situation grid matches sharded situation", func(t *testing.T) {
		at := run.Positions[len(run.Positions)-1].At
		res, err := eng.Query(Request{Kind: KindSituation, Box: &box, At: at, Rows: 12, Cols: 48})
		if err != nil {
			t.Fatal(err)
		}
		want := sharded.Situation(at, bounds, 12, 48)
		if len(res.Situation.Density) != len(want.Density.Counts) {
			t.Fatalf("grid size: got %d, want %d", len(res.Situation.Density), len(want.Density.Counts))
		}
		for i := range want.Density.Counts {
			if res.Situation.Density[i] != want.Density.Counts[i] {
				t.Fatalf("density bin %d: got %d, want %d", i, res.Situation.Density[i], want.Density.Counts[i])
			}
		}
		if len(res.Situation.Vessels) != len(want.Vessels) {
			t.Fatalf("vessels: got %d, want %d", len(res.Situation.Vessels), len(want.Vessels))
		}
		if len(res.Situation.Alerts) != len(want.Alerts) {
			t.Fatalf("alerts: got %d, want %d", len(res.Situation.Alerts), len(want.Alerts))
		}
	})
	t.Run("stats", func(t *testing.T) {
		res, err := eng.Query(Request{Kind: KindStats})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Points != single.Store.Len() {
			t.Fatalf("stats points: got %d, want %d", res.Stats.Points, single.Store.Len())
		}
		if res.Stats.Live != single.Live.Count() {
			t.Fatalf("stats live: got %d, want %d", res.Stats.Live, single.Live.Count())
		}
	})
}

// --- merged live+archive: dedupe on (MMSI, timestamp) (acceptance criterion 3) --

func TestMergedSourcesDeduplicate(t *testing.T) {
	states := testStates(10, 60)
	// The archive holds the first two thirds, the "live" store holds the
	// last two thirds: the middle third exists in BOTH sources.
	cut1, cut2 := len(states)/3, 2*len(states)/3
	archive := tstore.New()
	livest := tstore.New()
	for i, s := range states {
		if i < cut2 {
			archive.Append(s)
		}
		if i >= cut1 {
			livest.Append(s)
		}
	}
	if archive.Len()+livest.Len() <= len(states) {
		t.Fatal("fixture must overlap")
	}
	eng := NewEngine(NewStoreSource("live", livest), NewStoreSource("archive", archive))

	wide := Box{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}
	res, err := eng.Query(Request{Kind: KindSpaceTime, Box: &wide})
	if err != nil {
		t.Fatal(err)
	}
	// No (MMSI, timestamp) duplicates...
	seen := map[string]bool{}
	for _, s := range res.States {
		k := fmt.Sprintf("%d|%s", s.MMSI, s.At.Format(time.RFC3339Nano))
		if seen[k] {
			t.Fatalf("duplicate (MMSI, timestamp) in merged result: %s", k)
		}
		seen[k] = true
	}
	// ...and the merged answer is exactly the full dataset.
	want := append([]model.VesselState(nil), states...)
	sort.Slice(want, func(i, j int) bool {
		if want[i].MMSI != want[j].MMSI {
			return want[i].MMSI < want[j].MMSI
		}
		return want[i].At.Before(want[j].At)
	})
	statesEqual(t, "merged spacetime", res.ModelStates(), want)

	// Same guarantee per vessel.
	res, err = eng.Query(Request{Kind: KindTrajectory, MMSI: states[0].MMSI})
	if err != nil {
		t.Fatal(err)
	}
	var wantTr []model.VesselState
	for _, s := range states {
		if s.MMSI == states[0].MMSI {
			wantTr = append(wantTr, s)
		}
	}
	statesEqual(t, "merged trajectory", res.ModelStates(), wantTr)

	// The merged live picture keeps the newest state per vessel once.
	res, err = eng.Query(Request{Kind: KindLivePicture, Box: &wide})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 10 {
		t.Fatalf("merged live picture: got %d vessels, want 10", res.Count)
	}
	for i, s := range res.States {
		if !s.At.Equal(states[0].At.Add(59 * time.Minute)) {
			t.Fatalf("live state %d is not the newest sample: %s", i, s.At)
		}
	}
}

func TestMergedNearestPrefersClosestAcrossSources(t *testing.T) {
	near := model.VesselState{MMSI: 1001, At: t0, Pos: geo.Point{Lat: 42.0, Lon: 5.0}}
	far := model.VesselState{MMSI: 1002, At: t0, Pos: geo.Point{Lat: 42.5, Lon: 5.5}}
	// The same vessel also appears farther away in the other source at a
	// different instant — per-vessel dedupe must keep its nearest sample.
	nearDup := model.VesselState{MMSI: 1001, At: t0.Add(time.Minute), Pos: geo.Point{Lat: 42.4, Lon: 5.4}}
	a := fill(tstore.New(), []model.VesselState{near})
	b := fill(tstore.New(), []model.VesselState{far, nearDup})
	eng := NewEngine(NewStoreSource("a", a), NewStoreSource("b", b))
	res, err := eng.Query(Request{Kind: KindNearest, Lat: 42.0, Lon: 5.0, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.States) != 2 {
		t.Fatalf("got %d states, want 2", len(res.States))
	}
	if res.States[0].MMSI != 1001 || !res.States[0].At.Equal(t0) {
		t.Fatalf("rank 1 should be vessel 1001's near sample, got %+v", res.States[0])
	}
	if res.States[1].MMSI != 1002 {
		t.Fatalf("rank 2 should be vessel 1002, got %+v", res.States[1])
	}
}

// --- validation -----------------------------------------------------------------

func TestRequestValidation(t *testing.T) {
	eng := NewEngine(NewStoreSource("archive", tstore.New()))
	bad := []Request{
		{},                         // no kind
		{Kind: "bogus"},            // unknown kind
		{Kind: KindTrajectory},     // no MMSI
		{Kind: KindSpaceTime},      // no box
		{Kind: KindLivePicture},    // no box
		{Kind: KindSituation},      // no box
		{Kind: KindNearest, K: -1}, // negative k
		{Kind: KindNearest, Lat: 91, Lon: 3, At: t0},                                    // lat out of range
		{Kind: KindSpaceTime, Box: &Box{MinLat: 44, MinLon: 4, MaxLat: 42, MaxLon: 9}},  // inverted lat
		{Kind: KindSpaceTime, Box: &Box{MinLat: 42, MinLon: 9, MaxLat: 44, MaxLon: 4}},  // inverted lon
		{Kind: KindSpaceTime, Box: &Box{MinLat: -95, MinLon: 4, MaxLat: 44, MaxLon: 9}}, // lat range
		{Kind: KindTrajectory, MMSI: 1, From: t0, To: t0.Add(-time.Hour)},               // to < from
		{Kind: KindTrajectory, MMSI: 1, Limit: -1},                                      // negative limit
	}
	for i, req := range bad {
		if _, err := eng.Query(req); err == nil {
			t.Errorf("request %d (%+v) should have failed validation", i, req)
		}
	}
}

func TestParseBox(t *testing.T) {
	good, err := parseBox("42, 4, 44, 9")
	if err != nil {
		t.Fatal(err)
	}
	if good.MinLat != 42 || good.MinLon != 4 || good.MaxLat != 44 || good.MaxLon != 9 {
		t.Fatalf("parsed box wrong: %+v", good)
	}
	for _, s := range []string{
		"",             // empty
		"42,4,44",      // too few fields
		"42,4,44,9,1",  // too many fields
		"42,4,nope,9",  // non-numeric
		"44,4,42,9",    // minLat > maxLat
		"42,9,44,4",    // minLon > maxLon
		"42,-190,44,9", // lon out of range
		"-95,4,44,9",   // lat out of range
	} {
		if _, err := parseBox(s); err == nil {
			t.Errorf("parseBox(%q) should fail", s)
		}
	}
}

func TestRequestJSONRoundTrip(t *testing.T) {
	req := Request{
		Kind: KindNearest, Lat: 43.2, Lon: 5.3, At: t0,
		Tol: Duration(30 * time.Minute), K: 5,
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back Request
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Tol != req.Tol || !back.At.Equal(req.At) || back.Kind != req.Kind {
		t.Fatalf("round trip changed the request: %+v -> %+v", req, back)
	}
	// Duration accepts both encodings.
	var d Duration
	if err := json.Unmarshal([]byte(`"45m"`), &d); err != nil || d != Duration(45*time.Minute) {
		t.Fatalf("string duration: %v %v", d, err)
	}
	if err := json.Unmarshal([]byte(`60000000000`), &d); err != nil || d != Duration(time.Minute) {
		t.Fatalf("numeric duration: %v %v", d, err)
	}
}

func TestLimitTruncates(t *testing.T) {
	st := fill(tstore.New(), testStates(3, 30))
	eng := NewEngine(NewStoreSource("archive", st))
	res, err := eng.Query(Request{Kind: KindTrajectory, MMSI: 201000001, Limit: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.States) != 7 || !res.Truncated || res.Count != 30 {
		t.Fatalf("limit: got %d states, truncated=%v, count=%d", len(res.States), res.Truncated, res.Count)
	}
}

// --- benchmarks (the E16 kinds; CI bench smoke compiles and runs these) ---------

func benchEngine(b *testing.B) *Engine {
	b.Helper()
	st := fill(tstore.New(), testStates(100, 120))
	return NewEngine(NewStoreSource("archive", st))
}

func BenchmarkQuerySpaceTime(b *testing.B) {
	eng := benchEngine(b)
	box := Box{MinLat: 42.5, MinLon: 5.5, MaxLat: 44.0, MaxLon: 8.0}
	req := Request{Kind: KindSpaceTime, Box: &box, From: t0, To: t0.Add(time.Hour)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryNearest(b *testing.B) {
	eng := benchEngine(b)
	req := Request{
		Kind: KindNearest, Lat: 43.5, Lon: 6.5,
		At: t0.Add(time.Hour), Tol: Duration(15 * time.Minute), K: 10,
	}
	// Warm the spatial snapshot so the loop measures query cost, not the
	// one-time index build.
	if _, err := eng.Query(req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(req); err != nil {
			b.Fatal(err)
		}
	}
}
