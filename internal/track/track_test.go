package track

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"repro/internal/fusion"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/query"
)

var t0 = time.Date(2017, 3, 21, 12, 0, 0, 0, time.UTC)

// vesselStates builds one vessel's trajectory: a steady north-east run
// in the Ligurian Sea, 1-minute cadence. The 0.002°/min step implies
// ~5 kn, kinematically consistent with the reported speed so the
// quality checks see a clean feed (like the vast majority of real
// traffic — benchmarks on this fixture measure the clean-path cost).
func vesselStates(mmsi uint32, v, n int) []model.VesselState {
	out := make([]model.VesselState, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, model.VesselState{
			MMSI: mmsi,
			At:   t0.Add(time.Duration(i) * time.Minute),
			Pos: geo.Point{
				Lat: 42.0 + float64(v)*0.3 + float64(i)*0.002,
				Lon: 5.0 + float64(v)*0.3 + float64(i)*0.002,
			},
			SpeedKn:   5.4,
			CourseDeg: 37,
		})
	}
	return out
}

// TestStageMatchesOfflineReplay pins the replay-equivalence contract:
// the online stage's fused state and quality score, fed record by
// record as the tee delivers them (concurrently across vessels, one
// goroutine each, exercised under -race), must equal what the offline
// derivation computes from the archived trajectory.
func TestStageMatchesOfflineReplay(t *testing.T) {
	const vessels, points = 6, 40
	s := NewStage(Config{})
	byVessel := make(map[uint32][]model.VesselState, vessels)
	for v := 1; v <= vessels; v++ {
		mmsi := uint32(201000000 + v)
		byVessel[mmsi] = vesselStates(mmsi, v, points)
	}

	var wg sync.WaitGroup
	for _, pts := range byVessel {
		wg.Add(1)
		go func(pts []model.VesselState) {
			defer wg.Done()
			for _, p := range pts {
				if err := s.Append(p); err != nil {
					t.Error(err)
				}
			}
		}(pts)
	}
	wg.Wait()

	if got := s.VesselCount(); got != vessels {
		t.Fatalf("VesselCount %d, want %d", got, vessels)
	}
	for mmsi, pts := range byVessel {
		online, ok := s.Track(mmsi)
		if !ok {
			t.Fatalf("vessel %d: no online track", mmsi)
		}
		offline := query.Replay(query.TrackFold(fusion.DefaultTrackerConfig()), mmsi, pts)
		oj, _ := json.Marshal(online)
		fj, _ := json.Marshal(offline)
		if string(oj) != string(fj) {
			t.Errorf("vessel %d track: online != replay\nonline: %s\nreplay: %s", mmsi, oj, fj)
		}

		oq, ok := s.Quality(mmsi)
		if !ok {
			t.Fatalf("vessel %d: no online quality", mmsi)
		}
		fq := query.Replay(query.NewQualityAccumulator, mmsi, pts)
		oj, _ = json.Marshal(oq)
		fj, _ = json.Marshal(fq)
		if string(oj) != string(fj) {
			t.Errorf("vessel %d quality: online != replay\nonline: %s\nreplay: %s", mmsi, oj, fj)
		}
	}

	// Unknown vessels answer ok=false on both kinds.
	if _, ok := s.Track(999); ok {
		t.Error("unknown vessel answered a track")
	}
	if _, ok := s.Quality(999); ok {
		t.Error("unknown vessel answered a quality score")
	}
}

// TestRadarAssociation pins the fusion path: a contact near a tracked
// vessel is gated, assigned and committed to that vessel's track
// (identity bound by the assignment); a contact near nothing lands in
// the orphan tracker. Runs through Stages.Process so cross-shard homing
// is exercised too.
func TestRadarAssociation(t *testing.T) {
	ss := NewStages(2, Config{})
	a := vesselStates(201000001, 0, 10) // around 42.0, 5.0
	b := vesselStates(201000002, 8, 10) // around 44.4, 7.4 — far from a
	for _, pts := range [][]model.VesselState{a, b} {
		for _, p := range pts {
			if err := ss.ShardFor(p.MMSI).Append(p); err != nil {
				t.Fatal(err)
			}
		}
	}

	lastA := a[len(a)-1]
	scanAt := lastA.At.Add(30 * time.Second)
	// The fleet advances 0.002°/min; put the contact on the extrapolated
	// path so it falls inside the predicted gate.
	nearPos := geo.Point{Lat: lastA.Pos.Lat + 0.001, Lon: lastA.Pos.Lon + 0.001}
	near := Detection{At: scanAt, Pos: nearPos, Station: 0}
	far := Detection{At: scanAt, Pos: geo.Point{Lat: 39.0, Lon: 2.0}, Station: 1}

	if n := ss.Process([]Detection{near, far}); n != 1 {
		t.Fatalf("Process fused %d contacts, want 1", n)
	}
	ts, ok := ss.Track(lastA.MMSI)
	if !ok {
		t.Fatal("vessel lost after radar fusion")
	}
	if ts.Sources["radar"] != 1 || ts.Sources["ais"] != len(a) {
		t.Fatalf("sources after fusion: %v", ts.Sources)
	}
	if !ts.At.Equal(scanAt) {
		t.Fatalf("track At %v, want the scan instant %v", ts.At, scanAt)
	}
	if tsB, _ := ss.Track(201000002); tsB.Sources["radar"] != 0 {
		t.Fatalf("distant vessel caught the contact: %v", tsB.Sources)
	}
	if got := ss.OrphanCount(); got != 1 {
		t.Fatalf("OrphanCount %d, want 1", got)
	}

	// The radar update tightened (or at least did not corrupt) the track:
	// the fused position stays near the vessel's true line of advance.
	if d := geo.Distance(geo.Point{Lat: ts.Lat, Lon: ts.Lon}, nearPos); d > 500 {
		t.Fatalf("fused position drifted %.0f m from the contact", d)
	}

	// An empty batch and an empty stage set are no-ops.
	if n := ss.Process(nil); n != 0 {
		t.Fatalf("empty batch fused %d", n)
	}
	if n := (Stages{}).Process([]Detection{near}); n != 0 {
		t.Fatalf("empty stage set fused %d", n)
	}
}

// BenchmarkTrackerStage measures the tee-side cost of the stage: one
// archived record folded into its vessel's fused state (filter update,
// quality check).
func BenchmarkTrackerStage(b *testing.B) {
	const vessels = 64
	states := make([]model.VesselState, 0, vessels*32)
	for v := 1; v <= vessels; v++ {
		states = append(states, vesselStates(uint32(201000000+v), v%10, 32)...)
	}
	s := NewStage(Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := states[i%len(states)]
		// Keep time monotonic across passes: a wrapped clock would turn
		// every record into a (Sprintf-formatting) time-regression issue
		// and measure the defect path instead of the clean one.
		st.At = st.At.Add(time.Duration(i/len(states)) * time.Hour)
		if err := s.Append(st); err != nil {
			b.Fatal(err)
		}
	}
}
