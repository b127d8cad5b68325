package fusion

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
)

func t0() time.Time { return time.Date(2017, 3, 21, 0, 0, 0, 0, time.UTC) }

func TestKalmanTracksStraightMotion(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	origin := geo.Point{Lat: 43, Lon: 5}
	truth := origin
	v := geo.Velocity{SpeedMS: 8, CourseDg: 60}
	k := NewKalmanCV(origin, 0.05)
	at := t0()
	for i := 0; i < 120; i++ {
		noisy := geo.Destination(truth, rng.Float64()*360, math.Abs(rng.NormFloat64())*10)
		if !k.Initialised() {
			k.Init(at, noisy, 10)
		} else {
			k.Predict(at)
			k.Update(noisy, 10)
		}
		truth = geo.Project(truth, v, 10)
		at = at.Add(10 * time.Second)
	}
	// After two minutes the velocity estimate must be close to truth.
	est := k.Velocity()
	if math.Abs(est.SpeedMS-8) > 1.0 {
		t.Errorf("speed estimate %.2f, want ≈8", est.SpeedMS)
	}
	courseDiff := math.Abs(geo.NormalizeBearing(est.CourseDg - 60))
	if courseDiff > 180 {
		courseDiff = 360 - courseDiff
	}
	if courseDiff > 8 {
		t.Errorf("course estimate %.1f, want ≈60", est.CourseDg)
	}
	// The filtered position must beat the raw 10 m measurement noise.
	backOneStep := geo.Project(truth, geo.Velocity{SpeedMS: 8, CourseDg: 60 + 180}, 10)
	if d := geo.Distance(k.Position(), backOneStep); d > 12 {
		t.Errorf("filtered position %.1f m from truth", d)
	}
	if k.PositionUncertaintyM() > 10 {
		t.Errorf("uncertainty did not converge: %.1f m", k.PositionUncertaintyM())
	}
}

func TestKalmanSmoothsNoise(t *testing.T) {
	// Filtered RMSE must beat raw measurement RMSE on a long steady track.
	rng := rand.New(rand.NewSource(2))
	origin := geo.Point{Lat: 40, Lon: 10}
	truth := origin
	v := geo.Velocity{SpeedMS: 6, CourseDg: 135}
	k := NewKalmanCV(origin, 0.05)
	at := t0()
	var rawSq, filtSq float64
	n := 0
	for i := 0; i < 200; i++ {
		noisy := geo.Destination(truth, rng.Float64()*360, math.Abs(rng.NormFloat64())*15)
		if !k.Initialised() {
			k.Init(at, noisy, 15)
		} else {
			k.Predict(at)
			k.Update(noisy, 15)
		}
		if i > 20 { // after convergence
			dr := geo.Distance(noisy, truth)
			df := geo.Distance(k.Position(), truth)
			rawSq += dr * dr
			filtSq += df * df
			n++
		}
		truth = geo.Project(truth, v, 10)
		at = at.Add(10 * time.Second)
	}
	rawRMSE := math.Sqrt(rawSq / float64(n))
	filtRMSE := math.Sqrt(filtSq / float64(n))
	if filtRMSE >= rawRMSE {
		t.Errorf("filter (%.1f m) should beat raw (%.1f m)", filtRMSE, rawRMSE)
	}
}

func TestMahalanobisGate(t *testing.T) {
	k := NewKalmanCV(geo.Point{Lat: 43, Lon: 5}, 0.05)
	k.Init(t0(), geo.Point{Lat: 43, Lon: 5}, 10)
	k.Predict(t0().Add(10 * time.Second))
	near := geo.Destination(geo.Point{Lat: 43, Lon: 5}, 45, 20)
	far := geo.Destination(geo.Point{Lat: 43, Lon: 5}, 45, 5000)
	dNear := k.MahalanobisSq(near, 10)
	dFar := k.MahalanobisSq(far, 10)
	if dNear > 9.21 {
		t.Errorf("nearby measurement gated out: %.2f", dNear)
	}
	if dFar < 9.21 {
		t.Errorf("far measurement inside gate: %.2f", dFar)
	}
}

func TestHungarianSimple(t *testing.T) {
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	assign := Hungarian(cost)
	total := 0.0
	seen := map[int]bool{}
	for i, j := range assign {
		total += cost[i][j]
		if seen[j] {
			t.Fatal("column assigned twice")
		}
		seen[j] = true
	}
	if total != 5 { // optimal: 1 + 2 + 2
		t.Errorf("total cost %.0f, want 5", total)
	}
}

func TestHungarianMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	perms := func(n int) [][]int {
		var out [][]int
		var rec func(cur []int, rest []int)
		rec = func(cur, rest []int) {
			if len(rest) == 0 {
				out = append(out, append([]int(nil), cur...))
				return
			}
			for i := range rest {
				next := append(append([]int(nil), rest[:i]...), rest[i+1:]...)
				rec(append(cur, rest[i]), next)
			}
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		rec(nil, idx)
		return out
	}
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(4)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = math.Floor(rng.Float64() * 100)
			}
		}
		best := math.Inf(1)
		for _, p := range perms(n) {
			s := 0.0
			for i, j := range p {
				s += cost[i][j]
			}
			if s < best {
				best = s
			}
		}
		assign := Hungarian(cost)
		got := 0.0
		for i, j := range assign {
			got += cost[i][j]
		}
		if math.Abs(got-best) > 1e-9 {
			t.Fatalf("trial %d: hungarian %.0f, brute force %.0f", trial, got, best)
		}
	}
}

func TestAssociateGating(t *testing.T) {
	costs := [][]float64{
		{1, math.Inf(1)},
		{math.Inf(1), math.Inf(1)},
	}
	assigned, freeTracks, freeMeas := Associate(costs)
	if len(assigned) != 1 || assigned[0].Track != 0 || assigned[0].Measurement != 0 {
		t.Fatalf("assignment wrong: %+v", assigned)
	}
	if len(freeTracks) != 1 || freeTracks[0] != 1 {
		t.Errorf("free tracks: %v", freeTracks)
	}
	if len(freeMeas) != 1 || freeMeas[0] != 1 {
		t.Errorf("free measurements: %v", freeMeas)
	}
}

func TestAssociateRectangular(t *testing.T) {
	// More measurements than tracks and vice versa.
	a, ft, fm := Associate([][]float64{{1, 2, 3}})
	if len(a) != 1 || len(ft) != 0 || len(fm) != 2 {
		t.Errorf("1x3: %v %v %v", a, ft, fm)
	}
	a, ft, fm = Associate([][]float64{{1}, {2}, {3}})
	if len(a) != 1 || len(ft) != 2 || len(fm) != 0 {
		t.Errorf("3x1: %v %v %v", a, ft, fm)
	}
	a, ft, fm = Associate(nil)
	if a != nil || ft != nil || fm != nil {
		t.Error("empty associate should be empty")
	}
}

// simulateTwoVessels produces parallel tracks 2 km apart with radar-like
// anonymous measurements, and returns per-scan measurement batches plus
// the ground-truth positions.
func simulateTwoVessels(rng *rand.Rand, scans int, noise float64) (batches [][]Measurement, truthA, truthB []geo.Point) {
	a := geo.Point{Lat: 43.0, Lon: 5.0}
	b := geo.Destination(a, 0, 2000)
	va := geo.Velocity{SpeedMS: 7, CourseDg: 90}
	vb := geo.Velocity{SpeedMS: 7, CourseDg: 90}
	at := t0()
	for s := 0; s < scans; s++ {
		ma := Measurement{At: at, Pos: geo.Destination(a, rng.Float64()*360, math.Abs(rng.NormFloat64())*noise), SigmaM: noise, Source: "radar"}
		mb := Measurement{At: at, Pos: geo.Destination(b, rng.Float64()*360, math.Abs(rng.NormFloat64())*noise), SigmaM: noise, Source: "radar"}
		batches = append(batches, []Measurement{ma, mb})
		truthA = append(truthA, a)
		truthB = append(truthB, b)
		a = geo.Project(a, va, 10)
		b = geo.Project(b, vb, 10)
		at = at.Add(10 * time.Second)
	}
	return batches, truthA, truthB
}

func TestTrackerMaintainsTwoTracks(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	batches, truthA, truthB := simulateTwoVessels(rng, 60, 50)
	tk := NewTracker(DefaultTrackerConfig())
	at := t0()
	for _, batch := range batches {
		tk.Process(at, batch)
		at = at.Add(10 * time.Second)
	}
	confirmed := tk.ConfirmedTracks()
	if len(confirmed) != 2 {
		t.Fatalf("expected 2 confirmed tracks, got %d (total %d)", len(confirmed), len(tk.Tracks))
	}
	// Each confirmed track must end near one of the true endpoints.
	endA, endB := truthA[len(truthA)-1], truthB[len(truthB)-1]
	for _, tr := range confirmed {
		p := tr.Filter.Position()
		dA, dB := geo.Distance(p, endA), geo.Distance(p, endB)
		if math.Min(dA, dB) > 300 {
			t.Errorf("track %d ended %.0f m from both truths", tr.ID, math.Min(dA, dB))
		}
	}
}

func TestTrackerBindsIdentity(t *testing.T) {
	tk := NewTracker(DefaultTrackerConfig())
	at := t0()
	pos := geo.Point{Lat: 43, Lon: 5}
	// Radar-only first: anonymous track.
	tk.Process(at, []Measurement{{At: at, Pos: pos, SigmaM: 100, Source: "radar"}})
	at = at.Add(10 * time.Second)
	// AIS report arrives for the same object: identity binds via GNN.
	tk.Process(at, []Measurement{{At: at, Pos: geo.Destination(pos, 90, 70), SigmaM: 10, Identity: 227000001, Source: "ais"}})
	found := false
	for _, tr := range tk.Tracks {
		if tr.Identity == 227000001 {
			found = true
		}
	}
	if !found {
		t.Error("identity did not bind to any track")
	}
	// The AIS measurement should not have spawned a duplicate track if it
	// fell in the radar track's gate — allow either 1 or 2 depending on
	// gate, but identity must exist exactly once.
	count := 0
	for _, tr := range tk.Tracks {
		if tr.Identity == 227000001 {
			count++
		}
	}
	if count != 1 {
		t.Errorf("identity bound to %d tracks", count)
	}
}

func TestTrackerDropsStaleTracks(t *testing.T) {
	cfg := DefaultTrackerConfig()
	cfg.DropAfter = time.Minute
	tk := NewTracker(cfg)
	at := t0()
	tk.Process(at, []Measurement{{At: at, Pos: geo.Point{Lat: 43, Lon: 5}, SigmaM: 10, Identity: 1, Source: "ais"}})
	if len(tk.Tracks) != 1 {
		t.Fatal("track not created")
	}
	// Scans far in the future with unrelated traffic age the track out.
	at = at.Add(5 * time.Minute)
	tk.Process(at, []Measurement{{At: at, Pos: geo.Point{Lat: 44, Lon: 6}, SigmaM: 10, Identity: 2, Source: "ais"}})
	for _, tr := range tk.Tracks {
		if tr.Identity == 1 {
			t.Error("stale track not dropped")
		}
	}
}

func BenchmarkKalmanPredictUpdate(b *testing.B) {
	k := NewKalmanCV(geo.Point{Lat: 43, Lon: 5}, 0.05)
	k.Init(t0(), geo.Point{Lat: 43, Lon: 5}, 10)
	at := t0()
	p := geo.Point{Lat: 43, Lon: 5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at = at.Add(10 * time.Second)
		k.Predict(at)
		k.Update(p, 10)
	}
}

func BenchmarkHungarian20x20(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n := 20
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			cost[i][j] = rng.Float64() * 100
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Hungarian(cost)
	}
}

func BenchmarkTrackerScan50(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	// 50 parallel vessels, one scan each iteration.
	base := geo.Point{Lat: 43, Lon: 5}
	var meas []Measurement
	for i := 0; i < 50; i++ {
		meas = append(meas, Measurement{
			Pos:    geo.Destination(base, float64(i*7%360), float64(1000+i*500)),
			SigmaM: 50, Source: "radar",
		})
	}
	tk := NewTracker(DefaultTrackerConfig())
	at := t0()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at = at.Add(10 * time.Second)
		for j := range meas {
			meas[j].Pos = geo.Destination(meas[j].Pos, 90, 70+rng.Float64()*5)
			meas[j].At = at
		}
		tk.Process(at, meas)
	}
}

// TestPredictMatchesDenseAlgebra pins the specialised covariance
// propagation in Predict against the dense P = F P Fᵀ + Q it replaced:
// the zero/one entries of the CV transition contribute exact no-ops, so
// the two must agree bit for bit — replay equivalence (online stage vs
// offline derivation, evicted vs resident) depends on the filter being
// deterministic, not merely close.
func TestPredictMatchesDenseAlgebra(t *testing.T) {
	densePredict := func(k *KalmanCV, at time.Time) {
		dt := at.Sub(k.T).Seconds()
		if dt <= 0 {
			return
		}
		F := Identity4()
		F[2] = dt
		F[7] = dt
		Q := processNoiseQ(k.ProcessNoise, dt)
		k.X = mulVec4(F, k.X)
		k.P = add4(mul4(mul4(F, k.P), transpose4(F)), Q)
		k.T = at
	}

	rng := rand.New(rand.NewSource(5))
	origin := geo.Point{Lat: 43.1, Lon: 5.2}
	for trial := 0; trial < 50; trial++ {
		a := NewKalmanCV(origin, 0.01+rng.Float64())
		a.Init(t0(), origin, 5+20*rng.Float64())
		b := *a
		at := t0()
		for step := 0; step < 20; step++ {
			at = at.Add(time.Duration(1+rng.Intn(600)) * time.Second)
			a.Predict(at)
			densePredict(&b, at)
			if a.X != b.X || a.P != b.P {
				t.Fatalf("trial %d step %d: specialised Predict diverged from dense algebra\nX %v vs %v\nP %v vs %v",
					trial, step, a.X, b.X, a.P, b.P)
			}
			// Occasional updates keep the covariance realistic (it would
			// otherwise grow without bound and hide cancellation bugs).
			if step%3 == 0 {
				p := a.Plane.Inverse(a.X[0]+rng.NormFloat64()*50, a.X[1]+rng.NormFloat64()*50)
				a.Update(p, 15)
				b.Update(p, 15)
			}
		}
	}
}

// Identity4 returns the identity matrix.
func Identity4() Mat4 {
	var m Mat4
	m[0], m[5], m[10], m[15] = 1, 1, 1, 1
	return m
}
