package synopsis

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/model"
)

func t0() time.Time { return time.Date(2017, 3, 21, 0, 0, 0, 0, time.UTC) }

// straightTrack is a constant-velocity trajectory: every compressor should
// collapse it to (nearly) its endpoints.
func straightTrack(n int) *model.Trajectory {
	tr := &model.Trajectory{MMSI: 1}
	pos := geo.Point{Lat: 43, Lon: 5}
	v := geo.Velocity{SpeedMS: 12 * geo.Knot, CourseDg: 77}
	for i := 0; i < n; i++ {
		tr.Points = append(tr.Points, model.VesselState{
			MMSI: 1, At: t0().Add(time.Duration(i*10) * time.Second),
			Pos: pos, SpeedKn: 12, CourseDeg: 77,
		})
		pos = geo.Project(pos, v, 10)
	}
	return tr
}

// windingTrack mimics a realistic voyage: long steady legs joined by
// turns, with GPS-like noise.
func windingTrack(rng *rand.Rand, legs, pointsPerLeg int) *model.Trajectory {
	tr := &model.Trajectory{MMSI: 2}
	pos := geo.Point{Lat: 41, Lon: 6}
	course := 45.0
	at := t0()
	speed := 14.0
	for l := 0; l < legs; l++ {
		for i := 0; i < pointsPerLeg; i++ {
			noisy := geo.Destination(pos, rng.Float64()*360, math.Abs(rng.NormFloat64())*8)
			tr.Points = append(tr.Points, model.VesselState{
				MMSI: 2, At: at, Pos: noisy, SpeedKn: speed, CourseDeg: course,
			})
			pos = geo.Project(pos, geo.Velocity{SpeedMS: speed * geo.Knot, CourseDg: course}, 10)
			at = at.Add(10 * time.Second)
		}
		course = geo.NormalizeBearing(course + 40 + rng.Float64()*60)
	}
	return tr
}

func endpointsPreserved(t *testing.T, orig, comp *model.Trajectory) {
	t.Helper()
	if comp.Len() < 2 && orig.Len() >= 2 {
		t.Fatalf("compressed to %d points", comp.Len())
	}
	if comp.Points[0].At != orig.Points[0].At ||
		comp.Points[comp.Len()-1].At != orig.Points[orig.Len()-1].At {
		t.Fatal("endpoints must be preserved")
	}
}

func TestDouglasPeuckerStraightLine(t *testing.T) {
	tr := straightTrack(500)
	comp := DouglasPeucker{ToleranceM: 50}.Compress(tr)
	endpointsPreserved(t, tr, comp)
	if comp.Len() > 5 {
		t.Errorf("straight line should compress to almost nothing, kept %d", comp.Len())
	}
	rep := Evaluate(tr, comp, "dp")
	if rep.MaxSEDM > 50 {
		t.Errorf("DP must respect its tolerance: max SED %.1f", rep.MaxSEDM)
	}
	if rep.Ratio < 0.98 {
		t.Errorf("ratio %.3f", rep.Ratio)
	}
}

func TestDouglasPeuckerToleranceBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := windingTrack(rng, 6, 80)
	for _, tol := range []float64{30, 100, 300} {
		comp := DouglasPeucker{ToleranceM: tol}.Compress(tr)
		rep := Evaluate(tr, comp, "dp")
		// The DP guarantee: every original point within tol of the
		// reconstruction (small slack for spherical interpolation).
		if rep.MaxSEDM > tol*1.05+1 {
			t.Errorf("tol %.0f: max SED %.1f exceeds bound", tol, rep.MaxSEDM)
		}
	}
}

func TestDeadReckoningBoundsError(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := windingTrack(rng, 6, 80)
	comp := DeadReckoning{ToleranceM: 100}.Compress(tr)
	endpointsPreserved(t, tr, comp)
	rep := Evaluate(tr, comp, "dr")
	// Dead reckoning bounds the *prediction* error at decision time, not
	// the SED against linear reconstruction, but the two stay same-order.
	if rep.RMSESEDM > 300 {
		t.Errorf("dead reckoning RMSE too big: %.1f", rep.RMSESEDM)
	}
	if rep.Ratio < 0.5 {
		t.Errorf("dead reckoning should compress a mostly-straight track: ratio %.2f", rep.Ratio)
	}
}

func TestDeadReckoningMaxGapHeartbeat(t *testing.T) {
	tr := straightTrack(100) // 990 s long, 10 s steps
	comp := DeadReckoning{ToleranceM: 1e9, MaxGap: 60 * time.Second}.Compress(tr)
	// With an unreachable tolerance, only the heartbeat emits: every 60 s.
	for i := 1; i < comp.Len(); i++ {
		if gap := comp.Points[i].At.Sub(comp.Points[i-1].At); gap > 61*time.Second {
			t.Errorf("gap %v exceeds MaxGap", gap)
		}
	}
	if comp.Len() < 15 {
		t.Errorf("heartbeat should keep ~17 points, kept %d", comp.Len())
	}
}

func TestSquishERespectsCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := windingTrack(rng, 8, 100)
	for _, capa := range []int{10, 40, 80} {
		comp := SquishE{Capacity: capa}.Compress(tr)
		if comp.Len() > capa {
			t.Errorf("capacity %d exceeded: kept %d", capa, comp.Len())
		}
		endpointsPreserved(t, tr, comp)
	}
}

func TestSquishEBeatsUniformAtSameBudget(t *testing.T) {
	// Shape-dominated, noise-free track with sharp turns: a fixed point
	// budget spent adaptively (SQUISH) must beat a uniform spend, because
	// uniform sampling cuts the corners.
	tr := &model.Trajectory{MMSI: 3}
	pos := geo.Point{Lat: 41, Lon: 6}
	at := t0()
	course := 0.0
	for leg := 0; leg < 10; leg++ {
		for i := 0; i < 80; i++ {
			tr.Points = append(tr.Points, model.VesselState{
				MMSI: 3, At: at, Pos: pos, SpeedKn: 14, CourseDeg: course,
			})
			pos = geo.Project(pos, geo.Velocity{SpeedMS: 14 * geo.Knot, CourseDg: course}, 10)
			at = at.Add(10 * time.Second)
		}
		course = geo.NormalizeBearing(course + 85)
	}
	capa := 25
	sq := SquishE{Capacity: capa}.Compress(tr)
	un := Uniform{Every: tr.Len() / capa}.Compress(tr)
	repSq := Evaluate(tr, sq, "squish")
	repUn := Evaluate(tr, un, "uniform")
	if repSq.RMSESEDM >= repUn.RMSESEDM {
		t.Errorf("SQUISH (%.1f m RMSE) should beat uniform (%.1f m RMSE) at equal budget",
			repSq.RMSESEDM, repUn.RMSESEDM)
	}
}

func TestUniformKeepsEndpoints(t *testing.T) {
	tr := straightTrack(101)
	comp := Uniform{Every: 10}.Compress(tr)
	endpointsPreserved(t, tr, comp)
	if comp.Len() != 11 {
		t.Errorf("kept %d, want 11", comp.Len())
	}
}

func TestEmptyAndTinyTrajectories(t *testing.T) {
	empty := &model.Trajectory{}
	two := straightTrack(2)
	compressors := []Compressor{
		DouglasPeucker{ToleranceM: 10},
		DeadReckoning{ToleranceM: 10},
		SquishE{Capacity: 10},
		Uniform{Every: 5},
	}
	for _, c := range compressors {
		if got := c.Compress(empty); got.Len() != 0 {
			t.Errorf("%s: empty input should stay empty", c.Name())
		}
		if got := c.Compress(two); got.Len() != 2 {
			t.Errorf("%s: 2-point input should stay 2 points, got %d", c.Name(), got.Len())
		}
	}
}

func TestNinetyFivePercentClaim(t *testing.T) {
	// The paper's §2.1 claim: synopses reach ~95% compression on AIS
	// traces without destroying accuracy. A realistic voyage (long steady
	// legs, occasional turns) must compress ≥95% with bounded error.
	rng := rand.New(rand.NewSource(5))
	tr := windingTrack(rng, 5, 400) // 2000 points, mostly steady
	comp := DouglasPeucker{ToleranceM: 80}.Compress(tr)
	rep := Evaluate(tr, comp, "dp")
	if rep.Ratio < 0.95 {
		t.Errorf("expected ≥95%% compression on steady voyage, got %.1f%%", rep.Ratio*100)
	}
	if rep.MaxSEDM > 85 {
		t.Errorf("error bound violated: %.1f m", rep.MaxSEDM)
	}
	t.Logf("DP: ratio=%.3f rmse=%.1fm max=%.1fm kept=%d/%d",
		rep.Ratio, rep.RMSESEDM, rep.MaxSEDM, rep.Kept, rep.Original)
}

func TestStreamingCompressorMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tr := windingTrack(rng, 4, 60)
	var sc StreamingCompressor
	sc.ToleranceM = 100
	var kept int
	for _, p := range tr.Points {
		if _, ok := sc.Push(p); ok {
			kept++
		}
	}
	batch := DeadReckoning{ToleranceM: 100}.Compress(tr)
	// The streaming version has no final-point forcing, so it may keep one
	// fewer point than the batch version.
	if diff := batch.Len() - kept; diff < 0 || diff > 1 {
		t.Errorf("streaming kept %d, batch kept %d", kept, batch.Len())
	}
}

func TestEvaluateOnIdentity(t *testing.T) {
	tr := straightTrack(50)
	rep := Evaluate(tr, tr, "identity")
	if rep.Ratio != 0 || rep.MaxSEDM > 0.001 {
		t.Errorf("identity compression should have zero ratio and error: %+v", rep)
	}
	if got := Evaluate(&model.Trajectory{}, &model.Trajectory{}, "x"); got.Original != 0 {
		t.Error("empty evaluate should be zero")
	}
}

func BenchmarkDouglasPeucker2000(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	tr := windingTrack(rng, 5, 400)
	c := DouglasPeucker{ToleranceM: 80}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Compress(tr)
	}
}

func BenchmarkDeadReckoning2000(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	tr := windingTrack(rng, 5, 400)
	c := DeadReckoning{ToleranceM: 80}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Compress(tr)
	}
}

func BenchmarkSquishE2000(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	tr := windingTrack(rng, 5, 400)
	c := SquishE{Capacity: 100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Compress(tr)
	}
}

// Report quantifies a compression outcome against the original trace.
type Report struct {
	Algorithm string
	Original  int
	Kept      int
	Ratio     float64 // 1 - kept/original, the paper's "compression ratio"
	MeanSEDM  float64
	RMSESEDM  float64
	MaxSEDM   float64
}

// Evaluate reconstructs the compressed trajectory at each original
// timestamp and reports SED statistics plus the compression ratio.
func Evaluate(orig, comp *model.Trajectory, algorithm string) Report {
	r := Report{Algorithm: algorithm, Original: orig.Len(), Kept: comp.Len()}
	if orig.Len() == 0 {
		return r
	}
	r.Ratio = 1 - float64(comp.Len())/float64(orig.Len())
	var sum, sumSq, maxd float64
	for _, p := range orig.Points {
		rec, ok := comp.At(p.At)
		if !ok {
			continue
		}
		d := geo.Distance(p.Pos, rec.Pos)
		sum += d
		sumSq += d * d
		if d > maxd {
			maxd = d
		}
	}
	n := float64(orig.Len())
	r.MeanSEDM = sum / n
	r.RMSESEDM = math.Sqrt(sumSq / n)
	r.MaxSEDM = maxd
	return r
}
