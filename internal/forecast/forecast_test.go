package forecast

import (
	"math"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/model"
)

func t0() time.Time { return time.Date(2017, 3, 21, 0, 0, 0, 0, time.UTC) }

// straight builds a constant-velocity trajectory.
func straight(mmsi uint32, start geo.Point, course, speedKn float64, n int, stepSec float64) *model.Trajectory {
	tr := &model.Trajectory{MMSI: mmsi}
	pos := start
	at := t0()
	for i := 0; i < n; i++ {
		tr.Points = append(tr.Points, model.VesselState{
			MMSI: mmsi, At: at, Pos: pos, SpeedKn: speedKn, CourseDeg: course,
		})
		pos = geo.Project(pos, geo.Velocity{SpeedMS: speedKn * geo.Knot, CourseDg: course}, stepSec)
		at = at.Add(time.Duration(stepSec) * time.Second)
	}
	return tr
}

// dogleg builds a route with a 90° turn at the midpoint — the shape that
// separates route-following prediction from dead reckoning.
func dogleg(mmsi uint32, start geo.Point, speedKn float64, legN int, stepSec float64, startAt time.Time) *model.Trajectory {
	tr := &model.Trajectory{MMSI: mmsi}
	pos := start
	at := startAt
	addLeg := func(course float64) {
		for i := 0; i < legN; i++ {
			tr.Points = append(tr.Points, model.VesselState{
				MMSI: mmsi, At: at, Pos: pos, SpeedKn: speedKn, CourseDeg: course,
			})
			pos = geo.Project(pos, geo.Velocity{SpeedMS: speedKn * geo.Knot, CourseDg: course}, stepSec)
			at = at.Add(time.Duration(stepSec) * time.Second)
		}
	}
	addLeg(90)
	addLeg(0)
	return tr
}

func TestDeadReckoningStraight(t *testing.T) {
	tr := straight(1, geo.Point{Lat: 41, Lon: 6}, 90, 12, 60, 30)
	horizon := 20 * time.Minute
	pred, ok := DeadReckoning{}.Predict(tr, horizon)
	if !ok {
		t.Fatal("prediction failed")
	}
	last := tr.Points[tr.Len()-1]
	truth := geo.Project(last.Pos, last.Velocity(), horizon.Seconds())
	if d := geo.Distance(pred, truth); d > 1 {
		t.Errorf("DR prediction off by %.1f m on straight track", d)
	}
	if _, ok := (DeadReckoning{}).Predict(&model.Trajectory{}, horizon); ok {
		t.Error("empty history must fail")
	}
}

func TestKalmanPredictorStraight(t *testing.T) {
	tr := straight(1, geo.Point{Lat: 41, Lon: 6}, 45, 10, 60, 30)
	pred, ok := Kalman{}.Predict(tr, 15*time.Minute)
	if !ok {
		t.Fatal("prediction failed")
	}
	last := tr.Points[tr.Len()-1]
	truth := geo.Project(last.Pos, last.Velocity(), (15 * time.Minute).Seconds())
	if d := geo.Distance(pred, truth); d > 200 {
		t.Errorf("Kalman prediction off by %.0f m on straight noise-free track", d)
	}
}

func TestRouteModelLearnsTheTurn(t *testing.T) {
	rm := NewRouteModel(0.05)
	// Train on 30 historical voyages over the same dogleg.
	start := geo.Point{Lat: 41, Lon: 6}
	for i := 0; i < 30; i++ {
		jitter := geo.Destination(start, float64(i*12%360), float64(i%5)*200)
		rm.Train(dogleg(uint32(100+i), jitter, 12, 80, 30, t0()))
	}
	if rm.Trained() != 30 {
		t.Fatalf("trained %d", rm.Trained())
	}
	// Test vessel: currently approaching the turn on the first leg.
	test := dogleg(999, start, 12, 80, 30, t0())
	// History: first 70 points (before the turn at point 80).
	histEnd := test.Points[69].At
	history := test.Slice(test.Start(), histEnd)
	// Predict 40 minutes ahead: the truth is well into the second leg.
	horizon := 40 * time.Minute
	truth, _ := test.At(histEnd.Add(horizon))

	drPred, _ := DeadReckoning{}.Predict(history, horizon)
	rmPred, ok := rm.Predict(history, horizon)
	if !ok {
		t.Fatal("route model should know this territory")
	}
	drErr := geo.Distance(drPred, truth.Pos)
	rmErr := geo.Distance(rmPred, truth.Pos)
	if rmErr >= drErr {
		t.Errorf("route model (%.0f m) should beat dead reckoning (%.0f m) across the turn", rmErr, drErr)
	}
	// The route model must land within a few cells of the truth.
	if rmErr > 15000 {
		t.Errorf("route model error %.0f m too large", rmErr)
	}
}

func TestRouteModelUnknownTerritory(t *testing.T) {
	rm := NewRouteModel(0.05)
	rm.Train(straight(1, geo.Point{Lat: 41, Lon: 6}, 90, 12, 60, 30))
	// A vessel in a completely different area: no direction history match.
	foreign := straight(2, geo.Point{Lat: 50, Lon: -20}, 90, 12, 60, 30)
	if _, ok := rm.Predict(foreign, 10*time.Minute); ok {
		// Prediction may still succeed via DR extension if cell transition
		// unknown — but the vessel's own cells give direction, so the
		// model extends by dead reckoning. That is acceptable; verify it
		// does not crash and lands somewhere plausible.
		t.Log("route model extrapolated in unknown territory (DR extension)")
	}
	// A stationary vessel predicts staying put.
	stopped := straight(3, geo.Point{Lat: 41, Lon: 6}, 90, 0, 10, 30)
	// Give it direction history first by prepending movement.
	moving := straight(3, geo.Point{Lat: 41, Lon: 5.9}, 90, 10, 20, 30)
	tr := &model.Trajectory{MMSI: 3, Points: append(moving.Points, stopped.Points...)}
	p, ok := rm.Predict(tr, 30*time.Minute)
	if ok {
		last := tr.Points[tr.Len()-1]
		if geo.Distance(p, last.Pos) > 100 {
			t.Errorf("stationary vessel should be predicted in place, moved %.0f m", geo.Distance(p, last.Pos))
		}
	}
}

func TestHybridFallsBack(t *testing.T) {
	h := Hybrid{Route: NewRouteModel(0.05), Fallback: DeadReckoning{}}
	tr := straight(1, geo.Point{Lat: 41, Lon: 6}, 90, 12, 60, 30)
	if _, ok := h.Predict(tr, 10*time.Minute); !ok {
		t.Error("hybrid must fall back to DR when the route model abstains")
	}
	// Nil fallback defaults to DR.
	h2 := Hybrid{Route: NewRouteModel(0.05)}
	if _, ok := h2.Predict(tr, 10*time.Minute); !ok {
		t.Error("hybrid with nil fallback must still predict")
	}
}

// abstainer has no basis for any prediction.
type abstainer struct{}

func (abstainer) Name() string { return "abstain" }
func (abstainer) Predict(*model.Trajectory, time.Duration) (geo.Point, bool) {
	return geo.Point{}, false
}

func TestEvaluateHorizonSweep(t *testing.T) {
	// On dogleg traffic: route model error at long horizon must undercut
	// dead reckoning; at short horizon both are decent.
	start := geo.Point{Lat: 41, Lon: 6}
	rm := NewRouteModel(0.05)
	for i := 0; i < 25; i++ {
		jitter := geo.Destination(start, float64(i*17%360), float64(i%4)*200)
		rm.Train(dogleg(uint32(100+i), jitter, 12, 80, 30, t0()))
	}
	test := []*model.Trajectory{dogleg(999, start, 12, 80, 30, t0())}
	horizons := []time.Duration{10 * time.Minute, 40 * time.Minute}
	results := Evaluate(
		[]Predictor{DeadReckoning{}, rm, Hybrid{Route: rm, Fallback: DeadReckoning{}}, abstainer{}},
		test, horizons, 5*time.Minute)

	get := func(name string, h time.Duration) HorizonError {
		for _, r := range results {
			if r.Predictor == name && r.Horizon == h {
				return r
			}
		}
		t.Fatalf("missing result %s/%v", name, h)
		return HorizonError{}
	}
	// A predictor that never predicts is reported as scored nowhere, not
	// as a zero-error one.
	for _, h := range horizons {
		if r := get("abstain", h); r.N != 0 {
			t.Fatalf("abstaining predictor scored N=%d at %v", r.N, h)
		}
	}
	for _, r := range results {
		if r.Predictor == "abstain" {
			continue
		}
		if r.N == 0 {
			t.Fatalf("no evaluations for %s at %v", r.Predictor, r.Horizon)
		}
		if math.IsNaN(r.MeanM) {
			t.Fatalf("NaN error for %s", r.Predictor)
		}
	}
	dr40 := get("dead-reckoning", 40*time.Minute)
	rm40 := get("route-model", 40*time.Minute)
	if rm40.MeanM >= dr40.MeanM {
		t.Errorf("at 40 min, route model (%.0f m) should beat DR (%.0f m)", rm40.MeanM, dr40.MeanM)
	}
	// Error grows with horizon for DR.
	dr10 := get("dead-reckoning", 10*time.Minute)
	if dr40.MeanM <= dr10.MeanM {
		t.Errorf("DR error should grow with horizon: %.0f vs %.0f", dr40.MeanM, dr10.MeanM)
	}
	t.Logf("E9 mini: DR10=%.0fm DR40=%.0fm RM40=%.0fm", dr10.MeanM, dr40.MeanM, rm40.MeanM)
}

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	// Floor-index convention: idx = int(0.9 * 4) = 3 → value 4.
	if p := percentile(vals, 0.9); p != 4 {
		t.Errorf("p90 of 1..5 = %f", p)
	}
	if p := percentile(vals, 1); p != 5 {
		t.Errorf("p100 = %f", p)
	}
	if p := percentile(vals, 0); p != 1 {
		t.Errorf("p0 = %f", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Errorf("empty percentile = %f", p)
	}
}

func BenchmarkRouteModelPredict(b *testing.B) {
	start := geo.Point{Lat: 41, Lon: 6}
	rm := NewRouteModel(0.05)
	for i := 0; i < 25; i++ {
		rm.Train(dogleg(uint32(100+i), start, 12, 80, 30, t0()))
	}
	history := dogleg(999, start, 12, 80, 30, t0()).Slice(t0(), t0().Add(30*time.Minute))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := rm.Predict(history, 40*time.Minute); !ok {
			b.Fatal("prediction failed")
		}
	}
}

func BenchmarkRouteModelTrain(b *testing.B) {
	start := geo.Point{Lat: 41, Lon: 6}
	tr := dogleg(1, start, 12, 200, 30, t0())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rm := NewRouteModel(0.05)
		rm.Train(tr)
	}
}
