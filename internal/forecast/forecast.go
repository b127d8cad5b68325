// Package forecast implements anticipated-trajectory prediction (§3.1):
// pure kinematics (dead reckoning and a constant-velocity Kalman filter),
// a patterns-of-life route model learned from historical traffic (the
// context-based normalcy of §4 [40]), and a hybrid that follows the route
// model where history exists and falls back to kinematics elsewhere.
// Experiment E9 sweeps prediction horizon and compares the four. The
// query engine serves DeadReckoning for predict: on ordinary traffic none
// of the others beats it (TestPredictClaim); the route model wins where
// lanes bend (TestRouteModelLearnsTheTurn).
package forecast

import (
	"sort"
	"time"

	"repro/internal/fusion"
	"repro/internal/geo"
	"repro/internal/model"
)

// Predictor forecasts a vessel's position at a future instant from its
// observed history.
type Predictor interface {
	Name() string
	// Predict extrapolates the trajectory (history up to its last point)
	// by horizon. ok is false when the predictor has no basis (empty
	// history, unseen territory).
	Predict(tr *model.Trajectory, horizon time.Duration) (geo.Point, bool)
}

// DeadReckoning projects the last reported velocity forward: the baseline
// every bridge officer runs in their head.
type DeadReckoning struct{}

// Name implements Predictor.
func (DeadReckoning) Name() string { return "dead-reckoning" }

// Predict implements Predictor.
func (DeadReckoning) Predict(tr *model.Trajectory, horizon time.Duration) (geo.Point, bool) {
	n := tr.Len()
	if n == 0 {
		return geo.Point{}, false
	}
	last := tr.Points[n-1]
	return geo.Project(last.Pos, last.Velocity(), horizon.Seconds()), true
}

// Kalman runs a constant-velocity filter over the recent history and
// extrapolates its state: smoother than dead reckoning under noisy
// reports, identical in spirit.
type Kalman struct {
	// Window bounds how much history seeds the filter (default 30 min).
	Window time.Duration
	// ProcessNoise is the filter's manoeuvre allowance (default 0.05).
	ProcessNoise float64
}

// Name implements Predictor.
func (Kalman) Name() string { return "kalman" }

// Predict implements Predictor.
func (k Kalman) Predict(tr *model.Trajectory, horizon time.Duration) (geo.Point, bool) {
	n := tr.Len()
	if n == 0 {
		return geo.Point{}, false
	}
	window := k.Window
	if window == 0 {
		window = 30 * time.Minute
	}
	q := k.ProcessNoise
	if q == 0 {
		q = 0.05
	}
	last := tr.Points[n-1]
	from := last.At.Add(-window)
	f := fusion.NewKalmanCV(last.Pos, q)
	for _, p := range tr.Points {
		if p.At.Before(from) {
			continue
		}
		if !f.Initialised() {
			f.Init(p.At, p.Pos, 15)
			continue
		}
		f.Predict(p.At)
		f.Update(p.Pos, 15)
	}
	if !f.Initialised() {
		return geo.Point{}, false
	}
	return f.PredictedPosition(last.At.Add(horizon)), true
}

// Evaluation harness -----------------------------------------------------------

// HorizonError aggregates prediction error at one horizon for one
// predictor. N counts the predictions scored; when the predictor abstained
// at every eval point N is 0 and MeanM/P90M are 0 with no meaning, so a
// reader must check N before reporting them.
type HorizonError struct {
	Predictor string
	Horizon   time.Duration
	N         int
	MeanM     float64
	P90M      float64
}

// Evaluate sweeps horizons over test trajectories: at every eval point
// (each trajectory sampled every step), each predictor sees the history up
// to that instant and is scored against the trajectory's actual position
// at instant+horizon. Trajectory boundaries bound what can be scored.
func Evaluate(predictors []Predictor, trajectories []*model.Trajectory, horizons []time.Duration, step time.Duration) []HorizonError {
	type acc struct {
		errs []float64
	}
	accs := make(map[string]map[time.Duration]*acc)
	for _, p := range predictors {
		accs[p.Name()] = make(map[time.Duration]*acc)
		for _, h := range horizons {
			accs[p.Name()][h] = &acc{}
		}
	}
	for _, tr := range trajectories {
		if tr.Len() < 2 {
			continue
		}
		maxH := horizons[0]
		for _, h := range horizons {
			if h > maxH {
				maxH = h
			}
		}
		for at := tr.Start().Add(step); !at.After(tr.End().Add(-maxH)); at = at.Add(step) {
			history := tr.Slice(tr.Start(), at)
			if history.Len() < 2 {
				continue
			}
			for _, h := range horizons {
				truth, ok := tr.At(at.Add(h))
				if !ok {
					continue
				}
				for _, p := range predictors {
					pred, ok := p.Predict(history, h)
					if !ok {
						continue
					}
					a := accs[p.Name()][h]
					a.errs = append(a.errs, geo.Distance(pred, truth.Pos))
				}
			}
		}
	}
	var out []HorizonError
	for _, p := range predictors {
		for _, h := range horizons {
			a := accs[p.Name()][h]
			he := HorizonError{Predictor: p.Name(), Horizon: h, N: len(a.errs)}
			if len(a.errs) > 0 {
				var sum float64
				for _, e := range a.errs {
					sum += e
				}
				he.MeanM = sum / float64(len(a.errs))
				he.P90M = percentile(a.errs, 0.9)
			}
			out = append(out, he)
		}
	}
	return out
}

func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}
