package synopsis

import (
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/sim"
)

// TestFleetCompressionClaim holds EXPERIMENTS.md's E2 claim (§2.1 [29]) on a
// simulated fleet rather than one hand-made voyage: synopses reach ~95 %
// compression on AIS traces without destroying accuracy. Seed 7, 60 vessels
// × 4 h at a 2 s tick, every ground-truth trace of at least 50 points, swept
// over Douglas-Peucker and dead reckoning at 30/60/120/240 m tolerance.
// Measured: Douglas-Peucker 98.3–98.9 % with max SED within tolerance, dead
// reckoning 89.4–94.3 %. Tolerances: some configuration keeps ≤ 5 % of the
// points, and Douglas-Peucker's worst SED stays within its tolerance (dead
// reckoning bounds the drift from its own prediction, not the SED) — so a
// compressor that keeps too much, or drops points past its bound, fails.
func TestFleetCompressionClaim(t *testing.T) {
	run, err := sim.Simulate(sim.Config{Seed: 7, NumVessels: 60, Duration: 4 * time.Hour, TickSec: 2})
	if err != nil {
		t.Fatal(err)
	}
	var trs []*model.Trajectory
	for mmsi, pts := range run.Truth {
		tr := &model.Trajectory{MMSI: mmsi}
		for _, p := range pts {
			tr.Points = append(tr.Points, model.VesselState{
				MMSI: mmsi, At: p.At, Pos: p.Pos, SpeedKn: p.SpeedKn, CourseDeg: p.CourseDeg,
			})
		}
		tr.Sort()
		if tr.Len() >= 50 {
			trs = append(trs, tr)
		}
	}
	if len(trs) == 0 {
		t.Fatal("no trace of at least 50 points")
	}
	best := 0.0
	for _, tol := range []float64{30, 60, 120, 240} {
		for _, c := range []Compressor{
			DouglasPeucker{ToleranceM: tol},
			DeadReckoning{ToleranceM: tol, MaxGap: 10 * time.Minute},
		} {
			var kept, orig int
			var maxSED float64
			for _, tr := range trs {
				rep := Evaluate(tr, c.Compress(tr), c.Name())
				kept += rep.Kept
				orig += rep.Original
				if rep.MaxSEDM > maxSED {
					maxSED = rep.MaxSEDM
				}
			}
			ratio := 1 - float64(kept)/float64(orig)
			t.Logf("%s tol=%.0fm: ratio %.1f%%, max SED %.0f m", c.Name(), tol, 100*ratio, maxSED)
			if ratio > best {
				best = ratio
			}
			if _, dp := c.(DouglasPeucker); dp && maxSED > tol {
				t.Errorf("%s tol=%.0fm: max SED %.1f m exceeds the tolerance", c.Name(), tol, maxSED)
			}
		}
	}
	if best < 0.95 {
		t.Errorf("no configuration reached 95%% compression: best %.1f%%", 100*best)
	}
}
