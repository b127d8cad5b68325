package weather

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

// TestGridResolutionClaim holds EXPERIMENTS.md's E7 claim (§2.5) over a
// whole sea rather than a test box: km-scale hourly context joins AIS, and
// finer grids cut the interpolation error. Seed 7, 1000 random probes over
// the Mediterranean world, wind speed sampled 90 min into a 6-slice hourly
// series at 2°, 1°, 0.5° and 0.25°, measured RMSE 1.04, 0.30, 0.12 and
// 0.075 m/s. Tolerance: the RMSE falls at every refinement — so a sampler
// that ignores the grid spacing, or snaps to the nearest node, fails.
func TestGridResolutionClaim(t *testing.T) {
	world := sim.MediterraneanWorld(7)
	field := AnalyticField{Base: 10, Amplitude: 5, WaveLatDeg: 5, WaveLonDeg: 8, Period: 12 * time.Hour}
	rng := rand.New(rand.NewSource(7))
	probe := make([]geo.Point, 1000)
	for i := range probe {
		probe[i] = geo.Point{Lat: 31 + rng.Float64()*14, Lon: -5 + rng.Float64()*40}
	}
	at := t0().Add(90 * time.Minute)
	prev := math.Inf(1)
	for _, cellDeg := range []float64{2.0, 1.0, 0.5, 0.25} {
		s := field.BuildSeries(WindSpeedMS, world.Bounds, cellDeg, t0(), time.Hour, 6)
		var se float64
		for _, p := range probe {
			got, err := s.Sample(p, at)
			if err != nil {
				t.Fatal(err)
			}
			d := got - field.Eval(p, at)
			se += d * d
		}
		rmse := math.Sqrt(se / float64(len(probe)))
		t.Logf("%.2f°: RMSE %.4f", cellDeg, rmse)
		if rmse >= prev {
			t.Errorf("%.2f° grid RMSE %.4f not below the coarser grid's %.4f", cellDeg, rmse, prev)
		}
		prev = rmse
	}
}
