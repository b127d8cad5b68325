// Command forecastdemo runs the E9 story: learn patterns-of-life from a
// day of historical traffic, then predict vessel positions at increasing
// horizons and compare pure kinematics against the route model — the
// "anticipated trajectories" of §3.1.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/forecast"
	"repro/internal/model"
	"repro/internal/sim"
)

func main() {
	// History: one simulated day to learn from. Train and test share one
	// world — patterns-of-life belong to the lanes, not the vessels.
	world := sim.MediterraneanWorld(31)
	hist, err := sim.Simulate(sim.Config{
		Seed: 31, World: world, NumVessels: 120, Duration: 8 * time.Hour, TickSec: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	var trainSet []*model.Trajectory
	for mmsi, pts := range hist.Truth {
		tr := &model.Trajectory{MMSI: mmsi}
		for _, p := range pts {
			tr.Points = append(tr.Points, model.VesselState{
				MMSI: mmsi, At: p.At, Pos: p.Pos, SpeedKn: p.SpeedKn, CourseDeg: p.CourseDeg,
			})
		}
		trainSet = append(trainSet, tr)
	}
	rm := forecast.NewRouteModel(0.05)
	rm.TrainAll(trainSet)
	fmt.Printf("trained route model on %d trajectories\n", rm.Trained())

	// Evaluation: a fresh run on the same world (same seed world, new
	// vessel draws) — same lanes, unseen vessels.
	test, err := sim.Simulate(sim.Config{
		Seed: 97, World: world, NumVessels: 40, Duration: 6 * time.Hour, TickSec: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	var testSet []*model.Trajectory
	for mmsi, pts := range test.Truth {
		tr := &model.Trajectory{MMSI: mmsi}
		for _, p := range pts {
			tr.Points = append(tr.Points, model.VesselState{
				MMSI: mmsi, At: p.At, Pos: p.Pos, SpeedKn: p.SpeedKn, CourseDeg: p.CourseDeg,
			})
		}
		testSet = append(testSet, tr)
	}

	predictors := []forecast.Predictor{
		forecast.DeadReckoning{},
		forecast.Kalman{},
		rm,
		forecast.Hybrid{Route: rm, Fallback: forecast.Kalman{}},
	}
	horizons := []time.Duration{
		10 * time.Minute, 30 * time.Minute, 60 * time.Minute, 2 * time.Hour,
	}
	results := forecast.Evaluate(predictors, testSet, horizons, 20*time.Minute)

	fmt.Printf("\nmean prediction error (m) by horizon:\n%-16s", "predictor")
	for _, h := range horizons {
		fmt.Printf("%10s", h)
	}
	fmt.Println()
	for _, p := range predictors {
		fmt.Printf("%-16s", p.Name())
		for _, h := range horizons {
			for _, r := range results {
				switch {
				case r.Predictor != p.Name() || r.Horizon != h:
				case r.N == 0: // abstained everywhere: no error to report
					fmt.Printf("%10s", "—")
				default:
					fmt.Printf("%10.0f", r.MeanM)
				}
			}
		}
		fmt.Println()
	}
	fmt.Println("\n(the route model and hybrid should pull ahead at long horizons,")
	fmt.Println(" where dead reckoning sails straight through the lane bends)")
}
