// Command voyageanalytics is the archive-side (§2.3 + §3.2) walkthrough:
// store a day of traffic in the moving-object store, compute semantic
// trajectory episodes, run spatio-temporal queries, and build the
// multi-scale density and port-to-port flow pictures.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/semstore"
	"repro/internal/sim"
	"repro/internal/tstore"
	"repro/internal/va"
)

func main() {
	run, err := sim.Simulate(sim.Config{
		Seed: 17, NumVessels: 150, Duration: 6 * time.Hour, TickSec: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	world := run.Config.World

	// 1. Archive everything.
	store := tstore.New()
	for mmsi, pts := range run.Truth {
		for _, p := range pts {
			store.Append(model.VesselState{
				MMSI: mmsi, At: p.At, Pos: p.Pos, SpeedKn: p.SpeedKn, CourseDeg: p.CourseDeg,
			})
		}
	}
	fmt.Printf("archived %d points for %d vessels\n", store.Len(), store.VesselCount())

	// 2. Spatio-temporal query: who crossed the Gulf of Lions mid-run?
	gulf := geo.Rect{MinLat: 42.2, MinLon: 3.2, MaxLat: 43.5, MaxLon: 5.5}
	from := run.Config.Start.Add(2 * time.Hour)
	to := run.Config.Start.Add(4 * time.Hour)
	hits := store.SpaceTime(gulf, from, to)
	vesselsSeen := map[uint32]bool{}
	for _, h := range hits {
		vesselsSeen[h.MMSI] = true
	}
	fmt.Printf("gulf query: %d points / %d vessels in the window\n", len(hits), len(vesselsSeen))

	// 3. Semantic episodes into the triple store.
	st := semstore.NewStore()
	totalEpisodes := 0
	flows := va.NewFlowMatrix()
	for _, mmsi := range store.MMSIs() {
		tr := store.Trajectory(mmsi)
		eps := semstore.SegmentEpisodes(tr, world.Zones, semstore.DefaultEpisodeConfig())
		totalEpisodes += len(eps)
		semstore.MaterialiseEpisodes(st, eps)
		// Port-call sequence → OD flows.
		var lastPort string
		for _, e := range eps {
			if e.Activity != semstore.ActivityMoored {
				continue
			}
			for _, z := range e.ZoneIDs {
				if len(z) > 5 && z[:5] == "port-" {
					if lastPort != "" {
						flows.Add(lastPort, z)
					}
					lastPort = z
				}
			}
		}
	}
	fmt.Printf("segmented %d episodes into %d triples\n", totalEpisodes, st.Len())

	// Query the knowledge graph: fishing-like episodes (slow movement).
	slow := st.Match(semstore.Pattern{
		P: semstore.T(semstore.IRI(semstore.PredActivity)),
		O: semstore.T(semstore.Str(string(semstore.ActivitySlowMove))),
	})
	fmt.Printf("slow-movement episodes in the graph: %d\n", len(slow))

	// 4. Flows and density.
	fmt.Println("\nbusiest port-to-port flows:")
	top := flows.Top(5)
	if len(top) == 0 {
		fmt.Println("  (no vessel completed two port calls in this window —")
		fmt.Println("   lengthen the run to see origin–destination flows)")
	}
	for _, f := range top {
		fmt.Printf("  %-12s → %-12s %d voyages\n", f.From, f.To, f.Count)
	}

	var pts []geo.Point
	for _, tps := range run.Truth {
		for _, p := range tps {
			pts = append(pts, p.Pos)
		}
	}
	levels := va.MultiScaleDensity(world.Bounds, []int{12}, pts)
	fmt.Println("\ntraffic density (coarse):")
	fmt.Print(levels[0].Render())

	hist := va.NewTimeHistogram(run.Config.Start, 30*time.Minute, 12)
	for i := range run.Positions {
		hist.Add(run.Positions[i].At)
	}
	fmt.Printf("\nreceived-message volume over time: %s\n", hist.Render())
}
