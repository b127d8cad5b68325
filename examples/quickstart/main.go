// Command quickstart is the smallest complete use of the library: simulate
// an hour of Mediterranean traffic, run the integrated pipeline over it,
// and print the situation picture plus the alerts it raised.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

func main() {
	// 1. A synthetic world stands in for live AIS feeds (the library's
	// substitution for radio receivers; see README.md).
	cfg := sim.Config{
		Seed:       42,
		NumVessels: 80,
		Duration:   90 * time.Minute,
	}
	cfg.DefaultAnomalyRates() // the paper-calibrated defect profile
	run, err := sim.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d vessels, %d position reports, %d injected anomalies\n",
		len(run.Vessels), len(run.Positions), len(run.Events))

	// 2. The integrated pipeline of the paper's Figure 2.
	p := core.New(core.Config{
		Zones:              run.Config.World.Zones,
		SynopsisToleranceM: 60, // archive synopses, not raw firehose
	})
	for i := range run.Positions {
		obs := &run.Positions[i]
		p.Ingest(obs.At, &obs.Report)
	}
	for i := range run.Statics {
		so := &run.Statics[i]
		p.IngestStatic(so.At, &so.Msg)
	}

	// 3. What came out the other side.
	snap := p.Metrics.Snapshot()
	fmt.Printf("\ningested=%d archived=%d (%.1f%% synopsis compression) alerts=%d\n",
		snap.Ingested, snap.Archived, p.CompressionRatio()*100, snap.Alerts)

	fmt.Println("\nfirst alerts:")
	alerts := p.Alerts()
	for i, a := range alerts {
		if i == 8 {
			fmt.Printf("  … and %d more\n", len(alerts)-8)
			break
		}
		fmt.Printf("  %s\n", a)
	}

	// 4. The operator's situation board.
	end := run.Config.Start.Add(run.Config.Duration)
	fmt.Println()
	fmt.Print(p.Situation(end, run.Config.World.Bounds, 12, 48).Summary())
}
