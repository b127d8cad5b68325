// Command anomalywatch runs the §3.1 early-warning scenario: a fleet with
// injected suspicious behaviours (go-dark, spoofing, rendezvous,
// loitering, protected-area fishing) flows through the pipeline, and the
// detector output is scored live against the simulator's ground truth —
// the E8 experiment as an interactive demonstration.
package main

import (
	"cmp"
	"fmt"
	"log"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/sim"
)

func main() {
	cfg := sim.Config{
		Seed:       7,
		NumVessels: 150,
		Duration:   3 * time.Hour,
	}
	cfg.DefaultAnomalyRates()
	run, err := sim.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	byKind := map[sim.EventKind]int{}
	for _, e := range run.Events {
		byKind[e.Kind]++
	}
	kinds := make([]sim.EventKind, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	// Count descending, then kind: map order would shuffle equal counts.
	slices.SortFunc(kinds, func(a, b sim.EventKind) int {
		return cmp.Or(cmp.Compare(byKind[b], byKind[a]), cmp.Compare(a, b))
	})
	fmt.Println("injected anomalies (ground truth):")
	for _, k := range kinds {
		fmt.Printf("  %-18s %d\n", k, byKind[k])
	}

	p := core.New(core.Config{
		Zones:         run.Config.World.Zones,
		DarkThreshold: 25 * time.Minute,
	})
	start := time.Now()
	for i := range run.Positions {
		obs := &run.Positions[i]
		for _, a := range p.Ingest(obs.At, &obs.Report) {
			if a.Severity >= 3 {
				fmt.Printf("  ALERT %s\n", a)
			}
		}
	}
	elapsed := time.Since(start)

	// Score each detector against the injected truth.
	var truths []events.TruthWindow
	for _, e := range run.Events {
		truths = append(truths, events.TruthWindow{
			Kind: events.Kind(e.Kind), MMSI: e.MMSI, Other: e.Other,
			Start: e.Start, End: e.End,
		})
	}
	fmt.Printf("\nprocessed %d reports in %v (%.0f msg/s)\n",
		len(run.Positions), elapsed.Round(time.Millisecond),
		float64(len(run.Positions))/elapsed.Seconds())
	fmt.Println("\ndetector scorecard (vs injected truth):")
	fmt.Printf("  %-18s %6s %6s %10s %7s %7s\n", "kind", "truth", "alerts", "latency", "prec", "recall")
	for _, kind := range []events.Kind{
		events.KindDark, events.KindTeleport, events.KindIdentity,
		events.KindRendezvous, events.KindLoiter, events.KindDrift,
		events.KindZoneViolation,
	} {
		r := events.Score(kind, p.Alerts(), truths, 5*time.Minute)
		if r.Truth == 0 && r.Alerts == 0 {
			continue
		}
		fmt.Printf("  %-18s %6d %6d %10s %6.0f%% %6.0f%%\n",
			kind, r.Truth, r.Alerts, r.MeanLatency.Round(time.Second),
			r.Precision*100, r.Recall*100)
	}
}
