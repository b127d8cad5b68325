// Command fusiondemo reproduces the §2.4 multi-source story: coastal
// radar contacts (anonymous, noisy) are fused with AIS reports
// (identified, accurate) into a single track picture, and two conflicting
// vessel registers are reconciled with reliability weighting — the E6
// experiment as a walkthrough.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/fusion"
	"repro/internal/geo"
	"repro/internal/registry"
	"repro/internal/sim"
)

func main() {
	cfg := sim.Config{
		Seed:        21,
		NumVessels:  60,
		Duration:    time.Hour,
		RadarRangeM: 60000,
		NumRadar:    4,
	}
	run, err := sim.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AIS reports: %d, radar contacts: %d\n", len(run.Positions), len(run.Radar))

	// Interleave AIS and radar into scans and track them together.
	tracker := fusion.NewTracker(fusion.DefaultTrackerConfig())
	type timed struct {
		at    time.Time
		m     fusion.Measurement
		truth uint32
	}
	var feed []timed
	for _, o := range run.Positions {
		feed = append(feed, timed{at: o.At, truth: o.TrueMMSI, m: fusion.Measurement{
			At: o.At, Pos: o.Report.Position, SigmaM: 10,
			Identity: o.Report.MMSI, Source: "ais",
		}})
	}
	for _, c := range run.Radar {
		feed = append(feed, timed{at: c.At, truth: c.TrueMMSI, m: fusion.Measurement{
			At: c.At, Pos: c.Pos, SigmaM: 120, Source: "radar",
		}})
	}
	// Sort by time and process in 10-second scans.
	for i := 1; i < len(feed); i++ {
		for j := i; j > 0 && feed[j].at.Before(feed[j-1].at); j-- {
			feed[j], feed[j-1] = feed[j-1], feed[j]
		}
	}
	var batch []fusion.Measurement
	var batchStart time.Time
	correct, radarTotal := 0, 0
	truthOf := map[int]uint32{} // measurement index in batch -> truth
	flush := func(at time.Time) {
		if len(batch) == 0 {
			return
		}
		tracker.Process(at, batch)
		// Score anonymous (radar) measurements: did they land on a track
		// already bound to their true identity?
		for idx, m := range batch {
			if m.Identity != 0 {
				continue
			}
			radarTotal++
			want := truthOf[idx]
			for _, tr := range tracker.Tracks {
				if tr.Identity == want &&
					geo.Distance(tr.Filter.Position(), m.Pos) < 500 {
					correct++
					break
				}
			}
		}
		batch = batch[:0]
		truthOf = map[int]uint32{}
	}
	for _, f := range feed {
		if batchStart.IsZero() || f.at.Sub(batchStart) > 10*time.Second {
			flush(f.at)
			batchStart = f.at
		}
		truthOf[len(batch)] = f.truth
		batch = append(batch, f.m)
	}
	flush(batchStart)

	confirmed := tracker.ConfirmedTracks()
	multi := 0
	for _, tr := range confirmed {
		if len(tr.Sources) > 1 {
			multi++
		}
	}
	fmt.Printf("confirmed tracks: %d (%d fused from both sensors)\n", len(confirmed), multi)
	if radarTotal > 0 {
		fmt.Printf("radar contacts landing on the correct identified track: %.0f%%\n",
			100*float64(correct)/float64(radarTotal))
	}

	// Register reconciliation with reliability weighting (§4).
	rng := rand.New(rand.NewSource(5))
	truth, ra, rb := registry.SyntheticPair(rng, 400, 0.02, 0.30)
	conflicts := registry.FindConflicts(ra, rb)
	fmt.Printf("\nregister conflicts between %s and %s: %d (e.g. %s)\n",
		ra.Provider, rb.Provider, len(conflicts), conflicts[0])

	resolve := func(rv *registry.Resolver) float64 {
		resolved := map[uint32]*registry.Record{}
		for _, mmsi := range ra.MMSIs() {
			recs := map[string]*registry.Record{"A": ra.Get(mmsi), "B": rb.Get(mmsi)}
			resolved[mmsi] = rv.Resolve(recs)
		}
		return registry.ResolutionAccuracy(truth, resolved)
	}
	uniform := registry.NewResolver()
	weighted := registry.NewResolver()
	weighted.Reliability["A"] = 0.95
	weighted.Reliability["B"] = 0.40
	fmt.Printf("resolution accuracy: uniform=%.1f%% reliability-weighted=%.1f%%\n",
		resolve(uniform)*100, resolve(weighted)*100)
}
