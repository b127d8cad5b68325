// Command aisgen generates a synthetic AIS feed as NMEA AIVDM sentences on
// stdout — the library's stand-in for a live receiver. Pipe it anywhere an
// AIS tool expects !AIVDM traffic.
//
// Usage:
//
//	aisgen [-vessels N] [-minutes M] [-seed S] [-world med|global] [-radar-range M] [-truth FILE]
//
// With -radar-range > 0 the simulated coastal radar stations are on and
// their contacts are interleaved into the feed, in time order, as
// proprietary sentences:
//
//	$PRADAR,<station>,<lat>,<lon>
//
// maritimed -detections parses these into the online track stage; every
// other consumer skips non-!AIVDM lines as NMEA noise.
//
// With -truth FILE the injected-anomaly ground truth (go-dark windows,
// course deviations, loiters, rendezvous…) is written to FILE as one
// JSON object per line — the scoring key to compare a detector's output
// against.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/ais"
	"repro/internal/sim"
)

// truthRecord is the ground-truth wire form: one injected anomaly per
// line, stable field names so scoring tools need no sim import.
type truthRecord struct {
	Kind  string    `json:"kind"`
	MMSI  uint32    `json:"mmsi"`
	Other uint32    `json:"other,omitempty"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	Lat   float64   `json:"lat,omitempty"`
	Lon   float64   `json:"lon,omitempty"`
}

// writeTruth dumps the injected-anomaly log as JSON lines.
func writeTruth(path string, events []sim.TruthEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, e := range events {
		r := truthRecord{
			Kind: string(e.Kind), MMSI: e.MMSI, Other: e.Other,
			Start: e.Start, End: e.End, Lat: e.Where.Lat, Lon: e.Where.Lon,
		}
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	vessels := flag.Int("vessels", 100, "fleet size")
	minutes := flag.Int("minutes", 30, "simulated duration in minutes")
	seed := flag.Int64("seed", 1, "random seed")
	world := flag.String("world", "med", "world: med or global")
	radarRange := flag.Float64("radar-range", 0, "coastal radar range in metres (0 = no radar); contacts interleave as $PRADAR sentences")
	truthPath := flag.String("truth", "", "write injected-anomaly ground truth to this file (one JSON event per line)")
	flag.Parse()

	cfg := sim.Config{
		Seed:        *seed,
		NumVessels:  *vessels,
		Duration:    time.Duration(*minutes) * time.Minute,
		TickSec:     2,
		RadarRangeM: *radarRange,
	}
	if *world == "global" {
		cfg.World = sim.GlobalWorld(*seed)
	}
	cfg.DefaultAnomalyRates()
	run, err := sim.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *truthPath != "" {
		if err := writeTruth(*truthPath, run.Events); err != nil {
			log.Fatalf("aisgen: writing truth log: %v", err)
		}
	}
	w := bufio.NewWriter(os.Stdout)
	n := 0
	// Radar contacts merge into the position stream by simulated time
	// (both slices are time-ordered), so a consumer replaying the feed
	// line by line sees one consistent timeline.
	radar := run.Radar
	emitRadarUpTo := func(at time.Time) {
		for len(radar) > 0 && !radar[0].At.After(at) {
			c := &radar[0]
			fmt.Fprintf(w, "$PRADAR,%d,%.6f,%.6f\n", c.Station, c.Pos.Lat, c.Pos.Lon)
			n++
			radar = radar[1:]
		}
	}
	for i := range run.Positions {
		obs := &run.Positions[i]
		emitRadarUpTo(obs.At)
		lines, err := ais.EncodeSentences(&obs.Report, i, "A")
		if err != nil {
			log.Fatal(err)
		}
		for _, l := range lines {
			fmt.Fprintln(w, l)
			n++
		}
	}
	if len(radar) > 0 {
		emitRadarUpTo(radar[len(radar)-1].At)
	}
	for i := range run.Statics {
		so := &run.Statics[i]
		lines, err := ais.EncodeSentences(&so.Msg, i, "B")
		if err != nil {
			log.Fatal(err)
		}
		for _, l := range lines {
			fmt.Fprintln(w, l)
			n++
		}
	}
	// A swallowed flush error (full pipe, closed stdout) would silently
	// truncate the feed — fail loudly instead.
	if err := w.Flush(); err != nil {
		log.Fatalf("aisgen: flushing stdout: %v", err)
	}
	fmt.Fprintf(os.Stderr, "aisgen: %d sentences (%d position reports, %d statics, %d radar contacts) from %d vessels over %dm\n",
		n, len(run.Positions), len(run.Statics), len(run.Radar), *vessels, *minutes)
	if *truthPath != "" {
		fmt.Fprintf(os.Stderr, "aisgen: %d ground-truth events -> %s\n", len(run.Events), *truthPath)
	}
}
