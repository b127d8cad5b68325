package main

import (
	"fmt"
	"time"

	"repro/internal/ais"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/sim"
)

// epoch is the instant maritimed stamps on line zero: it synthesises event
// time as epoch + 100 ms × line number (cmd/maritimed's reader loop), so an
// `at` seen on /v1/stream or in a query answer names its input line exactly.
var epoch = time.Date(2017, 3, 21, 0, 0, 0, 0, time.UTC)

const lineStep = 100 * time.Millisecond

// lineOf recovers the zero-based feed line behind a synthesised event time.
func lineOf(at time.Time) int { return int(at.Sub(epoch)/lineStep) - 1 }

// atOf is the event time the daemon stamps on zero-based feed line i.
func atOf(i int) time.Time { return epoch.Add(time.Duration(i+1) * lineStep) }

// probe is a bench-owned vessel whose reports mark known feed lines: it
// sits alone in a corner of the Mediterranean box no simulated route
// reaches (the nearest port, Alexandria, is over 4° away; genFeed verifies
// that per seed), so a `live` poll or a stream subscription on its box
// sees it and nothing else. MMSIs are outside the simulated fleet's range
// (201000000 + 91·i) and the spoofers' (9xxxxxxxx).
type probe struct {
	mmsi uint32
	home geo.Point
}

var (
	// feedProbe closes every block of probeEvery lines of the simulated feed.
	feedProbe = probe{mmsi: 799000001, home: geo.Point{Lat: 30.25, Lon: 35.5}}
	// trickleProbe is the only vessel of the query workloads' trickle feed.
	// A restarted daemon's event clock restarts at epoch, before its
	// recovered archive, so the trickle needs a vessel the archive has
	// never seen, in a box of its own.
	trickleProbe = probe{mmsi: 799000002, home: geo.Point{Lat: 30.25, Lon: 34.5}}
)

const (
	probeEvery = 40
	// probeHalfBox is half the side of a probe's poll/subscribe box.
	probeHalfBox = 0.05
)

// scale sizes a suite: the toy smoke test and the real benchmark run the
// same code at different sizes.
type scale struct {
	vessels int
	minutes int
	// traceLines is how many leading feed lines the in-process per-layer
	// run replays.
	traceLines int
	// budget is the -mem-budget of query_evicted; it leaves under a
	// tenth of the archive resident.
	budget string
	// ladderStep is how long the traced run's rate ladder holds each rate.
	ladderStep time.Duration
}

var fullScale = scale{vessels: 2000, minutes: 40, traceLines: 60000, budget: "1MiB", ladderStep: 2 * time.Second}

// feed is the pre-encoded NMEA input: one contiguous buffer so any run of
// lines is a single write with no formatting or allocation in a timed loop.
type feed struct {
	buf []byte
	off []int // off[i] is where line i starts; len(off) == lines+1

	// Reference outcome of replaying the feed through one in-process
	// decoder and pipeline (events off: they never change what is
	// archived), cumulative per line: after lines [0, n) the daemon must
	// have decoded ref[n].messages messages, of them ref[n].positions
	// position reports, and archived ref[n].archived records.
	ref []refCount
	// vessels are the fleet MMSIs seen in the feed, in first-seen order.
	vessels []uint32
	// anchors sample where and when the fleet reported, so that seeded
	// query boxes and instants land on data.
	anchors []anchor
}

type refCount struct{ messages, positions, archived int32 }

// anchor is one sampled fleet report: its position and its feed line.
type anchor struct {
	pos  geo.Point
	line int
}

func (f *feed) lines() int { return len(f.off) - 1 }

// span returns the bytes of lines [lo, hi).
func (f *feed) span(lo, hi int) []byte { return f.buf[f.off[lo]:f.off[hi]] }

// report is the probe's k-th position report. It claims speed zero while
// stepping ~100 m along a zigzag inside its box, so the synopsis stage
// (60 m dead-reckoning tolerance) archives every one of them and each
// reaches the stream subscribers.
func (p probe) report(k int) *ais.PositionReport {
	step := k % 80
	if step > 40 {
		step = 80 - step
	}
	return &ais.PositionReport{
		Type:     ais.TypePositionA,
		MMSI:     p.mmsi,
		Status:   ais.StatusAtAnchor,
		Accuracy: true,
		Position: geo.Point{Lat: p.home.Lat - 0.02 + 0.001*float64(step), Lon: p.home.Lon},
		Heading:  511,
		Second:   k % 60,
	}
}

// box is the box the probe never leaves.
func (p probe) box() geo.Rect {
	return geo.Rect{
		MinLat: p.home.Lat - probeHalfBox, MinLon: p.home.Lon - probeHalfBox,
		MaxLat: p.home.Lat + probeHalfBox, MaxLon: p.home.Lon + probeHalfBox,
	}
}

// line is the probe's k-th report as one NMEA line.
func (p probe) line(k int) string {
	pl, err := ais.EncodeSentences(p.report(k), 0, "A")
	if err != nil {
		panic(err) // a fixed in-range report always encodes
	}
	return pl[0]
}

// genFeed simulates the seeded fleet, encodes it as AIVDM sentences in
// aisgen's order (positions by time, then statics) and closes every block
// of probeEvery lines with a feedProbe report. No radar: see README.
func genFeed(seed int64, sc scale) (*feed, error) {
	cfg := sim.Config{
		Seed: seed,
		// The world the daemon takes its zones from, whatever the seed: the
		// seed draws the fleet, its voyages and its anomalies.
		World:      sim.MediterraneanWorld(1),
		NumVessels: sc.vessels,
		Duration:   time.Duration(sc.minutes) * time.Minute,
		TickSec:    2,
	}
	cfg.DefaultAnomalyRates()
	run, err := sim.Simulate(cfg)
	if err != nil {
		return nil, fmt.Errorf("simulating feed: %w", err)
	}
	// Both probes' boxes plus half a degree, beyond any pair detector's reach.
	keepOut := geo.Rect{
		MinLat: trickleProbe.home.Lat - 0.55, MinLon: trickleProbe.home.Lon - 0.55,
		MaxLat: feedProbe.home.Lat + 0.55, MaxLon: feedProbe.home.Lon + 0.55,
	}
	f := &feed{off: []int{0}}
	f.buf = make([]byte, 0, (len(run.Positions)+2*len(run.Statics))*52)
	probes := 0
	emit := func(lines []string) {
		for _, l := range lines {
			f.buf = append(append(f.buf, l...), '\n')
			f.off = append(f.off, len(f.buf))
			if (f.lines()+1)%probeEvery == 0 {
				f.buf = append(append(f.buf, feedProbe.line(probes)...), '\n')
				f.off = append(f.off, len(f.buf))
				probes++
			}
		}
	}
	seen := make(map[uint32]bool, sc.vessels)
	for i := range run.Positions {
		rep := &run.Positions[i].Report
		if keepOut.Contains(rep.Position) {
			return nil, fmt.Errorf("seed %d: vessel %d reports inside the probe's corner at %v", seed, rep.MMSI, rep.Position)
		}
		if !seen[rep.MMSI] && rep.MMSI == run.Positions[i].TrueMMSI {
			seen[rep.MMSI] = true
			f.vessels = append(f.vessels, rep.MMSI)
		}
		lines, err := ais.EncodeSentences(rep, i, "A")
		if err != nil {
			return nil, fmt.Errorf("encoding position %d: %w", i, err)
		}
		if i%97 == 0 {
			f.anchors = append(f.anchors, anchor{pos: rep.Position, line: f.lines()})
		}
		emit(lines)
	}
	for i := range run.Statics {
		lines, err := ais.EncodeSentences(&run.Statics[i].Msg, i, "B")
		if err != nil {
			return nil, fmt.Errorf("encoding static %d: %w", i, err)
		}
		emit(lines)
	}
	if err := f.reference(); err != nil {
		return nil, err
	}
	return f, nil
}

// reference replays the feed through one ais.Decoder and one
// core.Pipeline, the daemon's configuration minus event recognition, and
// records what every daemon pass must reproduce.
func (f *feed) reference() error {
	dec := ais.NewDecoder()
	p := core.New(core.Config{
		Zones:              sim.MediterraneanWorld(1).Zones,
		SynopsisToleranceM: 60,
		DisableEvents:      true,
	})
	f.ref = make([]refCount, 1, f.lines()+1)
	var c refCount
	for i := 0; i < f.lines(); i++ {
		line := f.buf[f.off[i] : f.off[i+1]-1]
		msg, err := dec.Decode(string(line))
		if err != nil {
			return fmt.Errorf("reference decode of line %d: %w", i, err)
		}
		if msg != nil {
			c.messages++
		}
		if rep, ok := msg.(*ais.PositionReport); ok {
			c.positions++
			p.Ingest(atOf(i), rep)
			c.archived = int32(p.Metrics.Archived.Load())
		}
		f.ref = append(f.ref, c)
	}
	return nil
}

// trickleFeed is what the query workloads feed while they read: n
// trickleProbe reports and nothing else.
func trickleFeed(n int) *feed {
	f := &feed{off: []int{0}}
	for k := 0; k < n; k++ {
		f.buf = append(append(f.buf, trickleProbe.line(k)...), '\n')
		f.off = append(f.off, len(f.buf))
	}
	f.ref = make([]refCount, n+1)
	for k := range f.ref {
		f.ref[k] = refCount{int32(k), int32(k), int32(k)}
	}
	return f
}
