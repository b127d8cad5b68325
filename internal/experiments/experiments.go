// Package experiments implements the reproduction harness: one function
// per experiment cmd/benchrunner runs (E1–E22), each returning the
// paper-style table rows that EXPERIMENTS.md records. Everything is
// seeded and deterministic (E5/E14/E15/E16/E17/E18 wall-clock columns
// vary with the hardware; counts do not).
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/anomaly"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/forecast"
	"repro/internal/fusion"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/query"
	"repro/internal/registry"
	"repro/internal/semstore"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/synopsis"
	"repro/internal/track"
	"repro/internal/tstore"
	"repro/internal/uncertainty"
	"repro/internal/va"
	"repro/internal/weather"
)

// Table is one experiment's result: a title, column headers and rows.
type Table struct {
	ID    string
	Title string
	Cols  []string
	Rows  [][]string
	Notes []string
}

// Format renders the table as aligned text.
func (t Table) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, v := range r {
			if i < len(widths) && len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, v := range cells {
			fmt.Fprintf(&sb, "%-*s  ", widths[i], v)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Cols)
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

func f(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// percentile reports the p-quantile of the latencies by feeding them
// through the same bounded-bucket histogram the production metrics use
// (obs.Histogram), so experiments and /metrics report percentiles from
// one implementation. Zero on empty input; resolution is the
// histogram's bucket width (≤ ~3.2% relative error).
func percentile(lat []time.Duration, p float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	h := obs.NewHistogram()
	for _, d := range lat {
		h.Observe(int64(d))
	}
	return time.Duration(h.Quantile(p))
}

func truthTrajectories(run *sim.Run) []*model.Trajectory {
	var out []*model.Trajectory
	for mmsi, pts := range run.Truth {
		tr := &model.Trajectory{MMSI: mmsi}
		for _, p := range pts {
			tr.Points = append(tr.Points, model.VesselState{
				MMSI: mmsi, At: p.At, Pos: p.Pos, SpeedKn: p.SpeedKn, CourseDeg: p.CourseDeg,
			})
		}
		tr.Sort()
		out = append(out, tr)
	}
	return out
}

// E1 reproduces Figure 1: worldwide feed volume and coverage. The paper
// cites ~18M received positions/day worldwide [16]; we simulate a global
// window, report rates by receiver path, and extrapolate to a day.
func E1(seed int64, vessels int, window time.Duration) Table {
	cfg := sim.Config{
		Seed: seed, World: sim.GlobalWorld(seed), NumVessels: vessels,
		Duration: window, TickSec: 5,
	}
	run, err := sim.Simulate(cfg)
	if err != nil {
		panic(err)
	}
	var terr, sat, both int
	var pts []geo.Point
	for i := range run.Positions {
		o := &run.Positions[i]
		if o.Terrestrial {
			terr++
		}
		if o.Satellite {
			sat++
		}
		if o.Terrestrial && o.Satellite {
			both++
		}
		pts = append(pts, o.Report.Position)
	}
	density := va.NewDensity(geo.Rect{MinLat: -60, MinLon: -180, MaxLat: 70, MaxLon: 180}, 26, 72)
	for _, p := range pts {
		density.Add(p)
	}
	perDay := float64(len(run.Positions)) / window.Hours() * 24
	emittedPerDay := float64(run.Emitted) / window.Hours() * 24
	t := Table{
		ID:    "E1",
		Title: "worldwide AIS feed (Figure 1)",
		Cols:  []string{"metric", "value"},
		Rows: [][]string{
			{"fleet size", f("%d", vessels)},
			{"window", window.String()},
			{"emitted positions", f("%d", run.Emitted)},
			{"received positions", f("%d", len(run.Positions))},
			{"  via terrestrial", f("%d (%.0f%%)", terr, pct(terr, len(run.Positions)))},
			{"  via satellite", f("%d (%.0f%%)", sat, pct(sat, len(run.Positions)))},
			{"  via both", f("%d", both)},
			{"received/day (extrapolated)", f("%.2fM", perDay/1e6)},
			{"emitted/day (extrapolated)", f("%.2fM", emittedPerDay/1e6)},
			{"covered 5°-cells", f("%d (%.0f%% of ocean grid)", density.NonEmptyBins(), density.CoverageFraction()*100)},
		},
		Notes: []string{
			f("paper claim: ~18M positions/day worldwide [16]; shape check: a %d-vessel world fleet extrapolates to that order at real AIS cadences", vessels),
			"scale the fleet with -vessels to match absolute volume; coverage map below",
		},
	}
	t.Notes = append(t.Notes, "\n"+density.Render())
	return t
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// E2 reproduces the §2.1 synopsis claim: ~95% compression over AIS traces
// without destroying accuracy. Sweep of compressor × tolerance with SED
// error and downstream event-detection fidelity.
func E2(seed int64) Table {
	cfg := sim.Config{Seed: seed, NumVessels: 60, Duration: 4 * time.Hour, TickSec: 2}
	run, err := sim.Simulate(cfg)
	if err != nil {
		panic(err)
	}
	trs := truthTrajectories(run)
	t := Table{
		ID: "E2", Title: "trajectory synopses (95% claim, §2.1)",
		Cols: []string{"algorithm", "param", "ratio", "meanSED(m)", "maxSED(m)"},
	}
	type cand struct {
		c    synopsis.Compressor
		name string
	}
	var cands []cand
	for _, tol := range []float64{30, 60, 120, 240} {
		cands = append(cands,
			cand{synopsis.DouglasPeucker{ToleranceM: tol}, f("tol=%.0fm", tol)},
			cand{synopsis.DeadReckoning{ToleranceM: tol, MaxGap: 10 * time.Minute}, f("tol=%.0fm", tol)},
		)
	}
	cands = append(cands,
		cand{synopsis.SquishE{Capacity: 50}, "cap=50"},
		cand{synopsis.Uniform{Every: 20}, "every=20"},
	)
	for _, cd := range cands {
		var kept, orig int
		var sumMean, maxSED float64
		n := 0
		for _, tr := range trs {
			if tr.Len() < 50 {
				continue
			}
			comp := cd.c.Compress(tr)
			rep := synopsis.Evaluate(tr, comp, cd.c.Name())
			kept += rep.Kept
			orig += rep.Original
			sumMean += rep.MeanSEDM
			if rep.MaxSEDM > maxSED {
				maxSED = rep.MaxSEDM
			}
			n++
		}
		ratio := 1 - float64(kept)/float64(orig)
		t.Rows = append(t.Rows, []string{
			cd.c.Name(), cd.name, f("%.1f%%", ratio*100), f("%.0f", sumMean/float64(n)), f("%.0f", maxSED),
		})
	}
	t.Notes = append(t.Notes, "paper claim [29]: state of the art reaches 95% compression on AIS traces; DP/DR at 60–120 m tolerance land in that band with bounded error")
	return t
}

// E3 reproduces the ~5% static-error claim [44]: inject at the published
// rate, detect with the rule set, report precision/recall and the
// estimated rate.
func E3(seed int64) Table {
	cfg := sim.Config{Seed: seed, NumVessels: 150, Duration: 3 * time.Hour, TickSec: 2, StaticErrorRate: 0.05}
	run, err := sim.Simulate(cfg)
	if err != nil {
		panic(err)
	}
	var tp, fp, fn, flagged int
	for i := range run.Statics {
		so := &run.Statics[i]
		bad := len(quality.CheckStatic(&so.Msg)) > 0
		if bad {
			flagged++
		}
		switch {
		case bad && so.Corrupted:
			tp++
		case bad && !so.Corrupted:
			fp++
		case !bad && so.Corrupted:
			fn++
		}
	}
	total := len(run.Statics)
	return Table{
		ID: "E3", Title: "AIS static-data veracity (~5% claim, §1 [44])",
		Cols: []string{"metric", "value"},
		Rows: [][]string{
			{"static messages", f("%d", total)},
			{"injected error rate", "5.0%"},
			{"estimated error rate", f("%.1f%%", pct(flagged, total))},
			{"detector precision", f("%.1f%%", pct(tp, tp+fp))},
			{"detector recall", f("%.1f%%", pct(tp, tp+fn))},
		},
		Notes: []string{"paper claim [44]: ≈5% of AIS static transmissions carry errors; the rule set recovers the rate and attributes the bad field"},
	}
}

// E4 reproduces the open-world argument: 27% of ships dark ≥10% of the
// time [43]; rendezvous recall under closed- vs open-world semantics.
func E4(seed int64) Table {
	cfg := sim.Config{
		Seed: seed, NumVessels: 120, Duration: 4 * time.Hour, TickSec: 2,
		DarkShipFrac: 0.27, DarkTimeFrac: 0.12,
		RendezvousFrac: 0.05, DarkRendezvousFrac: 0.08,
	}
	run, err := sim.Simulate(cfg)
	if err != nil {
		panic(err)
	}
	// Measured go-dark profile from received data.
	from := run.Config.Start
	to := from.Add(run.Config.Duration)
	reportTimes := map[uint32][]time.Time{}
	for i := range run.Positions {
		o := &run.Positions[i]
		reportTimes[o.TrueMMSI] = append(reportTimes[o.TrueMMSI], o.At)
	}
	darkShips := 0
	for _, v := range run.Vessels {
		c := quality.MeasureCompleteness(v.MMSI, reportTimes[v.MMSI], from, to, 30*time.Second, 10*time.Minute)
		if c.DarkFraction >= 0.10 {
			darkShips++
		}
	}
	// Closed-world: detector over received reports only.
	engine := events.NewEngine(&events.Context{Zones: run.Config.World.Zones}, 0.1)
	engine.RegisterPair(&events.RendezvousDetector{})
	trajs := map[uint32]*model.Trajectory{}
	var raised []events.Alert
	for i := range run.Positions {
		o := &run.Positions[i]
		s := model.FromReport(o.At, &o.Report)
		s.MMSI = o.TrueMMSI // evaluation stream: resolve spoofed ids
		raised = append(raised, engine.Process(s)...)
		tr, ok := trajs[s.MMSI]
		if !ok {
			tr = &model.Trajectory{MMSI: s.MMSI}
			trajs[s.MMSI] = tr
		}
		tr.Points = append(tr.Points, s)
	}
	var truths []events.TruthWindow
	rdvTruth := 0
	for _, e := range run.Events {
		truths = append(truths, events.TruthWindow{
			Kind: events.Kind(e.Kind), MMSI: e.MMSI, Other: e.Other, Start: e.Start, End: e.End,
		})
		if e.Kind == sim.EventRendezvous {
			rdvTruth++
		}
	}
	closed := events.Score(events.KindRendezvous, raised, truths, 10*time.Minute)
	// Open-world: add possible-rendezvous qualification over dark gaps.
	qualified := events.QualifyRendezvous(trajs, raised, 10*time.Minute, events.DefaultOpenWorldConfig())
	// A truth rendezvous counts as covered if either detected or qualified
	// as possible.
	covered := 0
	for _, e := range run.Events {
		if e.Kind != sim.EventRendezvous {
			continue
		}
		hit := false
		for _, a := range qualified {
			if a.Kind != events.KindRendezvous && a.Kind != events.KindPossibleRendezvous {
				continue
			}
			if (a.MMSI == e.MMSI && a.Other == e.Other) || (a.MMSI == e.Other && a.Other == e.MMSI) {
				if !a.Start.After(e.End) && !a.At.Before(e.Start) {
					hit = true
					break
				}
			}
		}
		if hit {
			covered++
		}
	}
	possibles := 0
	for _, a := range qualified {
		if a.Kind == events.KindPossibleRendezvous {
			possibles++
		}
	}
	return Table{
		ID: "E4", Title: "go-dark and open-world querying (§4 [43])",
		Cols: []string{"metric", "value"},
		Rows: [][]string{
			{"fleet", f("%d", len(run.Vessels))},
			{"ships dark ≥10% of time", f("%d (%.0f%%)", darkShips, pct(darkShips, len(run.Vessels)))},
			{"true rendezvous", f("%d", rdvTruth)},
			{"closed-world recall", f("%.0f%%", closed.Recall*100)},
			{"open-world coverage", f("%.0f%%", pct(covered, rdvTruth))},
			{"possible-rendezvous answers", f("%d", possibles)},
		},
		Notes: []string{
			"paper claim [43]: 27% of ships go dark ≥10% of the time, so closed-world answers under-report; open-world qualification recovers coverage at the cost of 'possible' answers",
		},
	}
}

// E5 measures the integrated pipeline (Figure 2): throughput and per-stage
// cost versus shard count.
func E5(seed int64, shards []int) Table {
	cfg := sim.Config{Seed: seed, NumVessels: 250, Duration: 90 * time.Minute, TickSec: 2}
	cfg.DefaultAnomalyRates()
	run, err := sim.Simulate(cfg)
	if err != nil {
		panic(err)
	}
	t := Table{
		ID: "E5", Title: "integrated pipeline throughput (Figure 2)",
		Cols: []string{"shards", "msgs", "wall", "msg/s", "archived", "alerts"},
	}
	for _, n := range shards {
		p := core.NewSharded(core.Config{
			Zones: run.Config.World.Zones, SynopsisToleranceM: 60,
		}, n)
		start := time.Now()
		if n == 1 {
			for i := range run.Positions {
				o := &run.Positions[i]
				p.Ingest(o.At, &o.Report)
			}
		} else {
			done := make(chan struct{}, n)
			for w := 0; w < n; w++ {
				go func(w int) {
					for i := range run.Positions {
						o := &run.Positions[i]
						if p.ShardIndex(o.Report.MMSI) == w {
							p.Shards[w].Ingest(o.At, &o.Report)
						}
					}
					done <- struct{}{}
				}(w)
			}
			for w := 0; w < n; w++ {
				<-done
			}
		}
		wall := time.Since(start)
		snap := p.Snapshot()
		t.Rows = append(t.Rows, []string{
			f("%d", n), f("%d", snap.Ingested), wall.Round(time.Millisecond).String(),
			f("%.0f", float64(snap.Ingested)/wall.Seconds()),
			f("%d", snap.Archived), f("%d", snap.Alerts),
		})
	}
	t.Notes = append(t.Notes,
		"the paper's 18M/day world feed averages ~208 msg/s; a single shard exceeds that by orders of magnitude, bursts included",
		"sharding trades cross-shard pairwise detection for linear ingest scaling (see README.md, Sharded async ingest)")
	return t
}

// E14 measures the asynchronous sharded ingest engine (internal/ingest)
// against the same replayed traffic: wall-clock throughput and speedup by
// shard count, with the alert count as the fidelity check. Dense traffic
// is the point — pairwise detection cost follows local vessel density, and
// partitioning the fleet divides the density each shard's detectors see
// (and drops the pairs that straddle shards: TestShardedPairAlertRecall).
// That split was most of the single-core speedup until the proximity grid
// made pairs cheap; what remains is the shard goroutines running in
// parallel on real cores (EXPERIMENTS.md, E14).
func E14(seed int64, shards []int) Table {
	cfg := sim.Config{Seed: seed, NumVessels: 2500, Duration: 20 * time.Minute, TickSec: 2}
	cfg.DefaultAnomalyRates()
	run, err := sim.Simulate(cfg)
	if err != nil {
		panic(err)
	}
	t := Table{
		ID: "E14", Title: "async sharded ingest engine (internal/ingest)",
		Cols: []string{"shards", "msgs", "wall", "msg/s", "speedup", "alerts"},
	}
	ctx := context.Background()
	base := 0.0
	for _, n := range shards {
		e := ingest.New(ingest.Config{
			Pipeline: core.Config{Zones: run.Config.World.Zones, SynopsisToleranceM: 60},
			Shards:   n,
		})
		e.Start(ctx)
		alerts := 0
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for range e.Alerts() {
				alerts++
			}
		}()
		start := time.Now()
		for i := range run.Positions {
			o := &run.Positions[i]
			e.Ingest(ctx, o.At, &o.Report)
		}
		e.Close()
		<-drained
		wall := time.Since(start)
		rate := float64(len(run.Positions)) / wall.Seconds()
		if base == 0 {
			base = rate
		}
		t.Rows = append(t.Rows, []string{
			f("%d", n), f("%d", len(run.Positions)), wall.Round(time.Millisecond).String(),
			f("%.0f", rate), f("%.2fx", rate/base), f("%d", alerts),
		})
	}
	t.Notes = append(t.Notes,
		"same alert multiset as sequential Pipeline.Ingest at 1 shard (pinned by internal/ingest tests); at n>1 pairwise detection is per-shard, the trade-off E5 records",
		"bounded queues backpressure the submitter instead of growing; batched IngestBatch amortises the per-shard lock")
	return t
}

// E6 reproduces the fusion experiment: AIS+radar association accuracy and
// track quality versus single-source; register conflict resolution.
func E6(seed int64) Table {
	cfg := sim.Config{
		Seed: seed, NumVessels: 50, Duration: time.Hour, TickSec: 2,
		RadarRangeM: 60000, NumRadar: 4, RadarNoiseM: 120,
	}
	run, err := sim.Simulate(cfg)
	if err != nil {
		panic(err)
	}
	// Track with AIS only, then AIS+radar; compare RMSE against truth for
	// vessels inside radar coverage.
	type scan struct {
		at    time.Time
		ms    []fusion.Measurement
		truth []uint32
	}
	build := func(withRadar bool) []scan {
		type timed struct {
			at    time.Time
			m     fusion.Measurement
			truth uint32
		}
		var feed []timed
		for i := range run.Positions {
			o := &run.Positions[i]
			feed = append(feed, timed{o.At, fusion.Measurement{
				At: o.At, Pos: o.Report.Position, SigmaM: 10,
				Identity: o.Report.MMSI, Source: "ais",
			}, o.TrueMMSI})
		}
		if withRadar {
			for _, c := range run.Radar {
				feed = append(feed, timed{c.At, fusion.Measurement{
					At: c.At, Pos: c.Pos, SigmaM: 120, Source: "radar",
				}, c.TrueMMSI})
			}
		}
		for i := 1; i < len(feed); i++ {
			for j := i; j > 0 && feed[j].at.Before(feed[j-1].at); j-- {
				feed[j], feed[j-1] = feed[j-1], feed[j]
			}
		}
		var scans []scan
		var cur scan
		for _, fd := range feed {
			if cur.at.IsZero() || fd.at.Sub(cur.at) > 10*time.Second {
				if len(cur.ms) > 0 {
					scans = append(scans, cur)
				}
				cur = scan{at: fd.at}
			}
			cur.ms = append(cur.ms, fd.m)
			cur.truth = append(cur.truth, fd.truth)
		}
		if len(cur.ms) > 0 {
			scans = append(scans, cur)
		}
		return scans
	}
	truthAt := func(mmsi uint32, at time.Time) (geo.Point, bool) {
		pts := run.Truth[mmsi]
		for _, p := range pts {
			d := p.At.Sub(at)
			if d < 0 {
				d = -d
			}
			if d <= 30*time.Second {
				return p.Pos, true
			}
		}
		return geo.Point{}, false
	}
	runTracker := func(withRadar bool) (rmse float64, assocAcc float64, tracks int) {
		tk := fusion.NewTracker(fusion.DefaultTrackerConfig())
		var se, n float64
		var correct, anon int
		for _, sc := range build(withRadar) {
			tk.Process(sc.at, sc.ms)
			for i, m := range sc.ms {
				if m.Identity != 0 {
					continue
				}
				anon++
				want := sc.truth[i]
				for _, tr := range tk.Tracks {
					if tr.Identity == want && geo.Distance(tr.Filter.Position(), m.Pos) < 600 {
						correct++
						break
					}
				}
			}
			for _, tr := range tk.ConfirmedTracks() {
				if tr.Identity == 0 {
					continue
				}
				if tp, ok := truthAt(tr.Identity, sc.at); ok {
					d := geo.Distance(tr.Filter.Position(), tp)
					se += d * d
					n++
				}
			}
		}
		if n > 0 {
			rmse = sqrt(se / n)
		}
		if anon > 0 {
			assocAcc = float64(correct) / float64(anon)
		}
		return rmse, assocAcc, len(tk.ConfirmedTracks())
	}
	rmseAIS, _, trAIS := runTracker(false)
	rmseFused, assoc, trFused := runTracker(true)

	rng := rand.New(rand.NewSource(seed))
	truth, ra, rb := registry.SyntheticPair(rng, 400, 0.02, 0.30)
	resolveAcc := func(rv *registry.Resolver) float64 {
		resolved := map[uint32]*registry.Record{}
		for _, mmsi := range ra.MMSIs() {
			resolved[mmsi] = rv.Resolve(map[string]*registry.Record{"A": ra.Get(mmsi), "B": rb.Get(mmsi)})
		}
		return registry.ResolutionAccuracy(truth, resolved)
	}
	uniform := registry.NewResolver()
	weighted := registry.NewResolver()
	weighted.Reliability["A"] = 0.95
	weighted.Reliability["B"] = 0.40

	return Table{
		ID: "E6", Title: "multi-source fusion (§2.4 [19])",
		Cols: []string{"metric", "AIS only", "AIS+radar"},
		Rows: [][]string{
			{"confirmed tracks", f("%d", trAIS), f("%d", trFused)},
			{"track RMSE vs truth (m)", f("%.0f", rmseAIS), f("%.0f", rmseFused)},
			{"radar→track association", "—", f("%.0f%%", assoc*100)},
			{"register resolution (uniform)", f("%.1f%%", resolveAcc(uniform)*100), ""},
			{"register resolution (weighted)", f("%.1f%%", resolveAcc(weighted)*100), ""},
		},
		Notes: []string{"fusion keeps track quality while absorbing anonymous radar; reliability weighting resolves register conflicts (the MarineTraffic-vs-Lloyd's scenario of §4)"},
	}
}

func sqrt(v float64) float64 {
	if v <= 0 {
		return 0
	}
	x := v
	for i := 0; i < 40; i++ {
		x = (x + v/x) / 2
	}
	return x
}

// E7 measures multi-granularity enrichment (§2.5): throughput and
// interpolation error versus weather-grid resolution.
func E7(seed int64) Table {
	world := sim.MediterraneanWorld(seed)
	t0 := time.Date(2017, 3, 21, 0, 0, 0, 0, time.UTC)
	field := weather.AnalyticField{Base: 10, Amplitude: 5, WaveLatDeg: 5, WaveLonDeg: 8, Period: 12 * time.Hour}
	probe := make([]geo.Point, 0, 1000)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 1000; i++ {
		probe = append(probe, geo.Point{
			Lat: 31 + rng.Float64()*14, Lon: -5 + rng.Float64()*40,
		})
	}
	t := Table{
		ID: "E7", Title: "multi-granularity enrichment (§2.5)",
		Cols: []string{"grid", "cells", "RMSE", "lookups/s"},
	}
	for _, cellDeg := range []float64{2.0, 1.0, 0.5, 0.25} {
		s := field.BuildSeries(weather.WindSpeedMS, world.Bounds, cellDeg, t0, time.Hour, 6)
		var se float64
		at := t0.Add(90 * time.Minute)
		start := time.Now()
		const reps = 50
		for r := 0; r < reps; r++ {
			for _, p := range probe {
				got, _ := s.Sample(p, at)
				if r == 0 {
					d := got - field.Eval(p, at)
					se += d * d
				}
			}
		}
		elapsed := time.Since(start)
		cells := s.Slices[0].Rows * s.Slices[0].Cols
		t.Rows = append(t.Rows, []string{
			f("%.2f°", cellDeg), f("%d", cells),
			f("%.3f", sqrt(se/float64(len(probe)))),
			f("%.1fM", float64(reps*len(probe))/elapsed.Seconds()/1e6),
		})
	}
	t.Notes = append(t.Notes, "the km-scale/hourly context of §2.5 joins against 10m/seconds AIS at millions of lookups/s; finer grids cut interpolation error")
	return t
}

// E8 scores the full detector battery against injected anomalies.
func E8(seed int64) Table {
	cfg := sim.Config{Seed: seed, NumVessels: 200, Duration: 4 * time.Hour, TickSec: 2}
	cfg.DefaultAnomalyRates()
	run, err := sim.Simulate(cfg)
	if err != nil {
		panic(err)
	}
	p := core.New(core.Config{Zones: run.Config.World.Zones, DarkThreshold: 25 * time.Minute})
	for i := range run.Positions {
		o := &run.Positions[i]
		p.Ingest(o.At, &o.Report)
	}
	var truths []events.TruthWindow
	for _, e := range run.Events {
		truths = append(truths, events.TruthWindow{
			Kind: events.Kind(e.Kind), MMSI: e.MMSI, Other: e.Other, Start: e.Start, End: e.End,
		})
	}
	t := Table{
		ID: "E8", Title: "event recognition scorecard (§3.1)",
		Cols: []string{"kind", "truth", "alerts", "precision", "recall", "latency"},
	}
	for _, kind := range []events.Kind{
		events.KindDark, events.KindTeleport, events.KindIdentity,
		events.KindRendezvous, events.KindLoiter, events.KindDrift,
		events.KindZoneViolation,
	} {
		r := events.Score(kind, p.Alerts(), truths, 5*time.Minute)
		if r.Truth == 0 && r.Alerts == 0 {
			continue
		}
		t.Rows = append(t.Rows, []string{
			string(kind), f("%d", r.Truth), f("%d", r.Alerts),
			f("%.0f%%", r.Precision*100), f("%.0f%%", r.Recall*100),
			r.MeanLatency.Round(time.Second).String(),
		})
	}
	t.Notes = append(t.Notes,
		"dark-detection trades precision against recall with the gap threshold (satellite revisit gaps mimic going dark — exactly the veracity problem §1 describes)")
	return t
}

// E9 sweeps forecasting horizon across the predictor family.
func E9(seed int64) Table {
	// Train and test must share the same world: patterns-of-life are a
	// property of the lanes, and a re-jittered world has different lanes.
	world := sim.MediterraneanWorld(seed)
	hist, err := sim.Simulate(sim.Config{Seed: seed, World: world, NumVessels: 120, Duration: 8 * time.Hour, TickSec: 5})
	if err != nil {
		panic(err)
	}
	rm := forecast.NewRouteModel(0.02)
	rm.TrainAll(truthTrajectories(hist))
	test, err := sim.Simulate(sim.Config{Seed: seed + 7, World: world, NumVessels: 40, Duration: 6 * time.Hour, TickSec: 5})
	if err != nil {
		panic(err)
	}
	predictors := []forecast.Predictor{
		forecast.DeadReckoning{}, forecast.Kalman{}, rm,
		forecast.Hybrid{Route: rm, Fallback: forecast.Kalman{}},
	}
	horizons := []time.Duration{10 * time.Minute, 30 * time.Minute, time.Hour, 2 * time.Hour}
	// Evaluate on transit traffic: "anticipated trajectories" (§3.1) are a
	// lane-traffic problem; orbiting fishing vessels have no route to
	// anticipate (the hybrid handles them by kinematic fallback anyway).
	var transits []*model.Trajectory
	for _, tr := range truthTrajectories(test) {
		if tr.Length() < 20000 {
			continue
		}
		disp := geo.Distance(tr.Points[0].Pos, tr.Points[tr.Len()-1].Pos)
		if disp/tr.Length() > 0.5 {
			transits = append(transits, tr)
		}
	}
	results := forecast.Evaluate(predictors, transits, horizons, 20*time.Minute)
	t := Table{
		ID: "E9", Title: "trajectory forecasting error by horizon (§3.1)",
		Cols: []string{"predictor", "10m", "30m", "1h", "2h"},
	}
	for _, p := range predictors {
		row := []string{p.Name()}
		for _, h := range horizons {
			for _, r := range results {
				if r.Predictor == p.Name() && r.Horizon == h {
					row = append(row, f("%.0fm", r.MeanM))
				}
			}
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"mean error in metres over transit traffic; on this basin's near-straight lanes kinematics dominate and the hybrid's abstention rule keeps it at Kalman quality",
		"the patterns-of-life win appears where lanes bend: the dogleg microbenchmark (forecast tests, TestRouteModelLearnsTheTurn) shows the route model ~6x better than dead reckoning across a turn at 40 min horizon")
	return t
}

// E10 compares uncertainty frameworks under increasing conflict, including
// the Zadeh configuration.
func E10(seed int64) Table {
	frame := uncertainty.Frame{"cargo", "fishing", "smuggler"}
	rng := rand.New(rand.NewSource(seed))
	t := Table{
		ID: "E10", Title: "uncertainty frameworks under conflict (§4 [13][45])",
		Cols: []string{"conflict", "bayes", "dempster", "yager", "disc.dempster", "possibility"},
	}
	const trials = 300
	for _, conflict := range []float64{0.0, 0.3, 0.6, 0.9} {
		var accB, accD, accY, accDD, accP float64
		for trial := 0; trial < trials; trial++ {
			truth := frame[rng.Intn(len(frame))]
			// Source 1 is honest; source 2 is wrong with prob = conflict.
			obs2 := truth
			if rng.Float64() < conflict {
				obs2 = frame[(frame.Index(truth)+1+rng.Intn(2))%3]
			}
			// Bayes: multiply likelihoods (0.8 on observed, 0.1 elsewhere).
			lik := func(h uncertainty.Hypothesis) []float64 {
				out := make([]float64, len(frame))
				for i, x := range frame {
					if x == h {
						out[i] = 0.8
					} else {
						out[i] = 0.1
					}
				}
				return out
			}
			d := uncertainty.UniformDist(frame)
			d, _ = d.BayesUpdate(lik(truth))
			d, _ = d.BayesUpdate(lik(obs2))
			if h, _ := d.MAP(); h == truth {
				accB++
			}
			m1 := uncertainty.NewMass(frame, map[uncertainty.Set]float64{uncertainty.SetOf(frame, truth): 0.8})
			m2 := uncertainty.NewMass(frame, map[uncertainty.Set]float64{uncertainty.SetOf(frame, obs2): 0.8})
			if c, err := m1.CombineDempster(m2); err == nil {
				if h, _ := c.Pignistic().MAP(); h == truth {
					accD++
				}
			}
			if h, _ := m1.CombineYager(m2).Pignistic().MAP(); h == truth {
				accY++
			}
			d1 := m1.Discount(0.9)
			d2 := m2.Discount(0.5) // source 2 known less reliable
			if c, err := d1.CombineDempster(d2); err == nil {
				if h, _ := c.Pignistic().MAP(); h == truth {
					accDD++
				}
			}
			p1 := uncertainty.NewPossibility(frame, map[uncertainty.Hypothesis]float64{truth: 1, frame[(frame.Index(truth)+1)%3]: 0.3, frame[(frame.Index(truth)+2)%3]: 0.3})
			p2 := uncertainty.NewPossibility(frame, map[uncertainty.Hypothesis]float64{obs2: 1, frame[(frame.Index(obs2)+1)%3]: 0.3, frame[(frame.Index(obs2)+2)%3]: 0.3})
			if comb, _, err := p1.CombineMin(p2); err == nil {
				if h, _ := comb.Best(); h == truth {
					accP++
				}
			} else if h, _ := p1.CombineMax(p2).Best(); h == truth {
				accP++
			}
		}
		t.Rows = append(t.Rows, []string{
			f("%.0f%%", conflict*100),
			f("%.0f%%", 100*accB/trials), f("%.0f%%", 100*accD/trials),
			f("%.0f%%", 100*accY/trials), f("%.0f%%", 100*accDD/trials),
			f("%.0f%%", 100*accP/trials),
		})
	}
	t.Notes = append(t.Notes,
		"reliability discounting before combination (§4's prescription) dominates naive Dempster as conflict grows; Zadeh's paradox is exercised in the uncertainty package tests")
	return t
}

// E11 compares archival query plans: scan vs grid vs R-tree.
func E11(seed int64, points int) Table {
	rng := rand.New(rand.NewSource(seed))
	items := make([]index.Item, points)
	for i := range items {
		items[i] = index.Item{Pos: geo.Point{Lat: 31 + rng.Float64()*14, Lon: -5 + rng.Float64()*40}, ID: uint64(i)}
	}
	g := index.NewGridIndex(0.5)
	startBuild := time.Now()
	for _, it := range items {
		g.Insert(it)
	}
	gridBuild := time.Since(startBuild)
	startBuild = time.Now()
	rt := index.BuildRTree(items)
	rtreeBuild := time.Since(startBuild)
	sc := &index.Scan{Items: items}

	idxs := []struct {
		name  string
		ix    index.SpatialIndex
		build time.Duration
	}{
		{"scan", sc, 0}, {"grid", g, gridBuild}, {"rtree", rt, rtreeBuild},
	}
	queries := make([]geo.Rect, 50)
	for i := range queries {
		c := geo.Point{Lat: 31 + rng.Float64()*14, Lon: -5 + rng.Float64()*40}
		queries[i] = geo.RectAround(c, 50000)
	}
	t := Table{
		ID: "E11", Title: f("spatial query plans over %d points (§2.3)", points),
		Cols: []string{"index", "build", "range q/s", "knn q/s"},
	}
	for _, e := range idxs {
		start := time.Now()
		reps := 0
		for time.Since(start) < 200*time.Millisecond {
			_ = e.ix.Search(queries[reps%len(queries)], nil)
			reps++
		}
		rangeQPS := float64(reps) / time.Since(start).Seconds()
		start = time.Now()
		reps = 0
		for time.Since(start) < 200*time.Millisecond {
			q := queries[reps%len(queries)]
			_ = e.ix.Nearest(q.Center(), 10)
			reps++
		}
		knnQPS := float64(reps) / time.Since(start).Seconds()
		t.Rows = append(t.Rows, []string{
			e.name, e.build.Round(time.Millisecond).String(),
			f("%.0f", rangeQPS), f("%.0f", knnQPS),
		})
	}
	return t
}

// E12 measures link discovery between dirty registers.
func E12(seed int64, n int) Table {
	rng := rand.New(rand.NewSource(seed))
	_, ra, rb := registry.SyntheticPair(rng, n, 0.02, 0.25)
	t := Table{
		ID: "E12", Title: f("link discovery across registers (%d vessels, §2.2)", n),
		Cols: []string{"config", "links", "precision", "recall", "links/s"},
	}
	for _, blocking := range []bool{true, false} {
		cfg := semstore.DefaultLinkConfig()
		cfg.UseBlocking = blocking
		start := time.Now()
		links := semstore.DiscoverLinks(ra, rb, cfg)
		elapsed := time.Since(start)
		q := semstore.EvaluateLinks(links, n)
		name := "blocked"
		if !blocking {
			name = "exhaustive"
		}
		t.Rows = append(t.Rows, []string{
			name, f("%d", q.Links), f("%.1f%%", q.Precision*100),
			f("%.1f%%", q.Recall*100), f("%.0f", float64(n)/elapsed.Seconds()),
		})
	}
	t.Notes = append(t.Notes, "blocking trades a little recall for an order of magnitude in throughput — the streaming-rate requirement of §2.2")
	return t
}

// E13 measures multi-scale situation aggregation.
func E13(seed int64) Table {
	cfg := sim.Config{Seed: seed, NumVessels: 200, Duration: 4 * time.Hour, TickSec: 5}
	run, err := sim.Simulate(cfg)
	if err != nil {
		panic(err)
	}
	var pts []geo.Point
	for _, tps := range run.Truth {
		for _, p := range tps {
			pts = append(pts, p.Pos)
		}
	}
	t := Table{
		ID: "E13", Title: f("multi-scale situation aggregation over %d points (§3.2)", len(pts)),
		Cols: []string{"zoom", "bins", "build", "non-empty"},
	}
	for _, level := range []int{8, 32, 128, 512} {
		start := time.Now()
		d := va.NewDensity(run.Config.World.Bounds, level, level*2)
		for _, p := range pts {
			d.Add(p)
		}
		elapsed := time.Since(start)
		t.Rows = append(t.Rows, []string{
			f("%d", level), f("%d", level*level*2),
			elapsed.Round(time.Microsecond).String(),
			f("%d (%.1f%%)", d.NonEmptyBins(), d.CoverageFraction()*100),
		})
	}
	t.Notes = append(t.Notes, "all zoom levels build in milliseconds: interactive drill-down is CPU-trivial once the archive is in memory")
	return t
}

// storeForBench exposes a populated store for the E11-adjacent bench in
// bench_test.go.
func StoreForBench(seed int64, vessels, pointsPer int) *tstore.Store {
	rng := rand.New(rand.NewSource(seed))
	st := tstore.New()
	t0 := time.Date(2017, 3, 21, 0, 0, 0, 0, time.UTC)
	for v := 0; v < vessels; v++ {
		mmsi := uint32(201000000 + v)
		lat := 32 + rng.Float64()*12
		lon := rng.Float64() * 30
		for i := 0; i < pointsPer; i++ {
			st.Append(model.VesselState{
				MMSI: mmsi, At: t0.Add(time.Duration(i*10) * time.Second),
				Pos:     geo.Point{Lat: lat + float64(i)*0.0005, Lon: lon},
				SpeedKn: 10,
			})
		}
	}
	return st
}

// E15 measures what durability costs: the async ingest engine replaying
// the same feed with persistence off, with the WAL flush stage at the
// default fsync-on-rotate policy, and with fsync after every batch. The
// recovered-record column re-opens each archive afterwards and proves the
// persisted state replays completely (counts are deterministic;
// wall-clock varies with the hardware, like E5/E14).
func E15(seed int64) Table {
	cfg := sim.Config{Seed: seed, NumVessels: 1500, Duration: 20 * time.Minute, TickSec: 2}
	cfg.DefaultAnomalyRates()
	run, err := sim.Simulate(cfg)
	if err != nil {
		panic(err)
	}
	t := Table{
		ID: "E15", Title: "ingest throughput with persistence flush (internal/store)",
		Cols: []string{"mode", "msgs", "wall", "msg/s", "vs memory", "archived", "recovered"},
	}
	ctx := context.Background()
	modes := []struct {
		name string
		sync store.SyncPolicy
		disk bool
	}{
		{"memory only (no flush)", 0, false},
		{"wal flush, fsync rotate", store.SyncRotate, true},
		{"wal flush, fsync always", store.SyncAlways, true},
	}
	base := 0.0
	for _, m := range modes {
		var arch *store.Archive
		icfg := ingest.Config{
			Pipeline: core.Config{Zones: run.Config.World.Zones, SynopsisToleranceM: 60},
			Shards:   4,
		}
		var dir string
		if m.disk {
			dir, err = os.MkdirTemp("", "e15-*")
			if err != nil {
				panic(err)
			}
			arch, err = store.Open(store.Config{Dir: dir, Sync: m.sync})
			if err != nil {
				panic(err)
			}
			icfg.Backend = arch.Backend
		}
		e := ingest.New(icfg)
		e.Start(ctx)
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for range e.Alerts() {
			}
		}()
		start := time.Now()
		for i := range run.Positions {
			o := &run.Positions[i]
			e.Ingest(ctx, o.At, &o.Report)
		}
		e.Close()
		<-drained
		e.Wait() // includes flush-stage drain + final sync
		wall := time.Since(start)
		rate := float64(len(run.Positions)) / wall.Seconds()
		if base == 0 {
			base = rate
		}
		archived := e.Snapshot().Archived
		recovered := "—"
		if m.disk {
			if err := arch.Close(); err != nil {
				panic(err)
			}
			re, err := store.Open(store.Config{Dir: dir})
			if err != nil {
				panic(err)
			}
			recovered = f("%d", re.Stats.Total())
			re.Close()
			//lint:ignore errsink scratch-dir cleanup in an experiment harness; the OS temp reaper is the backstop
			os.RemoveAll(dir)
		}
		t.Rows = append(t.Rows, []string{
			m.name, f("%d", len(run.Positions)), wall.Round(time.Millisecond).String(),
			f("%.0f", rate), f("%.0f%%", 100*rate/base), f("%d", archived), recovered,
		})
	}
	t.Notes = append(t.Notes,
		"recovered = records read back by store.Open (snapshot + WAL replay) — must equal archived",
		"the flush stage is asynchronous and batched, so durability rides behind the ingest path; fsync-always bounds loss to one batch at the cost of disk latency per batch")
	return t
}

// E16 measures the unified query surface (internal/query): per-request
// latency of space–time range and k-nearest-vessel queries against a
// 100-vessel / 2-hour archive, answered from the live sharded pipelines,
// from a durable-archive store, and from both merged (deduplicated on
// (MMSI, timestamp)). The archive holds the first 60% of the run and the
// live pipelines the last 60%, so the merged engine spans the whole run
// with a 20% overlap — the post-restart shape maritimed -data-dir -http
// serves.
func E16(seed int64) Table {
	cfg := sim.Config{Seed: seed, NumVessels: 100, Duration: 2 * time.Hour, TickSec: 2}
	run, err := sim.Simulate(cfg)
	if err != nil {
		panic(err)
	}
	// Ingest without detectors: E16 measures read latency, not events.
	pcfg := core.Config{DisableEvents: true, DisableQuality: true}
	cut1, cut2 := (4*len(run.Positions))/10, (6*len(run.Positions))/10
	arch := tstore.New()
	sharded := core.NewSharded(pcfg, 4)
	for i := range run.Positions {
		o := &run.Positions[i]
		if i < cut2 {
			arch.Append(model.FromReport(o.At, &o.Report))
		}
		if i >= cut1 {
			sharded.Ingest(o.At, &o.Report)
		}
	}
	modes := []struct {
		name string
		eng  *query.Engine
	}{
		{"live", query.NewEngine(query.NewLiveSource(sharded))},
		{"archive", query.NewEngine(query.NewStoreSource("archive", arch))},
		{"merged", query.NewEngine(query.NewLiveSource(sharded), query.NewStoreSource("archive", arch))},
	}
	bounds := run.Config.World.Bounds
	start := run.Positions[0].At
	span := run.Positions[len(run.Positions)-1].At.Sub(start)
	const queries = 200
	rng := rand.New(rand.NewSource(seed))
	boxes := make([]query.Box, queries)
	points := make([][2]float64, queries)
	ats := make([]time.Time, queries)
	for i := 0; i < queries; i++ {
		cLat := bounds.MinLat + rng.Float64()*(bounds.MaxLat-bounds.MinLat)
		cLon := bounds.MinLon + rng.Float64()*(bounds.MaxLon-bounds.MinLon)
		boxes[i] = query.Box{
			MinLat: cLat - 1, MinLon: cLon - 1.5, MaxLat: cLat + 1, MaxLon: cLon + 1.5,
		}
		points[i] = [2]float64{cLat, cLon}
		ats[i] = start.Add(time.Duration(rng.Int63n(int64(span))))
	}
	t := Table{
		ID: "E16", Title: "unified query API throughput (internal/query)",
		Cols: []string{"kind", "source", "queries", "mean hits", "p50", "p99", "qps"},
	}
	for _, kind := range []query.Kind{query.KindSpaceTime, query.KindNearest} {
		for _, m := range modes {
			lats := make([]time.Duration, 0, queries)
			hits := 0
			// Warm once: the first Nearest builds the spatial snapshot;
			// steady-state latency is what the API serves.
			warm := buildE16Request(kind, boxes[0], points[0], ats[0])
			if _, err := m.eng.Query(warm); err != nil {
				panic(err)
			}
			wallStart := time.Now()
			for i := 0; i < queries; i++ {
				req := buildE16Request(kind, boxes[i], points[i], ats[i])
				q0 := time.Now()
				res, err := m.eng.Query(req)
				if err != nil {
					panic(err)
				}
				lats = append(lats, time.Since(q0))
				hits += res.Count
			}
			wall := time.Since(wallStart)
			t.Rows = append(t.Rows, []string{
				string(kind), m.name, f("%d", queries), f("%.0f", float64(hits)/queries),
				percentile(lats, 0.50).Round(time.Microsecond).String(),
				percentile(lats, 0.99).Round(time.Microsecond).String(),
				f("%.0f", float64(queries)/wall.Seconds()),
			})
		}
	}
	t.Notes = append(t.Notes,
		"archive = first 60% of the run, live = last 60% (20% overlap); merged spans the whole run, deduplicated on (MMSI, timestamp)",
		"spacetime: random 2°×3° boxes with 20-minute windows; nearest: k=10 within 15 minutes of a random instant",
		"per-shard/per-store spatial snapshots are cached between queries and invalidated by ingest; the warm-up query builds them")
	return t
}

// buildE16Request builds the E16 query of the given kind over the i-th
// random box/point/instant.
func buildE16Request(kind query.Kind, box query.Box, pt [2]float64, at time.Time) query.Request {
	if kind == query.KindSpaceTime {
		b := box
		return query.Request{
			Kind: query.KindSpaceTime, Box: &b,
			From: at.Add(-10 * time.Minute), To: at.Add(10 * time.Minute),
		}
	}
	return query.Request{
		Kind: query.KindNearest, Lat: pt[0], Lon: pt[1],
		At: at, Tol: query.Duration(15 * time.Minute), K: 10,
	}
}

// E17 measures the continuous half of the query surface (internal/query).
// Section "fanout": a live state stream published into the subscription
// hub with 1, 16 and 128 standing world-box watches, measuring
// publish-to-delivery latency per update (p50/p99) plus slow-consumer
// drops. Section "federation": the same space–time and nearest queries
// answered by one engine holding both halves of a run in-process
// ("local") versus an engine holding one half plus a peer daemon serving
// the other half over HTTP (query.Client as a federated Source) — the
// `maritimed -peer` shape.
func E17(seed int64) Table {
	t := Table{
		ID: "E17", Title: "continuous queries: subscription fan-out + federation (internal/query)",
		Cols: []string{"section", "config", "n", "delivered", "dropped", "p50", "p99"},
	}

	// --- fan-out -----------------------------------------------------------
	run, err := sim.Simulate(sim.Config{Seed: seed, NumVessels: 50, Duration: 30 * time.Minute, TickSec: 5})
	if err != nil {
		panic(err)
	}
	pub := len(run.Positions)
	if pub > 8000 {
		pub = 8000
	}
	states := make([]model.VesselState, pub)
	for i := 0; i < pub; i++ {
		o := &run.Positions[i]
		states[i] = model.FromReport(o.At, &o.Report)
	}
	world := query.Box{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}
	for _, nSubs := range []int{1, 16, 128} {
		hub := query.NewHub(query.HubConfig{})
		sentAt := make([]time.Time, pub)
		var mu sync.Mutex
		var lats []time.Duration
		var wg sync.WaitGroup
		subs := make([]*query.Subscription, nSubs)
		for i := range subs {
			sub, err := hub.Subscribe(query.Request{Kind: query.KindLivePicture, Box: &world},
				query.SubOptions{Buffer: 2 * pub})
			if err != nil {
				panic(err)
			}
			subs[i] = sub
			wg.Add(1)
			go func(sub *query.Subscription) {
				defer wg.Done()
				local := make([]time.Duration, 0, pub)
				for u := range sub.Updates() {
					local = append(local, time.Since(sentAt[u.Seq-1]))
				}
				mu.Lock()
				lats = append(lats, local...)
				mu.Unlock()
			}(sub)
		}
		for i := range states {
			if i%64 == 63 {
				// Pace the feed in bursts: a flat-out loop would measure
				// backlog drain, not delivery latency.
				time.Sleep(time.Millisecond)
			}
			sentAt[i] = time.Now()
			hub.PublishState(states[i])
		}
		var dropped uint64
		for _, sub := range subs {
			// Give the drained queue a moment, then close the stream.
			for sub.Delivered()+sub.Dropped() < uint64(pub) {
				time.Sleep(time.Millisecond)
			}
			sub.Cancel()
			dropped += sub.Dropped()
		}
		wg.Wait()
		t.Rows = append(t.Rows, []string{
			"fanout", f("subscribers=%d", nSubs), f("%d", pub),
			f("%d", len(lats)), f("%d", dropped),
			percentile(lats, 0.50).Round(time.Microsecond).String(),
			percentile(lats, 0.99).Round(time.Microsecond).String(),
		})
	}

	// --- federation --------------------------------------------------------
	fedRun, err := sim.Simulate(sim.Config{Seed: seed, NumVessels: 60, Duration: time.Hour, TickSec: 2})
	if err != nil {
		panic(err)
	}
	half := len(fedRun.Positions) / 2
	early, late := tstore.New(), tstore.New()
	for i := range fedRun.Positions {
		o := &fedRun.Positions[i]
		if i < half {
			early.Append(model.FromReport(o.At, &o.Report))
		} else {
			late.Append(model.FromReport(o.At, &o.Report))
		}
	}
	remote := httptest.NewServer(query.NewServer(query.NewEngine(query.NewStoreSource("remote", early))))
	defer remote.Close()
	peer := query.NewClient(remote.URL)
	peer.PeerName = "peer"
	modes := []struct {
		name string
		eng  *query.Engine
	}{
		{"local (both halves in-process)", query.NewEngine(
			query.NewStoreSource("early", early), query.NewStoreSource("late", late))},
		{"federated (one half via -peer)", query.NewEngine(
			query.NewStoreSource("late", late), peer)},
	}
	bounds := fedRun.Config.World.Bounds
	start := fedRun.Positions[0].At
	span := fedRun.Positions[len(fedRun.Positions)-1].At.Sub(start)
	const queries = 100
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]query.Request, queries)
	for i := range reqs {
		cLat := bounds.MinLat + rng.Float64()*(bounds.MaxLat-bounds.MinLat)
		cLon := bounds.MinLon + rng.Float64()*(bounds.MaxLon-bounds.MinLon)
		at := start.Add(time.Duration(rng.Int63n(int64(span))))
		if i%2 == 0 {
			reqs[i] = query.Request{
				Kind: query.KindSpaceTime,
				Box:  &query.Box{MinLat: cLat - 1, MinLon: cLon - 1.5, MaxLat: cLat + 1, MaxLon: cLon + 1.5},
				From: at.Add(-10 * time.Minute), To: at.Add(10 * time.Minute),
			}
		} else {
			reqs[i] = query.Request{
				Kind: query.KindNearest, Lat: cLat, Lon: cLon,
				At: at, Tol: query.Duration(15 * time.Minute), K: 10,
			}
		}
	}
	for _, m := range modes {
		for _, kind := range []query.Kind{query.KindSpaceTime, query.KindNearest} {
			var lats []time.Duration
			hits := 0
			n := 0
			warmed := false
			for _, req := range reqs {
				if req.Kind != kind {
					continue
				}
				if !warmed { // first query builds the spatial snapshots
					if _, err := m.eng.Query(req); err != nil {
						panic(err)
					}
					warmed = true
				}
				q0 := time.Now()
				res, err := m.eng.Query(req)
				if err != nil {
					panic(err)
				}
				lats = append(lats, time.Since(q0))
				hits += res.Count
				n++
			}
			t.Rows = append(t.Rows, []string{
				"federation", f("%s %s", kind, m.name), f("%d", n),
				f("%d hits", hits), "0",
				percentile(lats, 0.50).Round(time.Microsecond).String(),
				percentile(lats, 0.99).Round(time.Microsecond).String(),
			})
		}
	}
	t.Notes = append(t.Notes,
		"fanout: world-box watches over the hub; latency = publish call to subscriber receive, feed paced in 64-update bursts, queues sized to avoid drops (the drop column proves it)",
		"publication is serialised per hub, so 128 subscribers pay the fan-out inside the publish call — per-delivery latency grows with fan-out, throughput stays bounded",
		"federation: 60 vessels / 1h split in half; the federated engine reaches the early half through query.Client over HTTP (one-hop, Local-guarded) — the latency gap vs local is the HTTP round trip",
	)
	return t
}

// E18 measures the tiered archive (internal/tier): the async engine
// ingests roughly 4× its configured resident memory budget with the
// eviction manager running, a sampler records the resident and heap
// ceilings throughout, and afterwards the evicted archive is queried
// cold (chunks paged back from the object store) and hot (block cache
// warm). The exceeding-RAM claim is the resident-ceiling row: the
// archive ends ~4× the budget while resident points never settle above
// it.
func E18(seed int64) Table {
	cfg := sim.Config{Seed: seed, NumVessels: 1000, Duration: 20 * time.Minute, TickSec: 2}
	run, err := sim.Simulate(cfg)
	if err != nil {
		panic(err)
	}
	dir, err := os.MkdirTemp("", "e18-*")
	if err != nil {
		panic(err)
	}
	//lint:ignore errsink scratch-dir cleanup in an experiment harness; the OS temp reaper is the backstop
	defer os.RemoveAll(dir)
	// Spill objects are a paging cache (reconstructable, unreachable
	// after a crash), so the no-fsync store is the right fit.
	objects, err := store.NewFSObjectsCache(dir)
	if err != nil {
		panic(err)
	}
	// Archive everything (no synopsis filter): the archive is then
	// len(Positions) points and the budget is set to a quarter of it.
	total := int64(len(run.Positions)) * int64(tstore.PointBytes)
	budget := total / 4
	e := ingest.New(ingest.Config{
		Pipeline:       core.Config{Zones: run.Config.World.Zones, SynopsisToleranceM: 0, DisableEvents: true, DisableQuality: true},
		Shards:         4,
		MemoryBudget:   budget,
		TierObjects:    objects,
		TierCheckEvery: time.Millisecond, // replay runs the 20-minute feed in ~0.2s; check accordingly
	})
	ctx := context.Background()
	e.Start(ctx)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range e.Alerts() {
		}
	}()
	// Sampler: the resident/heap ceilings while ingest runs.
	var residentCeil, heapCeil uint64
	sampleStop := make(chan struct{})
	sampleDone := make(chan struct{})
	go func() {
		defer close(sampleDone)
		var ms runtime.MemStats
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-sampleStop:
				return
			case <-tick.C:
				if rb := uint64(e.TierStats().ResidentBytes); rb > residentCeil {
					residentCeil = rb
				}
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > heapCeil {
					heapCeil = ms.HeapAlloc
				}
			}
		}
	}()
	start := time.Now()
	for i := range run.Positions {
		o := &run.Positions[i]
		e.Ingest(ctx, o.At, &o.Report)
	}
	e.Close()
	<-drained
	e.Wait()
	wall := time.Since(start)
	close(sampleStop)
	<-sampleDone
	e.Tier().Check() // cover the final batches appended after the last tick
	ts := e.TierStats()
	if err := e.FlushErr(); err != nil {
		panic(err)
	}

	mib := func(b uint64) string { return f("%.1f MiB", float64(b)/(1<<20)) }
	t := Table{
		ID: "E18", Title: "tiered archive: eviction + page-back under a memory budget (internal/tier)",
		Cols: []string{"metric", "value"},
	}
	t.Rows = append(t.Rows,
		[]string{"archive", f("%d points = %s (%.1f× the budget); ingest %v",
			len(run.Positions), mib(uint64(total)), float64(total)/float64(budget), wall.Round(time.Millisecond))},
		[]string{"memory budget", mib(uint64(budget))},
		[]string{"resident ceiling (sampled)", mib(residentCeil)},
		[]string{"resident after final check", mib(uint64(ts.ResidentBytes))},
		[]string{"heap ceiling (sampled)", mib(heapCeil)},
		[]string{"evictions", f("%d vessels (%d points, %d hot-skips)", ts.Evictions, ts.EvictedTotal, ts.HotSkips)},
		[]string{"spilled", f("%d chunk objects, %s", ts.SpillObjects, mib(ts.SpilledBytes))},
	)

	// Page-back latency: per-vessel trajectory reads over evicted
	// vessels, cold (object reads) then hot (block cache warm; chunk
	// decode still per read).
	qe := e.QueryEngine()
	world := query.Box{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}
	lp, err := qe.Query(query.Request{Kind: query.KindLivePicture, Box: &world})
	if err != nil {
		panic(err)
	}
	nVessels := 200
	if len(lp.States) < nVessels {
		nVessels = len(lp.States)
	}
	measure := func() []time.Duration {
		lats := make([]time.Duration, 0, nVessels)
		for i := 0; i < nVessels; i++ {
			req := query.Request{Kind: query.KindTrajectory, MMSI: lp.States[i].MMSI}
			q0 := time.Now()
			if _, err := qe.Query(req); err != nil {
				panic(err)
			}
			lats = append(lats, time.Since(q0))
		}
		return lats
	}
	cold := measure()
	hot := measure()
	pct := func(l []time.Duration, q float64) string {
		return percentile(l, q).Round(time.Microsecond).String()
	}
	t.Rows = append(t.Rows,
		[]string{"trajectory page-back p50/p99 (cold)", f("%s / %s", pct(cold, 0.50), pct(cold, 0.99))},
		[]string{"trajectory page-back p50/p99 (cached)", f("%s / %s", pct(hot, 0.50), pct(hot, 0.99))},
	)

	// Query latency over the evicted archive, cold vs hot: the same
	// spacetime and nearest shapes E16 measures, on fresh snapshots
	// (cold pages chunks in; hot rides the caches).
	bounds := run.Config.World.Bounds
	startAt := run.Positions[0].At
	span := run.Positions[len(run.Positions)-1].At.Sub(startAt)
	rng := rand.New(rand.NewSource(seed))
	const queries = 100
	reqs := make([]query.Request, queries)
	for i := range reqs {
		cLat := bounds.MinLat + rng.Float64()*(bounds.MaxLat-bounds.MinLat)
		cLon := bounds.MinLon + rng.Float64()*(bounds.MaxLon-bounds.MinLon)
		at := startAt.Add(time.Duration(rng.Int63n(int64(span))))
		if i%2 == 0 {
			reqs[i] = query.Request{
				Kind: query.KindSpaceTime,
				Box:  &query.Box{MinLat: cLat - 1, MinLon: cLon - 1.5, MaxLat: cLat + 1, MaxLon: cLon + 1.5},
				From: at.Add(-10 * time.Minute), To: at.Add(10 * time.Minute),
			}
		} else {
			reqs[i] = query.Request{
				Kind: query.KindNearest, Lat: cLat, Lon: cLon,
				At: at, Tol: query.Duration(15 * time.Minute), K: 10,
			}
		}
	}
	for pass, label := range []string{"cold", "hot"} {
		var stLat, nvLat []time.Duration
		for _, req := range reqs {
			q0 := time.Now()
			if _, err := qe.Query(req); err != nil {
				panic(err)
			}
			d := time.Since(q0)
			if req.Kind == query.KindSpaceTime {
				stLat = append(stLat, d)
			} else {
				nvLat = append(nvLat, d)
			}
		}
		_ = pass
		t.Rows = append(t.Rows,
			[]string{f("spacetime p50/p99 (%s)", label), f("%s / %s", pct(stLat, 0.50), pct(stLat, 0.99))},
			[]string{f("nearest p50/p99 (%s)", label), f("%s / %s", pct(nvLat, 0.50), pct(nvLat, 0.99))},
		)
	}
	t.Notes = append(t.Notes,
		"budget = archive/4: the in-memory layer holds at most a quarter of what the archive accumulates; eviction keeps resident points at the budget while ingest runs 4× past it",
		"resident ceiling is sampled every 10ms and includes the transient overshoot of replay-speed ingest (the 20-minute feed arrives in ~0.3s, so arrival-rate × spill-pass-duration of backlog accumulates between eviction passes); at real-time feed rates the ceiling sits at the budget, which is where every pass returns it (the 'after final check' row)",
		"cold = first read after eviction (chunks fetched from the object store); cached = same reads with the block cache warm (chunk decode still runs per read)",
		"page-back is singleflighted per chunk: concurrent queries of one evicted vessel share a single object read",
	)
	return t
}

// E19 measures what full observability costs: the same replayed traffic
// through two identical ingest engines — one with Config.Obs nil (every
// hot-path instrumentation site reduces to a nil check), one reporting
// through a live obs.Registry that a background goroutine scrapes the
// way Prometheus would — and the same spacetime query mix against both.
// The target that justifies maritimed wiring the registry in
// unconditionally is ≤3% ingest-throughput overhead; decode/shard-wait
// sampling (1 in 64) and per-batch (not per-message) timing are what
// keep it there. Each config runs reps times and reports its best rate,
// squeezing scheduler noise out of a ratio of two wall-clocks.
func E19(seed int64) Table {
	cfg := sim.Config{Seed: seed, NumVessels: 1500, Duration: 20 * time.Minute, TickSec: 2}
	cfg.DefaultAnomalyRates()
	run, err := sim.Simulate(cfg)
	if err != nil {
		panic(err)
	}
	bounds := run.Config.World.Bounds
	start := run.Positions[0].At
	span := run.Positions[len(run.Positions)-1].At.Sub(start)
	const queries = 200
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]query.Request, queries)
	for i := range reqs {
		cLat := bounds.MinLat + rng.Float64()*(bounds.MaxLat-bounds.MinLat)
		cLon := bounds.MinLon + rng.Float64()*(bounds.MaxLon-bounds.MinLon)
		at := start.Add(time.Duration(rng.Int63n(int64(span))))
		reqs[i] = query.Request{
			Kind: query.KindSpaceTime,
			Box:  &query.Box{MinLat: cLat - 1, MinLon: cLon - 1.5, MaxLat: cLat + 1, MaxLon: cLon + 1.5},
			From: at.Add(-10 * time.Minute), To: at.Add(10 * time.Minute),
		}
	}

	ctx := context.Background()
	const reps = 3
	measure := func(instrument bool) (rate float64, p50 time.Duration) {
		for rep := 0; rep < reps; rep++ {
			var reg *obs.Registry
			if instrument {
				reg = obs.NewRegistry()
			}
			e := ingest.New(ingest.Config{
				Pipeline: core.Config{Zones: run.Config.World.Zones, SynopsisToleranceM: 60},
				Obs:      reg,
			})
			e.Start(ctx)
			drained := make(chan struct{})
			go func() {
				defer close(drained)
				for range e.Alerts() {
				}
			}()
			scrapeDone := make(chan struct{})
			if reg != nil {
				// A live scraper, so the measured overhead includes what a
				// real /metrics consumer costs the hot paths.
				go func() {
					tick := time.NewTicker(50 * time.Millisecond)
					defer tick.Stop()
					for {
						select {
						case <-scrapeDone:
							return
						case <-tick.C:
							var sb strings.Builder
							if err := reg.WritePrometheus(&sb); err != nil {
								panic(err)
							}
						}
					}
				}()
			}
			t0 := time.Now()
			for i := range run.Positions {
				o := &run.Positions[i]
				e.Ingest(ctx, o.At, &o.Report)
			}
			e.Close()
			<-drained
			wall := time.Since(t0)
			if r := float64(len(run.Positions)) / wall.Seconds(); r > rate {
				rate = r
			}
			qe := e.QueryEngine()
			if _, err := qe.Query(reqs[0]); err != nil { // warm the spatial snapshot
				panic(err)
			}
			lats := make([]time.Duration, 0, queries)
			for _, req := range reqs {
				q0 := time.Now()
				if _, err := qe.Query(req); err != nil {
					panic(err)
				}
				lats = append(lats, time.Since(q0))
			}
			if p := percentile(lats, 0.50); p50 == 0 || p < p50 {
				p50 = p
			}
			if reg != nil {
				close(scrapeDone)
			}
			e.Wait()
		}
		return rate, p50
	}

	offRate, offP50 := measure(false)
	onRate, onP50 := measure(true)
	t := Table{
		ID: "E19", Title: "observability overhead (obs registry on vs off)",
		Cols: []string{"config", "msgs", "msg/s", "ingest overhead", "spacetime p50", "query overhead"},
	}
	t.Rows = append(t.Rows,
		[]string{"obs off", f("%d", len(run.Positions)), f("%.0f", offRate), "—",
			offP50.Round(time.Microsecond).String(), "—"},
		[]string{"obs on + scrape", f("%d", len(run.Positions)), f("%.0f", onRate),
			f("%+.1f%%", 100*(offRate-onRate)/offRate),
			onP50.Round(time.Microsecond).String(),
			f("%+.1f%%", 100*(float64(onP50)-float64(offP50))/float64(offP50))},
	)
	t.Notes = append(t.Notes,
		f("best of %d runs per config; 'obs on' includes a 50ms-interval Prometheus-text scrape running concurrently with ingest", reps),
		"instrumented sites: message counters, sampled (1/64) decode + shard-wait latency, per-batch pipeline timing, flush/WAL/tier/hub/query series — all single atomic ops on the hot path",
		"target: ≤3% ingest-throughput overhead (positive = instrumented slower)")
	return t
}

// E20 characterises the track-intelligence stage along the two axes the
// design cares about: what the online tracker costs the ingest hot path
// (the stage is a tee sink — Config.Track set vs nil, same feed), and
// what its forecasts are worth (predict error against simulator ground
// truth by horizon, the stage's hybrid route-prior/dead-reckoning
// predictor vs the pure dead-reckoning baseline it falls back to).
func E20(seed int64) Table {
	ctx := context.Background()

	// --- (a) ingest overhead: stage on vs off -------------------------------
	cfg := sim.Config{Seed: seed, NumVessels: 1500, Duration: 20 * time.Minute, TickSec: 2}
	cfg.DefaultAnomalyRates()
	run, err := sim.Simulate(cfg)
	if err != nil {
		panic(err)
	}
	const reps = 5
	var offRate, onRate float64
	var tracked int
	oneRun := func(withTrack bool) float64 {
		icfg := ingest.Config{
			Pipeline: core.Config{Zones: run.Config.World.Zones, SynopsisToleranceM: 60},
		}
		if withTrack {
			icfg.Track = &track.Config{}
		}
		// Level the heap between runs so one config doesn't inherit the
		// other's (or an earlier experiment's) GC debt.
		runtime.GC()
		e := ingest.New(icfg)
		e.Start(ctx)
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for range e.Alerts() {
			}
		}()
		t0 := time.Now()
		for i := range run.Positions {
			o := &run.Positions[i]
			e.Ingest(ctx, o.At, &o.Report)
		}
		e.Close()
		<-drained
		wall := time.Since(t0)
		if ts := e.Tracks(); ts != nil {
			tracked = ts.VesselCount()
		}
		e.Wait()
		return float64(len(run.Positions)) / wall.Seconds()
	}
	// Interleave the configs rep by rep (best-of-reps each) so slow
	// machine-level drift hits both sides symmetrically instead of
	// biasing whichever config runs second.
	for rep := 0; rep < reps; rep++ {
		if r := oneRun(false); r > offRate {
			offRate = r
		}
		if r := oneRun(true); r > onRate {
			onRate = r
		}
	}

	// --- (b) predict error vs horizon ---------------------------------------
	// A clean fleet (no spoofing, so reported identity == truth identity),
	// long enough that a 30-minute horizon still has ground truth.
	pcfg := sim.Config{Seed: seed + 1, NumVessels: 150, Duration: 2 * time.Hour, TickSec: 2}
	prun, err := sim.Simulate(pcfg)
	if err != nil {
		panic(err)
	}
	cut := prun.Config.Start.Add(80 * time.Minute)
	stage := track.NewStage(track.Config{})
	histories := map[uint32][]model.VesselState{}
	for i := range prun.Positions {
		o := &prun.Positions[i]
		if o.At.After(cut) {
			break
		}
		st := model.FromReport(o.At, &o.Report)
		if err := stage.Append(st); err != nil {
			panic(err)
		}
		histories[st.MMSI] = append(histories[st.MMSI], st)
	}
	truthAt := func(pts []sim.TruthPoint, at time.Time) (geo.Point, bool) {
		for i := 1; i < len(pts); i++ {
			if pts[i].At.Before(at) {
				continue
			}
			a, b := pts[i-1], pts[i]
			span := b.At.Sub(a.At).Seconds()
			if span <= 0 {
				return b.Pos, true
			}
			frac := at.Sub(a.At).Seconds() / span
			return geo.Point{
				Lat: a.Pos.Lat + (b.Pos.Lat-a.Pos.Lat)*frac,
				Lon: a.Pos.Lon + (b.Pos.Lon-a.Pos.Lon)*frac,
			}, true
		}
		return geo.Point{}, false
	}

	t := Table{
		ID: "E20", Title: "track-intelligence stage: ingest overhead and predict error",
		Cols: []string{"measurement", "n", "result", "baseline", "delta"},
	}
	t.Rows = append(t.Rows,
		[]string{"ingest msg/s, track stage off", f("%d msgs", len(run.Positions)),
			f("%.0f msg/s", offRate), "—", "—"},
		[]string{"ingest msg/s, track stage on", f("%d vessels tracked", tracked),
			f("%.0f msg/s", onRate), f("%.0f msg/s", offRate),
			f("%+.1f%% overhead", 100*(offRate-onRate)/offRate)},
	)
	for _, horizon := range []time.Duration{time.Minute, 5 * time.Minute, 15 * time.Minute, 30 * time.Minute} {
		var stageSum, drSum float64
		var n, routeHits int
		for mmsi, pts := range histories {
			last := pts[len(pts)-1]
			if len(pts) < 10 || cut.Sub(last.At) > 10*time.Minute {
				continue
			}
			truth, ok := truthAt(prun.Truth[mmsi], last.At.Add(horizon))
			if !ok {
				continue
			}
			p, ok := stage.Predict(mmsi, horizon)
			if !ok {
				continue
			}
			drPos, ok := (forecast.DeadReckoning{}).Predict(
				&model.Trajectory{MMSI: mmsi, Points: pts}, horizon)
			if !ok {
				continue
			}
			if p.Method != (forecast.DeadReckoning{}).Name() {
				routeHits++
			}
			stageSum += geo.Distance(geo.Point{Lat: p.Lat, Lon: p.Lon}, truth)
			drSum += geo.Distance(drPos, truth)
			n++
		}
		if n == 0 {
			continue
		}
		stageMean, drMean := stageSum/float64(n), drSum/float64(n)
		t.Rows = append(t.Rows, []string{
			f("predict error @ %s", horizon), f("%d vessels (%d route-model)", n, routeHits),
			f("%.0f m hybrid", stageMean), f("%.0f m dead-reckoning", drMean),
			f("%+.1f%%", 100*(stageMean-drMean)/drMean),
		})
	}
	t.Notes = append(t.Notes,
		f("overhead is best-of-%d full-feed ingest runs per config, configs interleaved rep by rep, stage on vs off in the post-synopsis tee (positive = stage slower); target ≤5%%", reps),
		"predict rows: fleet simulated 2h, history cut at 80min, stage forecasts compared to interpolated ground truth at cut+horizon",
		"hybrid = the stage's shard-shared route prior with dead-reckoning fallback; negative delta = hybrid beats pure dead reckoning")
	return t
}

// E21 characterises the streaming anomaly lane along the two axes the
// design cares about: what the always-on stage costs the ingest hot
// path (Config.Anomaly set vs nil, same feed), and what its continuous
// detectors are worth against injected ground truth — reporting-gap
// recognition against scheduled dark windows, the possible-rendezvous
// CEP against dark meetings, and behavior-profile score separation for
// vessels steered far off their own history.
func E21(seed int64) Table {
	ctx := context.Background()

	// --- (a) ingest overhead: anomaly stage on vs off -----------------------
	cfg := sim.Config{Seed: seed, NumVessels: 1500, Duration: 20 * time.Minute, TickSec: 2}
	cfg.DefaultAnomalyRates()
	run, err := sim.Simulate(cfg)
	if err != nil {
		panic(err)
	}
	const reps = 5
	var offRate, onRate float64
	var profiled int
	oneRun := func(withAnomaly bool) float64 {
		icfg := ingest.Config{
			Pipeline: core.Config{Zones: run.Config.World.Zones, SynopsisToleranceM: 60},
		}
		if withAnomaly {
			icfg.Anomaly = &anomaly.Config{}
		}
		// Level the heap between runs so one config doesn't inherit the
		// other's (or an earlier experiment's) GC debt.
		runtime.GC()
		e := ingest.New(icfg)
		e.Start(ctx)
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for range e.Alerts() {
			}
		}()
		t0 := time.Now()
		for i := range run.Positions {
			o := &run.Positions[i]
			e.Ingest(ctx, o.At, &o.Report)
		}
		e.Close()
		<-drained
		wall := time.Since(t0)
		if as := e.Anomalies(); as != nil {
			profiled = as.VesselCount()
		}
		e.Wait()
		return float64(len(run.Positions)) / wall.Seconds()
	}
	// Interleave the configs rep by rep (best-of-reps each) so slow
	// machine-level drift hits both sides symmetrically instead of
	// biasing whichever config runs second.
	for rep := 0; rep < reps; rep++ {
		if r := oneRun(false); r > offRate {
			offRate = r
		}
		if r := oneRun(true); r > onRate {
			onRate = r
		}
	}

	// --- (b) detection quality vs injected truth ----------------------------
	// Identity spoofing silences the true MMSI without a dark label, which
	// would miscount honest gap detections as false positives — off here.
	// Dark rendezvous are scheduled explicitly (DefaultAnomalyRates leaves
	// them to the operator) so the CEP matcher has labelled meetings.
	dcfg := sim.Config{Seed: seed + 1, NumVessels: 300, Duration: 3 * time.Hour, TickSec: 5}
	dcfg.DefaultAnomalyRates()
	dcfg.SpoofShipFrac = 0
	dcfg.DarkRendezvousFrac = 0.08
	drun, err := sim.Simulate(dcfg)
	if err != nil {
		panic(err)
	}
	stages := anomaly.NewStages(4, anomaly.Config{RecentGaps: 1 << 14})
	for i := range drun.Positions {
		o := &drun.Positions[i]
		st := model.FromReport(o.At, &o.Report)
		if err := stages.ShardFor(st.MMSI).Append(st); err != nil {
			panic(err)
		}
	}
	firstAt, lastAt := map[uint32]time.Time{}, map[uint32]time.Time{}
	for i := range drun.Positions {
		o := &drun.Positions[i]
		if _, ok := firstAt[o.Report.MMSI]; !ok {
			firstAt[o.Report.MMSI] = o.At
		}
		lastAt[o.Report.MMSI] = o.At
	}
	overlaps := func(aFrom, aTo, bFrom, bTo time.Time) bool {
		return aFrom.Before(bTo) && bFrom.Before(aTo)
	}

	// Gap recognition vs scheduled dark windows. The truth denominator
	// counts only windows the stream can reveal: long enough to cross the
	// gap threshold, started after the vessel's first received report and
	// ended before its last (the silence has a closing edge).
	darks := map[uint32][]sim.TruthEvent{}
	for _, ev := range drun.Events {
		if ev.Kind == sim.EventDark {
			darks[ev.MMSI] = append(darks[ev.MMSI], ev)
		}
	}
	gaps := stages.RecentGaps()
	gapTP := 0
	for _, g := range gaps {
		for _, ev := range darks[g.MMSI] {
			if overlaps(g.Before.At, g.After.At, ev.Start, ev.End) {
				gapTP++
				break
			}
		}
	}
	revealable := func(ev sim.TruthEvent) bool {
		return ev.End.Sub(ev.Start) >= query.AnomalyGapThreshold &&
			ev.Start.After(firstAt[ev.MMSI]) && ev.End.Before(lastAt[ev.MMSI])
	}
	var darkWindows, darkHit int
	for _, evs := range darks {
		for _, ev := range evs {
			if !revealable(ev) {
				continue
			}
			darkWindows++
			for _, g := range gaps {
				if g.MMSI == ev.MMSI && overlaps(g.Before.At, g.After.At, ev.Start, ev.End) {
					darkHit++
					break
				}
			}
		}
	}

	// Possible-rendezvous CEP vs dark meetings: the truth set is the
	// rendezvous whose both participants hold a dark window over the
	// meeting (revealable as above); an alert matches on the unordered
	// pair plus window overlap.
	type pair struct{ a, b uint32 }
	norm := func(a, b uint32) pair {
		if a > b {
			a, b = b, a
		}
		return pair{a, b}
	}
	coverDark := func(mmsi uint32, ev sim.TruthEvent) bool {
		for _, d := range darks[mmsi] {
			if overlaps(d.Start, d.End, ev.Start, ev.End) && revealable(d) {
				return true
			}
		}
		return false
	}
	meetings := map[pair]sim.TruthEvent{}
	for _, ev := range drun.Events {
		if ev.Kind == sim.EventRendezvous && coverDark(ev.MMSI, ev) && coverDark(ev.Other, ev) {
			meetings[norm(ev.MMSI, ev.Other)] = ev
		}
	}
	alerts := stages.Alerts()
	alertTP, meetingsHit := 0, map[pair]bool{}
	for _, a := range alerts {
		ev, ok := meetings[norm(a.MMSI, a.Other)]
		if ok && overlaps(a.Start, a.At, ev.Start, ev.End) {
			alertTP++
			meetingsHit[norm(a.MMSI, a.Other)] = true
		}
	}

	// Behavior-profile separation: vessels steered off course while
	// transmitting honestly vs vessels with no injected behaviour at all.
	devSet, anomalous := map[uint32]bool{}, map[uint32]bool{}
	for _, ev := range drun.Events {
		if ev.Kind == sim.EventCourseDeviation {
			devSet[ev.MMSI] = true
		}
		anomalous[ev.MMSI] = true
		if ev.Other != 0 {
			anomalous[ev.Other] = true
		}
	}
	ranked, _ := stages.RankedAnomalies(0)
	var devSum, cleanSum float64
	var devN, cleanN int
	for _, v := range ranked {
		switch {
		case devSet[v.MMSI]:
			devSum += v.Score
			devN++
		case !anomalous[v.MMSI]:
			cleanSum += v.Score
			cleanN++
		}
	}

	t := Table{
		ID: "E21", Title: "streaming anomaly lane: ingest overhead and detection quality",
		Cols: []string{"measurement", "n", "result", "baseline", "delta"},
	}
	t.Rows = append(t.Rows,
		[]string{"ingest msg/s, anomaly stage off", f("%d msgs", len(run.Positions)),
			f("%.0f msg/s", offRate), "—", "—"},
		[]string{"ingest msg/s, anomaly stage on", f("%d vessels profiled", profiled),
			f("%.0f msg/s", onRate), f("%.0f msg/s", offRate),
			f("%+.1f%% overhead", 100*(offRate-onRate)/offRate)},
		[]string{"gap recognition vs dark windows", f("%d gaps / %d windows", len(gaps), darkWindows),
			f("%.2f recall", ratio(darkHit, darkWindows)),
			f("%.2f dark base rate", ratio(gapTP, len(gaps))), "—"},
		[]string{"possible-rendezvous CEP vs dark meetings", f("%d alerts / %d meetings", len(alerts), len(meetings)),
			f("%.2f precision", ratio(alertTP, len(alerts))),
			f("%.2f recall", ratio(len(meetingsHit), len(meetings))),
			f("%.0f× over base rate", ratio(alertTP, len(alerts))/ratio(gapTP, len(gaps)))},
	)
	if devN > 0 && cleanN > 0 && cleanSum > 0 {
		devMean, cleanMean := devSum/float64(devN), cleanSum/float64(cleanN)
		t.Rows = append(t.Rows, []string{
			"profile shift score, course-deviation vs clean", f("%d dev / %d clean vessels", devN, cleanN),
			f("%.3f mean score", devMean), f("%.3f mean score", cleanMean),
			f("%.1f× separation", devMean/cleanMean)})
	}
	t.Notes = append(t.Notes,
		f("overhead is best-of-%d full-feed ingest runs per config, configs interleaved rep by rep, stage on vs off in the post-synopsis tee (positive = stage slower); target ≤5%%", reps),
		"gap recall counts revealable dark windows (≥ gap threshold, closed by a later report) the stage recognised; most detected gaps are honest satellite-coverage silences, so the labelled share is a base rate, not detector precision — a silence alone is weak evidence, which is why the CEP correlates pairs",
		"rendezvous truth = scheduled meetings whose both participants hold a revealable dark window over the meeting; alerts match on the unordered pair plus window overlap",
		"profile row: mean distribution-shift score of honestly-transmitting course-deviation vessels vs vessels with no injected behaviour (higher separation = better ranking)")
	return t
}

// ratio is a safe divide for precision/recall rows (0/0 reads as 0).
func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// E22 prices the incident-observability surface the way E19 priced the
// metrics registry: full-feed ingest with the flight recorder attached
// to every layer and the health surface evaluated by a live consumer,
// against the identical engine with both absent. The always-on bet is
// that a Record is one atomic add plus a short slot lock, so the
// recorder can stay armed in production and the ring already holds the
// incident when one happens; this experiment is the bet's receipt.
func E22(seed int64) Table {
	cfg := sim.Config{Seed: seed, NumVessels: 1500, Duration: 20 * time.Minute, TickSec: 2}
	cfg.DefaultAnomalyRates()
	run, err := sim.Simulate(cfg)
	if err != nil {
		panic(err)
	}
	ctx := context.Background()
	const reps = 15
	var recorded uint64
	oneRun := func(withFlight bool) float64 {
		// A wired stack on both sides — persistence flush plus a tiered
		// store whose 1/16th budget keeps evictions firing — so the
		// flight-on run has real transitions to record instead of pricing
		// an idle ring against an idle engine. Everything stays in memory
		// (Mem backend, map-backed spill objects): the experiment prices
		// the recorder, not the disk, and disk jitter would swamp a
		// sub-percent signal.
		icfg := ingest.Config{
			// Event/quality detection stays off (E18's idiom): neither is
			// flight-instrumented, and their bursty CPU would only add
			// variance to a sub-percent comparison.
			Pipeline:       core.Config{Zones: run.Config.World.Zones, SynopsisToleranceM: 60, DisableEvents: true, DisableQuality: true},
			Shards:         2,
			Backend:        store.NewMem(),
			Flush:          store.FlushConfig{Queue: 1024, Batch: 256},
			MemoryBudget:   int64(len(run.Positions)) * int64(tstore.PointBytes) / 16,
			TierObjects:    newMemObjects(),
			TierCheckEvery: 10 * time.Millisecond,
		}
		var flight *obs.Flight
		if withFlight {
			flight = obs.NewFlight(4096)
			icfg.Flight = flight
		}
		runtime.GC()
		e := ingest.New(icfg)
		e.Start(ctx)
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for range e.Alerts() {
			}
		}()
		scrapeDone := make(chan struct{})
		var scraped sync.WaitGroup
		if withFlight {
			// A live consumer, like E19's scraper: /readyz evaluated and
			// /debug/flight rendered twice a second while ingest runs, so
			// the measured overhead includes what the surfaces cost to
			// serve, not just to feed. (Twice a second is already several
			// times hotter than a real readiness prober; a 50ms cadence
			// would price the consumer, not the recorder.)
			h := e.Health(ingest.HealthOptions{})
			scraped.Add(1)
			go func() {
				defer scraped.Done()
				tick := time.NewTicker(500 * time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-scrapeDone:
						return
					case <-tick.C:
						h.Evaluate()
						var sb strings.Builder
						if err := flight.WriteJSON(&sb, obs.FlightFilter{}); err != nil {
							panic(err)
						}
					}
				}
			}()
		}
		// Replay the feed several times per run (the bench-smoke idiom:
		// repeats dedupe in the archive but still pay the full decode/
		// shard/live path), so one measurement spans seconds instead of
		// sub-second slices that machine jitter dominates.
		const passes = 12
		t0 := time.Now()
		for pass := 0; pass < passes; pass++ {
			for i := range run.Positions {
				o := &run.Positions[i]
				e.Ingest(ctx, o.At, &o.Report)
			}
		}
		e.Close()
		<-drained
		wall := time.Since(t0)
		close(scrapeDone)
		scraped.Wait()
		if withFlight {
			recorded = flight.Len()
		}
		e.Wait()
		return float64(passes*len(run.Positions)) / wall.Seconds()
	}
	// Paired design: each rep runs both configs back to back (order
	// alternating rep by rep, so page-cache warm-up favours neither side)
	// and contributes one on/off throughput ratio. The reported overhead
	// is the median paired ratio — machine-level drift between reps
	// cancels inside each pair instead of contaminating a best-of.
	offRates := make([]float64, 0, reps)
	onRates := make([]float64, 0, reps)
	for rep := 0; rep < reps; rep++ {
		if rep%2 == 0 {
			offRates = append(offRates, oneRun(false))
			onRates = append(onRates, oneRun(true))
		} else {
			onRates = append(onRates, oneRun(true))
			offRates = append(offRates, oneRun(false))
		}
	}
	ratios := make([]float64, reps)
	for i := range ratios {
		ratios[i] = onRates[i] / offRates[i]
	}
	sortFloats(ratios)
	sortFloats(offRates)
	sortFloats(onRates)
	// Trimmed mean of the paired ratios: drop the top and bottom fifth
	// (scheduler outliers on a busy host), average the core.
	trim := reps / 5
	var ratioSum float64
	for _, r := range ratios[trim : reps-trim] {
		ratioSum += r
	}
	medOff, medOn := offRates[reps/2], onRates[reps/2]
	medRatio := ratioSum / float64(reps-2*trim)
	t := Table{
		ID: "E22", Title: "incident observability overhead (flight recorder + health surface on vs off)",
		Cols: []string{"config", "msgs", "median msg/s", "ingest overhead", "flight events"},
	}
	t.Rows = append(t.Rows,
		[]string{"flight+health off", f("%d", len(run.Positions)), f("%.0f", medOff), "—", "—"},
		[]string{"flight+health on + consumer", f("%d", len(run.Positions)), f("%.0f", medOn),
			f("%+.1f%%", 100*(1-medRatio)), f("%d", recorded)},
	)
	t.Notes = append(t.Notes,
		f("%d paired runs, order alternating within each pair; overhead is the trimmed mean of per-pair on/off throughput ratios, so drift between pairs cancels; 'on' wires a 4096-slot flight ring into every layer (flush, tier, hub, ingest stages) plus a 500ms-interval consumer evaluating the readiness checks and rendering the full ring as JSON", reps),
		"flight events counts transitions recorded over one full feed — load-bearing edges only (seals, stalls, evictions, drops), not per-message traffic, which is why the ring stays cheap",
		"target: ≤1% ingest-throughput overhead (positive = instrumented slower)")
	return t
}

// sortFloats orders a sample in place (E22's median-of-pairs reporting).
func sortFloats(xs []float64) { sort.Float64s(xs) }

// memObjects is a map-backed ObjectStore for E22's harness: the tier
// spills and pages against memory, so the measured overhead prices the
// flight recorder rather than temp-filesystem jitter.
type memObjects struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMemObjects() *memObjects { return &memObjects{m: map[string][]byte{}} }

func (s *memObjects) Put(key string, data []byte) error {
	s.mu.Lock()
	s.m[key] = append([]byte(nil), data...)
	s.mu.Unlock()
	return nil
}

func (s *memObjects) Get(key string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[key]
	if !ok {
		return nil, os.ErrNotExist
	}
	return append([]byte(nil), b...), nil
}

func (s *memObjects) List(prefix string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var keys []string
	for k := range s.m {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

func (s *memObjects) Delete(key string) error {
	s.mu.Lock()
	delete(s.m, key)
	s.mu.Unlock()
	return nil
}
