package anomaly

import (
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/sim"
)

// TestAnomalyLaneClaim holds EXPERIMENTS.md's E21 claim: the streaming
// anomaly lane recognises injected ground truth without labels. Seed 43,
// 300 vessels × 3 h, the paper-calibrated defect profile with identity
// spoofing off (a switched identity silences the true MMSI without a dark
// label) and dark rendezvous scheduled (DarkRendezvousFrac 0.08), with
// the lane's 256-gap matcher ring, as the daemon runs it. Measured:
// gap recall 1.00 over 127 revealable dark windows, possible-rendezvous
// recall 1.00 over 12 dark meetings, course-deviation vessels' shift score
// 1.4× the clean-fleet mean. Tolerances: gap recall ≥ 0.95, meeting recall
// ≥ 0.9, separation ≥ 1.2× — so a stage whose gap threshold is raised past
// the 10 minutes a window must last to count fails.
func TestAnomalyLaneClaim(t *testing.T) {
	// revealGap is the documented reporting-gap threshold
	// (query.AnomalyGapThreshold): a dark window shorter than this is not
	// something the stream can reveal.
	const revealGap = 10 * time.Minute
	cfg := sim.Config{Seed: 43, NumVessels: 300, Duration: 3 * time.Hour, TickSec: 5}
	cfg.DefaultAnomalyRates()
	cfg.SpoofShipFrac = 0
	cfg.DarkRendezvousFrac = 0.08
	run, err := sim.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The lane at the daemon's configuration pushes its alerts through
	// OnAlert. Its gaps are the fold's AnomalyFacts.Gap: each vessel's
	// feed goes through a query.AnomalyAccumulator of its own too, and
	// the lane must have counted exactly the gaps those folds surface.
	stages := NewStages(4, Config{})
	var alerts []events.Alert
	stages.OnAlert(func(a events.Alert) { alerts = append(alerts, a) })
	folds := map[uint32]*query.AnomalyAccumulator{}
	var gaps []events.Gap
	firstAt, lastAt := map[uint32]time.Time{}, map[uint32]time.Time{}
	for i := range run.Positions {
		o := &run.Positions[i]
		st := model.FromReport(o.At, &o.Report)
		if err := stages.ShardFor(st.MMSI).Append(st); err != nil {
			t.Fatal(err)
		}
		f, ok := folds[st.MMSI]
		if !ok {
			f = query.NewAnomalyAccumulator(st.MMSI)
			folds[st.MMSI] = f
		}
		if g := f.Observe(st).Gap; g != nil {
			gaps = append(gaps, *g)
		}
		if _, ok := firstAt[st.MMSI]; !ok {
			firstAt[st.MMSI] = o.At
		}
		lastAt[st.MMSI] = o.At
	}
	overlaps := func(aFrom, aTo, bFrom, bTo time.Time) bool {
		return aFrom.Before(bTo) && bFrom.Before(aTo)
	}
	// A dark window is revealable when it lasts past the gap threshold and
	// lies strictly inside the vessel's received span (the silence has a
	// closing edge).
	revealable := func(ev sim.TruthEvent) bool {
		return ev.End.Sub(ev.Start) >= revealGap &&
			ev.Start.After(firstAt[ev.MMSI]) && ev.End.Before(lastAt[ev.MMSI])
	}
	darks := map[uint32][]sim.TruthEvent{}
	for _, ev := range run.Events {
		if ev.Kind == sim.EventDark {
			darks[ev.MMSI] = append(darks[ev.MMSI], ev)
		}
	}

	// Gap recognition against revealable dark windows.
	if got := stages.GapCount(); got != int64(len(gaps)) {
		t.Fatalf("lane counted %d gaps, its folds surfaced %d", got, len(gaps))
	}
	var windows, windowsHit int
	for _, evs := range darks {
		for _, ev := range evs {
			if !revealable(ev) {
				continue
			}
			windows++
			for _, g := range gaps {
				if g.MMSI == ev.MMSI && overlaps(g.Before.At, g.After.At, ev.Start, ev.End) {
					windowsHit++
					break
				}
			}
		}
	}

	// Possible-rendezvous CEP against dark meetings: scheduled meetings
	// whose both participants hold a revealable dark window over them. An
	// alert matches on the unordered pair plus window overlap.
	type pair struct{ a, b uint32 }
	norm := func(a, b uint32) pair {
		if a > b {
			a, b = b, a
		}
		return pair{a, b}
	}
	darkOver := func(mmsi uint32, ev sim.TruthEvent) bool {
		for _, d := range darks[mmsi] {
			if overlaps(d.Start, d.End, ev.Start, ev.End) && revealable(d) {
				return true
			}
		}
		return false
	}
	meetings := map[pair]sim.TruthEvent{}
	for _, ev := range run.Events {
		if ev.Kind == sim.EventRendezvous && darkOver(ev.MMSI, ev) && darkOver(ev.Other, ev) {
			meetings[norm(ev.MMSI, ev.Other)] = ev
		}
	}
	met := map[pair]bool{}
	for _, a := range alerts {
		k := norm(a.MMSI, a.Other)
		if ev, ok := meetings[k]; ok && overlaps(a.Start, a.At, ev.Start, ev.End) {
			met[k] = true
		}
	}

	// Profile separation: honestly transmitting course-deviation vessels
	// against vessels with no injected behaviour at all.
	deviated, touched := map[uint32]bool{}, map[uint32]bool{}
	for _, ev := range run.Events {
		if ev.Kind == sim.EventCourseDeviation {
			deviated[ev.MMSI] = true
		}
		touched[ev.MMSI] = true
		if ev.Other != 0 {
			touched[ev.Other] = true
		}
	}
	ranked, _ := stages.RankedAnomalies(0)
	var devSum, cleanSum float64
	var devN, cleanN int
	for _, v := range ranked {
		switch {
		case deviated[v.MMSI]:
			devSum += v.Score
			devN++
		case !touched[v.MMSI]:
			cleanSum += v.Score
			cleanN++
		}
	}

	if windows == 0 || len(meetings) == 0 || devN == 0 || cleanN == 0 || cleanSum == 0 {
		t.Fatalf("fixture lacks truth: %d windows, %d meetings, %d deviated, %d clean", windows, len(meetings), devN, cleanN)
	}
	gapRecall := float64(windowsHit) / float64(windows)
	meetRecall := float64(len(met)) / float64(len(meetings))
	separation := (devSum / float64(devN)) / (cleanSum / float64(cleanN))
	t.Logf("gap recall %.2f (%d/%d windows, %d gaps); meeting recall %.2f (%d/%d); shift separation %.2f× (%d dev / %d clean)",
		gapRecall, windowsHit, windows, len(gaps), meetRecall, len(met), len(meetings), separation, devN, cleanN)
	if gapRecall < 0.95 {
		t.Errorf("gap recall %.2f below 0.95", gapRecall)
	}
	if meetRecall < 0.9 {
		t.Errorf("dark-meeting recall %.2f below 0.9", meetRecall)
	}
	if separation < 1.2 {
		t.Errorf("course-deviation shift score %.2f× the clean mean, below 1.2×", separation)
	}
}
