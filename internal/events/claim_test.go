package events

import (
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/quality"
	"repro/internal/sim"
)

// TestOpenWorldCoverageClaim holds EXPERIMENTS.md's E4 claim (§4 [43]):
// about 27 % of ships go dark for at least 10 % of the time, so a
// closed-world rendezvous detector, which sees only received reports,
// under-reports, and open-world qualification (QualifyRendezvous: a dark-gap
// pair that could have met becomes a possible rendezvous) recovers the
// coverage. Seed 42, 120 vessels × 4 h, measured: 25 % of ships dark ≥ 10 %
// of the time, closed-world recall 43 %, open-world coverage 100 %.
// Tolerances: the dark share within 27 % ± 7 points, and open-world
// coverage at least closed-world recall + 25 points — so returning the
// detected alerts unqualified fails.
func TestOpenWorldCoverageClaim(t *testing.T) {
	run, err := sim.Simulate(sim.Config{
		Seed: 42, NumVessels: 120, Duration: 4 * time.Hour, TickSec: 2,
		DarkShipFrac: 0.27, DarkTimeFrac: 0.12,
		RendezvousFrac: 0.05, DarkRendezvousFrac: 0.08,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The go-dark profile, measured from what was received.
	from := run.Config.Start
	to := from.Add(run.Config.Duration)
	reportTimes := map[uint32][]time.Time{}
	for i := range run.Positions {
		o := &run.Positions[i]
		reportTimes[o.TrueMMSI] = append(reportTimes[o.TrueMMSI], o.At)
	}
	dark := 0
	for _, v := range run.Vessels {
		c := quality.MeasureCompleteness(v.MMSI, reportTimes[v.MMSI], from, to, 30*time.Second, 10*time.Minute)
		if c.DarkFraction >= 0.10 {
			dark++
		}
	}
	darkShare := float64(dark) / float64(len(run.Vessels))

	// Closed world: the rendezvous detector over received reports only,
	// identities resolved to the true vessel.
	engine := NewEngine(&Context{Zones: run.Config.World.Zones}, 0.1)
	engine.RegisterPair(&RendezvousDetector{})
	trajs := map[uint32]*model.Trajectory{}
	var raised []Alert
	for i := range run.Positions {
		o := &run.Positions[i]
		s := model.FromReport(o.At, &o.Report)
		s.MMSI = o.TrueMMSI
		raised = append(raised, engine.Process(s)...)
		tr, ok := trajs[s.MMSI]
		if !ok {
			tr = &model.Trajectory{MMSI: s.MMSI}
			trajs[s.MMSI] = tr
		}
		tr.Points = append(tr.Points, s)
	}
	var truths []TruthWindow
	for _, e := range run.Events {
		truths = append(truths, TruthWindow{Kind: Kind(e.Kind), MMSI: e.MMSI, Other: e.Other, Start: e.Start, End: e.End})
	}
	closed := Score(KindRendezvous, raised, truths, 10*time.Minute)
	if closed.Truth == 0 {
		t.Fatal("fixture scheduled no rendezvous — the claim has no truth")
	}

	// Open world: a truth meeting is covered when a detected or a possible
	// rendezvous names the pair over an overlapping window.
	qualified := QualifyRendezvous(trajs, raised, 10*time.Minute, DefaultOpenWorldConfig())
	covered := 0
	for _, e := range run.Events {
		if e.Kind != sim.EventRendezvous {
			continue
		}
		for _, a := range qualified {
			if a.Kind != KindRendezvous && a.Kind != KindPossibleRendezvous {
				continue
			}
			samePair := (a.MMSI == e.MMSI && a.Other == e.Other) || (a.MMSI == e.Other && a.Other == e.MMSI)
			if samePair && !a.Start.After(e.End) && !a.At.Before(e.Start) {
				covered++
				break
			}
		}
	}
	open := float64(covered) / float64(closed.Truth)

	t.Logf("dark ≥10%%: %d/%d (%.0f%%); rendezvous truth %d: closed recall %.0f%%, open coverage %.0f%%",
		dark, len(run.Vessels), 100*darkShare, closed.Truth, 100*closed.Recall, 100*open)
	if darkShare < 0.20 || darkShare > 0.34 {
		t.Errorf("dark-ship share %.2f outside 0.27 ± 0.07", darkShare)
	}
	if open < closed.Recall+0.25 {
		t.Errorf("open-world coverage %.2f does not clear closed-world recall %.2f by 0.25", open, closed.Recall)
	}
}
