package core

import (
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/sim"
)

// TestDetectorBatteryRecallClaim holds EXPERIMENTS.md's E8 claim (§3.1):
// the pipeline's detector battery recognises the anomalies sim injects.
// Seed 42, 200 vessels × 4 h with the paper-calibrated defect profile, a
// 25-minute dark threshold, 5-minute scoring slack; measured recall:
// spoof-offset, spoof-identity, rendezvous and drift 1.00, loiter 0.86,
// dark 0.42 (satellite revisit gaps look like going dark, so the dark
// threshold trades recall for precision). The floors sit below those
// numbers; every kind must have truth to score, so a detector missing
// from the battery fails its floor.
func TestDetectorBatteryRecallClaim(t *testing.T) {
	cfg := sim.Config{Seed: 42, NumVessels: 200, Duration: 4 * time.Hour, TickSec: 2}
	cfg.DefaultAnomalyRates()
	run := runScenario(t, cfg)
	p := New(Config{Zones: run.Config.World.Zones, DarkThreshold: 25 * time.Minute})
	feed(p, run)
	var truths []events.TruthWindow
	for _, e := range run.Events {
		truths = append(truths, events.TruthWindow{
			Kind: events.Kind(e.Kind), MMSI: e.MMSI, Other: e.Other, Start: e.Start, End: e.End,
		})
	}
	alerts := p.Alerts()
	for _, c := range []struct {
		kind  events.Kind
		floor float64
	}{
		{events.KindTeleport, 0.95},
		{events.KindIdentity, 0.95},
		{events.KindRendezvous, 0.95},
		{events.KindDrift, 0.95},
		{events.KindLoiter, 0.75},
		{events.KindDark, 0.35},
	} {
		r := events.Score(c.kind, alerts, truths, 5*time.Minute)
		t.Logf("%-15s truth %3d alerts %4d precision %.2f recall %.2f", c.kind, r.Truth, r.Alerts, r.Precision, r.Recall)
		if r.Truth == 0 {
			t.Errorf("%s: fixture injected no truth — the floor cannot be checked", c.kind)
			continue
		}
		if r.Recall < c.floor {
			t.Errorf("%s recall %.2f below floor %.2f (tp=%d fn=%d)", c.kind, r.Recall, c.floor, r.TP, r.FN)
		}
	}
}
