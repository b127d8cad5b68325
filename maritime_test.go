package maritime

import (
	"strings"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/core"
	"repro/internal/sim"
)

// TestFacadeEndToEndNMEA exercises the whole public surface through the
// wire format: simulate traffic, encode it as NMEA sentences, decode it
// back with the public decoder, run the pipeline, and assemble a
// situation — the full Figure 2 path a downstream user would build.
func TestFacadeEndToEndNMEA(t *testing.T) {
	cfg := SimConfig{Seed: 3, NumVessels: 30, Duration: 30 * time.Minute, TickSec: 2}
	run, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Positions) == 0 {
		t.Fatal("no traffic")
	}

	// Wire round trip: every observation encodes to sentences and decodes
	// back to the same vessel.
	var lines []string
	times := make([]time.Time, 0, len(run.Positions))
	for i := range run.Positions {
		obs := &run.Positions[i]
		ss, err := ais.EncodeSentences(&obs.Report, i, "A")
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, ss...)
		times = append(times, obs.At)
	}

	dec := ais.NewDecoder()
	p := NewPipeline(PipelineConfig{
		Zones:              run.Config.World.Zones,
		SynopsisToleranceM: 50,
	})
	decoded := 0
	for i, line := range lines {
		msg, err := dec.Decode(line)
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		rep, ok := msg.(*ais.PositionReport)
		if !ok {
			t.Fatalf("line %d decoded to %T", i, msg)
		}
		p.Ingest(times[i], rep)
		decoded++
	}
	if decoded != len(run.Positions) {
		t.Fatalf("decoded %d of %d", decoded, len(run.Positions))
	}

	snap := p.Metrics.Snapshot()
	if snap.Ingested != int64(decoded) {
		t.Errorf("pipeline ingested %d of %d", snap.Ingested, decoded)
	}
	if snap.Archived == 0 || p.CompressionRatio() <= 0 {
		t.Errorf("synopsis filter inactive: archived=%d ratio=%.2f",
			snap.Archived, p.CompressionRatio())
	}
	if p.Live.Count() == 0 || p.Store.VesselCount() == 0 {
		t.Error("storage layers empty after ingest")
	}

	end := run.Config.Start.Add(run.Config.Duration)
	s := p.Situation(end, run.Config.World.Bounds, 8, 16)
	if len(s.Vessels) == 0 {
		t.Error("situation sees no vessels")
	}
	if !strings.Contains(s.Summary(), "SITUATION") {
		t.Error("summary malformed")
	}
}

// TestFacadeWorlds sanity-checks the world builders.
func TestFacadeWorlds(t *testing.T) {
	med := MediterraneanWorld(1)
	glob := sim.GlobalWorld(1)
	if med.Zones.Len() == 0 || glob.Zones.Len() == 0 {
		t.Error("worlds must carry zones")
	}
	if len(med.Routes) == 0 || len(glob.Routes) == 0 {
		t.Error("worlds must carry routes")
	}
}

// TestFacadeSharded verifies the sharded pipeline over a facade config.
func TestFacadeSharded(t *testing.T) {
	run, err := Simulate(SimConfig{Seed: 5, NumVessels: 20, Duration: 20 * time.Minute, TickSec: 2})
	if err != nil {
		t.Fatal(err)
	}
	sp := core.NewSharded(PipelineConfig{Zones: run.Config.World.Zones}, 3)
	for i := range run.Positions {
		obs := &run.Positions[i]
		sp.ShardFor(obs.Report.MMSI).Ingest(obs.At, &obs.Report)
	}
	if got := sp.Snapshot().Ingested; got != int64(len(run.Positions)) {
		t.Errorf("sharded ingest %d of %d", got, len(run.Positions))
	}
	alerts := sp.Alerts()
	for i := 1; i < len(alerts); i++ {
		if alerts[i].At.Before(alerts[i-1].At) {
			t.Fatal("merged alerts not time-ordered")
		}
	}
}
