package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/events"
	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/va"
)

func runScenario(t *testing.T, cfg sim.Config) *sim.Run {
	t.Helper()
	run, err := sim.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// Ingest routes the report to its shard.
func (s *Sharded) Ingest(at time.Time, rep *ais.PositionReport) []events.Alert {
	return s.ShardFor(rep.MMSI).Ingest(at, rep)
}

func feed(p *Pipeline, run *sim.Run) {
	for i := range run.Positions {
		obs := &run.Positions[i]
		p.Ingest(obs.At, &obs.Report)
	}
	for i := range run.Statics {
		so := &run.Statics[i]
		p.IngestStatic(so.At, &so.Msg)
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	simCfg := sim.Config{Seed: 5, NumVessels: 80, Duration: 2 * time.Hour, TickSec: 2}
	simCfg.DefaultAnomalyRates()
	run := runScenario(t, simCfg)

	p := New(Config{
		Zones:              run.Config.World.Zones,
		SynopsisToleranceM: 60,
	})
	feed(p, run)

	snap := p.Metrics.Snapshot()
	if snap.Ingested == 0 || snap.Ingested != int64(len(run.Positions)) {
		t.Fatalf("ingested %d of %d", snap.Ingested, len(run.Positions))
	}
	if snap.Archived == 0 || snap.Archived >= snap.Ingested {
		t.Fatalf("synopsis filter pass-through: %d of %d", snap.Archived, snap.Ingested)
	}
	if ratio := p.CompressionRatio(); ratio < 0.3 {
		t.Errorf("compression ratio %.2f suspiciously low", ratio)
	}
	if p.Live.Count() == 0 {
		t.Error("live picture empty")
	}
	if p.Store.VesselCount() == 0 {
		t.Error("archive empty")
	}
	if snap.Alerts == 0 {
		t.Error("no alerts despite injected anomalies")
	}
	if snap.StaticChecked != int64(len(run.Statics)) {
		t.Errorf("static checked %d of %d", snap.StaticChecked, len(run.Statics))
	}
}

// TestPipelineEndToEndNMEA drives the whole Figure 2 path through the wire
// format: simulate traffic, encode it as NMEA sentences, decode it back,
// run the pipeline and assemble a situation.
func TestPipelineEndToEndNMEA(t *testing.T) {
	run := runScenario(t, sim.Config{Seed: 3, NumVessels: 30, Duration: 30 * time.Minute, TickSec: 2})

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
	p := New(Config{
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

func TestPipelineDetectsInjectedDarkness(t *testing.T) {
	simCfg := sim.Config{
		Seed: 9, NumVessels: 100, Duration: 3 * time.Hour, TickSec: 2,
		DarkShipFrac: 0.27, DarkTimeFrac: 0.12,
	}
	run := runScenario(t, simCfg)
	p := New(Config{Zones: run.Config.World.Zones, DarkThreshold: 10 * time.Minute})
	feed(p, run)

	var truths []events.TruthWindow
	for _, e := range run.Events {
		truths = append(truths, events.TruthWindow{
			Kind: events.Kind(e.Kind), MMSI: e.MMSI, Other: e.Other,
			Start: e.Start, End: e.End,
		})
	}
	r := events.Score(events.KindDark, p.Alerts(), truths, 5*time.Minute)
	if r.Truth == 0 {
		t.Skip("no dark events with this seed")
	}
	if r.Recall < 0.6 {
		t.Errorf("dark recall %.2f (tp=%d fn=%d)", r.Recall, r.TP, r.FN)
	}
	t.Logf("dark: truth=%d alerts=%d precision=%.2f recall=%.2f", r.Truth, r.Alerts, r.Precision, r.Recall)
}

func TestPipelineSituation(t *testing.T) {
	simCfg := sim.Config{Seed: 11, NumVessels: 60, Duration: 2 * time.Hour, TickSec: 2}
	run := runScenario(t, simCfg)
	p := New(Config{Zones: run.Config.World.Zones})
	feed(p, run)

	end := run.Config.Start.Add(run.Config.Duration)
	s := p.Situation(end, run.Config.World.Bounds, 10, 20)
	if len(s.Vessels) == 0 {
		t.Fatal("situation sees no vessels")
	}
	if s.Density.Total != len(s.Vessels) {
		t.Errorf("density total %d vs vessels %d", s.Density.Total, len(s.Vessels))
	}
}

func TestPipelineRejectsPositionlessReports(t *testing.T) {
	p := New(Config{})
	rep := &ais.PositionReport{
		MMSI:     227000001,
		Position: geo.Point{Lat: ais.LatNotAvailable, Lon: ais.LonNotAvailable},
	}
	p.Ingest(time.Now(), rep)
	snap := p.Metrics.Snapshot()
	if snap.Rejected != 1 || snap.Archived != 0 {
		t.Errorf("positionless report handling: %+v", snap)
	}
}

func TestPipelineConcurrentIngest(t *testing.T) {
	simCfg := sim.Config{Seed: 3, NumVessels: 40, Duration: time.Hour, TickSec: 2}
	run := runScenario(t, simCfg)
	p := New(Config{Zones: run.Config.World.Zones})
	var wg sync.WaitGroup
	chunk := (len(run.Positions) + 3) / 4
	for w := 0; w < 4; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(run.Positions) {
			hi = len(run.Positions)
		}
		wg.Add(1)
		go func(obs []sim.Observation) {
			defer wg.Done()
			for i := range obs {
				p.Ingest(obs[i].At, &obs[i].Report)
			}
		}(run.Positions[lo:hi])
	}
	wg.Wait()
	if got := p.Metrics.Snapshot().Ingested; got != int64(len(run.Positions)) {
		t.Errorf("concurrent ingest lost messages: %d of %d", got, len(run.Positions))
	}
}

func TestShardedMatchesSingleOnPerVesselMetrics(t *testing.T) {
	simCfg := sim.Config{Seed: 13, NumVessels: 60, Duration: time.Hour, TickSec: 2}
	run := runScenario(t, simCfg)

	single := New(Config{Zones: run.Config.World.Zones, SynopsisToleranceM: 60})
	sharded := NewSharded(Config{Zones: run.Config.World.Zones, SynopsisToleranceM: 60}, 4)
	for i := range run.Positions {
		obs := &run.Positions[i]
		single.Ingest(obs.At, &obs.Report)
		sharded.Ingest(obs.At, &obs.Report)
	}
	ss := single.Metrics.Snapshot()
	hs := sharded.Snapshot()
	if ss.Ingested != hs.Ingested {
		t.Errorf("ingested differ: %d vs %d", ss.Ingested, hs.Ingested)
	}
	// Per-vessel stages are shard-independent: archived counts match.
	if ss.Archived != hs.Archived {
		t.Errorf("archived differ: %d vs %d", ss.Archived, hs.Archived)
	}
}

// TestShardedAlertsTimeOrdered routes a feed by ShardFor, as a caller
// fanning out to shard workers does, and checks that every report is
// counted once and that the merged alert list comes back in time order.
// Alerts with equal At come lower shard first, then in raise order:
// equal-At alerts planted on two shards, and one on a third, out of
// shard order, come back in exactly that order.
func TestShardedAlertsTimeOrdered(t *testing.T) {
	run := runScenario(t, sim.Config{Seed: 5, NumVessels: 20, Duration: 20 * time.Minute, TickSec: 2})
	sp := NewSharded(Config{Zones: run.Config.World.Zones}, 3)
	for i := range run.Positions {
		obs := &run.Positions[i]
		sp.ShardFor(obs.Report.MMSI).Ingest(obs.At, &obs.Report)
	}
	if got := sp.Snapshot().Ingested; got != int64(len(run.Positions)) {
		t.Errorf("sharded ingest %d of %d", got, len(run.Positions))
	}
	alerts := sp.Alerts()
	if len(alerts) < 2 {
		t.Fatalf("%d merged alerts: too few to check their order", len(alerts))
	}
	for i := 1; i < len(alerts); i++ {
		if alerts[i].At.Before(alerts[i-1].At) {
			t.Fatal("merged alerts not time-ordered")
		}
	}

	tie := alerts[len(alerts)-1].At.Add(time.Hour)
	for _, plant := range []struct {
		shard int
		note  string
	}{{2, "2a"}, {0, "0a"}, {2, "2b"}, {1, "1a"}, {0, "0b"}, {2, "2c"}} {
		p := sp.Shards[plant.shard]
		p.alerts = append(p.alerts, events.Alert{Kind: events.KindLoiter, At: tie, Note: plant.note})
	}
	var got []string
	for _, a := range sp.Alerts() {
		if a.At.Equal(tie) {
			got = append(got, a.Note)
		}
	}
	if want := []string{"0a", "0b", "1a", "2a", "2b", "2c"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("equal-At alerts merged as %v, want %v (lower shard first, then raise order)", got, want)
	}
}

// TestShardedSituationMatchesSinglePipeline pins the Sharded.Situation
// merge: over the same input, the sharded operational picture — density
// grid, live vessel set, per-vessel alert board — equals a single
// pipeline's. Pairwise detectors are shard-local by design (README.md,
// "Sharded async ingest"), so the comparison runs the per-vessel detector battery
// only; the grid and vessel equality below is what the merge must
// guarantee regardless.
func TestShardedSituationMatchesSinglePipeline(t *testing.T) {
	simCfg := sim.Config{Seed: 23, NumVessels: 50, Duration: 30 * time.Minute, TickSec: 2}
	simCfg.DefaultAnomalyRates()
	run := runScenario(t, simCfg)

	cfg := Config{Zones: run.Config.World.Zones}
	single := New(cfg)
	for _, shards := range []int{2, 4, 7} {
		sharded := NewSharded(cfg, shards)
		for i := range run.Positions {
			obs := &run.Positions[i]
			if shards == 2 { // feed the single pipeline once
				single.Ingest(obs.At, &obs.Report)
			}
			sharded.Ingest(obs.At, &obs.Report)
		}
		at := run.Positions[len(run.Positions)-1].At
		bounds := run.Config.World.Bounds
		want := single.Situation(at, bounds, 10, 30)
		got := sharded.Situation(at, bounds, 10, 30)

		if got.Density.Total != want.Density.Total || got.Density.MaxBin != want.Density.MaxBin {
			t.Fatalf("%d shards: density total/max %d/%d, want %d/%d",
				shards, got.Density.Total, got.Density.MaxBin, want.Density.Total, want.Density.MaxBin)
		}
		for i := range want.Density.Counts {
			if got.Density.Counts[i] != want.Density.Counts[i] {
				t.Fatalf("%d shards: density bin %d = %d, want %d",
					shards, i, got.Density.Counts[i], want.Density.Counts[i])
			}
		}
		if len(got.Vessels) != len(want.Vessels) {
			t.Fatalf("%d shards: %d vessels, want %d", shards, len(got.Vessels), len(want.Vessels))
		}
		wantVessels := map[uint32]time.Time{}
		for _, v := range want.Vessels {
			wantVessels[v.MMSI] = v.At
		}
		for _, v := range got.Vessels {
			at, ok := wantVessels[v.MMSI]
			if !ok || !at.Equal(v.At) {
				t.Fatalf("%d shards: vessel %d state diverges from single pipeline", shards, v.MMSI)
			}
		}
		// Per-vessel alerts are shard-independent; compare them as a
		// multiset, ignoring the shard-local pairwise kinds.
		pairwise := map[string]bool{
			string(events.KindRendezvous):    true,
			string(events.KindCollisionRisk): true,
		}
		count := func(alerts []va.SituationAlert) map[string]int {
			m := map[string]int{}
			for _, a := range alerts {
				if pairwise[a.Kind] {
					continue
				}
				m[fmt.Sprintf("%s|%s|%d", a.Kind, a.At.Format(time.RFC3339Nano), a.MMSI)]++
			}
			return m
		}
		gc, wc := count(got.Alerts), count(want.Alerts)
		if len(gc) != len(wc) {
			t.Fatalf("%d shards: %d distinct per-vessel alerts, want %d", shards, len(gc), len(wc))
		}
		for k, n := range wc {
			if gc[k] != n {
				t.Fatalf("%d shards: alert %s count %d, want %d", shards, k, gc[k], n)
			}
		}
	}
}

func TestShardedRouting(t *testing.T) {
	s := NewSharded(Config{}, 3)
	seen := map[int]bool{}
	for mmsi := uint32(201000000); mmsi < 201000300; mmsi++ {
		idx := s.ShardIndex(mmsi)
		if idx != stream.ShardOf(uint64(mmsi), 3) {
			t.Fatalf("ShardIndex(%d) = %d, disagrees with stream.ShardOf", mmsi, idx)
		}
		if s.ShardFor(mmsi) != s.Shards[idx] {
			t.Fatalf("ShardFor(%d) inconsistent with ShardIndex", mmsi)
		}
		if s.ShardFor(mmsi) != s.ShardFor(mmsi) {
			t.Fatalf("routing for %d not stable", mmsi)
		}
		seen[idx] = true
	}
	if len(seen) != 3 {
		t.Errorf("300 consecutive MMSIs hit only %d of 3 shards", len(seen))
	}
}

func BenchmarkPipelineIngest(b *testing.B) {
	simCfg := sim.Config{Seed: 2, NumVessels: 200, Duration: time.Hour, TickSec: 2}
	run, err := sim.Simulate(simCfg)
	if err != nil {
		b.Fatal(err)
	}
	p := New(Config{Zones: run.Config.World.Zones, SynopsisToleranceM: 60})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs := &run.Positions[i%len(run.Positions)]
		p.Ingest(obs.At, &obs.Report)
	}
}

// A report that raises nothing, from a vessel every stage already knows,
// allocates nothing: the per-vessel state (quality subject included) is
// behind one lookup, the proximity grid reuses its cells, and no stage
// builds a slice to return it empty.
func TestIngestSteadyStateAllocatesNothing(t *testing.T) {
	p := New(Config{Zones: sim.MediterraneanWorld(1).Zones, SynopsisToleranceM: 60})
	start := time.Date(2017, 3, 21, 0, 0, 0, 0, time.UTC)
	// Three vessels 2 km apart in open water on the same course and speed:
	// inside each other's pairing horizon, never converging.
	const stepSec = 10
	v := geo.Velocity{SpeedMS: 10 * geo.Knot, CourseDg: 90}
	reps := make([]ais.PositionReport, 3)
	for i := range reps {
		reps[i] = ais.PositionReport{
			Type: ais.TypePositionA, MMSI: uint32(227000001 + i), Status: ais.StatusUnderWayEngine,
			Position: geo.Point{Lat: 34.0 + 0.018*float64(i), Lon: 18.0}, SpeedKn: 10, CourseDeg: 90,
		}
	}
	n := 0
	ingest := func() {
		rep := &reps[n%len(reps)]
		if got := p.Ingest(start.Add(time.Duration(n/len(reps)*stepSec)*time.Second), rep); len(got) != 0 {
			t.Fatalf("report %d raised %v; the scenario is meant to be quiet", n, got)
		}
		if n++; n%len(reps) == 0 {
			for i := range reps {
				reps[i].Position = geo.Project(reps[i].Position, v, stepSec)
			}
		}
	}
	for n < 300 {
		ingest()
	}
	if allocs := testing.AllocsPerRun(300, ingest); allocs != 0 {
		t.Errorf("steady-state Ingest allocates %.0f times per report, want 0", allocs)
	}
}

// Pairwise detection is per shard, so a sharded pipeline finds a pair only
// when both vessels hash to the same shard: about one pair in n. This puts
// the number next to E14's shard speed-up, most of which is this same
// density split. One seeded feed, the one-pipeline answer as truth; a pair
// alert is recalled when a shard raises it identically (a co-sharded pair
// sees exactly the reports it saw in one pipeline), and no shard may raise a
// pair alert the one pipeline did not.
func TestShardedPairAlertRecall(t *testing.T) {
	simCfg := sim.Config{Seed: 1, World: sim.MediterraneanWorld(1), NumVessels: 800, Duration: 30 * time.Minute, TickSec: 2}
	simCfg.DefaultAnomalyRates()
	run := runScenario(t, simCfg)
	cfg := Config{Zones: simCfg.World.Zones, SynopsisToleranceM: 60}

	pairAlerts := func(n int) map[events.Alert]bool {
		s := NewSharded(cfg, n)
		out := make(map[events.Alert]bool)
		for i := range run.Positions {
			obs := &run.Positions[i]
			for _, a := range s.Ingest(obs.At, &obs.Report) {
				if a.Kind == events.KindRendezvous || a.Kind == events.KindCollisionRisk {
					out[a] = true
				}
			}
		}
		return out
	}
	truth := pairAlerts(1)
	if len(truth) < 200 {
		t.Fatalf("one pipeline raised %d pair alerts; too few to read a recall from", len(truth))
	}
	// Floors sit a fifth under the 1/n a uniform hash gives, a third at eight
	// shards, where five alerts move the ratio by a point.
	for _, tc := range []struct {
		shards int
		floor  float64
	}{{1, 1}, {2, 0.40}, {4, 0.20}, {8, 0.08}} {
		got := pairAlerts(tc.shards)
		hit := 0
		for a := range got {
			if !truth[a] {
				t.Fatalf("%d shards raised %v, which one pipeline does not", tc.shards, a)
			}
			hit++
		}
		recall := float64(hit) / float64(len(truth))
		t.Logf("%d shards: pair-alert recall %.3f (%d of %d), floor %.2f", tc.shards, recall, hit, len(truth), tc.floor)
		if recall < tc.floor {
			t.Errorf("%d shards: pair-alert recall %.3f under its floor %.2f", tc.shards, recall, tc.floor)
		}
	}
}
