package ingest

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/events"
	"repro/internal/fusion"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/semstore"
	"repro/internal/track"
)

// TestResumeSeedsLanes pins "online == replay" across a restart: engine
// A runs a feed with both lanes on; engine B resumes A's shard stores,
// ingests one further report per vessel, and must answer track, quality
// and per-vessel anomalies byte-identically to the generic replay over
// its own archive. Before Resume seeded the lanes, the cold stages
// answered from the one post-restart record alone (checked=1) and
// shadowed the archive.
//
// It also pins what seeding does not do: no alert, nothing on the hub,
// no seeded gap for a fresh one to pair with — while closed episodes
// re-materialise into the (per-process) semantic store.
func TestResumeSeedsLanes(t *testing.T) {
	run := simTraffic(t, 47, 40, 45*time.Minute)
	_, a := runEngine(t, run, Config{
		Pipeline: pipelineCfg(run, 60), Shards: 3,
		Track: &track.Config{}, Anomaly: &anomaly.Config{},
	})
	a.Wait()

	sem := semstore.NewStore()
	b := New(Config{
		Pipeline: pipelineCfg(run, 60), Shards: 2, // resharded restart: routing is the host's
		Track: &track.Config{}, Anomaly: &anomaly.Config{Semantic: sem},
	})
	// Arm the hub before Resume, so a publication during seeding would count.
	sub, err := b.Subscribe(query.Request{Kind: query.KindAlertHistory}, query.SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()

	// Resume empties the store it hands over, so read the reference first.
	last := map[uint32]model.VesselState{}
	for _, p := range a.Sharded().Shards {
		for _, mmsi := range p.Store.MMSIs() {
			pts := p.Store.Trajectory(mmsi).Points
			last[mmsi] = pts[len(pts)-1]
		}
		b.Resume(p.Store)
	}
	if len(last) == 0 {
		t.Fatal("fixture archived nothing")
	}
	if a.Anomalies().GapCount() == 0 {
		t.Fatal("fixture has no reporting gaps — nothing for seeding to skip")
	}

	// Seeding folds state only.
	if got := b.Tracks().VesselCount(); got != len(last) {
		t.Fatalf("track lane seeded %d vessels, archive holds %d", got, len(last))
	}
	an := b.Anomalies()
	if got := an.VesselCount(); got != len(last) {
		t.Fatalf("anomaly lane seeded %d vessels, archive holds %d", got, len(last))
	}
	if n := b.hub.Metrics.In.Load(); n != 0 {
		t.Fatalf("seeding published %d updates to the hub", n)
	}
	if an.RendezvousCount() != 0 || an.GapCount() != 0 {
		t.Fatalf("seeding raised alerts or counted gaps: %d fired, %d gaps", an.RendezvousCount(), an.GapCount())
	}
	// The gap matcher holds no seeded gap: a fresh vessel whose gap is
	// the twin of an archived one (same fixes, same times) would pair
	// with it, yet fires nothing.
	var seeded *events.Gap
	for mmsi := range last {
		for _, g := range events.FindGaps(b.Sharded().ShardFor(mmsi).Store.Trajectory(mmsi), query.AnomalyGapThreshold) {
			twin := g
			twin.MMSI = 1
			if _, ok := events.PossibleRendezvous(twin, g, events.DefaultOpenWorldConfig()); ok && seeded == nil {
				seeded = &g
			}
		}
	}
	if seeded == nil {
		t.Fatal("fixture archived no gap a twin would pair with")
	}
	twin := an.ShardFor(1)
	for _, s := range []model.VesselState{seeded.Before, seeded.After} {
		s.MMSI = 1
		if err := twin.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	if an.GapCount() != 1 || an.RendezvousCount() != 0 {
		t.Fatalf("twin of a seeded gap: %d gaps counted (want 1), %d rendezvous fired (want 0)", an.GapCount(), an.RendezvousCount())
	}
	// Closed episodes are re-materialised: same count the first process
	// closed live, and the triples are in B's store.
	if want := a.Anomalies().EpisodeCount(); want == 0 || an.EpisodeCount() != want {
		t.Fatalf("seeding closed %d episodes, the first process closed %d (want equal, non-zero)", an.EpisodeCount(), want)
	}
	if sem.Len() == 0 {
		t.Fatal("seeded episodes were not materialised into Anomaly.Semantic")
	}

	// One further report per vessel, then compare every lane answer with
	// the replay over B's archive.
	ctx := context.Background()
	b.Start(ctx)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range b.Alerts() {
		}
	}()
	reports := map[uint32]int{}
	for i := range run.Positions {
		reports[run.Positions[i].Report.MMSI] = i
	}
	for mmsi, s := range last {
		rep := run.Positions[reports[mmsi]].Report
		if !b.Ingest(ctx, s.At.Add(time.Minute), &rep) {
			t.Fatal("resumed engine refused ingest")
		}
	}
	b.Close()
	<-drained
	b.Wait()
	if got, want := b.Snapshot().Archived, int64(len(last)); got != want {
		t.Fatalf("resumed engine archived %d post-restart records, want one per vessel (%d)", got, want)
	}

	asJSON := func(v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for mmsi := range last {
		pts := b.Sharded().ShardFor(mmsi).Store.Trajectory(mmsi).Points
		ask := func(k query.Kind) *query.Result {
			res, err := b.Query(query.Request{Kind: k, MMSI: mmsi})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		if got, want := asJSON(ask(query.KindTrack).Track),
			asJSON(query.Replay(query.TrackFold(fusion.DefaultTrackerConfig()), mmsi, pts)); got != want {
			t.Fatalf("vessel %d track after restart != replay of the archive (%d points)\nonline: %s\nreplay: %s", mmsi, len(pts), got, want)
		}
		if got, want := asJSON(ask(query.KindQuality).Quality),
			asJSON(query.Replay(query.NewQualityAccumulator, mmsi, pts)); got != want {
			t.Fatalf("vessel %d quality after restart != replay of the archive (%d points)\nonline: %s\nreplay: %s", mmsi, len(pts), got, want)
		}
		if got, want := asJSON(ask(query.KindAnomalies).Anomalies.Vessel),
			asJSON(query.Replay(query.NewAnomalyAccumulator, mmsi, pts)); got != want {
			t.Fatalf("vessel %d anomalies after restart != replay of the archive (%d points)\nonline: %s\nreplay: %s", mmsi, len(pts), got, want)
		}
	}
}

// TestReplayMemoAcrossResume carries the replay memo's oracle across a
// restart. Engine B runs without lanes, so its live source answers the
// derived kinds by memoised replay of its shard stores; it is asked
// before Resume, after it, and after one further report per vessel —
// every question twice, ranked form first — and each answer (track,
// quality, anomalies per vessel and ranked) must be byte-identical to a
// fresh query.Replay of B's archive.
func TestReplayMemoAcrossResume(t *testing.T) {
	run := simTraffic(t, 47, 30, 30*time.Minute)
	_, a := runEngine(t, run, Config{Pipeline: pipelineCfg(run, 60), Shards: 3})
	a.Wait()
	b := New(Config{Pipeline: pipelineCfg(run, 60), Shards: 2})

	var fleet []uint32
	for _, p := range a.Sharded().Shards {
		fleet = append(fleet, p.Store.MMSIs()...)
	}
	asJSON := func(v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	ask := func(req query.Request) *query.Result {
		res, err := b.Query(req)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	check := func(step string) {
		t.Helper()
		var reports []*query.VesselAnomaly
		for _, mmsi := range fleet {
			pts := b.Sharded().ShardFor(mmsi).Store.Trajectory(mmsi).Points
			if va := query.Replay(query.NewAnomalyAccumulator, mmsi, pts); va != nil {
				reports = append(reports, va)
			}
		}
		ranked := query.RankAnomalies(reports, 0)
		for range 2 {
			got := ask(query.Request{Kind: query.KindAnomalies, Limit: len(fleet)}).Anomalies.Ranked
			if len(got)+len(ranked) > 0 && asJSON(got) != asJSON(ranked) {
				t.Fatalf("%s: ranked anomalies != replay of the archive\nmemo:   %.300s\nreplay: %.300s", step, asJSON(got), asJSON(ranked))
			}
		}
		for _, mmsi := range fleet {
			pts := b.Sharded().ShardFor(mmsi).Store.Trajectory(mmsi).Points
			for range 2 {
				vessel := ask(query.Request{Kind: query.KindAnomalies, MMSI: mmsi}).Anomalies
				if vessel == nil {
					vessel = &query.AnomalyReport{}
				}
				for _, c := range []struct {
					kind      string
					got, want any
				}{
					{"track", ask(query.Request{Kind: query.KindTrack, MMSI: mmsi}).Track,
						query.Replay(query.TrackFold(fusion.DefaultTrackerConfig()), mmsi, pts)},
					{"quality", ask(query.Request{Kind: query.KindQuality, MMSI: mmsi}).Quality,
						query.Replay(query.NewQualityAccumulator, mmsi, pts)},
					{"anomalies", vessel.Vessel, query.Replay(query.NewAnomalyAccumulator, mmsi, pts)},
				} {
					if got, want := asJSON(c.got), asJSON(c.want); got != want {
						t.Fatalf("%s: vessel %d %s != replay of the archive (%d points)\nmemo:   %s\nreplay: %s", step, mmsi, c.kind, len(pts), got, want)
					}
				}
			}
		}
	}

	check("before Resume")
	for _, p := range a.Sharded().Shards {
		b.Resume(p.Store)
	}
	check("after Resume")

	ctx := context.Background()
	b.Start(ctx)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range b.Alerts() {
		}
	}()
	reports := map[uint32]int{}
	for i := range run.Positions {
		reports[run.Positions[i].Report.MMSI] = i
	}
	for _, mmsi := range fleet {
		last, _ := b.Sharded().ShardFor(mmsi).Store.Latest(mmsi)
		rep := run.Positions[reports[mmsi]].Report
		if !b.Ingest(ctx, last.At.Add(time.Minute), &rep) {
			t.Fatal("resumed engine refused ingest")
		}
	}
	b.Close()
	<-drained
	b.Wait()
	if got := b.Snapshot().Archived; got != int64(len(fleet)) {
		t.Fatalf("resumed engine archived %d post-restart records, want one per vessel (%d)", got, len(fleet))
	}
	check("after ingest")
}

// TestResumeWithoutLanesDoesNoExtraPass pins the cost contract of
// seeding: an engine with no lane attached has nothing to seed, so
// Resume's per-vessel lane loop is empty and the preload costs what it
// did before lanes could be seeded.
func TestResumeWithoutLanesDoesNoExtraPass(t *testing.T) {
	if e := New(Config{Shards: 2}); len(e.lanes) != 0 || e.Tracks() != nil || e.Anomalies() != nil {
		t.Fatalf("engine without Track/Anomaly attached %d lanes", len(e.lanes))
	}
	if e := New(Config{Shards: 2, Track: &track.Config{}, Anomaly: &anomaly.Config{}}); len(e.lanes) != 2 {
		t.Fatalf("engine with both lanes attached %d", len(e.lanes))
	}
}
