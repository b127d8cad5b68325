package ingest

import (
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/tstore"
)

// TestEngineMemoryBudgetEvictsAndAnswers runs the engine with an
// aggressive memory budget and a fast eviction loop, then checks (1) the
// archive really dropped below the budget, (2) the full query surface
// still answers over the partially evicted shards with the exact point
// counts ingest archived, and (3) the tier stats surface the eviction.
func TestEngineMemoryBudgetEvictsAndAnswers(t *testing.T) {
	run := simTraffic(t, 33, 80, 30*time.Minute)
	objects, err := store.NewFSObjects(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(tstore.PointBytes) * 500 // far below the run's archive
	_, e := runEngine(t, run, Config{
		Pipeline:       pipelineCfg(run, 60),
		Shards:         4,
		MemoryBudget:   budget,
		TierObjects:    objects,
		TierCheckEvery: time.Millisecond, // evict continuously during ingest
	})
	e.Wait()
	if err := e.FlushErr(); err != nil {
		t.Fatalf("storage stages errored: %v", err)
	}

	// The loop stopped with Wait; one explicit pass covers whatever the
	// final ingest batches appended after its last tick.
	e.tier.Check()
	ts := e.tier.Stats()
	if ts.Evictions == 0 || ts.EvictedPoints == 0 {
		t.Fatalf("budget %d never triggered eviction: %+v", budget, ts)
	}
	if ts.ResidentBytes > budget {
		t.Fatalf("resident bytes %d exceed the budget %d after Wait: %+v", ts.ResidentBytes, budget, ts)
	}

	// The whole read surface over the evicted shards: totals must match
	// what ingest archived, evicted or not.
	archived := int(e.Snapshot().Archived)
	res, err := e.Query(query.Request{Kind: query.KindStats})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Points != archived {
		t.Fatalf("stats over evicted shards report %d points, archived %d", res.Stats.Points, archived)
	}
	var local *query.SourceStats
	for i := range res.Stats.Sources {
		if res.Stats.Sources[i].Name == "live" {
			local = &res.Stats.Sources[i]
		}
	}
	if local == nil || local.EvictedVessels == 0 {
		t.Fatalf("stats must report evicted vessels, got %+v", res.Stats.Sources)
	}
	if local.ResidentPoints+ts.EvictedPoints != archived {
		t.Fatalf("resident %d + evicted %d != archived %d",
			local.ResidentPoints, ts.EvictedPoints, archived)
	}

	// A trajectory read pages an evicted vessel back in full.
	world := query.Box{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}
	live, err := e.Query(query.Request{Kind: query.KindLivePicture, Box: &world})
	if err != nil {
		t.Fatal(err)
	}
	if live.Count == 0 {
		t.Fatal("live picture empty over evicted shards")
	}
	mmsi := live.States[0].MMSI
	tr, err := e.Query(query.Request{Kind: query.KindTrajectory, MMSI: mmsi})
	if err != nil {
		t.Fatal(err)
	}
	direct := e.Sharded().ShardFor(mmsi).Store.Trajectory(mmsi)
	if tr.Count != len(direct.Points) || tr.Count == 0 {
		t.Fatalf("trajectory over evicted shard returned %d points, store holds %d", tr.Count, len(direct.Points))
	}
}
