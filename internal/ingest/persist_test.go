package ingest

import (
	"context"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/tstore"
)

func pipelineCfg(run *sim.Run, tolM float64) core.Config {
	return core.Config{Zones: run.Config.World.Zones, SynopsisToleranceM: tolM}
}

// archivedStates collects every shard store's archived points as one
// (MMSI, time)-sorted slice, quantised to disk precision.
func archivedStates(e *Engine) []model.VesselState {
	var out []model.VesselState
	for _, p := range e.Sharded().Shards {
		for _, mmsi := range p.Store.MMSIs() {
			for _, s := range p.Store.Trajectory(mmsi).Points {
				out = append(out, store.Quantize(s))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MMSI != out[j].MMSI {
			return out[i].MMSI < out[j].MMSI
		}
		return out[i].At.Before(out[j].At)
	})
	return out
}

func storeStates(st *tstore.Store) []model.VesselState {
	var out []model.VesselState
	for _, mmsi := range st.MMSIs() {
		out = append(out, st.Trajectory(mmsi).Points...)
	}
	return out
}

// TestFlushStageMirrorsArchive pins that the async flush stage delivers
// exactly the records the shard stores archived — no loss, no
// duplication — and that the flush metrics account for every one.
func TestFlushStageMirrorsArchive(t *testing.T) {
	run := simTraffic(t, 21, 60, 30*time.Minute)
	mem := store.NewMem()
	_, e := runEngine(t, run, Config{
		Pipeline: pipelineCfg(run, 60),
		Shards:   4,
		Backend:  mem,
		Flush:    store.FlushConfig{Queue: 512, Batch: 64},
	})
	e.Wait()

	want := archivedStates(e)
	got := make([]model.VesselState, 0, mem.Len())
	for _, s := range mem.States() {
		got = append(got, store.Quantize(s))
	}
	sort.Slice(got, func(i, j int) bool {
		if got[i].MMSI != got[j].MMSI {
			return got[i].MMSI < got[j].MMSI
		}
		return got[i].At.Before(got[j].At)
	})
	if len(got) == 0 {
		t.Fatal("flush stage delivered nothing")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("backend holds %d records, shard stores archived %d — contents diverge",
			len(got), len(want))
	}
	fm := e.flusher.Metrics.Snapshot()
	if fm.In != int64(len(want)) || fm.Out != int64(len(want)) || fm.Dropped != 0 {
		t.Fatalf("flush metrics = %+v, want In=Out=%d Dropped=0", fm, len(want))
	}
	if err := e.FlushErr(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineRestartRecoversPersistedState is the resume-on-restart
// acceptance path at engine level: run a persisted engine, stop it,
// reopen the archive directory, and check the recovered store and the
// resumed engine's live picture equal the persisted state exactly.
// (Torn-tail kills are pinned byte-for-byte in internal/store's
// recovery tests; this test covers the stack wiring above them.)
func TestEngineRestartRecoversPersistedState(t *testing.T) {
	run := simTraffic(t, 33, 40, 30*time.Minute)
	dir := t.TempDir()
	cfg := store.Config{Dir: dir, SegmentBytes: 1 << 16}

	arch, err := store.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, e1 := runEngine(t, run, Config{
		Pipeline: pipelineCfg(run, 60),
		Shards:   4,
		Backend:  arch.Backend,
	})
	e1.Wait()
	persisted := archivedStates(e1)
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := store.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := storeStates(re.Store); !reflect.DeepEqual(got, persisted) {
		t.Fatalf("recovered %d records, engine archived %d — contents diverge", len(got), len(persisted))
	}
	if re.Stats.Total() != len(persisted) {
		t.Fatalf("RecoverStats.Total = %d, want %d", re.Stats.Total(), len(persisted))
	}

	// Resume into a fresh engine: shard stores and live pictures must
	// reflect the persisted state, routed to the same shards.
	e2 := New(Config{Pipeline: pipelineCfg(run, 60), Shards: 4})
	if n := e2.Resume(re.Store); n != len(persisted) {
		t.Fatalf("Resume loaded %d records, want %d", n, len(persisted))
	}
	if got := archivedStates(e2); !reflect.DeepEqual(got, persisted) {
		t.Fatal("resumed shard stores diverge from persisted state")
	}
	// The alert-relevant live picture: newest persisted state per vessel.
	byVessel := map[uint32]model.VesselState{}
	for _, s := range persisted {
		byVessel[s.MMSI] = s // persisted is time-sorted per vessel
	}
	world := geo.Rect{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}
	for mmsi, want := range byVessel {
		var got model.VesselState
		ok := false
		for _, s := range e2.Sharded().ShardFor(mmsi).Live.InRect(world) {
			if s.MMSI == mmsi {
				got, ok = s, true
			}
		}
		if !ok {
			t.Fatalf("vessel %d missing from resumed live picture", mmsi)
		}
		if got = store.Quantize(got); !got.At.Equal(want.At) || got.Pos != want.Pos {
			t.Fatalf("vessel %d live state = %+v, want %+v", mmsi, got, want)
		}
	}

	// And the resumed engine keeps ingesting on top of the recovered
	// state without disturbing it.
	e2.Start(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range e2.Alerts() {
		}
	}()
	extra := run.Positions[0]
	at := extra.At.Add(24 * time.Hour)
	if !e2.Ingest(context.Background(), at, &extra.Report) {
		t.Fatal("resumed engine refused ingest")
	}
	e2.Close()
	<-done
	e2.Wait()
	total := 0
	for _, p := range e2.Sharded().Shards {
		total += p.Store.Len()
	}
	if total != len(persisted)+1 {
		t.Fatalf("after resumed ingest: %d points, want %d", total, len(persisted)+1)
	}
}
