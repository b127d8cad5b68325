package ingest

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/track"
	"repro/internal/tstore"
)

// resumeByCopy is the Resume the handover replaced, kept as its oracle:
// every recovered trajectory copied point by point into its owning
// shard's store, its newest state into the live picture and the copy
// into every lane, leaving st as it was.
func resumeByCopy(e *Engine, st *tstore.Store) int {
	n := 0
	for _, mmsi := range st.MMSIs() {
		tr := st.Trajectory(mmsi)
		if len(tr.Points) == 0 {
			continue
		}
		p := e.sharded.ShardFor(mmsi)
		for _, s := range tr.Points {
			p.Store.Append(s)
		}
		p.Live.Update(tr.Points[len(tr.Points)-1])
		for _, l := range e.lanes {
			l.Seed(mmsi, tr.Points)
		}
		n += len(tr.Points)
	}
	return n
}

// TestResumeHandoverMatchesCopy is the handover's licence: two copies of
// one recovered archive resume into two engines, one through the copying
// resumeByCopy and one through Resume, at 1, 2 and 4 shards, resident and
// under a memory budget that evicts everything, with and without both
// lanes, and from an empty archive (a daemon's first start on an empty
// -data-dir with -track -anomaly). After Resume the shard stores' points,
// tier counts and heat (the eviction order), the live pictures and the
// archived states must be equal and the handed-over store empty; after
// further ingest and a drain, every query kind — per vessel over the
// whole fleet and fleet-wide — must answer JSON-equal.
func TestResumeHandoverMatchesCopy(t *testing.T) {
	// No synopsis: every report is archived (4 399 points, 16 vessels),
	// so each vessel spans several 64-point run summaries and two
	// 256-point spill chunks.
	run := simTraffic(t, 61, 16, 100*time.Minute)
	dir := t.TempDir()
	arch, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	_, a := runEngine(t, run, Config{Pipeline: pipelineCfg(run, 0), Shards: 3, Backend: arch.Backend})
	a.Wait()
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}
	recovered := func(t *testing.T, empty bool) *tstore.Store {
		if empty {
			return tstore.New()
		}
		re, err := store.OpenReadOnly(store.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if re.Store.Len() == 0 {
			t.Fatal("fixture archive recovered empty")
		}
		return re.Store
	}

	type tcase struct {
		shards        int
		budget, lanes bool
		empty         bool
	}
	var cases []tcase
	for _, shards := range []int{1, 2, 4} {
		for _, budget := range []bool{false, true} {
			for _, lanes := range []bool{false, true} {
				cases = append(cases, tcase{shards: shards, budget: budget, lanes: lanes})
			}
		}
	}
	cases = append(cases, tcase{shards: 2, lanes: true, empty: true})

	for _, c := range cases {
		name := fmt.Sprintf("shards%d/budget=%v/lanes=%v/empty=%v", c.shards, c.budget, c.lanes, c.empty)
		t.Run(name, func(t *testing.T) {
			newEngine := func() *Engine {
				cfg := Config{Pipeline: pipelineCfg(run, 0), Shards: c.shards, TierCheckEvery: -1}
				if c.budget {
					objects, err := store.NewFSObjects(t.TempDir())
					if err != nil {
						t.Fatal(err)
					}
					cfg.MemoryBudget, cfg.TierObjects = 1, objects
				}
				if c.lanes {
					cfg.Track, cfg.Anomaly = &track.Config{}, &anomaly.Config{}
				}
				return New(cfg)
			}
			ref, got := newEngine(), newEngine()
			src := recovered(t, c.empty)
			fleet := src.MMSIs()
			nRef := resumeByCopy(ref, recovered(t, c.empty))
			nGot := got.Resume(src)
			if nGot != nRef {
				t.Fatalf("Resume handed over %d points, the copy resumes %d", nGot, nRef)
			}
			if src.Len() != 0 || src.VesselCount() != 0 || src.Tier() != (tstore.TierCounters{}) {
				t.Fatalf("handed-over store not empty: %d points, %d vessels, %+v", src.Len(), src.VesselCount(), src.Tier())
			}
			sameShards(t, "after Resume", ref, got)

			// Post-restart traffic lands on the moved series: one report
			// per vessel, or the feed's first minutes on an empty archive.
			feed := func(e *Engine) {
				e.Start(context.Background())
				drained := make(chan struct{})
				go func() {
					defer close(drained)
					for range e.Alerts() {
					}
				}()
				ctx := context.Background()
				if c.empty {
					for i := range run.Positions[:len(run.Positions)/2] {
						o := &run.Positions[i]
						e.Ingest(ctx, o.At, &o.Report)
					}
				} else {
					last := run.Positions[len(run.Positions)-1].At
					seen := map[uint32]bool{}
					for i := len(run.Positions) - 1; i >= 0; i-- {
						if o := &run.Positions[i]; !seen[o.Report.MMSI] {
							seen[o.Report.MMSI] = true
							e.Ingest(ctx, last.Add(time.Minute), &o.Report)
						}
					}
				}
				e.Close()
				<-drained
				e.Wait() // under the budget, Wait's final tier pass evicts everything
			}
			feed(ref)
			feed(got)
			if c.budget {
				if tc := got.Sharded().Shards[0].Store.Tier(); tc.ResidentPoints != 0 || tc.EvictedPoints == 0 {
					t.Fatalf("budget left points resident: %+v", tc)
				}
			}
			sameShards(t, "after ingest", ref, got)
			if c.empty {
				for _, p := range got.Sharded().Shards {
					fleet = append(fleet, p.Store.MMSIs()...)
				}
			}
			for _, req := range handoverBattery(run, fleet) {
				want, have := answer(t, ref, req), answer(t, got, req)
				if want != have {
					t.Fatalf("%s %d: handover answers\n%.400s\ncopy answers\n%.400s", req.Kind, req.MMSI, have, want)
				}
			}
		})
	}
}

// sameShards compares two engines shard by shard: archived points, tier
// counts, per-vessel heat and the live picture.
func sameShards(t *testing.T, step string, ref, got *Engine) {
	t.Helper()
	world := geo.Rect{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}
	byMMSI := func(a, b tstore.VesselHeat) int { return cmp.Compare(a.MMSI, b.MMSI) }
	for i, r := range ref.Sharded().Shards {
		g := got.Sharded().Shards[i]
		if g.Store.Tier() != r.Store.Tier() {
			t.Fatalf("%s: shard %d tier %+v, the copy's %+v", step, i, g.Store.Tier(), r.Store.Tier())
		}
		rh, gh := r.Store.Heat(), g.Store.Heat()
		slices.SortFunc(rh, byMMSI)
		slices.SortFunc(gh, byMMSI)
		if !slices.Equal(gh, rh) {
			t.Fatalf("%s: shard %d heat differs from the copy's:\n%v\n%v", step, i, gh, rh)
		}
		if js(t, g.Live.InRect(world)) != js(t, r.Live.InRect(world)) {
			t.Fatalf("%s: shard %d live picture differs from the copy's", step, i)
		}
		if js(t, storeStates(g.Store)) != js(t, storeStates(r.Store)) {
			t.Fatalf("%s: shard %d archive differs from the copy's", step, i)
		}
	}
}

// handoverBattery asks every query kind: the per-vessel kinds of every
// fleet vessel, and the fleet-wide ones over the whole sea.
func handoverBattery(run *sim.Run, fleet []uint32) []query.Request {
	t0, t1 := run.Positions[0].At, run.Positions[len(run.Positions)-1].At
	mid := t0.Add(t1.Sub(t0) / 2)
	sea := &query.Box{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}
	p := run.Positions[len(run.Positions)/2].Report.Position
	reqs := []query.Request{
		{Kind: query.KindSpaceTime, Box: sea, From: mid.Add(-5 * time.Minute), To: mid.Add(5 * time.Minute)},
		{Kind: query.KindNearest, Lat: p.Lat, Lon: p.Lon, At: mid, Tol: query.Duration(10 * time.Minute), K: 5},
		{Kind: query.KindLivePicture, Box: sea},
		{Kind: query.KindSituation, Box: sea, At: t1, Rows: 8, Cols: 16},
		{Kind: query.KindAlertHistory},
		{Kind: query.KindStats},
		{Kind: query.KindAnomalies},
		{Kind: query.KindAnomalies, Limit: 5},
	}
	for _, m := range fleet {
		reqs = append(reqs,
			query.Request{Kind: query.KindTrajectory, MMSI: m},
			query.Request{Kind: query.KindTrack, MMSI: m},
			query.Request{Kind: query.KindPredict, MMSI: m, Horizon: query.Duration(15 * time.Minute)},
			query.Request{Kind: query.KindQuality, MMSI: m},
			query.Request{Kind: query.KindAnomalies, MMSI: m})
	}
	return reqs
}

func answer(t *testing.T, e *Engine, req query.Request) string {
	t.Helper()
	res, err := e.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	return js(t, res)
}

func js(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// BenchmarkResume hands a bench-shaped recovered archive — 2000 vessels
// × 115 reports a minute apart across the Mediterranean, 230 000 points —
// over to a fresh two-shard engine per op. Filling the archive is not
// timed, so B/op is what Resume itself allocates: O(vessels) for the
// handover (the live picture and the shard maps), where a copy costs the
// archive's size again.
func BenchmarkResume(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	fleet := make([][]model.VesselState, 2000)
	for v := range fleet {
		lat, lon := 31+rng.Float64()*13, -5+rng.Float64()*40
		dLat, dLon := (rng.Float64()-0.5)*0.006, (rng.Float64()-0.5)*0.006
		t0 := time.Date(2017, 3, 21, 0, 0, 0, 0, time.UTC)
		for i := range 115 {
			fleet[v] = append(fleet[v], model.VesselState{
				MMSI: uint32(201000000 + v), At: t0.Add(time.Duration(i) * time.Minute),
				Pos:     geo.Point{Lat: lat + float64(i)*dLat, Lon: lon + float64(i)*dLon},
				SpeedKn: 12, CourseDeg: 90,
			})
		}
	}
	b.ReportAllocs()
	for range b.N {
		b.StopTimer()
		st := tstore.New()
		for _, pts := range fleet {
			for _, s := range pts {
				st.Append(s)
			}
		}
		e := New(Config{Shards: 2})
		b.StartTimer()
		if n := e.Resume(st); n != 2000*115 {
			b.Fatalf("resumed %d points", n)
		}
	}
}
