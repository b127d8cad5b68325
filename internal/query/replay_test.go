package query

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/fusion"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/tier"
	"repro/internal/tstore"
)

// chunkStore is the tiered archive's chunk store over a temporary
// directory, for stores a test evicts.
func chunkStore(t *testing.T) tstore.ChunkStore {
	objects, err := store.NewFSObjects(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return tier.NewChunkStore(objects, 1<<20)
}

// memoRequests are the memoised reads over a store: track, quality and
// anomalies for every vessel, and the ranked form capped and whole.
func memoRequests(st *tstore.Store) []Request {
	var reqs []Request
	for _, m := range st.MMSIs() {
		for _, k := range []Kind{KindTrack, KindQuality, KindAnomalies} {
			reqs = append(reqs, Request{Kind: k, MMSI: m})
		}
	}
	return append(reqs, Request{Kind: KindAnomalies, Limit: 3}, Request{Kind: KindAnomalies, Limit: 100})
}

func reqName(r Request) string { return fmt.Sprintf("%s mmsi=%d limit=%d", r.Kind, r.MMSI, r.Limit) }

// memoPayload is the wire form of the part of an answer replayOracle
// renders.
func memoPayload(res *Result) string {
	switch {
	case res.Kind == KindTrack:
		return js(res.Track)
	case res.Kind == KindQuality:
		return js(res.Quality)
	case res.Anomalies == nil:
		return js(nil)
	case res.Anomalies.Vessel != nil:
		return js(res.Anomalies.Vessel)
	}
	return js(res.Anomalies.Ranked)
}

// replayOracle is the uncached reference: a fresh Replay of the store's
// whole stored trajectory per request, the ranked form built from those
// over the store's fleet.
func replayOracle(st *tstore.Store, req Request) string {
	pts := st.Trajectory(req.MMSI).Points
	switch {
	case req.Kind == KindTrack:
		return js(Replay(TrackFold(fusion.DefaultTrackerConfig()), req.MMSI, pts))
	case req.Kind == KindQuality:
		return js(Replay(NewQualityAccumulator, req.MMSI, pts))
	case req.MMSI != 0:
		return js(Replay(NewAnomalyAccumulator, req.MMSI, pts))
	}
	var reports []*VesselAnomaly
	for _, m := range st.MMSIs() {
		if va := Replay(NewAnomalyAccumulator, m, st.Trajectory(m).Points); va != nil {
			reports = append(reports, va)
		}
	}
	return js(sortThenCap(reports, req.Limit))
}

// replayFolds sums query_replay_folds_total over the memoised kinds.
func replayFolds(reg *obs.Registry) (n float64) {
	for _, k := range []Kind{KindTrack, KindQuality, KindAnomalies} {
		v, _ := reg.Value("query_replay_folds_total", "kind", string(k))
		n += v
	}
	return n
}

// TestReplayMemoMatchesReplay is the memo's oracle: after every way the
// store can change under it — first fill, in-order append, a late report
// inserted mid-history (newest sample unchanged), a duplicate timestamp,
// eviction, a Load into the live store — every memoised answer, asked
// twice (the second ask is all hits), is byte-identical in JSON to a
// fresh replay; exactly the vessels whose stored count moved re-fold, and
// a hit on an evicted vessel pages nothing back.
func TestReplayMemoMatchesReplay(t *testing.T) {
	const x, y = 201000002, 201000005
	st := fill(tstore.New(), append(testStates(6, 60), anomalyStates(201000009)...))
	st.SetChunkStore(chunkStore(t))
	src := NewStoreSource("archive", st)
	eng := NewEngine(src)
	reg := obs.NewRegistry()
	eng.Instrument(reg)

	check := func(step string, changed int, evicted bool) {
		t.Helper()
		reqs := memoRequests(st)
		pageIns, folds := st.Tier().PageIns, replayFolds(reg)
		got := make([][2]string, len(reqs))
		for i, req := range reqs {
			for ask := range got[i] {
				res, err := eng.Query(req)
				if err != nil {
					t.Fatalf("%s: %s: %v", step, reqName(req), err)
				}
				got[i][ask] = memoPayload(res)
			}
		}
		if evicted {
			if n := st.Tier().PageIns - pageIns; n != 0 {
				t.Fatalf("%s: memo hits paged %d chunks back", step, n)
			}
		}
		// Three memoised kinds per vessel; the ranked form shares the
		// per-vessel anomalies entries.
		if n := replayFolds(reg) - folds; n != float64(3*changed) {
			t.Errorf("%s: %v re-folds, want %d (3 kinds × %d vessels whose count moved)", step, n, 3*changed, changed)
		}
		for i, req := range reqs {
			want := replayOracle(st, req)
			for ask, g := range got[i] {
				if g != want {
					t.Fatalf("%s: %s ask %d: memoised != replay\nmemo:   %.300s\nreplay: %.300s", step, reqName(req), ask+1, g, want)
				}
			}
		}
	}
	latest := func(mmsi uint32) model.VesselState {
		s, _ := st.Latest(mmsi)
		return s
	}

	check("first fill", 7, false)

	next := latest(x)
	next.At = next.At.Add(time.Minute)
	next.Pos.Lat += 0.01
	st.Append(next)
	check("in-order append", 1, false)

	pts := st.Trajectory(y).Points
	late := pts[len(pts)/2]
	late.At = late.At.Add(30 * time.Second)
	late.Pos = geo.Point{Lat: late.Pos.Lat + 0.3, Lon: late.Pos.Lon - 0.2}
	late.SpeedKn, late.CourseDeg = 27, 300
	before := latest(y)
	st.Append(late)
	if after := latest(y); !after.At.Equal(before.At) {
		t.Fatalf("fixture: the late report moved the newest sample %s -> %s", before.At, after.At)
	}
	check("late insert, newest sample unchanged", 1, false)

	dup := latest(x)
	dup.Pos.Lon += 0.05
	dup.SpeedKn += 3
	st.Append(dup)
	check("duplicate timestamp", 1, false)

	for _, m := range st.MMSIs() {
		if _, err := st.EvictVessel(m); err != nil {
			t.Fatal(err)
		}
	}
	if tc := st.Tier(); tc.ResidentPoints != 0 {
		t.Fatalf("fixture: %d points still resident", tc.ResidentPoints)
	}
	check("after eviction", 0, true)

	// Load appends: one late and one new report for known vessels, and a
	// vessel the store never held.
	more := tstore.New()
	late = st.Trajectory(x).Points[10]
	late.At = late.At.Add(20 * time.Second)
	more.Append(late)
	next = latest(y)
	next.At = next.At.Add(2 * time.Minute)
	more.Append(next)
	for i := 0; i < 5; i++ {
		more.Append(testState(40, i))
	}
	var buf bytes.Buffer
	if _, err := more.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(&buf); err != nil {
		t.Fatal(err)
	}
	check("after Load", 3, false)

	if n, bound := len(src.(*storeSource).replays.memo), 3*st.VesselCount(); n > bound {
		t.Fatalf("memo holds %d reports for %d vessels, bound %d", n, st.VesselCount(), bound)
	}
}

// TestReplayMemoConcurrent runs the memo under -race: appends and
// evictions move and keep vessel counts while readers miss, hit and
// JSON-encode the shared reports concurrently; quiesced, every answer
// equals a fresh replay.
func TestReplayMemoConcurrent(t *testing.T) {
	const vessels, points = 8, 80
	st := fill(tstore.New(), testStates(vessels, points))
	st.SetChunkStore(chunkStore(t))
	eng := NewEngine(NewStoreSource("archive", st))
	reqs := memoRequests(st)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // appender and evictor
		defer wg.Done()
		defer close(done)
		for i := 0; i < 300; i++ {
			v := i % (vessels / 2) // half the fleet moves, half stays hits
			st.Append(testState(v, points+i))
			if i%40 == 0 {
				if _, err := st.EvictVessel(uint32(201000001 + (i/40)%vessels)); err != nil && err != tstore.ErrVesselHot {
					t.Error(err)
				}
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) { // readers: the same cached reports, encoded concurrently
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					if i >= 2*len(reqs) {
						return
					}
				default:
				}
				res, err := eng.Query(reqs[(r+i)%len(reqs)])
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := json.Marshal(res); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Wait()

	for _, req := range reqs {
		res, err := eng.Query(req)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := memoPayload(res), replayOracle(st, req); got != want {
			t.Fatalf("%s after concurrent churn: memoised != replay\nmemo:   %.300s\nreplay: %.300s", reqName(req), got, want)
		}
	}
}

// behaviour builds a vessel's history from legs of {samples, knots,
// course}, one sample a minute, parked inside one position cell so only
// speed and heading move its score.
func behaviour(mmsi uint32, lat float64, legs ...[3]float64) []model.VesselState {
	var out []model.VesselState
	for _, leg := range legs {
		for i := 0; i < int(leg[0]); i++ {
			n := len(out)
			out = append(out, model.VesselState{
				MMSI: mmsi, At: t0.Add(time.Duration(n) * time.Minute),
				Pos:     geo.Point{Lat: lat + float64(n)*1e-6, Lon: 5.01},
				SpeedKn: leg[1], CourseDeg: leg[2],
			})
		}
	}
	return out
}

// TestRankedAnomaliesMergeCapsOnce pins the ranked merge over
// overlapping sources: vessel x's stale history (in "stale") scores high,
// its fresh one (in "fresh", which also holds three vessels scoring in
// between) scores below fresh's own top two. Had fresh capped its list
// before the merge, x's stale answer would enter the ranking unopposed;
// the answer must instead be the per-vessel answers over the union
// fleet, sorted and capped.
func TestRankedAnomaliesMergeCapsOnce(t *testing.T) {
	const x, limit = 201000100, 2
	changed := [][3]float64{{40, 10, 45}, {32, 25, 200}}
	stale := fill(tstore.New(), behaviour(x, 42.01, changed...))
	fresh := fill(tstore.New(), behaviour(x, 42.01, append(changed, [3]float64{300, 25, 200})...))
	union := []uint32{x}
	for i, n := range []float64{10, 12, 14} {
		mmsi := uint32(201000101 + i)
		fill(fresh, behaviour(mmsi, 42.21+0.2*float64(i), [3]float64{60, 10, 45}, [3]float64{n, 18, 90}))
		union = append(union, mmsi)
	}
	eng := NewEngine(NewStoreSource("stale", stale), NewStoreSource("fresh", fresh))

	ranked := func(e *Engine) []VesselAnomaly {
		res, err := e.Query(Request{Kind: KindAnomalies, Limit: limit})
		if err != nil {
			t.Fatal(err)
		}
		return res.Anomalies.Ranked
	}
	freshTop := ranked(NewEngine(NewStoreSource("fresh", fresh)))
	staleTop := ranked(NewEngine(NewStoreSource("stale", stale)))
	for _, va := range freshTop {
		if va.MMSI == x {
			t.Fatalf("fixture: x's fresh answer makes fresh's own top %d: %+v", limit, freshTop)
		}
	}
	if staleTop[0].Score <= freshTop[limit-1].Score {
		t.Fatalf("fixture: x's stale score %.3f does not beat fresh's cut %.3f", staleTop[0].Score, freshTop[limit-1].Score)
	}

	var reports []*VesselAnomaly
	for _, m := range union {
		res, err := eng.Query(Request{Kind: KindAnomalies, MMSI: m})
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, res.Anomalies.Vessel)
	}
	if got, want := ranked(eng), sortThenCap(reports, limit); js(got) != js(want) {
		t.Fatalf("merged ranking != per-vessel answers over the union, sorted and capped\n got: %s\nwant: %s", js(got), js(want))
	}
}
