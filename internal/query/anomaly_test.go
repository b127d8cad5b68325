package query

import (
	"cmp"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/semstore"
	"repro/internal/tstore"
)

// --- validation -------------------------------------------------------------------

func TestAnomalyRequestValidation(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		want string // substring of the error; "" = valid
	}{
		{"per-vessel ok", Request{Kind: KindAnomalies, MMSI: 7}, ""},
		{"ranked ok (mmsi optional)", Request{Kind: KindAnomalies}, ""},
		{"ranked with limit ok", Request{Kind: KindAnomalies, Limit: 3}, ""},
		{"unknown kind still rejected", Request{Kind: "anomaly"}, "unknown kind"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.req.Validate()
			if c.want == "" {
				if err != nil {
					t.Fatalf("want valid, got %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("want error containing %q, got %v", c.want, err)
			}
		})
	}

	// The ranked form defaults its cap; the per-vessel form needs none.
	if r := (Request{Kind: KindAnomalies}).normalize(); r.Limit != DefaultAnomalyLimit {
		t.Fatalf("ranked default limit %d, want %d", r.Limit, DefaultAnomalyLimit)
	}
	if r := (Request{Kind: KindAnomalies, MMSI: 7}).normalize(); r.Limit != 0 {
		t.Fatalf("per-vessel form got a default limit %d", r.Limit)
	}
}

// --- fold vs batch oracles --------------------------------------------------------

// anomalyStates builds one vessel's history with a stop in the middle
// and a reporting gap near the end: underway, anchored, underway, 30
// minutes of silence, underway again.
func anomalyStates(mmsi uint32) []model.VesselState {
	var out []model.VesselState
	add := func(at time.Time, n int, lat, lon, kn float64) time.Time {
		for i := 0; i < n; i++ {
			out = append(out, model.VesselState{
				MMSI: mmsi, At: at,
				Pos:     geo.Point{Lat: lat + float64(i)*0.0004, Lon: lon + float64(i)*0.0006},
				SpeedKn: kn, CourseDeg: 45,
				Status: ais.StatusUnderWayEngine,
			})
			at = at.Add(time.Minute)
		}
		return at
	}
	at := add(t0, 15, 42.0, 5.0, 12)
	at = add(at, 12, 42.006, 5.009, 0.3)
	at = add(at, 15, 42.006, 5.009, 11)
	add(at.Add(30*time.Minute), 10, 42.02, 5.03, 11)
	return out
}

// TestAccumulatorMatchesBatchSegmenter pins the incremental episode
// segmenter to semstore.SegmentEpisodes: the closed episodes the fold
// emits, in order, are the batch segmentation of the same trajectory
// (minus the trailing open episode, which the batch flushes at stream
// end — kept only when it reaches MinDuration, exactly like Report's
// graduation rule).
func TestAccumulatorMatchesBatchSegmenter(t *testing.T) {
	const mmsi = 201000001
	pts := anomalyStates(mmsi)
	acc := NewAnomalyAccumulator(mmsi)
	var closed []semstore.Episode
	var gaps int
	for _, p := range pts {
		f := acc.Observe(p)
		if f.Closed != nil {
			closed = append(closed, *f.Closed)
		}
		if f.Gap != nil {
			gaps++
		}
	}

	batch := semstore.SegmentEpisodes(&model.Trajectory{MMSI: mmsi, Points: pts}, nil, semstore.DefaultEpisodeConfig())
	// The final leg is still open online; the batch keeps it iff it made
	// MinDuration. Everything before it must agree exactly.
	if len(batch) < len(closed) {
		t.Fatalf("fold closed %d episodes, batch found %d", len(closed), len(batch))
	}
	for i, e := range closed {
		gj, _ := json.Marshal(e)
		wj, _ := json.Marshal(batch[i])
		if string(gj) != string(wj) {
			t.Fatalf("episode %d diverged:\n%s\n%s", i, gj, wj)
		}
	}
	if extra := len(batch) - len(closed); extra > 1 {
		t.Fatalf("batch found %d episodes the fold never closed", extra)
	}
	if gaps != 1 {
		t.Fatalf("fold saw %d gaps, want 1", gaps)
	}

	// The report's Episodes are exactly the closed ones, and the gap is
	// surfaced with its duration.
	va := acc.Report()
	if va == nil || len(va.Episodes) != len(closed) || va.Gaps != 1 || va.LastGap == nil {
		t.Fatalf("report off: %+v", va)
	}
	if got := time.Duration(va.LastGap.Duration); got != 31*time.Minute {
		t.Fatalf("gap duration %v, want 31m", got)
	}
	if va.Current == nil {
		t.Fatal("open episode missing from the report")
	}
	if va.Score < 0 || va.Score > 1 {
		t.Fatalf("score %v out of [0,1]", va.Score)
	}
}

// --- derive path over a plain store ----------------------------------------------

// TestAnomaliesDerivedFromStore pins that the kind answers from any
// Source — a bare archive, no online stage — by trajectory replay,
// deterministically, in both forms.
func TestAnomaliesDerivedFromStore(t *testing.T) {
	states := append(testStates(3, 40), anomalyStates(201000009)...)
	st := fill(tstore.New(), states)
	eng := NewEngine(NewStoreSource("archive", st))

	res, err := eng.Query(Request{Kind: KindAnomalies, MMSI: 201000009})
	if err != nil {
		t.Fatal(err)
	}
	if res.Anomalies == nil || res.Anomalies.Vessel == nil || res.Count != 1 {
		t.Fatalf("per-vessel answer missing: %+v", res)
	}
	v := res.Anomalies.Vessel
	if v.MMSI != 201000009 || v.Samples != 52 || v.Gaps != 1 {
		t.Fatalf("per-vessel report off: %+v", v)
	}

	ranked, err := eng.Query(Request{Kind: KindAnomalies})
	if err != nil {
		t.Fatal(err)
	}
	if ranked.Anomalies == nil || len(ranked.Anomalies.Ranked) != 4 || ranked.Count != 4 {
		t.Fatalf("ranked answer off: %+v", ranked.Anomalies)
	}
	for i := 1; i < len(ranked.Anomalies.Ranked); i++ {
		if ranked.Anomalies.Ranked[i].Score > ranked.Anomalies.Ranked[i-1].Score {
			t.Fatal("ranking not score-descending")
		}
	}

	// The ranked cap keeps the top of the same order (the cap never
	// reorders).
	capped, err := eng.Query(Request{Kind: KindAnomalies, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	cj, _ := json.Marshal(capped.Anomalies.Ranked)
	fj, _ := json.Marshal(ranked.Anomalies.Ranked[:2])
	if string(cj) != string(fj) {
		t.Fatalf("limit 2 is not the top of the full ranking:\n%s\n%s", cj, fj)
	}

	// Determinism: replaying the same archive answers byte-identically.
	for _, req := range []Request{
		{Kind: KindAnomalies, MMSI: 201000009},
		{Kind: KindAnomalies},
	} {
		a, _ := eng.Query(req)
		b, _ := eng.Query(req)
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if string(aj) != string(bj) {
			t.Fatalf("%s not deterministic:\n%s\n%s", req.Kind, aj, bj)
		}
	}

	// Unknown vessel: empty answer, not an error.
	missing, err := eng.Query(Request{Kind: KindAnomalies, MMSI: 999})
	if err != nil || missing.Anomalies != nil || missing.Count != 0 {
		t.Fatalf("unknown vessel: res %+v err %v", missing, err)
	}
}

// --- standing queries (tickers), in-process and over /v1/stream -------------------

// TestAnomaliesTickers pins the standing form: the Streamer recomputes
// the deviation report on a cadence — per-vessel and fleet-ranked.
func TestAnomaliesTickers(t *testing.T) {
	st := fill(tstore.New(), testStates(2, 20))
	eng := NewEngine(NewStoreSource("archive", st))
	streamer := NewStreamer(NewHub(HubConfig{}), eng)

	for name, req := range map[string]Request{
		"vessel": {Kind: KindAnomalies, MMSI: 201000001},
		"ranked": {Kind: KindAnomalies},
	} {
		t.Run(name, func(t *testing.T) {
			sub, err := streamer.Subscribe(req, SubOptions{Tick: 15 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Cancel()
			got := collect(t, sub, 3)
			oneShot, err := eng.Query(req)
			if err != nil {
				t.Fatal(err)
			}
			for i, u := range got {
				if u.Kind != UpdateAnomalies || u.Anomalies == nil {
					t.Fatalf("update %d: %+v", i, u)
				}
				if u.Seq != uint64(i+1) {
					t.Fatalf("tick seq %d, want %d", u.Seq, i+1)
				}
				tj, _ := json.Marshal(u.Anomalies)
				wj, _ := json.Marshal(oneShot.Anomalies)
				if string(tj) != string(wj) {
					t.Fatalf("tick %d diverged from one-shot:\n%s\n%s", i, tj, wj)
				}
			}
		})
	}

	// An unknown vessel ticks nothing instead of streaming nils.
	sub, err := streamer.Subscribe(Request{Kind: KindAnomalies, MMSI: 999}, SubOptions{Tick: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	select {
	case u := <-sub.Updates():
		t.Fatalf("unknown vessel produced a tick: %+v", u)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestAnomaliesStreamOverHTTP pins the remote standing form over
// /v1/stream, served and consumed by the wire client.
func TestAnomaliesStreamOverHTTP(t *testing.T) {
	st := fill(tstore.New(), testStates(2, 20))
	hub := NewHub(HubConfig{})
	eng := NewEngine(NewStoreSource("archive", st))
	ts := httptest.NewServer(NewServer(NewStreamer(hub, eng)))
	defer ts.Close()
	c := NewClient(ts.URL)

	req := Request{Kind: KindAnomalies}
	sub, err := c.Subscribe(req, SubOptions{Tick: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	got := collect(t, sub, 3)
	oneShot, err := c.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range got {
		if u.Kind != UpdateAnomalies || u.Anomalies == nil {
			t.Fatalf("update %d: %+v", i, u)
		}
		if i > 0 && u.Seq <= got[i-1].Seq {
			t.Fatalf("ticks out of sequence: %d after %d", u.Seq, got[i-1].Seq)
		}
		uj, _ := json.Marshal(u.Anomalies)
		wj, _ := json.Marshal(oneShot.Anomalies)
		if string(uj) != string(wj) {
			t.Fatalf("remote tick diverged from one-shot:\n%s\n%s", uj, wj)
		}
	}
}

// --- federation -------------------------------------------------------------------

// TestAnomaliesFederate pins the peer path: a vessel held only by a
// remote daemon answers through federation identically to asking the
// peer, and the ranked form merges both fleets into the one order a
// single engine over the union would produce.
func TestAnomaliesFederate(t *testing.T) {
	all := testStates(4, 25)
	perVessel := 25
	remote := fill(tstore.New(), all[:2*perVessel]) // vessels 1, 2
	local := fill(tstore.New(), all[2*perVessel:])  // vessels 3, 4
	peerEng := NewEngine(NewStoreSource("peer-archive", remote))
	tsA := httptest.NewServer(NewServer(peerEng))
	defer tsA.Close()
	peer := NewClient(tsA.URL)
	peer.PeerName = "peerA"
	eng := NewEngine(NewStoreSource("local", local), peer)

	const peerOnly = 201000001
	fed, err := eng.Query(Request{Kind: KindAnomalies, MMSI: peerOnly})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := peerEng.Query(Request{Kind: KindAnomalies, MMSI: peerOnly})
	if err != nil {
		t.Fatal(err)
	}
	gj, _ := json.Marshal(fed.Anomalies)
	wj, _ := json.Marshal(direct.Anomalies)
	if fed.Anomalies == nil || string(gj) != string(wj) {
		t.Fatalf("federated per-vessel diverged from the peer's own answer:\n%s\n%s", gj, wj)
	}

	union := NewEngine(NewStoreSource("union", fill(tstore.New(), all)))
	fedRanked, err := eng.Query(Request{Kind: KindAnomalies})
	if err != nil {
		t.Fatal(err)
	}
	unionRanked, err := union.Query(Request{Kind: KindAnomalies})
	if err != nil {
		t.Fatal(err)
	}
	gj, _ = json.Marshal(fedRanked.Anomalies)
	wj, _ = json.Marshal(unionRanked.Anomalies)
	if string(gj) != string(wj) {
		t.Fatalf("federated ranking diverged from the union engine:\n%s\n%s", gj, wj)
	}

	// A dead peer degrades: the local fleet still answers.
	tsA.Close()
	peer.PeerTimeout = 200 * time.Millisecond
	res, err := eng.Query(Request{Kind: KindAnomalies})
	if err != nil || res.Anomalies == nil || len(res.Anomalies.Ranked) != 2 {
		t.Fatalf("local ranking under dead peer: res %+v err %v", res.Anomalies, err)
	}
}

// sortThenCap is the ranking RankAnomalies replaced, kept as its oracle:
// copy every report, sort the copies score-descending (MMSI ascending on
// ties) and keep the first limit (all when limit <= 0).
func sortThenCap(reports []*VesselAnomaly, limit int) []VesselAnomaly {
	out := make([]VesselAnomaly, 0, len(reports))
	for _, va := range reports {
		out = append(out, *va)
	}
	slices.SortFunc(out, func(a, b VesselAnomaly) int {
		if a.Score > b.Score {
			return -1
		}
		if a.Score < b.Score {
			return 1
		}
		return cmp.Compare(a.MMSI, b.MMSI)
	})
	out, _ = capped(out, limit)
	return out
}

// TestRankAnomaliesMatchesSortThenCap diffs the selecting ranking against
// sort-then-cap over seeded fleets whose scores are drawn from a handful
// of values, so most reports tie on score and rank by MMSI, at every
// limit from 0 (everything) past the fleet size, in shuffled input order;
// the reports themselves must come through unmodified.
func TestRankAnomaliesMatchesSortThenCap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 2, 7, 40, 300} {
		reports := make([]*VesselAnomaly, n)
		for i, m := range rng.Perm(n) {
			reports[i] = &VesselAnomaly{MMSI: uint32(201000000 + m), Score: float64(rng.Intn(4)) / 4, Samples: m}
		}
		before := sortThenCap(reports, 0)
		for _, limit := range []int{0, 1, 3, 10, n - 1, n, n + 5} {
			in := slices.Clone(reports)
			rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
			want := sortThenCap(in, limit)
			if got := RankAnomalies(in, limit); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
				t.Fatalf("%d reports, limit %d:\n got %+v\nwant %+v", n, limit, got, want)
			}
		}
		if after := sortThenCap(reports, 0); !reflect.DeepEqual(after, before) {
			t.Fatalf("%d reports: ranking modified the reports", n)
		}
	}
}

// BenchmarkAnomaliesQuery measures the fleet ranking over an archive
// with no online stage, on an archive shaped like the bench query
// workloads' (2000 vessels × 115 points). warm: nothing moved since the
// last ranking, so every vessel is a memo hit — a quiet archive. cold:
// each iteration first appends one point per vessel (untimed), so every
// vessel re-folds — what every ranking cost before the memo.
func BenchmarkAnomaliesQuery(b *testing.B) {
	const vessels, points = 2000, 115
	st := fill(tstore.New(), testStates(vessels, points))
	eng := NewEngine(NewStoreSource("archive", st))
	rank := func(b *testing.B) {
		if _, err := eng.Query(Request{Kind: KindAnomalies}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("warm", func(b *testing.B) {
		rank(b)
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			rank(b)
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := range b.N {
			b.StopTimer()
			for v := range vessels {
				st.Append(testState(v, points+i))
			}
			b.StartTimer()
			rank(b)
		}
	})
}
