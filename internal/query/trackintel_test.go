package query

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/forecast"
	"repro/internal/fusion"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/tstore"
)

// --- validation ------------------------------------------------------------------

func TestTrackIntelRequestValidation(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		want string // substring of the error; "" = valid
	}{
		{"track ok", Request{Kind: KindTrack, MMSI: 7}, ""},
		{"track needs mmsi", Request{Kind: KindTrack}, "requires mmsi"},
		{"quality ok", Request{Kind: KindQuality, MMSI: 7}, ""},
		{"quality needs mmsi", Request{Kind: KindQuality}, "requires mmsi"},
		{"predict ok", Request{Kind: KindPredict, MMSI: 7, Horizon: Duration(15 * time.Minute)}, ""},
		{"predict needs mmsi", Request{Kind: KindPredict, Horizon: Duration(time.Minute)}, "requires mmsi"},
		{"predict needs horizon", Request{Kind: KindPredict, MMSI: 7}, "positive horizon"},
		{"predict negative horizon", Request{Kind: KindPredict, MMSI: 7, Horizon: Duration(-time.Minute)}, "positive horizon"},
		{"predict horizon capped", Request{Kind: KindPredict, MMSI: 7, Horizon: Duration(25 * time.Hour)}, "exceeds"},
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
}

// --- the fold against its reference -----------------------------------------------

// TestTrackAccumulatorMatchesTracker keeps the cross-implementation check
// explicit now that the online stage and the offline replay are the same
// code: over simulated trajectories — dark windows and irregular cadence
// included — a TrackAccumulator replay must equal, bit for bit, the
// fusion.Tracker it distils (one identified measurement per scan, the
// rendered track compared as JSON).
func TestTrackAccumulatorMatchesTracker(t *testing.T) {
	cfg := sim.Config{Seed: 5, NumVessels: 30, Duration: 90 * time.Minute, TickSec: 2}
	cfg.DefaultAnomalyRates()
	run, err := sim.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	histories := map[uint32][]model.VesselState{}
	for i := range run.Positions {
		o := &run.Positions[i]
		s := model.FromReport(o.At, &o.Report)
		histories[s.MMSI] = append(histories[s.MMSI], s)
	}
	gapped := 0
	for mmsi, pts := range histories {
		tk := fusion.NewTracker(fusion.DefaultTrackerConfig())
		for i, p := range pts {
			if i > 0 && p.At.Sub(pts[i-1].At) > AnomalyGapThreshold {
				gapped++
			}
			tk.Process(p.At, []fusion.Measurement{{
				At: p.At, Pos: p.Pos, SigmaM: AISPositionSigmaM, Identity: p.MMSI, Source: "ais",
			}})
		}
		if len(tk.Tracks) != 1 || tk.Tracks[0].Identity != mmsi {
			t.Fatalf("vessel %d: reference tracker holds %d tracks", mmsi, len(tk.Tracks))
		}
		want, _ := json.Marshal(TrackStateOf(tk.Tracks[0]))
		got, _ := json.Marshal(Replay(TrackFold(fusion.DefaultTrackerConfig()), mmsi, pts))
		if string(got) != string(want) {
			t.Fatalf("vessel %d (%d points): accumulator diverged from fusion.Tracker\nfold:    %s\ntracker: %s", mmsi, len(pts), got, want)
		}
	}
	if gapped == 0 {
		t.Fatal("fixture has no reporting gaps — the gap path went unexercised")
	}
}

// --- derive path over a plain store ----------------------------------------------

// routeTrainedPredict is predict's replay as it was before dead reckoning
// became its one answer: a route model trained on the vessel's own stored
// samples on every request, dead reckoning where the model abstains.
func routeTrainedPredict(a archived, r Request) *Prediction {
	pts := a.replaysOf(r.MMSI).store.Trajectory(r.MMSI).Points
	if len(pts) == 0 {
		return nil
	}
	tr := &model.Trajectory{MMSI: r.MMSI, Points: pts}
	horizon := time.Duration(r.Horizon)
	rm := forecast.NewRouteModel(0.05)
	rm.Train(tr)
	pos, ok := rm.Predict(tr, horizon)
	method := rm.Name()
	if !ok {
		pos, _ = forecast.DeadReckoning{}.Predict(tr, horizon)
		method = forecast.DeadReckoning{}.Name()
	}
	last := pts[len(pts)-1]
	return &Prediction{
		MMSI: r.MMSI, From: last.At, At: last.At.Add(horizon),
		Horizon: r.Horizon, Lat: pos.Lat, Lon: pos.Lon,
		Method: method, ConfidenceM: coastedUncertaintyM(pts, horizon),
	}
}

// TestPredictMatchesRouteTrainedOracle pins that dropping the per-request
// route model changed only the answers it gave: over the bench-shaped
// fleet (seed 1, 200 vessels × 2 h, every received report archived) at
// three horizons, predict is byte-identical to the route-trained replay
// wherever that replay answered by dead reckoning, and always answers by
// dead reckoning itself. The share the route model used to answer is
// logged (measured 3 of 606, 0.5 %).
func TestPredictMatchesRouteTrainedOracle(t *testing.T) {
	cfg := sim.Config{
		Seed: 1, World: sim.MediterraneanWorld(1),
		NumVessels: 200, Duration: 2 * time.Hour, TickSec: 2,
	}
	cfg.DefaultAnomalyRates()
	run, err := sim.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := tstore.New()
	for i := range run.Positions {
		o := &run.Positions[i]
		st.Append(model.FromReport(o.At, &o.Report))
	}
	src := NewStoreSource("archive", st)
	eng := NewEngine(src)
	same, routed := 0, 0
	for _, mmsi := range st.MMSIs() {
		for _, h := range []time.Duration{5 * time.Minute, 15 * time.Minute, 40 * time.Minute} {
			req := Request{Kind: KindPredict, MMSI: mmsi, Horizon: Duration(h)}
			res, err := eng.Query(req)
			if err != nil {
				t.Fatal(err)
			}
			if res.Prediction == nil || res.Prediction.Method != "dead-reckoning" {
				t.Fatalf("vessel %d at %v: %+v, want a dead-reckoning answer", mmsi, h, res.Prediction)
			}
			old := routeTrainedPredict(src.(archived), req)
			if old.Method != "dead-reckoning" {
				routed++
				continue
			}
			got, _ := json.Marshal(res.Prediction)
			want, _ := json.Marshal(old)
			if string(got) != string(want) {
				t.Fatalf("vessel %d at %v: predict diverged from the route-trained replay's dead reckoning\n got %s\nwant %s", mmsi, h, got, want)
			}
			same++
		}
	}
	if same == 0 {
		t.Fatal("the oracle never answered by dead reckoning: nothing compared")
	}
	t.Logf("%d answers byte-identical; the route model used to answer %d of %d (%.1f %%)",
		same, routed, same+routed, 100*float64(routed)/float64(same+routed))
}

// TestTrackIntelDerivedFromStore pins that the three kinds answer from
// any Source — here a bare archive with no online stage — by trajectory
// replay, with sane, deterministic payloads.
func TestTrackIntelDerivedFromStore(t *testing.T) {
	states := testStates(4, 30)
	st := fill(tstore.New(), states)
	eng := NewEngine(NewStoreSource("archive", st))
	const mmsi = 201000002

	tr, err := eng.Query(Request{Kind: KindTrack, MMSI: mmsi})
	if err != nil {
		t.Fatal(err)
	}
	ts := tr.Track
	if ts == nil || tr.Count != 1 {
		t.Fatalf("track answer missing: %+v", tr)
	}
	if ts.MMSI != mmsi || !ts.Confirmed || ts.Hits != 30 {
		t.Fatalf("track state off: %+v", ts)
	}
	if !ts.At.Equal(t0.Add(29 * time.Minute)) {
		t.Fatalf("track At %v, want the last fix", ts.At)
	}
	if ts.SigmaM <= 0 || ts.MajorM < ts.MinorM || ts.Sources["ais"] != 30 {
		t.Fatalf("track uncertainty/sources off: %+v", ts)
	}

	pr, err := eng.Query(Request{Kind: KindPredict, MMSI: mmsi, Horizon: Duration(15 * time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	p := pr.Prediction
	if p == nil {
		t.Fatal("prediction missing")
	}
	if !p.From.Equal(ts.At) || !p.At.Equal(ts.At.Add(15*time.Minute)) {
		t.Fatalf("prediction timeline off: %+v", p)
	}
	if p.Method != "dead-reckoning" || p.ConfidenceM <= 0 {
		t.Fatalf("prediction method/confidence off: %+v", p)
	}
	// The fleet marches north-east; the forecast must keep going that way.
	if p.Lat <= ts.Lat || p.Lon <= ts.Lon {
		t.Fatalf("prediction did not extrapolate north-east: track %.4f,%.4f → %.4f,%.4f",
			ts.Lat, ts.Lon, p.Lat, p.Lon)
	}

	qr, err := eng.Query(Request{Kind: KindQuality, MMSI: mmsi})
	if err != nil {
		t.Fatal(err)
	}
	q := qr.Quality
	if q == nil || q.Checked != 30 {
		t.Fatalf("quality answer off: %+v", q)
	}
	if q.Flagged != 0 || q.Reliability <= 0.9 || q.LowerBound >= q.Reliability {
		t.Fatalf("clean fleet scored %+v", q)
	}

	// Determinism: replaying the same archive answers byte-identically.
	for _, req := range []Request{
		{Kind: KindTrack, MMSI: mmsi},
		{Kind: KindPredict, MMSI: mmsi, Horizon: Duration(15 * time.Minute)},
		{Kind: KindQuality, MMSI: mmsi},
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
	missing, err := eng.Query(Request{Kind: KindTrack, MMSI: 999})
	if err != nil || missing.Track != nil || missing.Count != 0 {
		t.Fatalf("unknown vessel: res %+v err %v", missing, err)
	}
}

// --- standing queries (tickers), in-process and over /v1/stream -------------------

// TestTrackIntelTickers pins the standing form of all three kinds: a
// Streamer recomputes the answer on a cadence — the predict ticker is
// how a display shows dead-reckoned motion between AIS reports.
func TestTrackIntelTickers(t *testing.T) {
	st := fill(tstore.New(), testStates(2, 20))
	eng := NewEngine(NewStoreSource("archive", st))
	streamer := NewStreamer(NewHub(HubConfig{}), eng)
	const mmsi = 201000001

	reqs := map[UpdateKind]Request{
		UpdateTrack:   {Kind: KindTrack, MMSI: mmsi},
		UpdatePredict: {Kind: KindPredict, MMSI: mmsi, Horizon: Duration(10 * time.Minute)},
		UpdateQuality: {Kind: KindQuality, MMSI: mmsi},
	}
	for kind, req := range reqs {
		t.Run(string(kind), func(t *testing.T) {
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
				if u.Kind != kind {
					t.Fatalf("update %d kind %s, want %s", i, u.Kind, kind)
				}
				if u.Seq != uint64(i+1) {
					t.Fatalf("tick seq %d, want %d", u.Seq, i+1)
				}
				// The archive is quiescent, so every tick equals the
				// one-shot answer.
				var tick, want any
				switch kind {
				case UpdateTrack:
					tick, want = u.Track, oneShot.Track
				case UpdatePredict:
					tick, want = u.Prediction, oneShot.Prediction
				case UpdateQuality:
					tick, want = u.Quality, oneShot.Quality
				}
				tj, _ := json.Marshal(tick)
				wj, _ := json.Marshal(want)
				if string(tj) != string(wj) {
					t.Fatalf("tick %d diverged from one-shot:\n%s\n%s", i, tj, wj)
				}
			}
		})
	}

	// An unknown vessel ticks nothing (no payload, no seq) instead of
	// streaming nils.
	sub, err := streamer.Subscribe(Request{Kind: KindTrack, MMSI: 999}, SubOptions{Tick: 10 * time.Millisecond})
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

// TestTrackIntelStreamOverHTTP pins the remote standing form: the same
// predict subscription over /v1/stream, served and consumed by the
// wire client.
func TestTrackIntelStreamOverHTTP(t *testing.T) {
	st := fill(tstore.New(), testStates(2, 20))
	hub := NewHub(HubConfig{})
	eng := NewEngine(NewStoreSource("archive", st))
	ts := httptest.NewServer(NewServer(NewStreamer(hub, eng)))
	defer ts.Close()
	c := NewClient(ts.URL)
	const mmsi = 201000002

	req := Request{Kind: KindPredict, MMSI: mmsi, Horizon: Duration(5 * time.Minute)}
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
		if u.Kind != UpdatePredict || u.Prediction == nil {
			t.Fatalf("update %d: %+v", i, u)
		}
		if i > 0 && u.Seq <= got[i-1].Seq {
			t.Fatalf("ticks out of sequence: %d after %d", u.Seq, got[i-1].Seq)
		}
		uj, _ := json.Marshal(u.Prediction)
		wj, _ := json.Marshal(oneShot.Prediction)
		if string(uj) != string(wj) {
			t.Fatalf("remote tick diverged from one-shot:\n%s\n%s", uj, wj)
		}
	}
}

// --- federation -------------------------------------------------------------------

// TestTrackIntelFederates pins the peer path: a vessel held only by a
// remote daemon answers all three kinds through federation, identically
// to asking the peer directly — one exchange per answer, computed
// peer-side.
func TestTrackIntelFederates(t *testing.T) {
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
	for _, req := range []Request{
		{Kind: KindTrack, MMSI: peerOnly},
		{Kind: KindPredict, MMSI: peerOnly, Horizon: Duration(15 * time.Minute)},
		{Kind: KindQuality, MMSI: peerOnly},
	} {
		t.Run(string(req.Kind), func(t *testing.T) {
			fed, err := eng.Query(req)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := peerEng.Query(req)
			if err != nil {
				t.Fatal(err)
			}
			var got, want any
			switch req.Kind {
			case KindTrack:
				got, want = fed.Track, direct.Track
			case KindPredict:
				got, want = fed.Prediction, direct.Prediction
			case KindQuality:
				got, want = fed.Quality, direct.Quality
			}
			gj, _ := json.Marshal(got)
			wj, _ := json.Marshal(want)
			if want == nil || string(gj) != string(wj) {
				t.Fatalf("federated %s diverged from the peer's own answer:\n%s\n%s", req.Kind, gj, wj)
			}
		})
	}

	// A vessel both sides hold: the merged answer prefers the fresher
	// track — here both replay identical data, so it must equal either.
	// And a dead peer degrades: local vessels still answer.
	tsA.Close()
	peer.PeerTimeout = 200 * time.Millisecond
	res, err := eng.Query(Request{Kind: KindTrack, MMSI: 201000003})
	if err != nil || res.Track == nil {
		t.Fatalf("local track under dead peer: res %+v err %v", res, err)
	}
}

// BenchmarkPredictQuery measures predict, which every source answers
// the same way: read the vessel's trajectory, dead-reckon from its last
// sample and coast a filter over the recent window for the envelope.
func BenchmarkPredictQuery(b *testing.B) {
	st := fill(tstore.New(), testStates(4, 200))
	eng := NewEngine(NewStoreSource("archive", st))
	req := Request{Kind: KindPredict, MMSI: 201000002, Horizon: Duration(15 * time.Minute)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(req); err != nil {
			b.Fatal(err)
		}
	}
}
