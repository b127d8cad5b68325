package tier_test

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/tstore"
)

// TestQueryEquivalenceUnderEviction is the tiered-archive acceptance
// property: every query kind of the unified read surface returns
// byte-identical JSON over a store being aggressively evicted (a
// ~1-vessel memory budget, so almost the whole archive lives as stubs)
// and over a fully resident control. The first phase churns — concurrent
// appends, eviction passes and queries, which is what -race is pointed
// at; the second phase quiesces, forces a final eviction pass and
// compares the wire bytes kind by kind — the derived kinds twice more,
// once answered from the replay memo and once after an append per
// vessel moved every count. Stats is compared with the
// eviction-observability fields (resident_points, evicted_vessels)
// blanked: reporting the tier IS the difference, everything else must
// match.
func TestQueryEquivalenceUnderEviction(t *testing.T) {
	const vessels, pointsPer = 40, 250
	control, tiered := fillStores(11, vessels, pointsPer)
	m := newManager(t, int64(tstore.PointBytes), tiered)

	ctrlEng := query.NewEngine(query.NewStoreSource("archive", control))
	tierEng := query.NewEngine(query.NewStoreSource("archive", tiered))

	// --- churn phase: eviction, page-back and appends race ------------------
	t0 := time.Date(2017, 3, 21, 0, 0, 0, 0, time.UTC)
	box := query.Box{MinLat: 33, MinLon: 2, MaxLat: 41, MaxLon: 22}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // evictor
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.Check()
			}
		}
	}()
	go func() { // reader: page-back under way while eviction runs
		defer wg.Done()
		reqs := []query.Request{
			{Kind: query.KindTrajectory, MMSI: 201000003},
			{Kind: query.KindSpaceTime, Box: &box, From: t0, To: t0.Add(20 * time.Minute)},
			{Kind: query.KindNearest, Lat: 38, Lon: 12, At: t0.Add(10 * time.Minute), Tol: query.Duration(15 * time.Minute), K: 5},
			{Kind: query.KindLivePicture, Box: &box},
			{Kind: query.KindStats},
			{Kind: query.KindTrack, MMSI: 201000003},
			{Kind: query.KindPredict, MMSI: 201000005, Horizon: query.Duration(15 * time.Minute)},
			{Kind: query.KindQuality, MMSI: 201000007},
			{Kind: query.KindAnomalies, MMSI: 201000009},
			{Kind: query.KindAnomalies, Limit: 5},
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				if _, err := tierEng.Query(reqs[i%len(reqs)]); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	appended := make([]model.VesselState, 0, 200)
	go func() { // appender: fresh traffic keeps some vessels hot mid-eviction
		defer wg.Done()
		at := t0.Add(time.Duration(pointsPer*10) * time.Second)
		for i := 0; i < 200; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s := model.VesselState{
				MMSI: uint32(201000000 + i%vessels),
				At:   at.Add(time.Duration(i) * 17 * time.Millisecond),
				// i-scaled epsilon keeps every appended coordinate unique:
				// co-located points tie on distance, and tie order is
				// heap-order dependent in any snapshot, evicted or not.
				Pos: geo.Point{
					Lat: 36 + float64(i%7)*0.3 + float64(i)*1e-8,
					Lon: 8 + float64(i%11)*0.2 + float64(i)*1e-8,
				},
				SpeedKn: 12.345 + float64(i)/1000, CourseDeg: float64(i % 360),
			}
			// Tiered first so the control store never leads: at quiesce
			// both hold the identical set either way.
			tiered.Append(s)
			control.Append(s)
			appended = append(appended, s)
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	// Drain: make sure every appended state reached both stores (the
	// appender may have been stopped early; appended tracks reality).
	if tiered.Len() != control.Len() {
		t.Fatalf("churn desynced the stores: %d vs %d", tiered.Len(), control.Len())
	}
	if err := tiered.PageErr(); err != nil {
		t.Fatalf("page error during churn: %v", err)
	}

	// --- equivalence phase: evict hard, then compare wire bytes -------------
	m.Check()
	if tc := tiered.Tier(); tc.EvictedPoints == 0 {
		t.Fatalf("nothing evicted before the comparison: %+v", tc)
	}

	reqs := map[string]query.Request{
		"trajectory":          {Kind: query.KindTrajectory, MMSI: 201000003},
		"trajectory-windowed": {Kind: query.KindTrajectory, MMSI: 201000017, From: t0.Add(5 * time.Minute), To: t0.Add(25 * time.Minute)},
		"spacetime":           {Kind: query.KindSpaceTime, Box: &box, From: t0.Add(3 * time.Minute), To: t0.Add(30 * time.Minute)},
		"spacetime-unbounded": {Kind: query.KindSpaceTime, Box: &box},
		"nearest":             {Kind: query.KindNearest, Lat: 38, Lon: 12, At: t0.Add(10 * time.Minute), Tol: query.Duration(15 * time.Minute), K: 7},
		// Off the appender's lat/lon grid: vessels at identical distances
		// tie, and tie order among equal distances is heap-order
		// dependent in any snapshot — not an eviction property.
		"nearest-timeless": {Kind: query.KindNearest, Lat: 36.051, Lon: 10.037, K: 5},
		"live":             {Kind: query.KindLivePicture, Box: &box},
		"situation":        {Kind: query.KindSituation, Box: &box, At: t0.Add(30 * time.Minute), Rows: 8, Cols: 16},
		"alerts":           {Kind: query.KindAlertHistory},
		"stats":            {Kind: query.KindStats},
		// Track intelligence replays the full trajectory, so an evicted
		// vessel's fused state, forecast and integrity score are rebuilt
		// from paged-back points — byte-identical or the page-back lost data.
		"track":   {Kind: query.KindTrack, MMSI: 201000003},
		"predict": {Kind: query.KindPredict, MMSI: 201000005, Horizon: query.Duration(15 * time.Minute)},
		"quality": {Kind: query.KindQuality, MMSI: 201000007},
		// Anomalies replay the full history through the behavior fold, so
		// an evicted vessel's deviation report — and the fleet ranking,
		// which replays every vessel — rebuild from paged-back points.
		"anomalies-vessel": {Kind: query.KindAnomalies, MMSI: 201000009},
		"anomalies-ranked": {Kind: query.KindAnomalies, Limit: 5},
	}
	compare := func(phase string, reqs map[string]query.Request) {
		t.Helper()
		for name, req := range reqs {
			wantRes, err := ctrlEng.Query(req)
			if err != nil {
				t.Fatalf("%s %s (control): %v", phase, name, err)
			}
			gotRes, err := tierEng.Query(req)
			if err != nil {
				t.Fatalf("%s %s (tiered): %v", phase, name, err)
			}
			if req.Kind == query.KindStats {
				// The tier-observability fields are supposed to differ —
				// they report the eviction itself. Everything else must not.
				blankTierFields(wantRes)
				blankTierFields(gotRes)
			}
			want, err := json.Marshal(wantRes)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(gotRes)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s %s: wire bytes differ under eviction\n got: %.400s\nwant: %.400s", phase, name, got, want)
			}
		}
	}
	compare("evicted", reqs)
	// The derived kinds again: asked a second time they answer from the
	// replay memo (the hit path), and after one append per vessel and
	// another eviction pass every vessel re-folds (the invalidation path).
	derived := map[string]query.Request{}
	for name, req := range reqs {
		switch req.Kind {
		case query.KindTrack, query.KindPredict, query.KindQuality, query.KindAnomalies:
			derived[name] = req
		}
	}
	compare("memo hit", derived)
	at := t0.Add(time.Hour)
	for v := 0; v < vessels; v++ {
		s := model.VesselState{
			MMSI: uint32(201000000 + v), At: at.Add(time.Duration(v) * time.Second),
			Pos:     geo.Point{Lat: 37 + float64(v)*0.01, Lon: 9 + float64(v)*0.02},
			SpeedKn: 14.5, CourseDeg: float64(v * 9),
		}
		tiered.Append(s)
		control.Append(s)
	}
	m.Check()
	compare("after append", derived)
	if err := tiered.PageErr(); err != nil {
		t.Fatalf("page error during comparison: %v", err)
	}
}

func blankTierFields(res *query.Result) {
	for i := range res.Stats.Sources {
		res.Stats.Sources[i].ResidentPoints = 0
		res.Stats.Sources[i].EvictedVessels = 0
	}
}
