package ingest

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/tstore"
)

// TestMetricsScrapeSmoke is the CI scrape smoke: a fully wired engine —
// persistence backend, tiered archive, hub, query surface — ingesting
// while /metrics, /healthz, /readyz and /debug/flight are scraped
// concurrently, then a final scrape asserted to carry metric families
// from all five instrumented layers plus the build-info series. The
// concurrent scrapes double as the scrape-under-ingest race test (run
// under -race in CI).
func TestMetricsScrapeSmoke(t *testing.T) {
	run := simTraffic(t, 7, 40, 20*time.Minute)
	objects, err := store.NewFSObjects(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg, time.Now())
	flight := obs.NewFlight(1024)
	e := New(Config{
		Pipeline:       pipelineCfg(run, 60),
		Shards:         2,
		Backend:        store.NewMem(),
		MemoryBudget:   int64(tstore.PointBytes) * 200,
		TierObjects:    objects,
		TierCheckEvery: time.Millisecond,
		Obs:            reg,
		Flight:         flight,
	})
	ctx := context.Background()
	e.Start(ctx)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range e.Alerts() {
		}
	}()

	srv := query.NewServer(e)
	srv.ServeMetrics(reg)
	srv.ServeHealth(e.Health(HealthOptions{}))
	srv.ServeFlight(flight)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Scrape continuously while ingest runs: the registry, the health
	// surface and the flight ring must stay consistent (no torn reads,
	// no panics) under full write load.
	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	scrapes.Add(1)
	go func() {
		defer scrapes.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, path := range []string{"/metrics", "/healthz", "/readyz", "/debug/flight"} {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					t.Error(err)
				}
				resp.Body.Close()
				// /readyz may honestly report 503 while ingest outruns the
				// flush stage; every other surface must stay 200.
				if resp.StatusCode != http.StatusOK &&
					!(path == "/readyz" && resp.StatusCode == http.StatusServiceUnavailable) {
					t.Errorf("%s status %d", path, resp.StatusCode)
					return
				}
			}
		}
	}()
	for i := range run.Positions {
		o := &run.Positions[i]
		if !e.Ingest(ctx, o.At, &o.Report) {
			t.Fatal("ingest refused mid-stream")
		}
	}
	e.Close()
	<-drained
	e.Wait()
	close(stop)
	scrapes.Wait()

	// Populate the query families, then check one HTTP query round-trips
	// a trace. The engine runs no lane, so the ranked anomalies read
	// replays every vessel once; asked again, each is a memo hit.
	for _, req := range []query.Request{{Kind: query.KindStats}, {Kind: query.KindAnomalies}, {Kind: query.KindAnomalies}} {
		if _, err := e.Query(req); err != nil {
			t.Fatal(err)
		}
	}
	folds, _ := reg.Value("query_replay_folds_total", "kind", "anomalies")
	hits, _ := reg.Value("query_replay_hits_total", "kind", "anomalies")
	if folds == 0 || hits != folds {
		t.Errorf("ranked anomalies twice: %v re-folds then %v memo hits, want the same non-zero count", folds, hits)
	}
	resp, err := http.Get(ts.URL + "/v1/stats?trace=1")
	if err != nil {
		t.Fatal(err)
	}
	var res query.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(res.Trace) == 0 {
		t.Fatal("GET /v1/stats?trace=1 returned no trace spans")
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, family := range []string{
		// ingest
		"ingest_messages_in_total", "ingest_batch_append_ns", "ingest_shard_depth",
		// store
		"store_flush_out_total", "store_flush_batch_ns",
		// tier
		"tier_evictions_total", "tier_resident_points", "tier_pageback_ns",
		// query
		"query_requests_total", "query_latency_ns", "query_source_ns",
		"query_replay_hits_total", "query_replay_folds_total",
		// hub
		"hub_published_total", "hub_subscribers",
		// build identity
		"maritime_build_info", "maritime_uptime_seconds",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}

	// Quiesced, the engine is ready, and the flight ring replays the
	// run's transitions (tier evictions at minimum, given the 200-point
	// budget) as well-formed JSON.
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("quiesced /readyz = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/debug/flight?layer=tier")
	if err != nil {
		t.Fatal(err)
	}
	var flightDoc []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&flightDoc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(flightDoc) == 0 {
		t.Error("flight ring recorded no tier transitions under a 200-point budget")
	}

	// The JSON twin serves the same registry.
	resp, err = http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := vars["ingest_messages_in_total"]; !ok {
		t.Errorf("/debug/vars missing ingest_messages_in_total (got %d series)", len(vars))
	}
}

// TestTracePropagationAllKinds asserts every query kind records its
// per-source fan-out spans and its merge/assemble stage when Trace is
// requested — and records nothing when it is not.
func TestTracePropagationAllKinds(t *testing.T) {
	run := simTraffic(t, 9, 30, 20*time.Minute)
	_, e := runEngine(t, run, Config{Pipeline: pipelineCfg(run, 60), Shards: 3})
	bounds := run.Config.World.Bounds
	box := query.Box{
		MinLat: bounds.MinLat, MinLon: bounds.MinLon,
		MaxLat: bounds.MaxLat, MaxLon: bounds.MaxLon,
	}
	mmsi := run.Positions[0].Report.MMSI
	reqs := map[query.Kind]query.Request{
		query.KindTrajectory:   {Kind: query.KindTrajectory, MMSI: mmsi},
		query.KindSpaceTime:    {Kind: query.KindSpaceTime, Box: &box},
		query.KindNearest:      {Kind: query.KindNearest, Lat: 42, Lon: 5, K: 3},
		query.KindLivePicture:  {Kind: query.KindLivePicture, Box: &box},
		query.KindSituation:    {Kind: query.KindSituation, Box: &box},
		query.KindAlertHistory: {Kind: query.KindAlertHistory},
		query.KindStats:        {Kind: query.KindStats},
	}
	// The situation kind assembles rather than merges; every other kind
	// ends in a merge/dedup stage.
	mergeSpan := map[query.Kind]string{query.KindSituation: "assemble"}
	for kind, req := range reqs {
		req.Trace = true
		res, err := e.Query(req)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		names := make(map[string]bool, len(res.Trace))
		sourceSpans := 0
		for _, sp := range res.Trace {
			names[sp.Name] = true
			if strings.HasPrefix(sp.Name, "source:") {
				sourceSpans++
			}
		}
		if sourceSpans == 0 {
			t.Errorf("%s: no source:* spans in trace %v", kind, names)
		}
		want := mergeSpan[kind]
		if want == "" {
			want = "merge"
		}
		if !names[want] {
			t.Errorf("%s: missing %q span in trace %v", kind, want, names)
		}
		if !names["total"] {
			t.Errorf("%s: missing total span in trace %v", kind, names)
		}
	}

	// Untraced requests must not pay for span bookkeeping.
	res, err := e.Query(query.Request{Kind: query.KindStats})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 0 {
		t.Errorf("untraced request returned %d spans", len(res.Trace))
	}

	// A trace carried by the context is filled in even when the request
	// does not ask for wire spans — the in-process propagation path.
	tr := obs.NewTrace()
	ctx := obs.WithTrace(context.Background(), tr)
	if _, err := e.QueryContext(ctx, query.Request{Kind: query.KindStats}); err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans()) == 0 {
		t.Error("context-carried trace recorded no spans")
	}
}

// BenchmarkObsOverhead compares the ingest hot path with observability
// off (Config.Obs nil: instrumentation sites reduce to nil checks) and
// on (live registry). E19 reports the end-to-end ratio; this pins the
// per-message cost for CI's bench smoke.
func BenchmarkObsOverhead(b *testing.B) {
	run := simTraffic(b, 11, 200, 30*time.Minute)
	for _, mode := range []struct {
		name string
		reg  *obs.Registry
	}{
		{"off", nil},
		{"on", obs.NewRegistry()},
	} {
		b.Run(mode.name, func(b *testing.B) {
			e := New(Config{Pipeline: pipelineCfg(run, 60), Shards: 4, Obs: mode.reg})
			ctx := context.Background()
			e.Start(ctx)
			drained := make(chan struct{})
			go func() {
				defer close(drained)
				for range e.Alerts() {
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o := &run.Positions[i%len(run.Positions)]
				e.Ingest(ctx, o.At, &o.Report)
			}
			b.StopTimer()
			e.Close()
			<-drained
			e.Wait()
		})
	}
}
