package query

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/tstore"
)

// blockingPeer is a federation peer whose handler never answers: it
// parks until its request context ends (the caller hung up) and reports
// that on observed, or until the test releases it.
func blockingPeer(t *testing.T) (c *Client, observed <-chan struct{}) {
	t.Helper()
	seen := make(chan struct{}, 64) // one slot per request a test can plausibly issue; sends never block the handler
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Like the real handler, consume the request first: net/http only
		// watches for a hang-up once the body has been read.
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
			select {
			case seen <- struct{}{}:
			default:
			}
		case <-release:
		}
	}))
	t.Cleanup(func() {
		close(release)
		ts.Close()
	})
	c = NewClient(ts.URL)
	c.PeerName = "stuck"
	// Its own transport, so the goroutine accounting below is not blurred
	// by connections other tests left idle on the default one.
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	c.HTTP = &http.Client{Transport: tr}
	return c, seen
}

// TestCancelledQueryStopsWaitingOnPeers: a request whose context ends
// returns at once with the context's error — not after PeerTimeout — the
// peer sees the exchange abandoned, and no goroutine stays parked.
func TestCancelledQueryStopsWaitingOnPeers(t *testing.T) {
	box := Box{MinLat: 41, MinLon: 4, MaxLat: 46, MaxLon: 10}
	for _, req := range []Request{
		{Kind: KindSpaceTime, Box: &box},
		{Kind: KindSituation, Box: &box},
		{Kind: KindTrack, MMSI: 201000001},
		{Kind: KindAnomalies},
		{Kind: KindStats},
	} {
		t.Run(string(req.Kind), func(t *testing.T) {
			peer, observed := blockingPeer(t) // PeerTimeout left at its 5s default
			eng := NewEngine(NewStoreSource("local", fill(tstore.New(), testStates(3, 10))), peer)
			baseline := runtime.NumGoroutine()

			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(20*time.Millisecond, cancel)
			start := time.Now()
			res, err := eng.QueryContext(ctx, req)
			if took := time.Since(start); took > 100*time.Millisecond {
				t.Fatalf("cancelled query took %v, want well under the 5s peer timeout", took)
			}
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("cancelled query = %+v, %v; want context.Canceled and no partial answer", res, err)
			}
			select {
			case <-observed:
			case <-time.After(2 * time.Second):
				t.Fatal("peer handler never saw its request context end")
			}
			if peer.PeerErr() != nil {
				t.Fatalf("a caller giving up marked the peer degraded: %v", peer.PeerErr())
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines, baseline %d — still parked:\n%s",
						runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestUncancelledQueryStillDegrades: with nobody cancelling, the same
// stuck peer costs one PeerTimeout and degrades exactly as before — the
// local answer stands, stats carry the error, the trace a degraded span.
func TestUncancelledQueryStillDegrades(t *testing.T) {
	peer, _ := blockingPeer(t)
	peer.PeerTimeout = 100 * time.Millisecond
	eng := NewEngine(NewStoreSource("local", fill(tstore.New(), testStates(3, 10))), peer)
	box := Box{MinLat: 41, MinLon: 4, MaxLat: 46, MaxLon: 10}

	start := time.Now()
	res, err := eng.Query(Request{Kind: KindSpaceTime, Box: &box, Trace: true})
	if err != nil || res.Count != 30 {
		t.Fatalf("local answer under a stuck peer: %+v, %v", res, err)
	}
	if took := time.Since(start); took < peer.PeerTimeout || took > 2*time.Second {
		t.Fatalf("degrading took %v, want about one PeerTimeout (%v)", took, peer.PeerTimeout)
	}
	hop := "peer/" + peer.Base
	found := false
	for _, sp := range res.Trace {
		found = found || (sp.Name == hop+"/degraded" && sp.Parent == hop)
	}
	if !found {
		t.Fatalf("no %s/degraded span in %+v", hop, res.Trace)
	}
	if peer.PeerErr() == nil {
		t.Fatal("PeerErr should report the timeout")
	}
	stats, err := eng.Query(Request{Kind: KindStats})
	if err != nil {
		t.Fatal(err)
	}
	if ss := stats.Stats.Sources[1]; ss.Name != "stuck" || ss.Err == "" {
		t.Fatalf("degraded peer must surface its error in stats, got %+v", ss)
	}
}

// ctxProbe is an executor that parks every query until its context ends
// and reports having seen that.
type ctxProbe struct{ entered, released chan struct{} }

func (p ctxProbe) Query(Request) (*Result, error) {
	return nil, fmt.Errorf("ctxProbe: queried without a context")
}

func (p ctxProbe) QueryContext(ctx context.Context, _ Request) (*Result, error) {
	p.entered <- struct{}{}
	<-ctx.Done()
	p.released <- struct{}{}
	return nil, ctx.Err()
}

// TestTickerRecomputeEndsWithSubscription: a ticker kind's in-flight
// recompute runs under the subscription's context, so Cancel — or a
// /v1/stream client hanging up — releases it at once and the
// subscription ends cleanly instead of with the recompute's error.
func TestTickerRecomputeEndsWithSubscription(t *testing.T) {
	newProbe := func() ctxProbe {
		// Buffered for the single recompute each case lets start.
		return ctxProbe{entered: make(chan struct{}, 1), released: make(chan struct{}, 1)}
	}
	await := func(t *testing.T, ch chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(2 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
	}
	req := Request{Kind: KindPredict, MMSI: 7, Horizon: Duration(time.Minute)}
	opt := SubOptions{Tick: 10 * time.Millisecond}

	t.Run("cancel", func(t *testing.T) {
		probe := newProbe()
		sub, err := NewStreamer(NewHub(HubConfig{}), probe).Subscribe(req, opt)
		if err != nil {
			t.Fatal(err)
		}
		await(t, probe.entered, "the first recompute")
		sub.Cancel()
		await(t, probe.released, "the recompute to see its context end")
		if _, open := <-sub.Updates(); open {
			t.Fatal("cancelled ticker delivered an update")
		}
		if err := sub.Err(); err != nil {
			t.Fatalf("cancelled ticker ended with %v, want a clean close", err)
		}
	})

	t.Run("stream disconnect", func(t *testing.T) {
		probe := newProbe()
		ts := httptest.NewServer(NewServer(NewStreamer(NewHub(HubConfig{}), probe)))
		defer ts.Close()
		sub, err := NewClient(ts.URL).Subscribe(req, opt)
		if err != nil {
			t.Fatal(err)
		}
		await(t, probe.entered, "the first recompute")
		sub.Cancel() // the client hangs up; the server learns through r.Context()
		await(t, probe.released, "the server-side recompute to see the disconnect")
	})
}

// TestRequestSizeBounds pins the two input ceilings: a request whose
// field sizes an allocation is rejected past a fixed bound — by the
// kind's own check, so in-process, GET and POST agree — at the boundary
// exactly, naming the field, without the allocation ever happening.
func TestRequestSizeBounds(t *testing.T) {
	box := &Box{MinLat: 0, MinLon: 0, MaxLat: 1, MaxLon: 1}
	cases := []struct {
		name  string
		req   Request
		get   string
		field string // "" = accepted
	}{
		{"k at the bound", Request{Kind: KindNearest, K: 10000}, "/v1/nearest?point=0,0&k=10000", ""},
		{"k over the bound", Request{Kind: KindNearest, K: 10001}, "/v1/nearest?point=0,0&k=10001", " k "},
		{"k enormous", Request{Kind: KindNearest, K: 50000000}, "/v1/nearest?point=0,0&k=50000000", " k "},
		{"grid at the bound", Request{Kind: KindSituation, Box: box, Rows: 1024, Cols: 1024}, "", ""},
		{"grid over the bound", Request{Kind: KindSituation, Box: box, Rows: 1024, Cols: 1025}, "/v1/situation?box=0,0,1,1&rows=1024&cols=1025", "rows×cols"},
		{"grid enormous", Request{Kind: KindSituation, Box: box, Rows: 10000, Cols: 10000}, "/v1/situation?box=0,0,1,1&rows=10000&cols=10000", "rows×cols"},
		{"grid product overflows", Request{Kind: KindSituation, Box: box, Rows: 1 << 40, Cols: 1 << 40}, "", "rows×cols"},
		{"default rows count", Request{Kind: KindSituation, Box: box, Cols: 1 << 20}, "/v1/situation?box=0,0,1,1&cols=1048576", "rows×cols"},
		{"negative rows", Request{Kind: KindSituation, Box: box, Rows: -1, Cols: 4}, "/v1/situation?box=0,0,1,1&rows=-1&cols=4", "rows"},
		{"negative cols", Request{Kind: KindSituation, Box: box, Rows: 4, Cols: -1}, "/v1/situation?box=0,0,1,1&rows=4&cols=-1", "cols"},
	}
	eng := NewEngine(NewStoreSource("empty", tstore.New()))
	ts := httptest.NewServer(NewServer(eng))
	defer ts.Close()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.req.Validate()
			if c.field == "" {
				if err != nil {
					t.Fatalf("boundary value rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.field) {
				t.Fatalf("want an error naming %q, got %v", c.field, err)
			}
			// Rejected before anything is sized by the field: fast, and
			// nowhere near the 594 MB / 1.5 GB the unbounded forms cost.
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fastest := time.Hour
			for i := 0; i < 3; i++ { // best of three: one GC pause is not the rejection's cost
				start := time.Now()
				if _, qerr := eng.Query(c.req); qerr == nil {
					t.Fatal("engine executed an out-of-bounds request")
				}
				fastest = min(fastest, time.Since(start))
			}
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 || fastest > time.Millisecond {
				t.Fatalf("rejection allocated %d bytes over three tries, fastest %v", grew, fastest)
			}
			if allocs := testing.AllocsPerRun(10, func() { eng.Query(c.req) }); allocs > 64 {
				t.Fatalf("rejection costs %v allocations", allocs)
			}
			// 400 over HTTP, POST and (where the value fits a URL) GET.
			if status, body := httpDo(t, ts.URL+"/v1/query", js(c.req)); status != http.StatusBadRequest || !strings.Contains(body, c.field) {
				t.Fatalf("POST: %d %s", status, body)
			}
			if c.get != "" {
				if status, body := httpDo(t, ts.URL+c.get, ""); status != http.StatusBadRequest || !strings.Contains(body, c.field) {
					t.Fatalf("GET %s: %d %s", c.get, status, body)
				}
			}
		})
	}
	// The accepted boundary really runs.
	res, err := eng.Query(Request{Kind: KindNearest, K: 10000})
	if err != nil || res.Count != 0 {
		t.Fatalf("nearest at k=10000 on an empty store: %+v, %v", res, err)
	}
}
