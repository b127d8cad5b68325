package ingest

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/sim"
)

// subRun simulates a small fleet for the subscription tests.
func subRun(t testing.TB, vessels int, minutes int) *sim.Run {
	t.Helper()
	run, err := sim.Simulate(sim.Config{
		Seed: 7, NumVessels: vessels,
		Duration: time.Duration(minutes) * time.Minute, TickSec: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func stateKey(mmsi uint32, at time.Time) string {
	return fmt.Sprintf("%d@%d", mmsi, at.UnixNano())
}

// TestStreamSubscriptionEquivalence pins the acceptance criterion: a
// standing spacetime subscription over /v1/stream delivers the same set
// of vessel states as a one-shot replay of the identical request issued
// after ingest completes.
func TestStreamSubscriptionEquivalence(t *testing.T) {
	run := subRun(t, 40, 20)
	e := New(Config{
		Pipeline: core.Config{DisableEvents: true},
		Shards:   4,
	})
	ctx := context.Background()
	e.Start(ctx)
	ts := httptest.NewServer(query.NewServer(e)) // ingest.Engine: Executor + Subscriber
	defer ts.Close()

	// The identical request, used both as the standing subscription and
	// as the one-shot replay afterwards.
	req := query.Request{
		Kind: query.KindSpaceTime,
		Box:  &query.Box{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180},
	}
	c := query.NewClient(ts.URL)
	sub, err := c.Subscribe(req, query.SubOptions{Buffer: 1 << 17}) // roomy: this test measures equivalence, not drops
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()

	pushed := make(map[string]query.State)
	var pushedMu sync.Mutex
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for u := range sub.Updates() {
			if u.Kind != query.UpdateState {
				continue
			}
			pushedMu.Lock()
			pushed[stateKey(u.State.MMSI, u.State.At)] = *u.State
			pushedMu.Unlock()
		}
	}()

	go func() {
		for ev := range e.Alerts() {
			_ = ev
		}
	}()
	for i := range run.Positions {
		o := &run.Positions[i]
		e.Ingest(ctx, o.At, &o.Report)
	}
	e.Close()
	e.Wait()

	// One-shot replay of the identical request after ingest completed.
	replay, err := c.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]query.State, len(replay.States))
	for _, s := range replay.States {
		want[stateKey(s.MMSI, s.At)] = s
	}

	// The subscription must converge on exactly the replayed set.
	deadline := time.Now().Add(10 * time.Second)
	for {
		pushedMu.Lock()
		n := len(pushed)
		pushedMu.Unlock()
		if n >= len(want) || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	sub.Cancel()
	<-drained
	if sub.Dropped() != 0 {
		t.Fatalf("equivalence run dropped %d updates — raise the buffer", sub.Dropped())
	}
	if len(pushed) != len(want) {
		t.Fatalf("subscription delivered %d distinct states, replay has %d", len(pushed), len(want))
	}
	for k, ws := range want {
		ps, ok := pushed[k]
		if !ok {
			t.Fatalf("state %s present in replay but never pushed", k)
		}
		if ps.Lat != ws.Lat || ps.Lon != ws.Lon || ps.SpeedKn != ws.SpeedKn {
			t.Fatalf("pushed state %s diverges from replayed: %+v vs %+v", k, ps, ws)
		}
	}
}

// TestSubscriptionDuringIngestRace streams a box watch while the engine
// ingests concurrently (run under -race in CI): pushed updates must be a
// subset-ordered view of the final archive state — every update present
// in the final archive, sequence numbers strictly increasing, per-vessel
// event times non-decreasing — and a deliberately slow consumer must be
// dropped-from and counted, never deadlocked.
func TestSubscriptionDuringIngestRace(t *testing.T) {
	run := subRun(t, 30, 15)
	e := New(Config{
		Pipeline: core.Config{DisableEvents: true},
		Shards:   4,
	})
	ctx := context.Background()
	e.Start(ctx)

	world := query.Box{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}
	watcher, err := e.Subscribe(query.Request{Kind: query.KindSpaceTime, Box: &world},
		query.SubOptions{Buffer: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	// The slow consumer: a 2-slot queue it drains with a delay, so drops
	// are guaranteed while ingest floods the hub.
	slow, err := e.Subscribe(query.Request{Kind: query.KindSpaceTime, Box: &world},
		query.SubOptions{Buffer: 2})
	if err != nil {
		t.Fatal(err)
	}

	type rec struct {
		seq   uint64
		state query.State
	}
	var got []rec
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for u := range watcher.Updates() {
			if u.Kind == query.UpdateState {
				got = append(got, rec{u.Seq, *u.State})
			}
		}
	}()
	go func() {
		defer wg.Done()
		for range slow.Updates() {
			time.Sleep(200 * time.Microsecond)
		}
	}()

	go func() {
		for range e.Alerts() {
		}
	}()
	for i := range run.Positions {
		o := &run.Positions[i]
		e.Ingest(ctx, o.At, &o.Report)
	}
	e.Close()
	e.Wait()
	watcher.Cancel()
	slow.Cancel()
	wg.Wait()

	if len(got) == 0 {
		t.Fatal("box watch saw nothing")
	}
	// Subset: every pushed update exists in the final archive.
	replay, err := e.Query(query.Request{Kind: query.KindSpaceTime, Box: &world})
	if err != nil {
		t.Fatal(err)
	}
	final := make(map[string]bool, len(replay.States))
	for _, s := range replay.States {
		final[stateKey(s.MMSI, s.At)] = true
	}
	lastPerVessel := map[uint32]time.Time{}
	for i, r := range got {
		if !final[stateKey(r.state.MMSI, r.state.At)] {
			t.Fatalf("pushed state %d@%v is not in the final archive", r.state.MMSI, r.state.At)
		}
		if i > 0 && r.seq <= got[i-1].seq {
			t.Fatalf("sequence regressed: %d after %d", r.seq, got[i-1].seq)
		}
		if last, ok := lastPerVessel[r.state.MMSI]; ok && r.state.At.Before(last) {
			t.Fatalf("vessel %d went back in time: %v after %v", r.state.MMSI, r.state.At, last)
		}
		lastPerVessel[r.state.MMSI] = r.state.At
	}
	// The slow consumer was dropped-from — and the drops are accounted.
	if slow.Dropped() == 0 {
		t.Fatal("slow consumer saw no drops: the test lost its teeth (shrink the buffer)")
	}
	m := e.hub.Metrics.Snapshot()
	if m.Dropped < int64(slow.Dropped()) {
		t.Fatalf("hub counts %d drops, slow consumer reports %d", m.Dropped, slow.Dropped())
	}
	if m.In == 0 {
		t.Fatal("hub published nothing")
	}
	if watcher.Dropped() != 0 {
		t.Fatalf("roomy watcher dropped %d updates", watcher.Dropped())
	}
}
