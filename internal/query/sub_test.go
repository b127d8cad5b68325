package query

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/tstore"
)

// collect drains n updates (with a deadline) from a subscription.
func collect(t *testing.T, sub *Subscription, n int) []Update {
	t.Helper()
	var out []Update
	deadline := time.After(5 * time.Second)
	for len(out) < n {
		select {
		case u, ok := <-sub.Updates():
			if !ok {
				t.Fatalf("subscription closed after %d of %d updates (err: %v)", len(out), n, sub.Err())
			}
			out = append(out, u)
		case <-deadline:
			t.Fatalf("timed out after %d of %d updates", len(out), n)
		}
	}
	return out
}

func TestHubFiltersByKind(t *testing.T) {
	hub := NewHub(HubConfig{})
	states := testStates(4, 10)                                       // vessels 201000001..4 marching NE
	box := Box{MinLat: 42.0, MinLon: 5.0, MaxLat: 42.04, MaxLon: 5.2} // vessel 1's lane only

	follow, err := hub.Subscribe(Request{Kind: KindTrajectory, MMSI: 201000002}, SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	watch, err := hub.Subscribe(Request{Kind: KindSpaceTime, Box: &box}, SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	windowed, err := hub.Subscribe(Request{
		Kind: KindTrajectory, MMSI: 201000002, From: t0, To: t0.Add(4 * time.Minute),
	}, SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	alerts, err := hub.Subscribe(Request{Kind: KindAlertHistory, MinSeverity: 3}, SubOptions{})
	if err != nil {
		t.Fatal(err)
	}

	for _, s := range states {
		hub.PublishState(s)
	}
	hub.PublishAlert(events.Alert{Kind: "rendezvous", MMSI: 7, At: t0, Severity: 2})
	hub.PublishAlert(events.Alert{Kind: "dark-period", MMSI: 8, At: t0, Severity: 4})

	for _, u := range collect(t, follow, 10) {
		if u.Kind != UpdateState || u.State.MMSI != 201000002 {
			t.Fatalf("follow leaked %+v", u)
		}
	}
	inBox := 0
	for _, s := range states {
		if box.Rect().Contains(s.Pos) {
			inBox++
		}
	}
	got := collect(t, watch, inBox)
	for _, u := range got {
		if !box.Rect().Contains(u.State.Model().Pos) {
			t.Fatalf("box watch leaked %+v", u.State)
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatalf("updates out of sequence: %d after %d", got[i].Seq, got[i-1].Seq)
		}
	}
	for _, u := range collect(t, windowed, 5) { // minutes 0..4 inclusive
		if u.State.At.After(t0.Add(4 * time.Minute)) {
			t.Fatalf("time-windowed follow leaked %+v", u.State)
		}
	}
	au := collect(t, alerts, 1)
	if au[0].Alert.Kind != "dark-period" || au[0].Alert.Severity != 4 {
		t.Fatalf("alert feed delivered %+v, want the sev4 dark-period only", au[0].Alert)
	}
	if d := follow.Dropped() + watch.Dropped() + windowed.Dropped() + alerts.Dropped(); d != 0 {
		t.Fatalf("unexpected drops: %d", d)
	}
}

func TestHubRejectsUnstreamableKinds(t *testing.T) {
	hub := NewHub(HubConfig{})
	for _, k := range []Kind{KindNearest, KindStats} {
		req := Request{Kind: k, K: 1}
		if _, err := hub.Subscribe(req, SubOptions{}); err == nil ||
			!strings.Contains(err.Error(), "not streamable") {
			t.Fatalf("kind %s: want not-streamable error, got %v", k, err)
		}
	}
	// Situation needs an executor: hub alone refuses, a Streamer serves it.
	box := Box{MinLat: 0, MinLon: 0, MaxLat: 1, MaxLon: 1}
	if _, err := hub.Subscribe(Request{Kind: KindSituation, Box: &box}, SubOptions{}); err == nil {
		t.Fatal("hub should refuse situation subscriptions")
	}
	// Invalid requests are rejected exactly like one-shot queries.
	if _, err := hub.Subscribe(Request{Kind: KindSpaceTime}, SubOptions{}); err == nil ||
		!strings.Contains(err.Error(), "requires box") {
		t.Fatalf("want validation error, got %v", err)
	}
}

func TestHubSlowConsumerDropsNotBlocks(t *testing.T) {
	hub := NewHub(HubConfig{})
	world := Box{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}
	sub, err := hub.Subscribe(Request{Kind: KindLivePicture, Box: &world}, SubOptions{Buffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	states := testStates(2, 50)
	done := make(chan struct{})
	go func() { // must complete even though nobody drains the subscription
		for _, s := range states {
			hub.PublishState(s)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher blocked on a slow consumer")
	}
	if got := sub.Delivered() + sub.Dropped(); got != uint64(len(states)) {
		t.Fatalf("delivered %d + dropped %d != published %d", sub.Delivered(), sub.Dropped(), len(states))
	}
	if sub.Dropped() == 0 {
		t.Fatal("expected drops with buffer 4 and 100 updates")
	}
	m := hub.Metrics.Snapshot()
	if m.In != int64(len(states)) || m.Dropped != int64(sub.Dropped()) || m.Out != int64(sub.Delivered()) {
		t.Fatalf("hub metrics %+v inconsistent with subscription (delivered %d, dropped %d)",
			m, sub.Delivered(), sub.Dropped())
	}
}

func TestHubResumeFromSequence(t *testing.T) {
	hub := NewHub(HubConfig{})
	world := Box{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}
	// Arm the hub so publications are retained for replay.
	first, err := hub.Subscribe(Request{Kind: KindLivePicture, Box: &world}, SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	states := testStates(1, 20)
	for _, s := range states {
		hub.PublishState(s)
	}
	got := collect(t, first, 20)
	cut := got[11].Seq // "disconnect" after the 12th update
	first.Cancel()

	resumed, err := hub.Subscribe(Request{Kind: KindLivePicture, Box: &world}, SubOptions{FromSeq: cut})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.StartSeq() != cut {
		t.Fatalf("resume start seq %d, want %d", resumed.StartSeq(), cut)
	}
	replay := collect(t, resumed, 8)
	for i, u := range replay {
		if want := cut + uint64(i) + 1; u.Seq != want {
			t.Fatalf("replay seq %d at %d, want %d", u.Seq, i, want)
		}
		if !u.State.At.Equal(states[12+i].At) {
			t.Fatalf("replayed state %d is %v, want %v", i, u.State.At, states[12+i].At)
		}
	}
	// And the stream continues live after the replay.
	hub.PublishState(states[0])
	if u := collect(t, resumed, 1)[0]; u.Seq != got[19].Seq+1 {
		t.Fatalf("post-replay live update seq %d, want %d", u.Seq, got[19].Seq+1)
	}
}

// TestHubResumeFromZero pins the Resume flag: a subscriber that attached
// at sequence 0 and lost its stream before receiving anything resumes
// with FromSeq 0 — which must replay everything retained, not silently
// re-subscribe "from now".
func TestHubResumeFromZero(t *testing.T) {
	hub := NewHub(HubConfig{})
	world := Box{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}
	first, _ := hub.Subscribe(Request{Kind: KindLivePicture, Box: &world}, SubOptions{})
	states := testStates(1, 10)
	for _, s := range states {
		hub.PublishState(s)
	}
	first.Cancel() // "disconnected" having delivered nothing to the consumer

	fresh, err := hub.Subscribe(Request{Kind: KindLivePicture, Box: &world}, SubOptions{FromSeq: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Cancel()
	if got := len(fresh.Updates()); got != 0 {
		t.Fatalf("fresh subscribe (no Resume) replayed %d updates, want 0", got)
	}
	resumed, err := hub.Subscribe(Request{Kind: KindLivePicture, Box: &world},
		SubOptions{FromSeq: 0, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Cancel()
	replay := collect(t, resumed, 10)
	for i, u := range replay {
		if u.Seq != uint64(i+1) {
			t.Fatalf("resume-from-zero replay seq %d at %d, want %d", u.Seq, i, i+1)
		}
	}
}

func TestHubReplayIsBoundedByRing(t *testing.T) {
	hub := NewHub(HubConfig{Replay: 8})
	world := Box{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}
	armed, _ := hub.Subscribe(Request{Kind: KindLivePicture, Box: &world}, SubOptions{Buffer: 64})
	defer armed.Cancel()
	states := testStates(1, 30)
	for _, s := range states {
		hub.PublishState(s)
	}
	// Ask for everything: only the last 8 survive the ring.
	sub, err := hub.Subscribe(Request{Kind: KindLivePicture, Box: &world}, SubOptions{FromSeq: 1, Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	replay := collect(t, sub, 8)
	if first := replay[0].Seq; first != 23 { // seqs 23..30 of 30
		t.Fatalf("bounded replay starts at seq %d, want 23 (gap detectable: FromSeq+1 was 2)", first)
	}
}

func TestSubscriptionCancelIsCleanAndIdempotent(t *testing.T) {
	hub := NewHub(HubConfig{})
	world := Box{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}
	sub, err := hub.Subscribe(Request{Kind: KindLivePicture, Box: &world}, SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sub.Cancel()
	sub.Cancel() // idempotent
	if _, ok := <-sub.Updates(); ok {
		t.Fatal("updates channel should be closed after Cancel")
	}
	if hub.Subscribers() != 0 {
		t.Fatalf("hub still tracks %d subscribers", hub.Subscribers())
	}
	hub.PublishState(testStates(1, 1)[0]) // must not panic on the closed sub
	if err := sub.Err(); err != nil {
		t.Fatalf("plain cancel should leave Err nil, got %v", err)
	}
}

// benchmarkHubFanout measures publish cost with n live subscribers all
// matching every update (the E17 fan-out section's inner loop).
func benchmarkHubFanout(b *testing.B, subs int) {
	hub := NewHub(HubConfig{})
	world := Box{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}
	for i := 0; i < subs; i++ {
		sub, err := hub.Subscribe(Request{Kind: KindLivePicture, Box: &world}, SubOptions{Buffer: 1024})
		if err != nil {
			b.Fatal(err)
		}
		defer sub.Cancel() // drainers exit when the deferred Cancels close their channels
		go func() {
			for range sub.Updates() {
			}
		}()
	}
	s := testStates(1, 1)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hub.PublishState(s)
	}
}

func BenchmarkHubFanout1(b *testing.B)   { benchmarkHubFanout(b, 1) }
func BenchmarkHubFanout16(b *testing.B)  { benchmarkHubFanout(b, 16) }
func BenchmarkHubFanout128(b *testing.B) { benchmarkHubFanout(b, 128) }

func TestStreamerSituationTicker(t *testing.T) {
	st := fill(tstore.New(), testStates(6, 12))
	eng := NewEngine(NewStoreSource("archive", st))
	hub := NewHub(HubConfig{})
	str := NewStreamer(hub, eng)
	box := Box{MinLat: 41, MinLon: 4, MaxLat: 45, MaxLon: 9}
	sub, err := str.Subscribe(Request{Kind: KindSituation, Box: &box}, SubOptions{Tick: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	ticks := collect(t, sub, 3)
	for _, u := range ticks {
		if u.Kind != UpdateSituation || u.Situation == nil {
			t.Fatalf("situation ticker pushed %+v", u)
		}
		if len(u.Situation.Vessels) != 6 {
			t.Fatalf("situation has %d vessels, want 6", len(u.Situation.Vessels))
		}
	}
	// The ticker pushes the same picture a one-shot situation query returns.
	res, err := eng.Query(Request{Kind: KindSituation, Box: &box})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Situation.Vessels) != fmt.Sprint(ticks[0].Situation.Vessels) {
		t.Fatal("ticker situation diverges from the one-shot answer")
	}
	sub.Cancel()
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, ok := <-sub.Updates():
			if !ok {
				return // closed after cancel: ticker stopped
			}
		case <-deadline:
			t.Fatal("situation ticker did not stop after Cancel")
		}
	}
}

// Delivered counts updates enqueued to this subscription.
func (s *Subscription) Delivered() uint64 { return s.delivered.Load() }
