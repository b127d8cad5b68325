package query

import (
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/tstore"
)

// startStreamServerOn binds a hub-backed streaming server to a specific
// address — the restart half of the epoch test needs the replacement
// daemon to come up where the old one died.
func startStreamServerOn(t *testing.T, addr string) (*httptest.Server, *Hub) {
	t.Helper()
	var ln net.Listener
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("re-listening on %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	hub := NewHub(HubConfig{})
	eng := NewEngine(NewStoreSource("archive", tstore.New()))
	srv := httptest.NewUnstartedServer(NewServer(NewStreamer(hub, eng)))
	srv.Listener.Close()
	srv.Listener = ln
	srv.Start()
	return srv, hub
}

// TestStreamResumeAcrossEpochRewinds pins the daemon-restart behaviour
// of a standing query: the replacement daemon has a fresh epoch and a
// fresh sequence space, so the client's cursor is meaningless. Before
// epochs, the resume silently continued live-only with a stale cursor;
// now the client detects the epoch change on the opening heartbeat,
// resets its cursor, counts the rewind and delivers an UpdateRewound
// marker so the consumer sees the discontinuity.
func TestStreamResumeAcrossEpochRewinds(t *testing.T) {
	first, hub1 := startStreamServerOn(t, "127.0.0.1:0")
	addr := first.Listener.Addr().String()

	c := NewClient(first.URL)
	c.Retry = RetryPolicy{Max: 10, BaseDelay: 20 * time.Millisecond}
	world := Box{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}
	sub, err := c.Subscribe(Request{Kind: KindLivePicture, Box: &world},
		SubOptions{Heartbeat: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	if sub.Epoch() == 0 || sub.Epoch() != hub1.Epoch() {
		t.Fatalf("subscription epoch %x, want hub epoch %x", sub.Epoch(), hub1.Epoch())
	}

	states := testStates(1, 10)
	for _, s := range states[:5] {
		hub1.PublishState(s)
	}
	before := collect(t, sub, 5)
	if last := before[len(before)-1].Seq; last != 5 {
		t.Fatalf("pre-restart cursor is %d, want 5", last)
	}

	// "Restart" the daemon: kill the first server outright and bring a
	// fresh one (new hub, new epoch, sequences starting over) up on the
	// same address. The client's auto-resume lands on it carrying the
	// old cursor. (Listener first, then connections — and no blocking
	// Close(), which would deadlock against the client's immediate
	// re-subscribe attempts racing onto the dying server.)
	first.Listener.Close()
	first.CloseClientConnections()
	second, hub2 := startStreamServerOn(t, addr)
	defer func() {
		// Cancel the standing stream before Close — Close waits for
		// connections to idle, and a live stream never does.
		sub.Cancel()
		second.CloseClientConnections()
		second.Close()
	}()

	// Wait for the resumed subscription to attach before publishing —
	// a hub publishes to subscribers only.
	deadline := time.Now().Add(10 * time.Second)
	for hub2.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("client never resumed onto the restarted daemon (err: %v)", sub.Err())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, s := range states[5:] {
		hub2.PublishState(s)
	}

	after := collect(t, sub, 6)
	if after[0].Kind != UpdateRewound {
		t.Fatalf("first post-restart update is %s, want %s", after[0].Kind, UpdateRewound)
	}
	if after[0].Epoch != hub2.Epoch() {
		t.Fatalf("rewound marker carries epoch %x, want %x", after[0].Epoch, hub2.Epoch())
	}
	for i, u := range after[1:] {
		if u.Kind != UpdateState {
			t.Fatalf("post-rewind update %d is %s, want state", i, u.Kind)
		}
		if want := uint64(i + 1); u.Seq != want {
			t.Fatalf("post-rewind update %d has seq %d, want %d (cursor must reset into the new sequence space)", i, u.Seq, want)
		}
		if !u.State.At.Equal(states[5+i].At) {
			t.Fatalf("post-rewind update %d carries state at %v, want %v", i, u.State.At, states[5+i].At)
		}
	}
	if got := sub.Rewound(); got != 1 {
		t.Fatalf("Rewound() = %d, want 1", got)
	}
	if sub.Epoch() != hub2.Epoch() {
		t.Fatalf("subscription epoch %x after rewind, want %x", sub.Epoch(), hub2.Epoch())
	}
	if err := sub.Err(); err != nil {
		t.Fatalf("rewound stream must stay healthy, got %v", err)
	}
}

// TestHubEpochsDistinct guards the nonce: two hubs in one process (let
// alone across restarts) never share an epoch, and zero is reserved.
func TestHubEpochsDistinct(t *testing.T) {
	a, b := NewHub(HubConfig{}), NewHub(HubConfig{})
	if a.Epoch() == 0 || b.Epoch() == 0 {
		t.Fatal("epoch 0 is reserved for unknown")
	}
	if a.Epoch() == b.Epoch() {
		t.Fatal("two hubs drew the same epoch nonce")
	}
}

// Epoch returns the hub's instance nonce: the identifier of the sequence
// space its updates are numbered in, stamped on stream heartbeats so
// resuming clients can tell a restart from a blip.
func (h *Hub) Epoch() uint64 { return h.epoch }
