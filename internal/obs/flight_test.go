package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestFlightWrapAround: a full ring keeps exactly the newest cap events,
// in total seq order, with the oldest overwritten.
func TestFlightWrapAround(t *testing.T) {
	f := NewFlight(8)
	for i := 1; i <= 20; i++ {
		f.Record(FlightInfo, "store", "seal", FI("seq", int64(i)))
	}
	evs := f.Events(FlightFilter{})
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want ring size 8", len(evs))
	}
	for i, ev := range evs {
		want := uint64(13 + i) // newest 8 of 20 are seqs 13..20
		if ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, want)
		}
		fs := ev.Fields()
		if len(fs) != 1 || fs[0].N != int64(want) {
			t.Fatalf("event %d fields = %+v, want seq field %d", i, fs, want)
		}
	}
	if f.Len() != 20 {
		t.Fatalf("Len = %d, want 20 recorded", f.Len())
	}
}

// TestFlightSizing: sizes round up to a power of two and <=0 defaults.
func TestFlightSizing(t *testing.T) {
	if n := len(NewFlight(100).slots); n != 128 {
		t.Fatalf("NewFlight(100) ring = %d slots, want 128", n)
	}
	if n := len(NewFlight(0).slots); n != 1024 {
		t.Fatalf("NewFlight(0) ring = %d slots, want default 1024", n)
	}
}

// TestFlightNilSafe: every method on a nil recorder is a no-op — that is
// the contract that lets call sites stay unconditional.
func TestFlightNilSafe(t *testing.T) {
	var f *Flight
	f.Record(FlightError, "tier", "page-back failed", FS("key", "x"))
	if f.Len() != 0 {
		t.Fatal("nil Len != 0")
	}
	if evs := f.Events(FlightFilter{}); evs != nil {
		t.Fatalf("nil Events = %v, want nil", evs)
	}
	var b bytes.Buffer
	f.Dump(&b)
	if b.Len() != 0 {
		t.Fatalf("nil Dump wrote %q", b.String())
	}
}

// TestFlightFilter: layer, min-level and since each narrow the snapshot.
func TestFlightFilter(t *testing.T) {
	f := NewFlight(32)
	f.Record(FlightInfo, "store", "seal")
	f.Record(FlightWarn, "hub", "drop")
	f.Record(FlightError, "tier", "page-back failed")
	cut := time.Now()
	f.Record(FlightWarn, "store", "upload stalled")

	if evs := f.Events(FlightFilter{Layer: "store"}); len(evs) != 2 {
		t.Fatalf("layer filter kept %d, want 2", len(evs))
	}
	evs := f.Events(FlightFilter{MinLevel: FlightWarn})
	if len(evs) != 3 {
		t.Fatalf("level filter kept %d, want 3", len(evs))
	}
	for _, ev := range evs {
		if ev.Level < FlightWarn {
			t.Fatalf("level filter admitted %v", ev.Level)
		}
	}
	if evs := f.Events(FlightFilter{Since: cut}); len(evs) != 1 || evs[0].Msg != "upload stalled" {
		t.Fatalf("since filter = %+v, want only the post-cut event", evs)
	}
}

// TestFlightExtraFieldsDropped: events carry at most flightKVs fields;
// the overflow is dropped rather than allocated for.
func TestFlightExtraFieldsDropped(t *testing.T) {
	f := NewFlight(8)
	f.Record(FlightInfo, "query", "slow",
		FI("a", 1), FI("b", 2), FI("c", 3), FI("d", 4), FI("e", 5))
	evs := f.Events(FlightFilter{})
	if len(evs) != 1 || len(evs[0].Fields()) != flightKVs {
		t.Fatalf("fields = %+v, want exactly %d", evs[0].Fields(), flightKVs)
	}
}

// TestFlightWriteJSON: the /debug/flight wire shape — seq, level
// spelling, and typed fields.
func TestFlightWriteJSON(t *testing.T) {
	f := NewFlight(8)
	f.Record(FlightWarn, "store", "upload queue stalled",
		FI("depth", 3), FS("head", "seg-7"))
	var b bytes.Buffer
	if err := f.WriteJSON(&b, FlightFilter{}); err != nil {
		t.Fatal(err)
	}
	var doc []struct {
		Seq    uint64         `json:"seq"`
		Level  string         `json:"level"`
		Layer  string         `json:"layer"`
		Msg    string         `json:"msg"`
		Fields map[string]any `json:"fields"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, b.String())
	}
	if len(doc) != 1 {
		t.Fatalf("got %d events, want 1", len(doc))
	}
	ev := doc[0]
	if ev.Seq != 1 || ev.Level != "warn" || ev.Layer != "store" {
		t.Fatalf("event = %+v", ev)
	}
	if ev.Fields["depth"] != float64(3) || ev.Fields["head"] != "seg-7" {
		t.Fatalf("fields = %+v", ev.Fields)
	}
}

// TestFlightDump: the SIGQUIT rendering is one line per event with k=v
// fields.
func TestFlightDump(t *testing.T) {
	f := NewFlight(8)
	f.Record(FlightError, "tier", "page-back failed", FS("key", "k1"), FI("try", 2))
	var b bytes.Buffer
	f.Dump(&b)
	line := b.String()
	for _, w := range []string{"[flight]", "error", "tier", "page-back failed", "key=k1", "try=2"} {
		if !strings.Contains(line, w) {
			t.Fatalf("dump missing %q:\n%s", w, line)
		}
	}
}

// TestFlightConcurrent hammers the ring from writer goroutines while
// readers scrape, under -race: every snapshot must be seq-sorted with no
// torn events (a slot's seq must match its payload field).
func TestFlightConcurrent(t *testing.T) {
	f := NewFlight(64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(layer string) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					f.Record(FlightInfo, layer, "tick", FI("i", int64(i)))
				}
			}
		}(fmt.Sprintf("w%d", w))
	}
	for i := 0; i < 200; i++ {
		evs := f.Events(FlightFilter{})
		for j := 1; j < len(evs); j++ {
			if evs[j-1].Seq >= evs[j].Seq {
				t.Fatalf("snapshot out of order: seq %d then %d", evs[j-1].Seq, evs[j].Seq)
			}
		}
		for _, ev := range evs {
			if len(ev.Fields()) != 1 || ev.Fields()[0].K != "i" {
				t.Fatalf("torn event: %+v", ev)
			}
		}
		if err := f.WriteJSON(&bytes.Buffer{}, FlightFilter{MinLevel: FlightWarn}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestFlightRecordZeroAlloc pins the always-on contract: a Record with
// fixed KV fields allocates nothing, so every layer can emit
// unconditionally.
func TestFlightRecordZeroAlloc(t *testing.T) {
	f := NewFlight(128)
	allocs := testing.AllocsPerRun(100, func() {
		f.Record(FlightInfo, "store", "segment sealed", FI("seq", 7), FI("bytes", 1<<20))
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f times per call; want 0", allocs)
	}
}

// TestTraceSpansSorted pins the deterministic trace contract: Spans
// returns (Start, Name) order regardless of completion or Add order, so
// federated traces render byte-stable.
func TestTraceSpansSorted(t *testing.T) {
	tr := NewTrace()
	tr.Add(Span{Name: "zeta", Start: 5 * time.Millisecond})
	tr.Add(Span{Name: "beta", Start: 2 * time.Millisecond})
	tr.Add(Span{Name: "alpha", Start: 2 * time.Millisecond})
	tr.Add(Span{Name: "root", Start: 0})
	got := tr.Spans()
	want := []string{"root", "alpha", "beta", "zeta"}
	for i, name := range want {
		if got[i].Name != name {
			t.Fatalf("span order = %v, want %v", names(got), want)
		}
	}
}

func names(spans []Span) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}

// TestTraceAddOffset: grafted spans survive with Parent intact, and
// Offset is monotone (it anchors rebased peer spans).
func TestTraceAddOffset(t *testing.T) {
	tr := NewTrace()
	tr.Add(Span{Name: "peer/x/scan", Parent: "peer/x", Start: time.Millisecond, Dur: time.Millisecond})
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Parent != "peer/x" {
		t.Fatalf("spans = %+v", spans)
	}
	if tr.Offset() < 0 {
		t.Fatal("negative offset")
	}
	var nilTr *Trace
	nilTr.Add(Span{Name: "x"})
	if nilTr.Offset() != 0 {
		t.Fatal("nil Offset != 0")
	}
}

// TestHealthEvaluate: critical failures flip the verdict; informational
// ones only annotate it.
func TestHealthEvaluate(t *testing.T) {
	h := NewHealth()
	ok := true
	h.Register(HealthCheck{Name: "flush-backlog", Critical: true,
		Check: func() (bool, string) { return ok, "depth=0" }})
	h.Register(HealthCheck{Name: "peer:a",
		Check: func() (bool, string) { return false, "unreachable" }})

	v := h.Evaluate()
	if !v.Ready {
		t.Fatalf("informational failure flipped readiness: %+v", v)
	}
	if len(v.Checks) != 2 || v.Checks[0].Name != "flush-backlog" || v.Checks[1].OK {
		t.Fatalf("checks = %+v", v.Checks)
	}

	ok = false
	if v := h.Evaluate(); v.Ready {
		t.Fatalf("critical failure did not flip readiness: %+v", v)
	}
	ok = true
	if v := h.Evaluate(); !v.Ready {
		t.Fatalf("readiness did not recover: %+v", v)
	}

	var nilH *Health
	if v := nilH.Evaluate(); !v.Ready || len(v.Checks) != 0 {
		t.Fatalf("nil health = %+v, want ready/no checks", v)
	}
}

// TestBuildInfo: the metrics land in the registry and the revision is
// never empty (unknown at worst).
func TestBuildInfo(t *testing.T) {
	rev, gover := BuildInfo()
	if rev == "" || gover == "" {
		t.Fatalf("BuildInfo = %q, %q; want non-empty", rev, gover)
	}
	r := NewRegistry()
	start := time.Now().Add(-3 * time.Second)
	RegisterBuildInfo(r, start)
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "maritime_build_info{") {
		t.Fatalf("missing build info metric:\n%s", out)
	}
	if !strings.Contains(out, "maritime_uptime_seconds") {
		t.Fatalf("missing uptime gauge:\n%s", out)
	}
	if v, okv := r.Value("maritime_uptime_seconds"); !okv || v < 2.5 {
		t.Fatalf("uptime = %v,%v; want >= 2.5s", v, okv)
	}
}

// BenchmarkFlightRecord is the always-on emit cost every layer pays at a
// load-bearing transition.
func BenchmarkFlightRecord(b *testing.B) {
	f := NewFlight(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Record(FlightInfo, "store", "segment sealed", FI("seq", int64(i)), FI("bytes", 1<<20))
	}
}

// Len returns the number of events recorded so far (not retained —
// the ring keeps the newest cap(slots)). Nil-safe.
func (f *Flight) Len() uint64 {
	if f == nil {
		return 0
	}
	return f.seq.Load()
}
