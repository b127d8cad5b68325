package obs

import (
	"bytes"
	"context"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramSmallValuesExact: buckets 0..15 are identity-mapped, so
// tiny samples come back exactly.
func TestHistogramSmallValuesExact(t *testing.T) {
	h := NewHistogram()
	for v := int64(0); v < 16; v++ {
		h.Observe(v)
	}
	if got := h.Quantile(0.5); got != 7 {
		t.Fatalf("p50 of 0..15 = %d, want 7 (nearest rank)", got)
	}
	if got := h.Snapshot().Max; got != 15 {
		t.Fatalf("max = %d, want 15", got)
	}
	if got := h.Snapshot().Count; got != 16 {
		t.Fatalf("count = %d, want 16", got)
	}
}

// TestHistogramAccuracy checks the quantile estimate against a sorted
// reference on a heavy-tailed latency-like distribution. The log-linear
// buckets are 1/16 wide, so the midpoint estimate must land within a
// few percent of the exact nearest-rank value.
func TestHistogramAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHistogram()
	const n = 50000
	ref := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		// Log-normal around e^10 ns ≈ 22µs with a wide tail, the
		// shape of real query latencies.
		v := int64(math.Exp(rng.NormFloat64()*1.5 + 10))
		ref = append(ref, v)
		h.Observe(v)
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		rank := int(math.Ceil(p * float64(n)))
		want := ref[rank-1]
		got := h.Quantile(p)
		relErr := math.Abs(float64(got-want)) / float64(want)
		if relErr > 0.05 {
			t.Errorf("p%.3f: got %d want %d (rel err %.4f)", p*100, got, want, relErr)
		}
	}
	var sum int64
	for _, v := range ref {
		sum += v
	}
	if h.Snapshot().Sum != sum {
		t.Errorf("sum = %d, want %d", h.Snapshot().Sum, sum)
	}
	if h.Snapshot().Max != ref[n-1] {
		t.Errorf("max = %d, want %d", h.Snapshot().Max, ref[n-1])
	}
	// The top quantile estimate never exceeds the observed max.
	if h.Quantile(1.0) != ref[n-1] {
		t.Errorf("p100 = %d, want max %d", h.Quantile(1.0), ref[n-1])
	}
}

// TestHistogramHugeAndNegative: out-of-range samples clamp instead of
// corrupting the bucket array.
func TestHistogramHugeAndNegative(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5)
	h.Observe(1 << 62)
	if h.Snapshot().Count != 2 {
		t.Fatalf("count = %d, want 2", h.Snapshot().Count)
	}
	if h.Quantile(0.25) != 0 {
		t.Fatalf("low quantile = %d, want 0", h.Quantile(0.25))
	}
	if h.Quantile(1.0) != 1<<62 {
		t.Fatalf("p100 = %d, want clamp to max", h.Quantile(1.0))
	}
}

// TestRegistryKinds: get-or-create returns the same metric, and a kind
// clash panics.
func TestRegistryKinds(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "shard", "0")
	c.Add(3)
	if r.Counter("x_total", "shard", "0") != c {
		t.Fatal("same series returned a different counter")
	}
	if v, ok := r.Value("x_total", "shard", "0"); !ok || v != 3 {
		t.Fatalf("Value = %v,%v want 3,true", v, ok)
	}
	r.GaugeFunc("f", func() float64 { return 1 })
	r.GaugeFunc("f", func() float64 { return 2 }) // latest wins
	if v, _ := r.Value("f"); v != 2 {
		t.Fatalf("re-registered func = %v, want 2", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind clash did not panic")
		}
	}()
	r.Gauge("x_total", "shard", "0")
}

// TestWritePrometheusFormat: families get one TYPE line, histograms
// render as summaries with spliced quantile labels.
func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("ingest_messages_in_total").Add(41)
	r.Gauge("tier_resident_points", "shard", "1").Set(7)
	h := r.Histogram("query_latency_ns", "kind", "nearest")
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * 1000)
	}
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, w := range []string{
		"# TYPE ingest_messages_in_total counter\n",
		"ingest_messages_in_total 41\n",
		"# TYPE tier_resident_points gauge\n",
		`tier_resident_points{shard="1"} 7` + "\n",
		"# TYPE query_latency_ns summary\n",
		`query_latency_ns{kind="nearest",quantile="0.5"}`,
		`query_latency_ns_sum{kind="nearest"}`,
		`query_latency_ns_count{kind="nearest"} 100`,
	} {
		if !strings.Contains(out, w) {
			t.Errorf("output missing %q\n%s", w, out)
		}
	}
}

// TestWriteJSON: scalars are numbers, histograms are objects.
func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(5)
	r.Histogram("b_ns").Observe(1000)
	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `"a_total": 5`) {
		t.Errorf("missing scalar: %s", out)
	}
	if !strings.Contains(out, `"count": 1`) {
		t.Errorf("missing histogram object: %s", out)
	}
}

// TestConcurrentScrape hammers counters and a histogram from writer
// goroutines while a reader scrapes, checking (under -race) that the
// export is well-formed and counter values never go backwards.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("w_total")
	h := r.Histogram("w_ns")
	stop := make(chan struct{})
	var wg, started sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			c.Inc()
			h.Observe(12345)
			started.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(12345)
				}
			}
		}()
	}
	started.Wait()
	var last float64 = -1
	for i := 0; i < 200; i++ {
		var b bytes.Buffer
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
			if strings.HasPrefix(line, "w_total ") {
				v, err := strconv.ParseFloat(strings.TrimPrefix(line, "w_total "), 64)
				if err != nil {
					t.Fatalf("unparsable counter line %q: %v", line, err)
				}
				if v < last {
					t.Fatalf("counter went backwards: %g -> %g", last, v)
				}
				last = v
			}
		}
	}
	close(stop)
	wg.Wait()
	if last < 1 {
		t.Fatalf("scrapes never saw the counter move (last=%g)", last)
	}
}

// TestScrapeAllocationLight bounds the per-scrape allocation cost: a
// capture slice, one output buffer, and small change — not per-line
// garbage.
func TestScrapeAllocationLight(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 20; i++ {
		r.Counter("c_total", "i", strconv.Itoa(i)).Add(int64(i))
	}
	for i := 0; i < 5; i++ {
		h := r.Histogram("h_ns", "i", strconv.Itoa(i))
		h.Observe(int64(i) * 100)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := r.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("WritePrometheus allocates %.0f times per scrape for 25 series; want <= 8", allocs)
	}
}

// TestTrace: spans record offsets and durations, nil traces no-op, and
// the context round-trip preserves identity.
func TestTrace(t *testing.T) {
	tr := NewTrace()
	end := tr.StartSpan("stage_a")
	time.Sleep(2 * time.Millisecond)
	end()
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Name != "stage_a" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Dur < time.Millisecond {
		t.Fatalf("span duration %v too short", spans[0].Dur)
	}

	var nilTr *Trace
	nilTr.StartSpan("x")() // must not panic
	if nilTr.Spans() != nil {
		t.Fatal("nil trace returned spans")
	}

	ctx := WithTrace(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("context round-trip lost the trace")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context returned a trace")
	}
	if WithTrace(context.Background(), nil) != context.Background() {
		t.Fatal("nil trace should not wrap the context")
	}
}

// TestTraceConcurrentSpans: per-source goroutines append concurrently.
func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer tr.StartSpan("src")()
		}()
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 8 {
		t.Fatalf("got %d spans, want 8", got)
	}
}

// BenchmarkHistogramObserve is the hot-path cost every instrumented
// layer pays per sample.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

// BenchmarkWritePrometheus is the scrape cost for a realistic registry.
func BenchmarkWritePrometheus(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 30; i++ {
		r.Counter("c_total", "i", strconv.Itoa(i)).Add(int64(i))
	}
	for i := 0; i < 10; i++ {
		r.Histogram("h_ns", "i", strconv.Itoa(i)).Observe(int64(i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// Add adjusts the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }
