package lane

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/tstore"
)

// sumFold is a minimal order-sensitive fold: a running hash of the
// record times it saw, surfacing a fact (its count) on every 5th record.
type sumFold struct {
	mmsi uint32
	n    int
	hash int64
}

func (f *sumFold) Observe(rec model.VesselState) int {
	f.n++
	f.hash = f.hash*31 + rec.At.Unix()
	if f.n%5 == 0 {
		return f.n
	}
	return 0
}

var t0 = time.Date(2017, 3, 21, 12, 0, 0, 0, time.UTC)

func states(mmsi uint32, n int) []model.VesselState {
	out := make([]model.VesselState, n)
	for i := range out {
		out[i] = model.VesselState{MMSI: mmsi, At: t0.Add(time.Duration(i) * time.Minute)}
	}
	return out
}

func newSumHost(n int, deliver func(int, bool)) *Host[*sumFold, int] {
	return New("sum", n, func(mmsi uint32) *sumFold { return &sumFold{mmsi: mmsi} }, deliver)
}

// TestHostContract pins what both lanes rely on the host for: routing by
// stream.ShardOf, Seed leaving exactly the state Append would (facts
// flagged seeded, delivered outside the shard lock), unknown vessels
// reading as absent, and the whole surface holding up under concurrent
// Append / Seed / View / Vessel (run with -race).
func TestHostContract(t *testing.T) {
	const shards, vessels, points = 4, 24, 40

	var live, seeded atomic.Int64
	var h *Host[*sumFold, int]
	h = newSumHost(shards, func(_ int, wasSeeded bool) {
		h.VesselCount() // takes every shard lock: deadlocks if deliver ran under one
		if wasSeeded {
			seeded.Add(1)
		} else {
			live.Add(1)
		}
	})
	var _ tstore.Sink = h.Stage(0)
	if h.Len() != shards || h.Name() != "sum" {
		t.Fatalf("host shape: %d shards, name %q", h.Len(), h.Name())
	}
	for v := uint32(1); v <= vessels; v++ {
		want := stream.ShardOf(uint64(v), shards)
		if h.Index(v) != want || h.ShardFor(v) != h.Stage(want) || h.Sink(want) != tstore.Sink(h.Stage(want)) {
			t.Fatalf("vessel %d routed off stream.ShardOf", v)
		}
	}

	// Half the fleet arrives live (one goroutine per vessel, appending to
	// its owning shard), half is seeded, while readers scan every shard.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := range shards {
		wg.Add(1)
		go func(s *Shard[*sumFold, int]) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s.View(func(vs map[uint32]*sumFold) {
						for _, f := range vs {
							_ = f.hash
						}
					})
					s.Vessel(1, func(f *sumFold) { _ = f.n })
				}
			}
		}(h.Stage(i))
	}
	var writers sync.WaitGroup
	for v := uint32(1); v <= vessels; v++ {
		writers.Add(1)
		go func(v uint32) {
			defer writers.Done()
			pts := states(v, points)
			if v%2 == 0 {
				h.Seed(v, pts)
				return
			}
			for _, p := range pts {
				if err := h.ShardFor(v).Append(p); err != nil {
					t.Error(err)
				}
			}
		}(v)
	}
	writers.Wait()
	close(stop)
	wg.Wait()

	if got := h.VesselCount(); got != vessels {
		t.Fatalf("VesselCount %d, want %d", got, vessels)
	}
	// Seed(pts) ≡ Append(pts...) on the fold state: every vessel, seeded
	// or live, ends where a plain sequential fold of its points ends.
	for v := uint32(1); v <= vessels; v++ {
		want := &sumFold{mmsi: v}
		for _, p := range states(v, points) {
			want.Observe(p)
		}
		var got sumFold
		if !h.ShardFor(v).Vessel(v, func(f *sumFold) { got = *f }) {
			t.Fatalf("vessel %d missing", v)
		}
		if got != *want {
			t.Fatalf("vessel %d state %+v, want %+v", v, got, *want)
		}
	}
	if want := int64(vessels / 2 * (points / 5)); live.Load() != want || seeded.Load() != want {
		t.Fatalf("facts delivered: %d live, %d seeded, want %d each", live.Load(), seeded.Load(), want)
	}
	if h.ShardFor(999).Vessel(999, func(*sumFold) { t.Error("fn ran for an unknown vessel") }) {
		t.Fatal("unknown vessel reported present")
	}
	if err := h.Stage(0).Append(); err != nil {
		t.Fatal(err)
	}
}

// TestHostInstrument pins the metric families the host registers under
// the lane's name, and that a nil deliver simply drops facts.
func TestHostInstrument(t *testing.T) {
	h := newSumHost(0, nil) // n < 1 clamps to one shard
	reg := obs.NewRegistry()
	h.Instrument(reg)
	for i := 0; i < 128; i++ { // 1/64 sampling: two timed appends
		if err := h.Stage(0).Append(states(7, 5)...); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok := reg.Value("sum_vessels"); !ok || v != 1 {
		t.Fatalf("sum_vessels = %v (registered %v), want 1", v, ok)
	}
	if _, ok := reg.Quantile("sum_append_ns", 0.5); !ok {
		t.Fatal("sum_append_ns recorded no sampled append")
	}
}
