package tstore

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/sim"
)

// FuzzLoad is the snapshot reader's oracle: Load takes post-crash or
// foreign bytes and must never panic; a load that succeeds is a fixed
// point (the store it built writes bytes that load into a store writing
// the same bytes); every loaded vessel's VesselLen equals the length of
// its trajectory — the count the query layer's replay memo keys on is the
// history the bytes hold; and every series' run summaries and bound equal
// those recomputed from its points — the summaries reads prune by describe
// the points the bytes hold.
//
// Bounded run: go test -run='^$' -fuzz=FuzzLoad -fuzztime=15s ./internal/tstore
func FuzzLoad(f *testing.F) {
	for _, seed := range loadSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st := New()
		if _, err := st.Load(bytes.NewReader(data)); err != nil {
			return
		}
		checkSummaries(t, st)
		for _, mmsi := range st.MMSIs() {
			if n, pts := st.VesselLen(mmsi), len(st.Trajectory(mmsi).Points); n != pts {
				t.Fatalf("vessel %d: VesselLen %d, trajectory %d points", mmsi, n, pts)
			}
		}
		var first bytes.Buffer
		if _, err := st.WriteTo(&first); err != nil {
			t.Fatal(err)
		}
		again := New()
		if _, err := again.Load(bytes.NewReader(first.Bytes())); err != nil {
			t.Fatalf("a store's own snapshot does not load: %v", err)
		}
		var second bytes.Buffer
		if _, err := again.WriteTo(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("WriteTo ∘ Load ∘ WriteTo is not a fixed point: %d bytes, then %d", first.Len(), second.Len())
		}
	})
}

// loadSeeds is the corpus the fuzzer starts from: the snapshot of a small
// simulated fleet (long enough that vessels fill several run summaries),
// its truncations (mid-header, mid-vessel, mid-record)
// and copies with one bit flipped in the magic, the vessel count, the
// first point count and the first record.
func loadSeeds(tb testing.TB) [][]byte {
	cfg := sim.Config{Seed: 9, NumVessels: 3, Duration: 40 * time.Minute, TickSec: 2}
	cfg.DefaultAnomalyRates()
	run, err := sim.Simulate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	st := New()
	for i := range run.Positions {
		o := &run.Positions[i]
		st.Append(model.FromReport(o.At, &o.Report))
	}
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	whole := buf.Bytes()
	seeds := [][]byte{whole, nil, whole[:5], whole[:10], whole[:len(whole)/2], whole[:len(whole)-1]}
	for _, bit := range []int{3, 6*8 + 1, 14*8 + 2, 20*8 + 5} {
		flipped := bytes.Clone(whole)
		flipped[bit/8] ^= 1 << (bit % 8)
		seeds = append(seeds, flipped)
	}
	return seeds
}
