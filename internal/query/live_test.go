package query

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/sim"
)

// mapMerge is the live picture's merge before mergeByMMSI, kept as its
// reference: every state into a map keyed by MMSI (a later one replaces
// the kept one only when strictly newer), then sorted by MMSI.
func mapMerge(lists [][]model.VesselState) []model.VesselState {
	newest := make(map[uint32]model.VesselState)
	for _, states := range lists {
		for _, st := range states {
			if prev, ok := newest[st.MMSI]; !ok || st.At.After(prev.At) {
				newest[st.MMSI] = st
			}
		}
	}
	out := make([]model.VesselState, 0, len(newest))
	for _, st := range newest {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MMSI < out[j].MMSI })
	return out
}

// TestMergeByMMSIMatchesMapMerge diffs mergeByMMSI against mapMerge on
// seeded random inputs: 1–4 MMSI-ordered lists (one state per vessel per
// list, as every Source.Live answers) drawn from 30 vessels, so lists
// overlap, with timestamps from 4 minutes, so equal-At ties between lists
// are common, and some lists empty. Each state's latitude names its list,
// so keeping the later list's state on a tie shows.
func TestMergeByMMSIMatchesMapMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := range 2000 {
		lists := make([][]model.VesselState, 1+rng.Intn(4))
		for i := range lists {
			if rng.Intn(5) == 0 {
				continue
			}
			for m := range 30 {
				if rng.Intn(2) == 0 {
					lists[i] = append(lists[i], model.VesselState{
						MMSI: uint32(201000000 + m),
						At:   t0.Add(time.Duration(rng.Intn(4)) * time.Minute),
						Pos:  geo.Point{Lat: float64(i), Lon: rng.Float64()},
					})
				}
			}
		}
		want := mapMerge(lists)
		if got := mergeByMMSI(lists); (len(got) > 0 || len(want) > 0) && !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d, %d lists: merge = %v\nmap merge = %v", trial, len(lists), got, want)
		}
	}
}

// livePictureFleet is the bench feed's fleet (seed 1, the Mediterranean
// world, 2000 vessels) ingested into 2 shards, the live picture and the
// fleet count a watch-floor read gathers.
func livePictureFleet(b *testing.B) *Engine {
	cfg := sim.Config{Seed: 1, World: sim.MediterraneanWorld(1), NumVessels: 2000, Duration: 5 * time.Minute, TickSec: 2}
	cfg.DefaultAnomalyRates()
	run, err := sim.Simulate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sharded := core.NewSharded(core.Config{Zones: cfg.World.Zones, DisableEvents: true}, 2)
	for i := range run.Positions {
		o := &run.Positions[i]
		sharded.ShardFor(o.Report.MMSI).Ingest(o.At, &o.Report)
	}
	return NewEngine(NewLiveSource(sharded))
}

// BenchmarkLivePicture times the watch floor's reads over a bench-shaped
// live picture: the whole sea a page of 100 at a time (bench's watch
// box, a fleet walk), a 2° box (the grid) and the fleet count of stats.
func BenchmarkLivePicture(b *testing.B) {
	eng := livePictureFleet(b)
	sea := Box{MinLat: 30, MinLon: -6, MaxLat: 46, MaxLon: 36}
	strait := Box{MinLat: 36, MinLon: 11, MaxLat: 38, MaxLon: 13}
	for _, bc := range []struct {
		name string
		req  Request
	}{
		{"sea", Request{Kind: KindLivePicture, Box: &sea, Limit: 100}},
		{"box2deg", Request{Kind: KindLivePicture, Box: &strait}},
		{"stats", Request{Kind: KindStats}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			if res, err := eng.Query(bc.req); err != nil || res.Count == 0 {
				b.Fatalf("%s: count %v, err %v", bc.name, res, err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if _, err := eng.Query(bc.req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
