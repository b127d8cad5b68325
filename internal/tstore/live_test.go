package tstore

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/sim"
)

// TestLiveMatchesBruteForce feeds a seeded sim fleet through a Live with
// 0.25° cells, in batches, and after every batch diffs InRect, Count and
// MMSIs against a brute-force filter of the last state each vessel was
// updated with. The boxes are the ones a grid gets wrong first: a
// vessel's own cell and its 3×3 block (edges exactly on cell lines), a
// box cornered exactly on a vessel, a 0.1° probe around a vessel, the
// whole sea and the whole world. Two more boxes grow east from a vessel
// until their cell span just passes Count: the last one at or below it
// (InRect reads the grid) and the first one above it (InRect walks the
// fleet). Writing into a slice MMSIs returned must change neither read.
func TestLiveMatchesBruteForce(t *testing.T) {
	cfg := sim.Config{Seed: 4, World: sim.MediterraneanWorld(1), NumVessels: 40, Duration: 90 * time.Minute, TickSec: 2}
	cfg.DefaultAnomalyRates()
	run, err := sim.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const cellDeg = 0.25
	grid := geo.NewGrid(cellDeg)
	live, ref := NewLive(cellDeg), map[uint32]model.VesselState{}
	sea := geo.Rect{MinLat: 30, MinLon: -6, MaxLat: 46, MaxLon: 37}
	world := geo.Rect{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}

	inRect := func(r geo.Rect) []model.VesselState {
		var out []model.VesselState
		for _, s := range ref {
			if r.Contains(s.Pos) {
				out = append(out, s)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].MMSI < out[j].MMSI })
		return out
	}
	check := func(batch int, boxes []geo.Rect) {
		t.Helper()
		for _, r := range boxes {
			if got, want := live.InRect(r), inRect(r); !reflect.DeepEqual(got, want) {
				t.Fatalf("batch %d: InRect(%+v) = %d states, brute force %d (or they differ)", batch, r, len(got), len(want))
			}
		}
		mmsis := make([]uint32, 0, len(ref))
		for m := range ref {
			mmsis = append(mmsis, m)
		}
		sort.Slice(mmsis, func(i, j int) bool { return mmsis[i] < mmsis[j] })
		got := live.MMSIs()
		if live.Count() != len(ref) || !reflect.DeepEqual(got, mmsis) {
			t.Fatalf("batch %d: Count %d, MMSIs %v; brute force %d, %v", batch, live.Count(), got, len(ref), mmsis)
		}
		for i := range got {
			got[i] = 0
		}
		if got, want := live.InRect(world), inRect(world); !reflect.DeepEqual(live.MMSIs(), mmsis) || !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d: writing into the MMSIs slice changed the next MMSIs or InRect", batch)
		}
	}
	// straddle returns the boxes around s whose cell spans sit just at or
	// below and just above the live vessel count; ok is false while the
	// band around s alone spans more cells than there are vessels.
	straddles := 0
	straddle := func(s model.VesselState) (below, above geo.Rect, ok bool) {
		t.Helper()
		r := geo.Rect{MinLat: s.Pos.Lat - 0.1, MinLon: s.Pos.Lon, MaxLat: s.Pos.Lat + 0.1, MaxLon: s.Pos.Lon}
		if grid.NumCellsInRect(r) > live.Count() {
			return below, above, false
		}
		for ; grid.NumCellsInRect(r) <= live.Count(); r.MaxLon += cellDeg {
			below = r
		}
		if n := live.Count(); grid.NumCellsInRect(below) > n || grid.NumCellsInRect(r) <= n || grid.NumCellsInRect(r)-n > 2 {
			t.Fatalf("boxes span %d and %d cells, not around %d vessels", grid.NumCellsInRect(below), grid.NumCellsInRect(r), n)
		}
		straddles++
		return below, r, true
	}
	check(-1, []geo.Rect{sea, world})

	const batchLen = 500
	cellChanges := 0
	for lo, batch := 0, 0; lo < len(run.Positions); lo, batch = lo+batchLen, batch+1 {
		var boxes []geo.Rect
		for i := lo; i < min(lo+batchLen, len(run.Positions)); i++ {
			o := &run.Positions[i]
			s := model.FromReport(o.At, &o.Report)
			if prev, ok := ref[s.MMSI]; ok && grid.Cell(prev.Pos) != grid.Cell(s.Pos) {
				cellChanges++
			}
			live.Update(s)
			ref[s.MMSI] = s
			if i%97 == 0 {
				cell := grid.CellRect(grid.Cell(s.Pos))
				block := geo.Rect{MinLat: cell.MinLat - cellDeg, MinLon: cell.MinLon - cellDeg, MaxLat: cell.MaxLat + cellDeg, MaxLon: cell.MaxLon + cellDeg}
				corner := geo.Rect{MinLat: s.Pos.Lat, MinLon: s.Pos.Lon, MaxLat: s.Pos.Lat + 0.3, MaxLon: s.Pos.Lon + 0.3}
				probe := geo.Rect{MinLat: s.Pos.Lat - 0.05, MinLon: s.Pos.Lon - 0.05, MaxLat: s.Pos.Lat + 0.05, MaxLon: s.Pos.Lon + 0.05}
				boxes = append(boxes, cell, block, corner, probe)
				if below, above, ok := straddle(s); ok {
					boxes = append(boxes, below, above)
				}
			}
		}
		check(batch, append(boxes, sea, world))
	}
	if straddles < 20 {
		t.Fatalf("only %d box pairs straddled the vessel count; both InRect paths need asserting", straddles)
	}
	if cellChanges < 40 {
		t.Fatalf("only %d updates moved a vessel to another cell; the feed must exercise remove", cellChanges)
	}
}

// TestLiveReadsDuringUpdates reads a Live from two goroutines while a
// third adds and moves vessels: every MMSIs and every InRect, walked or
// gridded, must be strictly MMSI-ordered and inside its box. Run it under
// -race: the fleet order grows while it is read.
func TestLiveReadsDuringUpdates(t *testing.T) {
	live := NewLive(0.25)
	world := geo.Rect{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}
	box := geo.Rect{MinLat: 38, MinLon: 8, MaxLat: 39, MaxLon: 9}
	ascending := func(ms []uint32) bool {
		for i := 1; i < len(ms); i++ {
			if ms[i-1] >= ms[i] {
				return false
			}
		}
		return true
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(2)
	for range 2 {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, r := range []geo.Rect{world, box} {
					var ms []uint32
					for _, s := range live.InRect(r) {
						if !r.Contains(s.Pos) {
							t.Errorf("InRect(%+v) returned %d at %v", r, s.MMSI, s.Pos)
							return
						}
						ms = append(ms, s.MMSI)
					}
					if !ascending(ms) {
						t.Errorf("InRect(%+v) not strictly MMSI-ordered", r)
						return
					}
				}
				if !ascending(live.MMSIs()) {
					t.Error("MMSIs not strictly ascending")
					return
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(3))
	for i := range 3000 {
		live.Update(model.VesselState{
			MMSI: uint32(rng.Intn(500)), At: time.Unix(int64(i), 0),
			Pos: geo.Point{Lat: 37 + rng.Float64()*3, Lon: 7 + rng.Float64()*3},
		})
	}
	close(done)
	wg.Wait()
}

// newLiveGrid returns an empty liveGrid with the given cell size, as
// NewLive builds it.
func newLiveGrid(cellDeg float64) *liveGrid {
	return &NewLive(cellDeg).grid
}

func sortedMMSIs(ms []uint32) []uint32 {
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	return ms
}

// TestLiveGridSearchAgreesWithScan files 3000 random Mediterranean points
// in 0.5° cells and checks 50 random boxes of 30–330 km against a linear
// scan of the same points.
func TestLiveGridSearchAgreesWithScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]geo.Point, 3000)
	g := newLiveGrid(0.5)
	for i := range pts {
		pts[i] = geo.Point{Lat: 30 + rng.Float64()*15, Lon: -5 + rng.Float64()*40}
		g.insert(pts[i], uint32(i))
	}
	for trial := 0; trial < 50; trial++ {
		c := geo.Point{Lat: 30 + rng.Float64()*15, Lon: -5 + rng.Float64()*40}
		r := geo.RectAround(c, 30000+rng.Float64()*300000)
		var want []uint32
		for i, p := range pts {
			if r.Contains(p) {
				want = append(want, uint32(i))
			}
		}
		if got := sortedMMSIs(g.search(r)); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: search = %d vessels, scan %d (or they differ)", trial, len(got), len(want))
		}
	}
}

// TestLiveGridRemove removes one of two vessels sharing a cell, then
// removes it again: the second remove must be a no-op, and only the
// other vessel must be left.
func TestLiveGridRemove(t *testing.T) {
	g := newLiveGrid(0.5)
	pos := geo.Point{Lat: 37, Lon: 10}
	g.insert(pos, 42)
	g.insert(geo.Point{Lat: 37.01, Lon: 10.01}, 43)
	g.remove(pos, 42)
	g.remove(pos, 42)
	if left := g.search(geo.RectAround(pos, 5000)); !reflect.DeepEqual(left, []uint32{43}) {
		t.Errorf("left after remove: %v, want [43]", left)
	}
	g.remove(geo.Point{Lat: 37.01, Lon: 10.01}, 43)
	if len(g.cells) != 0 {
		t.Errorf("%d cells left after removing every vessel", len(g.cells))
	}
}

// TestLiveGridEmpty reads an empty grid and an empty Live.
func TestLiveGridEmpty(t *testing.T) {
	world := geo.Rect{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}
	if got := newLiveGrid(0.5).search(world); len(got) != 0 {
		t.Errorf("empty grid search: %v", got)
	}
	live := NewLive(0.5)
	if live.Count() != 0 || len(live.MMSIs()) != 0 || len(live.InRect(world)) != 0 {
		t.Errorf("empty Live: Count %d, MMSIs %v, InRect %v", live.Count(), live.MMSIs(), live.InRect(world))
	}
}
