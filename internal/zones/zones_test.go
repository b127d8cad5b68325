package zones

import (
	"testing"

	"repro/internal/geo"
)

func testSet() *ZoneSet {
	return NewZoneSet([]*Zone{
		PortZone("port-a", "Port Alpha", geo.Point{Lat: 43.0, Lon: 5.0}, 5000),
		PortZone("port-b", "Port Bravo", geo.Point{Lat: 44.0, Lon: 9.0}, 8000),
		RectZone("mpa-1", "Reserve One", KindProtectedArea,
			geo.Rect{MinLat: 42.0, MinLon: 6.0, MaxLat: 42.5, MaxLon: 6.8}),
		RectZone("eez-1", "EEZ Band", KindEEZ,
			geo.Rect{MinLat: 41.0, MinLon: 3.0, MaxLat: 45.0, MaxLon: 10.0}),
		LaneZone("lane-1", "Coastal Lane",
			[]geo.Point{{Lat: 42.8, Lon: 4.5}, {Lat: 43.2, Lon: 6.5}, {Lat: 43.6, Lon: 8.5}}, 10000),
	})
}

func TestZoneSetAt(t *testing.T) {
	s := testSet()
	inPort := geo.Point{Lat: 43.0, Lon: 5.01}
	got := s.At(inPort)
	ids := map[string]bool{}
	for _, z := range got {
		ids[z.ID] = true
	}
	if !ids["port-a"] {
		t.Errorf("point in port should match port-a, got %v", ids)
	}
	if !ids["eez-1"] {
		t.Errorf("point should also be inside the EEZ band")
	}
	if ids["port-b"] || ids["mpa-1"] {
		t.Errorf("point should not match distant zones: %v", ids)
	}
}

func TestZoneSetDeterministicOrder(t *testing.T) {
	s := testSet()
	p := geo.Point{Lat: 43.0, Lon: 5.01}
	a := s.At(p)
	b := s.At(p)
	if len(a) != len(b) {
		t.Fatal("non-deterministic result size")
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatal("non-deterministic order")
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].ID >= a[i].ID {
			t.Fatal("results not sorted by ID")
		}
	}
}

func TestInAny(t *testing.T) {
	s := testSet()
	if !s.InAny(geo.Point{Lat: 42.2, Lon: 6.4}, KindProtectedArea) {
		t.Error("point inside reserve should report true")
	}
	if s.InAny(geo.Point{Lat: 43.0, Lon: 5.0}, KindProtectedArea) {
		t.Error("port point is not in a protected area")
	}
	if !s.InAny(geo.Point{Lat: 43.0, Lon: 5.0}, KindEEZ) {
		t.Error("port point is inside the EEZ")
	}
}

func TestLaneZoneGeometry(t *testing.T) {
	path := []geo.Point{{Lat: 43.0, Lon: 4.0}, {Lat: 43.0, Lon: 6.0}}
	lane := LaneZone("l", "L", path, 5000)
	mid := geo.Point{Lat: 43.0, Lon: 5.0}
	if !lane.Contains(mid) {
		t.Error("lane must contain its centreline")
	}
	// 3 km either side: inside; 8 km: outside.
	north := geo.Destination(mid, 0, 3000)
	south := geo.Destination(mid, 180, 3000)
	if !lane.Contains(north) || !lane.Contains(south) {
		t.Error("lane must contain points within the half-width")
	}
	far := geo.Destination(mid, 0, 8000)
	if lane.Contains(far) {
		t.Error("lane must not contain points beyond the half-width")
	}
}

func TestLaneZoneDegenerate(t *testing.T) {
	lane := LaneZone("l", "L", []geo.Point{{Lat: 1, Lon: 1}}, 5000)
	if lane.Contains(geo.Point{Lat: 1, Lon: 1}) {
		t.Error("degenerate lane contains nothing")
	}
}

func TestByID(t *testing.T) {
	s := testSet()
	byID := map[string]*Zone{}
	for _, z := range s.All() {
		byID[z.ID] = z
	}
	if byID["port-a"] == nil || byID["nope"] != nil {
		t.Error("ID lookup broken")
	}
	if s.Len() != 5 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestKindString(t *testing.T) {
	if KindPort.String() != "port" || KindEEZ.String() != "eez" {
		t.Error("kind names broken")
	}
	if Kind(99).String() != "kind(99)" {
		t.Error("unknown kind formatting broken")
	}
}

func BenchmarkZoneLookup(b *testing.B) {
	s := testSet()
	p := geo.Point{Lat: 43.0, Lon: 5.01}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.At(p)
	}
}

func BenchmarkInAny(b *testing.B) {
	s := testSet()
	p := geo.Point{Lat: 42.2, Lon: 6.4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.InAny(p, KindProtectedArea)
	}
}
