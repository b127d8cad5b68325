// Package zones models the quasi-static geographic context maritime
// surveillance correlates vessel movement against: ports, anchorages,
// protected areas, fishing zones, exclusive-economic-zone bands, shipping
// lanes and traffic-separation schemes. A ZoneSet answers point-in-zone
// queries, accelerated by a coarse grid so that per-position
// enrichment stays O(zones overlapping the cell) instead of O(all zones).
package zones

import (
	"fmt"
	"sort"

	"repro/internal/geo"
)

// Kind classifies a zone.
type Kind int

// Zone kinds.
const (
	KindPort Kind = iota
	KindAnchorage
	KindProtectedArea
	KindFishingArea
	KindEEZ
	KindShippingLane
	KindSeparationScheme
	KindRestrictedArea
)

var kindNames = map[Kind]string{
	KindPort:             "port",
	KindAnchorage:        "anchorage",
	KindProtectedArea:    "protected-area",
	KindFishingArea:      "fishing-area",
	KindEEZ:              "eez",
	KindShippingLane:     "shipping-lane",
	KindSeparationScheme: "separation-scheme",
	KindRestrictedArea:   "restricted-area",
}

// String returns the kind's canonical name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Zone is a named polygonal area with a kind.
type Zone struct {
	ID   string
	Name string
	Kind Kind
	Area *geo.Polygon
}

// Contains reports whether p is inside the zone.
func (z *Zone) Contains(p geo.Point) bool { return z.Area.Contains(p) }

// ZoneSet is an immutable, queryable collection of zones. Build it once
// with NewZoneSet; queries are then safe for concurrent use.
type ZoneSet struct {
	zones []*Zone
	grid  geo.Grid
	cells map[geo.CellID][]int // cell -> indices of zones whose bbox intersects
}

// NewZoneSet indexes the given zones. The grid resolution is chosen from
// the median zone size; callers can pass zones of wildly different extents.
func NewZoneSet(zs []*Zone) *ZoneSet {
	s := &ZoneSet{
		zones: zs,
		grid:  geo.NewGrid(1.0),
		cells: make(map[geo.CellID][]int),
	}
	for i, z := range zs {
		for _, c := range s.grid.CellsInRect(z.Area.Bounds(), nil) {
			s.cells[c] = append(s.cells[c], i)
		}
	}
	return s
}

// Len returns the number of zones in the set.
func (s *ZoneSet) Len() int { return len(s.zones) }

// All returns the zones in the set (shared slice; do not modify).
func (s *ZoneSet) All() []*Zone { return s.zones }

// At returns every zone containing p, sorted by ID for determinism.
func (s *ZoneSet) At(p geo.Point) []*Zone {
	var out []*Zone
	for _, i := range s.cells[s.grid.Cell(p)] {
		z := s.zones[i]
		if z.Contains(p) {
			out = append(out, z)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// InAny reports whether p is inside at least one zone of kind k.
func (s *ZoneSet) InAny(p geo.Point, k Kind) bool {
	for _, i := range s.cells[s.grid.Cell(p)] {
		z := s.zones[i]
		if z.Kind == k && z.Contains(p) {
			return true
		}
	}
	return false
}

// PortZone is a convenience constructor: a circular port area of the given
// radius in metres.
func PortZone(id, name string, center geo.Point, radius float64) *Zone {
	return &Zone{
		ID:   id,
		Name: name,
		Kind: KindPort,
		Area: geo.CirclePolygon(center, radius, 16),
	}
}

// RectZone is a convenience constructor for rectangular areas.
func RectZone(id, name string, k Kind, r geo.Rect) *Zone {
	return &Zone{ID: id, Name: name, Kind: k, Area: geo.RectPolygon(r)}
}

// LaneZone builds a shipping-lane corridor of the given half-width in
// metres around a path.
func LaneZone(id, name string, path []geo.Point, halfWidth float64) *Zone {
	if len(path) < 2 {
		return &Zone{ID: id, Name: name, Kind: KindShippingLane, Area: geo.NewPolygon(nil)}
	}
	// Offset each path vertex perpendicular to the local course, left and
	// right, then stitch the two sides into a ring.
	left := make([]geo.Point, len(path))
	right := make([]geo.Point, len(path))
	for i, p := range path {
		var brg float64
		switch {
		case i == 0:
			brg = geo.Bearing(path[0], path[1])
		case i == len(path)-1:
			brg = geo.Bearing(path[len(path)-2], path[len(path)-1])
		default:
			// Average the in/out bearings for a smooth joint.
			b1 := geo.Bearing(path[i-1], p)
			b2 := geo.Bearing(p, path[i+1])
			brg = meanBearing(b1, b2)
		}
		left[i] = geo.Destination(p, geo.NormalizeBearing(brg-90), halfWidth)
		right[i] = geo.Destination(p, geo.NormalizeBearing(brg+90), halfWidth)
	}
	ring := make([]geo.Point, 0, 2*len(path))
	ring = append(ring, left...)
	for i := len(right) - 1; i >= 0; i-- {
		ring = append(ring, right[i])
	}
	return &Zone{ID: id, Name: name, Kind: KindShippingLane, Area: geo.NewPolygon(ring)}
}

func meanBearing(b1, b2 float64) float64 {
	diff := geo.NormalizeBearing(b2 - b1)
	if diff > 180 {
		diff -= 360
	}
	return geo.NormalizeBearing(b1 + diff/2)
}
