package geo

// Polygon is a simple (non-self-intersecting) polygon on the sphere,
// represented by its vertices in order. The ring is implicitly closed; the
// last vertex should not repeat the first. Polygons are assumed small enough
// (sub-continental) that planar point-in-polygon on lat/lon is adequate,
// which holds for every maritime zone this library models (ports, protected
// areas, EEZ bands, lanes).
type Polygon struct {
	Vertices []Point
	bounds   Rect
	hasBound bool
}

// NewPolygon builds a polygon and precomputes its bounding box.
func NewPolygon(vertices []Point) *Polygon {
	p := &Polygon{Vertices: vertices}
	p.bounds = p.computeBounds()
	p.hasBound = true
	return p
}

func (pg *Polygon) computeBounds() Rect {
	r := EmptyRect()
	for _, v := range pg.Vertices {
		r = r.Extend(v)
	}
	return r
}

// Bounds returns the polygon's bounding box.
func (pg *Polygon) Bounds() Rect {
	if !pg.hasBound {
		pg.bounds = pg.computeBounds()
		pg.hasBound = true
	}
	return pg.bounds
}

// Contains reports whether p lies strictly inside the polygon, using the
// even-odd ray-casting rule on the lat/lon plane. Points exactly on an edge
// may be classified either way.
func (pg *Polygon) Contains(p Point) bool {
	if len(pg.Vertices) < 3 {
		return false
	}
	if !pg.Bounds().Contains(p) {
		return false
	}
	inside := false
	n := len(pg.Vertices)
	j := n - 1
	for i := 0; i < n; i++ {
		vi, vj := pg.Vertices[i], pg.Vertices[j]
		if (vi.Lat > p.Lat) != (vj.Lat > p.Lat) {
			xCross := vi.Lon + (p.Lat-vi.Lat)/(vj.Lat-vi.Lat)*(vj.Lon-vi.Lon)
			if p.Lon < xCross {
				inside = !inside
			}
		}
		j = i
	}
	return inside
}

// Centroid returns the planar centroid of the polygon's vertices (adequate
// for labelling and zone seeding).
func (pg *Polygon) Centroid() Point {
	var lat, lon float64
	n := float64(len(pg.Vertices))
	if n == 0 {
		return Point{}
	}
	for _, v := range pg.Vertices {
		lat += v.Lat
		lon += v.Lon
	}
	return Point{Lat: lat / n, Lon: lon / n}
}

// CirclePolygon approximates a circle of the given radius in metres centred
// at c by a regular polygon with n vertices (n >= 3).
func CirclePolygon(c Point, radius float64, n int) *Polygon {
	if n < 3 {
		n = 3
	}
	vs := make([]Point, n)
	for i := 0; i < n; i++ {
		vs[i] = Destination(c, float64(i)*360/float64(n), radius)
	}
	return NewPolygon(vs)
}

// RectPolygon converts a Rect into a 4-vertex polygon.
func RectPolygon(r Rect) *Polygon {
	return NewPolygon([]Point{
		{Lat: r.MinLat, Lon: r.MinLon},
		{Lat: r.MinLat, Lon: r.MaxLon},
		{Lat: r.MaxLat, Lon: r.MaxLon},
		{Lat: r.MaxLat, Lon: r.MinLon},
	})
}

// Polyline is an open sequence of points (a route or track geometry).
type Polyline struct {
	Points []Point
}

// Length returns the total great-circle length of the polyline in metres.
func (pl Polyline) Length() float64 {
	var total float64
	for i := 1; i < len(pl.Points); i++ {
		total += Distance(pl.Points[i-1], pl.Points[i])
	}
	return total
}

// PointAt returns the point at the given distance in metres from the start,
// clamped to the ends of the polyline.
func (pl Polyline) PointAt(dist float64) Point {
	if len(pl.Points) == 0 {
		return Point{}
	}
	if dist <= 0 {
		return pl.Points[0]
	}
	for i := 1; i < len(pl.Points); i++ {
		seg := Distance(pl.Points[i-1], pl.Points[i])
		if dist <= seg {
			if seg == 0 {
				return pl.Points[i]
			}
			return Interpolate(pl.Points[i-1], pl.Points[i], dist/seg)
		}
		dist -= seg
	}
	return pl.Points[len(pl.Points)-1]
}
