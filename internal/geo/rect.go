package geo

import "math"

// Rect is an axis-aligned geographic bounding box. MinLon may exceed MaxLon
// only for boxes produced by external code; the constructors in this package
// never produce antimeridian-crossing boxes (the simulator confines traffic
// to non-crossing basins, which keeps every index simple and correct).
type Rect struct {
	MinLat, MinLon float64
	MaxLat, MaxLon float64
}

// EmptyRect returns a rectangle that contains nothing and can be extended.
func EmptyRect() Rect {
	return Rect{
		MinLat: math.Inf(1), MinLon: math.Inf(1),
		MaxLat: math.Inf(-1), MaxLon: math.Inf(-1),
	}
}

// RectAround returns the bounding box of a circle of radius metres centred
// on p, clamped to valid latitudes.
//
//lint:ignore deadexport TestLiveGridSearchAgreesWithScan draws its probe boxes with it
func RectAround(p Point, radius float64) Rect {
	dLat := Degrees(radius / EarthRadius)
	cos := math.Cos(Radians(p.Lat))
	dLon := 180.0
	if cos > 1e-9 {
		dLon = Degrees(radius / (EarthRadius * cos))
	}
	r := Rect{
		MinLat: p.Lat - dLat, MaxLat: p.Lat + dLat,
		MinLon: p.Lon - dLon, MaxLon: p.Lon + dLon,
	}
	if r.MinLat < -90 {
		r.MinLat = -90
	}
	if r.MaxLat > 90 {
		r.MaxLat = 90
	}
	if r.MinLon < -180 {
		r.MinLon = -180
	}
	if r.MaxLon > 180 {
		r.MaxLon = 180
	}
	return r
}

// IsEmpty reports whether the rectangle contains no points.
func (r Rect) IsEmpty() bool { return r.MinLat > r.MaxLat || r.MinLon > r.MaxLon }

// Contains reports whether p lies inside or on the boundary of r.
func (r Rect) Contains(p Point) bool {
	return p.Lat >= r.MinLat && p.Lat <= r.MaxLat &&
		p.Lon >= r.MinLon && p.Lon <= r.MaxLon
}

// Intersects reports whether r and o share any point.
func (r Rect) Intersects(o Rect) bool {
	if r.IsEmpty() || o.IsEmpty() {
		return false
	}
	return r.MinLat <= o.MaxLat && o.MinLat <= r.MaxLat &&
		r.MinLon <= o.MaxLon && o.MinLon <= r.MaxLon
}

// Extend returns the smallest rectangle containing both r and p.
func (r Rect) Extend(p Point) Rect {
	if p.Lat < r.MinLat {
		r.MinLat = p.Lat
	}
	if p.Lat > r.MaxLat {
		r.MaxLat = p.Lat
	}
	if p.Lon < r.MinLon {
		r.MinLon = p.Lon
	}
	if p.Lon > r.MaxLon {
		r.MaxLon = p.Lon
	}
	return r
}

// Union returns the smallest rectangle containing both r and o.
func (r Rect) Union(o Rect) Rect {
	if r.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return r
	}
	return Rect{
		MinLat: math.Min(r.MinLat, o.MinLat),
		MinLon: math.Min(r.MinLon, o.MinLon),
		MaxLat: math.Max(r.MaxLat, o.MaxLat),
		MaxLon: math.Max(r.MaxLon, o.MaxLon),
	}
}

// Center returns the centre point of r.
func (r Rect) Center() Point {
	return Point{Lat: (r.MinLat + r.MaxLat) / 2, Lon: (r.MinLon + r.MaxLon) / 2}
}

// DistanceTo returns an admissible lower bound, in metres, of the
// great-circle distance from p to the nearest point of r: it never
// over-estimates, which is the property kNN search needs for pruning, and it
// is tight when the separation is dominated by either latitude or longitude
// alone.
func (r Rect) DistanceTo(p Point) float64 {
	if r.IsEmpty() {
		return math.Inf(1)
	}
	if r.Contains(p) {
		return 0
	}
	// Latitude bound: the meridional component alone is a lower bound on
	// the central angle.
	var dLat float64
	switch {
	case p.Lat < r.MinLat:
		dLat = r.MinLat - p.Lat
	case p.Lat > r.MaxLat:
		dLat = p.Lat - r.MaxLat
	}
	latBound := Radians(dLat) * EarthRadius

	// Longitude bound: haversine(angle) >= cosφ1·cosφ2·sin²(Δλ/2). To
	// lower-bound the right-hand side over every rect point, take the
	// minimum cos(lat) the rect can reach and the minimum wrapped
	// longitude separation.
	dLon := lonSeparation(p.Lon, r.MinLon, r.MaxLon)
	lonBound := 0.0
	if dLon > 0 {
		cosP := math.Cos(Radians(p.Lat))
		cosR := minCosLat(r.MinLat, r.MaxLat)
		s := math.Sqrt(cosP*cosR) * math.Abs(math.Sin(Radians(dLon)/2))
		if s > 1 {
			s = 1
		}
		lonBound = 2 * math.Asin(s) * EarthRadius
	}
	return math.Max(latBound, lonBound)
}

// lonSeparation returns the minimal wrapped angular separation in degrees
// between lon and the interval [minLon, maxLon], 0 if inside.
func lonSeparation(lon, minLon, maxLon float64) float64 {
	if lon >= minLon && lon <= maxLon {
		return 0
	}
	d1 := wrappedLonDiff(lon, minLon)
	d2 := wrappedLonDiff(lon, maxLon)
	return math.Min(d1, d2)
}

func wrappedLonDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d > 360 {
		d = math.Mod(d, 360)
	}
	if d > 180 {
		d = 360 - d
	}
	return d
}

// minCosLat returns the minimum of cos(lat) over [minLat, maxLat]; cos is
// unimodal with its peak at the equator, so the minimum sits at whichever
// endpoint is farther from it.
func minCosLat(minLat, maxLat float64) float64 {
	return math.Min(math.Cos(Radians(minLat)), math.Cos(Radians(maxLat)))
}
