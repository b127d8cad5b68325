// Package geo provides the geodetic substrate for the maritime library:
// positions on the WGS-84 sphere, great-circle distance and interpolation,
// bearings, projections, bounding boxes, polygons and polylines.
//
// All angular quantities in the public API are expressed in degrees
// (latitude in [-90, 90], longitude in [-180, 180], bearings in [0, 360)),
// distances in metres and speeds in metres per second, unless a name says
// otherwise. The Earth is modelled as a sphere of radius EarthRadius, which
// is accurate to ~0.5% — more than enough for maritime surveillance work
// where AIS GPS accuracy is itself on the order of 10 m.
package geo

import (
	"fmt"
	"math"
)

// EarthRadius is the mean Earth radius in metres (IUGG value).
const EarthRadius = 6371008.8

// NauticalMile is one nautical mile in metres.
const NauticalMile = 1852.0

// Knot is one knot in metres per second.
const Knot = NauticalMile / 3600.0

// Point is a geographic position in degrees.
type Point struct {
	Lat float64 // latitude, degrees north
	Lon float64 // longitude, degrees east
}

// String implements fmt.Stringer with a compact "lat,lon" rendering.
func (p Point) String() string {
	return fmt.Sprintf("%.5f,%.5f", p.Lat, p.Lon)
}

// Valid reports whether p is a plausible geographic coordinate.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

// Radians converts degrees to radians.
func Radians(deg float64) float64 { return deg * math.Pi / 180 }

// Degrees converts radians to degrees.
func Degrees(rad float64) float64 { return rad * 180 / math.Pi }

// NormalizeLon wraps a longitude into [-180, 180).
func NormalizeLon(lon float64) float64 {
	lon = math.Mod(lon+180, 360)
	if lon < 0 {
		lon += 360
	}
	return lon - 180
}

// NormalizeBearing wraps a bearing into [0, 360).
func NormalizeBearing(b float64) float64 {
	b = math.Mod(b, 360)
	if b < 0 {
		b += 360
	}
	return b
}

// Distance returns the great-circle distance between a and b in metres,
// computed with the haversine formula (stable for small distances).
func Distance(a, b Point) float64 {
	la1, lo1 := Radians(a.Lat), Radians(a.Lon)
	la2, lo2 := Radians(b.Lat), Radians(b.Lon)
	dla := la2 - la1
	dlo := lo2 - lo1
	s1 := math.Sin(dla / 2)
	s2 := math.Sin(dlo / 2)
	h := s1*s1 + math.Cos(la1)*math.Cos(la2)*s2*s2
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadius * math.Asin(math.Sqrt(h))
}

// Bearing returns the initial great-circle bearing from a to b in degrees
// clockwise from true north, in [0, 360).
func Bearing(a, b Point) float64 {
	la1, lo1 := Radians(a.Lat), Radians(a.Lon)
	la2, lo2 := Radians(b.Lat), Radians(b.Lon)
	dlo := lo2 - lo1
	y := math.Sin(dlo) * math.Cos(la2)
	x := math.Cos(la1)*math.Sin(la2) - math.Sin(la1)*math.Cos(la2)*math.Cos(dlo)
	return NormalizeBearing(Degrees(math.Atan2(y, x)))
}

// Destination returns the point reached travelling dist metres from p on the
// initial bearing (degrees).
func Destination(p Point, bearing, dist float64) Point {
	la1, lo1 := Radians(p.Lat), Radians(p.Lon)
	br := Radians(bearing)
	ad := dist / EarthRadius
	la2 := math.Asin(math.Sin(la1)*math.Cos(ad) + math.Cos(la1)*math.Sin(ad)*math.Cos(br))
	lo2 := lo1 + math.Atan2(math.Sin(br)*math.Sin(ad)*math.Cos(la1),
		math.Cos(ad)-math.Sin(la1)*math.Sin(la2))
	return Point{Lat: Degrees(la2), Lon: NormalizeLon(Degrees(lo2))}
}

// Interpolate returns the point a fraction f (0..1) of the way along the
// great circle from a to b. f outside [0,1] extrapolates.
func Interpolate(a, b Point, f float64) Point {
	//lint:ignore floateq identical-endpoint fast path: only bitwise-equal inputs may skip the spherical math
	if a == b {
		return a
	}
	d := Distance(a, b) / EarthRadius // angular distance
	if d == 0 {
		return a
	}
	la1, lo1 := Radians(a.Lat), Radians(a.Lon)
	la2, lo2 := Radians(b.Lat), Radians(b.Lon)
	sinD := math.Sin(d)
	if sinD == 0 {
		return a
	}
	A := math.Sin((1-f)*d) / sinD
	B := math.Sin(f*d) / sinD
	x := A*math.Cos(la1)*math.Cos(lo1) + B*math.Cos(la2)*math.Cos(lo2)
	y := A*math.Cos(la1)*math.Sin(lo1) + B*math.Cos(la2)*math.Sin(lo2)
	z := A*math.Sin(la1) + B*math.Sin(la2)
	lat := math.Atan2(z, math.Sqrt(x*x+y*y))
	lon := math.Atan2(y, x)
	return Point{Lat: Degrees(lat), Lon: NormalizeLon(Degrees(lon))}
}

// Midpoint returns the great-circle midpoint of a and b.
func Midpoint(a, b Point) Point { return Interpolate(a, b, 0.5) }

// Velocity describes motion over ground.
type Velocity struct {
	SpeedMS  float64 // speed over ground, m/s
	CourseDg float64 // course over ground, degrees true
}

// Project advances p by v for dt seconds using dead reckoning on the sphere.
func Project(p Point, v Velocity, dt float64) Point {
	return Destination(p, v.CourseDg, v.SpeedMS*dt)
}
