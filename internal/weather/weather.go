// Package weather provides gridded environmental fields (wind, waves,
// surface current) with bilinear spatial and linear temporal interpolation.
// The paper (§2.5) stresses that freely available meteorological data come
// at kilometre-scale spatial resolution and hourly or daily means, while
// AIS positions arrive at ~10 m accuracy every few seconds to minutes;
// this package is the "coarse side" of that multi-granularity integration
// problem, including a synthetic field generator whose analytic ground
// truth makes interpolation error measurable (experiment E7).
package weather

import (
	"fmt"
	"math"
	"time"

	"repro/internal/geo"
)

// Variable identifies an environmental variable carried by a field.
type Variable string

// WindSpeedMS is wind speed in m/s.
//
//lint:ignore deadexport TestGridResolutionClaim samples E7's wind field
const WindSpeedMS Variable = "wind_speed_ms"

// Grid is one time-slice of a regular lat/lon raster.
type Grid struct {
	Bounds  geo.Rect
	CellDeg float64 // cell size in degrees
	Rows    int
	Cols    int
	Values  []float64 // row-major, Rows*Cols
	ValidAt time.Time // nominal validity time of the slice
}

// NewGrid allocates a grid covering bounds at the given resolution.
func NewGrid(bounds geo.Rect, cellDeg float64, at time.Time) *Grid {
	if cellDeg <= 0 {
		cellDeg = 0.5
	}
	rows := int(math.Ceil((bounds.MaxLat-bounds.MinLat)/cellDeg)) + 1
	cols := int(math.Ceil((bounds.MaxLon-bounds.MinLon)/cellDeg)) + 1
	if rows < 2 {
		rows = 2
	}
	if cols < 2 {
		cols = 2
	}
	return &Grid{
		Bounds: bounds, CellDeg: cellDeg,
		Rows: rows, Cols: cols,
		Values:  make([]float64, rows*cols),
		ValidAt: at,
	}
}

// Set assigns the value at (row, col).
func (g *Grid) Set(row, col int, v float64) { g.Values[row*g.Cols+col] = v }

// AtCell returns the value at (row, col), clamping indices to the raster.
func (g *Grid) AtCell(row, col int) float64 {
	if row < 0 {
		row = 0
	}
	if row >= g.Rows {
		row = g.Rows - 1
	}
	if col < 0 {
		col = 0
	}
	if col >= g.Cols {
		col = g.Cols - 1
	}
	return g.Values[row*g.Cols+col]
}

// Sample bilinearly interpolates the field at p. Points outside the grid
// are clamped to the border values (fields extend smoothly offshore).
func (g *Grid) Sample(p geo.Point) float64 {
	fr := (p.Lat - g.Bounds.MinLat) / g.CellDeg
	fc := (p.Lon - g.Bounds.MinLon) / g.CellDeg
	r0 := int(math.Floor(fr))
	c0 := int(math.Floor(fc))
	dr := fr - float64(r0)
	dc := fc - float64(c0)
	if r0 < 0 {
		r0, dr = 0, 0
	}
	if r0 >= g.Rows-1 {
		r0, dr = g.Rows-2, 1
	}
	if c0 < 0 {
		c0, dc = 0, 0
	}
	if c0 >= g.Cols-1 {
		c0, dc = g.Cols-2, 1
	}
	v00 := g.AtCell(r0, c0)
	v01 := g.AtCell(r0, c0+1)
	v10 := g.AtCell(r0+1, c0)
	v11 := g.AtCell(r0+1, c0+1)
	return v00*(1-dr)*(1-dc) + v01*(1-dr)*dc + v10*dr*(1-dc) + v11*dr*dc
}

// Series is a time-ordered sequence of grids for one variable, supporting
// space-time interpolation.
type Series struct {
	Variable Variable
	Slices   []*Grid // ascending ValidAt
}

// Sample interpolates the variable at position p and time t: bilinear in
// space on the two bracketing slices, linear in time between them. Times
// outside the series clamp to the first/last slice.
//
//lint:ignore deadexport TestGridResolutionClaim measures E7's interpolation error through it
func (s *Series) Sample(p geo.Point, t time.Time) (float64, error) {
	if len(s.Slices) == 0 {
		return 0, fmt.Errorf("weather: series %q has no slices", s.Variable)
	}
	if len(s.Slices) == 1 || !t.After(s.Slices[0].ValidAt) {
		return s.Slices[0].Sample(p), nil
	}
	last := s.Slices[len(s.Slices)-1]
	if !t.Before(last.ValidAt) {
		return last.Sample(p), nil
	}
	// Binary search for the bracketing pair.
	lo, hi := 0, len(s.Slices)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if s.Slices[mid].ValidAt.After(t) {
			hi = mid
		} else {
			lo = mid
		}
	}
	a, b := s.Slices[lo], s.Slices[hi]
	span := b.ValidAt.Sub(a.ValidAt).Seconds()
	if span <= 0 {
		return a.Sample(p), nil
	}
	f := t.Sub(a.ValidAt).Seconds() / span
	return a.Sample(p)*(1-f) + b.Sample(p)*f, nil
}

// AnalyticField is a smooth synthetic field with a closed form, used both
// to fill synthetic grids and as ground truth when measuring interpolation
// error. It is a sum of travelling sinusoids — smooth, bounded, and rich
// enough in gradients to expose resolution effects.
type AnalyticField struct {
	Base      float64 // mean value
	Amplitude float64
	// Spatial wavelengths in degrees and temporal period.
	WaveLatDeg, WaveLonDeg float64
	Period                 time.Duration
	Phase                  float64
}

// Eval returns the field value at (p, t).
func (f AnalyticField) Eval(p geo.Point, t time.Time) float64 {
	tau := 0.0
	if f.Period > 0 {
		tau = 2 * math.Pi * float64(t.UnixNano()) / float64(f.Period.Nanoseconds())
	}
	a := math.Sin(2*math.Pi*p.Lat/f.WaveLatDeg + tau + f.Phase)
	b := math.Cos(2*math.Pi*p.Lon/f.WaveLonDeg - tau/2 + f.Phase)
	return f.Base + f.Amplitude*(a+b)/2
}

// BuildSeries rasterises the analytic field into a series of grids covering
// bounds at the given spatial resolution and time step, from t0 for n steps.
// This is the synthetic stand-in for a forecast download (§2.5).
//
//lint:ignore deadexport TestGridResolutionClaim rasterises E7's field with it
func (f AnalyticField) BuildSeries(v Variable, bounds geo.Rect, cellDeg float64, t0 time.Time, step time.Duration, n int) *Series {
	s := &Series{Variable: v}
	for i := 0; i < n; i++ {
		at := t0.Add(time.Duration(i) * step)
		g := NewGrid(bounds, cellDeg, at)
		for r := 0; r < g.Rows; r++ {
			for c := 0; c < g.Cols; c++ {
				p := geo.Point{
					Lat: bounds.MinLat + float64(r)*cellDeg,
					Lon: bounds.MinLon + float64(c)*cellDeg,
				}
				g.Set(r, c, f.Eval(p, at))
			}
		}
		s.Slices = append(s.Slices, g)
	}
	return s
}
