package weather

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/geo"
)

var testBounds = geo.Rect{MinLat: 40, MinLon: 0, MaxLat: 45, MaxLon: 10}

func t0() time.Time { return time.Date(2017, 3, 21, 0, 0, 0, 0, time.UTC) }

func TestGridSampleExactOnNodes(t *testing.T) {
	g := NewGrid(testBounds, 1.0, t0())
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			g.Set(r, c, float64(r*100+c))
		}
	}
	// Sampling exactly on a node returns the node value.
	p := geo.Point{Lat: 42, Lon: 3}
	want := g.AtCell(2, 3)
	if got := g.Sample(p); math.Abs(got-want) > 1e-9 {
		t.Errorf("node sample = %f, want %f", got, want)
	}
}

func TestGridSampleBilinear(t *testing.T) {
	g := NewGrid(testBounds, 1.0, t0())
	// A plane v = lat + 2*lon is reproduced exactly by bilinear interpolation.
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			lat := testBounds.MinLat + float64(r)
			lon := testBounds.MinLon + float64(c)
			g.Set(r, c, lat+2*lon)
		}
	}
	p := geo.Point{Lat: 42.37, Lon: 6.81}
	want := p.Lat + 2*p.Lon
	if got := g.Sample(p); math.Abs(got-want) > 1e-9 {
		t.Errorf("bilinear plane sample = %f, want %f", got, want)
	}
}

func TestGridSampleClampsOutside(t *testing.T) {
	g := NewGrid(testBounds, 1.0, t0())
	for i := range g.Values {
		g.Values[i] = 7
	}
	outside := []geo.Point{{Lat: 39, Lon: 5}, {Lat: 46, Lon: 5}, {Lat: 42, Lon: -3}, {Lat: 42, Lon: 30}}
	for _, p := range outside {
		if got := g.Sample(p); math.Abs(got-7) > 1e-9 {
			t.Errorf("outside sample at %v = %f, want clamped 7", p, got)
		}
	}
}

func TestSeriesTemporalInterpolation(t *testing.T) {
	g1 := NewGrid(testBounds, 1.0, t0())
	g2 := NewGrid(testBounds, 1.0, t0().Add(time.Hour))
	for i := range g1.Values {
		g1.Values[i] = 10
		g2.Values[i] = 20
	}
	s := &Series{Variable: WaveHeightM, Slices: []*Grid{g1, g2}}
	p := geo.Point{Lat: 42, Lon: 5}
	cases := []struct {
		at   time.Time
		want float64
	}{
		{t0(), 10},
		{t0().Add(30 * time.Minute), 15},
		{t0().Add(time.Hour), 20},
		{t0().Add(-time.Hour), 10},    // clamps before
		{t0().Add(2 * time.Hour), 20}, // clamps after
	}
	for _, c := range cases {
		got, err := s.Sample(p, c.at)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("at %v: got %f want %f", c.at, got, c.want)
		}
	}
}

func TestSeriesBinarySearchManySlices(t *testing.T) {
	f := AnalyticField{Base: 5, Amplitude: 3, WaveLatDeg: 8, WaveLonDeg: 12, Period: 12 * time.Hour}
	s := f.BuildSeries(WindSpeedMS, testBounds, 0.5, t0(), time.Hour, 24)
	if len(s.Slices) != 24 {
		t.Fatalf("expected 24 slices")
	}
	// Interpolated values must lie between the bracketing slices' samples.
	p := geo.Point{Lat: 42.3, Lon: 5.7}
	at := t0().Add(5*time.Hour + 17*time.Minute)
	got, err := s.Sample(p, at)
	if err != nil {
		t.Fatal(err)
	}
	lo := s.Slices[5].Sample(p)
	hi := s.Slices[6].Sample(p)
	min, max := math.Min(lo, hi), math.Max(lo, hi)
	if got < min-1e-9 || got > max+1e-9 {
		t.Errorf("temporal interpolation %f outside bracket [%f,%f]", got, min, max)
	}
}

func TestEmptySeries(t *testing.T) {
	s := &Series{Variable: WindSpeedMS}
	if _, err := s.Sample(geo.Point{}, t0()); err == nil {
		t.Error("empty series must error")
	}
}

func TestProvider(t *testing.T) {
	pv := NewProvider()
	f := AnalyticField{Base: 2, Amplitude: 1, WaveLatDeg: 5, WaveLonDeg: 7, Period: time.Hour}
	pv.Add(f.BuildSeries(WaveHeightM, testBounds, 1.0, t0(), time.Hour, 3))
	if _, err := pv.Sample(WaveHeightM, geo.Point{Lat: 42, Lon: 5}, t0()); err != nil {
		t.Errorf("registered variable should sample: %v", err)
	}
	if _, err := pv.Sample(SeaTempC, geo.Point{Lat: 42, Lon: 5}, t0()); err == nil {
		t.Error("unregistered variable must error")
	}
	if len(pv.Variables()) != 1 {
		t.Error("Variables() should list one entry")
	}
}

func TestInterpolationErrorShrinksWithResolution(t *testing.T) {
	// The E7 premise: finer grids approximate the analytic truth better.
	f := AnalyticField{Base: 10, Amplitude: 4, WaveLatDeg: 6, WaveLonDeg: 9, Period: 6 * time.Hour}
	at := t0().Add(90 * time.Minute)
	probe := []geo.Point{}
	for lat := 41.0; lat <= 44.0; lat += 0.37 {
		for lon := 1.0; lon <= 9.0; lon += 0.53 {
			probe = append(probe, geo.Point{Lat: lat, Lon: lon})
		}
	}
	rmse := func(cellDeg float64) float64 {
		s := f.BuildSeries(WindSpeedMS, testBounds, cellDeg, t0(), time.Hour, 4)
		var se float64
		for _, p := range probe {
			got, err := s.Sample(p, at)
			if err != nil {
				t.Fatal(err)
			}
			d := got - f.Eval(p, at)
			se += d * d
		}
		return math.Sqrt(se / float64(len(probe)))
	}
	coarse := rmse(2.0)
	fine := rmse(0.25)
	if fine >= coarse {
		t.Errorf("finer grid should reduce RMSE: coarse=%f fine=%f", coarse, fine)
	}
	if fine > 0.5 {
		t.Errorf("fine grid RMSE too large: %f", fine)
	}
}

func TestAnalyticFieldBounded(t *testing.T) {
	f := AnalyticField{Base: 5, Amplitude: 2, WaveLatDeg: 8, WaveLonDeg: 12, Period: time.Hour}
	for lat := -80.0; lat <= 80; lat += 7 {
		for lon := -170.0; lon <= 170; lon += 13 {
			v := f.Eval(geo.Point{Lat: lat, Lon: lon}, t0())
			if v < 3-1e-9 || v > 7+1e-9 {
				t.Fatalf("field value %f outside [base±amp]", v)
			}
		}
	}
}

func BenchmarkSeriesSample(b *testing.B) {
	f := AnalyticField{Base: 5, Amplitude: 3, WaveLatDeg: 8, WaveLonDeg: 12, Period: 12 * time.Hour}
	s := f.BuildSeries(WindSpeedMS, testBounds, 0.25, t0(), time.Hour, 24)
	p := geo.Point{Lat: 42.3, Lon: 5.7}
	at := t0().Add(7*time.Hour + 11*time.Minute)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sample(p, at); err != nil {
			b.Fatal(err)
		}
	}
}

// Variables only the tests carry.
const (
	WaveHeightM Variable = "wave_height_m"
	SeaTempC    Variable = "sea_temp_c"
)

// Provider bundles several variables' series into one lookup service.
type Provider struct {
	series map[Variable]*Series
}

// NewProvider returns an empty provider.
func NewProvider() *Provider {
	return &Provider{series: make(map[Variable]*Series)}
}

// Add registers a series, replacing any previous series for the variable.
func (pv *Provider) Add(s *Series) { pv.series[s.Variable] = s }

// Sample returns the value of variable v at (p, t).
func (pv *Provider) Sample(v Variable, p geo.Point, t time.Time) (float64, error) {
	s, ok := pv.series[v]
	if !ok {
		return 0, fmt.Errorf("weather: no series for variable %q", v)
	}
	return s.Sample(p, t)
}

// Variables lists the registered variables.
func (pv *Provider) Variables() []Variable {
	out := make([]Variable, 0, len(pv.series))
	for v := range pv.series {
		out = append(out, v)
	}
	return out
}
