package va

import (
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/model"
)

var bounds = geo.Rect{MinLat: 30, MinLon: -6, MaxLat: 46, MaxLon: 36}

func t0() time.Time { return time.Date(2017, 3, 21, 0, 0, 0, 0, time.UTC) }

func TestDensityBinning(t *testing.T) {
	d := NewDensity(bounds, 8, 16)
	d.Add(geo.Point{Lat: 38, Lon: 15})
	d.Add(geo.Point{Lat: 38, Lon: 15})
	d.Add(geo.Point{Lat: 31, Lon: -5})
	d.Add(geo.Point{Lat: 90, Lon: 170}) // outside: dropped
	if d.Total != 3 {
		t.Errorf("total %d", d.Total)
	}
	if d.MaxBin != 2 {
		t.Errorf("max bin %d", d.MaxBin)
	}
	if d.NonEmptyBins() != 2 {
		t.Errorf("non-empty bins %d", d.NonEmptyBins())
	}
	if d.CoverageFraction() <= 0 || d.CoverageFraction() > 1 {
		t.Errorf("coverage %f", d.CoverageFraction())
	}
}

func TestDensityEdgesClamped(t *testing.T) {
	d := NewDensity(bounds, 4, 8)
	// Exactly on the max corner must clamp into the last bin, not panic.
	d.Add(geo.Point{Lat: bounds.MaxLat, Lon: bounds.MaxLon})
	if d.Total != 1 {
		t.Error("corner point dropped")
	}
	if d.At(3, 7) != 1 {
		t.Error("corner point not in last bin")
	}
}

func TestDensityRender(t *testing.T) {
	d := NewDensity(bounds, 4, 8)
	for i := 0; i < 50; i++ {
		d.Add(geo.Point{Lat: 38, Lon: 15})
	}
	d.Add(geo.Point{Lat: 31, Lon: -5})
	out := d.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d rows", len(lines))
	}
	for _, l := range lines {
		if len(l) != 8 {
			t.Fatalf("row width %d", len(l))
		}
	}
	if !strings.Contains(out, "@") {
		t.Error("hottest bin should render as @")
	}
	// An empty surface renders all blanks without dividing by zero.
	empty := NewDensity(bounds, 2, 2).Render()
	if strings.Trim(empty, " \n") != "" {
		t.Error("empty density should render blank")
	}
}

func TestMultiScaleDensity(t *testing.T) {
	pts := []geo.Point{{Lat: 38, Lon: 15}, {Lat: 39, Lon: 16}, {Lat: 43, Lon: 5}}
	levels := MultiScaleDensity(bounds, []int{4, 16, 64}, pts)
	if len(levels) != 3 {
		t.Fatal("level count")
	}
	for _, d := range levels {
		if d.Total != 3 {
			t.Errorf("level lost points: %d", d.Total)
		}
	}
	// Finer levels spread the same points over at least as many bins.
	if levels[2].NonEmptyBins() < levels[0].NonEmptyBins() {
		t.Error("finer level should have >= occupied bins")
	}
}

func TestFlowMatrix(t *testing.T) {
	f := NewFlowMatrix()
	f.Add("MRS", "GOA")
	f.Add("MRS", "GOA")
	f.Add("GOA", "MRS")
	f.Add("MRS", "BCN")
	f.Add("MRS", "MRS") // self-flow ignored
	f.Add("", "GOA")    // blank ignored
	if f.Len() != 3 {
		t.Fatalf("distinct flows %d", f.Len())
	}
	top := f.Top(2)
	if len(top) != 2 || top[0].From != "MRS" || top[0].To != "GOA" || top[0].Count != 2 {
		t.Errorf("top flows: %+v", top)
	}
	// Deterministic tie-break.
	a := f.Top(3)
	b := f.Top(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Top not deterministic")
		}
	}
}

func TestTimeHistogram(t *testing.T) {
	h := NewTimeHistogram(t0(), time.Hour, 24)
	h.Add(t0().Add(30 * time.Minute))
	h.Add(t0().Add(90 * time.Minute))
	h.Add(t0().Add(95 * time.Minute))
	h.Add(t0().Add(-time.Hour))     // before: dropped
	h.Add(t0().Add(25 * time.Hour)) // after: dropped
	if h.Counts[0] != 1 || h.Counts[1] != 2 {
		t.Errorf("buckets: %v", h.Counts[:3])
	}
	pi, pc := h.Peak()
	if pi != 1 || pc != 2 {
		t.Errorf("peak %d/%d", pi, pc)
	}
	spark := h.Render()
	if len([]rune(spark)) != 24 {
		t.Errorf("sparkline length %d", len([]rune(spark)))
	}
}

func TestBuildSituation(t *testing.T) {
	vessels := []model.VesselState{
		{MMSI: 1, At: t0(), Pos: geo.Point{Lat: 38, Lon: 15}},
		{MMSI: 2, At: t0(), Pos: geo.Point{Lat: 43, Lon: 5}},
	}
	alerts := []SituationAlert{
		{At: t0(), Kind: "dark", MMSI: 1, Where: geo.Point{Lat: 38, Lon: 15}, Severity: 2, Note: "silent"},
		{At: t0(), Kind: "rendezvous", MMSI: 2, Where: geo.Point{Lat: 43, Lon: 5}, Severity: 3, Note: "meeting"},
		{At: t0(), Kind: "far", MMSI: 3, Where: geo.Point{Lat: 0, Lon: 100}, Severity: 3, Note: "outside"},
	}
	s := BuildSituation(t0(), bounds, vessels, alerts, 8, 16)
	if len(s.Alerts) != 2 {
		t.Fatalf("alerts in bounds: %d", len(s.Alerts))
	}
	// Sorted by severity descending.
	if s.Alerts[0].Severity != 3 {
		t.Error("alerts not sorted by severity")
	}
	sum := s.Summary()
	if !strings.Contains(sum, "2 vessels") || !strings.Contains(sum, "2 alerts") {
		t.Errorf("summary header wrong:\n%s", sum)
	}
	if !strings.Contains(sum, "rendezvous") {
		t.Error("summary should list the critical alert")
	}
}

func BenchmarkDensityAdd(b *testing.B) {
	d := NewDensity(bounds, 64, 128)
	p := geo.Point{Lat: 38, Lon: 15}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Add(p)
	}
}

func BenchmarkMultiScale100k(b *testing.B) {
	pts := make([]geo.Point, 100000)
	for i := range pts {
		pts[i] = geo.Point{Lat: 30 + float64(i%160)*0.1, Lon: -6 + float64(i%420)*0.1}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MultiScaleDensity(bounds, []int{8, 32, 128}, pts)
	}
}

// CoverageFraction returns the fraction of bins with data.
func (d *Density) CoverageFraction() float64 {
	if len(d.Counts) == 0 {
		return 0
	}
	return float64(d.NonEmptyBins()) / float64(len(d.Counts))
}

// NonEmptyBins returns how many bins hold at least one point — the
// coverage statistic behind Figure 1.
func (d *Density) NonEmptyBins() int {
	n := 0
	for _, c := range d.Counts {
		if c > 0 {
			n++
		}
	}
	return n
}
