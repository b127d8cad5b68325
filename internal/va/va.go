// Package va is the visual-analytics backend of §3.2: multi-scale
// spatio-temporal density surfaces, origin–destination flow matrices,
// temporal histograms, and situation snapshots with alert overlays — the
// server-side aggregations an interactive maritime console drills into.
// Rendering targets the terminal (ASCII heat maps), which keeps the
// stdlib-only constraint while demonstrating the full aggregation path.
package va

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/geo"
	"repro/internal/model"
)

// Density is a 2-D histogram of positions over a bounding box.
type Density struct {
	Bounds geo.Rect
	Rows   int
	Cols   int
	Counts []int
	Total  int
	MaxBin int
}

// NewDensity allocates a rows×cols density surface over bounds.
func NewDensity(bounds geo.Rect, rows, cols int) *Density {
	if rows < 1 {
		rows = 1
	}
	if cols < 1 {
		cols = 1
	}
	return &Density{Bounds: bounds, Rows: rows, Cols: cols, Counts: make([]int, rows*cols)}
}

// Add bins one position (ignored when outside the bounds).
func (d *Density) Add(p geo.Point) {
	if !d.Bounds.Contains(p) {
		return
	}
	r := int(float64(d.Rows) * (p.Lat - d.Bounds.MinLat) / (d.Bounds.MaxLat - d.Bounds.MinLat))
	c := int(float64(d.Cols) * (p.Lon - d.Bounds.MinLon) / (d.Bounds.MaxLon - d.Bounds.MinLon))
	if r >= d.Rows {
		r = d.Rows - 1
	}
	if c >= d.Cols {
		c = d.Cols - 1
	}
	idx := r*d.Cols + c
	d.Counts[idx]++
	d.Total++
	if d.Counts[idx] > d.MaxBin {
		d.MaxBin = d.Counts[idx]
	}
}

// At returns the count in bin (row, col).
func (d *Density) At(row, col int) int { return d.Counts[row*d.Cols+col] }

// densityRamp maps intensity to ASCII, light to heavy.
var densityRamp = []byte(" .:-=+*#%@")

// Render draws the surface as an ASCII heat map, north up.
func (d *Density) Render() string {
	var sb strings.Builder
	for r := d.Rows - 1; r >= 0; r-- {
		for c := 0; c < d.Cols; c++ {
			v := d.At(r, c)
			if d.MaxBin == 0 || v == 0 {
				sb.WriteByte(densityRamp[0])
				continue
			}
			idx := 1 + v*(len(densityRamp)-2)/d.MaxBin
			if idx >= len(densityRamp) {
				idx = len(densityRamp) - 1
			}
			sb.WriteByte(densityRamp[idx])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// MultiScaleDensity builds the same surface at several zoom levels — the
// drill-down structure of §3.2 ("desired scales and levels of detail").
func MultiScaleDensity(bounds geo.Rect, levels []int, points []geo.Point) []*Density {
	out := make([]*Density, len(levels))
	for i, n := range levels {
		out[i] = NewDensity(bounds, n, n*2)
	}
	for _, p := range points {
		for _, d := range out {
			d.Add(p)
		}
	}
	return out
}

// --- flows ---------------------------------------------------------------------

// Flow is one aggregated origin→destination movement count.
type Flow struct {
	From  string
	To    string
	Count int
}

// FlowMatrix aggregates origin–destination transitions between named
// regions (ports, cells).
type FlowMatrix struct {
	counts map[[2]string]int
}

// NewFlowMatrix returns an empty matrix.
func NewFlowMatrix() *FlowMatrix {
	return &FlowMatrix{counts: make(map[[2]string]int)}
}

// Add records one movement from origin to destination.
func (f *FlowMatrix) Add(from, to string) {
	if from == "" || to == "" || from == to {
		return
	}
	f.counts[[2]string{from, to}]++
}

// Top returns the k heaviest flows, descending, ties broken by name.
func (f *FlowMatrix) Top(k int) []Flow {
	flows := make([]Flow, 0, len(f.counts))
	for key, n := range f.counts {
		flows = append(flows, Flow{From: key[0], To: key[1], Count: n})
	}
	sort.Slice(flows, func(i, j int) bool {
		if flows[i].Count != flows[j].Count {
			return flows[i].Count > flows[j].Count
		}
		if flows[i].From != flows[j].From {
			return flows[i].From < flows[j].From
		}
		return flows[i].To < flows[j].To
	})
	if k < len(flows) {
		flows = flows[:k]
	}
	return flows
}

// Len returns the number of distinct OD pairs.
func (f *FlowMatrix) Len() int { return len(f.counts) }

// --- temporal histogram -----------------------------------------------------------

// TimeHistogram counts events in fixed time buckets.
type TimeHistogram struct {
	Start  time.Time
	Bucket time.Duration
	Counts []int
}

// NewTimeHistogram covers [start, start+n*bucket).
func NewTimeHistogram(start time.Time, bucket time.Duration, n int) *TimeHistogram {
	return &TimeHistogram{Start: start, Bucket: bucket, Counts: make([]int, n)}
}

// Add bins one timestamp (out-of-range times are dropped).
func (h *TimeHistogram) Add(at time.Time) {
	idx := int(at.Sub(h.Start) / h.Bucket)
	if idx < 0 || idx >= len(h.Counts) {
		return
	}
	h.Counts[idx]++
}

// Peak returns the index and count of the fullest bucket.
func (h *TimeHistogram) Peak() (int, int) {
	bi, bc := 0, 0
	for i, c := range h.Counts {
		if c > bc {
			bi, bc = i, c
		}
	}
	return bi, bc
}

// Render draws a vertical-bar sparkline of the histogram.
func (h *TimeHistogram) Render() string {
	ramp := []rune("▁▂▃▄▅▆▇█")
	_, max := h.Peak()
	var sb strings.Builder
	for _, c := range h.Counts {
		if max == 0 {
			sb.WriteRune(ramp[0])
			continue
		}
		idx := c * (len(ramp) - 1) / max
		sb.WriteRune(ramp[idx])
	}
	return sb.String()
}

// --- situation snapshot --------------------------------------------------------------

// SituationAlert is the display form of an alert on the board.
type SituationAlert struct {
	At       time.Time
	Kind     string
	MMSI     uint32
	Where    geo.Point
	Severity int
	Note     string
}

// Situation is the computed operational picture of §3.2: current vessel
// states, traffic density, and an alert board — everything a monitoring
// console needs for one refresh.
type Situation struct {
	At      time.Time
	Bounds  geo.Rect
	Vessels []model.VesselState
	Density *Density
	Alerts  []SituationAlert
}

// BuildSituation assembles the picture from the current fleet states and
// pending alerts, binning density at the requested resolution.
func BuildSituation(at time.Time, bounds geo.Rect, vessels []model.VesselState, alerts []SituationAlert, rows, cols int) *Situation {
	s := &Situation{At: at, Bounds: bounds, Vessels: vessels, Density: NewDensity(bounds, rows, cols)}
	for _, v := range vessels {
		s.Density.Add(v.Pos)
	}
	for _, a := range alerts {
		if bounds.Contains(a.Where) {
			s.Alerts = append(s.Alerts, a)
		}
	}
	sort.Slice(s.Alerts, func(i, j int) bool {
		if s.Alerts[i].Severity != s.Alerts[j].Severity {
			return s.Alerts[i].Severity > s.Alerts[j].Severity
		}
		return s.Alerts[i].At.Before(s.Alerts[j].At)
	})
	return s
}

// Summary renders a one-screen text overview.
func (s *Situation) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "SITUATION %s — %d vessels, %d alerts\n",
		s.At.Format("2006-01-02 15:04:05"), len(s.Vessels), len(s.Alerts))
	sb.WriteString(s.Density.Render())
	n := len(s.Alerts)
	if n > 8 {
		n = 8
	}
	for _, a := range s.Alerts[:n] {
		fmt.Fprintf(&sb, "  [sev%d] %-18s vessel %-9d %s\n", a.Severity, a.Kind, a.MMSI, a.Note)
	}
	if len(s.Alerts) > n {
		fmt.Fprintf(&sb, "  … and %d more alerts\n", len(s.Alerts)-n)
	}
	return sb.String()
}
