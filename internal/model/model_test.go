package model

import (
	"math"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/geo"
)

func t0() time.Time { return time.Date(2017, 3, 21, 12, 0, 0, 0, time.UTC) }

func straightTrajectory(n int, stepSec float64, speedKn float64) *Trajectory {
	tr := &Trajectory{MMSI: 1}
	pos := geo.Point{Lat: 43, Lon: 5}
	v := geo.Velocity{SpeedMS: speedKn * geo.Knot, CourseDg: 90}
	for i := 0; i < n; i++ {
		tr.Points = append(tr.Points, VesselState{
			MMSI: 1, At: t0().Add(time.Duration(float64(i)*stepSec) * time.Second),
			Pos: pos, SpeedKn: speedKn, CourseDeg: 90,
		})
		pos = geo.Project(pos, v, stepSec)
	}
	return tr
}

func TestTrajectoryBasics(t *testing.T) {
	tr := straightTrajectory(10, 60, 12)
	if tr.Len() != 10 {
		t.Fatalf("len %d", tr.Len())
	}
	if got := tr.Duration(); got != 9*time.Minute {
		t.Errorf("duration %v", got)
	}
	// 12 kn for 9 minutes ≈ 3333 m.
	wantLen := 12 * geo.Knot * 9 * 60
	if math.Abs(tr.Length()-wantLen) > wantLen*0.01 {
		t.Errorf("length %.0f, want ≈%.0f", tr.Length(), wantLen)
	}
	if !tr.Bounds().Contains(tr.Points[5].Pos) {
		t.Error("bounds must contain interior points")
	}
}

func TestTrajectoryAtInterpolates(t *testing.T) {
	tr := straightTrajectory(10, 60, 12)
	mid := t0().Add(90 * time.Second) // halfway between samples 1 and 2
	s, ok := tr.At(mid)
	if !ok {
		t.Fatal("At failed")
	}
	expected := geo.Midpoint(tr.Points[1].Pos, tr.Points[2].Pos)
	if d := geo.Distance(s.Pos, expected); d > 1 {
		t.Errorf("interpolated position off by %.2f m", d)
	}
	if s.At != mid {
		t.Error("interpolated state should carry the query time")
	}
}

func TestTrajectoryAtClamps(t *testing.T) {
	tr := straightTrajectory(5, 60, 10)
	before, _ := tr.At(t0().Add(-time.Hour))
	after, _ := tr.At(t0().Add(time.Hour))
	if before.Pos != tr.Points[0].Pos || after.Pos != tr.Points[4].Pos {
		t.Error("At should clamp outside the time span")
	}
	var empty Trajectory
	if _, ok := empty.At(t0()); ok {
		t.Error("empty trajectory should report !ok")
	}
}

func TestTrajectorySliceAndSort(t *testing.T) {
	tr := straightTrajectory(10, 60, 10)
	sub := tr.Slice(t0().Add(2*time.Minute), t0().Add(5*time.Minute))
	if sub.Len() != 4 {
		t.Fatalf("slice len %d, want 4", sub.Len())
	}
	// Shuffle then sort restores order.
	tr.Points[0], tr.Points[9] = tr.Points[9], tr.Points[0]
	tr.Sort()
	for i := 1; i < tr.Len(); i++ {
		if tr.Points[i].At.Before(tr.Points[i-1].At) {
			t.Fatal("Sort failed")
		}
	}
}

func TestFromReport(t *testing.T) {
	r := &ais.PositionReport{
		MMSI: 7, Position: geo.Point{Lat: 1, Lon: 2},
		SpeedKn: 9.5, CourseDeg: 45, Status: ais.StatusFishing,
	}
	s := FromReport(t0(), r)
	if s.MMSI != 7 || s.Pos != r.Position || s.SpeedKn != 9.5 || s.Status != ais.StatusFishing {
		t.Errorf("conversion lost fields: %+v", s)
	}
	v := s.Velocity()
	if math.Abs(v.SpeedMS-9.5*geo.Knot) > 1e-9 {
		t.Error("velocity conversion wrong")
	}
}

// Duration returns End − Start.
func (t *Trajectory) Duration() time.Duration { return t.End().Sub(t.Start()) }

// Bounds returns the spatial bounding box of the trajectory.
func (t *Trajectory) Bounds() geo.Rect {
	r := geo.EmptyRect()
	for _, p := range t.Points {
		r = r.Extend(p.Pos)
	}
	return r
}
