// Package model defines the canonical moving-object types shared by the
// analytical layers: the timestamped kinematic state of a vessel and the
// trajectory (time-ordered state sequence). Keeping them in one small
// package lets the store, synopsis, event, forecast and visual-analytics
// layers interoperate without conversion glue.
package model

import (
	"sort"
	"time"

	"repro/internal/ais"
	"repro/internal/geo"
)

// VesselState is one timestamped kinematic sample of one vessel.
type VesselState struct {
	MMSI      uint32
	At        time.Time
	Pos       geo.Point
	SpeedKn   float64
	CourseDeg float64
	Status    ais.NavStatus
}

// Velocity returns the state's velocity in SI units.
func (s VesselState) Velocity() geo.Velocity {
	return geo.Velocity{SpeedMS: s.SpeedKn * geo.Knot, CourseDg: s.CourseDeg}
}

// FromReport converts a received position report into a state sample.
func FromReport(at time.Time, r *ais.PositionReport) VesselState {
	return VesselState{
		MMSI:      r.MMSI,
		At:        at,
		Pos:       r.Position,
		SpeedKn:   r.SpeedKn,
		CourseDeg: r.CourseDeg,
		Status:    r.Status,
	}
}

// Trajectory is a time-ordered sequence of states of one vessel.
type Trajectory struct {
	MMSI   uint32
	Points []VesselState
}

// Len returns the number of points.
func (t *Trajectory) Len() int { return len(t.Points) }

// Start returns the first sample time (zero if empty).
func (t *Trajectory) Start() time.Time {
	if len(t.Points) == 0 {
		return time.Time{}
	}
	return t.Points[0].At
}

// End returns the last sample time (zero if empty).
func (t *Trajectory) End() time.Time {
	if len(t.Points) == 0 {
		return time.Time{}
	}
	return t.Points[len(t.Points)-1].At
}

// Length returns the travelled great-circle length in metres.
func (t *Trajectory) Length() float64 {
	var total float64
	for i := 1; i < len(t.Points); i++ {
		total += geo.Distance(t.Points[i-1].Pos, t.Points[i].Pos)
	}
	return total
}

// Sort orders the points by time (stable) in place.
//
//lint:ignore deadexport TestFleetCompressionClaim sorts its E2 fleet before compressing it
func (t *Trajectory) Sort() {
	sort.SliceStable(t.Points, func(i, j int) bool {
		return t.Points[i].At.Before(t.Points[j].At)
	})
}

// At interpolates the vessel state at the given time: positions follow the
// great circle between the bracketing samples, speeds and courses are held
// from the earlier sample. Times outside the trajectory clamp to the ends;
// ok is false only for an empty trajectory.
func (t *Trajectory) At(at time.Time) (VesselState, bool) {
	n := len(t.Points)
	if n == 0 {
		return VesselState{}, false
	}
	if !at.After(t.Points[0].At) {
		return t.Points[0], true
	}
	if !at.Before(t.Points[n-1].At) {
		return t.Points[n-1], true
	}
	// Binary search for the bracketing pair.
	lo, hi := 0, n-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if t.Points[mid].At.After(at) {
			hi = mid
		} else {
			lo = mid
		}
	}
	a, b := t.Points[lo], t.Points[hi]
	span := b.At.Sub(a.At).Seconds()
	if span <= 0 {
		return a, true
	}
	f := at.Sub(a.At).Seconds() / span
	out := a
	out.At = at
	out.Pos = geo.Interpolate(a.Pos, b.Pos, f)
	return out, true
}

// Slice returns the sub-trajectory with points in [from, to].
func (t *Trajectory) Slice(from, to time.Time) *Trajectory {
	out := &Trajectory{MMSI: t.MMSI}
	for _, p := range t.Points {
		if !p.At.Before(from) && !p.At.After(to) {
			out.Points = append(out.Points, p)
		}
	}
	return out
}
