// Package synopsis implements trajectory compression ("synopses" in the
// paper's §2.1 vocabulary): reducing an AIS trace to a small subset of
// critical points while bounding the spatio-temporal reconstruction error.
// The paper reports state-of-the-art techniques reach a 95% compression
// ratio over AIS vessel traces; experiment E2 reproduces that trade-off
// curve with four algorithms:
//
//   - DouglasPeucker: offline, time-synchronised (TD-TR) — the quality
//     reference.
//   - DeadReckoning: online, one point of state — keeps a point only when
//     the dead-reckoned prediction misses by more than the threshold.
//   - SquishE: online with bounded memory — a priority queue of removal
//     errors, as in SQUISH-E(λ).
//   - Uniform: every k-th point — the naive baseline.
//
// All operate on model.Trajectory and are evaluated with the synchronised
// Euclidean distance (SED) against the original trace.
package synopsis

import (
	"math"
	"time"

	"repro/internal/geo"
	"repro/internal/model"
)

// Compressor reduces a trajectory to a subset of its points.
//
//lint:ignore deadexport TestFleetCompressionClaim compares E2 compressors through it
type Compressor interface {
	// Compress returns a new trajectory containing a subset of tr's points
	// (including, when tr is non-empty, its first and last point).
	Compress(tr *model.Trajectory) *model.Trajectory
	// Name identifies the algorithm in reports.
	Name() string
}

// sedAt returns the synchronised Euclidean distance of original point p
// against the segment (a, b): the distance between p.Pos and the position
// interpolated on (a,b) at p's timestamp.
func sedAt(p, a, b model.VesselState) float64 {
	span := b.At.Sub(a.At).Seconds()
	if span <= 0 {
		return geo.Distance(p.Pos, a.Pos)
	}
	f := p.At.Sub(a.At).Seconds() / span
	expected := geo.Interpolate(a.Pos, b.Pos, f)
	return geo.Distance(p.Pos, expected)
}

// DouglasPeucker is the time-synchronised Douglas–Peucker (TD-TR)
// compressor: split recursively at the point of maximum SED until every
// point lies within ToleranceM of the simplified trajectory.
type DouglasPeucker struct {
	ToleranceM float64
}

// Name implements Compressor.
func (DouglasPeucker) Name() string { return "douglas-peucker" }

// Compress implements Compressor.
func (c DouglasPeucker) Compress(tr *model.Trajectory) *model.Trajectory {
	n := len(tr.Points)
	out := &model.Trajectory{MMSI: tr.MMSI}
	if n == 0 {
		return out
	}
	if n <= 2 {
		out.Points = append(out.Points, tr.Points...)
		return out
	}
	keep := make([]bool, n)
	keep[0], keep[n-1] = true, true
	type span struct{ lo, hi int }
	stack := []span{{0, n - 1}}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.hi-s.lo < 2 {
			continue
		}
		a, b := tr.Points[s.lo], tr.Points[s.hi]
		worst, worstIdx := -1.0, -1
		for i := s.lo + 1; i < s.hi; i++ {
			if d := sedAt(tr.Points[i], a, b); d > worst {
				worst, worstIdx = d, i
			}
		}
		if worst > c.ToleranceM {
			keep[worstIdx] = true
			stack = append(stack, span{s.lo, worstIdx}, span{worstIdx, s.hi})
		}
	}
	for i, k := range keep {
		if k {
			out.Points = append(out.Points, tr.Points[i])
		}
	}
	return out
}

// DeadReckoning is the online threshold compressor: it emits a point when
// the position dead-reckoned from the last emitted point (using that
// point's speed and course) deviates from the actual position by more than
// ToleranceM, and always after MaxGap without an emission. This is the
// algorithm a shipboard/edge "in-situ" filter would run (§2.1): O(1) state
// per vessel, single pass.
type DeadReckoning struct {
	ToleranceM float64
	MaxGap     time.Duration // 0 disables the forced-emission heartbeat
}

// Name implements Compressor.
func (DeadReckoning) Name() string { return "dead-reckoning" }

// Compress implements Compressor.
func (c DeadReckoning) Compress(tr *model.Trajectory) *model.Trajectory {
	out := &model.Trajectory{MMSI: tr.MMSI}
	n := len(tr.Points)
	if n == 0 {
		return out
	}
	last := tr.Points[0]
	out.Points = append(out.Points, last)
	if n == 1 {
		return out
	}
	for i := 1; i < n-1; i++ {
		p := tr.Points[i]
		dt := p.At.Sub(last.At).Seconds()
		predicted := geo.Project(last.Pos, last.Velocity(), dt)
		if geo.Distance(predicted, p.Pos) > c.ToleranceM ||
			(c.MaxGap > 0 && p.At.Sub(last.At) >= c.MaxGap) {
			out.Points = append(out.Points, p)
			last = p
		}
	}
	out.Points = append(out.Points, tr.Points[n-1])
	return out
}

// SquishE is a bounded-memory online compressor in the SQUISH-E family: it
// holds at most Capacity points in a buffer; when full, it evicts the
// buffered point whose removal introduces the least SED error, accumulating
// the evicted error into its neighbours so repeated evictions stay honest.
type SquishE struct {
	Capacity int
}

// Name implements Compressor.
func (SquishE) Name() string { return "squish-e" }

type squishEntry struct {
	state    model.VesselState
	priority float64 // accumulated SED error if this point is removed
}

// Compress implements Compressor.
func (c SquishE) Compress(tr *model.Trajectory) *model.Trajectory {
	out := &model.Trajectory{MMSI: tr.MMSI}
	n := len(tr.Points)
	if n == 0 {
		return out
	}
	capa := c.Capacity
	if capa < 3 {
		capa = 3
	}
	buf := make([]squishEntry, 0, capa+1)
	recomputePriority := func(i int) {
		if i <= 0 || i >= len(buf)-1 {
			buf[i].priority = math.Inf(1) // endpoints are never evicted
			return
		}
		base := sedAt(buf[i].state, buf[i-1].state, buf[i+1].state)
		// Keep the accumulated component: priority only grows over time.
		if math.IsInf(buf[i].priority, 1) || buf[i].priority < base {
			buf[i].priority = base
		}
	}
	evict := func() {
		// Find the interior point with minimal priority.
		minIdx, minP := -1, math.Inf(1)
		for i := 1; i < len(buf)-1; i++ {
			if buf[i].priority < minP {
				minIdx, minP = i, buf[i].priority
			}
		}
		if minIdx < 0 {
			return
		}
		// Transfer the evicted error to the neighbours (SQUISH-E rule).
		if minIdx-1 > 0 {
			buf[minIdx-1].priority += minP
		}
		if minIdx+1 < len(buf)-1 {
			buf[minIdx+1].priority += minP
		}
		buf = append(buf[:minIdx], buf[minIdx+1:]...)
		if minIdx-1 >= 0 && minIdx-1 < len(buf) {
			recomputePriority(minIdx - 1)
		}
		if minIdx < len(buf) {
			recomputePriority(minIdx)
		}
	}
	for _, p := range tr.Points {
		buf = append(buf, squishEntry{state: p, priority: math.Inf(1)})
		if len(buf) >= 3 {
			recomputePriority(len(buf) - 2)
		}
		if len(buf) > capa {
			evict()
		}
	}
	for _, e := range buf {
		out.Points = append(out.Points, e.state)
	}
	return out
}

// Uniform keeps every Every-th point (plus the endpoints): the baseline
// that ignores trajectory shape entirely.
type Uniform struct {
	Every int
}

// Name implements Compressor.
func (Uniform) Name() string { return "uniform" }

// Compress implements Compressor.
func (c Uniform) Compress(tr *model.Trajectory) *model.Trajectory {
	out := &model.Trajectory{MMSI: tr.MMSI}
	n := len(tr.Points)
	if n == 0 {
		return out
	}
	k := c.Every
	if k < 1 {
		k = 1
	}
	for i := 0; i < n; i += k {
		out.Points = append(out.Points, tr.Points[i])
	}
	if out.Points[len(out.Points)-1].At != tr.Points[n-1].At {
		out.Points = append(out.Points, tr.Points[n-1])
	}
	return out
}

// StreamingCompressor wraps DeadReckoning as a push-style online filter
// suitable for the stream engine: feed points one at a time, receive the
// kept points. One instance per vessel.
type StreamingCompressor struct {
	ToleranceM float64
	MaxGap     time.Duration

	last    model.VesselState
	started bool
}

// Push offers the next point; it returns (kept point, true) when the point
// becomes part of the synopsis.
func (s *StreamingCompressor) Push(p model.VesselState) (model.VesselState, bool) {
	if !s.started {
		s.started = true
		s.last = p
		return p, true
	}
	dt := p.At.Sub(s.last.At).Seconds()
	predicted := geo.Project(s.last.Pos, s.last.Velocity(), dt)
	if geo.Distance(predicted, p.Pos) > s.ToleranceM ||
		(s.MaxGap > 0 && p.At.Sub(s.last.At) >= s.MaxGap) {
		s.last = p
		return p, true
	}
	return model.VesselState{}, false
}
