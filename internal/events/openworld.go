package events

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/model"
)

// Gap is a reporting gap: a period with no AIS data for a vessel, with the
// last state before and the first state after the silence.
type Gap struct {
	MMSI   uint32
	Before model.VesselState
	After  model.VesselState
}

// Duration returns the silent interval length.
func (g Gap) Duration() time.Duration { return g.After.At.Sub(g.Before.At) }

// FindGaps extracts every reporting gap longer than threshold from a
// trajectory (as reconstructed from received messages).
func FindGaps(tr *model.Trajectory, threshold time.Duration) []Gap {
	var out []Gap
	for i := 1; i < tr.Len(); i++ {
		if tr.Points[i].At.Sub(tr.Points[i-1].At) > threshold {
			out = append(out, Gap{MMSI: tr.MMSI, Before: tr.Points[i-1], After: tr.Points[i]})
		}
	}
	return out
}

// OpenWorldConfig tunes the possible-event qualification.
type OpenWorldConfig struct {
	// MaxSpeedKn bounds how fast a silent vessel could have moved.
	MaxSpeedKn float64
	// MeetProximityM is the rendezvous proximity assumption.
	MeetProximityM float64
	// MinOverlap requires the two silent windows to overlap at least this
	// long for a meeting to be physically meaningful.
	MinOverlap time.Duration
}

// DefaultOpenWorldConfig returns cautious defaults.
func DefaultOpenWorldConfig() OpenWorldConfig {
	return OpenWorldConfig{MaxSpeedKn: 25, MeetProximityM: 1000, MinOverlap: 10 * time.Minute}
}

// PossibleRendezvous performs the open-world qualification of §4: given
// the reporting gaps of two vessels, it reports whether the vessels COULD
// have met while both were silent — i.e. whether there exists a point
// reachable by both within their silent windows, meeting for MinOverlap.
// A closed-world query over the received data alone would answer "no
// rendezvous"; the open-world answer is "possible", with the feasibility
// window.
func PossibleRendezvous(a, b Gap, cfg OpenWorldConfig) (Alert, bool) {
	// Overlapping silent intervals.
	start := a.Before.At
	if b.Before.At.After(start) {
		start = b.Before.At
	}
	end := a.After.At
	if b.After.At.Before(end) {
		end = b.After.At
	}
	if !end.After(start.Add(cfg.MinOverlap)) {
		return Alert{}, false
	}
	// Feasibility: each vessel must be able to reach a common point from
	// its last known position and still make its next known position.
	// Check the midpoint of the two silent tracks as the candidate meeting
	// point (a sufficient witness, not a necessary one — we accept slight
	// under-reporting to stay conservative).
	meet := geo.Midpoint(
		geo.Midpoint(a.Before.Pos, a.After.Pos),
		geo.Midpoint(b.Before.Pos, b.After.Pos),
	)
	vmax := cfg.MaxSpeedKn * geo.Knot
	hold := cfg.MinOverlap
	feasible := func(g Gap) bool {
		// Time to reach meet from last fix, dwell, then reach next fix.
		inDist := geo.Distance(g.Before.Pos, meet)
		outDist := geo.Distance(meet, g.After.Pos)
		need := inDist/vmax + hold.Seconds() + outDist/vmax
		return need <= g.Duration().Seconds()
	}
	if !feasible(a) || !feasible(b) {
		return Alert{}, false
	}
	return Alert{
		Kind: KindPossibleRendezvous, MMSI: a.MMSI, Other: b.MMSI,
		At: end, Start: start, Where: meet, Severity: 2,
		Note: fmt.Sprintf("both dark %s; meeting physically feasible",
			end.Sub(start).Round(time.Minute)),
	}, true
}

// QualifyRendezvous runs the full open-world sweep: given reconstructed
// trajectories, it returns closed-world alerts (from detected rendezvous,
// passed through) plus possible-rendezvous alerts for every dark-gap pair
// that could have met. Pairs are pruned to those whose gap anchor
// positions are within reachDistance of each other.
//
//lint:ignore deadexport TestOpenWorldCoverageClaim holds E4 on this offline sweep
func QualifyRendezvous(trajectories map[uint32]*model.Trajectory, detected []Alert, gapThreshold time.Duration, cfg OpenWorldConfig) []Alert {
	out := append([]Alert(nil), detected...)
	// Collect gaps per vessel.
	var all []Gap
	for _, tr := range trajectories {
		all = append(all, FindGaps(tr, gapThreshold)...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].MMSI != all[j].MMSI {
			return all[i].MMSI < all[j].MMSI
		}
		return all[i].Before.At.Before(all[j].Before.At)
	})
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			ga, gb := all[i], all[j]
			if ga.MMSI == gb.MMSI {
				continue
			}
			// Prune: anchors too far to plausibly meet.
			reach := cfg.MaxSpeedKn * geo.Knot *
				(ga.Duration().Seconds() + gb.Duration().Seconds()) / 2
			if geo.Distance(ga.Before.Pos, gb.Before.Pos) > reach {
				continue
			}
			if a, ok := PossibleRendezvous(ga, gb, cfg); ok {
				out = append(out, a)
			}
		}
	}
	return out
}
