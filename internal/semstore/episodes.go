package semstore

import (
	"fmt"
	"time"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/zones"
)

// Activity labels a semantic trajectory episode, following the
// stop/move model of Parent et al. [34] specialised to the maritime
// domain.
type Activity string

// Episode activities.
const (
	ActivityMoored   Activity = "moored"    // stop inside a port zone
	ActivityAnchored Activity = "anchored"  // stop outside any port
	ActivityUnderway Activity = "underway"  // move at transit speed
	ActivitySlowMove Activity = "slow-move" // move below transit speed (possibly fishing)
)

// Episode is one semantically annotated trajectory segment.
type Episode struct {
	MMSI     uint32
	Activity Activity
	Start    time.Time
	End      time.Time
	Centroid geo.Point
	AvgSpeed float64  // knots
	ZoneIDs  []string // zones containing the centroid
}

// EpisodeConfig tunes the stop/move segmentation.
type EpisodeConfig struct {
	// StopSpeedKn is the speed below which a sample counts as stopped.
	StopSpeedKn float64
	// SlowSpeedKn separates slow movement (fishing-like) from transit.
	SlowSpeedKn float64
	// MinDuration drops episodes shorter than this.
	MinDuration time.Duration
}

// DefaultEpisodeConfig returns maritime-plausible thresholds.
func DefaultEpisodeConfig() EpisodeConfig {
	return EpisodeConfig{StopSpeedKn: 0.8, SlowSpeedKn: 6, MinDuration: 10 * time.Minute}
}

// SegmentEpisodes converts a trajectory into stop/move episodes and
// annotates each with the zones containing its centroid. This is the
// "semantic trajectory" computation the paper frames as a link-discovery/
// annotation task (§2.2, §3.1).
//
// Boundary semantics (pinned by TestSegmentEpisodesBoundaries): a
// sample at an activity threshold belongs to the slower class (<=
// StopSpeedKn stops, <= SlowSpeedKn slow-moves); the sample that
// changes activity ends the previous episode at its timestamp and opens
// — and counts toward — the new one; episodes strictly shorter than
// MinDuration are dropped without merging their neighbours; and the
// trailing in-progress episode IS flushed at the last sample, kept
// under the same MinDuration filter (the online anomaly fold, which
// cannot see stream end, reports it separately as the provisional
// "current" episode instead).
func SegmentEpisodes(tr *model.Trajectory, zs *zones.ZoneSet, cfg EpisodeConfig) []Episode {
	if tr.Len() == 0 {
		return nil
	}
	classify := func(s model.VesselState) Activity {
		switch {
		case s.SpeedKn <= cfg.StopSpeedKn:
			return ActivityAnchored // refined to moored later via zones
		case s.SpeedKn <= cfg.SlowSpeedKn:
			return ActivitySlowMove
		default:
			return ActivityUnderway
		}
	}
	var out []Episode
	cur := Episode{MMSI: tr.MMSI, Activity: classify(tr.Points[0]), Start: tr.Points[0].At}
	var latSum, lonSum, spdSum float64
	var n int
	flush := func(end time.Time) {
		cur.End = end
		if n > 0 {
			cur.Centroid = geo.Point{Lat: latSum / float64(n), Lon: lonSum / float64(n)}
			cur.AvgSpeed = spdSum / float64(n)
		}
		if cur.End.Sub(cur.Start) >= cfg.MinDuration {
			Annotate(&cur, zs)
			out = append(out, cur)
		}
		latSum, lonSum, spdSum, n = 0, 0, 0, 0
	}
	for i, p := range tr.Points {
		act := classify(p)
		if act != cur.Activity {
			flush(p.At)
			cur = Episode{MMSI: tr.MMSI, Activity: act, Start: p.At}
		}
		latSum += p.Pos.Lat
		lonSum += p.Pos.Lon
		spdSum += p.SpeedKn
		n++
		if i == tr.Len()-1 {
			flush(p.At)
		}
	}
	return out
}

// Annotate refines an episode's activity using zones (anchored inside a
// port becomes moored) and records zone membership. SegmentEpisodes calls
// it for every kept episode; the online anomaly stage calls it on each
// incrementally closed episode so streamed and batch annotations agree.
func Annotate(e *Episode, zs *zones.ZoneSet) {
	if zs == nil {
		return
	}
	for _, z := range zs.At(e.Centroid) {
		e.ZoneIDs = append(e.ZoneIDs, z.ID)
		if e.Activity == ActivityAnchored && z.Kind == zones.KindPort {
			e.Activity = ActivityMoored
		}
	}
}

// EpisodeIRI builds the IRI of an episode entity.
func EpisodeIRI(mmsi uint32, idx int) string {
	return fmt.Sprintf("mar:episode/%d/%d", mmsi, idx)
}

// MaterialiseEpisodes writes the episodes of one vessel into the store as
// linked entities: vessel —hasEpisode→ episode with activity, interval,
// centroid, speed and zone triples. Returns the number of triples added.
func MaterialiseEpisodes(st *Store, episodes []Episode) int {
	before := st.Len()
	for i, e := range episodes {
		MaterialiseEpisode(st, e, i)
	}
	return st.Len() - before
}

// MaterialiseEpisode writes one episode into the store under the IRI
// EpisodeIRI(e.MMSI, idx). The caller owns the per-vessel index: batch
// materialisation numbers a vessel's episodes from zero, while the online
// anomaly stage carries a monotone counter per vessel so incrementally
// closed episodes never collide.
func MaterialiseEpisode(st *Store, e Episode, idx int) {
	epi := EpisodeIRI(e.MMSI, idx)
	ves := VesselIRI(e.MMSI)
	st.Add(Triple{S: IRI(ves), P: IRI(PredHasEpisode), O: IRI(epi)})
	st.Add(Triple{S: IRI(epi), P: IRI(PredType), O: IRI(ClassEpisode)})
	st.Add(Triple{S: IRI(epi), P: IRI(PredEpisodeOf), O: IRI(ves)})
	st.Add(Triple{S: IRI(epi), P: IRI(PredActivity), O: Str(string(e.Activity))})
	st.Add(Triple{S: IRI(epi), P: IRI(PredStartTime), O: Tim(e.Start)})
	st.Add(Triple{S: IRI(epi), P: IRI(PredEndTime), O: Tim(e.End)})
	st.Add(Triple{S: IRI(epi), P: IRI(PredAtPoint), O: Pt(e.Centroid)})
	st.Add(Triple{S: IRI(epi), P: IRI(PredAvgSpeedKn), O: Num(e.AvgSpeed)})
	for _, zid := range e.ZoneIDs {
		st.Add(Triple{S: IRI(epi), P: IRI(PredInZone), O: IRI("mar:zone/" + zid)})
	}
}
