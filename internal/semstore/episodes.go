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
// annotation task (§2.2, §3.1): a Segmenter over the points, then the
// trailing open episode flushed at the last sample under the same
// MinDuration filter (the online anomaly fold, which cannot see stream
// end, reports it as the provisional "current" episode instead).
func SegmentEpisodes(tr *model.Trajectory, zs *zones.ZoneSet, cfg EpisodeConfig) []Episode {
	seg := NewSegmenter(tr.MMSI, cfg)
	var out []Episode
	keep := func(e Episode) {
		Annotate(&e, zs)
		out = append(out, e)
	}
	for _, p := range tr.Points {
		if e, _ := seg.Observe(p); e != nil {
			keep(*e)
		}
	}
	if e, ok := seg.Current(); ok && e.End.Sub(e.Start) >= cfg.MinDuration {
		keep(e)
	}
	return out
}

// Segmenter is the incremental stop/move segmentation of one vessel's
// samples, zone-free.
//
// Boundary semantics (pinned by TestSegmentEpisodesBoundaries): a
// sample at an activity threshold belongs to the slower class (<=
// StopSpeedKn stops, <= SlowSpeedKn slow-moves); the sample that
// changes activity ends the previous episode at its timestamp and opens
// — and counts toward — the new one; and episodes strictly shorter than
// MinDuration are dropped without merging their neighbours.
type Segmenter struct {
	cfg                    EpisodeConfig
	cur                    Episode // open episode; End is the last sample's time
	latSum, lonSum, spdSum float64
	n                      int // samples in cur; 0 = nothing observed yet
	kept                   int // episodes closed and kept so far
}

// NewSegmenter returns an empty segmenter for one vessel.
func NewSegmenter(mmsi uint32, cfg EpisodeConfig) Segmenter {
	return Segmenter{cfg: cfg, cur: Episode{MMSI: mmsi}}
}

func (s *Segmenter) classify(p model.VesselState) Activity {
	switch {
	case p.SpeedKn <= s.cfg.StopSpeedKn:
		return ActivityAnchored // refined to moored later via zones
	case p.SpeedKn <= s.cfg.SlowSpeedKn:
		return ActivitySlowMove
	default:
		return ActivityUnderway
	}
}

// Observe folds in the vessel's next sample (time order). When the
// sample closes an episode that reached MinDuration, it returns that
// episode and idx numbers it among the vessel's kept episodes from
// zero; otherwise nil (most samples: nothing is allocated).
func (s *Segmenter) Observe(p model.VesselState) (closed *Episode, idx int) {
	act := s.classify(p)
	if s.n > 0 && act != s.cur.Activity {
		s.cur.End = p.At
		if e := s.closing(); e.End.Sub(e.Start) >= s.cfg.MinDuration {
			closed, idx = &e, s.kept
			s.kept++
		}
		s.latSum, s.lonSum, s.spdSum, s.n = 0, 0, 0, 0
	}
	if s.n == 0 {
		s.cur = Episode{MMSI: s.cur.MMSI, Activity: act, Start: p.At}
	}
	s.cur.End = p.At
	s.latSum += p.Pos.Lat
	s.lonSum += p.Pos.Lon
	s.spdSum += p.SpeedKn
	s.n++
	return closed, idx
}

// Current returns the open episode, provisional as of the last sample;
// ok is false before any sample.
func (s *Segmenter) Current() (Episode, bool) {
	if s.n == 0 {
		return Episode{}, false
	}
	return s.closing(), true
}

// closing is the open episode with its centroid and mean speed filled.
func (s *Segmenter) closing() Episode {
	e := s.cur
	e.Centroid = geo.Point{Lat: s.latSum / float64(s.n), Lon: s.lonSum / float64(s.n)}
	e.AvgSpeed = s.spdSum / float64(s.n)
	return e
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
