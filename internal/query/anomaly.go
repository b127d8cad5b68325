// Behavioral anomalies: the per-vessel deviation kind — a sliding-window
// distribution-shift score over speed/heading/position (the unsupervised
// behavior-change blueprint of Petry et al.), reporting-gap counts and
// the vessel's recent stop/move episodes — plus the fleet-ranked form of
// the same read.
//
// Like the track-intelligence kinds, a Source that maintains live
// per-vessel profiles (the ingest engine's internal/anomaly stage, a
// federation peer) answers through Source.Derived; an archive answers
// by replaying its stored trajectory through the same
// AnomalyAccumulator fold (Replay, memoised per vessel). The fold is a pure
// function of the point sequence — fixed bin layouts, fixed thresholds
// (the package constants below, not a config), no wall clock — so online
// and replayed answers are byte-identical, and a tiered store that
// evicted and paged a vessel back answers exactly like one that never
// evicted it (pinned by TestQueryEquivalenceUnderEviction).
package query

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/events"
	"repro/internal/model"
	"repro/internal/semstore"
)

// Anomaly-fold tuning shared by the online stage and the offline replay.
// These are constants, not configuration: the replay has no config
// parameter, so anything tunable here would break the online==offline
// equivalence the kind is pinned to. Episode thresholds come from
// semstore.DefaultEpisodeConfig() for the same reason.
const (
	// AnomalyGapThreshold is the silence that counts as a reporting gap —
	// the same threshold the offline open-world sweep (E13) qualifies
	// rendezvous candidates with.
	AnomalyGapThreshold = 10 * time.Minute
	// AnomalyWindow is the sliding-window length (samples) the shift
	// score compares against the vessel's full history: with fewer
	// samples than this the window is the history and every shift is 0.
	AnomalyWindow = 32
	// AnomalyRecentEpisodes bounds the closed stop/move episodes a
	// vessel's report retains (oldest dropped first).
	AnomalyRecentEpisodes = 8
	// DefaultAnomalyLimit caps a ranked-anomalies answer when the request
	// does not set Limit.
	DefaultAnomalyLimit = 10

	// Histogram layout of the behavior profile: 16 speed bins of 2 kn
	// (30+ kn clamps into the last), 16 heading sectors of 22.5°, and
	// position cells of anomalyCellDeg (0.05°, ≈5.5 km) — coarse on
	// purpose; the score watches distribution shift, not exact kinematics.
	anomalySpeedBins  = 16
	anomalySpeedBinKn = 2.0
	anomalyHeadBins   = 16
	anomalyCellDeg    = 0.05
)

// EpisodeInfo is the wire form of one stop/move episode: the semstore
// segmentation (activity by speed thresholds, centroid, mean speed)
// without zone annotation — the fold is zone-free so replays never
// depend on which zone set a daemon loaded.
type EpisodeInfo struct {
	Activity   string    `json:"activity"`
	Start      time.Time `json:"start"`
	End        time.Time `json:"end"`
	Lat        float64   `json:"lat"`
	Lon        float64   `json:"lon"`
	AvgSpeedKn float64   `json:"avg_speed_kn"`
}

// GapInfo is the wire form of one reporting gap (silence longer than
// AnomalyGapThreshold between consecutive samples).
type GapInfo struct {
	Start    time.Time `json:"start"`
	End      time.Time `json:"end"`
	Duration Duration  `json:"duration"`
}

// VesselAnomaly is the wire form of one vessel's deviation report: the
// per-dimension distribution shifts of its recent window against its
// full history (0 = behaving like itself, 1 = disjoint distributions),
// their mean as the headline Score, reporting-gap bookkeeping and the
// recent episode timeline.
type VesselAnomaly struct {
	MMSI    uint32    `json:"mmsi"`
	At      time.Time `json:"at"` // last sample folded
	Samples int       `json:"samples"`

	// Score is the mean of the three per-dimension shifts.
	Score         float64 `json:"score"`
	SpeedShift    float64 `json:"speed_shift"`
	HeadingShift  float64 `json:"heading_shift"`
	PositionShift float64 `json:"position_shift"`

	// Gaps counts reporting gaps seen so far; LastGap is the most recent.
	Gaps    int      `json:"gaps,omitempty"`
	LastGap *GapInfo `json:"last_gap,omitempty"`

	// Episodes are the vessel's most recent closed stop/move episodes
	// (oldest first, at most AnomalyRecentEpisodes, each at least
	// MinDuration long — exactly the episodes the batch segmenter
	// emits). Current is the in-progress episode, ending provisionally
	// at the last sample; it graduates into Episodes only if it reaches
	// MinDuration by the time the activity changes.
	Episodes []EpisodeInfo `json:"episodes,omitempty"`
	Current  *EpisodeInfo  `json:"current,omitempty"`
}

// AnomalyReport is the anomalies-kind payload: the per-vessel form when
// the request named an MMSI, the fleet-ranked form otherwise.
type AnomalyReport struct {
	Vessel *VesselAnomaly  `json:"vessel,omitempty"`
	Ranked []VesselAnomaly `json:"ranked,omitempty"`
}

// episodeInfoOf renders a semstore episode into its wire form.
func episodeInfoOf(e semstore.Episode) EpisodeInfo {
	return EpisodeInfo{
		Activity: string(e.Activity), Start: e.Start, End: e.End,
		Lat: e.Centroid.Lat, Lon: e.Centroid.Lon, AvgSpeedKn: e.AvgSpeed,
	}
}

// posCell is a coarse position-histogram cell (anomalyCellDeg grid).
type posCell struct{ lat, lon int32 }

func cellOf(lat, lon float64) posCell {
	return posCell{
		lat: int32(floorDiv(lat, anomalyCellDeg)),
		lon: int32(floorDiv(lon, anomalyCellDeg)),
	}
}

func floorDiv(v, cell float64) int {
	return int(math.Floor(v / cell))
}

func speedBinOf(kn float64) int {
	if kn <= 0 {
		return 0
	}
	b := int(kn / anomalySpeedBinKn)
	if b >= anomalySpeedBins {
		b = anomalySpeedBins - 1
	}
	return b
}

func headBinOf(deg float64) int {
	d := deg
	for d < 0 {
		d += 360
	}
	for d >= 360 {
		d -= 360
	}
	b := int(d / (360.0 / anomalyHeadBins))
	if b >= anomalyHeadBins {
		b = anomalyHeadBins - 1
	}
	return b
}

// winSample is one window entry: the three bin coordinates of a sample.
type winSample struct {
	speed int8
	head  int8
	cell  posCell
}

// AnomalyAccumulator folds one vessel's sample stream into a behavior
// profile: long-run histograms over speed/heading/position, a sliding
// window of the last AnomalyWindow samples, the stop/move
// semstore.Segmenter that semstore.SegmentEpisodes also loops over
// (pinned by TestAccumulatorMatchesBatchSegmenter), and a reporting-gap
// detector with FindGaps semantics (a gap is recognised when the first
// sample after the silence arrives). The online stage keeps one per
// vessel; Replay folds a stored history through one — the same fold
// either way, so online and replayed reports agree exactly.
type AnomalyAccumulator struct {
	mmsi    uint32
	samples int
	last    model.VesselState

	speedBase [anomalySpeedBins]int
	headBase  [anomalyHeadBins]int
	posBase   map[posCell]int

	win     []winSample // ring of the last AnomalyWindow samples
	winHead int

	gaps    int
	lastGap events.Gap

	semstore.Segmenter
	closed []semstore.Episode // the last AnomalyRecentEpisodes it closed
}

// NewAnomalyAccumulator returns an empty accumulator for one vessel.
func NewAnomalyAccumulator(mmsi uint32) *AnomalyAccumulator {
	return &AnomalyAccumulator{
		mmsi:      mmsi,
		posBase:   make(map[posCell]int),
		win:       make([]winSample, 0, AnomalyWindow),
		Segmenter: semstore.NewSegmenter(mmsi, semstore.DefaultEpisodeConfig()),
	}
}

// AnomalyFacts are the stream facts one sample completed, for callers
// that act on them (the online stage materialises closed episodes into
// semstore and feeds gaps to the rendezvous matcher): a stop/move
// episode closed by an activity change — Index numbers the vessel's
// kept episodes from zero, as batch materialisation does — and a
// reporting gap ended by the sample. Both are nil on the vast majority
// of samples.
type AnomalyFacts struct {
	Closed *semstore.Episode
	Index  int
	Gap    *events.Gap
}

// Observe folds in the vessel's next sample (time order, like the feed)
// and reports the facts it completed.
func (a *AnomalyAccumulator) Observe(s model.VesselState) (facts AnomalyFacts) {
	// Gap detection (FindGaps semantics: recognised at the first sample
	// after the silence).
	if a.samples > 0 && s.At.Sub(a.last.At) > AnomalyGapThreshold {
		a.gaps++
		a.lastGap = events.Gap{MMSI: a.mmsi, Before: a.last, After: s}
		g := a.lastGap
		facts.Gap = &g
	}
	if e, idx := a.Segmenter.Observe(s); e != nil {
		if len(a.closed) == AnomalyRecentEpisodes {
			copy(a.closed, a.closed[1:])
			a.closed = a.closed[:len(a.closed)-1]
		}
		a.closed = append(a.closed, *e)
		facts.Closed, facts.Index = e, idx
	}
	// Behavior histograms.
	w := winSample{
		speed: int8(speedBinOf(s.SpeedKn)),
		head:  int8(headBinOf(s.CourseDeg)),
		cell:  cellOf(s.Pos.Lat, s.Pos.Lon),
	}
	a.speedBase[w.speed]++
	a.headBase[w.head]++
	a.posBase[w.cell]++
	if len(a.win) < cap(a.win) {
		a.win = append(a.win, w)
	} else {
		a.win[a.winHead] = w
		a.winHead = (a.winHead + 1) % len(a.win)
	}
	a.last = s
	a.samples++
	return facts
}

// tv is half the L1 distance between the baseline distribution (counts
// base over total n) and the window distribution (counts win over total
// wn): 0 when the window is distributed like the history, 1 when they
// are disjoint. Iteration order is the caller's — it must be fixed
// (array order, sorted keys) for the float sum to be deterministic.
func tvAccum(base, win, n, wn int, acc *float64) {
	d := float64(base)/float64(n) - float64(win)/float64(wn)
	if d < 0 {
		d = -d
	}
	*acc += d
}

// shifts computes the three per-dimension total-variation shift scores.
func (a *AnomalyAccumulator) shifts() (speed, head, pos float64) {
	n, wn := a.samples, len(a.win)
	if n == 0 || wn == 0 {
		return 0, 0, 0
	}
	var speedWin [anomalySpeedBins]int
	var headWin [anomalyHeadBins]int
	posWin := make(map[posCell]int, wn)
	for _, w := range a.win {
		speedWin[w.speed]++
		headWin[w.head]++
		posWin[w.cell]++
	}
	for i := range a.speedBase {
		tvAccum(a.speedBase[i], speedWin[i], n, wn, &speed)
	}
	for i := range a.headBase {
		tvAccum(a.headBase[i], headWin[i], n, wn, &head)
	}
	// Window cells are a subset of baseline cells (every window sample is
	// also in the baseline), so iterating the baseline covers the union —
	// sorted, so the float sum is replay-deterministic.
	cells := make([]posCell, 0, len(a.posBase))
	for c := range a.posBase {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].lat != cells[j].lat {
			return cells[i].lat < cells[j].lat
		}
		return cells[i].lon < cells[j].lon
	})
	for _, c := range cells {
		tvAccum(a.posBase[c], posWin[c], n, wn, &pos)
	}
	return speed / 2, head / 2, pos / 2
}

// Report renders the accumulated profile; nil before any observation.
func (a *AnomalyAccumulator) Report() *VesselAnomaly {
	if a.samples == 0 {
		return nil
	}
	speed, head, pos := a.shifts()
	va := &VesselAnomaly{
		MMSI: a.mmsi, At: a.last.At, Samples: a.samples,
		Score:      (speed + head + pos) / 3,
		SpeedShift: speed, HeadingShift: head, PositionShift: pos,
		Gaps: a.gaps,
	}
	if a.gaps > 0 {
		va.LastGap = &GapInfo{
			Start: a.lastGap.Before.At, End: a.lastGap.After.At,
			Duration: Duration(a.lastGap.Duration()),
		}
	}
	for _, e := range a.closed {
		va.Episodes = append(va.Episodes, episodeInfoOf(e))
	}
	cur, _ := a.Current()
	ci := episodeInfoOf(cur)
	va.Current = &ci
	return va
}

// replayAnomalies is the anomalies kind over an archive: the vessel's
// memoised report, or every fleet vessel's (Stats.MMSIs) ranked and capped
// at Limit (0 = all), stopping between vessels once ctx is done.
func replayAnomalies(ctx context.Context, a archived, r Request) *Result {
	if r.MMSI != 0 {
		return memoised(vesselAnomalyOf, NewAnomalyAccumulator)(ctx, a, r)
	}
	fleet := a.Stats(ctx).MMSIs
	reports := make([]*VesselAnomaly, 0, len(fleet))
	for _, mmsi := range fleet {
		if ctx.Err() != nil {
			return &Result{}
		}
		if va := memoReplay(ctx, a.replaysOf(mmsi), KindAnomalies, mmsi, NewAnomalyAccumulator); va != nil {
			reports = append(reports, va)
		}
	}
	return &Result{Anomalies: &AnomalyReport{Ranked: RankAnomalies(reports, r.Limit)}}
}

// RankAnomalies returns the ranked answer over reports: the best limit of
// them (all when limit <= 0) in rank order — score descending, MMSI
// ascending on ties, the one deterministic order every producer of the
// ranked form (stage, replay, engine merge) must agree on. It selects by
// pointer and copies only the reports it returns; reports may be
// reordered, and is otherwise only read.
func RankAnomalies(reports []*VesselAnomaly, limit int) []VesselAnomaly {
	top := reports
	if limit > 0 && limit < len(reports) {
		// Insertion into the sorted best-so-far, skipping everything that
		// ranks below its last entry once it is full.
		top = make([]*VesselAnomaly, 0, limit+1)
		for _, va := range reports {
			if len(top) == limit && rankOrder(va, top[limit-1]) >= 0 {
				continue
			}
			i, _ := slices.BinarySearchFunc(top, va, rankOrder)
			if top = slices.Insert(top, i, va); len(top) > limit {
				top = top[:limit]
			}
		}
	} else {
		slices.SortFunc(top, rankOrder)
	}
	out := make([]VesselAnomaly, len(top))
	for i, va := range top {
		out[i] = *va
	}
	return out
}

// rankOrder is the ranked form's order: score descending, MMSI ascending.
func rankOrder(a, b *VesselAnomaly) int {
	if a.Score > b.Score {
		return -1
	}
	if a.Score < b.Score {
		return 1
	}
	return cmp.Compare(a.MMSI, b.MMSI)
}
