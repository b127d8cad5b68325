// Track intelligence: the three per-vessel inference kinds — track
// (fused state + covariance ellipse), predict (position at t+Δ with a
// confidence envelope) and quality (data-integrity score) — and the
// deterministic replay that answers them from any Source.
//
// A Source that maintains live fused state (the ingest engine's
// internal/track stage, a federation peer) answers through
// Source.Derived; an archive answers by replaying its stored trajectory
// through the very folds the online stage keeps per vessel (Replay over
// TrackAccumulator / QualityAccumulator, memoised per vessel). predict
// has no online state: every source answers it by dead reckoning from the
// vessel's last archived sample (derivePredict). The replay is a pure
// function of the point sequence — no wall clock, no randomness — so a
// tiered store that evicted and paged a vessel back answers
// byte-identically to one that never evicted it (pinned by
// TestQueryEquivalenceUnderEviction).
package query

import (
	"context"
	"math"
	"time"

	"repro/internal/forecast"
	"repro/internal/fusion"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/quality"
	"repro/internal/uncertainty"
)

// Track-intelligence tuning shared by the online stage and the offline
// replay: both must feed the libraries identically or the equivalence
// tests (online==replay, evicted==resident) break.
const (
	// MaxPredictHorizon bounds Request.Horizon: beyond a day, dead
	// reckoning says nothing defensible.
	MaxPredictHorizon = 24 * time.Hour
	// AISPositionSigmaM is the 1-sigma position noise assumed for AIS
	// fixes (GPS-grade; forecast.Kalman's replay uses the same figure).
	AISPositionSigmaM = 15.0
	// predictConfWindow bounds the filter replay behind a prediction's
	// confidence envelope to the recent past, mirroring forecast.Kalman.
	predictConfWindow = 30 * time.Minute
)

// TrackState is the wire form of one vessel's fused track: the smoothed
// position/velocity estimate of a constant-velocity Kalman filter and
// its position-covariance error ellipse (1-sigma semi-axes; OrientDeg is
// the bearing of the major axis, degrees clockwise from north).
type TrackState struct {
	MMSI      uint32    `json:"mmsi"`
	At        time.Time `json:"at"`
	Lat       float64   `json:"lat"`
	Lon       float64   `json:"lon"`
	SpeedKn   float64   `json:"speed_kn"`
	CourseDeg float64   `json:"course_deg"`

	// SigmaM is the scalar position uncertainty (RMS of the ellipse axes).
	SigmaM    float64 `json:"sigma_m"`
	MajorM    float64 `json:"major_m"`
	MinorM    float64 `json:"minor_m"`
	OrientDeg float64 `json:"orient_deg"`

	Hits      int  `json:"hits"`
	Misses    int  `json:"misses"`
	Confirmed bool `json:"confirmed"`
	// Sources counts measurements per producing sensor ("ais", "radar").
	Sources map[string]int `json:"sources,omitempty"`
}

// Prediction is the wire form of a position forecast: where the vessel
// is expected At (= From + Horizon), by which predictor (always
// "dead-reckoning": on ordinary traffic no learned predictor beats it,
// forecast.TestPredictClaim), with a 1-sigma confidence envelope radius
// in metres.
type Prediction struct {
	MMSI    uint32    `json:"mmsi"`
	From    time.Time `json:"from"`
	At      time.Time `json:"at"`
	Horizon Duration  `json:"horizon"`
	Lat     float64   `json:"lat"`
	Lon     float64   `json:"lon"`
	Method  string    `json:"method"`
	// ConfidenceM is the 1-sigma position uncertainty a constant-velocity
	// filter reaches when coasted (no measurements) over the horizon.
	ConfidenceM float64 `json:"confidence_m"`
}

// QualityScore is the wire form of one vessel's data-integrity profile:
// a Beta-Bernoulli reliability estimate over its checked messages
// (mean and conservative 2-sigma lower bound) with per-rule issue
// counts from the kinematic checks.
type QualityScore struct {
	MMSI        uint32  `json:"mmsi"`
	Reliability float64 `json:"reliability"`
	LowerBound  float64 `json:"lower_bound"`
	Checked     int     `json:"checked"`
	Flagged     int     `json:"flagged"`
	// Issues counts flagged messages per rule ("teleport", "sog-mismatch",
	// "time-regression").
	Issues map[string]int `json:"issues,omitempty"`
}

// TrackStateOf renders a fused track into its wire form. The error
// ellipse is the eigendecomposition of the filter's 2×2 position
// covariance block; axes are 1-sigma, orientation is the bearing of the
// major axis.
func TrackStateOf(tr *fusion.Track) *TrackState {
	f := tr.Filter
	pos := f.Position()
	v := f.Velocity()
	// Position covariance block in the local EN plane: x = east, y = north.
	a, b, c := f.P[0], (f.P[1]+f.P[4])/2, f.P[5]
	mid := (a + c) / 2
	disc := math.Sqrt(((a-c)/2)*((a-c)/2) + b*b)
	l1, l2 := math.Max(mid+disc, 0), math.Max(mid-disc, 0)
	// Major-axis eigenvector angle from east, converted to a bearing.
	theta := 0.5 * math.Atan2(2*b, a-c)
	out := &TrackState{
		MMSI: tr.Identity, At: tr.LastSeen,
		Lat: pos.Lat, Lon: pos.Lon,
		SpeedKn: v.SpeedMS / geo.Knot, CourseDeg: v.CourseDg,
		SigmaM: f.PositionUncertaintyM(),
		MajorM: math.Sqrt(l1), MinorM: math.Sqrt(l2),
		OrientDeg: geo.NormalizeBearing(90 - theta*180/math.Pi),
		Hits:      tr.Hits, Misses: tr.Misses, Confirmed: tr.Confirmed,
	}
	if len(tr.Sources) > 0 {
		out.Sources = make(map[string]int, len(tr.Sources))
		for k, n := range tr.Sources {
			out.Sources[k] = n
		}
	}
	return out
}

// TrackAccumulator folds one vessel's measurement stream into its fused
// constant-velocity Kalman track: the identity-bound path of
// fusion.Tracker — the first fix anchors the local plane and initialises
// the filter, every later one predicts to its instant and updates, hits
// count towards confirmation — without the per-scan association
// scaffolding a one-vessel scan does not need, and bit-identical to it
// (pinned by TestTrackAccumulatorMatchesTracker). Identified
// measurements always reach their track, so gaps in the history never
// lose state. AIS samples arrive through Observe; a radar contact the
// online stage assigned to this vessel arrives through Fuse.
type TrackAccumulator struct {
	cfg fusion.TrackerConfig
	tr  fusion.Track // Filter nil before the first measurement; Sources filled by Report
	// Per-sensor measurement counts, held as plain ints (a map increment
	// per record would hash a string key on the ingest hot path); Report
	// materialises the Sources map.
	srcAIS   int
	srcRadar int
}

// TrackFold returns the TrackAccumulator constructor for a tracker
// lifecycle (process noise, confirmation). The offline replay always
// folds under fusion.DefaultTrackerConfig(); the AIS measurement model
// itself is fixed (AISPositionSigmaM).
func TrackFold(cfg fusion.TrackerConfig) func(mmsi uint32) *TrackAccumulator {
	return func(mmsi uint32) *TrackAccumulator {
		return &TrackAccumulator{cfg: cfg, tr: fusion.Track{ID: 1, Identity: mmsi}}
	}
}

// measure advances the track with one position measurement.
func (a *TrackAccumulator) measure(at time.Time, pos geo.Point, sigmaM float64) {
	tr := &a.tr
	if tr.Filter == nil {
		tr.Filter = fusion.NewKalmanCV(pos, a.cfg.ProcessNoise)
		tr.Filter.Init(at, pos, sigmaM)
		tr.Hits = 1
	} else {
		tr.Filter.Predict(at)
		tr.Filter.Update(pos, sigmaM)
		tr.Hits++
		if tr.Hits >= a.cfg.ConfirmHits {
			tr.Confirmed = true
		}
	}
	tr.LastSeen = at
}

// Observe folds in the vessel's next AIS sample (time order, like the
// feed).
func (a *TrackAccumulator) Observe(s model.VesselState) NoFacts {
	a.measure(s.At, s.Pos, AISPositionSigmaM)
	a.srcAIS++
	return NoFacts{}
}

// Fuse folds in an anonymous detection the assignment bound to this
// vessel (sigmaM is the sensor's 1-sigma noise).
func (a *TrackAccumulator) Fuse(at time.Time, pos geo.Point, sigmaM float64) {
	a.measure(at, pos, sigmaM)
	a.srcRadar++
}

// Predicted returns a copy of the filter coasted to at — what a
// detection at that instant is gated against; the live filter does not
// advance. Only valid once the vessel has been observed.
func (a *TrackAccumulator) Predicted(at time.Time) fusion.KalmanCV {
	f := *a.tr.Filter
	f.Predict(at)
	return f
}

// Report renders the fused track; nil before any observation. Sources
// carries only sensors that actually measured the vessel, matching the
// map fusion.Tracker grows key by key.
func (a *TrackAccumulator) Report() *TrackState {
	if a.tr.Filter == nil {
		return nil
	}
	tr := a.tr
	tr.Sources = make(map[string]int, 2)
	if a.srcAIS > 0 {
		tr.Sources["ais"] = a.srcAIS
	}
	if a.srcRadar > 0 {
		tr.Sources["radar"] = a.srcRadar
	}
	return TrackStateOf(&tr)
}

// coastedUncertaintyM folds the recent window through a fresh track
// accumulator and coasts its filter over the horizon: the 1-sigma
// envelope a measurement-starved tracker would report at the target
// instant.
func coastedUncertaintyM(pts []model.VesselState, horizon time.Duration) float64 {
	last := pts[len(pts)-1]
	start := last.At.Add(-predictConfWindow)
	acc := TrackFold(fusion.DefaultTrackerConfig())(last.MMSI)
	for _, p := range pts {
		if !p.At.Before(start) {
			acc.Observe(p)
		}
	}
	f := acc.Predicted(last.At.Add(horizon))
	return f.PositionUncertaintyM()
}

// derivePredict is predict's one answer, online or replayed: dead
// reckoning from the vessel's last archived sample, with the envelope a
// filter over the recent window reports when coasted over the horizon.
// It depends on Horizon, so it is not memoised.
func derivePredict(ctx context.Context, a archived, r Request) *Result {
	tally(ctx, false)
	pts := a.replaysOf(r.MMSI).store.Trajectory(r.MMSI).Points
	if len(pts) == 0 {
		return &Result{}
	}
	horizon := time.Duration(r.Horizon)
	dr := forecast.DeadReckoning{}
	pos, _ := dr.Predict(&model.Trajectory{MMSI: r.MMSI, Points: pts}, horizon)
	last := pts[len(pts)-1]
	return &Result{Prediction: &Prediction{
		MMSI: r.MMSI, From: last.At, At: last.At.Add(horizon),
		Horizon: r.Horizon, Lat: pos.Lat, Lon: pos.Lon,
		Method: dr.Name(), ConfidenceM: coastedUncertaintyM(pts, horizon),
	}}
}

// QualityAccumulator folds one vessel's sample stream into an integrity
// score: each sample runs the kinematic checks and lands as a clean or
// flagged observation in a Beta-Bernoulli reliability estimate (the
// same prior and update core.Pipeline's quality.Profile applies per
// vessel, held inline here — the online stage pays this per archived
// record, so the fold must not hash a subject key every sample). The
// online stage keeps one per vessel; Replay folds a stored history
// through one — the same fold either way, so online and replayed scores
// agree exactly.
type QualityAccumulator struct {
	mmsi    uint32
	kc      quality.KinematicChecker
	beta    uncertainty.Beta
	checked int
	flagged int
	issues  map[string]int
}

// NewQualityAccumulator returns an empty accumulator for one vessel.
func NewQualityAccumulator(mmsi uint32) *QualityAccumulator {
	return &QualityAccumulator{
		mmsi: mmsi,
		// The score keeps rule counts, not prose, so skip note formatting —
		// on a defect-heavy feed the Sprintf would otherwise dominate the
		// online stage's per-record cost.
		kc:   quality.KinematicChecker{SkipNotes: true},
		beta: uncertainty.NewBeta(),
	}
}

// Observe folds in the vessel's next sample (time order, like the feed).
func (q *QualityAccumulator) Observe(s model.VesselState) NoFacts {
	issues := q.kc.Check(s)
	q.checked++
	if len(issues) > 0 {
		q.flagged++
		if q.issues == nil {
			q.issues = make(map[string]int)
		}
		for _, is := range issues {
			q.issues[is.Rule]++
		}
		q.beta = q.beta.Observe(0, 1)
	} else {
		q.beta = q.beta.Observe(1, 0)
	}
	return NoFacts{}
}

// Report renders the accumulated profile; nil before any observation.
func (q *QualityAccumulator) Report() *QualityScore {
	if q.checked == 0 {
		return nil
	}
	mean, lower := q.beta.Mean(), q.beta.LowerBound(2)
	s := &QualityScore{
		MMSI: q.mmsi, Reliability: mean, LowerBound: lower,
		Checked: q.checked, Flagged: q.flagged,
	}
	if len(q.issues) > 0 {
		s.Issues = make(map[string]int, len(q.issues))
		for k, n := range q.issues {
			s.Issues[k] = n
		}
	}
	return s
}
