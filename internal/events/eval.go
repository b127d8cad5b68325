package events

import (
	"time"
)

// TruthWindow is a ground-truth event interval used for scoring detector
// output (the simulator's injected anomalies map 1:1 onto this).
type TruthWindow struct {
	Kind  Kind
	MMSI  uint32
	Other uint32
	Start time.Time
	End   time.Time
}

// MatchResult scores one detector kind against ground truth.
type MatchResult struct {
	Kind      Kind
	Truth     int
	Alerts    int
	TP        int // alerts matching a truth window
	FP        int
	FN        int // truth windows never alerted
	Precision float64
	Recall    float64
	F1        float64
	// MeanLatency is the mean delay from truth start to first alert.
	MeanLatency time.Duration
}

// Score matches alerts to truth windows of the same kind: an alert is a
// true positive when the same vessel (or pair, order-insensitive) has a
// truth window of that kind overlapping [alert.Start−slack, alert.At+slack].
// Each truth window is credited at most once for recall; extra alerts on
// an already-credited window are not penalised (a detector may re-raise).
func Score(kind Kind, alerts []Alert, truths []TruthWindow, slack time.Duration) MatchResult {
	r := MatchResult{Kind: kind}
	var relevantTruth []TruthWindow
	for _, t := range truths {
		if t.Kind == kind {
			relevantTruth = append(relevantTruth, t)
		}
	}
	r.Truth = len(relevantTruth)
	matched := make([]bool, len(relevantTruth))
	var latencies []time.Duration
	firstAlert := make(map[int]time.Time)

	pairEq := func(t TruthWindow, a Alert) bool {
		// Identity-spoofing alerts carry the OBSERVED (fake) identity —
		// that is the point of the fraud — so they match on time overlap
		// alone.
		if kind == KindIdentity {
			return true
		}
		if t.Other == 0 && a.Other == 0 {
			return t.MMSI == a.MMSI
		}
		return (t.MMSI == a.MMSI && t.Other == a.Other) ||
			(t.MMSI == a.Other && t.Other == a.MMSI)
	}
	for _, a := range alerts {
		if a.Kind != kind {
			continue
		}
		r.Alerts++
		hit := false
		for i, t := range relevantTruth {
			if !pairEq(t, a) {
				continue
			}
			aStart := a.Start
			if aStart.IsZero() {
				aStart = a.At
			}
			if aStart.Add(-slack).After(t.End) || a.At.Add(slack).Before(t.Start) {
				continue
			}
			hit = true
			matched[i] = true
			if ts, ok := firstAlert[i]; !ok || a.At.Before(ts) {
				firstAlert[i] = a.At
			}
		}
		if hit {
			r.TP++
		} else {
			r.FP++
		}
	}
	for i, m := range matched {
		if !m {
			r.FN++
			continue
		}
		lat := firstAlert[i].Sub(relevantTruth[i].Start)
		if lat < 0 {
			lat = 0
		}
		latencies = append(latencies, lat)
	}
	if r.TP+r.FP > 0 {
		r.Precision = float64(r.TP) / float64(r.TP+r.FP)
	}
	detected := 0
	for _, m := range matched {
		if m {
			detected++
		}
	}
	if r.Truth > 0 {
		r.Recall = float64(detected) / float64(r.Truth)
	}
	if r.Precision+r.Recall > 0 {
		r.F1 = 2 * r.Precision * r.Recall / (r.Precision + r.Recall)
	}
	if len(latencies) > 0 {
		var sum time.Duration
		for _, l := range latencies {
			sum += l
		}
		r.MeanLatency = sum / time.Duration(len(latencies))
	}
	return r
}
