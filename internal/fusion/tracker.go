package fusion

import (
	"math"
	"sort"
	"time"

	"repro/internal/geo"
)

// Measurement is one sensor position report fed to the tracker.
type Measurement struct {
	At     time.Time
	Pos    geo.Point
	SigmaM float64 // sensor position noise (1-sigma)
	// Identity carried by the sensor (MMSI for AIS), 0 for anonymous
	// sensors such as radar. Identified measurements bind to their track.
	Identity uint32
	// Source labels the producing sensor ("ais", "radar-2"…).
	Source string
}

// Track is one maintained object hypothesis.
type Track struct {
	ID        int
	Filter    *KalmanCV
	Identity  uint32 // 0 until an identified measurement binds one
	Hits      int
	Misses    int
	Confirmed bool
	LastSeen  time.Time
	Sources   map[string]int // per-source measurement counts
}

// TrackerConfig tunes the track lifecycle.
type TrackerConfig struct {
	// GateChi2 is the association gate on the squared Mahalanobis
	// distance (χ², 2 dof): 9.21 ≈ 99%.
	GateChi2 float64
	// ProcessNoise is the Kalman white-acceleration density (m²/s³).
	ProcessNoise float64
	// ConfirmHits promotes a tentative track after this many updates.
	ConfirmHits int
	// DropAfter deletes a track not updated for this long.
	DropAfter time.Duration
}

// DefaultTrackerConfig returns maritime-plausible settings.
func DefaultTrackerConfig() TrackerConfig {
	return TrackerConfig{
		GateChi2:     9.21,
		ProcessNoise: 0.05,
		ConfirmHits:  3,
		DropAfter:    10 * time.Minute,
	}
}

// Tracker maintains the track picture over successive measurement scans.
type Tracker struct {
	Config TrackerConfig
	Tracks []*Track

	nextID int
	origin geo.Point
	hasOrg bool
}

// NewTracker returns an empty tracker.
func NewTracker(cfg TrackerConfig) *Tracker {
	return &Tracker{Config: cfg, nextID: 1}
}

// Process consumes one scan: a batch of measurements with (approximately)
// a common timestamp. Identified measurements associate by identity first;
// anonymous ones are assigned globally (GNN) within the gate. It returns
// the tracks updated in this scan.
func (t *Tracker) Process(at time.Time, meas []Measurement) []*Track {
	if !t.hasOrg && len(meas) > 0 {
		t.origin = meas[0].Pos
		t.hasOrg = true
	}
	// Predict every track to scan time.
	for _, tr := range t.Tracks {
		tr.Filter.Predict(at)
	}

	updated := map[*Track]bool{}
	byIdentity := map[uint32]*Track{}
	for _, tr := range t.Tracks {
		if tr.Identity != 0 {
			byIdentity[tr.Identity] = tr
		}
	}

	// Pass 1: identity-bound association.
	var anonymous []Measurement
	for _, m := range meas {
		if m.Identity == 0 {
			anonymous = append(anonymous, m)
			continue
		}
		tr, ok := byIdentity[m.Identity]
		if !ok {
			tr = t.newTrack(at, m)
			byIdentity[m.Identity] = tr
			updated[tr] = true
			continue
		}
		t.updateTrack(tr, at, m)
		updated[tr] = true
	}

	// Pass 2: GNN over anonymous measurements and all tracks not yet
	// updated this scan.
	var candidates []*Track
	for _, tr := range t.Tracks {
		if !updated[tr] {
			candidates = append(candidates, tr)
		}
	}
	if len(anonymous) > 0 && len(candidates) > 0 {
		costs := make([][]float64, len(candidates))
		for i, tr := range candidates {
			costs[i] = make([]float64, len(anonymous))
			for j, m := range anonymous {
				d2 := tr.Filter.MahalanobisSq(m.Pos, m.SigmaM)
				if d2 > t.Config.GateChi2 {
					costs[i][j] = math.Inf(1)
				} else {
					costs[i][j] = d2
				}
			}
		}
		assigned, _, freeMeas := Associate(costs)
		for _, a := range assigned {
			tr := candidates[a.Track]
			t.updateTrack(tr, at, anonymous[a.Measurement])
			updated[tr] = true
		}
		for _, j := range freeMeas {
			tr := t.newTrack(at, anonymous[j])
			updated[tr] = true
		}
	} else {
		for _, m := range anonymous {
			tr := t.newTrack(at, m)
			updated[tr] = true
		}
	}

	// Lifecycle: count misses, drop stale tracks.
	kept := t.Tracks[:0]
	for _, tr := range t.Tracks {
		if !updated[tr] {
			tr.Misses++
		}
		if at.Sub(tr.LastSeen) <= t.Config.DropAfter {
			kept = append(kept, tr)
		}
	}
	t.Tracks = kept

	var out []*Track
	for tr := range updated {
		out = append(out, tr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (t *Tracker) newTrack(at time.Time, m Measurement) *Track {
	f := NewKalmanCV(t.origin, t.Config.ProcessNoise)
	f.Init(at, m.Pos, m.SigmaM)
	tr := &Track{
		ID:       t.nextID,
		Filter:   f,
		Identity: m.Identity,
		Hits:     1,
		LastSeen: at,
		Sources:  map[string]int{m.Source: 1},
	}
	t.nextID++
	t.Tracks = append(t.Tracks, tr)
	return tr
}

func (t *Tracker) updateTrack(tr *Track, at time.Time, m Measurement) {
	tr.Filter.Update(m.Pos, m.SigmaM)
	tr.Hits++
	tr.Misses = 0
	tr.LastSeen = at
	tr.Sources[m.Source]++
	if tr.Identity == 0 && m.Identity != 0 {
		tr.Identity = m.Identity
	}
	if !tr.Confirmed && tr.Hits >= t.Config.ConfirmHits {
		tr.Confirmed = true
	}
}

// ConfirmedTracks returns the confirmed tracks sorted by ID.
func (t *Tracker) ConfirmedTracks() []*Track {
	var out []*Track
	for _, tr := range t.Tracks {
		if tr.Confirmed {
			out = append(out, tr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
