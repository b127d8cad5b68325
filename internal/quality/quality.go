// Package quality assesses the veracity of AIS data — the paper's fourth V
// (§1): roughly 5% of static-data transmissions carry errors of some kind
// [44], positions jump under spoofing, and per-source reliability must be
// learned rather than assumed. The package provides rule-based static
// checks, kinematic consistency checks on position streams, completeness
// metrics, and Beta-Bernoulli reliability profiles per vessel and source.
package quality

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/ais"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/uncertainty"
)

// Issue is one detected data-quality problem.
type Issue struct {
	MMSI  uint32
	Field string // which field failed ("mmsi", "name", "dimensions", …)
	Rule  string // which rule fired
	Note  string
}

// Field names reported by the static checks (aligned with the simulator's
// corruption labels so precision/recall is directly scoreable).
const (
	FieldMMSI     = "mmsi"
	FieldName     = "name"
	FieldDims     = "dimensions"
	FieldShipType = "ship_type"
	FieldCallSign = "call_sign"
	FieldPosition = "position"
	FieldSpeed    = "speed"
)

// CheckStatic runs the rule set over one static/voyage message and returns
// every issue found. The rules mirror the USCG vessel-identity
// verification checks [44]: structural MMSI validity, blank or placeholder
// names, implausible dimensions, missing type and call sign.
func CheckStatic(m *ais.StaticVoyage) []Issue {
	var issues []Issue
	add := func(field, rule, note string) {
		issues = append(issues, Issue{MMSI: m.MMSI, Field: field, Rule: rule, Note: note})
	}
	if !ais.ValidMMSI(m.MMSI) {
		add(FieldMMSI, "mmsi-structural", fmt.Sprintf("MMSI %d outside ship-station range", m.MMSI))
	}
	switch {
	case m.ShipName == "":
		add(FieldName, "name-blank", "ship name empty")
	case isPlaceholderName(m.ShipName):
		add(FieldName, "name-placeholder", fmt.Sprintf("placeholder name %q", m.ShipName))
	}
	length := m.Length()
	beam := m.Beam()
	switch {
	case length == 0 || beam == 0:
		add(FieldDims, "dims-missing", "zero dimensions")
	case length > 460 || beam > 70:
		// Nothing afloat exceeds ~458 m (Seawise Giant) / ~69 m beam.
		add(FieldDims, "dims-implausible", fmt.Sprintf("length %d beam %d", length, beam))
	case float64(length)/float64(beam) > 20 || float64(length)/float64(beam) < 1.5:
		add(FieldDims, "dims-ratio", fmt.Sprintf("aspect ratio %d:%d implausible", length, beam))
	}
	if m.ShipType == ais.ShipTypeUnknown {
		add(FieldShipType, "type-unknown", "ship type not set")
	}
	if m.CallSign == "" {
		add(FieldCallSign, "callsign-blank", "call sign empty")
	}
	return issues
}

func isPlaceholderName(name string) bool {
	switch name {
	case "NONAME", "NO NAME", "TEST", "SHIPNAME", "NAME", "UNKNOWN", "XXXX":
		return true
	}
	return false
}

// KinematicChecker validates a vessel's position stream: teleporting
// (implied speed beyond MaxSpeedKn), speed-over-ground wildly inconsistent
// with the displacement, and duplicate timestamps. One instance per
// vessel; feed states in arrival order.
type KinematicChecker struct {
	// MaxSpeedKn is the hard ceiling on implied speed (default 60 kn).
	MaxSpeedKn float64
	// SpeedSlackKn tolerates SOG-vs-displacement disagreement (default 8 kn).
	SpeedSlackKn float64
	// SkipNotes leaves Issue.Note empty. The notes are diagnostics for
	// humans; accumulators that keep only rule counts (the track stage's
	// per-record integrity fold) set this so a defect-heavy feed does not
	// pay float formatting per flagged message.
	SkipNotes bool

	last    model.VesselState
	started bool
}

// Check consumes the next state and returns any issues it raises against
// the previous one.
func (k *KinematicChecker) Check(s model.VesselState) []Issue {
	if k.MaxSpeedKn == 0 {
		k.MaxSpeedKn = 60
	}
	if k.SpeedSlackKn == 0 {
		k.SpeedSlackKn = 8
	}
	if !k.started {
		k.started = true
		k.last = s
		return nil
	}
	note := func(format string, args ...any) string {
		if k.SkipNotes {
			return ""
		}
		return fmt.Sprintf(format, args...)
	}
	var issues []Issue
	dt := s.At.Sub(k.last.At).Seconds()
	if dt <= 0 {
		issues = append(issues, Issue{
			MMSI: s.MMSI, Field: FieldPosition, Rule: "time-regression",
			Note: note("timestamp not increasing (dt=%.1fs)", dt),
		})
		// Do not advance: judge the next message against the same anchor.
		return issues
	}
	dist := geo.Distance(k.last.Pos, s.Pos)
	impliedKn := dist / dt / geo.Knot
	if impliedKn > k.MaxSpeedKn {
		issues = append(issues, Issue{
			MMSI: s.MMSI, Field: FieldPosition, Rule: "teleport",
			Note: note("implied speed %.0f kn over %.0fs", impliedKn, dt),
		})
	}
	// SOG consistency only over short gaps; long gaps legitimately diverge.
	if dt <= 120 && s.SpeedKn < ais.SpeedNotAvailable {
		meanSOG := (s.SpeedKn + k.last.SpeedKn) / 2
		if diff := impliedKn - meanSOG; diff > k.SpeedSlackKn {
			issues = append(issues, Issue{
				MMSI: s.MMSI, Field: FieldSpeed, Rule: "sog-mismatch",
				Note: note("implied %.1f kn vs reported %.1f kn", impliedKn, meanSOG),
			})
		}
	}
	k.last = s
	return issues
}

// --- completeness ------------------------------------------------------------------

// Completeness summarises reporting coverage for one vessel over a window.
type Completeness struct {
	MMSI         uint32
	Window       time.Duration
	Received     int
	Expected     int     // from the nominal reporting cadence
	Ratio        float64 // received/expected, capped at 1
	LongestGap   time.Duration
	GapsOver     int // gaps exceeding the dark threshold
	DarkTime     time.Duration
	DarkFraction float64
}

// MeasureCompleteness scores a sequence of report times in [from, to]
// against a nominal interval; gaps above darkAfter count as dark time.
// This is the measurement behind the "27% of ships dark ≥10% of the time"
// statistic (E4).
//
//lint:ignore deadexport TestOpenWorldCoverageClaim measures E4 coverage with it
func MeasureCompleteness(mmsi uint32, times []time.Time, from, to time.Time, nominal, darkAfter time.Duration) Completeness {
	c := Completeness{MMSI: mmsi, Window: to.Sub(from)}
	if nominal <= 0 || !to.After(from) {
		return c
	}
	c.Expected = int(to.Sub(from) / nominal)
	sorted := append([]time.Time(nil), times...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Before(sorted[j]) })
	prev := from
	for _, t := range sorted {
		if t.Before(from) || t.After(to) {
			continue
		}
		c.Received++
		gap := t.Sub(prev)
		if gap > c.LongestGap {
			c.LongestGap = gap
		}
		if gap > darkAfter {
			c.GapsOver++
			c.DarkTime += gap - darkAfter
		}
		prev = t
	}
	if tail := to.Sub(prev); tail > darkAfter {
		c.GapsOver++
		c.DarkTime += tail - darkAfter
		if tail > c.LongestGap {
			c.LongestGap = tail
		}
	}
	if c.Expected > 0 {
		c.Ratio = float64(c.Received) / float64(c.Expected)
		if c.Ratio > 1 {
			c.Ratio = 1
		}
	}
	if c.Window > 0 {
		c.DarkFraction = float64(c.DarkTime) / float64(c.Window)
	}
	return c
}

// --- reliability profiles -----------------------------------------------------------

// Profile accumulates a Beta-Bernoulli reliability estimate per subject
// (vessel or source): each checked message is a success (clean) or failure
// (issue found). The second-order Beta model keeps "how sure are we"
// explicit, as §4 requires.
type Profile struct {
	subjects map[string]uncertainty.Beta
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{subjects: make(map[string]uncertainty.Beta)}
}

// Record notes one observation for the subject.
func (p *Profile) Record(subject string, clean bool) {
	b, ok := p.subjects[subject]
	if !ok {
		b = uncertainty.NewBeta()
	}
	if clean {
		b = b.Observe(1, 0)
	} else {
		b = b.Observe(0, 1)
	}
	p.subjects[subject] = b
}
