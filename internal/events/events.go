// Package events implements complex event recognition over vessel state
// streams (§3.1): a library of streaming anomaly detectors (dark periods,
// teleports/spoofing, loitering, drifting, speed anomalies, protected-area
// fishing, rendezvous, collision risk), an NFA-style sequence-pattern
// engine for composite behaviours, and the open-world qualification of
// query answers that §4 argues is essential when 27% of ships go dark.
//
// Detectors are deterministic stream processors: feed time-ordered
// model.VesselState values into an Engine and collect the Alerts each
// Process call returns; the engine keeps no alert log.
//
// Pairwise detectors see a report against every vessel last heard in the
// same cell of an equal-angle grid (Engine.processPairs) or the eight
// around it. A cell is a slice of Contacts kept in MMSI order on insert,
// so a vessel is found by bisection and the walk needs no sort and no
// allocation; the alerts one report raises, rarely more than one, are put
// in neighbour-MMSI order afterwards. A contact more than 30 min older
// than a report visiting its cell is expired there and then, for good: a
// late report stamped earlier does not get it back (the one difference
// from checking age on every visit, and only for feeds whose event time
// runs backwards). In front of their exact math the pair detectors gate:
// a gate may skip a pair only when the exact path would raise nothing and
// change no detector state, proved from a bound with a stated margin
// (offset, gateMargin); everything inside the margin takes the exact path,
// so alerts are the ungated detectors' byte for byte (oracle_test.go).
package events

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/zones"
)

// Kind labels an alert type. The values align with the simulator's
// injected event kinds where a ground truth exists, so detector output is
// directly scoreable.
type Kind string

// Alert kinds.
const (
	KindDark          Kind = "dark"
	KindTeleport      Kind = "spoof-offset" // teleporting reports ⇒ position spoofing
	KindIdentity      Kind = "spoof-identity"
	KindRendezvous    Kind = "rendezvous"
	KindLoiter        Kind = "loiter"
	KindDrift         Kind = "drift"
	KindZoneViolation Kind = "zone-violation"
	KindSpeedAnomaly  Kind = "speed-anomaly"
	KindCollisionRisk Kind = "collision-risk"
	// KindPossibleRendezvous marks open-world qualified answers: a meeting
	// that COULD have happened while both vessels were dark.
	KindPossibleRendezvous Kind = "possible-rendezvous"
)

// Alert is one recognised event.
type Alert struct {
	Kind     Kind
	MMSI     uint32
	Other    uint32 // peer vessel for pairwise events
	At       time.Time
	Start    time.Time // event extent when known (Start ≤ At)
	Where    geo.Point
	Severity int // 1 info, 2 warning, 3 critical
	Note     string
}

// String renders the alert for logs and consoles.
func (a Alert) String() string {
	if a.Other != 0 {
		return fmt.Sprintf("[%s] %s vessels %d/%d at %s: %s",
			a.At.Format("15:04:05"), a.Kind, a.MMSI, a.Other, a.Where, a.Note)
	}
	return fmt.Sprintf("[%s] %s vessel %d at %s: %s",
		a.At.Format("15:04:05"), a.Kind, a.MMSI, a.Where, a.Note)
}

// Context carries the quasi-static knowledge detectors correlate against.
type Context struct {
	Zones *zones.ZoneSet
}

// InPort reports whether p is inside a port or anchorage zone.
func (c *Context) InPort(p geo.Point) bool {
	if c == nil || c.Zones == nil {
		return false
	}
	return c.Zones.InAny(p, zones.KindPort) || c.Zones.InAny(p, zones.KindAnchorage)
}

// VesselDetector is a per-vessel streaming detector. This package's
// detectors keep what they remember of a vessel in its Record; one from
// outside the package keeps its own per-vessel state.
type VesselDetector interface {
	Name() string
	// Process consumes the next state of a vessel (time-ordered per
	// vessel) with that vessel's record and returns zero or more alerts.
	Process(s model.VesselState, r *Record, ctx *Context) []Alert
}

// Record is what the per-vessel battery remembers of one vessel, looked up
// once per report; the report becomes its last after the battery.
type Record struct {
	last               model.VesselState // the previous report (Dark, Teleport), once seen
	seen               bool
	anchor             model.VesselState // Loiter's anchor, once anchored
	anchored, loitered bool              // loitered: alerted on this anchor
	drift              driftState
	zoneCount          int // consecutive fishing-like reports in a protected area
	zoneAlerted        bool
}

// advance makes s the vessel's last report.
func (r *Record) advance(s model.VesselState) { r.last, r.seen = s, true }

// Engine fans states to detectors, keeps the per-vessel records and
// maintains the proximity grid pairwise detectors need.
type Engine struct {
	Ctx       *Context
	detectors []VesselDetector
	pairwise  []PairDetector
	records   map[uint32]*Record

	grid    geo.Grid
	cells   map[geo.CellID]*cell
	lastPos map[uint32]geo.CellID
}

// staleAfter is how far apart in event time two reports may be and still
// pair: generous, because satellite revisit gaps legitimately silence
// open-sea vessels for ~25 min between passes.
const staleAfter = int64(30 * time.Minute)

// Contact is a vessel's latest report as the proximity grid holds it: the
// state plus what pair detectors need of this vessel alone, computed once
// per report instead of once per pair.
type Contact struct {
	model.VesselState
	ve, vn float64 // east and north velocity in m/s, the terms CPA projects
	cosLat float64
	at     int64 // At in Unix nanoseconds
}

func contactOf(s model.VesselState) Contact {
	v := s.Velocity()
	return Contact{
		VesselState: s,
		ve:          v.SpeedMS * math.Sin(geo.Radians(v.CourseDg)),
		vn:          v.SpeedMS * math.Cos(geo.Radians(v.CourseDg)),
		cosLat:      math.Cos(geo.Radians(s.Pos.Lat)),
		at:          s.At.UnixNano(),
	}
}

// cell holds the contacts last seen in one grid cell in ascending MMSI
// order, kept on insert. No contact is older than oldest; a visit more than
// staleAfter past it sweeps the cell.
type cell struct {
	contacts []Contact
	oldest   int64
}

// find returns where mmsi is, or would be inserted, in c.
func (c *cell) find(mmsi uint32) (int, bool) {
	i := sort.Search(len(c.contacts), func(i int) bool { return c.contacts[i].MMSI >= mmsi })
	return i, i < len(c.contacts) && c.contacts[i].MMSI == mmsi
}

// PairDetector observes co-located vessel pairs.
type PairDetector interface {
	Name() string
	// ProcessPair is called for each (a, b) pair currently within the
	// engine's proximity horizon, once per state update of either vessel,
	// with a.MMSI < b.MMSI. The contacts belong to the grid: a detector
	// neither keeps the pointers nor writes through them. Alerts name the
	// pair as MMSI a, Other b.
	ProcessPair(a, b *Contact, ctx *Context) []Alert
}

// NewEngine returns an engine with the given context. proximityDeg sets
// the pairing horizon (cell size) for pairwise detectors; 0.1° ≈ 11 km.
func NewEngine(ctx *Context, proximityDeg float64) *Engine {
	if proximityDeg <= 0 {
		proximityDeg = 0.1
	}
	return &Engine{
		Ctx:     ctx,
		records: make(map[uint32]*Record),
		grid:    geo.NewGrid(proximityDeg),
		cells:   make(map[geo.CellID]*cell),
		lastPos: make(map[uint32]geo.CellID),
	}
}

// Register adds a per-vessel detector. It panics on a second one of a kind
// with a Record slot of its own: the two would corrupt each other's state.
func (e *Engine) Register(d VesselDetector) {
	switch d.(type) {
	case *LoiterDetector, *DriftDetector, *ZoneViolationDetector:
		for _, o := range e.detectors {
			if fmt.Sprintf("%T", o) == fmt.Sprintf("%T", d) {
				panic("events: a second " + d.Name() + " detector would share the first one's per-vessel state")
			}
		}
	}
	e.detectors = append(e.detectors, d)
}

// RegisterPair adds a pairwise detector.
func (e *Engine) RegisterPair(d PairDetector) { e.pairwise = append(e.pairwise, d) }

// Process consumes one state update and returns the alerts it raised.
func (e *Engine) Process(s model.VesselState) []Alert {
	var out []Alert
	if len(e.detectors) > 0 {
		r := e.records[s.MMSI]
		if r == nil {
			r = &Record{}
			e.records[s.MMSI] = r
		}
		for _, d := range e.detectors {
			out = append(out, d.Process(s, r, e.Ctx)...)
		}
		r.advance(s)
	}
	if len(e.pairwise) > 0 {
		out = append(out, e.processPairs(s)...)
	}
	return out
}

// processPairs moves the vessel's contact to the cell of its new position
// and runs the pairwise detectors against every fresh contact in that cell
// and the eight around it.
func (e *Engine) processPairs(s model.VesselState) []Alert {
	id := e.grid.Cell(s.Pos)
	now := s.At.UnixNano()
	own := e.visit(id, now) // before lastPos is read: it may expire this vessel's own last report
	if prev, ok := e.lastPos[s.MMSI]; !ok || prev != id {
		// The cell left behind keeps its slice for the next vessel through;
		// if none comes, the first visit staleAfter from now drops it.
		if c := e.cells[prev]; ok && c != nil {
			if i, ok := c.find(s.MMSI); ok {
				c.contacts = slices.Delete(c.contacts, i, i+1)
			}
		}
		e.lastPos[s.MMSI] = id
	}
	if own == nil {
		own = &cell{oldest: now}
		e.cells[id] = own
	}
	i, found := own.find(s.MMSI)
	if !found {
		own.contacts = slices.Insert(own.contacts, i, Contact{})
	}
	own.contacts[i] = contactOf(s)
	own.oldest = min(own.oldest, now)
	self := &own.contacts[i]

	var out []Alert
	pair := func(c *cell) {
		for i := range c.contacts {
			a, b := self, &c.contacts[i]
			// A neighbour from the future (a report that arrived out of
			// order) is skipped, not expired: it is fresh to later reports.
			if b == self || b.at-now > staleAfter {
				continue
			}
			if b.MMSI < a.MMSI {
				a, b = b, a
			}
			for _, d := range e.pairwise {
				out = append(out, d.ProcessPair(a, b, e.Ctx)...)
			}
		}
	}
	pair(own)
	var around [8]geo.CellID
	for _, nid := range e.grid.Neighbors(id, around[:0]) {
		if c := e.visit(nid, now); c != nil {
			pair(c)
		}
	}
	// Cells were walked in grid order; alerts go out in neighbour MMSI
	// order, detector order within a neighbour, whatever the walk was.
	if len(out) > 1 {
		other := func(a Alert) uint32 { return a.MMSI + a.Other - s.MMSI }
		sort.SliceStable(out, func(i, j int) bool { return other(out[i]) < other(out[j]) })
	}
	return out
}

// visit returns the cell with the given id, nil if it holds nothing, after
// expiring the contacts that are more than staleAfter older than now: with
// event time running forward no later report could pair with them, and
// their vessels re-enter the grid with their next report.
func (e *Engine) visit(id geo.CellID, now int64) *cell {
	c := e.cells[id]
	if c == nil || now-c.oldest <= staleAfter {
		return c
	}
	kept := c.contacts[:0]
	c.oldest = now
	for _, k := range c.contacts {
		if now-k.at > staleAfter {
			delete(e.lastPos, k.MMSI)
			continue
		}
		kept = append(kept, k)
		c.oldest = min(c.oldest, k.at)
	}
	c.contacts = kept
	if len(kept) == 0 {
		delete(e.cells, id)
		return nil
	}
	return c
}
