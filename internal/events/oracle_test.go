package events

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/zones"
)

// The reference for the differential tests below: the engine as it stood
// before the per-vessel record and the ordered grid. Per vessel, every
// stateful detector keeps its own maps keyed by MMSI and takes the exact
// math on every report; pairwise, a map of maps per cell, every neighbour
// collected and sorted by MMSI for every report, a staleness check on every
// visit, and the two pair detectors with no gate in front of the exact
// math. The production engine must raise the same alerts, field for field
// and in the same order.

type refVesselDetector interface {
	Process(s model.VesselState, ctx *Context) []Alert
}

type refPairDetector interface {
	ProcessPair(a, b model.VesselState, ctx *Context) []Alert
}

type refEngine struct {
	ctx       *Context
	detectors []refVesselDetector
	pairwise  []refPairDetector
	grid      geo.Grid
	cells     map[geo.CellID]map[uint32]model.VesselState
	lastPos   map[uint32]geo.CellID
}

func newRefEngine(ctx *Context, proximityDeg float64) *refEngine {
	return &refEngine{
		ctx:     ctx,
		grid:    geo.NewGrid(proximityDeg),
		cells:   make(map[geo.CellID]map[uint32]model.VesselState),
		lastPos: make(map[uint32]geo.CellID),
	}
}

func (e *refEngine) Process(s model.VesselState) []Alert {
	var out []Alert
	for _, d := range e.detectors {
		out = append(out, d.Process(s, e.ctx)...)
	}
	if len(e.pairwise) > 0 {
		out = append(out, e.processPairs(s)...)
	}
	return out
}

func (e *refEngine) processPairs(s model.VesselState) []Alert {
	cell := e.grid.Cell(s.Pos)
	if prev, ok := e.lastPos[s.MMSI]; ok && prev != cell {
		delete(e.cells[prev], s.MMSI)
	}
	m, ok := e.cells[cell]
	if !ok {
		m = make(map[uint32]model.VesselState)
		e.cells[cell] = m
	}
	m[s.MMSI] = s
	e.lastPos[s.MMSI] = cell

	var neighbours []model.VesselState
	consider := func(c geo.CellID) {
		for mm, st := range e.cells[c] {
			if mm == s.MMSI {
				continue
			}
			if s.At.Sub(st.At) > 30*time.Minute || st.At.Sub(s.At) > 30*time.Minute {
				continue
			}
			neighbours = append(neighbours, st)
		}
	}
	consider(cell)
	for _, c := range e.grid.Neighbors(cell, nil) {
		consider(c)
	}
	sort.Slice(neighbours, func(i, j int) bool { return neighbours[i].MMSI < neighbours[j].MMSI })

	var out []Alert
	for _, nb := range neighbours {
		a, b := s, nb
		if b.MMSI < a.MMSI {
			a, b = b, a
		}
		for _, d := range e.pairwise {
			out = append(out, d.ProcessPair(a, b, e.ctx)...)
		}
	}
	return out
}

// stateless runs a detector that keeps nothing per vessel (Identity,
// SpeedAnomaly) as it runs in the engine, without a record.
type stateless struct{ VesselDetector }

func (d stateless) Process(s model.VesselState, ctx *Context) []Alert {
	return d.VesselDetector.Process(s, nil, ctx)
}

type refDark struct {
	Threshold time.Duration
	last      map[uint32]model.VesselState
}

func (d *refDark) Process(s model.VesselState, _ *Context) []Alert {
	if d.last == nil {
		d.last = make(map[uint32]model.VesselState)
	}
	prev, ok := d.last[s.MMSI]
	d.last[s.MMSI] = s
	if !ok {
		return nil
	}
	gap := s.At.Sub(prev.At)
	if gap <= d.Threshold {
		return nil
	}
	return []Alert{{
		Kind: KindDark, MMSI: s.MMSI, At: s.At, Start: prev.At,
		Where: prev.Pos, Severity: 2,
		Note: fmt.Sprintf("silent for %s", gap.Round(time.Second)),
	}}
}

type refTeleport struct {
	MaxSpeedKn float64
	last       map[uint32]model.VesselState
}

func (d *refTeleport) Process(s model.VesselState, _ *Context) []Alert {
	if d.last == nil {
		d.last = make(map[uint32]model.VesselState)
	}
	prev, ok := d.last[s.MMSI]
	d.last[s.MMSI] = s
	if !ok {
		return nil
	}
	dt := s.At.Sub(prev.At).Seconds()
	if dt <= 0 {
		return nil
	}
	impliedKn := geo.Distance(prev.Pos, s.Pos) / dt / geo.Knot
	if impliedKn <= d.MaxSpeedKn {
		return nil
	}
	return []Alert{{
		Kind: KindTeleport, MMSI: s.MMSI, At: s.At, Start: prev.At,
		Where: s.Pos, Severity: 3,
		Note: fmt.Sprintf("implied speed %.0f kn", impliedKn),
	}}
}

type refLoiter struct {
	RadiusM     float64
	MinDuration time.Duration
	MaxSpeedKn  float64
	anchor      map[uint32]model.VesselState
	alerted     map[uint32]bool
}

func (d *refLoiter) Process(s model.VesselState, ctx *Context) []Alert {
	if d.anchor == nil {
		d.anchor = make(map[uint32]model.VesselState)
		d.alerted = make(map[uint32]bool)
	}
	anchor, ok := d.anchor[s.MMSI]
	moved := !ok || geo.Distance(anchor.Pos, s.Pos) > d.RadiusM || s.SpeedKn > d.MaxSpeedKn
	inPort := ctx.InPort(s.Pos)
	if moved || inPort {
		d.anchor[s.MMSI] = s
		d.alerted[s.MMSI] = false
		return nil
	}
	if d.alerted[s.MMSI] {
		return nil
	}
	dwell := s.At.Sub(anchor.At)
	if dwell < d.MinDuration {
		return nil
	}
	d.alerted[s.MMSI] = true
	return []Alert{{
		Kind: KindLoiter, MMSI: s.MMSI, At: s.At, Start: anchor.At,
		Where: anchor.Pos, Severity: 2,
		Note: fmt.Sprintf("holding within %.0f m for %s", d.RadiusM, dwell.Round(time.Minute)),
	}}
}

type refDrift struct {
	NumSamples int
	state      map[uint32]*driftState
}

func (d *refDrift) Process(s model.VesselState, ctx *Context) []Alert {
	if d.state == nil {
		d.state = make(map[uint32]*driftState)
	}
	st, ok := d.state[s.MMSI]
	if !ok {
		st = &driftState{}
		d.state[s.MMSI] = st
	}
	drifting := s.SpeedKn >= 0.3 && s.SpeedKn <= 2.5 && !ctx.InPort(s.Pos)
	if s.Status == ais.StatusNotUnderCmd {
		drifting = true
	}
	if !drifting {
		st.count = 0
		st.courseVar = 0
		st.alerted = false
		return nil
	}
	if st.count == 0 {
		st.firstAt = s.At
		st.lastCourse = s.CourseDeg
	} else {
		diff := math.Abs(geo.NormalizeBearing(s.CourseDeg - st.lastCourse))
		if diff > 180 {
			diff = 360 - diff
		}
		st.courseVar += diff
		st.lastCourse = s.CourseDeg
	}
	st.count++
	if st.alerted || st.count < d.NumSamples {
		return nil
	}
	if s.Status != ais.StatusNotUnderCmd && st.courseVar/float64(st.count) < 1.5 {
		return nil
	}
	st.alerted = true
	return []Alert{{
		Kind: KindDrift, MMSI: s.MMSI, At: s.At, Start: st.firstAt,
		Where: s.Pos, Severity: 3,
		Note: fmt.Sprintf("adrift since %s", st.firstAt.Format("15:04")),
	}}
}

type refZone struct {
	MinSamples int
	counts     map[uint32]int
	alerted    map[uint32]bool
}

func (d *refZone) Process(s model.VesselState, ctx *Context) []Alert {
	if d.counts == nil {
		d.counts = make(map[uint32]int)
		d.alerted = make(map[uint32]bool)
	}
	if ctx == nil || ctx.Zones == nil {
		return nil
	}
	fishingLike := s.Status == ais.StatusFishing || (s.SpeedKn > 0.5 && s.SpeedKn < 6)
	inside := ctx.Zones.InAny(s.Pos, zones.KindProtectedArea)
	if !inside || !fishingLike {
		d.counts[s.MMSI] = 0
		d.alerted[s.MMSI] = false
		return nil
	}
	d.counts[s.MMSI]++
	if d.alerted[s.MMSI] || d.counts[s.MMSI] < d.MinSamples {
		return nil
	}
	d.alerted[s.MMSI] = true
	return []Alert{{
		Kind: KindZoneViolation, MMSI: s.MMSI, At: s.At, Start: s.At, Where: s.Pos,
		Severity: 3, Note: "fishing-like behaviour inside protected area",
	}}
}

// refBattery is DefaultDetectors' battery in the reference's form, with the
// defaults the production detectors fill in spelled out.
func refBattery() []refVesselDetector {
	return []refVesselDetector{
		&refDark{Threshold: 10 * time.Minute},
		&refTeleport{MaxSpeedKn: 60},
		stateless{IdentityDetector{}},
		&refLoiter{RadiusM: 2000, MinDuration: 25 * time.Minute, MaxSpeedKn: 3.5},
		&refDrift{NumSamples: 20},
		stateless{&SpeedAnomalyDetector{}},
		&refZone{MinSamples: 10},
	}
}

type refRendezvous struct {
	ProximityM  float64
	MaxSpeedKn  float64
	MinDuration time.Duration
	pairs       map[uint64]*pairState
}

func (d *refRendezvous) ProcessPair(a, b model.VesselState, ctx *Context) []Alert {
	if d.ProximityM == 0 {
		d.ProximityM = 1000
	}
	if d.MaxSpeedKn == 0 {
		d.MaxSpeedKn = 2.5
	}
	if d.MinDuration == 0 {
		d.MinDuration = 10 * time.Minute
	}
	if d.pairs == nil {
		d.pairs = make(map[uint64]*pairState)
	}
	key := pairKey(a.MMSI, b.MMSI)
	isClose := geo.Distance(a.Pos, b.Pos) <= d.ProximityM &&
		a.SpeedKn <= d.MaxSpeedKn && b.SpeedKn <= d.MaxSpeedKn &&
		!ctx.InPort(a.Pos) && !ctx.InPort(b.Pos)
	now := a.At
	if b.At.After(now) {
		now = b.At
	}
	st, ok := d.pairs[key]
	if !isClose {
		if ok {
			delete(d.pairs, key)
		}
		return nil
	}
	if !ok {
		d.pairs[key] = &pairState{since: now, where: geo.Midpoint(a.Pos, b.Pos)}
		return nil
	}
	st.where = geo.Midpoint(a.Pos, b.Pos)
	if st.alerted || now.Sub(st.since) < d.MinDuration {
		return nil
	}
	st.alerted = true
	return []Alert{{
		Kind: KindRendezvous, MMSI: a.MMSI, Other: b.MMSI, At: now, Start: st.since,
		Where: st.where, Severity: 3,
		Note: fmt.Sprintf("stationary together for %s", now.Sub(st.since).Round(time.Minute)),
	}}
}

type refCollision struct {
	CPAThresholdM float64
	TCPAHorizon   time.Duration
	MinSpeedKn    float64
	Cooldown      time.Duration
	lastAlert     map[uint64]time.Time
}

func (d *refCollision) ProcessPair(a, b model.VesselState, _ *Context) []Alert {
	if d.CPAThresholdM == 0 {
		d.CPAThresholdM = 500
	}
	if d.TCPAHorizon == 0 {
		d.TCPAHorizon = 15 * time.Minute
	}
	if d.MinSpeedKn == 0 {
		d.MinSpeedKn = 4
	}
	if d.Cooldown == 0 {
		d.Cooldown = 10 * time.Minute
	}
	if d.lastAlert == nil {
		d.lastAlert = make(map[uint64]time.Time)
	}
	if a.SpeedKn < d.MinSpeedKn || b.SpeedKn < d.MinSpeedKn {
		return nil
	}
	cpa, tcpa := refCPA(a, b)
	if cpa > d.CPAThresholdM || tcpa <= 0 || tcpa > d.TCPAHorizon.Seconds() {
		return nil
	}
	key := pairKey(a.MMSI, b.MMSI)
	now := a.At
	if b.At.After(now) {
		now = b.At
	}
	if last, ok := d.lastAlert[key]; ok && now.Sub(last) < d.Cooldown {
		return nil
	}
	d.lastAlert[key] = now
	return []Alert{{
		Kind: KindCollisionRisk, MMSI: a.MMSI, Other: b.MMSI, At: now, Start: now,
		Where: geo.Midpoint(a.Pos, b.Pos), Severity: 3,
		Note: fmt.Sprintf("CPA %.0f m in %.0f s", cpa, tcpa),
	}}
}

func refCPA(a, b model.VesselState) (cpaM, tcpaSec float64) {
	plane := geo.NewLocalPlane(geo.Midpoint(a.Pos, b.Pos))
	ax, ay := plane.Forward(a.Pos)
	bx, by := plane.Forward(b.Pos)
	av := a.Velocity()
	bv := b.Velocity()
	avx := av.SpeedMS * math.Sin(geo.Radians(av.CourseDg))
	avy := av.SpeedMS * math.Cos(geo.Radians(av.CourseDg))
	bvx := bv.SpeedMS * math.Sin(geo.Radians(bv.CourseDg))
	bvy := bv.SpeedMS * math.Cos(geo.Radians(bv.CourseDg))
	dx, dy := bx-ax, by-ay
	dvx, dvy := bvx-avx, bvy-avy
	dv2 := dvx*dvx + dvy*dvy
	if dv2 < 1e-9 {
		return math.Hypot(dx, dy), 0
	}
	tcpa := -(dx*dvx + dy*dvy) / dv2
	cx := dx + dvx*tcpa
	cy := dy + dvy*tcpa
	return math.Hypot(cx, cy), tcpa
}

// enginePair builds the production engine and the reference over the same
// context with the full default battery: the record-keeping, gated
// per-vessel detectors against their map-keyed originals, the default pair
// detectors against their ungated originals.
func enginePair(ctx *Context, proximityDeg float64) (*Engine, *refEngine) {
	e := NewEngine(ctx, proximityDeg)
	for _, d := range DefaultDetectors() {
		e.Register(d)
	}
	for _, d := range DefaultPairDetectors() {
		e.RegisterPair(d)
	}
	ref := newRefEngine(ctx, proximityDeg)
	ref.detectors = refBattery()
	ref.pairwise = []refPairDetector{&refRendezvous{}, &refCollision{}}
	return e, ref
}

// lineClock is the event time cmd/maritimed stamps on feed line i.
func lineClock(i int) time.Time { return t0().Add(time.Duration(i+1) * 100 * time.Millisecond) }

// simFeed simulates a seeded fleet with the default anomaly profile over the
// daemon's world and returns its position reports in feed order, stamped
// with the daemon's 100 ms line clock.
func simFeed(tb testing.TB, seed int64, vessels int, dur time.Duration) ([]model.VesselState, *Context) {
	tb.Helper()
	cfg := sim.Config{
		Seed: seed, World: sim.MediterraneanWorld(1),
		NumVessels: vessels, Duration: dur, TickSec: 2,
	}
	cfg.DefaultAnomalyRates()
	run, err := sim.Simulate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	feed := make([]model.VesselState, len(run.Positions))
	for i := range run.Positions {
		feed[i] = model.FromReport(lineClock(i), &run.Positions[i].Report)
	}
	return feed, &Context{Zones: cfg.World.Zones}
}

// diffFeed replays feed through both engines, fails on the first report
// whose alerts differ in any field or in order, and returns the alerts.
func diffFeed(t *testing.T, e *Engine, ref *refEngine, feed []model.VesselState) (alerts []Alert) {
	t.Helper()
	for i, s := range feed {
		got, want := e.Process(s), ref.Process(s)
		if len(got) != len(want) {
			t.Fatalf("report %d (%d at %s): %d alerts, reference %d\n got %v\nwant %v",
				i, s.MMSI, s.At.Format("15:04:05.0"), len(got), len(want), got, want)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("report %d alert %d:\n got %+v\nwant %+v", i, j, got[j], want[j])
			}
		}
		alerts = append(alerts, got...)
	}
	return alerts
}

// pairsOf keeps the pair alerts of as, vesselOf the per-vessel ones.
func pairsOf(as []Alert) []Alert {
	return slices.DeleteFunc(slices.Clone(as), func(a Alert) bool { return a.Other == 0 })
}
func vesselOf(as []Alert) []Alert {
	return slices.DeleteFunc(slices.Clone(as), func(a Alert) bool { return a.Other != 0 })
}

func TestEngineMatchesReferenceOnSimFeeds(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		feed, ctx := simFeed(t, seed, 600, 30*time.Minute)
		e, ref := enginePair(ctx, 0.1)
		alerts := diffFeed(t, e, ref, feed)
		kinds := map[Kind]int{}
		for _, a := range alerts {
			kinds[a.Kind]++
		}
		// What each seed's 30 minutes can show: the pair kinds, and of the
		// per-vessel battery the dark, spoofing and identity anomalies the
		// default profile injects. Loiter and drift need longer feeds; the
		// edges below cover them.
		for _, k := range []Kind{KindDark, KindTeleport, KindIdentity} {
			if kinds[k] == 0 {
				t.Errorf("seed %d: no %s alert in %d reports (%v); the feed stops exercising it", seed, k, len(feed), kinds)
			}
		}
		if len(pairsOf(alerts)) == 0 {
			t.Errorf("seed %d: no pair alert in %d reports; the feed exercises nothing", seed, len(feed))
		}
	}
}

// BenchmarkEngineProcess replays a feed shaped like the repo benchmark's
// (bench/feed.go: 2000 vessels of the Mediterranean world, default anomaly
// profile, 100 ms line clock) through the full default battery. A fresh
// engine starts every time the feed wraps, so event time never runs
// backwards inside one engine.
func BenchmarkEngineProcess(b *testing.B) {
	feed, ctx := simFeed(b, 1, 2000, 10*time.Minute)
	b.ReportAllocs()
	b.ResetTimer()
	var e *Engine
	alerts := 0
	for i := 0; i < b.N; i++ {
		if i%len(feed) == 0 {
			e, _ = enginePair(ctx, 0.1)
		}
		alerts += len(e.Process(feed[i%len(feed)]))
	}
	b.ReportMetric(1000*float64(alerts)/float64(b.N), "alerts/kmsg")
}

// at is st with the time given as a duration past t0.
func at(mmsi uint32, d time.Duration, pos geo.Point, speedKn, course float64) model.VesselState {
	s := st(mmsi, 0, pos, speedKn, course)
	s.At = t0().Add(d)
	return s
}

// Hand-built feeds for the places where the grid and the gates differ most
// from the reference's map-and-sort: each is diffed against it, and states
// what it expects so that a feed that stops exercising its edge fails too.
func TestEngineMatchesReferenceOnEdges(t *testing.T) {
	sea := geo.Point{Lat: 41.0, Lon: 8.0} // open water in testCtx
	east := func(p geo.Point, m float64) geo.Point { return geo.Destination(p, 90, m) }
	const min = time.Minute

	// A vessel crossing three cells head-on to another, then jumping five
	// cells away: it pairs from each cell it is in and from none it left.
	var hop []model.VesselState
	a, b := geo.Point{Lat: 41.0, Lon: 7.92}, geo.Point{Lat: 41.0, Lon: 8.28}
	for i := 0; i <= 60; i++ {
		hop = append(hop, st(1, i*30, a, 14, 90), st(2, i*30, b, 14, 270), st(3, i*30, geo.Point{Lat: 41.0, Lon: 8.7}, 14, 270))
		a = geo.Project(a, geo.Velocity{SpeedMS: 14 * geo.Knot, CourseDg: 90}, 30)
		b = geo.Project(b, geo.Velocity{SpeedMS: 14 * geo.Knot, CourseDg: 270}, 30)
	}
	hop = append(hop, st(1, 1830, geo.Point{Lat: 41.0, Lon: 8.65}, 14, 90), st(2, 1830, b, 14, 270))

	// Two slow vessels 300 m apart for six minutes, one steps 3 km away
	// (past the gate) and one 1005 m away (inside its margin, past the
	// exact radius), both come back: each time the pair starts over. A
	// step to 950 m changes nothing.
	var meet []model.VesselState
	for i := 0; i <= 50; i++ {
		p := east(sea, 300)
		switch i {
		case 12:
			p = east(sea, 3000)
		case 20:
			p = east(sea, 1005)
		case 30:
			p = east(sea, 950) // inside the radius: the pair goes on
		}
		meet = append(meet, st(10, i*30, sea, 0.3, 0), st(20, i*30, p, 0.4, 180))
	}

	polar := geo.Point{Lat: 89.96, Lon: 179.93}
	cases := []struct {
		name string
		feed []model.VesselState
		want []Alert // pair alerts expected, compared on kind, pair and start
	}{
		{"cell hops", hop, []Alert{
			{Kind: KindCollisionRisk, MMSI: 1, Other: 2, Start: t0().Add(20 * min)},
			{Kind: KindCollisionRisk, MMSI: 1, Other: 2, Start: t0().Add(30 * min)},
			{Kind: KindCollisionRisk, MMSI: 1, Other: 3, Start: t0().Add(1830 * time.Second)},
		}},
		{"neighbour exactly 30 min stale beside an older one", []model.VesselState{
			at(9, -min, sea, 12, 90), // what makes vessel 2's visit sweep the cell
			at(1, 0, sea, 12, 90), at(2, 30*min, east(sea, 6000), 12, 270),
		}, []Alert{{Kind: KindCollisionRisk, MMSI: 1, Other: 2, Start: t0().Add(30 * min)}}},
		{"neighbour 30 min and one line stale", []model.VesselState{
			at(1, 0, sea, 12, 90), at(2, 30*min+100*time.Millisecond, east(sea, 6000), 12, 270),
			at(1, 31*min, sea, 12, 90), // back in the cell it was expired from
		}, []Alert{{Kind: KindCollisionRisk, MMSI: 1, Other: 2, Start: t0().Add(31 * min)}}},
		{"rendezvous separates and re-closes", meet, []Alert{
			{Kind: KindRendezvous, MMSI: 10, Other: 20, Start: t0().Add(630 * time.Second)},
		}},
		{"late report skips a neighbour from its future", []model.VesselState{
			at(1, 40*min, sea, 12, 90), at(2, 5*min, east(sea, 6000), 12, 270),
			at(3, 41*min, east(sea, 5000), 12, 270),
		}, []Alert{{Kind: KindCollisionRisk, MMSI: 1, Other: 3, Start: t0().Add(41 * min)}}},
		{"grid corners", []model.VesselState{
			at(1, 0, polar, 12, 90), at(2, time.Second, geo.Point{Lat: 89.96, Lon: 179.99}, 12, 270),
			at(3, 2*time.Second, geo.Point{Lat: 90, Lon: 180}, 12, 180), at(4, 3*time.Second, geo.Point{Lat: 89.99, Lon: -180}, 12, 0),
			at(5, 4*time.Second, geo.Point{Lat: -90, Lon: -180}, 12, 0), at(6, 5*time.Second, geo.Point{Lat: -89.95, Lon: -179.9}, 12, 180),
			at(7, 6*time.Second, geo.Point{Lat: -90, Lon: 180}, 12, 0), at(8, 7*time.Second, geo.Point{Lat: 0.01, Lon: 179.99}, 12, 90),
			at(9, 8*time.Second, geo.Point{Lat: -0.01, Lon: -179.99}, 12, 270),
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, ref := enginePair(testCtx(), 0.1)
			got := pairsOf(diffFeed(t, e, ref, tc.feed))
			if tc.want == nil {
				return // corners: whatever the reference says, as long as both say it
			}
			if len(got) != len(tc.want) {
				t.Fatalf("pair alerts %v, want %d", got, len(tc.want))
			}
			for i, w := range tc.want {
				if g := got[i]; g.Kind != w.Kind || g.MMSI != w.MMSI || g.Other != w.Other || !g.Start.Equal(w.Start) {
					t.Errorf("pair alert %d: %v (start %s), want %s %d/%d from %s", i, g, g.Start.Format("15:04:05"), w.Kind, w.MMSI, w.Other, w.Start.Format("15:04:05"))
				}
			}
		})
	}
}

// Hand-built feeds for where the record and the per-vessel gates differ
// most from the map-keyed, ungated battery. Like the pair edges, each is
// diffed against the reference and states the alerts it expects.
func TestBatteryMatchesReferenceOnEdges(t *testing.T) {
	const (
		min = time.Minute
		v1  = 227000001 // valid MMSIs: no identity alert in the way
		v2  = 227000002
	)
	sea := geo.Point{Lat: 41.0, Lon: 8.0} // open water in testCtx
	north := func(p geo.Point, m float64) geo.Point { return geo.Destination(p, 0, m) }
	kn60 := 60 * geo.Knot * 60 // metres a minute at Teleport's 60 kn

	// Stationary for 40 min in port (the anchor resets every report) and at
	// sea (one loiter alert once 25 min have passed); then the one at sea
	// sails 5 km and holds again: a new anchor, a new alert.
	port := geo.Point{Lat: 43.0, Lon: 5.0}
	var hold []model.VesselState
	for i := 0; i <= 40; i++ {
		hold = append(hold, at(v1, time.Duration(i)*min, port, 0.1, 0), at(v2, time.Duration(i)*min, sea, 0.1, 0))
	}
	for i := 41; i <= 80; i++ {
		p, kn := north(sea, 5000), 0.1
		if i <= 45 {
			p, kn = north(sea, float64(i-40)*1000), 12
		}
		hold = append(hold, at(v2, time.Duration(i)*min, p, kn, 0))
	}
	// Fishing in the reserve for twelve reports, then transiting through it.
	reserve := geo.Point{Lat: 42.2, Lon: 6.4}
	var fish []model.VesselState
	for i := 0; i < 16; i++ {
		s := at(v1, time.Duration(i)*min, reserve, 3, float64(i*20))
		if i < 12 {
			s.Status = ais.StatusFishing
		} else {
			s.SpeedKn = 15
		}
		fish = append(fish, s)
	}

	cases := []struct {
		name string
		feed []model.VesselState
		want []Alert // compared on kind, vessel and time
	}{
		{"dark for hours, one reappearing where it could sail, one not", []model.VesselState{
			at(v1, 0, sea, 12, 0), at(v2, 0, geo.Point{Lat: 40, Lon: 6}, 12, 90),
			at(v1, 3*time.Hour, north(sea, 100e3), 12, 0),                                       // 18 kn
			at(v2, 3*time.Hour, geo.Destination(geo.Point{Lat: 40, Lon: 6}, 90, 1.1e6), 12, 90), // ≈ 200 kn
		}, []Alert{
			{Kind: KindDark, MMSI: v1, At: t0().Add(3 * time.Hour)},
			{Kind: KindDark, MMSI: v2, At: t0().Add(3 * time.Hour)},
			{Kind: KindTeleport, MMSI: v2, At: t0().Add(3 * time.Hour)},
		}},
		{"antimeridian hops", []model.VesselState{
			at(v1, 0, geo.Point{Lat: 0.5, Lon: 179.995}, 12, 270),
			at(v1, min, geo.Point{Lat: 0.5, Lon: -179.995}, 12, 270),              // 1.1 km east: 36 kn
			at(v1, min+10*time.Second, geo.Point{Lat: 0.5, Lon: 179.99}, 12, 270), // 1.7 km back: 324 kn
		}, []Alert{{Kind: KindTeleport, MMSI: v1, At: t0().Add(min + 10*time.Second)}}},
		{"implied speed at MaxSpeedKn", []model.VesselState{
			at(v1, 0, sea, 12, 0), at(v1, min, north(sea, kn60), 12, 0), // either side, as the rounding falls
		}, nil},
		{"implied speed within 1% of MaxSpeedKn", []model.VesselState{
			at(v1, 0, sea, 12, 0),
			at(v1, min, north(sea, 1.005*kn60), 12, 0),                      // 60.3 kn: inside the margin, over the limit
			at(v1, 2*min, north(north(sea, 1.005*kn60), 0.995*kn60), 12, 0), // 59.7 kn: inside the margin, under it
			at(v2, 0, geo.Point{Lat: 60, Lon: 8}, 12, 90),
			at(v2, min, geo.Destination(geo.Point{Lat: 60, Lon: 8}, 90, 1.005*kn60), 12, 90), // east at 60°: a loose bound
		}, []Alert{
			{Kind: KindTeleport, MMSI: v1, At: t0().Add(min)},
			{Kind: KindTeleport, MMSI: v2, At: t0().Add(min)},
		}},
		{"|lat| > 90, no veracity stage", []model.VesselState{
			at(v1, 0, geo.Point{Lat: 95, Lon: 8}, 12, 0),
			at(v1, min, geo.Point{Lat: 95.01, Lon: 8}, 12, 0),
			at(v1, 2*min, geo.Point{Lat: -95, Lon: 8}, 12, 0),
		}, []Alert{{Kind: KindTeleport, MMSI: v1, At: t0().Add(2 * min)}}},
		{"stationary in port and at sea", hold, []Alert{
			{Kind: KindLoiter, MMSI: v2, At: t0().Add(25 * min)},
			{Kind: KindLoiter, MMSI: v2, At: t0().Add(70 * min)},
		}},
		{"fishing in a reserve, then transiting it", fish, []Alert{{Kind: KindZoneViolation, MMSI: v1, At: t0().Add(9 * min)}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, ref := enginePair(testCtx(), 0.1)
			got := vesselOf(diffFeed(t, e, ref, tc.feed))
			if tc.want == nil {
				return // at the limit: whatever the reference says, as long as both say it
			}
			if len(got) != len(tc.want) {
				t.Fatalf("alerts %v, want %d", got, len(tc.want))
			}
			for i, w := range tc.want {
				if g := got[i]; g.Kind != w.Kind || g.MMSI != w.MMSI || !g.At.Equal(w.At) {
					t.Errorf("alert %d: %v, want %s %d at %s", i, g, w.Kind, w.MMSI, w.At.Format("15:04:05"))
				}
			}
		})
	}
}

// The one place the grid is not the reference: expiry is for good. Vessel 1
// is last heard at 0:00; vessel 3's report at 0:31 visits its cell and
// expires it; vessel 2's report then arrives late, stamped 0:10. The
// reference still holds vessel 1 and pairs the late report with it, the grid
// does not. Feeds whose event time runs forward — every shard's, under
// maritimed's line clock and ingest's resequencer — never get here.
func TestLateReportDoesNotSeeExpiredNeighbour(t *testing.T) {
	sea := geo.Point{Lat: 41.0, Lon: 8.0}
	feed := []model.VesselState{
		at(1, 0, sea, 12, 90),
		at(3, 31*time.Minute, geo.Destination(sea, 0, 3000), 2, 0),
		at(2, 10*time.Minute, geo.Destination(sea, 90, 6000), 12, 270),
	}
	e, ref := enginePair(testCtx(), 0.1)
	pairs := func(as []Alert) (out []Alert) {
		for _, a := range as {
			if a.Other != 0 {
				out = append(out, a)
			}
		}
		return out
	}
	var got, want []Alert
	for _, s := range feed {
		got = append(got, pairs(e.Process(s))...)
		want = append(want, pairs(ref.Process(s))...)
	}
	if len(want) != 1 || want[0].Kind != KindCollisionRisk || want[0].MMSI != 1 || want[0].Other != 2 {
		t.Fatalf("reference raised %v, want one collision-risk 1/2", want)
	}
	if len(got) != 0 {
		t.Errorf("grid raised %v: an expired contact paired with a late report", got)
	}
}
