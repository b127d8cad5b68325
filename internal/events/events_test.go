package events

import (
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/zones"
)

func t0() time.Time { return time.Date(2017, 3, 21, 0, 0, 0, 0, time.UTC) }

func testCtx() *Context {
	return &Context{Zones: zones.NewZoneSet([]*zones.Zone{
		zones.PortZone("port-x", "Port X", geo.Point{Lat: 43.0, Lon: 5.0}, 5000),
		zones.RectZone("mpa-1", "Reserve", zones.KindProtectedArea,
			geo.Rect{MinLat: 42.0, MinLon: 6.0, MaxLat: 42.5, MaxLon: 6.8}),
	})}
}

func st(mmsi uint32, sec int, pos geo.Point, speedKn, course float64) model.VesselState {
	return model.VesselState{
		MMSI: mmsi, At: t0().Add(time.Duration(sec) * time.Second),
		Pos: pos, SpeedKn: speedKn, CourseDeg: course,
		Status: ais.StatusUnderWayEngine,
	}
}

// step runs d over s with the vessel's record r, then advances r, as
// Engine.Process does after the whole battery.
func step(d VesselDetector, s model.VesselState, r *Record, ctx *Context) []Alert {
	defer r.advance(s)
	return d.Process(s, r, ctx)
}

func TestDarkDetector(t *testing.T) {
	d := &DarkDetector{Threshold: 5 * time.Minute}
	r := &Record{}
	p := geo.Point{Lat: 41, Lon: 7}
	if got := step(d, st(1, 0, p, 10, 90), r, nil); len(got) != 0 {
		t.Fatal("first sample should not alert")
	}
	if got := step(d, st(1, 60, p, 10, 90), r, nil); len(got) != 0 {
		t.Fatal("one-minute gap should not alert")
	}
	got := step(d, st(1, 60+700, p, 10, 90), r, nil)
	if len(got) != 1 || got[0].Kind != KindDark {
		t.Fatalf("11-minute gap should alert: %v", got)
	}
	if got[0].Start != t0().Add(60*time.Second) {
		t.Errorf("dark start should anchor at last fix: %v", got[0].Start)
	}
}

func TestTeleportDetector(t *testing.T) {
	d := &TeleportDetector{MaxSpeedKn: 60}
	r := &Record{}
	a := geo.Point{Lat: 41, Lon: 7}
	b := geo.Destination(a, 90, 40000) // 40 km in 60 s: ≈1300 kn
	step(d, st(1, 0, a, 12, 90), r, nil)
	got := step(d, st(1, 60, b, 12, 90), r, nil)
	if len(got) != 1 || got[0].Kind != KindTeleport {
		t.Fatalf("teleport not flagged: %v", got)
	}
	// Plausible movement does not alert.
	c := geo.Destination(b, 90, 400)
	if got := step(d, st(1, 120, c, 12, 90), r, nil); len(got) != 0 {
		t.Errorf("normal movement flagged: %v", got)
	}
}

func TestIdentityDetector(t *testing.T) {
	d := IdentityDetector{}
	if got := d.Process(st(227000001, 0, geo.Point{Lat: 41, Lon: 7}, 10, 0), nil, nil); len(got) != 0 {
		t.Error("valid MMSI flagged")
	}
	if got := d.Process(st(912345678, 0, geo.Point{Lat: 41, Lon: 7}, 10, 0), nil, nil); len(got) != 1 {
		t.Error("9xx MMSI not flagged")
	}
}

func TestLoiterDetector(t *testing.T) {
	ctx := testCtx()
	d := &LoiterDetector{RadiusM: 2000, MinDuration: 20 * time.Minute, MaxSpeedKn: 3.5}
	r := &Record{}
	base := geo.Point{Lat: 41.5, Lon: 8.0} // open sea
	// 40 minutes of sub-1kn wandering within 500 m.
	var alerts []Alert
	for i := 0; i <= 80; i++ {
		p := geo.Destination(base, float64(i*37%360), float64(i%5)*100)
		alerts = append(alerts, d.Process(st(1, i*30, p, 0.8, float64(i%360)), r, ctx)...)
	}
	if len(alerts) != 1 || alerts[0].Kind != KindLoiter {
		t.Fatalf("expected exactly one loiter alert, got %d", len(alerts))
	}
	// The same pattern inside a port must not alert.
	d2 := &LoiterDetector{RadiusM: 2000, MinDuration: 20 * time.Minute, MaxSpeedKn: 3.5}
	r2 := &Record{}
	port := geo.Point{Lat: 43.0, Lon: 5.0}
	for i := 0; i <= 80; i++ {
		p := geo.Destination(port, float64(i*37%360), float64(i%5)*100)
		if got := d2.Process(st(2, i*30, p, 0.5, 0), r2, ctx); len(got) != 0 {
			t.Fatal("loiter alert inside port")
		}
	}
}

func TestDriftDetector(t *testing.T) {
	ctx := testCtx()
	d := &DriftDetector{NumSamples: 10}
	r := &Record{}
	pos := geo.Point{Lat: 41.5, Lon: 8.0}
	var alerts []Alert
	course := 10.0
	for i := 0; i < 30; i++ {
		course += float64((i%7 - 3) * 4) // wandering course
		s := st(1, i*30, pos, 1.2, course)
		s.Status = ais.StatusNotUnderCmd
		alerts = append(alerts, d.Process(s, r, ctx)...)
		pos = geo.Project(pos, geo.Velocity{SpeedMS: 1.2 * geo.Knot, CourseDg: course}, 30)
	}
	if len(alerts) != 1 || alerts[0].Kind != KindDrift {
		t.Fatalf("drift alerts: %v", alerts)
	}
	// A vessel transiting normally never alerts.
	d2 := &DriftDetector{NumSamples: 10}
	r2 := &Record{}
	pos = geo.Point{Lat: 41.5, Lon: 8.0}
	for i := 0; i < 30; i++ {
		if got := d2.Process(st(2, i*30, pos, 14, 90), r2, ctx); len(got) != 0 {
			t.Fatal("transit flagged as drift")
		}
		pos = geo.Project(pos, geo.Velocity{SpeedMS: 14 * geo.Knot, CourseDg: 90}, 30)
	}
}

func TestZoneViolationDetector(t *testing.T) {
	ctx := testCtx()
	d := &ZoneViolationDetector{MinSamples: 5}
	r := &Record{}
	inside := geo.Point{Lat: 42.2, Lon: 6.4}
	var alerts []Alert
	for i := 0; i < 10; i++ {
		s := st(1, i*30, inside, 3, float64(i*20))
		s.Status = ais.StatusFishing
		alerts = append(alerts, d.Process(s, r, ctx)...)
	}
	if len(alerts) != 1 || alerts[0].Kind != KindZoneViolation {
		t.Fatalf("zone violation alerts: %v", alerts)
	}
	// Fast transit through the reserve does not alert.
	d2 := &ZoneViolationDetector{MinSamples: 5}
	r2 := &Record{}
	for i := 0; i < 10; i++ {
		if got := d2.Process(st(2, i*30, inside, 15, 90), r2, ctx); len(got) != 0 {
			t.Fatal("transit through reserve flagged")
		}
	}
}

// Two detectors writing one Record slot would corrupt each other's state;
// Register refuses the second, and only that.
func TestRegisterRefusesSharedSlot(t *testing.T) {
	e := NewEngine(nil, 0)
	for _, d := range DefaultDetectors() {
		e.Register(d)
	}
	e.Register(&DarkDetector{Threshold: time.Hour}) // reads the shared last report only
	defer func() {
		if recover() == nil {
			t.Error("a second loiter detector registered")
		}
	}()
	e.Register(&LoiterDetector{RadiusM: 500})
}

func TestRendezvousDetectorViaEngine(t *testing.T) {
	ctx := testCtx()
	e := NewEngine(ctx, 0.1)
	e.RegisterPair(&RendezvousDetector{ProximityM: 1000, MaxSpeedKn: 2.5, MinDuration: 10 * time.Minute})
	meet := geo.Point{Lat: 41.0, Lon: 8.5}
	// Two vessels hold within 300 m for 30 minutes.
	var got []Alert
	for i := 0; i <= 60; i++ {
		pa := geo.Destination(meet, 0, 150)
		pb := geo.Destination(meet, 180, 150)
		got = append(got, e.Process(st(100, i*30, pa, 0.4, 0))...)
		got = append(got, e.Process(st(200, i*30, pb, 0.5, 180))...)
	}
	if len(got) != 1 {
		t.Fatalf("rendezvous alerts: %d", len(got))
	}
	if got[0].MMSI != 100 || got[0].Other != 200 {
		t.Errorf("pair wrong: %d/%d", got[0].MMSI, got[0].Other)
	}
	// Two vessels merely passing each other do not alert.
	e2 := NewEngine(ctx, 0.1)
	e2.RegisterPair(&RendezvousDetector{ProximityM: 1000, MaxSpeedKn: 2.5, MinDuration: 10 * time.Minute})
	a := geo.Point{Lat: 41.0, Lon: 8.0}
	b := geo.Destination(a, 90, 20000)
	got = nil
	for i := 0; i <= 60; i++ {
		got = append(got, e2.Process(st(100, i*30, a, 12, 90))...)
		got = append(got, e2.Process(st(200, i*30, b, 12, 270))...)
		a = geo.Project(a, geo.Velocity{SpeedMS: 12 * geo.Knot, CourseDg: 90}, 30)
		b = geo.Project(b, geo.Velocity{SpeedMS: 12 * geo.Knot, CourseDg: 270}, 30)
	}
	if len(got) != 0 {
		t.Errorf("passing vessels flagged as rendezvous: %v", got)
	}
}

func TestCPA(t *testing.T) {
	// Head-on: A eastbound, B westbound on the same latitude, 10 km apart.
	a := st(1, 0, geo.Point{Lat: 41, Lon: 8.0}, 10, 90)
	b := st(2, 0, geo.Point{Lat: 41, Lon: 8.12}, 10, 270)
	cpa, tcpa := CPA(a, b)
	if cpa > 200 {
		t.Errorf("head-on CPA should be ~0, got %.0f m", cpa)
	}
	if tcpa <= 0 {
		t.Errorf("TCPA should be positive, got %.0f", tcpa)
	}
	// Parallel same-direction: CPA stays the lateral separation.
	c := st(3, 0, geo.Point{Lat: 41.02, Lon: 8.0}, 10, 90)
	cpa2, _ := CPA(a, c)
	if cpa2 < 2000 {
		t.Errorf("parallel CPA should be ≈2.2 km, got %.0f", cpa2)
	}
}

func TestCollisionRiskDetector(t *testing.T) {
	ctx := testCtx()
	e := NewEngine(ctx, 0.1)
	e.RegisterPair(&CollisionRiskDetector{})
	// Head-on collision course 6 km apart at 12 kn each: TCPA ≈ 8 min.
	a := geo.Point{Lat: 41, Lon: 8.0}
	b := geo.Destination(a, 90, 6000)
	e.Process(st(1, 0, a, 12, 90))
	got := e.Process(st(2, 0, b, 12, 270))
	if len(got) != 1 || got[0].Kind != KindCollisionRisk {
		t.Fatalf("collision risk not raised: %v", got)
	}
	// Cooldown suppresses immediate re-alert.
	got = e.Process(st(1, 10, geo.Destination(a, 90, 60), 12, 90))
	if len(got) != 0 {
		t.Errorf("cooldown violated: %v", got)
	}
}

// The cooldown map holds the pairs still cooling down, not every pair that
// ever alerted.
func TestCollisionRiskCooldownMapIsBounded(t *testing.T) {
	d := &CollisionRiskDetector{}
	e := NewEngine(testCtx(), 0.1)
	e.RegisterPair(d)
	raised := 0
	for i := 0; i < 500; i++ { // a new head-on pair every minute, each in waters of its own
		a := geo.Point{Lat: 10 + float64(i%100)/2, Lon: 8 + float64(i/100)}
		raised += len(e.Process(st(uint32(1000+2*i), i*60, a, 12, 90)))
		raised += len(e.Process(st(uint32(1001+2*i), i*60, geo.Destination(a, 90, 6000), 12, 270)))
	}
	if raised != 500 {
		t.Fatalf("%d alerts from 500 head-on pairs", raised)
	}
	if n := len(d.lastAlert); n > 50 {
		t.Errorf("cooldown map holds %d pairs after 500 minutes; at most a cooldown's worth should remain", n)
	}
}

func TestPatternEngineSequence(t *testing.T) {
	ctx := testCtx()
	pe := NewPatternEngine(ctx)
	pe.Register(SmugglingRunPattern(4 * time.Hour))
	sea := geo.Point{Lat: 41.2, Lon: 8.3}
	var alerts []Alert
	i := 0
	feed := func(speed float64, minutes int) {
		for m := 0; m < minutes*2; m++ { // 30 s steps
			alerts = append(alerts, pe.Process(st(7, i*30, sea, speed, 90))...)
			i++
		}
	}
	feed(12, 30)  // transit
	feed(0.5, 20) // stop at sea ≥ 10 min
	feed(12, 10)  // resume
	if len(alerts) != 1 {
		t.Fatalf("pattern alerts: %d", len(alerts))
	}
	if alerts[0].Kind != "pattern:stop-and-go-at-sea" {
		t.Errorf("kind: %s", alerts[0].Kind)
	}
}

func TestPatternResetInPort(t *testing.T) {
	ctx := testCtx()
	pe := NewPatternEngine(ctx)
	pe.Register(SmugglingRunPattern(4 * time.Hour))
	port := geo.Point{Lat: 43.0, Lon: 5.0}
	var alerts []Alert
	i := 0
	feed := func(pos geo.Point, speed float64, minutes int) {
		for m := 0; m < minutes*2; m++ {
			alerts = append(alerts, pe.Process(st(7, i*30, pos, speed, 90))...)
			i++
		}
	}
	sea := geo.Point{Lat: 41.2, Lon: 8.3}
	feed(sea, 12, 30)   // transit
	feed(port, 0.2, 20) // stop — but IN PORT: resets
	feed(sea, 12, 10)   // transit again
	if len(alerts) != 0 {
		t.Fatalf("port stop should reset the pattern: %v", alerts)
	}
}

func TestPatternWindowExpiry(t *testing.T) {
	ctx := testCtx()
	pe := NewPatternEngine(ctx)
	pe.Register(SmugglingRunPattern(30 * time.Minute)) // tight window
	sea := geo.Point{Lat: 41.2, Lon: 8.3}
	var alerts []Alert
	i := 0
	feed := func(speed float64, minutes int) {
		for m := 0; m < minutes*2; m++ {
			alerts = append(alerts, pe.Process(st(7, i*30, sea, speed, 90))...)
			i++
		}
	}
	feed(12, 10)
	feed(0.5, 40) // stop longer than the whole window
	feed(12, 10)
	if len(alerts) != 0 {
		t.Fatalf("window-expired pattern should not fire: %v", alerts)
	}
}

func TestFindGaps(t *testing.T) {
	tr := &model.Trajectory{MMSI: 1}
	p := geo.Point{Lat: 41, Lon: 8}
	add := func(sec int) {
		tr.Points = append(tr.Points, st(1, sec, p, 10, 90))
	}
	add(0)
	add(60)
	add(60 + 3600) // one-hour gap
	add(60 + 3660)
	gaps := FindGaps(tr, 10*time.Minute)
	if len(gaps) != 1 {
		t.Fatalf("gaps: %d", len(gaps))
	}
	if gaps[0].Duration() != time.Hour {
		t.Errorf("gap duration %v", gaps[0].Duration())
	}
}

func TestPossibleRendezvousFeasibility(t *testing.T) {
	cfg := DefaultOpenWorldConfig()
	base := geo.Point{Lat: 41, Lon: 8}
	near := geo.Destination(base, 90, 5000)
	// Both vessels dark for 2 h, anchors 5 km apart: easily feasible.
	ga := Gap{MMSI: 1, Before: st(1, 0, base, 10, 90), After: st(1, 7200, base, 10, 90)}
	gb := Gap{MMSI: 2, Before: st(2, 0, near, 10, 270), After: st(2, 7200, near, 10, 270)}
	if _, ok := PossibleRendezvous(ga, gb, cfg); !ok {
		t.Error("nearby long dark periods should admit a possible rendezvous")
	}
	// Vessels 600 km apart with 30-minute gaps: infeasible.
	far := geo.Destination(base, 90, 600000)
	gc := Gap{MMSI: 3, Before: st(3, 0, far, 10, 270), After: st(3, 1800, far, 10, 270)}
	gd := Gap{MMSI: 1, Before: st(1, 0, base, 10, 90), After: st(1, 1800, base, 10, 90)}
	if _, ok := PossibleRendezvous(gd, gc, cfg); ok {
		t.Error("distant short dark periods cannot meet")
	}
	// Non-overlapping windows: infeasible.
	ge := Gap{MMSI: 4, Before: st(4, 7300, near, 10, 90), After: st(4, 10000, near, 10, 90)}
	if _, ok := PossibleRendezvous(ga, ge, cfg); ok {
		t.Error("non-overlapping dark windows cannot meet")
	}
}

func TestScoreMatching(t *testing.T) {
	truth := []TruthWindow{
		{Kind: KindLoiter, MMSI: 1, Start: t0(), End: t0().Add(time.Hour)},
		{Kind: KindLoiter, MMSI: 2, Start: t0(), End: t0().Add(time.Hour)},
	}
	alerts := []Alert{
		{Kind: KindLoiter, MMSI: 1, Start: t0().Add(10 * time.Minute), At: t0().Add(30 * time.Minute)}, // TP
		{Kind: KindLoiter, MMSI: 3, Start: t0(), At: t0().Add(time.Minute)},                            // FP
		{Kind: KindDark, MMSI: 2, At: t0()},                                                            // other kind: ignored
	}
	r := Score(KindLoiter, alerts, truth, time.Minute)
	if r.TP != 1 || r.FP != 1 || r.FN != 1 {
		t.Errorf("score: %+v", r)
	}
	if r.Precision != 0.5 || r.Recall != 0.5 {
		t.Errorf("precision/recall: %+v", r)
	}
	if r.MeanLatency != 30*time.Minute {
		t.Errorf("latency: %v", r.MeanLatency)
	}
}

func TestScorePairOrderInsensitive(t *testing.T) {
	truth := []TruthWindow{{Kind: KindRendezvous, MMSI: 1, Other: 2, Start: t0(), End: t0().Add(time.Hour)}}
	alerts := []Alert{{Kind: KindRendezvous, MMSI: 2, Other: 1, Start: t0(), At: t0().Add(time.Minute)}}
	r := Score(KindRendezvous, alerts, truth, time.Minute)
	if r.TP != 1 || r.Recall != 1 {
		t.Errorf("pair matching should be order-insensitive: %+v", r)
	}
}

// A report that raises nothing allocates nothing: the grid keeps its cells
// and contacts in place, the nine cell ids live on the stack, and no
// detector builds a slice to return it empty.
func TestProcessSteadyStateAllocatesNothing(t *testing.T) {
	e, _ := enginePair(testCtx(), 0.1)
	// Three vessels 2 km apart in open water, same course and speed: inside
	// each other's pairing horizon, never converging.
	pos := []geo.Point{{Lat: 41.000, Lon: 8.3}, {Lat: 41.018, Lon: 8.3}, {Lat: 41.036, Lon: 8.3}}
	n := 0
	process := func() {
		i := n % len(pos)
		if got := e.Process(st(uint32(227000001+i), n/len(pos)*10, pos[i], 10, 90)); len(got) != 0 {
			t.Fatalf("report %d raised %v; the scenario is meant to be quiet", n, got)
		}
		pos[i] = geo.Project(pos[i], geo.Velocity{SpeedMS: 10 * geo.Knot, CourseDg: 90}, 10)
		n++
	}
	for n < 30 {
		process()
	}
	if allocs := testing.AllocsPerRun(100, process); allocs != 0 {
		t.Errorf("steady-state Process allocates %.0f times per report, want 0", allocs)
	}
}

// CPA returns the closest point of approach distance in metres and the
// time to it in seconds for two vessels extrapolated at constant velocity
// on a local plane. A negative TCPA means the vessels are already past
// their closest point.
func CPA(a, b model.VesselState) (cpaM, tcpaSec float64) {
	ca, cb := contactOf(a), contactOf(b)
	return cpaOf(&ca, &cb)
}
