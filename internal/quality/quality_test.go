package quality

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/uncertainty"
)

func t0() time.Time { return time.Date(2017, 3, 21, 0, 0, 0, 0, time.UTC) }

func cleanStatic() *ais.StaticVoyage {
	return &ais.StaticVoyage{
		MMSI: 227006760, IMO: 9074729, CallSign: "FQ8L",
		ShipName: "SALMON RUNNER", ShipType: ais.ShipTypeCargo,
		DimBow: 80, DimStern: 40, DimPort: 10, DimStarb: 10,
		Draught: 7, Destination: "MARSEILLE",
	}
}

func TestCheckStaticCleanMessage(t *testing.T) {
	if issues := CheckStatic(cleanStatic()); len(issues) != 0 {
		t.Errorf("clean message flagged: %v", issues)
	}
}

func TestCheckStaticCatchesEachCorruption(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*ais.StaticVoyage)
		field  string
	}{
		{"invalid mmsi", func(m *ais.StaticVoyage) { m.MMSI = 12345 }, FieldMMSI},
		{"blank name", func(m *ais.StaticVoyage) { m.ShipName = "" }, FieldName},
		{"placeholder name", func(m *ais.StaticVoyage) { m.ShipName = "NONAME" }, FieldName},
		{"zero dims", func(m *ais.StaticVoyage) { m.DimBow, m.DimStern, m.DimPort, m.DimStarb = 0, 0, 0, 0 }, FieldDims},
		{"absurd dims", func(m *ais.StaticVoyage) { m.DimBow, m.DimStern = 500, 511 }, FieldDims},
		{"unknown type", func(m *ais.StaticVoyage) { m.ShipType = ais.ShipTypeUnknown }, FieldShipType},
		{"blank callsign", func(m *ais.StaticVoyage) { m.CallSign = "" }, FieldCallSign},
	}
	for _, c := range cases {
		m := cleanStatic()
		c.mutate(m)
		issues := CheckStatic(m)
		found := false
		for _, is := range issues {
			if is.Field == c.field {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no issue on field %s (got %v)", c.name, c.field, issues)
		}
	}
}

func TestKinematicTeleport(t *testing.T) {
	var k KinematicChecker
	s1 := model.VesselState{MMSI: 1, At: t0(), Pos: geo.Point{Lat: 43, Lon: 5}, SpeedKn: 10}
	s2 := model.VesselState{MMSI: 1, At: t0().Add(10 * time.Second), Pos: geo.Point{Lat: 43.5, Lon: 5}, SpeedKn: 10}
	if issues := k.Check(s1); len(issues) != 0 {
		t.Fatal("first sample cannot raise issues")
	}
	issues := k.Check(s2) // 55 km in 10 s
	foundTeleport := false
	for _, is := range issues {
		if is.Rule == "teleport" {
			foundTeleport = true
		}
	}
	if !foundTeleport {
		t.Errorf("teleport not detected: %v", issues)
	}
}

func TestKinematicCleanTrackPasses(t *testing.T) {
	var k KinematicChecker
	pos := geo.Point{Lat: 43, Lon: 5}
	at := t0()
	for i := 0; i < 50; i++ {
		s := model.VesselState{MMSI: 1, At: at, Pos: pos, SpeedKn: 12, CourseDeg: 90}
		if issues := k.Check(s); len(issues) != 0 {
			t.Fatalf("clean track flagged at %d: %v", i, issues)
		}
		pos = geo.Project(pos, geo.Velocity{SpeedMS: 12 * geo.Knot, CourseDg: 90}, 10)
		at = at.Add(10 * time.Second)
	}
}

func TestKinematicSOGMismatch(t *testing.T) {
	var k KinematicChecker
	s1 := model.VesselState{MMSI: 1, At: t0(), Pos: geo.Point{Lat: 43, Lon: 5}, SpeedKn: 0}
	// Moves 3 km in 60 s (≈97 kn implied... too big; use smaller): 1 km in 60 s ≈ 32 kn vs reported 0.
	s2 := model.VesselState{MMSI: 1, At: t0().Add(60 * time.Second),
		Pos: geo.Destination(geo.Point{Lat: 43, Lon: 5}, 90, 1000), SpeedKn: 0}
	k.Check(s1)
	issues := k.Check(s2)
	found := false
	for _, is := range issues {
		if is.Rule == "sog-mismatch" {
			found = true
		}
	}
	if !found {
		t.Errorf("SOG mismatch not detected: %v", issues)
	}
}

func TestKinematicTimeRegression(t *testing.T) {
	var k KinematicChecker
	s1 := model.VesselState{MMSI: 1, At: t0().Add(time.Minute), Pos: geo.Point{Lat: 43, Lon: 5}}
	s2 := model.VesselState{MMSI: 1, At: t0(), Pos: geo.Point{Lat: 43, Lon: 5}}
	k.Check(s1)
	issues := k.Check(s2)
	if len(issues) != 1 || issues[0].Rule != "time-regression" {
		t.Errorf("time regression not detected: %v", issues)
	}
}

func TestMeasureCompleteness(t *testing.T) {
	from, to := t0(), t0().Add(time.Hour)
	// Reports every minute except a 20-minute hole in the middle.
	var times []time.Time
	for m := 0; m < 60; m++ {
		if m >= 20 && m < 40 {
			continue
		}
		times = append(times, from.Add(time.Duration(m)*time.Minute))
	}
	c := MeasureCompleteness(1, times, from, to, time.Minute, 5*time.Minute)
	if c.Received != 40 {
		t.Errorf("received %d", c.Received)
	}
	if c.LongestGap < 20*time.Minute || c.LongestGap > 22*time.Minute {
		t.Errorf("longest gap %v", c.LongestGap)
	}
	if c.GapsOver != 1 {
		t.Errorf("gaps over threshold: %d", c.GapsOver)
	}
	// Dark time = 21min gap − 5min threshold = 16min → fraction ≈ 0.27.
	if c.DarkFraction < 0.2 || c.DarkFraction > 0.35 {
		t.Errorf("dark fraction %.3f", c.DarkFraction)
	}
	if c.Ratio < 0.6 || c.Ratio > 0.7 {
		t.Errorf("ratio %.3f", c.Ratio)
	}
}

func TestCompletenessFullCoverage(t *testing.T) {
	from, to := t0(), t0().Add(time.Hour)
	var times []time.Time
	for m := 0; m <= 60; m++ {
		times = append(times, from.Add(time.Duration(m)*time.Minute))
	}
	c := MeasureCompleteness(1, times, from, to, time.Minute, 5*time.Minute)
	if c.DarkTime != 0 || c.GapsOver != 0 {
		t.Errorf("full coverage should have no dark time: %+v", c)
	}
	if c.Ratio != 1 {
		t.Errorf("ratio %.3f", c.Ratio)
	}
}

func TestCompletenessEdges(t *testing.T) {
	c := MeasureCompleteness(1, nil, t0(), t0(), time.Minute, time.Minute)
	if c.Received != 0 || c.Ratio != 0 {
		t.Errorf("degenerate window: %+v", c)
	}
	// No reports at all: the whole window beyond the threshold is dark.
	c = MeasureCompleteness(1, nil, t0(), t0().Add(time.Hour), time.Minute, 5*time.Minute)
	if c.DarkFraction < 0.9 {
		t.Errorf("silent vessel should be ~fully dark: %.3f", c.DarkFraction)
	}
}

func TestProfile(t *testing.T) {
	p := NewProfile()
	mean, _ := p.Reliability("new")
	if mean != 0.5 {
		t.Errorf("prior mean %.2f", mean)
	}
	for i := 0; i < 50; i++ {
		p.Record("good", true)
		p.Record("bad", i%3 != 0) // ~33% failures
	}
	gm, gl := p.Reliability("good")
	bm, _ := p.Reliability("bad")
	if gm < 0.9 || gl > gm {
		t.Errorf("good source: mean %.2f lower %.2f", gm, gl)
	}
	if bm > 0.8 {
		t.Errorf("bad source mean %.2f should be depressed", bm)
	}
	if got := p.Subjects(); len(got) != 2 || got[0] != "bad" {
		t.Errorf("subjects: %v", got)
	}
}

// TestE3EndToEnd is the E3 experiment in miniature: simulate traffic with
// 5% static corruption, run the detectors, and score detection quality
// against the simulator's ground truth.
func TestE3EndToEnd(t *testing.T) {
	cfg := sim.Config{
		Seed: 42, NumVessels: 120, Duration: 2 * time.Hour, TickSec: 2,
		StaticErrorRate: 0.05,
	}
	run, err := sim.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Statics) < 200 {
		t.Fatalf("not enough static traffic: %d", len(run.Statics))
	}
	var tp, fp, fn int
	for i := range run.Statics {
		so := &run.Statics[i]
		flagged := len(CheckStatic(&so.Msg)) > 0
		switch {
		case flagged && so.Corrupted:
			tp++
		case flagged && !so.Corrupted:
			fp++
		case !flagged && so.Corrupted:
			fn++
		}
	}
	if tp == 0 {
		t.Fatal("no corrupted statics detected at all")
	}
	precision := float64(tp) / float64(tp+fp)
	recall := float64(tp) / float64(tp+fn)
	if precision < 0.9 {
		t.Errorf("precision %.3f too low (fp=%d)", precision, fp)
	}
	if recall < 0.9 {
		t.Errorf("recall %.3f too low (fn=%d)", recall, fn)
	}
	// The estimated error rate (the flagged share) should land near the
	// injected 5%.
	rate := float64(tp+fp) / float64(len(run.Statics))
	if rate < 0.02 || rate > 0.09 {
		t.Errorf("estimated rate %.3f not near 0.05", rate)
	}
	t.Logf("E3: precision=%.3f recall=%.3f estimated-rate=%.3f", precision, recall, rate)
}

func TestKinematicCatchesSimulatedSpoof(t *testing.T) {
	cfg := sim.Config{
		Seed: 7, NumVessels: 80, Duration: 90 * time.Minute, TickSec: 2,
		SpoofShipFrac: 0.3,
	}
	run, err := sim.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spoofed := map[uint32]bool{}
	for _, e := range run.Events {
		if e.Kind == sim.EventSpoofOffset {
			spoofed[e.MMSI] = true
		}
	}
	if len(spoofed) == 0 {
		t.Skip("no offset spoofing with this seed")
	}
	checkers := map[uint32]*KinematicChecker{}
	flagged := map[uint32]bool{}
	for _, obs := range run.Positions {
		m := obs.Report.MMSI
		k, ok := checkers[m]
		if !ok {
			k = &KinematicChecker{}
			checkers[m] = k
		}
		st := model.FromReport(obs.At, &obs.Report)
		for _, is := range k.Check(st) {
			if is.Rule == "teleport" {
				flagged[m] = true
			}
		}
	}
	hits := 0
	for m := range spoofed {
		if flagged[m] {
			hits++
		}
	}
	if hits == 0 {
		t.Errorf("teleport rule caught none of %d spoofed vessels", len(spoofed))
	}
}

func BenchmarkCheckStatic(b *testing.B) {
	m := cleanStatic()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = CheckStatic(m)
	}
}

func BenchmarkKinematicCheck(b *testing.B) {
	var k KinematicChecker
	rng := rand.New(rand.NewSource(1))
	states := make([]model.VesselState, 1000)
	pos := geo.Point{Lat: 43, Lon: 5}
	at := t0()
	for i := range states {
		states[i] = model.VesselState{MMSI: 1, At: at, Pos: pos, SpeedKn: 12}
		pos = geo.Destination(pos, 90, 60+rng.Float64()*5)
		at = at.Add(10 * time.Second)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = k.Check(states[i%len(states)])
	}
}

// Reliability returns the mean reliability estimate and the conservative
// 2-sigma lower bound for the subject; unknown subjects get the prior.
func (p *Profile) Reliability(subject string) (mean, lower float64) {
	b, ok := p.subjects[subject]
	if !ok {
		b = uncertainty.NewBeta()
	}
	return b.Mean(), b.LowerBound(2)
}

// Subjects lists the known subjects sorted by name.
func (p *Profile) Subjects() []string {
	out := make([]string, 0, len(p.subjects))
	for s := range p.subjects {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
