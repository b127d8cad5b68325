package semstore

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/zones"
)

// Vocabulary only the tests write.
const (
	ClassVessel = "mar:Vessel"
	PredName    = "mar:name"
	PredLengthM = "mar:lengthM"
)

func t0() time.Time { return time.Date(2017, 3, 21, 0, 0, 0, 0, time.UTC) }

func TestStoreAddAndMatch(t *testing.T) {
	st := NewStore()
	v1 := IRI(VesselIRI(227000001))
	st.Add(Triple{S: v1, P: IRI(PredType), O: IRI(ClassVessel)})
	st.Add(Triple{S: v1, P: IRI(PredName), O: Str("NORTHERN STAR")})
	st.Add(Triple{S: v1, P: IRI(PredLengthM), O: Num(180)})
	st.Add(Triple{S: v1, P: IRI(PredName), O: Str("NORTHERN STAR")}) // duplicate

	if st.Len() != 3 {
		t.Fatalf("len %d, duplicates must be dropped", st.Len())
	}
	// By subject.
	if got := st.Match(Pattern{S: T(v1)}); len(got) != 3 {
		t.Errorf("subject match: %d", len(got))
	}
	// By predicate.
	if got := st.Match(Pattern{P: T(IRI(PredName))}); len(got) != 1 || got[0].O.Str != "NORTHERN STAR" {
		t.Errorf("predicate match: %v", got)
	}
	// By object.
	if got := st.Match(Pattern{O: T(IRI(ClassVessel))}); len(got) != 1 {
		t.Errorf("object match: %d", len(got))
	}
	// Fully bound.
	if got := st.Match(Pattern{S: T(v1), P: T(IRI(PredLengthM)), O: T(Num(180))}); len(got) != 1 {
		t.Errorf("exact match: %d", len(got))
	}
	if got := st.Match(Pattern{S: T(v1), P: T(IRI(PredLengthM)), O: T(Num(99))}); len(got) != 0 {
		t.Errorf("wrong object should not match: %v", got)
	}
	// Wildcard-everything.
	if got := st.Match(Pattern{}); len(got) != 3 {
		t.Errorf("full scan: %d", len(got))
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"same", "same", 0},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestNameSimilarity(t *testing.T) {
	if s := NameSimilarity("EVER GIVEN", "EVER GIVEN"); s != 1 {
		t.Errorf("identical names: %f", s)
	}
	if s := NameSimilarity("EVER GIVEN", "EVR GIVEN"); s < 0.85 {
		t.Errorf("one-typo names: %f", s)
	}
	if s := NameSimilarity("EVER GIVEN", "PACIFIC DAWN"); s > 0.5 {
		t.Errorf("unrelated names: %f", s)
	}
	// Case and punctuation insensitive.
	if s := NameSimilarity("L'Audacieuse", "LAUDACIEUSE"); s != 1 {
		t.Errorf("normalisation: %f", s)
	}
}

func TestDiscoverLinksOnSyntheticRegisters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	_, ra, rb := registry.SyntheticPair(rng, 300, 0.02, 0.25)
	links := DiscoverLinks(ra, rb, DefaultLinkConfig())
	q := EvaluateLinks(links, 300)
	if q.Precision < 0.97 {
		t.Errorf("link precision %.3f", q.Precision)
	}
	if q.Recall < 0.80 {
		t.Errorf("link recall %.3f", q.Recall)
	}
	t.Logf("E12 mini: links=%d precision=%.3f recall=%.3f f1=%.3f", q.Links, q.Precision, q.Recall, q.F1)
}

func TestBlockingAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	_, ra, rb := registry.SyntheticPair(rng, 200, 0.02, 0.25)
	withBlocking := DiscoverLinks(ra, rb, DefaultLinkConfig())
	cfg := DefaultLinkConfig()
	cfg.UseBlocking = false
	without := DiscoverLinks(ra, rb, cfg)
	qb := EvaluateLinks(withBlocking, 200)
	qw := EvaluateLinks(without, 200)
	// Exhaustive matching recalls at least as much as blocked matching.
	if qw.Recall < qb.Recall-1e-9 {
		t.Errorf("exhaustive recall %.3f below blocked %.3f", qw.Recall, qb.Recall)
	}
}

// voyageTrajectory builds: moored in port (20 min) → transit (30 min) →
// slow fishing-like movement (30 min) → transit back (20 min).
func voyageTrajectory() *model.Trajectory {
	tr := &model.Trajectory{MMSI: 9}
	at := t0()
	port := geo.Point{Lat: 43.0, Lon: 5.0}
	add := func(pos geo.Point, speed float64, dur time.Duration, course float64) geo.Point {
		for elapsed := time.Duration(0); elapsed < dur; elapsed += 30 * time.Second {
			tr.Points = append(tr.Points, model.VesselState{
				MMSI: 9, At: at, Pos: pos, SpeedKn: speed, CourseDeg: course,
			})
			pos = geo.Project(pos, geo.Velocity{SpeedMS: speed * geo.Knot, CourseDg: course}, 30)
			at = at.Add(30 * time.Second)
		}
		return pos
	}
	pos := add(port, 0.2, 20*time.Minute, 0) // moored
	pos = add(pos, 14, 30*time.Minute, 45)   // transit out
	pos = add(pos, 3.5, 30*time.Minute, 120) // slow / fishing
	_ = add(pos, 14, 20*time.Minute, 225)    // transit back
	return tr
}

func testZones() *zones.ZoneSet {
	return zones.NewZoneSet([]*zones.Zone{
		zones.PortZone("port-mrs", "Marseille", geo.Point{Lat: 43.0, Lon: 5.0}, 5000),
	})
}

func TestSegmentEpisodes(t *testing.T) {
	tr := voyageTrajectory()
	eps := SegmentEpisodes(tr, testZones(), DefaultEpisodeConfig())
	if len(eps) != 4 {
		t.Fatalf("expected 4 episodes, got %d: %+v", len(eps), eps)
	}
	wantOrder := []Activity{ActivityMoored, ActivityUnderway, ActivitySlowMove, ActivityUnderway}
	for i, e := range eps {
		if e.Activity != wantOrder[i] {
			t.Errorf("episode %d activity %s, want %s", i, e.Activity, wantOrder[i])
		}
		if !e.End.After(e.Start) {
			t.Errorf("episode %d has empty interval", i)
		}
	}
	// The moored episode must carry the port zone annotation.
	if len(eps[0].ZoneIDs) == 0 || eps[0].ZoneIDs[0] != "port-mrs" {
		t.Errorf("moored episode zones: %v", eps[0].ZoneIDs)
	}
	// Transit episodes should have transit-like speed.
	if eps[1].AvgSpeed < 10 {
		t.Errorf("transit avg speed %.1f", eps[1].AvgSpeed)
	}
}

func TestSegmentEpisodesMinDuration(t *testing.T) {
	tr := voyageTrajectory()
	cfg := DefaultEpisodeConfig()
	cfg.MinDuration = 25 * time.Minute // drops the 20-minute episodes
	eps := SegmentEpisodes(tr, testZones(), cfg)
	for _, e := range eps {
		if e.Duration() < cfg.MinDuration {
			t.Errorf("episode below min duration survived: %v", e.Duration())
		}
	}
	if got := SegmentEpisodes(&model.Trajectory{}, nil, cfg); got != nil {
		t.Error("empty trajectory should give no episodes")
	}
}

func TestMaterialiseEpisodes(t *testing.T) {
	st := NewStore()
	eps := SegmentEpisodes(voyageTrajectory(), testZones(), DefaultEpisodeConfig())
	n := MaterialiseEpisodes(st, eps)
	if n == 0 {
		t.Fatal("no triples materialised")
	}
	// The vessel must link to every episode.
	got := st.Match(Pattern{S: T(IRI(VesselIRI(9))), P: T(IRI(PredHasEpisode))})
	if len(got) != len(eps) {
		t.Errorf("hasEpisode count %d, want %d", len(got), len(eps))
	}
	// Activity round trip for episode 0.
	acts := st.Match(Pattern{S: T(IRI(EpisodeIRI(9, 0))), P: T(IRI(PredActivity))})
	if len(acts) != 1 || acts[0].O.Str != string(ActivityMoored) {
		t.Errorf("episode 0 activity: %v", acts)
	}
	// Zone annotation queryable by object.
	inPort := st.Match(Pattern{P: T(IRI(PredInZone)), O: T(IRI("mar:zone/port-mrs"))})
	if len(inPort) == 0 {
		t.Error("no episodes annotated with the port zone")
	}
}

func TestMatchDeterministic(t *testing.T) {
	st := NewStore()
	for i := 0; i < 20; i++ {
		st.Add(Triple{S: IRI(VesselIRI(uint32(i % 4))), P: IRI(PredName), O: Str(string(rune('A' + i)))})
	}
	a := st.Match(Pattern{P: T(IRI(PredName))})
	b := st.Match(Pattern{P: T(IRI(PredName))})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("match order nondeterministic")
		}
	}
}

func BenchmarkStoreAdd(b *testing.B) {
	st := NewStore()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.Add(Triple{S: IRI(VesselIRI(uint32(i))), P: IRI(PredLengthM), O: Num(float64(i))})
	}
}

func BenchmarkMatchBySubject(b *testing.B) {
	st := NewStore()
	for i := 0; i < 10000; i++ {
		st.Add(Triple{S: IRI(VesselIRI(uint32(i % 100))), P: IRI(PredLengthM), O: Num(float64(i))})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = st.Match(Pattern{S: T(IRI(VesselIRI(50)))})
	}
}

func BenchmarkDiscoverLinks300(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	_, ra, rb := registry.SyntheticPair(rng, 300, 0.02, 0.25)
	cfg := DefaultLinkConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = DiscoverLinks(ra, rb, cfg)
	}
}

// Duration returns the episode length.
func (e Episode) Duration() time.Duration { return e.End.Sub(e.Start) }
