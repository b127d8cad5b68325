package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randPoint returns a random point away from the poles and antimeridian so
// that planar approximations behave; the library's maritime basins live
// there too.
func randPoint(r *rand.Rand) Point {
	return Point{Lat: r.Float64()*140 - 70, Lon: r.Float64()*340 - 170}
}

func TestDistanceKnownValues(t *testing.T) {
	cases := []struct {
		a, b Point
		want float64 // metres
		tol  float64
	}{
		{Point{0, 0}, Point{0, 0}, 0, 0.001},
		{Point{0, 0}, Point{0, 1}, 111195, 200},                          // one degree of longitude at equator
		{Point{0, 0}, Point{1, 0}, 111195, 200},                          // one degree of latitude
		{Point{50.0359, -5.4253}, Point{58.3838, -3.0412}, 940000, 5000}, // Cornwall→Caithness, ~940 km
	}
	for i, c := range cases {
		got := Distance(c.a, c.b)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("case %d: Distance(%v,%v) = %.1f, want %.1f ± %.1f", i, c.a, c.b, got, c.want, c.tol)
		}
	}
}

func TestDistanceSymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a, b := randPoint(r), randPoint(r)
		d1, d2 := Distance(a, b), Distance(b, a)
		if math.Abs(d1-d2) > 1e-6 {
			t.Fatalf("Distance not symmetric: %v vs %v", d1, d2)
		}
	}
}

func TestTriangleInequality(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		a, b, c := randPoint(r), randPoint(r), randPoint(r)
		if Distance(a, c) > Distance(a, b)+Distance(b, c)+1e-6 {
			t.Fatalf("triangle inequality violated for %v %v %v", a, b, c)
		}
	}
}

func TestDestinationRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		a := randPoint(r)
		brg := r.Float64() * 360
		dist := r.Float64() * 500000 // up to 500 km
		b := Destination(a, brg, dist)
		got := Distance(a, b)
		if math.Abs(got-dist) > dist*1e-6+0.01 {
			t.Fatalf("Destination distance mismatch: want %.3f got %.3f", dist, got)
		}
		// Initial bearing should match the requested bearing.
		if dist > 1000 {
			gotBrg := Bearing(a, b)
			diff := math.Abs(gotBrg - brg)
			if diff > 180 {
				diff = 360 - diff
			}
			if diff > 0.01 {
				t.Fatalf("bearing mismatch: want %.4f got %.4f", brg, gotBrg)
			}
		}
	}
}

func TestInterpolateEndpoints(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		a, b := randPoint(r), randPoint(r)
		if d := Distance(Interpolate(a, b, 0), a); d > 0.5 {
			t.Fatalf("Interpolate(...,0) should be a: off by %.3f m", d)
		}
		if d := Distance(Interpolate(a, b, 1), b); d > 0.5 {
			t.Fatalf("Interpolate(...,1) should be b: off by %.3f m", d)
		}
	}
}

func TestInterpolateMidpointOnPath(t *testing.T) {
	a := Point{10, 10}
	b := Point{20, 30}
	m := Midpoint(a, b)
	// The midpoint must be equidistant from both endpoints.
	da, db := Distance(m, a), Distance(m, b)
	if math.Abs(da-db) > 1 {
		t.Fatalf("midpoint not equidistant: %.2f vs %.2f", da, db)
	}
	// And the two halves must sum to the whole within tolerance.
	if math.Abs(da+db-Distance(a, b)) > 1 {
		t.Fatalf("midpoint not on path")
	}
}

func TestNormalizeLonProperty(t *testing.T) {
	f := func(raw float64) bool {
		lon := math.Mod(raw, 1e6) // keep finite range
		n := NormalizeLon(lon)
		return n >= -180 && n < 180
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizeBearingProperty(t *testing.T) {
	f := func(raw float64) bool {
		b := math.Mod(raw, 1e6)
		n := NormalizeBearing(b)
		return n >= 0 && n < 360
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCrossTrackSign(t *testing.T) {
	a := Point{0, 0}
	b := Point{0, 10} // path due east along the equator
	right := Point{-1, 5}
	left := Point{1, 5}
	if d := CrossTrackDistance(right, a, b); d <= 0 {
		t.Errorf("point right of track should be positive, got %.1f", d)
	}
	if d := CrossTrackDistance(left, a, b); d >= 0 {
		t.Errorf("point left of track should be negative, got %.1f", d)
	}
}

func TestPointSegmentDistance(t *testing.T) {
	a := Point{0, 0}
	b := Point{0, 1}
	// Point beyond the end should measure to the endpoint.
	p := Point{0, 2}
	want := Distance(p, b)
	if got := PointSegmentDistance(p, a, b); math.Abs(got-want) > 1 {
		t.Errorf("beyond-end distance = %.1f, want %.1f", got, want)
	}
	// Point abeam of the middle measures the cross-track distance.
	q := Point{0.5, 0.5}
	got := PointSegmentDistance(q, a, b)
	if math.Abs(got-Distance(q, Point{0, 0.5})) > 100 {
		t.Errorf("abeam distance = %.1f", got)
	}
}

func TestProjectConsistency(t *testing.T) {
	p := Point{45, -30}
	v := Velocity{SpeedMS: 10, CourseDg: 90}
	q := Project(p, v, 3600)
	if d := Distance(p, q); math.Abs(d-36000) > 50 {
		t.Errorf("projected distance %.1f, want ~36000", d)
	}
	if b := Bearing(p, q); math.Abs(b-90) > 0.5 {
		t.Errorf("initial bearing %.3f, want ~90", b)
	}
}

func TestRectContainsExtend(t *testing.T) {
	r := EmptyRect()
	if !r.IsEmpty() {
		t.Fatal("EmptyRect should be empty")
	}
	pts := []Point{{10, 20}, {-5, 40}, {7, -10}}
	for _, p := range pts {
		r = r.Extend(p)
	}
	for _, p := range pts {
		if !r.Contains(p) {
			t.Errorf("rect should contain %v", p)
		}
	}
	if r.Contains(Point{50, 50}) {
		t.Error("rect should not contain far point")
	}
}

func TestRectIntersects(t *testing.T) {
	a := Rect{MinLat: 0, MinLon: 0, MaxLat: 10, MaxLon: 10}
	b := Rect{MinLat: 5, MinLon: 5, MaxLat: 15, MaxLon: 15}
	c := Rect{MinLat: 20, MinLon: 20, MaxLat: 30, MaxLon: 30}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("a and b should intersect")
	}
	if a.Intersects(c) {
		t.Error("a and c should not intersect")
	}
	if a.Intersects(EmptyRect()) {
		t.Error("nothing intersects the empty rect")
	}
}

func TestRectUnionProperty(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		p1, p2, p3 := randPoint(r), randPoint(r), randPoint(r)
		a := EmptyRect().Extend(p1).Extend(p2)
		b := EmptyRect().Extend(p3)
		u := a.Union(b)
		for _, p := range []Point{p1, p2, p3} {
			if !u.Contains(p) {
				t.Fatalf("union must contain all source points")
			}
		}
		if u.Union(a) != u || u.Union(b) != u {
			t.Fatalf("union must contain both rects")
		}
	}
}

func TestRectAround(t *testing.T) {
	p := Point{40, -70}
	r := RectAround(p, 10000)
	if !r.Contains(p) {
		t.Fatal("RectAround must contain the centre")
	}
	// All destinations at radius must be inside the rect.
	for brg := 0.0; brg < 360; brg += 30 {
		q := Destination(p, brg, 9999)
		if !r.Contains(q) {
			t.Errorf("point at bearing %.0f escaped the rect", brg)
		}
	}
}

func TestRectDistanceToAdmissible(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 300; i++ {
		c1, c2 := randPoint(r), randPoint(r)
		box := EmptyRect().Extend(c1).Extend(c2)
		p := randPoint(r)
		lower := box.DistanceTo(p)
		// The lower bound must not exceed the distance to either defining corner.
		if lower > Distance(p, c1)+1e-6 || lower > Distance(p, c2)+1e-6 {
			t.Fatalf("DistanceTo over-estimates: %.1f > min corner dist", lower)
		}
	}
}

func TestPolygonContains(t *testing.T) {
	square := NewPolygon([]Point{{0, 0}, {0, 10}, {10, 10}, {10, 0}})
	inside := []Point{{5, 5}, {1, 1}, {9, 9}}
	outside := []Point{{-1, 5}, {5, 11}, {15, 15}}
	for _, p := range inside {
		if !square.Contains(p) {
			t.Errorf("square should contain %v", p)
		}
	}
	for _, p := range outside {
		if square.Contains(p) {
			t.Errorf("square should not contain %v", p)
		}
	}
}

func TestPolygonConcave(t *testing.T) {
	// An L-shaped polygon.
	l := NewPolygon([]Point{{0, 0}, {0, 10}, {4, 10}, {4, 4}, {10, 4}, {10, 0}})
	if !l.Contains(Point{2, 8}) {
		t.Error("point in the vertical arm should be inside")
	}
	if !l.Contains(Point{8, 2}) {
		t.Error("point in the horizontal arm should be inside")
	}
	if l.Contains(Point{8, 8}) {
		t.Error("point in the notch should be outside")
	}
}

func TestCirclePolygonContainsCentre(t *testing.T) {
	c := Point{30, 30}
	pg := CirclePolygon(c, 50000, 24)
	if !pg.Contains(c) {
		t.Error("circle polygon must contain its centre")
	}
	if pg.Contains(Destination(c, 45, 60000)) {
		t.Error("point beyond the radius must be outside")
	}
	if !pg.Contains(Destination(c, 45, 20000)) {
		t.Error("point well within the radius must be inside")
	}
}

func TestPolygonDistanceToBoundary(t *testing.T) {
	square := NewPolygon([]Point{{0, 0}, {0, 1}, {1, 1}, {1, 0}})
	d := square.DistanceToBoundary(Point{0.5, 0.5})
	// Half a degree of latitude ≈ 55.6 km.
	if math.Abs(d-55597) > 600 {
		t.Errorf("centre-to-edge distance = %.0f, want ≈55597", d)
	}
}

func TestPolylineLengthAndPointAt(t *testing.T) {
	pl := Polyline{Points: []Point{{0, 0}, {0, 1}, {0, 2}}}
	total := pl.Length()
	if math.Abs(total-2*111195) > 500 {
		t.Fatalf("polyline length = %.0f", total)
	}
	mid := pl.PointAt(total / 2)
	if d := Distance(mid, Point{0, 1}); d > 500 {
		t.Errorf("PointAt(middle) off by %.0f m", d)
	}
	if pl.PointAt(-5) != pl.Points[0] {
		t.Error("PointAt clamps to start")
	}
	end := pl.PointAt(total * 2)
	if d := Distance(end, pl.Points[2]); d > 0.5 {
		t.Error("PointAt clamps to end")
	}
}

func TestGridCellRoundTrip(t *testing.T) {
	g := NewGrid(0.5)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		p := randPoint(r)
		id := g.Cell(p)
		rect := g.CellRect(id)
		if !rect.Contains(p) {
			t.Fatalf("cell rect %v does not contain %v", rect, p)
		}
		c := g.CellCenter(id)
		if g.Cell(c) != id {
			t.Fatalf("cell centre maps to a different cell")
		}
	}
}

func TestGridCellsInRect(t *testing.T) {
	g := NewGrid(1.0)
	r := Rect{MinLat: 0.2, MinLon: 0.2, MaxLat: 2.8, MaxLon: 3.8}
	ids := g.CellsInRect(r, nil)
	if len(ids) != 3*4 {
		t.Fatalf("expected 12 cells, got %d", len(ids))
	}
	seen := map[CellID]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatal("duplicate cell id")
		}
		seen[id] = true
	}
}

// TestGridNumCellsInRect counts what CellsInRect lists, on random boxes
// that cross the world's edges and on empty and off-world ones.
func TestGridNumCellsInRect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := NewGrid(0.25)
	boxes := []Rect{
		{MinLat: 1, MinLon: 1, MaxLat: 0, MaxLon: 2},         // empty
		{MinLat: -95, MinLon: 185, MaxLat: -91, MaxLon: 190}, // off the world
		{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}, // the world
		{MinLat: 30, MinLon: -6, MaxLat: 46, MaxLon: 36},     // the sea
	}
	for range 200 {
		lat, lon := -100+rng.Float64()*200, -190+rng.Float64()*380
		boxes = append(boxes, Rect{MinLat: lat, MinLon: lon, MaxLat: lat + rng.Float64()*20, MaxLon: lon + rng.Float64()*20})
	}
	for _, r := range boxes {
		if got, want := g.NumCellsInRect(r), len(g.CellsInRect(r, nil)); got != want {
			t.Fatalf("NumCellsInRect(%+v) = %d, CellsInRect lists %d", r, got, want)
		}
	}
}

func TestGridNeighbors(t *testing.T) {
	g := NewGrid(1.0)
	id := g.Cell(Point{45.5, 45.5})
	nbs := g.Neighbors(id, nil)
	if len(nbs) != 8 {
		t.Fatalf("interior cell should have 8 neighbours, got %d", len(nbs))
	}
	for _, nb := range nbs {
		if nb == id {
			t.Fatal("cell is its own neighbour")
		}
		c1 := g.CellCenter(id)
		c2 := g.CellCenter(nb)
		if math.Abs(c1.Lat-c2.Lat) > 1.5 || math.Abs(c1.Lon-c2.Lon) > 1.5 {
			t.Fatal("neighbour is not adjacent")
		}
	}
}

func TestGridResolutionsDistinct(t *testing.T) {
	g1, g2 := NewGrid(1.0), NewGrid(0.5)
	p := Point{10.25, 10.25}
	if g1.Cell(p) == g2.Cell(p) {
		t.Error("cells of different resolutions must have different IDs")
	}
}

func TestLocalPlaneRoundTrip(t *testing.T) {
	lp := NewLocalPlane(Point{43.5, 5.0})
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		p := Point{Lat: 43.5 + r.Float64()*2 - 1, Lon: 5.0 + r.Float64()*2 - 1}
		e, n := lp.Forward(p)
		q := lp.Inverse(e, n)
		if d := Distance(p, q); d > 0.5 {
			t.Fatalf("local plane round trip error %.3f m", d)
		}
	}
}

func TestLocalPlaneDistancePreserved(t *testing.T) {
	lp := NewLocalPlane(Point{40, -5})
	a := Point{40.1, -5.1}
	b := Point{39.9, -4.9}
	ea, na := lp.Forward(a)
	eb, nb := lp.Forward(b)
	planar := math.Hypot(ea-eb, na-nb)
	geodesic := Distance(a, b)
	if math.Abs(planar-geodesic)/geodesic > 0.01 {
		t.Errorf("local plane distorts distance: planar %.1f vs geodesic %.1f", planar, geodesic)
	}
}

func TestPointValid(t *testing.T) {
	valid := []Point{{0, 0}, {90, 180}, {-90, -180}}
	invalid := []Point{{91, 0}, {0, 181}, {math.NaN(), 0}, {0, math.NaN()}}
	for _, p := range valid {
		if !p.Valid() {
			t.Errorf("%v should be valid", p)
		}
	}
	for _, p := range invalid {
		if p.Valid() {
			t.Errorf("%v should be invalid", p)
		}
	}
}

func BenchmarkDistance(b *testing.B) {
	p1 := Point{43.1, 5.2}
	p2 := Point{43.4, 5.9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Distance(p1, p2)
	}
}

func BenchmarkDestination(b *testing.B) {
	p := Point{43.1, 5.2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Destination(p, 135, 1852)
	}
}

func BenchmarkGridCell(b *testing.B) {
	g := NewGrid(0.1)
	p := Point{43.1, 5.2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.Cell(p)
	}
}

func BenchmarkPolygonContains(b *testing.B) {
	pg := CirclePolygon(Point{43, 5}, 50000, 32)
	p := Point{43.1, 5.1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = pg.Contains(p)
	}
}

// DistanceToBoundary returns the minimum distance in metres from p to the
// polygon's boundary.
func (pg *Polygon) DistanceToBoundary(p Point) float64 {
	n := len(pg.Vertices)
	if n == 0 {
		return math.Inf(1)
	}
	if n == 1 {
		return Distance(p, pg.Vertices[0])
	}
	best := math.Inf(1)
	for i := 0; i < n; i++ {
		a := pg.Vertices[i]
		b := pg.Vertices[(i+1)%n]
		if d := PointSegmentDistance(p, a, b); d < best {
			best = d
		}
	}
	return best
}

// PointSegmentDistance returns the minimum distance in metres from p to the
// great-circle segment a→b (not the infinite great circle).
func PointSegmentDistance(p, a, b Point) float64 {
	if a == b {
		return Distance(p, a)
	}
	along := AlongTrackDistance(p, a, b)
	total := Distance(a, b)
	if along <= 0 {
		return Distance(p, a)
	}
	if along >= total {
		return Distance(p, b)
	}
	return math.Abs(CrossTrackDistance(p, a, b))
}

// AlongTrackDistance returns the distance in metres from a to the closest
// point on the path a→b to p, measured along the path.
func AlongTrackDistance(p, a, b Point) float64 {
	d13 := Distance(a, p) / EarthRadius
	dxt := CrossTrackDistance(p, a, b) / EarthRadius
	cosd13 := math.Cos(d13)
	cosdxt := math.Cos(dxt)
	if cosdxt == 0 {
		return 0
	}
	v := cosd13 / cosdxt
	if v > 1 {
		v = 1
	} else if v < -1 {
		v = -1
	}
	return math.Acos(v) * EarthRadius
}

// CrossTrackDistance returns the signed distance in metres of point p from
// the great-circle path through a and b. Positive means p lies to the right
// of the path (as seen travelling a→b).
func CrossTrackDistance(p, a, b Point) float64 {
	d13 := Distance(a, p) / EarthRadius
	th13 := Radians(Bearing(a, p))
	th12 := Radians(Bearing(a, b))
	dxt := math.Asin(math.Sin(d13) * math.Sin(th13-th12))
	return dxt * EarthRadius
}
