package uncertainty

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

var frame = Frame{"cargo", "fishing", "smuggler"}

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDistBasics(t *testing.T) {
	d := UniformDist(frame)
	if !almostEq(d.P[0], 1.0/3) {
		t.Error("uniform wrong")
	}
	d2 := NewDist(frame, map[Hypothesis]float64{"cargo": 3, "fishing": 1})
	if !almostEq(d2.P[0], 0.75) || !almostEq(d2.P[1], 0.25) || d2.P[2] != 0 {
		t.Errorf("normalisation wrong: %v", d2.P)
	}
	h, p := d2.MAP()
	if h != "cargo" || !almostEq(p, 0.75) {
		t.Errorf("MAP wrong: %s %f", h, p)
	}
}

func TestMassNormalisation(t *testing.T) {
	m := NewMass(frame, map[Set]float64{
		SetOf(frame, "cargo"): 0.6,
	})
	full := Set(1)<<uint(len(frame)) - 1
	if !almostEq(m.M[full], 0.4) {
		t.Errorf("missing mass should go to ignorance: %v", m.M)
	}
	var sum float64
	for _, v := range m.M {
		sum += v
	}
	if !almostEq(sum, 1) {
		t.Errorf("mass must sum to 1: %f", sum)
	}
}

func TestBeliefPlausibilitySandwich(t *testing.T) {
	m := NewMass(frame, map[Set]float64{
		SetOf(frame, "cargo"):            0.5,
		SetOf(frame, "cargo", "fishing"): 0.3,
		// 0.2 to ignorance
	})
	a := SetOf(frame, "cargo")
	bel, pl := m.Belief(a), m.Plausibility(a)
	if !(bel <= pl) {
		t.Fatalf("Bel (%f) must not exceed Pl (%f)", bel, pl)
	}
	if !almostEq(bel, 0.5) {
		t.Errorf("Bel(cargo) = %f, want 0.5", bel)
	}
	if !almostEq(pl, 1.0) {
		t.Errorf("Pl(cargo) = %f, want 1.0 (all masses intersect)", pl)
	}
}

func TestDempsterAgreeingSources(t *testing.T) {
	m1 := NewMass(frame, map[Set]float64{SetOf(frame, "smuggler"): 0.7})
	m2 := NewMass(frame, map[Set]float64{SetOf(frame, "smuggler"): 0.6})
	c, err := m1.CombineDempster(m2)
	if err != nil {
		t.Fatal(err)
	}
	// Agreement must reinforce belief.
	if c.Belief(SetOf(frame, "smuggler")) <= 0.7 {
		t.Errorf("combined belief %f should exceed individual 0.7",
			c.Belief(SetOf(frame, "smuggler")))
	}
}

func TestZadehParadox(t *testing.T) {
	// Zadeh's example: two experts agree only on a hypothesis both think
	// near-impossible. Dempster's rule concludes it with certainty.
	// Frame: {A, B, C}.
	f := Frame{"A", "B", "C"}
	m1 := NewMass(f, map[Set]float64{
		SetOf(f, "A"): 0.99,
		SetOf(f, "B"): 0.01,
	})
	m2 := NewMass(f, map[Set]float64{
		SetOf(f, "C"): 0.99,
		SetOf(f, "B"): 0.01,
	})
	k := m1.Conflict(m2)
	if k < 0.99 {
		t.Fatalf("conflict should be ≈0.9999, got %f", k)
	}
	d, err := m1.CombineDempster(m2)
	if err != nil {
		t.Fatal(err)
	}
	// The paradox: B gets certainty under Dempster.
	if !almostEq(d.Belief(SetOf(f, "B")), 1) {
		t.Errorf("Dempster should assign B belief 1 (the paradox), got %f",
			d.Belief(SetOf(f, "B")))
	}
}

func TestTotalConflictFailsDempster(t *testing.T) {
	f := Frame{"A", "B"}
	m1 := NewMass(f, map[Set]float64{SetOf(f, "A"): 1})
	m2 := NewMass(f, map[Set]float64{SetOf(f, "B"): 1})
	if _, err := m1.CombineDempster(m2); err == nil {
		t.Error("total conflict must make Dempster fail")
	}
}

func TestDiscounting(t *testing.T) {
	m := NewMass(frame, map[Set]float64{SetOf(frame, "smuggler"): 0.9})
	d := m.Discount(0.5)
	full := Set(1)<<uint(len(frame)) - 1
	if !almostEq(d.M[SetOf(frame, "smuggler")], 0.45) {
		t.Errorf("discounted mass wrong: %v", d.M)
	}
	if d.M[full] < 0.5 {
		t.Errorf("ignorance should absorb discount: %v", d.M)
	}
	// r=0 reduces everything to ignorance.
	z := m.Discount(0)
	if !almostEq(z.M[full], 1) {
		t.Errorf("zero reliability should give vacuous mass: %v", z.M)
	}
	// Discounting keeps the mass normalised.
	var sum float64
	for _, v := range d.M {
		sum += v
	}
	if !almostEq(sum, 1) {
		t.Errorf("discounted mass sums to %f", sum)
	}
}

func TestDiscountedDempsterSurvivesZadeh(t *testing.T) {
	// The §4 prescription: with source-quality knowledge, discounting
	// before combining defuses the paradox.
	f := Frame{"A", "B", "C"}
	m1 := NewMass(f, map[Set]float64{SetOf(f, "A"): 0.99, SetOf(f, "B"): 0.01})
	m2 := NewMass(f, map[Set]float64{SetOf(f, "C"): 0.99, SetOf(f, "B"): 0.01})
	d1 := m1.Discount(0.7)
	d2 := m2.Discount(0.7)
	c, err := d1.CombineDempster(d2)
	if err != nil {
		t.Fatal(err)
	}
	// B must no longer be certain.
	if c.Belief(SetOf(f, "B")) > 0.5 {
		t.Errorf("discounting should defuse the paradox, Bel(B)=%f", c.Belief(SetOf(f, "B")))
	}
}

func TestPignistic(t *testing.T) {
	m := NewMass(frame, map[Set]float64{
		SetOf(frame, "cargo"):            0.4,
		SetOf(frame, "cargo", "fishing"): 0.4,
		// 0.2 ignorance over all 3
	})
	d := m.Pignistic()
	var sum float64
	for _, p := range d.P {
		sum += p
	}
	if !almostEq(sum, 1) {
		t.Fatalf("pignistic must be a distribution, sums to %f", sum)
	}
	// cargo: 0.4 + 0.2 + 0.0667 ≈ 0.667
	if math.Abs(d.P[0]-(0.4+0.2+0.2/3)) > 1e-9 {
		t.Errorf("BetP(cargo) = %f", d.P[0])
	}
	if h, _ := d.MAP(); h != "cargo" {
		t.Errorf("pignistic MAP = %s", h)
	}
}

func TestBetaSecondOrder(t *testing.T) {
	b := NewBeta()
	if !almostEq(b.Mean(), 0.5) {
		t.Error("prior mean should be 0.5")
	}
	// 90 successes, 10 failures: mean ≈ 0.89, tight.
	b2 := b.Observe(90, 10)
	if math.Abs(b2.Mean()-91.0/102) > 1e-9 {
		t.Errorf("posterior mean %f", b2.Mean())
	}
	if b2.Variance() >= b.Variance() {
		t.Error("evidence must shrink variance")
	}
	lb := b2.LowerBound(2)
	if lb >= b2.Mean() || lb <= 0 {
		t.Errorf("lower bound %f should sit below the mean", lb)
	}
	// Few observations: wide bound.
	b3 := NewBeta().Observe(2, 0)
	if b3.LowerBound(2) >= b2.LowerBound(2) {
		t.Error("scarce evidence should give a more cautious bound")
	}
}

func TestCombineDempsterPropertyMassSumsToOne(t *testing.T) {
	f := Frame{"A", "B", "C"}
	check := func(a1, a2, b1, b2 float64) bool {
		m1 := NewMass(f, map[Set]float64{
			SetOf(f, "A"): math.Abs(a1),
			SetOf(f, "B"): math.Abs(a2),
		})
		m2 := NewMass(f, map[Set]float64{
			SetOf(f, "B"): math.Abs(b1),
			SetOf(f, "C"): math.Abs(b2),
		})
		c, err := m1.CombineDempster(m2)
		if err != nil {
			return true // total conflict is a legal outcome
		}
		var sum float64
		for _, v := range c.M {
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(func(a1, a2, b1, b2 float64) bool {
		// Bound the values to avoid NaN extremes from quick's generator.
		n := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0.3
			}
			return math.Mod(math.Abs(x), 1)
		}
		return check(n(a1), n(a2), n(b1), n(b2))
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestSetOps(t *testing.T) {
	s := SetOf(frame, "cargo", "smuggler")
	if s.Card() != 2 {
		t.Errorf("card %d", s.Card())
	}
	if !s.Contains(0) || s.Contains(1) || !s.Contains(2) {
		t.Error("contains wrong")
	}
	if s.Format(frame) != "{cargo,smuggler}" {
		t.Errorf("format: %s", s.Format(frame))
	}
	if Set(0).Format(frame) != "∅" {
		t.Error("empty set format")
	}
	if got := SetOf(frame, "nonexistent"); got != 0 {
		t.Error("unknown hypothesis should map to empty set")
	}
}

func BenchmarkCombineDempster(b *testing.B) {
	m1 := NewMass(frame, map[Set]float64{
		SetOf(frame, "cargo"):            0.5,
		SetOf(frame, "cargo", "fishing"): 0.3,
	})
	m2 := NewMass(frame, map[Set]float64{
		SetOf(frame, "fishing"):  0.4,
		SetOf(frame, "smuggler"): 0.2,
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m1.CombineDempster(m2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPignistic(b *testing.B) {
	m := NewMass(frame, map[Set]float64{
		SetOf(frame, "cargo"):            0.4,
		SetOf(frame, "cargo", "fishing"): 0.4,
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Pignistic()
	}
}

// UniformDist returns the maximum-entropy distribution.
func UniformDist(f Frame) Dist {
	p := make([]float64, len(f))
	for i := range p {
		p[i] = 1 / float64(len(f))
	}
	return Dist{Frame: f, P: p}
}

// NewDist builds a distribution from hypothesis→probability pairs,
// normalising; missing hypotheses get zero.
func NewDist(f Frame, probs map[Hypothesis]float64) Dist {
	d := Dist{Frame: f, P: make([]float64, len(f))}
	var sum float64
	for i, h := range f {
		d.P[i] = probs[h]
		sum += d.P[i]
	}
	if sum > 0 {
		for i := range d.P {
			d.P[i] /= sum
		}
	}
	return d
}

// Format renders the set against a frame for debugging.
func (s Set) Format(f Frame) string {
	var parts []string
	for i, h := range f {
		if s.Contains(i) {
			parts = append(parts, string(h))
		}
	}
	if len(parts) == 0 {
		return "∅"
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Belief returns Bel(A): the total mass of subsets included in A.
func (m Mass) Belief(a Set) float64 {
	var b float64
	for s, v := range m.M {
		if s&^a == 0 { // s ⊆ a
			b += v
		}
	}
	return b
}

// Plausibility returns Pl(A): the total mass of subsets intersecting A.
func (m Mass) Plausibility(a Set) float64 {
	var p float64
	for s, v := range m.M {
		if s&a != 0 {
			p += v
		}
	}
	return p
}

// Conflict returns the mass assigned to the empty set when combining m and
// o by unnormalised conjunction: the K of Dempster's rule.
func (m Mass) Conflict(o Mass) float64 {
	var k float64
	for s1, v1 := range m.M {
		for s2, v2 := range o.M {
			if s1&s2 == 0 {
				k += v1 * v2
			}
		}
	}
	return k
}
