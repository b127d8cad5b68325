// Package uncertainty implements the uncertainty calculi the paper's §4
// asks a maritime decision-support system to support — discrete
// probability and Dempster–Shafer evidence theory — plus reliability
// discounting and a second-order (Beta) model of source quality.
// Experiment E10 compares naive and discounted Dempster combination under
// increasing inter-source conflict, where naive combination goes
// pathological.
package uncertainty

import (
	"fmt"
	"math"
)

// Hypothesis is an element of the frame of discernment (e.g. a vessel
// class: "cargo", "fishing", "smuggler").
type Hypothesis string

// Frame is an ordered set of mutually exclusive hypotheses.
type Frame []Hypothesis

// Index returns the position of h in the frame, or -1.
func (f Frame) Index(h Hypothesis) int {
	for i, x := range f {
		if x == h {
			return i
		}
	}
	return -1
}

// --- Bayesian probability -----------------------------------------------------

// Dist is a discrete probability distribution over a frame.
type Dist struct {
	Frame Frame
	P     []float64
}

// MAP returns the maximum a-posteriori hypothesis and its probability.
//
//lint:ignore deadexport TestDiscountedDempsterClaim holds E10 on it
func (d Dist) MAP() (Hypothesis, float64) {
	best, bestP := -1, -1.0
	for i, p := range d.P {
		if p > bestP {
			best, bestP = i, p
		}
	}
	if best < 0 {
		return "", 0
	}
	return d.Frame[best], bestP
}

// --- Dempster–Shafer evidence theory -------------------------------------------

// Set is a subset of the frame encoded as a bitmask (bit i = hypothesis i
// of the frame). The empty set is 0; the full frame is (1<<n)-1.
type Set uint64

// SetOf builds a Set from hypotheses.
//
//lint:ignore deadexport TestDiscountedDempsterClaim holds E10 on it
func SetOf(f Frame, hs ...Hypothesis) Set {
	var s Set
	for _, h := range hs {
		if i := f.Index(h); i >= 0 {
			s |= 1 << uint(i)
		}
	}
	return s
}

// Contains reports whether the set contains hypothesis index i.
func (s Set) Contains(i int) bool { return s&(1<<uint(i)) != 0 }

// Card returns the cardinality of the set.
func (s Set) Card() int {
	n := 0
	for x := s; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// Mass is a Dempster–Shafer basic belief assignment: masses on subsets of
// the frame summing to 1 (the empty set carries no mass).
type Mass struct {
	Frame Frame
	M     map[Set]float64
}

// NewMass builds a normalised mass function from subset→mass pairs. Any
// missing mass is assigned to the full frame (ignorance).
//
//lint:ignore deadexport TestDiscountedDempsterClaim holds E10 on it
func NewMass(f Frame, m map[Set]float64) Mass {
	out := Mass{Frame: f, M: make(map[Set]float64, len(m)+1)}
	var sum float64
	for s, v := range m {
		if s == 0 || v <= 0 {
			continue
		}
		out.M[s] += v
		sum += v
	}
	full := Set(1)<<uint(len(f)) - 1
	switch {
	case sum < 1:
		out.M[full] += 1 - sum
	case sum > 1:
		for s := range out.M {
			out.M[s] /= sum
		}
	}
	return out
}

// CombineDempster applies Dempster's rule of combination (conjunctive,
// conflict renormalised away). It fails when the sources fully contradict
// (K = 1).
//
//lint:ignore deadexport TestDiscountedDempsterClaim holds E10 on it
func (m Mass) CombineDempster(o Mass) (Mass, error) {
	out := Mass{Frame: m.Frame, M: make(map[Set]float64)}
	var k float64
	for s1, v1 := range m.M {
		for s2, v2 := range o.M {
			inter := s1 & s2
			if inter == 0 {
				k += v1 * v2
				continue
			}
			out.M[inter] += v1 * v2
		}
	}
	if k >= 1-1e-12 {
		return Mass{}, fmt.Errorf("uncertainty: total conflict (K=%.6f), Dempster undefined", k)
	}
	norm := 1 - k
	for s := range out.M {
		out.M[s] /= norm
	}
	return out, nil
}

// Discount applies Shafer's reliability discounting: masses are scaled by
// the source reliability r∈[0,1] and the removed mass moves to the full
// frame. r=1 trusts the source fully; r=0 reduces it to ignorance.
//
//lint:ignore deadexport TestDiscountedDempsterClaim holds E10 on it
func (m Mass) Discount(r float64) Mass {
	if r < 0 {
		r = 0
	}
	if r > 1 {
		r = 1
	}
	out := Mass{Frame: m.Frame, M: make(map[Set]float64, len(m.M)+1)}
	full := Set(1)<<uint(len(m.Frame)) - 1
	for s, v := range m.M {
		if s == full {
			out.M[s] += v*r + (1 - r)
		} else {
			out.M[s] += v * r
		}
	}
	if _, ok := out.M[full]; !ok {
		out.M[full] = 1 - r
	}
	return out
}

// Pignistic returns the pignistic probability transform BetP: each mass is
// spread uniformly over the singletons of its subset — the standard bridge
// from belief functions to a decision-ready distribution.
//
//lint:ignore deadexport TestDiscountedDempsterClaim holds E10 on it
func (m Mass) Pignistic() Dist {
	d := Dist{Frame: m.Frame, P: make([]float64, len(m.Frame))}
	for s, v := range m.M {
		c := s.Card()
		if c == 0 {
			continue
		}
		share := v / float64(c)
		for i := range m.Frame {
			if s.Contains(i) {
				d.P[i] += share
			}
		}
	}
	return d
}

// --- second-order uncertainty ------------------------------------------------------

// Beta is a Beta(α, β) distribution: the conjugate second-order model of
// a source's reliability (the paper's "second-order uncertainty seems also
// unavoidable"). Observe successes/failures; Mean is the point reliability
// and Variance quantifies how well we know it.
type Beta struct {
	Alpha, Beta float64
}

// NewBeta returns the uninformative prior Beta(1,1).
func NewBeta() Beta { return Beta{Alpha: 1, Beta: 1} }

// Observe updates the distribution with successes s and failures f.
func (b Beta) Observe(s, f float64) Beta {
	return Beta{Alpha: b.Alpha + s, Beta: b.Beta + f}
}

// Mean returns E[p].
func (b Beta) Mean() float64 { return b.Alpha / (b.Alpha + b.Beta) }

// Variance returns Var[p].
func (b Beta) Variance() float64 {
	s := b.Alpha + b.Beta
	return b.Alpha * b.Beta / (s * s * (s + 1))
}

// LowerBound returns a conservative reliability estimate: mean minus k
// standard deviations, clamped to [0,1]. Decision layers discount by this
// rather than the mean when acting cautiously.
func (b Beta) LowerBound(k float64) float64 {
	v := b.Mean() - k*math.Sqrt(b.Variance())
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
