package uncertainty

import (
	"math/rand"
	"testing"
)

// TestDiscountedDempsterClaim holds EXPERIMENTS.md's E10 claim (§4 [13][45]):
// discounting each source by its known reliability before combining keeps
// fusion right as the sources conflict, where naive Dempster degrades.
// Source 1 reports the truth; source 2 reports a wrong class with
// probability = conflict. Each puts 0.8 on its class; source 1 is
// discounted to 0.9, the less reliable source 2 to 0.5. Seed 42, 300 trials
// per level, measured: discounted 100 % at 0/30/60/90 % conflict, naive
// 100/82/72/54 %. Tolerance: discounted ≥ naive at every level, and
// strictly better from 30 % up — so a Discount that treats both sources
// alike, which ties them as naive Dempster does, fails.
func TestDiscountedDempsterClaim(t *testing.T) {
	f := Frame{"cargo", "fishing", "smuggler"}
	rng := rand.New(rand.NewSource(42))
	const trials = 300
	// decide is the combined mass's pignistic MAP ("" when Dempster fails
	// on total conflict).
	decide := func(c Mass, err error) Hypothesis {
		if err != nil {
			return ""
		}
		h, _ := c.Pignistic().MAP()
		return h
	}
	for _, conflict := range []float64{0, 0.3, 0.6, 0.9} {
		var naive, disc float64
		for trial := 0; trial < trials; trial++ {
			truth := f[rng.Intn(len(f))]
			obs2 := truth
			if rng.Float64() < conflict {
				obs2 = f[(f.Index(truth)+1+rng.Intn(2))%3]
			}
			m1 := NewMass(f, map[Set]float64{SetOf(f, truth): 0.8})
			m2 := NewMass(f, map[Set]float64{SetOf(f, obs2): 0.8})
			if decide(m1.CombineDempster(m2)) == truth {
				naive++
			}
			if decide(m1.Discount(0.9).CombineDempster(m2.Discount(0.5))) == truth {
				disc++
			}
		}
		naive /= trials
		disc /= trials
		t.Logf("conflict %.0f%%: naive %.0f%%, discounted %.0f%%", 100*conflict, 100*naive, 100*disc)
		if disc < naive {
			t.Errorf("conflict %.0f%%: discounted Dempster %.2f below naive %.2f", 100*conflict, disc, naive)
		}
		if conflict >= 0.3 && disc <= naive {
			t.Errorf("conflict %.0f%%: discounted Dempster %.2f not better than naive %.2f", 100*conflict, disc, naive)
		}
	}
}
