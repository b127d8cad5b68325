package semstore

import (
	"sort"

	"repro/internal/registry"
)

// LinkConfig tunes the link-discovery matcher.
type LinkConfig struct {
	// NameThreshold is the minimum name similarity to accept (0..1).
	NameThreshold float64
	// LengthToleranceM accepts length disagreement up to this many metres.
	LengthToleranceM float64
	// UseBlocking restricts candidate pairs to a cheap blocking key
	// (first letter of the normalised name); turning it off makes the
	// matcher exhaustive — the E12 ablation.
	UseBlocking bool
}

// DefaultLinkConfig returns the settings E12 uses as its baseline.
//
//lint:ignore deadexport TestDiscoverLinksOnSyntheticRegisters holds E12 on its baseline
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{NameThreshold: 0.75, LengthToleranceM: 10, UseBlocking: true}
}

// DiscoverLinks finds records in b that describe the same vessel as
// records in a, WITHOUT trusting the MMSI key (the realistic case: one
// register keys by IMO, names drift, MMSIs get reassigned). A candidate
// pair links when the name similarity passes the threshold and the lengths
// agree within tolerance. Returns links keyed by a's MMSI with b's MMSI
// resolved through the match, sorted by MMSI.
//
//lint:ignore deadexport TestDiscoverLinksOnSyntheticRegisters holds E12 on it
func DiscoverLinks(a, b *registry.Register, cfg LinkConfig) []LinkedPair {
	type entry struct {
		rec  *registry.Record
		name string
	}
	block := func(name string) byte {
		n := normaliseName(name)
		if n == "" {
			return 0
		}
		return n[0]
	}
	// Index b by blocking key.
	byBlock := make(map[byte][]entry)
	var all []entry
	for _, mmsi := range b.MMSIs() {
		rec := b.Get(mmsi)
		e := entry{rec: rec, name: rec.Name}
		all = append(all, e)
		byBlock[block(rec.Name)] = append(byBlock[block(rec.Name)], e)
	}
	var out []LinkedPair
	for _, mmsi := range a.MMSIs() {
		ra := a.Get(mmsi)
		candidates := all
		if cfg.UseBlocking {
			candidates = byBlock[block(ra.Name)]
		}
		bestScore := cfg.NameThreshold
		var best *registry.Record
		for _, e := range candidates {
			sim := NameSimilarity(ra.Name, e.name)
			if sim < bestScore {
				continue
			}
			if diff := ra.LengthM - e.rec.LengthM; diff > cfg.LengthToleranceM || diff < -cfg.LengthToleranceM {
				continue
			}
			//lint:ignore floateq deterministic tie-break on equal scores; exact equality is the intent
			if sim > bestScore || (best != nil && sim == bestScore && e.rec.MMSI < best.MMSI) {
				bestScore = sim
				best = e.rec
			}
		}
		if best != nil {
			out = append(out, LinkedPair{
				MMSIA: ra.MMSI, MMSIB: best.MMSI, Score: bestScore,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MMSIA < out[j].MMSIA })
	return out
}

// LinkedPair records one discovered correspondence between registers.
type LinkedPair struct {
	MMSIA uint32
	MMSIB uint32
	Score float64
}

// LinkQuality scores discovered links against the ground truth that a
// vessel links to itself (the synthetic registers share MMSIs).
type LinkQuality struct {
	Links     int
	Correct   int
	Precision float64
	Recall    float64
	F1        float64
}

// EvaluateLinks computes precision/recall/F1 treating MMSIA==MMSIB as the
// gold standard, with total the number of true linkable vessels.
//
//lint:ignore deadexport TestDiscoverLinksOnSyntheticRegisters scores E12 with it
func EvaluateLinks(links []LinkedPair, total int) LinkQuality {
	q := LinkQuality{Links: len(links)}
	for _, l := range links {
		if l.MMSIA == l.MMSIB {
			q.Correct++
		}
	}
	if q.Links > 0 {
		q.Precision = float64(q.Correct) / float64(q.Links)
	}
	if total > 0 {
		q.Recall = float64(q.Correct) / float64(total)
	}
	if q.Precision+q.Recall > 0 {
		q.F1 = 2 * q.Precision * q.Recall / (q.Precision + q.Recall)
	}
	return q
}
