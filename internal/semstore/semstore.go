// Package semstore is the semantic integration layer of §2.2 and §2.5: an
// in-memory triple store with SPO/POS/OSP indexes and typed literals
// (including space-time points), a small maritime vocabulary, link
// discovery between dirty identity sources, and semantic trajectory
// annotation (stop/move episodes enriched with zone and weather context).
// It plays the role RDF stores with spatio-temporal extensions (Strabon
// et al.) play in the paper's survey, scoped to what the pipeline needs.
package semstore

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/geo"
)

// TermKind discriminates the kinds of RDF-ish terms.
type TermKind int

// Term kinds.
const (
	KindIRI TermKind = iota
	KindString
	KindFloat
	KindTime
	KindPoint
)

// Term is a subject, predicate or object. Predicates and subjects are
// IRIs; objects may be IRIs or typed literals.
type Term struct {
	Kind  TermKind
	IRI   string
	Str   string
	Num   float64
	Time  time.Time
	Point geo.Point
}

// IRI returns an IRI term.
func IRI(iri string) Term { return Term{Kind: KindIRI, IRI: iri} }

// Str returns a string literal term.
func Str(s string) Term { return Term{Kind: KindString, Str: s} }

// Num returns a numeric literal term.
func Num(v float64) Term { return Term{Kind: KindFloat, Num: v} }

// Tim returns a time literal term.
func Tim(t time.Time) Term { return Term{Kind: KindTime, Time: t} }

// Pt returns a geographic point literal term.
func Pt(p geo.Point) Term { return Term{Kind: KindPoint, Point: p} }

// Key returns a canonical string encoding used by the indexes.
func (t Term) Key() string {
	switch t.Kind {
	case KindIRI:
		return "i:" + t.IRI
	case KindString:
		return "s:" + t.Str
	case KindFloat:
		return fmt.Sprintf("f:%g", t.Num)
	case KindTime:
		return "t:" + t.Time.UTC().Format(time.RFC3339Nano)
	case KindPoint:
		return fmt.Sprintf("p:%.6f,%.6f", t.Point.Lat, t.Point.Lon)
	default:
		return "?"
	}
}

// String renders the term for humans.
func (t Term) String() string {
	switch t.Kind {
	case KindIRI:
		return "<" + t.IRI + ">"
	case KindString:
		return fmt.Sprintf("%q", t.Str)
	case KindFloat:
		return fmt.Sprintf("%g", t.Num)
	case KindTime:
		return t.Time.UTC().Format(time.RFC3339)
	case KindPoint:
		return t.Point.String()
	default:
		return "?"
	}
}

// Triple is one (subject, predicate, object) statement.
type Triple struct {
	S, P, O Term
}

// Maritime vocabulary: the predicates and classes the pipeline emits.
const (
	ClassEpisode = "mar:Episode"

	PredType       = "rdf:type"
	PredHasEpisode = "mar:hasEpisode"
	PredEpisodeOf  = "mar:episodeOf"
	PredActivity   = "mar:activity"
	PredStartTime  = "mar:startTime"
	PredEndTime    = "mar:endTime"
	PredInZone     = "mar:inZone"
	PredAtPoint    = "mar:atPoint"
	PredAvgSpeedKn = "mar:avgSpeedKn"
)

// VesselIRI builds the canonical IRI for a vessel.
func VesselIRI(mmsi uint32) string { return fmt.Sprintf("mar:vessel/%d", mmsi) }

// Store is the indexed triple store. It is safe for concurrent use.
type Store struct {
	mu  sync.RWMutex
	spo map[string][]Triple // subject key -> triples
	pos map[string][]Triple // predicate key -> triples
	osp map[string][]Triple // object key -> triples
	n   int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		spo: make(map[string][]Triple),
		pos: make(map[string][]Triple),
		osp: make(map[string][]Triple),
	}
}

// Add inserts a triple (duplicates are stored once).
func (st *Store) Add(tr Triple) {
	st.mu.Lock()
	defer st.mu.Unlock()
	sk := tr.S.Key()
	for _, ex := range st.spo[sk] {
		//lint:ignore floateq duplicate detection over stored triples: values are stored verbatim, bitwise identity is the intent
		if ex == tr {
			return
		}
	}
	st.spo[sk] = append(st.spo[sk], tr)
	st.pos[tr.P.Key()] = append(st.pos[tr.P.Key()], tr)
	st.osp[tr.O.Key()] = append(st.osp[tr.O.Key()], tr)
	st.n++
}

// Len returns the number of stored triples.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.n
}

// Pattern is a triple query: nil components are wildcards.
type Pattern struct {
	S, P, O *Term
}

// S_ helps build patterns: returns a pointer to the term.
func T(t Term) *Term { return &t }

// Match returns all triples matching the pattern, using the most selective
// available index. Results are sorted deterministically.
func (st *Store) Match(p Pattern) []Triple {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var candidates []Triple
	switch {
	case p.S != nil:
		candidates = st.spo[p.S.Key()]
	case p.O != nil:
		candidates = st.osp[p.O.Key()]
	case p.P != nil:
		candidates = st.pos[p.P.Key()]
	default:
		for _, trs := range st.spo {
			candidates = append(candidates, trs...)
		}
	}
	var out []Triple
	for _, tr := range candidates {
		if p.S != nil && tr.S.Key() != p.S.Key() {
			continue
		}
		if p.P != nil && tr.P.Key() != p.P.Key() {
			continue
		}
		if p.O != nil && tr.O.Key() != p.O.Key() {
			continue
		}
		out = append(out, tr)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.S.Key() != b.S.Key() {
			return a.S.Key() < b.S.Key()
		}
		if a.P.Key() != b.P.Key() {
			return a.P.Key() < b.P.Key()
		}
		return a.O.Key() < b.O.Key()
	})
	return out
}

// --- string similarity (link discovery substrate) ------------------------------

// Levenshtein returns the edit distance between two strings (bytes).
func Levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	la, lb := len(a), len(b)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j] + 1 // deletion
			if v := cur[j-1] + 1; v < m {
				m = v // insertion
			}
			if v := prev[j-1] + cost; v < m {
				m = v // substitution
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[lb]
}

// NameSimilarity returns a [0,1] similarity between vessel names:
// normalised Levenshtein over upper-cased, squeezed strings.
func NameSimilarity(a, b string) float64 {
	na := normaliseName(a)
	nb := normaliseName(b)
	if na == "" && nb == "" {
		return 1
	}
	maxLen := len(na)
	if len(nb) > maxLen {
		maxLen = len(nb)
	}
	if maxLen == 0 {
		return 1
	}
	return 1 - float64(Levenshtein(na, nb))/float64(maxLen)
}

func normaliseName(s string) string {
	s = strings.ToUpper(strings.TrimSpace(s))
	var sb strings.Builder
	lastSpace := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' {
			if !lastSpace {
				sb.WriteByte(c)
			}
			lastSpace = true
			continue
		}
		lastSpace = false
		if (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
			sb.WriteByte(c)
		}
	}
	return sb.String()
}
