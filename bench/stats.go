package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// quantile is the nearest-rank q-quantile of vals (sorted in place).
// An empty sample has no quantile: callers check n first.
func quantile(vals []float64, q float64) float64 {
	sort.Float64s(vals)
	i := int(math.Ceil(q*float64(len(vals)))) - 1
	if i < 0 {
		i = 0
	}
	return vals[i]
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func mean(vals []float64) float64 {
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

func maxOf(vals []float64) float64 {
	m := vals[0]
	for _, v := range vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// metric is one named measurement with its unit and sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// span is one traced interval. Spans are recorded by the bench around its
// calls into each layer (and around the daemon's answers), never inside
// the program under test.
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Count   int    `json:"count"` // units of work inside the span
}

// tracer keeps spans in memory until the run ends. The nil tracer records
// nothing, which is how end-to-end runs execute.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// start opens a span under parent (0 for a root) and returns its id.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, StartNS: now})
	return len(t.spans)
}

// end closes span id, recording how many units of work it covered.
func (t *tracer) end(id, count int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = now
	t.spans[id-1].Count = count
}

// add records a span whose interval was measured elsewhere (the daemon's
// own stage spans, re-based under the client span that caused them).
func (t *tracer) add(name string, parent int, startNS, endNS int64, count int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, StartNS: startNS, EndNS: endNS, Count: count})
}

// selfNS sums, over every span called name, its duration minus the part
// its direct children cover.
func (t *tracer) selfNS(name string) (ns int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.EndNS - s.StartNS - child[s.ID]
		}
	}
	return ns
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write dumps every span as JSON under dir.
func (t *tracer) write(dir string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), data, 0o644)
}
