// Package obs is the unified observability substrate: a dependency-free
// metrics registry (atomic counters, gauges and lock-free bounded-bucket
// latency histograms) plus a lightweight per-request trace carried via
// context.Context (see trace.go).
//
// Hot paths hold *Counter/*Gauge/*Histogram pointers obtained once at
// wiring time and update them with single atomic ops; the registry
// mutex is only taken at registration and scrape time. Func-backed
// metrics (CounterFunc, GaugeFunc) are evaluated at scrape, which lets
// subsystems that already keep atomic counters (stream.Metrics, tier
// stats) surface through the registry without double accounting: the
// registry is a window onto them, not a copy. Re-registering a func
// metric replaces the callback (latest wins), so a restarted engine in
// a test re-points the window instead of leaking a stale closure.
package obs

import (
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use, but counters are normally obtained from a Registry so they
// appear on /metrics.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Counters are monotonic by contract; callers pass n >= 0.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindCounterFunc
	kindGaugeFunc
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "summary"
	}
	return "untyped"
}

// metric is one registered series: a family name plus a fixed label set.
type metric struct {
	id    string // fully rendered: name{k="v",...}
	name  string // family name
	kind  kind
	ctr   *Counter
	gauge *Gauge
	fn    func() float64
	hist  *Histogram
}

// Registry holds named metrics and renders them for scraping. All
// methods are safe for concurrent use.
type Registry struct {
	mu   sync.Mutex
	byID map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]*metric)}
}

// get returns the metric for (name, labels), creating it with kind k if
// absent. Registering the same series under a different kind is a
// programming error and panics.
func (r *Registry) get(name string, k kind, labels []string) *metric {
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byID[id]; ok {
		if m.kind != k {
			panic("obs: " + id + " re-registered as a different kind")
		}
		return m
	}
	m := &metric{id: id, name: name, kind: k}
	switch k {
	case kindCounter:
		m.ctr = &Counter{}
	case kindGauge:
		m.gauge = &Gauge{}
	case kindHistogram:
		m.hist = NewHistogram()
	}
	r.byID[id] = m
	return m
}

// Counter returns the counter for (name, labels), creating it if absent.
// Labels are alternating key/value pairs baked into the series identity.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return r.get(name, kindCounter, labels).ctr
}

// Gauge returns the gauge for (name, labels), creating it if absent.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return r.get(name, kindGauge, labels).gauge
}

// Histogram returns the histogram for (name, labels), creating it if
// absent.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	return r.get(name, kindHistogram, labels).hist
}

// CounterFunc registers fn as a counter-typed series evaluated at scrape
// time. Re-registering replaces the callback.
func (r *Registry) CounterFunc(name string, fn func() float64, labels ...string) {
	m := r.get(name, kindCounterFunc, labels)
	r.mu.Lock()
	m.fn = fn
	r.mu.Unlock()
}

// GaugeFunc registers fn as a gauge-typed series evaluated at scrape
// time. Re-registering replaces the callback.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	m := r.get(name, kindGaugeFunc, labels)
	r.mu.Lock()
	m.fn = fn
	r.mu.Unlock()
}

// Value returns the current value of a scalar series (counter, gauge or
// func metric). The second result is false if the series does not exist
// or is a histogram.
func (r *Registry) Value(name string, labels ...string) (float64, bool) {
	id := metricID(name, labels)
	r.mu.Lock()
	m, ok := r.byID[id]
	var fn func() float64
	var v float64
	if ok {
		switch m.kind {
		case kindCounter:
			v = float64(m.ctr.Value())
		case kindGauge:
			v = float64(m.gauge.Value())
		case kindCounterFunc, kindGaugeFunc:
			fn = m.fn
		default:
			ok = false
		}
	}
	r.mu.Unlock()
	if fn != nil {
		return fn(), ok
	}
	return v, ok
}

// Quantile returns the p-quantile of a histogram series in its native
// unit, or false if the series does not exist or is not a histogram.
func (r *Registry) Quantile(name string, p float64, labels ...string) (int64, bool) {
	id := metricID(name, labels)
	r.mu.Lock()
	m, ok := r.byID[id]
	var h *Histogram
	if ok && m.kind == kindHistogram {
		h = m.hist
	}
	r.mu.Unlock()
	if h == nil {
		return 0, false
	}
	return h.Quantile(p), true
}

// metricID renders the canonical series identity: the family name plus
// the label set in registration order, in Prometheus exposition syntax.
func metricID(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	if len(labels)%2 != 0 {
		panic("obs: labels must be key/value pairs: " + name)
	}
	var b strings.Builder
	b.Grow(len(name) + 16*len(labels))
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}
