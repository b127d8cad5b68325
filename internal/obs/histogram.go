package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: HDR-style log-linear. Values 0..15 get an
// exact bucket each; above that, every power of two is split into
// histSub linear sub-buckets, so the relative width of any bucket is
// 1/histSub and the midpoint estimate is within ~1/(2*histSub) ≈ 3.1%
// of any value that fell in it. 36 octaves above 16 cover up to
// 2^40 ≈ 1.1e12, which for nanosecond latencies is ~18 minutes; larger
// values clamp into the last bucket (the tracked max keeps the true
// tail honest).
const (
	histSubBits = 4
	histSub     = 1 << histSubBits
	histOctaves = 36
	histBuckets = histSub + histOctaves*histSub
)

// Histogram is a lock-free bounded-bucket histogram of int64 samples
// (by convention nanoseconds for series named *_ns). Observe is a
// handful of atomic adds; Quantile and Snapshot walk the buckets
// without locking, so under concurrent writes they are weakly
// consistent — good enough for scraping, never torn.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// NewHistogram returns an empty histogram. Histograms are normally
// obtained from a Registry so they appear on /metrics.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one sample. Negative samples clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// ObserveSince records the elapsed time since t0 in nanoseconds.
func (h *Histogram) ObserveSince(t0 time.Time) {
	h.Observe(int64(time.Since(t0)))
}

// Quantile returns the p-quantile (0 < p <= 1) by nearest rank: the
// value at ceil(p*n) in sorted order, estimated as the midpoint of the
// bucket holding that rank and clamped to the observed max. Returns 0
// for an empty histogram.
func (h *Histogram) Quantile(p float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	mx := h.max.Load()
	if rank >= n {
		// The n-th order statistic is the max, which is tracked
		// exactly — no bucket estimate needed.
		return mx
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			v := bucketMid(i)
			if v > mx {
				v = mx
			}
			return v
		}
	}
	// Concurrent writers can leave count ahead of the bucket walk;
	// the tail of the distribution is the honest answer then.
	return mx
}

// HistSnapshot is a point-in-time summary of a histogram.
type HistSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Max   int64 `json:"max"`
	P50   int64 `json:"p50"`
	P90   int64 `json:"p90"`
	P99   int64 `json:"p99"`
}

// Snapshot returns count, sum, max and the p50/p90/p99 quantiles.
func (h *Histogram) Snapshot() HistSnapshot {
	return HistSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
}

// bucketIndex maps a non-negative sample to its bucket. For v < histSub
// the mapping is the identity; above that the index is
// histSub*e + (v>>e) where e is the octave, which lines the buckets up
// contiguously (v=15 -> 15, v=16 -> 16, v=32 -> 32, v=64 -> 48...).
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < histSub {
		return int(u)
	}
	e := bits.Len64(u) - histSubBits - 1
	idx := histSub*e + int(u>>uint(e))
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// bucketMid returns the midpoint of bucket idx, the value Quantile
// reports for samples that landed there.
func bucketMid(idx int) int64 {
	if idx < histSub {
		return int64(idx)
	}
	e := idx/histSub - 1
	m := int64(idx - histSub*e)
	lo := m << uint(e)
	return lo + (int64(1)<<uint(e))/2
}
