// Package stream holds the small typed plumbing the ingest engine is built
// from: a timestamped, keyed Event, per-stage Metrics counters, key-hash
// partitioning (Partition, and ShardOf for callers that route a batch
// themselves) and Merge, which fans several channels back into one.
// Channels carry the data, and backpressure is the natural blocking of
// full channels.
package stream

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Event is the unit flowing through a pipeline: a timestamped, keyed value.
type Event[T any] struct {
	Time  time.Time
	Key   uint64 // partition key (MMSI, cell id…); 0 if unkeyed
	Value T
}

// Metrics counts events through a pipeline stage.
type Metrics struct {
	In      atomic.Int64
	Out     atomic.Int64
	Dropped atomic.Int64 // events the stage discarded
}

// Snapshot returns a plain-struct copy of the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{In: m.In.Load(), Out: m.Out.Load(), Dropped: m.Dropped.Load()}
}

// MetricsSnapshot is a point-in-time copy of Metrics.
type MetricsSnapshot struct {
	In, Out, Dropped int64
}

// Partition splits a stream into n substreams by key hash; events with the
// same key always land in the same partition, preserving per-key order.
// n <= 0 is clamped to a single partition rather than panicking on the
// modulo.
func Partition[T any](ctx context.Context, in <-chan Event[T], n, buf int) []<-chan Event[T] {
	if n < 1 {
		n = 1
	}
	outs := make([]chan Event[T], n)
	ros := make([]<-chan Event[T], n)
	for i := range outs {
		outs[i] = make(chan Event[T], buf)
		ros[i] = outs[i]
	}
	go func() {
		defer func() {
			for _, o := range outs {
				close(o)
			}
		}()
		for e := range in {
			idx := int(mix64(e.Key) % uint64(n))
			select {
			case outs[idx] <- e:
			case <-ctx.Done():
				return
			}
		}
	}()
	return ros
}

// Merge combines several streams into one. Output order across inputs is
// arbitrary; per-input order is preserved.
func Merge[T any](ctx context.Context, ins []<-chan Event[T], buf int) <-chan Event[T] {
	out := make(chan Event[T], buf)
	var wg sync.WaitGroup
	wg.Add(len(ins))
	for _, in := range ins {
		go func(in <-chan Event[T]) {
			defer wg.Done()
			for e := range in {
				select {
				case out <- e:
				case <-ctx.Done():
					return
				}
			}
		}(in)
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// ShardOf returns the partition index Partition assigns to key among n
// shards (n <= 0 treated as 1). Exported so out-of-band routing — e.g. a
// caller pre-grouping a batch per shard — lands on the same partition the
// Partition would pick.
func ShardOf(key uint64, n int) int {
	if n < 1 {
		n = 1
	}
	return int(mix64(key) % uint64(n))
}

// mix64 is a SplitMix64 finaliser: a cheap, well-distributed hash for
// partitioning keys.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
