package stream

import (
	"context"
	"sync"
	"testing"
	"time"
)

func ts(sec int) time.Time {
	return time.Date(2017, 3, 21, 0, 0, 0, 0, time.UTC).Add(time.Duration(sec) * time.Second)
}

func intEvents(times ...int) []Event[int] {
	out := make([]Event[int], len(times))
	for i, t := range times {
		out[i] = Event[int]{Time: ts(t), Key: uint64(t % 3), Value: t}
	}
	return out
}

// chanOf returns a closed, buffered channel holding events in order.
func chanOf[T any](events []Event[T]) <-chan Event[T] {
	ch := make(chan Event[T], len(events))
	for _, e := range events {
		ch <- e
	}
	close(ch)
	return ch
}

// drain reads a channel to its close.
func drain[T any](in <-chan Event[T]) []Event[T] {
	var out []Event[T]
	for e := range in {
		out = append(out, e)
	}
	return out
}

func TestPartitionKeyConsistency(t *testing.T) {
	ctx := context.Background()
	events := make([]Event[int], 200)
	for i := range events {
		events[i] = Event[int]{Time: ts(i), Key: uint64(i % 7), Value: i}
	}
	parts := Partition(ctx, chanOf(events), 4, 16)

	var mu sync.Mutex
	keyToPart := map[uint64]int{}
	var wg sync.WaitGroup
	for pi, p := range parts {
		wg.Add(1)
		go func(pi int, p <-chan Event[int]) {
			defer wg.Done()
			for e := range p {
				mu.Lock()
				if prev, ok := keyToPart[e.Key]; ok && prev != pi {
					t.Errorf("key %d seen in partitions %d and %d", e.Key, prev, pi)
				}
				if want := ShardOf(e.Key, 4); pi != want {
					t.Errorf("key %d in partition %d, ShardOf says %d", e.Key, pi, want)
				}
				keyToPart[e.Key] = pi
				mu.Unlock()
			}
		}(pi, p)
	}
	wg.Wait()
	if len(keyToPart) != 7 {
		t.Errorf("expected 7 distinct keys, got %d", len(keyToPart))
	}
}

func TestPartitionPreservesPerKeyOrder(t *testing.T) {
	ctx := context.Background()
	events := make([]Event[int], 300)
	for i := range events {
		events[i] = Event[int]{Time: ts(i), Key: uint64(i % 5), Value: i}
	}
	parts := Partition(ctx, chanOf(events), 3, 8)
	var wg sync.WaitGroup
	for _, p := range parts {
		wg.Add(1)
		go func(p <-chan Event[int]) {
			defer wg.Done()
			last := map[uint64]int{}
			for e := range p {
				if prev, ok := last[e.Key]; ok && e.Value <= prev {
					t.Errorf("per-key order broken: %d after %d", e.Value, prev)
				}
				last[e.Key] = e.Value
			}
		}(p)
	}
	wg.Wait()
}

// Regression: Partition with n <= 0 used to panic with a divide-by-zero on
// the key-hash modulo; it must clamp to a single partition instead.
func TestPartitionClampsNonPositive(t *testing.T) {
	for _, n := range []int{0, -3} {
		ctx := context.Background()
		parts := Partition(ctx, chanOf(intEvents(1, 2, 3)), n, 4)
		if len(parts) != 1 {
			t.Fatalf("Partition(n=%d): got %d partitions, want 1", n, len(parts))
		}
		if got := drain(parts[0]); len(got) != 3 {
			t.Errorf("Partition(n=%d): lost events, got %d want 3", n, len(got))
		}
	}
}

func TestMergeDeliversAll(t *testing.T) {
	ctx := context.Background()
	a := chanOf(intEvents(1, 2, 3))
	b := chanOf(intEvents(4, 5))
	got := drain(Merge(ctx, []<-chan Event[int]{a, b}, 4))
	if len(got) != 5 {
		t.Fatalf("merge lost events: %d", len(got))
	}
}

func TestContextCancellationStopsPipeline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// An infinite producer feeding Partition → Merge.
	in := make(chan Event[int])
	go func() {
		defer close(in)
		for i := 0; ; i++ {
			select {
			case in <- Event[int]{Time: ts(i), Key: uint64(i), Value: i}:
			case <-ctx.Done():
				return
			}
		}
	}()
	out := Merge(ctx, Partition(ctx, in, 4, 1), 1)
	<-out // ensure flowing
	cancel()
	// The pipeline must terminate: drain with a timeout.
	done := make(chan struct{})
	go func() {
		for range out {
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("pipeline did not stop after cancellation")
	}
}
