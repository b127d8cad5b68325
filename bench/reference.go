package main

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/sim"
	"repro/internal/store"
)

// daemonPipeline is the core.Config maritimed runs every shard with at
// its default flags.
func daemonPipeline() core.Config {
	return core.Config{Zones: sim.MediterraneanWorld(1).Zones, SynopsisToleranceM: 60}
}

// residentAnswers recovers the archive at dir into an in-process, fully
// resident engine — the same ingest.Engine + Resume path the daemon takes,
// no memory budget, no HTTP — and returns its answers to the first n
// sweep requests of every variant, encoded as the server encodes them.
// Both query workloads must reproduce them byte for byte, which also
// makes the resident and the evicted daemon byte-identical to each other.
func residentAnswers(ctx context.Context, dir string, seed int64, f *feed, shards, n int) (map[variant][][]byte, error) {
	arch, err := store.OpenReadOnly(store.Config{Dir: dir})
	if err != nil {
		return nil, fmt.Errorf("opening %s for the reference: %w", dir, err)
	}
	eng := ingest.New(ingest.Config{Pipeline: daemonPipeline(), Shards: shards})
	eng.Resume(arch.Store)
	if err := arch.Close(); err != nil {
		return nil, err
	}
	eng.Start(ctx)
	defer func() {
		eng.Close()
		for range eng.Alerts() {
		}
		eng.Wait()
	}()
	want := make(map[variant][][]byte, numVariants)
	for v, reqs := range sweepRequests(seed, f, n) {
		for i, req := range reqs {
			res, err := eng.Query(req)
			if err != nil {
				return nil, fmt.Errorf("reference %s #%d: %w", variant(v), i, err)
			}
			b, err := json.Marshal(res)
			if err != nil {
				return nil, err
			}
			want[variant(v)] = append(want[variant(v)], append(b, '\n'))
		}
	}
	return want, nil
}
