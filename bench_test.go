// Sharded ingest scaling, the benchmark form of EXPERIMENTS.md's E14 table.
//
// BenchmarkIngestSharded{1,2,4,8} replay the same dense synthetic feed
// through the async ingest engine at increasing shard counts, so
// `go test -bench=BenchmarkIngestSharded` measures the scaling curve
// directly (ns/op is one full feed; the msg/s metric is derived). Each
// report enters through Ingest, one call per report, and joins its
// shard's open batch. What the curve measures is the shard workers
// running in parallel on real cores: since the events proximity grid made
// pairwise detection cheap, splitting the fleet's density buys little on
// one processor (≈1.3× at 4 shards). The alert count falls with the shard
// count because pair detectors only see vessels on their own shard.
package maritime

import (
	"context"
	"sync"
	"testing"
	"time"
)

var (
	ingestBenchOnce sync.Once
	ingestBenchRun  *SimRun
)

func ingestBenchTraffic(b *testing.B) *SimRun {
	b.Helper()
	ingestBenchOnce.Do(func() {
		cfg := SimConfig{Seed: 42, NumVessels: 2500, Duration: 20 * time.Minute, TickSec: 2}
		cfg.DefaultAnomalyRates()
		run, err := Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ingestBenchRun = run
	})
	return ingestBenchRun
}

func benchmarkIngestSharded(b *testing.B, shards int) {
	run := ingestBenchTraffic(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewIngestEngine(IngestConfig{
			Pipeline: PipelineConfig{Zones: run.Config.World.Zones, SynopsisToleranceM: 60},
			Shards:   shards,
		})
		e.Start(ctx)
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for range e.Alerts() {
			}
		}()
		for j := range run.Positions {
			o := &run.Positions[j]
			e.Ingest(ctx, o.At, &o.Report)
		}
		e.Close()
		<-drained
	}
	b.ReportMetric(float64(len(run.Positions))*float64(b.N)/b.Elapsed().Seconds(), "msg/s")
}

func BenchmarkIngestSharded1(b *testing.B) { benchmarkIngestSharded(b, 1) }
func BenchmarkIngestSharded2(b *testing.B) { benchmarkIngestSharded(b, 2) }
func BenchmarkIngestSharded4(b *testing.B) { benchmarkIngestSharded(b, 4) }
func BenchmarkIngestSharded8(b *testing.B) { benchmarkIngestSharded(b, 8) }
