package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/ais"
	"repro/internal/anomaly"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/geo"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/quality"
	"repro/internal/query"
	"repro/internal/semstore"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/synopsis"
	"repro/internal/tier"
	"repro/internal/track"
	"repro/internal/tstore"
)

// spanBatch is how many records one in-process stage span covers: the
// timer is read once per batch, not per record.
const spanBatch = 4096

// layerRun is the traced in-process run: single-threaded over the first
// traceLines feed lines, one stage at a time (decode all → quality all →
// …), each stage a sequence of spans of spanBatch records around the
// calls into that layer's public functions.
type layerRun struct {
	tr      *tracer
	parent  int
	work    string
	metrics []metric

	lines    []string
	at       []time.Time // event time per line
	reports  []core.TimedReport
	states   []model.VesselState // model.FromReport of every position report
	archived []model.VesselState // what the synopsis stage keeps
	alerts   int                 // raised by one full core.Pipeline over the slice
}

func (lr *layerRun) emit(name string, value float64, unit string, n int) {
	lr.metrics = append(lr.metrics, metric{name, value, unit, n})
}

// stage runs fn over [0, n) in spanBatch-sized spans named name and
// returns the stage's total nanoseconds.
func (lr *layerRun) stage(name string, n int, fn func(lo, hi int)) int64 {
	var total int64
	for lo := 0; lo < n; lo += spanBatch {
		hi := min(lo+spanBatch, n)
		sp := lr.tr.start(name, lr.parent)
		t0 := time.Now()
		fn(lo, hi)
		total += int64(time.Since(t0))
		lr.tr.end(sp, hi-lo)
	}
	return total
}

// allocs runs fn and returns how many heap objects it allocated.
func allocs(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

func perUnit(ns int64, n int) float64 { return float64(ns) / float64(max(n, 1)) }

// subjectOf mirrors core's quality-profile key.
func subjectOf(mmsi uint32) string { return fmt.Sprintf("vessel/%d", mmsi) }

// runLayers executes every in-process stage over the feed's first n
// lines, on one processor: a stage's time is then its own, and what the
// asynchronous engine adds to decode + core is handoff, not overlap.
func runLayers(ctx context.Context, tr *tracer, work string, f *feed, n, nproc int) (*layerRun, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	lr := &layerRun{tr: tr, work: work}
	lr.parent = tr.start("layers", 0)
	defer func() { tr.end(lr.parent, n) }()
	for i := 0; i < n; i++ {
		lr.lines = append(lr.lines, string(f.buf[f.off[i]:f.off[i+1]-1]))
		lr.at = append(lr.at, atOf(i))
	}
	lr.decode()
	lr.partition(ctx, nproc)
	stageNS := lr.pipelineStages()
	lr.corePipeline(stageNS)
	if err := lr.engine(ctx); err != nil {
		return nil, err
	}
	if err := lr.teeSinks(); err != nil {
		return nil, err
	}
	if err := lr.storeAndTier(); err != nil {
		return nil, err
	}
	return lr, nil
}

// decode: ais.Decoder over every line.
func (lr *layerRun) decode() {
	dec := ais.NewDecoder()
	failed := 0
	var ns int64
	mallocs := allocs(func() {
		ns = lr.stage("ais.decode", len(lr.lines), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				msg, err := dec.Decode(lr.lines[i])
				if err != nil {
					failed++
					continue
				}
				if rep, ok := msg.(*ais.PositionReport); ok {
					lr.reports = append(lr.reports, core.TimedReport{At: lr.at[i], Rep: rep})
				}
			}
		})
	})
	for _, tr := range lr.reports {
		lr.states = append(lr.states, model.FromReport(tr.At, tr.Rep))
	}
	lr.emit("ais.decode_ns_per_line", perUnit(ns, len(lr.lines)), "ns", len(lr.lines))
	lr.emit("ais.decode_allocs_per_line", float64(mallocs)/float64(len(lr.lines)), "count", len(lr.lines))
	lr.emit("ais.decode_failed", float64(failed), "count", len(lr.lines))
}

// partition: every report through stream.Partition into draining readers,
// at 1 and at nproc partitions.
func (lr *layerRun) partition(ctx context.Context, nproc int) {
	for i, parts := range []int{1, nproc} {
		in := make(chan stream.Event[core.TimedReport], 256) // ingest.Config's default ShardBuf
		outs := stream.Partition(ctx, in, parts, 256)
		done := make(chan struct{}, parts)
		for _, out := range outs {
			go func(out <-chan stream.Event[core.TimedReport]) {
				for range out {
				}
				done <- struct{}{}
			}(out)
		}
		sp := lr.tr.start("stream.partition", lr.parent)
		t0 := time.Now()
		for _, tr := range lr.reports {
			in <- stream.Event[core.TimedReport]{Time: tr.At, Key: uint64(tr.Rep.MMSI), Value: tr}
		}
		close(in)
		for range outs {
			<-done
		}
		ns := int64(time.Since(t0))
		lr.tr.end(sp, len(lr.reports))
		name := []string{"stream.partition_ns_per_msg.n1", "stream.partition_ns_per_msg.nproc"}[i]
		lr.emit(name, perUnit(ns, len(lr.reports)), "ns", len(lr.reports))
	}
}

// pipelineStages replays core.Pipeline's stage sequence one stage at a
// time with the same calls, in ingestLocked's order: quality
// (KinematicChecker.Check + Profile.Record), live picture (Live.Update),
// synopsis (StreamingCompressor.Push), archive (Store.Append), events
// (Engine.Process + PatternEngine.Process). It returns the stages' total.
func (lr *layerRun) pipelineStages() (total int64) {
	cfg := daemonPipeline()
	n := len(lr.states)

	checkers := make(map[uint32]*quality.KinematicChecker)
	profile := quality.NewProfile()
	ns := lr.stage("quality.check", n, func(lo, hi int) {
		for _, s := range lr.states[lo:hi] {
			ck, ok := checkers[s.MMSI]
			if !ok {
				ck = &quality.KinematicChecker{}
				checkers[s.MMSI] = ck
			}
			profile.Record(subjectOf(s.MMSI), len(ck.Check(s)) == 0)
		}
	})
	total += ns
	lr.emit("quality.check_ns_per_msg", perUnit(ns, n), "ns", n)

	live := tstore.NewLive(0.25)
	ns = lr.stage("tstore.live_update", n, func(lo, hi int) {
		for _, s := range lr.states[lo:hi] {
			live.Update(s)
		}
	})
	total += ns
	lr.emit("tstore.live_update_ns_per_msg", perUnit(ns, n), "ns", n)

	compressors := make(map[uint32]*synopsis.StreamingCompressor)
	ns = lr.stage("synopsis.push", n, func(lo, hi int) {
		for _, s := range lr.states[lo:hi] {
			sc, ok := compressors[s.MMSI]
			if !ok {
				sc = &synopsis.StreamingCompressor{ToleranceM: cfg.SynopsisToleranceM, MaxGap: 3 * time.Minute}
				compressors[s.MMSI] = sc
			}
			if _, keep := sc.Push(s); keep {
				lr.archived = append(lr.archived, s)
			}
		}
	})
	total += ns
	lr.emit("synopsis.push_ns_per_msg", perUnit(ns, n), "ns", n)
	lr.emit("synopsis.keep_ratio", float64(len(lr.archived))/float64(max(n, 1)), "ratio", n)

	st := tstore.New()
	ns = lr.stage("tstore.append", len(lr.archived), func(lo, hi int) {
		for _, s := range lr.archived[lo:hi] {
			st.Append(s)
		}
	})
	total += ns
	lr.emit("tstore.append_ns_per_rec", perUnit(ns, len(lr.archived)), "ns", len(lr.archived))
	lr.reads(st)

	ectx := &events.Context{Zones: cfg.Zones}
	eng := events.NewEngine(ectx, 0.1)
	for _, d := range events.DefaultDetectors() {
		eng.Register(d)
	}
	for _, d := range events.DefaultPairDetectors() {
		eng.RegisterPair(d)
	}
	raised := 0
	ns = lr.stage("events.process", n, func(lo, hi int) {
		for _, s := range lr.states[lo:hi] {
			raised += len(eng.Process(s))
		}
	})
	total += ns
	lr.emit("events.process_ns_per_msg", perUnit(ns, n), "ns", n)
	pe := events.NewPatternEngine(ectx)
	pe.Register(events.SmugglingRunPattern(4 * time.Hour))
	ns = lr.stage("events.patterns", n, func(lo, hi int) {
		for _, s := range lr.states[lo:hi] {
			raised += len(pe.Process(s))
		}
	})
	total += ns
	lr.emit("events.patterns_ns_per_msg", perUnit(ns, n), "ns", n)
	lr.emit("events.alerts_per_kmsg", 1000*float64(raised)/float64(max(n, 1)), "count", n)
	return total
}

// reads times tstore's read paths on the store the append stage filled.
func (lr *layerRun) reads(st *tstore.Store) {
	mmsis := st.MMSIs()
	if len(mmsis) > 512 {
		mmsis = mmsis[:512]
	}
	ns := lr.stage("tstore.trajectory", len(mmsis), func(lo, hi int) {
		for _, m := range mmsis[lo:hi] {
			st.Trajectory(m)
		}
	})
	lr.emit("tstore.trajectory_us", perUnit(ns, len(mmsis))/1e3, "us", len(mmsis))

	// 0.5° boxes over sampled reports, the whole slice's time span.
	var boxes []geo.Rect
	for i := 0; i < len(lr.archived); i += max(len(lr.archived)/64, 1) {
		p := lr.archived[i].Pos
		boxes = append(boxes, geo.Rect{MinLat: p.Lat - 0.25, MinLon: p.Lon - 0.25, MaxLat: p.Lat + 0.25, MaxLon: p.Lon + 0.25})
	}
	from, to := lr.at[0], lr.at[len(lr.at)-1]
	points := 0
	ns = lr.stage("tstore.spacetime", len(boxes), func(lo, hi int) {
		for _, b := range boxes[lo:hi] {
			points += len(st.SpaceTime(b, from, to))
		}
	})
	lr.emit("tstore.spacetime_ns_per_point", perUnit(ns, points), "ns", points)

	var snap *tstore.Snapshot
	sp := lr.tr.start("tstore.snapshot_build", lr.parent)
	t0 := time.Now()
	snap = st.SpatialSnapshot()
	build := time.Since(t0)
	lr.tr.end(sp, snap.Len())
	lr.emit("tstore.snapshot_build_ms", float64(build)/1e6, "ms", snap.Len())
	ns = lr.stage("tstore.nearest", len(boxes), func(lo, hi int) {
		for _, b := range boxes[lo:hi] {
			snap.NearestVessels(b.Center(), to, 30*time.Minute, 5)
		}
	})
	lr.emit("tstore.nearest_us", perUnit(ns, len(boxes))/1e3, "us", len(boxes))
}

// corePipeline: one core.Pipeline.IngestBatch over the same reports, and
// the two cross-checks against the stage-at-a-time spans.
func (lr *layerRun) corePipeline(stageNS int64) {
	p := core.New(daemonPipeline())
	n := len(lr.reports)
	ns := lr.stage("core.ingest", n, func(lo, hi int) {
		lr.alerts += len(p.IngestBatch(lr.reports[lo:hi]))
	})
	lr.emit("core.ingest_ns_per_msg", perUnit(ns, n), "ns", n)
	lr.emit("core.unattributed_share", float64(ns-stageNS)/float64(ns), "ratio", n)
	m := p.Metrics.Snapshot()
	own := m.NsQuality + m.NsSynopsis + m.NsStore + m.NsEvents
	lr.emit("core.self_counter_ratio", float64(stageNS)/float64(max(own, 1)), "ratio", n)
}

// engine: the asynchronous ingest.Engine with its NMEA front-end over the
// same lines, one shard, one decode worker, no lanes. Handoff is what the
// engine adds to decode + core.
func (lr *layerRun) engine(ctx context.Context) error {
	eng := ingest.New(ingest.Config{Pipeline: daemonPipeline(), Shards: 1, DecodeWorkers: 1})
	eng.Start(ctx)
	lines := make(chan ingest.Line, 1024) // cmd/maritimed's reader buffer
	eng.StartLines(ctx, lines, nil)
	drained := make(chan int)
	go func() {
		n := 0
		for range eng.Alerts() {
			n++
		}
		drained <- n
	}()
	sp := lr.tr.start("ingest.engine", lr.parent)
	t0 := time.Now()
	for i, l := range lr.lines {
		lines <- ingest.Line{At: lr.at[i], Text: l}
	}
	close(lines)
	alerts := <-drained
	eng.Wait()
	ns := int64(time.Since(t0))
	lr.tr.end(sp, len(lr.reports))
	if alerts != lr.alerts {
		return fmt.Errorf("check failed: one-shard ingest.Engine raised %d alerts, core.Pipeline %d on the same lines", alerts, lr.alerts)
	}
	n := len(lr.reports)
	lr.emit("ingest.engine_ns_per_msg", perUnit(ns, n), "ns", n)
	lr.emit("ingest.handoff_ns_per_msg", perUnit(ns-lr.tr.selfNS("ais.decode")-lr.tr.selfNS("core.ingest"), n), "ns", n)
	return nil
}

// timedSink appends record by record, as tstore.Store forwards to its
// sink, inside spanBatch-sized spans.
func (lr *layerRun) timedSink(name string, sink tstore.Sink) (int64, error) {
	var err error
	ns := lr.stage(name, len(lr.archived), func(lo, hi int) {
		for _, s := range lr.archived[lo:hi] {
			if e := sink.Append(s); e != nil && err == nil {
				err = e
			}
		}
	})
	return ns, err
}

// teeSinks: each sink the daemon tees archived records into, alone.
func (lr *layerRun) teeSinks() error {
	n := len(lr.archived)

	hub := query.NewHub(query.HubConfig{})
	world := query.Box{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}
	sub, err := hub.Subscribe(query.Request{Kind: query.KindSpaceTime, Box: &world}, query.SubOptions{Buffer: 65536})
	if err != nil {
		return err
	}
	got := make(chan int)
	go func() {
		k := 0
		for range sub.Updates() {
			k++
		}
		got <- k
	}()
	ns, err := lr.timedSink("query.hub_publish", hub)
	sub.Cancel()
	delivered := <-got
	if err != nil {
		return err
	}
	if delivered+int(sub.Dropped()) != n {
		return fmt.Errorf("check failed: hub delivered %d + dropped %d of %d published", delivered, sub.Dropped(), n)
	}
	lr.emit("query.hub_publish_ns_per_rec", perUnit(ns, n), "ns", n)

	arch, err := store.Open(store.Config{Dir: filepath.Join(lr.work, "flusher")})
	if err != nil {
		return err
	}
	fl := store.NewFlusher(arch.Backend, store.FlushConfig{})
	ns, err = lr.timedSink("store.flusher_append", fl)
	if cerr := fl.Close(); err == nil {
		err = cerr
	}
	if cerr := arch.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("flusher stage: %w", err)
	}
	lr.emit("store.flusher_append_ns_per_rec", perUnit(ns, n), "ns", n)

	if ns, err = lr.timedSink("track.append", track.NewStage(track.Config{})); err != nil {
		return err
	}
	lr.emit("track.append_ns_per_rec", perUnit(ns, n), "ns", n)

	lane := anomaly.NewStages(1, anomaly.Config{Semantic: semstore.NewStore(), Zones: daemonPipeline().Zones})
	if ns, err = lr.timedSink("anomaly.append", lane.Stage(0)); err != nil {
		return err
	}
	lr.emit("anomaly.append_ns_per_rec", perUnit(ns, n), "ns", n)
	return nil
}

// storeAndTier: the WAL backend directly (append, bytes, compaction,
// recovery), then the eviction manager over the recovered store.
func (lr *layerRun) storeAndTier() error {
	n := len(lr.archived)
	dir := filepath.Join(lr.work, "wal")
	// Small segments, so that the slice seals several for Compact to fold;
	// auto-compaction off, so that the timed Compact does all of it.
	arch, err := store.Open(store.Config{Dir: dir, SegmentBytes: 256 << 10, CompactEvery: -1})
	if err != nil {
		return err
	}
	const flushBatch = 512 // store.FlushConfig's default Batch
	var ns int64
	for lo := 0; lo < n && err == nil; lo += flushBatch {
		hi := min(lo+flushBatch, n)
		sp := lr.tr.start("store.wal_append", lr.parent)
		t0 := time.Now()
		err = arch.Backend.Append(lr.archived[lo:hi])
		ns += int64(time.Since(t0))
		lr.tr.end(sp, hi-lo)
	}
	if err == nil {
		err = arch.Backend.Sync()
	}
	if err != nil {
		return fmt.Errorf("wal append: %w", err)
	}
	bytes, err := dirBytes(dir)
	if err != nil {
		return err
	}
	lr.emit("store.wal_append_ns_per_rec", perUnit(ns, n), "ns", n)
	lr.emit("store.wal_bytes_per_rec", float64(bytes)/float64(max(n, 1)), "B", n)
	sp := lr.tr.start("store.compact", lr.parent)
	t0 := time.Now()
	err = arch.Backend.Compact()
	compact := time.Since(t0)
	lr.tr.end(sp, n)
	if cerr := arch.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("compaction: %w", err)
	}
	lr.emit("store.compact_ms", float64(compact)/1e6, "ms", n)

	sp = lr.tr.start("store.recover", lr.parent)
	t0 = time.Now()
	arch, err = store.Open(store.Config{Dir: dir})
	recoverNS := int64(time.Since(t0))
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	lr.tr.end(sp, arch.Stats.Total())
	if arch.Stats.Total() != n {
		return fmt.Errorf("check failed: recovered %d of %d records", arch.Stats.Total(), n)
	}
	lr.emit("store.recover_ns_per_rec", perUnit(recoverNS, n), "ns", n)
	st := arch.Store
	if err := arch.Close(); err != nil {
		return err
	}

	spill, err := store.NewFSObjectsCache(filepath.Join(lr.work, "spill"))
	if err != nil {
		return err
	}
	mgr, err := tier.NewManager(tier.Config{
		Budget: int64(tstore.PointBytes) * int64(n) / 20, CheckEvery: -1, Objects: spill}, st)
	if err != nil {
		return err
	}
	defer mgr.Close()
	sp = lr.tr.start("tier.evict_pass", lr.parent)
	t0 = time.Now()
	evicted := mgr.Check()
	pass := time.Since(t0)
	lr.tr.end(sp, evicted)
	if err := mgr.Err(); err != nil {
		return fmt.Errorf("eviction pass: %w", err)
	}
	stats := mgr.Stats()
	lr.emit("tier.evict_pass_ms", float64(pass)/1e6, "ms", evicted)
	lr.emit("tier.spill_us_per_chunk", float64(pass)/1e3/float64(max(int(stats.SpillObjects), 1)), "us", int(stats.SpillObjects))
	// Page every evicted vessel back twice: the first read fetches its
	// chunks from the object store, the second finds them in the block cache.
	resident := make(map[uint32]bool)
	for _, h := range st.Heat() {
		resident[h.MMSI] = true
	}
	var cold []uint32
	for _, m := range st.MMSIs() {
		if !resident[m] {
			cold = append(cold, m)
		}
	}
	if len(cold) > 256 {
		cold = cold[:256]
	}
	for i, name := range []string{"tier.fetch_cold", "tier.fetch_cached"} {
		ns := lr.stage(name, len(cold), func(lo, hi int) {
			for _, m := range cold[lo:hi] {
				st.Trajectory(m)
			}
		})
		if err := st.PageErr(); err != nil {
			return fmt.Errorf("page-back: %w", err)
		}
		lr.emit([]string{"tier.fetch_cold_us", "tier.fetch_cached_us"}[i], perUnit(ns, len(cold))/1e3, "us", len(cold))
	}
	return nil
}
