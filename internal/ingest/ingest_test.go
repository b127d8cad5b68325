package ingest

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/stream"
)

func simTraffic(t testing.TB, seed int64, vessels int, dur time.Duration) *sim.Run {
	t.Helper()
	cfg := sim.Config{Seed: seed, NumVessels: vessels, Duration: dur, TickSec: 2}
	cfg.DefaultAnomalyRates()
	run, err := sim.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// alertKey flattens an alert into a comparable multiset element.
func alertKey(a events.Alert) string {
	return fmt.Sprintf("%s|%d|%d|%s|%d", a.Kind, a.MMSI, a.Other, a.At.Format(time.RFC3339Nano), a.Severity)
}

func sortedKeys(alerts []events.Alert) []string {
	out := make([]string, len(alerts))
	for i, a := range alerts {
		out[i] = alertKey(a)
	}
	sort.Strings(out)
	return out
}

func runEngine(t testing.TB, run *sim.Run, cfg Config) ([]events.Alert, *Engine) {
	t.Helper()
	e := New(cfg)
	e.Start(context.Background())
	var (
		collected []events.Alert
		done      = make(chan struct{})
	)
	go func() {
		defer close(done)
		for ev := range e.Alerts() {
			collected = append(collected, ev.Value)
		}
	}()
	ctx := context.Background()
	for i := range run.Positions {
		o := &run.Positions[i]
		if !e.Ingest(ctx, o.At, &o.Report) {
			t.Fatal("ingest refused mid-stream")
		}
	}
	e.Close()
	<-done
	return collected, e
}

// The acceptance criterion: the async engine must produce the same alert
// multiset as sequential Pipeline.Ingest over the same replayed input.
// With one shard the comparison is against a single sequential pipeline.
func TestEngineMatchesSequentialPipeline(t *testing.T) {
	run := simTraffic(t, 42, 80, 45*time.Minute)
	pcfg := core.Config{Zones: run.Config.World.Zones, SynopsisToleranceM: 60}

	seq := core.New(pcfg)
	var want []events.Alert
	for i := range run.Positions {
		o := &run.Positions[i]
		want = append(want, seq.Ingest(o.At, &o.Report)...)
	}

	got, e := runEngine(t, run, Config{Pipeline: pcfg, Shards: 1, BatchSize: 32})
	if len(got) == 0 {
		t.Fatal("engine produced no alerts; scenario should raise some")
	}
	gk, wk := sortedKeys(got), sortedKeys(want)
	if len(gk) != len(wk) {
		t.Fatalf("alert multiset sizes differ: engine %d, sequential %d", len(gk), len(wk))
	}
	for i := range gk {
		if gk[i] != wk[i] {
			t.Fatalf("alert multisets diverge at %d: engine %q vs sequential %q", i, gk[i], wk[i])
		}
	}
	if out := e.Metrics.Out.Load(); out != int64(len(run.Positions)) {
		t.Errorf("Metrics.Out = %d, want %d", out, len(run.Positions))
	}
}

// With n shards the engine must match the synchronous Sharded path — both
// route by the same hash, and per-vessel order is preserved through the
// partition, so per-shard pipelines see identical input sequences.
func TestEngineMatchesSyncSharded(t *testing.T) {
	run := simTraffic(t, 7, 80, 45*time.Minute)
	pcfg := core.Config{Zones: run.Config.World.Zones, SynopsisToleranceM: 60}
	const shards = 4

	sync := core.NewSharded(pcfg, shards)
	var want []events.Alert
	for i := range run.Positions {
		o := &run.Positions[i]
		want = append(want, sync.ShardFor(o.Report.MMSI).Ingest(o.At, &o.Report)...)
	}

	got, e := runEngine(t, run, Config{Pipeline: pcfg, Shards: shards, BatchSize: 32})
	gk, wk := sortedKeys(got), sortedKeys(want)
	if len(gk) != len(wk) {
		t.Fatalf("alert multiset sizes differ: engine %d, sync sharded %d", len(gk), len(wk))
	}
	for i := range gk {
		if gk[i] != wk[i] {
			t.Fatalf("alert multisets diverge at %d: engine %q vs sync %q", i, gk[i], wk[i])
		}
	}
	// And per-shard ingest counts must agree shard by shard.
	for i := range sync.Shards {
		w := sync.Shards[i].Metrics.Ingested.Load()
		g := e.Sharded().Shards[i].Metrics.Ingested.Load()
		if w != g {
			t.Errorf("shard %d ingested %d via engine, %d via sync", i, g, w)
		}
	}
}

// Concurrent submitters share each shard's open batch. Each goroutine owns
// a quarter of the fleet and feeds it in order, so per-vessel order holds
// and the per-vessel alerts (pair alerts depend on how vessels interleave)
// must be the sequential pipeline's; tiny buffers make submitters block on
// full queues and hand batches to idle workers.
func TestConcurrentSubmitters(t *testing.T) {
	run := simTraffic(t, 7, 80, 45*time.Minute)
	pcfg := core.Config{Zones: run.Config.World.Zones, SynopsisToleranceM: 60}
	perVessel := func(alerts []events.Alert) []string {
		var own []events.Alert
		for _, a := range alerts {
			if a.Other == 0 {
				own = append(own, a)
			}
		}
		return sortedKeys(own)
	}
	seq := core.New(pcfg)
	var want []events.Alert
	for i := range run.Positions {
		o := &run.Positions[i]
		want = append(want, seq.Ingest(o.At, &o.Report)...)
	}

	e := New(Config{Pipeline: pcfg, Shards: 2, ShardBuf: 8, BatchSize: 4})
	ctx := context.Background()
	e.Start(ctx)
	var got []events.Alert
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range e.Alerts() {
			got = append(got, ev.Value)
		}
	}()
	const submitters = 4
	var wg sync.WaitGroup
	for k := range submitters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range run.Positions {
				o := &run.Positions[i]
				if o.Report.MMSI%submitters == uint32(k) && !e.Ingest(ctx, o.At, &o.Report) {
					t.Error("ingest refused mid-stream")
					return
				}
			}
		}()
	}
	wg.Wait()
	e.Close()
	<-done
	if out := e.Metrics.Out.Load(); out != int64(len(run.Positions)) {
		t.Errorf("processed %d, want %d", out, len(run.Positions))
	}
	gk, wk := perVessel(got), perVessel(want)
	if len(wk) == 0 || len(gk) != len(wk) {
		t.Fatalf("per-vessel alerts: concurrent %d, sequential %d", len(gk), len(wk))
	}
	for i := range gk {
		if gk[i] != wk[i] {
			t.Fatalf("per-vessel alerts diverge at %d: concurrent %q vs sequential %q", i, gk[i], wk[i])
		}
	}
}

// Batched ingest must be behaviour-preserving on its own, independent of
// the dataflow.
func TestIngestBatchMatchesIngest(t *testing.T) {
	run := simTraffic(t, 11, 40, 30*time.Minute)
	pcfg := core.Config{Zones: run.Config.World.Zones, SynopsisToleranceM: 60}

	one := core.New(pcfg)
	var want []events.Alert
	for i := range run.Positions {
		o := &run.Positions[i]
		want = append(want, one.Ingest(o.At, &o.Report)...)
	}

	batched := core.New(pcfg)
	var got []events.Alert
	var batch []core.TimedReport
	for i := range run.Positions {
		o := &run.Positions[i]
		batch = append(batch, core.TimedReport{At: o.At, Rep: &o.Report})
		if len(batch) == 17 || i == len(run.Positions)-1 {
			got = append(got, batched.IngestBatch(batch)...)
			batch = batch[:0]
		}
	}
	gk, wk := sortedKeys(got), sortedKeys(want)
	if len(gk) != len(wk) {
		t.Fatalf("batched alerts %d, per-call alerts %d", len(gk), len(wk))
	}
	for i := range gk {
		if gk[i] != wk[i] {
			t.Fatalf("batched ingest diverges at %d: %q vs %q", i, gk[i], wk[i])
		}
	}
	if a, b := one.Metrics.Snapshot().Archived, batched.Metrics.Snapshot().Archived; a != b {
		t.Errorf("archived differ: %d vs %d", a, b)
	}
}

// The NMEA front-end: encode a simulated feed into AIVDM sentences
// (multi-fragment type 5s included), push it through StartLines with
// several decode workers, and check nothing is lost or double-counted.
func TestStartLinesDecodesFullFeed(t *testing.T) {
	run := simTraffic(t, 3, 40, 30*time.Minute)
	pcfg := core.Config{Zones: run.Config.World.Zones, SynopsisToleranceM: 60}

	at := time.Date(2017, 3, 21, 0, 0, 0, 0, time.UTC)
	var feed []Line
	addMsg := func(msg any, id int, ch string) {
		lines, err := ais.EncodeSentences(msg, id, ch)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range lines {
			at = at.Add(10 * time.Millisecond)
			feed = append(feed, Line{At: at, Text: l})
		}
	}
	for i := range run.Positions {
		addMsg(&run.Positions[i].Report, i, "A")
	}
	multiFragment := 0
	for i := range run.Statics {
		lines, _ := ais.EncodeSentences(&run.Statics[i].Msg, i, "B")
		if len(lines) > 1 {
			multiFragment++
		}
		addMsg(&run.Statics[i].Msg, i, "B")
	}
	if multiFragment == 0 {
		t.Fatal("scenario produced no multi-fragment sentences; test loses its point")
	}

	e := New(Config{Pipeline: pcfg, Shards: 4, DecodeWorkers: 3, Obs: obs.NewRegistry()})
	ctx := context.Background()
	e.Start(ctx)
	var statics sync.WaitGroup
	var staticMu sync.Mutex
	staticSeen := 0
	statics.Add(len(run.Statics))
	onStatic := func(_ time.Time, _ *ais.StaticVoyage, _ []quality.Issue) {
		staticMu.Lock()
		staticSeen++
		staticMu.Unlock()
		statics.Done()
	}
	lines := make(chan Line, 64)
	e.StartLines(ctx, lines, onStatic)
	go func() {
		for _, l := range feed {
			lines <- l
		}
		close(lines)
	}()
	alerts := 0
	for range e.Alerts() {
		alerts++
	}
	statics.Wait()

	dm := e.DecodeMetrics.Snapshot()
	if dm.In != int64(len(feed)) {
		t.Errorf("decode In = %d, want %d lines", dm.In, len(feed))
	}
	wantMsgs := int64(len(run.Positions) + len(run.Statics))
	if dm.Out != wantMsgs {
		t.Errorf("decode Out = %d, want %d messages", dm.Out, wantMsgs)
	}
	if dm.Dropped != 0 {
		t.Errorf("decode Dropped = %d, want 0 on a clean feed", dm.Dropped)
	}
	if staticSeen != len(run.Statics) {
		t.Errorf("static callback saw %d, want %d", staticSeen, len(run.Statics))
	}
	snap := e.Snapshot()
	if snap.Ingested != int64(len(run.Positions)) {
		t.Errorf("pipelines ingested %d, want %d", snap.Ingested, len(run.Positions))
	}
	if snap.StaticChecked != int64(len(run.Statics)) {
		t.Errorf("pipelines checked %d statics, want %d", snap.StaticChecked, len(run.Statics))
	}
	if alerts == 0 {
		t.Error("no alerts out of an anomaly-laden feed")
	}
	// Batched or not, one report in 64 carries its shard-queue wait.
	if got, want := e.shardWaitNS.Snapshot().Count, int64(len(run.Positions)/64); got != want {
		t.Errorf("shard-wait histogram holds %d observations, want one per 64 reports: %d", got, want)
	}
}

// Parallel decode must not reorder the feed: the resequencer restores
// line-arrival order, so any decode worker count produces exactly the
// pipeline results of a single sequential decoder — per-vessel event-time
// order is what the kinematic checker, synopsis filter and dark detector
// all assume.
func TestStartLinesDeterministicAcrossWorkerCounts(t *testing.T) {
	run := simTraffic(t, 9, 50, 30*time.Minute)
	pcfg := core.Config{Zones: run.Config.World.Zones, SynopsisToleranceM: 60}
	at := time.Date(2017, 3, 21, 0, 0, 0, 0, time.UTC)
	var feed []Line
	for i := range run.Positions {
		lines, err := ais.EncodeSentences(&run.Positions[i].Report, i, "A")
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range lines {
			at = at.Add(10 * time.Millisecond)
			feed = append(feed, Line{At: at, Text: l})
		}
	}
	var alertSets [][]string
	var archived []int64
	for _, workers := range []int{1, 4} {
		e := New(Config{Pipeline: pcfg, Shards: 2, DecodeWorkers: workers})
		ctx := context.Background()
		e.Start(ctx)
		lines := make(chan Line, 64)
		e.StartLines(ctx, lines, nil)
		go func() {
			for _, l := range feed {
				lines <- l
			}
			close(lines)
		}()
		var alerts []events.Alert
		for ev := range e.Alerts() {
			alerts = append(alerts, ev.Value)
		}
		alertSets = append(alertSets, sortedKeys(alerts))
		archived = append(archived, e.Snapshot().Archived)
	}
	if archived[0] != archived[1] {
		t.Errorf("archived counts differ across decode worker counts: %d vs %d", archived[0], archived[1])
	}
	if len(alertSets[0]) != len(alertSets[1]) {
		t.Fatalf("alert multisets differ in size: %d vs %d", len(alertSets[0]), len(alertSets[1]))
	}
	for i := range alertSets[0] {
		if alertSets[0][i] != alertSets[1][i] {
			t.Fatalf("alert multisets diverge at %d: %q vs %q", i, alertSets[0][i], alertSets[1][i])
		}
	}
}

// Malformed lines must be dropped and counted, never wedging the dataflow.
func TestStartLinesCountsMalformed(t *testing.T) {
	e := New(Config{Shards: 2, DecodeWorkers: 2})
	ctx := context.Background()
	e.Start(ctx)
	lines := make(chan Line, 8)
	e.StartLines(ctx, lines, nil)
	at := time.Date(2017, 3, 21, 0, 0, 0, 0, time.UTC)
	lines <- Line{At: at, Text: "garbage"}
	lines <- Line{At: at, Text: "!AIVDM,1,1,,A,xx*00"} // bad checksum
	close(lines)
	for range e.Alerts() {
	}
	dm := e.DecodeMetrics.Snapshot()
	if dm.Dropped != 2 || dm.Out != 0 {
		t.Errorf("decode metrics %+v, want 2 dropped, 0 out", dm)
	}
}

func TestFragmentKey(t *testing.T) {
	cases := []struct {
		line  string
		key   string
		multi bool
	}{
		{"!AIVDM,1,1,,A,payload,0*00", "", false},
		{"!AIVDM,2,1,3,B,payload,0*00", "3,B", true},
		{"!AIVDM,2,2,3,B,rest,2*00", "3,B", true},
		{"!AIVDM,12,7,5,A,payload,0*00", "5,A", true},
		{"garbage", "", false},
		{"!AIVDM,2,1", "", false},
	}
	for _, tc := range cases {
		key, multi := fragmentKey(tc.line)
		if key != tc.key || multi != tc.multi {
			t.Errorf("fragmentKey(%q) = (%q, %v), want (%q, %v)", tc.line, key, multi, tc.key, tc.multi)
		}
	}
}

// The per-shard depth gauges must exist for every shard and only ever
// report legal values — reports, not batches; with a tiny buffer the
// engine still completes under backpressure; and behind a blocked shard the
// reports in flight stay within ShardBuf.
func TestBackpressureTinyBuffers(t *testing.T) {
	run := simTraffic(t, 5, 30, 20*time.Minute)
	pcfg := core.Config{Zones: run.Config.World.Zones}
	reg := obs.NewRegistry()
	e := New(Config{Pipeline: pcfg, Shards: 3, ShardBuf: 1, BatchSize: 2, AlertBuf: 1, Obs: reg})
	e.Start(context.Background())
	done := make(chan int)
	go func() {
		n := 0
		for range e.Alerts() {
			n++
		}
		done <- n
	}()
	ctx := context.Background()
	for i := range run.Positions {
		o := &run.Positions[i]
		e.Ingest(ctx, o.At, &o.Report)
		if i%1000 == 0 {
			for s := 0; s < 3; s++ {
				v, ok := reg.Value("ingest_shard_depth", "shard", strconv.Itoa(s))
				if !ok {
					t.Fatalf("ingest_shard_depth{shard=%d} not registered", s)
				}
				if v < 0 || v > 1 {
					t.Fatalf("shard %d depth %g out of [0,1]", s, v)
				}
			}
		}
	}
	e.Close()
	<-done
	e.Wait()
	if out := e.Metrics.Out.Load(); out != int64(len(run.Positions)) {
		t.Errorf("processed %d, want %d", out, len(run.Positions))
	}

	t.Run("blocked shard", func(t *testing.T) {
		const shardBuf = 8
		reg := obs.NewRegistry()
		e := New(Config{Shards: 1, ShardBuf: shardBuf, BatchSize: 4, AlertBuf: 1, Obs: reg})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		e.Start(ctx)
		// Every report raises an identity alert and nobody reads Alerts, so
		// the shard blocks on its first few alerts and the queue fills.
		const total = 200
		rep := make([]ais.PositionReport, total)
		var acked atomic.Int64
		fed := make(chan struct{})
		go func() {
			defer close(fed)
			at := time.Date(2017, 3, 21, 0, 0, 0, 0, time.UTC)
			for i := range rep {
				rep[i] = ais.PositionReport{Type: ais.TypePositionA, MMSI: uint32(100 + i), Position: geo.Point{Lat: 41, Lon: 8}}
				if !e.Ingest(ctx, at.Add(time.Duration(i)*time.Second), &rep[i]) {
					return
				}
				acked.Add(1)
			}
		}()
		// Wait until the queue is full and the submitter has stalled.
		q := e.inputs[0].q
		for deadline, last := time.Now().Add(10*time.Second), int64(-1); len(q) < cap(q) || acked.Load() != last; time.Sleep(20 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("shard queue never filled: %d of %d batches", len(q), cap(q))
			}
			last = acked.Load()
		}
		n, out := acked.Load(), e.Metrics.Out.Load()
		if d := e.inputs[0].depth.Load(); d > shardBuf {
			t.Errorf("%d reports wait for the blocked shard, bound %d", d, shardBuf)
		}
		if n == total {
			t.Fatalf("all %d reports went through a blocked shard", n)
		}
		if n-out > shardBuf {
			t.Errorf("%d reports accepted, %d processed: %d in flight behind a blocked shard, bound %d", n, out, n-out, shardBuf)
		}
		for _, name := range []string{"ingest_shard_depth", "ingest_queue_depth"} {
			labels := []string{"shard", "0"}
			if name == "ingest_queue_depth" {
				labels = nil
			}
			if v, _ := reg.Value(name, labels...); v > shardBuf || v < 0 {
				t.Errorf("%s = %g, want reports in [0, %d]", name, v, shardBuf)
			}
		}
		cancel()
		<-fed
	})
}

// ShardOf consistency across layers is what makes engine-vs-sync
// equivalence hold; pin it.
func TestEnginePartitioningMatchesShardFor(t *testing.T) {
	e := New(Config{Shards: 5})
	for mmsi := uint32(200000000); mmsi < 200000200; mmsi++ {
		if got, want := e.Sharded().ShardIndex(mmsi), stream.ShardOf(uint64(mmsi), 5); got != want {
			t.Fatalf("ShardIndex(%d) = %d, stream.ShardOf = %d", mmsi, got, want)
		}
	}
}

// TestEngineQueryMatchesDirectReads pins the engine's unified read
// surface: Query answers must equal the direct tstore reads against the
// engine's own shards — the query layer adds routing and merging, never
// different data.
func TestEngineQueryMatchesDirectReads(t *testing.T) {
	run := simTraffic(t, 11, 40, 20*time.Minute)
	pcfg := core.Config{Zones: run.Config.World.Zones}
	_, e := runEngine(t, run, Config{Pipeline: pcfg, Shards: 4})
	e.Wait() // quiesce: all reports ingested

	sharded := e.Sharded()
	bounds := run.Config.World.Bounds

	// Trajectory per vessel == owning shard's archive.
	checked := 0
	for _, p := range sharded.Shards {
		for _, mmsi := range p.Store.MMSIs() {
			res, err := e.Query(query.Request{Kind: query.KindTrajectory, MMSI: mmsi})
			if err != nil {
				t.Fatal(err)
			}
			want := p.Store.Trajectory(mmsi).Points
			if len(res.States) != len(want) {
				t.Fatalf("vessel %d: query %d points, store %d", mmsi, len(res.States), len(want))
			}
			for i, s := range res.States {
				if s.MMSI != want[i].MMSI || !s.At.Equal(want[i].At) {
					t.Fatalf("vessel %d point %d diverges", mmsi, i)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no vessels to check")
	}

	// Live picture == merged per-shard InRect.
	res, err := e.Query(query.Request{Kind: query.KindLivePicture, Box: ptrBox(query.BoxOf(bounds))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != sharded.LiveCount() {
		t.Fatalf("live picture %d vessels, LiveCount %d", res.Count, sharded.LiveCount())
	}

	// Stats == summed pipeline state.
	stats, err := e.Query(query.Request{Kind: query.KindStats})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range sharded.Shards {
		total += p.Store.Len()
	}
	if stats.Stats.Points != total {
		t.Fatalf("stats points %d, want %d", stats.Stats.Points, total)
	}
	if stats.Stats.Alerts != len(sharded.Alerts()) {
		t.Fatalf("stats alerts %d, want %d", stats.Stats.Alerts, len(sharded.Alerts()))
	}
}

func ptrBox(b query.Box) *query.Box { return &b }

// TestQueryDuringIngest exercises the daemon's serving mode: the query
// surface answering concurrently with the dataflow (run under -race in
// CI). Answers must be internally consistent snapshots, not torn reads.
func TestQueryDuringIngest(t *testing.T) {
	run := simTraffic(t, 31, 20, 20*time.Minute)
	pcfg := core.Config{Zones: run.Config.World.Zones}
	e := New(Config{Pipeline: pcfg, Shards: 3})
	ctx := context.Background()
	e.Start(ctx)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range e.Alerts() {
		}
	}()
	stop := make(chan struct{})
	var queried sync.WaitGroup
	box := query.BoxOf(run.Config.World.Bounds)
	for w := 0; w < 3; w++ {
		queried.Add(1)
		go func() {
			defer queried.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, req := range []query.Request{
					{Kind: query.KindLivePicture, Box: &box},
					{Kind: query.KindSpaceTime, Box: &box},
					{Kind: query.KindStats},
					{Kind: query.KindNearest, Lat: 38, Lon: 15, K: 3},
					{Kind: query.KindSituation, Box: &box, Rows: 4, Cols: 8},
				} {
					if _, err := e.Query(req); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	for i := range run.Positions {
		o := &run.Positions[i]
		e.Ingest(ctx, o.At, &o.Report)
	}
	e.Close()
	<-drained
	close(stop)
	queried.Wait()
	// After quiescing, the surface must report the complete picture.
	res, err := e.Query(query.Request{Kind: query.KindStats})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range e.Sharded().Shards {
		total += p.Store.Len()
	}
	if res.Stats.Points != total {
		t.Fatalf("post-quiesce stats %d points, shards hold %d", res.Stats.Points, total)
	}
}

// BenchmarkStartLines replays a feed shaped like the repo benchmark's
// (bench/feed.go: 2000 vessels of the Mediterranean world, default anomaly
// profile, the daemon's synopsis tolerance) as NMEA lines through a fresh
// engine per op, at one and two shards: decode, handoff and pipelines, the
// in-process half of maritimed's replay.
func BenchmarkStartLines(b *testing.B) {
	cfg := sim.Config{Seed: 1, World: sim.MediterraneanWorld(1), NumVessels: 2000, Duration: 5 * time.Minute, TickSec: 2}
	cfg.DefaultAnomalyRates()
	run, err := sim.Simulate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var feed []Line
	at := time.Date(2017, 3, 21, 0, 0, 0, 0, time.UTC)
	for i := range run.Positions {
		lines, err := ais.EncodeSentences(&run.Positions[i].Report, i, "A")
		if err != nil {
			b.Fatal(err)
		}
		for _, l := range lines {
			at = at.Add(100 * time.Millisecond)
			feed = append(feed, Line{At: at, Text: l})
		}
	}
	pcfg := core.Config{Zones: cfg.World.Zones, SynopsisToleranceM: 60}
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ctx := context.Background()
				e := New(Config{Pipeline: pcfg, Shards: shards})
				e.Start(ctx)
				lines := make(chan Line, 1024) // cmd/maritimed's reader buffer
				e.StartLines(ctx, lines, nil)
				go func() {
					for _, l := range feed {
						lines <- l
					}
					close(lines)
				}()
				for range e.Alerts() {
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(feed)), "ns/line")
		})
	}
}

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
var (
	ingestBenchOnce sync.Once
	ingestBenchRun  *sim.Run
)

func benchmarkIngestSharded(b *testing.B, shards int) {
	ingestBenchOnce.Do(func() { ingestBenchRun = simTraffic(b, 42, 2500, 20*time.Minute) })
	run := ingestBenchRun
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(Config{
			Pipeline: core.Config{Zones: run.Config.World.Zones, SynopsisToleranceM: 60},
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
