package main

import (
	"context"
	"fmt"
	"path/filepath"
)

// Traced runs add two things to the workload's own session: a sweep of
// every query variant against the quiet daemon (ingest workloads run it
// after the feed, tracedSweepN requests per variant), and a block that is
// the same for every workload — the in-process layer stages, a 1-proc
// daemon pass over the same lines, and a rate ladder.
const tracedSweepN = 20

// ladderRates are the offered rates of the ladder session, one step
// each; the first is live_paced's.
var ladderRates = []int{liveRate, 30000, 40000}

// lagLimitMS is the stream-lag p90 a rate must meet to count as sustained.
const lagLimitMS = 50

// runTraced is the -trace 1 run: the workload with client spans on, then
// the common block, then every per-layer metric by name.
func (su *suite) runTraced(ctx context.Context, workload, outDir string) (*outcome, error) {
	o, p, runs, err := su.runWorkload(ctx, workload)
	if err != nil {
		return nil, err
	}
	lr, err := runLayers(ctx, su.tr, su.work, p.feed, min(su.sc.traceLines, p.feed.lines()), su.nproc)
	if err != nil {
		return nil, err
	}
	onep, err := su.oneProc(ctx, p.feed, lr)
	if err != nil {
		return nil, err
	}
	lad, err := su.ladder(ctx, p.feed)
	if err != nil {
		return nil, err
	}
	o.attempted += onep.sum.lines + lad.sum.lines
	o.failed += onep.failed + lad.failed + lad.dropped
	o.layer = append(o.layer, lr.metrics...)
	o.layer = append(o.layer, sessionLayers(workload, p, runs)...)
	o.layer = append(o.layer, ladderLayers(onep, lad)...)
	o.layer = append(o.layer, metric{"bench.trace_spans", float64(su.tr.len()), "count", su.tr.len()})
	if err := su.tr.write(outDir); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	return o, nil
}

// oneProc replays the lines the layer stages used into `GOMAXPROCS=1
// maritimed -shards 1`: the single-threaded baseline, and the one pass
// whose alert count is comparable with a single in-process pipeline's.
func (su *suite) oneProc(ctx context.Context, f *feed, lr *layerRun) (*sessionResult, error) {
	sp := su.tr.start("one_proc", 0)
	defer func() { su.tr.end(sp, len(lr.lines)) }()
	res, err := runSession(ctx, su.bin, sessionSpec{
		args: []string{"-shards", "1"}, env: []string{"GOMAXPROCS=1"},
		feed: f, lines: len(lr.lines), bare: true,
		tr: su.tr, parent: sp,
	})
	if err != nil {
		return nil, fmt.Errorf("1-proc pass: %w", err)
	}
	if res.sum.alerts != lr.alerts {
		return nil, fmt.Errorf("check failed: 1-proc daemon raised %d alerts, one in-process pipeline %d on the same %d lines",
			res.sum.alerts, lr.alerts, len(lr.lines))
	}
	return res, nil
}

// ladder offers live_paced's daemon the ladder rates in turn. A feed too
// short for them (the toy scale) scales every rate down alike.
func (su *suite) ladder(ctx context.Context, f *feed) (*sessionResult, error) {
	sp := su.tr.start("ladder", 0)
	defer func() { su.tr.end(sp, len(ladderRates)) }()
	total := 0
	for _, r := range ladderRates {
		total += int(float64(r) * su.sc.ladderStep.Seconds())
	}
	rates := append([]int(nil), ladderRates...)
	if total > f.lines() {
		for i := range rates {
			rates[i] = rates[i] * f.lines() / total
		}
	}
	lines := 0
	for _, r := range rates {
		lines += int(float64(r) * su.sc.ladderStep.Seconds())
	}
	res, err := runSession(ctx, su.bin, sessionSpec{
		args: su.daemonArgs(wLivePaced, filepath.Join(su.work, "ladder")),
		feed: f, mixFeed: f, lines: lines, rate: rates, stepFor: su.sc.ladderStep,
		probe: feedProbe, probeEvery: probeEvery, stateBox: wideBox, pollHz: livePoll,
		tr: su.tr, parent: sp,
	})
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	return res, nil
}

// sessionLayers are the per-layer metrics taken from the workload's own
// sessions: the daemon's counters just before stdin closed (S; a series
// of a layer the daemon does not run reads 0), and what the bench's
// clients timed (C).
func sessionLayers(workload string, p *prepared, all []*sessionResult) []metric {
	runs := loaded(all) // replay_max's bare passes had no client to time
	last := runs[len(runs)-1]
	fin := last.final
	var out []metric
	add := func(name string, v float64, unit string, n int) { out = append(out, metric{name, v, unit, n}) }

	waits := int(fin["ingest_shard_wait_ns_count"])
	add("ingest.shard_wait_p50_us", fin[`ingest_shard_wait_ns{quantile="0.5"}`]/1e3, "us", waits)
	batches := fin["ingest_batch_size_count"]
	add("ingest.batch_size_mean", fin["ingest_batch_size_sum"]/max(batches, 1), "count", int(batches))
	add("ingest.queue_depth_max", last.depthMax, "count", len(last.scrapeMS))
	add("query.hub_publish_p50_us", fin[`hub_publish_ns{quantile="0.5"}`]/1e3, "us", int(fin["hub_publish_ns_count"]))
	add("store.flush_batch_p50_us", fin[`store_flush_batch_ns{quantile="0.5"}`]/1e3, "us", int(fin["store_flush_batch_ns_count"]))
	add("store.wal_append_p50_us", fin[`store_wal_append_ns{quantile="0.5"}`]/1e3, "us", int(fin["store_wal_append_ns_count"]))
	add("store.sealed_segments", fin["store_wal_sealed_segments"], "count", 1)
	add("store.disk_bytes_per_rec", p.diskPerRec, "B", p.diskRecs)
	add("store.preload_msgs_per_s", p.preloadRate, "msg/s", p.preloadN)
	hits, misses := fin["tier_cache_hits_total"], fin["tier_cache_misses_total"]
	add("tier.cache_hit_ratio", hits/max(hits+misses, 1), "ratio", int(hits+misses))
	add("tier.fetched_bytes", fin["tier_fetched_bytes_total"], "B", int(fin["tier_fetches_total"]))
	add("tier.paged_points", fin["tier_paged_points_total"], "count", int(fin["tier_pageins_total"]))
	add("tier.evicted_vessels", fin["tier_evicted_vessels"], "count", 1)

	// Per variant: what the client saw against the quiet daemon, and the
	// daemon's own engine time for the same requests.
	var overhead []float64
	for v := variant(0); v < numVariants; v++ {
		http := pooled(runs, func(r *sessionResult) []float64 { return r.sweepUS[v] })
		engine := pooled(runs, func(r *sessionResult) []float64 { return []float64{r.engineUS[v]} })
		add("query."+v.String()+".http_p50_us", median(http), "us", len(http))
		add("query."+v.String()+".engine_mean_us", mean(engine), "us", len(http))
		overhead = append(overhead, mean(http)-mean(engine))
	}
	add("query.http_overhead_us", median(overhead), "us", len(overhead))
	plain := pooled(runs, func(r *sessionResult) []float64 { return r.plainUS })
	traced := pooled(runs, func(r *sessionResult) []float64 { return r.tracedUS })
	add("query.trace_overhead_share", (median(traced)-median(plain))/median(plain), "ratio", len(traced))
	scrapes := pooled(runs, func(r *sessionResult) []float64 { return r.scrapeMS })
	add("obs.scrape_ms", median(scrapes), "ms", len(scrapes))

	readies := pooled(all, func(r *sessionResult) []float64 { return []float64{r.readyS} })
	add("maritimed.ready_s", median(readies), "s", len(readies))
	// The tails the end-to-end list leaves out: they do not repeat within
	// a bound on a shared 2-core box (see README).
	s := pool(workload, runs)
	add("maritimed.stream_lag_p90_ms", quantile(s.streamLag, 0.9), "ms", len(s.streamLag))
	add("maritimed.stream_lag_p95_ms", quantile(s.streamLag, 0.95), "ms", len(s.streamLag))
	add("maritimed.stream_lag_p99_ms", quantile(s.streamLag, 0.99), "ms", len(s.streamLag))
	add("maritimed.visible_lag_p90_ms", quantile(s.visible, 0.9), "ms", len(s.visible))
	add("maritimed.point_query_p90_ms", quantile(s.point, 0.9), "ms", len(s.point))
	add("maritimed.scan_query_p90_ms", quantile(s.scan, 0.9), "ms", len(s.scan))
	updates, busy := 0, 0.0
	for _, r := range runs {
		updates += r.updates
		busy += r.feedS
	}
	add("maritimed.stream_updates_per_s", float64(updates)/busy, "1/s", updates)
	polls := pooled(runs, func(r *sessionResult) []float64 { return r.pollLateMS })
	add("bench.poll_late_p99_ms", quantile(polls, 0.99), "ms", len(polls))
	return out
}

// ladderLayers are the common block's daemon-side metrics: the 1-proc
// capacity, lag at each ladder step, the highest sustained step, and how
// late the bench's own generator ran at live_paced's rate.
func ladderLayers(onep, lad *sessionResult) []metric {
	var out []metric
	add := func(name string, v float64, unit string, n int) { out = append(out, metric{name, v, unit, n}) }
	add("maritimed.ingest_msgs_per_s_1p", float64(onep.sum.messages)/onep.feedS, "msg/s", onep.sum.messages)
	sustained := 0
	for k := range lad.rates {
		lag, late := lad.streamLagMS[k], lad.genLateMS[k]
		p90 := quantile(lag, 0.9)
		if k > 0 {
			suffix := []string{"", ".r30k", ".r40k"}[k]
			add("maritimed.ladder_lag_p50_ms"+suffix, quantile(lag, 0.5), "ms", len(lag))
			add("maritimed.ladder_lag_p90_ms"+suffix, p90, "ms", len(lag))
		}
		// Lateness grows when the pipe stalls the writer for good: the
		// second half of the step then runs later than the first.
		half := len(late) / 2
		growing := median(append([]float64(nil), late[half:]...)) > median(append([]float64(nil), late[:half]...))+1
		if p90 <= lagLimitMS && !growing && sustained == k {
			sustained = k + 1
		}
	}
	rate := 0.0
	if sustained > 0 {
		rate = float64(lad.rates[sustained-1])
	}
	add("maritimed.sustained_lines_per_s", rate, "lines/s", len(lad.rates))
	late := lad.genLateMS[0]
	add("bench.gen_late_p99_ms", quantile(late, 0.99), "ms", len(late))
	add("bench.gen_late_max_ms", maxOf(late), "ms", len(late))
	return out
}
