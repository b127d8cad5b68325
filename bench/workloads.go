package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/geo"
)

// The four workloads, in BENCHMARK.json order.
const (
	wReplayMax     = "replay_max"
	wLivePaced     = "live_paced"
	wQueryResident = "query_resident"
	wQueryEvicted  = "query_evicted"
)

var workloadNames = []string{wReplayMax, wLivePaced, wQueryResident, wQueryEvicted}

// Fixed load parameters. Rates are per second. Poll rates are primes, so
// that a poll schedule never locks phase with the probe lines' (a probe
// line would then always land just before, or just after, a poll).
const (
	liveRate    = 20000 // live_paced offered lines/s
	trickleRate = 500   // query workloads' probe-only feed
	mixRate     = 20    // watch-floor mix beside a feed
	replayPoll  = 199   // probe polls beside the replay
	livePoll    = 487   // beside the paced feed and the trickle
	queryers    = 1     // closed-loop clients of the archive mix; see README for why not 2
	sweepN      = 50    // verified requests per variant on a preloaded archive
)

// wideBox is live_paced's subscription: the central Mediterranean.
var wideBox = geo.Rect{MinLat: 36, MinLon: 10, MaxLat: 40, MaxLon: 16}

// suite carries what every workload of one invocation shares.
type suite struct {
	bin     string // built maritimed
	work    string // scratch directory, removed when the suite closes
	sc      scale
	seed    int64
	seconds int
	nproc   int
	tr      *tracer // nil on end-to-end runs
}

// dirs names where a run reads the source from and where it may write.
type dirs struct {
	root  string // the checkout: cmd/maritimed is built from here
	build string // the daemon binary and the per-run work directories go here
}

// checkoutDirs are the directories of a run from the checkout root.
var checkoutDirs = dirs{root: ".", build: ".bench_build"}

func newSuite(ctx context.Context, at dirs, sc scale, seed int64, seconds int, tr *tracer) (*suite, error) {
	bin, err := buildDaemon(ctx, at)
	if err != nil {
		return nil, err
	}
	base := filepath.Join(at.build, "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	return &suite{bin: bin, work: work, sc: sc, seed: seed, seconds: seconds,
		nproc: runtime.GOMAXPROCS(0), tr: tr}, nil
}

func (su *suite) close() error { return os.RemoveAll(su.work) }

// outcome is what one workload run reports.
type outcome struct {
	e2e       []metric
	layer     []metric // traced runs only
	attempted int
	failed    int
}

// prepared is a workload's set-up: the seeded feed and, for the query
// workloads, the preloaded archive with its reference answers.
type prepared struct {
	feed    *feed
	archive string
	want    map[variant][][]byte
	setupS  float64
	// Per-layer by-products of set-up.
	preloadRate float64 // msg/s of the preload replay; 0 without one
	preloadN    int     // messages behind preloadRate
	diskPerRec  float64
	diskRecs    int // records behind diskPerRec
}

// daemonArgs are the flags the workload's measured daemon runs with.
func (su *suite) daemonArgs(workload, dir string) []string {
	switch workload {
	case wLivePaced:
		return []string{"-data-dir", dir, "-fsync", "rotate", "-track", "-anomaly"}
	case wQueryResident:
		return []string{"-data-dir", dir}
	case wQueryEvicted:
		return []string{"-data-dir", dir, "-mem-budget", su.sc.budget}
	}
	return nil
}

// prepare is the part of set-up that comes before the workload's daemon
// starts: generate the feed and its reference and, for the query
// workloads, preload the archive and compute the reference answers. The
// daemon's own start (and on query_evicted the wait for eviction to
// settle) is the rest of setup_s; endToEnd adds it.
func (su *suite) prepare(ctx context.Context, workload string) (*prepared, error) {
	sp := su.tr.start("setup", 0)
	defer func() { su.tr.end(sp, 1) }()
	t0 := time.Now()
	f, err := genFeed(su.seed, su.sc)
	if err != nil {
		return nil, err
	}
	p := &prepared{feed: f}
	if workload == wQueryResident || workload == wQueryEvicted {
		p.archive = filepath.Join(su.work, "archive")
		if err := su.preload(ctx, p); err != nil {
			return nil, err
		}
		if p.want, err = residentAnswers(ctx, p.archive, su.seed, f, su.nproc, sweepN); err != nil {
			return nil, err
		}
	}
	p.setupS = time.Since(t0).Seconds()
	return p, nil
}

// preload replays the whole feed into a fresh `maritimed -data-dir`.
func (su *suite) preload(ctx context.Context, p *prepared) error {
	f := p.feed
	d, err := startDaemon(ctx, su.bin, nil, "-data-dir", p.archive)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := d.stdin.Write(f.buf); err != nil {
		d.kill()
		return fmt.Errorf("preloading: %w (%v)", err, d.alive())
	}
	sum, err := d.finish()
	if err != nil {
		return err
	}
	want := f.ref[f.lines()]
	if sum.messages != int(want.messages) || sum.archived != int(want.archived) || sum.undecodable != 0 {
		return fmt.Errorf("check failed: preload summary %+v, reference %d messages, %d archived", sum, want.messages, want.archived)
	}
	p.preloadRate, p.preloadN = float64(sum.messages)/time.Since(t0).Seconds(), sum.messages
	p.diskRecs = sum.archived
	bytes, err := dirBytes(p.archive)
	if err != nil {
		return err
	}
	p.diskPerRec = float64(bytes) / float64(sum.archived)
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// spec builds the workload's session over the prepared inputs. bare is
// replay_max's capacity pass: the feed and nothing else.
func (su *suite) spec(workload string, p *prepared, parent int, bare bool) sessionSpec {
	f := p.feed
	spec := sessionSpec{
		feed: f, mixFeed: f, lines: f.lines(), bare: bare,
		probe: feedProbe, probeEvery: probeEvery, stateBox: feedProbe.box(),
		mixSeed: su.seed, tr: su.tr, parent: parent,
	}
	window := time.Duration(su.seconds) * time.Second
	switch workload {
	case wReplayMax:
		if !bare {
			spec.pollHz, spec.mixHz = replayPoll, mixRate
		}
	case wLivePaced:
		// A feed too short for the full rate (the toy scale) is paced to
		// last the window instead.
		rate := min(liveRate, f.lines()/su.seconds)
		spec.args = su.daemonArgs(workload, filepath.Join(su.work, "live"))
		spec.rate, spec.stepFor = []int{rate}, window
		spec.lines = rate * su.seconds
		spec.stateBox, spec.alertsSub = wideBox, true
		spec.pollHz, spec.mixHz = livePoll, mixRate
	default:
		// The window splits: reads first with stdin idle, then a fifth of it
		// (at least 1 s) for the probe trickle that gives the lag metrics.
		fresh := max(time.Second, window/5)
		spec.args = su.daemonArgs(workload, p.archive)
		spec.feed = trickleFeed(int(fresh.Seconds() * trickleRate))
		spec.lines = spec.feed.lines()
		spec.rate, spec.stepFor = []int{trickleRate}, fresh
		spec.mixFor = window - fresh
		spec.probe, spec.probeEvery, spec.stateBox = trickleProbe, 1, trickleProbe.box()
		spec.pollHz, spec.mixClients = livePoll, queryers
		spec.sweepN, spec.sweepBefore, spec.want = sweepN, true, p.want
		spec.settle = workload == wQueryEvicted
	}
	if su.tr != nil && spec.sweepN == 0 && !bare {
		spec.sweepN = tracedSweepN
	}
	return spec
}

// runWorkload is one measured run: set-up, then the workload's sessions
// for su.seconds, then the end-to-end metrics.
func (su *suite) runWorkload(ctx context.Context, workload string) (*outcome, *prepared, []*sessionResult, error) {
	p, err := su.prepare(ctx, workload)
	if err != nil {
		return nil, nil, nil, err
	}
	return su.runPrepared(ctx, workload, p)
}

// runPrepared is runWorkload after set-up.
func (su *suite) runPrepared(ctx context.Context, workload string, p *prepared) (*outcome, *prepared, []*sessionResult, error) {
	wsp := su.tr.start("workload."+workload, 0)
	var runs []*sessionResult
	session := func(bare bool) error {
		res, err := runSession(ctx, su.bin, su.spec(workload, p, wsp, bare))
		if err != nil {
			return fmt.Errorf("%s: %w", workload, err)
		}
		runs = append(runs, res)
		return nil
	}
	if workload == wReplayMax {
		// The whole feed into a fresh daemon, pass after pass. Bare passes
		// for half of the window (at least two) give the ingest
		// capacity; loaded passes for the rest (at least one) put a
		// subscriber, the probe polls and the watch-floor mix beside the
		// saturated pipeline and give every other metric.
		window := time.Duration(su.seconds) * time.Second
		t0 := time.Now()
		for len(runs) < 2 || time.Since(t0) < window/2 {
			if err := session(true); err != nil {
				return nil, nil, nil, err
			}
		}
		for bare := len(runs); len(runs) == bare || time.Since(t0) < window; {
			if err := session(false); err != nil {
				return nil, nil, nil, err
			}
		}
	} else if err := session(false); err != nil {
		return nil, nil, nil, err
	}
	su.tr.end(wsp, len(runs))
	if workload == wLivePaced {
		bytes, err := dirBytes(filepath.Join(su.work, "live"))
		if err != nil {
			return nil, nil, nil, err
		}
		p.diskPerRec, p.diskRecs = float64(bytes)/float64(runs[0].sum.archived), runs[0].sum.archived
		if late := quantile(runs[0].genLateMS[0], 0.99); late > 5 {
			return nil, nil, nil, fmt.Errorf("generator ran %.1f ms late at p99 (limit 5 ms): the instrument, not the daemon, was the bottleneck", late)
		}
	}
	out, err := su.endToEnd(workload, p, runs)
	return out, p, runs, err
}

// loaded are the sessions that had readers beside the feed: all of them,
// except replay_max's bare passes.
func loaded(runs []*sessionResult) []*sessionResult {
	var out []*sessionResult
	for _, r := range runs {
		if !r.bare {
			out = append(out, r)
		}
	}
	return out
}

// pooled concatenates one per-step sample (step 0) across sessions.
func pooled(runs []*sessionResult, pick func(*sessionResult) []float64) []float64 {
	var all []float64
	for _, r := range runs {
		all = append(all, pick(r)...)
	}
	return all
}

// classMS pools the window mix latencies of one class.
func classMS(runs []*sessionResult, class []variant) []float64 {
	return pooled(runs, func(r *sessionResult) []float64 {
		var all []float64
		for _, v := range class {
			all = append(all, r.mixMS[v]...)
		}
		return all
	})
}

// samples are a workload's pooled latency samples, first rate step only.
type samples struct {
	streamLag, visible, point, scan []float64
}

// pool gathers the samples the lag and query metrics are quantiles of.
// Point reads are the probe polls beside an ingest workload (whose
// watch-floor mix is all scans) and the mix's own point class on an
// archive.
func pool(workload string, runs []*sessionResult) samples {
	s := samples{
		streamLag: pooled(runs, func(r *sessionResult) []float64 { return r.streamLagMS[0] }),
		visible:   pooled(runs, func(r *sessionResult) []float64 { return r.visibleLagMS[0] }),
	}
	if workload == wQueryResident || workload == wQueryEvicted {
		s.point, s.scan = classMS(runs, pointVariants), classMS(runs, scanVariants)
		return s
	}
	s.point = pooled(runs, func(r *sessionResult) []float64 { return r.pollMS })
	s.scan = append(classMS(runs, pointVariants), classMS(runs, scanVariants)...)
	return s
}

// endToEnd folds the sessions into the end-to-end metrics. Every workload
// reports every metric; README.md says what each one means on each
// workload.
func (su *suite) endToEnd(workload string, p *prepared, runs []*sessionResult) (*outcome, error) {
	out := &outcome{}
	// Rate and memory are the capacity configuration's on replay_max (its
	// bare passes), the one session's elsewhere.
	var rates, rss []float64
	for _, r := range runs {
		out.attempted += r.sum.lines + r.queries + r.delivered + r.dropped
		out.failed += r.failed + r.dropped + r.sum.undecodable
		for v := range r.sweepUS {
			out.attempted += len(r.sweepUS[v])
		}
		if r.bare == (workload == wReplayMax) {
			rates = append(rates, float64(r.sum.messages)/r.feedS)
			rss = append(rss, r.rssMB)
		}
	}
	var busyS float64
	queries := 0
	for _, r := range loaded(runs) {
		busyS += r.feedS
		queries += r.queries
	}
	s := pool(workload, runs)
	for i, sample := range [][]float64{s.streamLag, s.visible, s.point, s.scan} {
		if len(sample) == 0 {
			return nil, fmt.Errorf("%s: no %s samples; the run measured nothing", workload,
				[]string{"stream lag", "visible lag", "point query", "scan query"}[i])
		}
	}
	qps := float64(queries) / busyS
	if workload == wQueryResident || workload == wQueryEvicted {
		qps = float64(runs[0].mixN) / runs[0].readS
	}
	out.e2e = []metric{
		{"setup_s", p.setupS + runs[0].readyS + runs[0].settleS, "s", 1},
		{"ingest_msgs_per_s", median(rates), "msg/s", len(rates)},
		{"stream_lag_p50_ms", quantile(s.streamLag, 0.5), "ms", len(s.streamLag)},
		{"visible_lag_p50_ms", quantile(s.visible, 0.5), "ms", len(s.visible)},
		{"point_query_p50_ms", quantile(s.point, 0.5), "ms", len(s.point)},
		{"scan_query_p50_ms", quantile(s.scan, 0.5), "ms", len(s.scan)},
		{"queries_per_s", qps, "1/s", queries},
		{"rss_peak_mb", median(rss), "MB", len(rss)},
	}
	return out, nil
}
