package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/query"
)

// sessionSpec is one daemon's life under load: what it is started with,
// what is written to its stdin and how fast, and who reads from it
// meanwhile. Every workload is one or more sessions.
type sessionSpec struct {
	args []string // maritimed flags after the fixed front
	env  []string // extra environment (GOMAXPROCS=1 for the 1-proc pass)

	feed  *feed
	lines int // how many leading feed lines are written
	// mixFeed is the feed whose vessels, places and times the query mixes
	// draw from: the archive's, which is not what a query workload writes.
	mixFeed *feed
	// settle waits, before anything is measured, until a -mem-budget
	// daemon has evicted down to its budget.
	settle bool
	// rate is the open-loop schedule in lines/s, one step per entry, each
	// lasting stepFor. Empty means closed loop: the whole span at full
	// speed, paced only by the pipe's back-pressure.
	rate    []int
	stepFor time.Duration

	// bare sessions only feed: no subscriber, no poller, no mix. The
	// daemon's closing summary is all they are checked against.
	bare bool

	probe      probe
	probeEvery int      // every probeEvery-th line is a probe report
	stateBox   geo.Rect // box of the state subscriber whose updates give stream lag
	alertsSub  bool     // also hold an `alerts` subscription (load only)
	pollHz     int      // fixed-schedule `live` polls on the probe's box

	mixHz int // open-loop watch-floor mix beside the feed; 0 = none
	// mixClients closed-loop clients issue the archive mix for mixFor
	// before the feed starts, stdin idle, so that reads are measured
	// without a writer invalidating what they cache; 0 = none.
	mixClients int
	mixFor     time.Duration
	mixSeed    int64

	// sweep, when set, issues sweepN requests of every variant against the
	// quiet daemon: before the feed when the archive is preloaded (then
	// want holds the reference answers), after it otherwise.
	sweepN      int
	sweepBefore bool
	want        map[variant][][]byte

	tr     *tracer // nil on end-to-end runs
	parent int     // span the session's spans hang under
}

// sessionResult is everything one session measured, in raw samples.
type sessionResult struct {
	bare    bool    // the spec's: nothing but the feed ran
	readyS  float64 // spawn → /readyz 200
	settleS float64 // ready → eviction settled (settle sessions only)
	feedS   float64 // first write → daemon quiesced
	sum     summary
	rssMB   float64
	final   map[string]float64 // /metrics just before stdin closed

	// Per rate step (one entry for closed loop).
	rates        []int
	streamLagMS  [][]float64
	visibleLagMS [][]float64
	genLateMS    [][]float64

	pollMS     []float64 // probe `live` polls, from due time
	pollLateMS []float64
	mixMS      [numVariants][]float64 // window mix latencies by variant
	sweepUS    [numVariants][]float64 // quiet-daemon latencies by variant
	engineUS   [numVariants]float64   // daemon-side mean over the sweep, from /metrics deltas
	tracedUS   []float64              // sweep re-sent with trace:true
	plainUS    []float64              // the same requests without
	scrapeMS   []float64

	queries   int     // issued: mix and polls
	mixN      int     // of them, mix requests answered
	readS     float64 // length of the closed-loop mix phase
	failed    int     // non-2xx or transport errors, window and sweep
	delivered int     // state updates received on the state subscriber
	dropped   int     // subscriber drops reported by heartbeats
	updates   int     // every update line received, all subscribers
	depthMax  float64
}

// clock is the session's monotonic time base.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

func (c clock) sleepUntil(ns int64) {
	if d := time.Duration(ns - c.now()); d > 0 {
		time.Sleep(d)
	}
}

// waitUntil is sleepUntil for a load goroutine: it returns false at once
// when ctx ends, so that stopping the load never waits out a schedule's
// period (which would be counted as feed time).
func (c clock) waitUntil(ctx context.Context, ns int64) bool {
	d := time.Duration(ns - c.now())
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// schedule maps a feed line to the instant it was due at the daemon's
// stdin. Open loop: the fixed timetable, whatever the writer managed.
// Closed loop: the instant the write carrying the line began.
type schedule struct {
	stepStart []int64 // ns on the session clock, per rate step
	stepLine  []int   // first line of each step
	rate      []int
	chunk     int            // closed loop: lines per write
	chunkAt   []atomic.Int64 // closed loop: write start per chunk
	written   atomic.Int64   // lines handed to the pipe so far
}

func (s *schedule) step(line int) int {
	k := 0
	for k+1 < len(s.stepLine) && line >= s.stepLine[k+1] {
		k++
	}
	return k
}

func (s *schedule) due(line int) int64 {
	if len(s.rate) == 0 {
		return s.chunkAt[line/s.chunk].Load()
	}
	k := s.step(line)
	return s.stepStart[k] + int64(line-s.stepLine[k])*int64(time.Second)/int64(s.rate[k])
}

// closedChunk is the closed-loop write size in lines (~19 KB, under the
// 64 KB pipe so one write rarely spans a stall).
const closedChunk = 400

// session is the running state of one sessionSpec.
type session struct {
	spec  sessionSpec
	d     *daemon
	clk   clock
	sched schedule
	res   sessionResult

	mu       sync.Mutex // guards res slices appended from reader goroutines
	firstErr error
}

func (s *session) fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.firstErr == nil {
		s.firstErr = err
	}
}

func (s *session) err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.firstErr
}

// runSession starts the daemon, drives it as spec says, checks what came
// back against what went in, stops the daemon and returns the samples.
func runSession(ctx context.Context, bin string, spec sessionSpec) (*sessionResult, error) {
	sp := spec.tr.start("session", spec.parent)
	defer func() { spec.tr.end(sp, spec.lines) }()
	d, err := startDaemon(ctx, bin, spec.env, spec.args...)
	if err != nil {
		return nil, err
	}
	s := &session{spec: spec, d: d, clk: clock{base: time.Now()}}
	s.spec.parent = sp
	s.res.bare, s.res.readyS = spec.bare, d.readyAfter.Seconds()
	if err := s.run(ctx); err != nil {
		d.kill()
		return nil, err
	}
	return &s.res, nil
}

func (s *session) run(ctx context.Context) error {
	spec := &s.spec
	steps := len(spec.rate)
	if steps == 0 {
		steps = 1
	}
	s.res.rates = spec.rate
	s.res.streamLagMS = make([][]float64, steps)
	s.res.visibleLagMS = make([][]float64, steps)
	s.res.genLateMS = make([][]float64, steps)

	if spec.settle {
		if err := s.settle(ctx); err != nil {
			return err
		}
	}
	if spec.sweepN > 0 && spec.sweepBefore {
		if err := s.sweep(ctx); err != nil {
			return err
		}
	}

	// Readers attach before the first line is written. A bare session has
	// none: its daemon only ingests.
	subCtx, stopSubs := context.WithCancel(ctx)
	defer stopSubs()
	var subs sync.WaitGroup
	var state *subscriber
	var all []*subscriber
	if !spec.bare {
		state = &subscriber{s: s, lag: true}
		all = append(all, state)
		if spec.alertsSub {
			all = append(all, &subscriber{s: s})
		}
	}
	for i, sub := range all {
		req := query.Request{Kind: query.KindSpaceTime, Box: boxOf(spec.stateBox)}
		if i > 0 {
			req = query.Request{Kind: query.KindAlertHistory}
		}
		sub.opened = make(chan struct{})
		subs.Add(1)
		go func(sub *subscriber) {
			defer subs.Done()
			sub.read(subCtx, req)
		}(sub)
	}
	for _, sub := range all {
		select {
		case <-sub.opened:
		case <-time.After(10 * time.Second):
			return errors.New("stream subscription did not open within 10s")
		}
	}
	if err := s.err(); err != nil {
		return err
	}

	if spec.mixClients > 0 {
		reads := s.spec.tr.start("reads", s.spec.parent)
		readCtx, stopReads := context.WithTimeout(ctx, spec.mixFor)
		t0 := time.Now()
		var clients sync.WaitGroup
		for c := 0; c < spec.mixClients; c++ {
			clients.Add(1)
			go func(c int) { defer clients.Done(); s.closedMix(readCtx, c, reads) }(c)
		}
		clients.Wait()
		stopReads()
		s.res.readS = time.Since(t0).Seconds()
		s.spec.tr.end(reads, s.res.queries)
		if err := s.err(); err != nil {
			return err
		}
	}

	// Lay the timetable out, then start pollers, the open-loop mix and the
	// writer. The load runs until everything written is visible, not just
	// written: a feed the pipe swallows in milliseconds (the toy scale, the
	// tail of any closed-loop pass) is still in the daemon's queues when
	// the last write returns.
	s.layOut()
	loadCtx, stopLoad := context.WithCancel(ctx)
	defer stopLoad()
	var load sync.WaitGroup
	window := s.spec.tr.start("window", s.spec.parent)
	polled := make(chan struct{}) // closed once the poller has seen the last probe line
	if spec.pollHz > 0 {
		load.Add(1)
		go func() { defer load.Done(); s.poll(loadCtx, polled) }()
	} else {
		close(polled)
	}
	if spec.mixHz > 0 {
		load.Add(1)
		go func() { defer load.Done(); s.openMix(loadCtx, window) }()
	}
	if spec.tr != nil {
		load.Add(1)
		go func() { defer load.Done(); s.sample(loadCtx) }()
	}
	final, err := s.feedAndQuiesce(ctx, polled)
	stopLoad()
	load.Wait()
	s.spec.tr.end(window, s.res.queries)
	if err != nil {
		return err
	}
	if err := s.err(); err != nil {
		return err
	}
	if state != nil {
		if err := s.checkSubscriber(ctx, state, all); err != nil {
			return err
		}
	}

	if spec.sweepN > 0 && !spec.sweepBefore {
		if err := s.sweep(ctx); err != nil {
			return err
		}
		if final, err = s.d.scrape(ctx); err != nil {
			return err
		}
	}
	s.res.final = final
	if s.res.rssMB, err = s.d.rssPeakMB(); err != nil {
		return err
	}
	// Standing streams never drain on their own: cut them first, or the
	// daemon sits out its 5 s shutdown grace.
	stopSubs()
	subs.Wait()
	if s.res.sum, err = s.d.finish(); err != nil {
		return err
	}
	if err := s.err(); err != nil {
		return err
	}
	want, got := spec.feed.ref[spec.lines], s.res.sum
	if got.lines != spec.lines || got.messages != int(want.messages) || got.archived != int(want.archived) || got.undecodable != 0 {
		return fmt.Errorf("check failed: daemon summary %+v, reference %d lines, %d messages, %d archived, 0 undecodable",
			got, spec.lines, want.messages, want.archived)
	}
	return nil
}

// feedAndQuiesce writes the feed, waits until everything written has left
// the pipeline and the hub, and then until the poller has seen the last
// probe line. feedS ends at the quiesce.
func (s *session) feedAndQuiesce(ctx context.Context, polled <-chan struct{}) (map[string]float64, error) {
	if err := s.write(ctx); err != nil {
		return nil, err
	}
	final, err := s.quiesce(ctx)
	if err != nil {
		return nil, err
	}
	s.res.feedS = time.Duration(s.clk.now() - s.sched.stepStart[0]).Seconds()
	select {
	case <-polled:
	case <-time.After(5 * time.Second):
		return nil, errors.New("the last probe line did not show in a `live` poll within 5s of quiesce")
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return final, nil
}

// checkSubscriber holds the state subscriber to the reference: it saw
// exactly the records a one-shot replay of its box returns.
func (s *session) checkSubscriber(ctx context.Context, state *subscriber, all []*subscriber) error {
	// Two more heartbeats: every update published before the quiesce has
	// been read, and the drop count is current.
	hbSeen := state.heartbeats.Load()
	for deadline := time.Now().Add(5 * time.Second); state.heartbeats.Load() < hbSeen+2; {
		if time.Now().After(deadline) {
			return errors.New("no heartbeat on the state subscription within 5s of quiesce")
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.res.delivered = int(state.states.Load())
	s.res.dropped = int(state.dropped.Load())
	for _, sub := range all {
		s.res.updates += int(sub.lines.Load())
	}
	code, body, err := s.d.post(ctx, "/v1/query", encode(query.Request{
		Kind: query.KindSpaceTime, Box: boxOf(s.spec.stateBox), Limit: 1}))
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("final spacetime query: status %d, %v", code, err)
	}
	var inBox struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal(body, &inBox); err != nil {
		return fmt.Errorf("final spacetime answer: %w", err)
	}
	if inBox.Count != s.res.delivered+s.res.dropped {
		return fmt.Errorf("check failed: subscriber got %d updates (+%d dropped) but a spacetime query on its box counts %d",
			s.res.delivered, s.res.dropped, inBox.Count)
	}
	return nil
}

func boxOf(r geo.Rect) *query.Box {
	b := query.BoxOf(r)
	return &b
}

// layOut fixes the timetable 20 ms ahead so every goroutine starts level.
func (s *session) layOut() {
	spec := &s.spec
	start := s.clk.now() + int64(20*time.Millisecond)
	sc := &s.sched
	sc.rate = spec.rate
	if len(spec.rate) == 0 {
		sc.chunk = closedChunk
		sc.chunkAt = make([]atomic.Int64, spec.lines/closedChunk+1)
		sc.stepStart, sc.stepLine = []int64{start}, []int{0}
		return
	}
	line := 0
	for k, r := range spec.rate {
		sc.stepStart = append(sc.stepStart, start+int64(k)*int64(spec.stepFor))
		sc.stepLine = append(sc.stepLine, line)
		line += int(float64(r) * spec.stepFor.Seconds())
	}
}

// write feeds the daemon's stdin. The timed loops only slice the
// pre-encoded buffer and call Write.
func (s *session) write(ctx context.Context) error {
	spec, sc := &s.spec, &s.sched
	f := spec.feed
	sp := s.spec.tr.start("feed", s.spec.parent)
	defer func() { s.spec.tr.end(sp, spec.lines) }()
	s.clk.sleepUntil(sc.stepStart[0])
	if len(spec.rate) == 0 {
		for lo := 0; lo < spec.lines && ctx.Err() == nil; lo += closedChunk {
			hi := min(lo+closedChunk, spec.lines)
			sc.chunkAt[lo/closedChunk].Store(s.clk.now())
			sc.written.Store(int64(hi))
			if _, err := s.d.stdin.Write(f.span(lo, hi)); err != nil {
				return fmt.Errorf("writing feed: %w (%v)", err, s.d.alive())
			}
		}
		return ctx.Err()
	}
	written, end := 0, sc.stepStart[0]+int64(len(spec.rate))*int64(spec.stepFor)
	for ctx.Err() == nil {
		now := s.clk.now()
		k := len(spec.rate) - 1
		for k > 0 && now < sc.stepStart[k] {
			k--
		}
		target := spec.lines
		if now < end {
			target = min(spec.lines, sc.stepLine[k]+int((now-sc.stepStart[k])*int64(spec.rate[k])/int64(time.Second))+1)
		}
		if target > written {
			s.res.genLateMS[sc.step(written)] = append(s.res.genLateMS[sc.step(written)], float64(now-sc.due(written))/1e6)
			sc.written.Store(int64(target))
			if _, err := s.d.stdin.Write(f.span(written, target)); err != nil {
				return fmt.Errorf("writing feed: %w (%v)", err, s.d.alive())
			}
			written = target
		}
		if written >= spec.lines {
			return nil
		}
		// 1 ms write ticks.
		s.clk.sleepUntil(now + int64(time.Millisecond) - (now-sc.stepStart[0])%int64(time.Millisecond))
	}
	return ctx.Err()
}

// quiesce waits until the daemon has decoded every written line, every
// report has left the shard pipelines, and the flush stage and hub queues
// are empty, and returns that scrape.
func (s *session) quiesce(ctx context.Context) (map[string]float64, error) {
	deadline := time.Now().Add(60 * time.Second)
	want := s.spec.feed.ref[s.spec.lines]
	for {
		t0 := time.Now()
		m, err := s.d.scrape(ctx)
		if err != nil {
			return nil, fmt.Errorf("%w (%v)", err, s.d.alive())
		}
		s.res.scrapeMS = append(s.res.scrapeMS, float64(time.Since(t0))/1e6)
		// messages_out counts reports a shard has fully processed (tee
		// sinks included), so reaching the reference count means nothing
		// is left in decode, resequencer or shard queues.
		if int32(m["ingest_messages_out_total"]) == want.positions && int32(m["ingest_decoded_total"]) == want.messages &&
			int64(m["store_flush_out_total"]) == int64(m["store_flush_in_total"]) && m["hub_queue_depth"] == 0 {
			return m, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("daemon did not quiesce within 60s: decoded %v of %d messages, processed %v of %d reports",
				m["ingest_decoded_total"], want.messages, m["ingest_messages_out_total"], want.positions)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// settle returns once tier_evicted_vessels is non-zero and has not
// changed for a second: the eviction manager (2 s check cadence) has
// brought the recovered archive down to the budget.
func (s *session) settle(ctx context.Context) error {
	t0 := time.Now()
	last, since := 0, t0
	for time.Since(t0) < 30*time.Second {
		m, err := s.d.scrape(ctx)
		if err != nil {
			return fmt.Errorf("%w (%v)", err, s.d.alive())
		}
		if v := int(m["tier_evicted_vessels"]); v != last {
			last, since = v, time.Now()
		} else if v > 0 && time.Since(since) >= time.Second {
			s.res.settleS = time.Since(t0).Seconds()
			return nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	return errors.New("eviction did not settle within 30s of start")
}

// subscriber reads one /v1/stream body. It decodes only what lag needs:
// the update kind, state.at, and the heartbeats' dropped count.
type subscriber struct {
	s      *session
	lag    bool // record stream lag from state updates
	opened chan struct{}

	lines      atomic.Int64
	states     atomic.Int64
	dropped    atomic.Int64
	heartbeats atomic.Int64
}

var (
	kindState     = []byte(`"kind":"state"`)
	kindHeartbeat = []byte(`"kind":"heartbeat"`)
	kindError     = []byte(`"kind":"error"`)
	atKey         = []byte(`"at":"`)
	droppedKey    = []byte(`"dropped":`)
)

// eventTime extracts the first "at" timestamp of a JSON line.
func eventTime(line []byte) (time.Time, bool) {
	i := bytes.Index(line, atKey)
	if i < 0 {
		return time.Time{}, false
	}
	rest := line[i+len(atKey):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return time.Time{}, false
	}
	t, err := time.Parse(time.RFC3339Nano, string(rest[:j]))
	return t, err == nil
}

func (sub *subscriber) read(ctx context.Context, req query.Request) {
	s := sub.s
	// Whatever happens, the session must not wait for this stream to open.
	var once sync.Once
	opened := func() { once.Do(func() { close(sub.opened) }) }
	defer opened()
	body, err := json.Marshal(query.StreamRequest{
		Request: req, Buffer: 65536, Heartbeat: query.Duration(100 * time.Millisecond)})
	if err != nil {
		panic(err) // plain data
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, s.d.base+"/v1/stream", bytes.NewReader(body))
	if err != nil {
		s.fail(err)
		return
	}
	resp, err := s.d.http.Do(hreq)
	if err != nil {
		s.fail(fmt.Errorf("opening stream: %w", err))
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.fail(fmt.Errorf("opening stream: status %d", resp.StatusCode))
		return
	}
	br := bufio.NewReaderSize(resp.Body, 1<<18)
	var lags [][]float64
	if sub.lag {
		lags = make([][]float64, len(s.res.streamLagMS))
		defer func() {
			s.mu.Lock()
			s.res.streamLagMS = lags
			s.mu.Unlock()
		}()
	}
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			if ctx.Err() == nil {
				s.fail(fmt.Errorf("stream ended: %w (%v)", err, s.d.alive()))
			}
			return
		}
		recv := s.clk.now()
		opened() // the opening heartbeat: the subscription is live
		sub.lines.Add(1)
		switch {
		case bytes.Contains(line, kindState):
			sub.states.Add(1)
			if !sub.lag {
				continue
			}
			at, ok := eventTime(line)
			if !ok {
				s.fail(fmt.Errorf("state update without a time: %s", line))
				return
			}
			n := lineOf(at)
			if n < 0 || n >= s.spec.lines {
				s.fail(fmt.Errorf("state update for line %d, outside the %d written", n, s.spec.lines))
				return
			}
			k := s.sched.step(n)
			lags[k] = append(lags[k], float64(recv-s.sched.due(n))/1e6)
		case bytes.Contains(line, kindHeartbeat):
			if i := bytes.Index(line, droppedKey); i >= 0 {
				rest := line[i+len(droppedKey):]
				j := 0
				for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
					j++
				}
				n, _ := strconv.ParseInt(string(rest[:j]), 10, 64) // digits only
				sub.dropped.Store(n)
			}
			sub.heartbeats.Add(1)
		case bytes.Contains(line, kindError):
			s.fail(fmt.Errorf("stream failed server-side: %s", line))
			return
		}
	}
}

// poll asks for the probe's live state on a fixed schedule. A probe line
// is visible from the first answer whose `at` has reached it. polled is
// closed once the last probe line written has been seen; the polls go on
// until ctx ends.
func (s *session) poll(ctx context.Context, polled chan<- struct{}) {
	spec, sc := &s.spec, &s.sched
	body := encode(query.Request{Kind: query.KindLivePicture, Box: boxOf(spec.probe.box())})
	period := int64(time.Second) / int64(spec.pollHz)
	next := spec.probeEvery - 1 // first probe line not yet seen
	var lat, late []float64
	vis := make([][]float64, len(s.res.visibleLagMS))
	n, failed := 0, 0
	defer func() {
		s.mu.Lock()
		s.res.pollMS, s.res.pollLateMS, s.res.visibleLagMS = lat, late, vis
		s.res.queries += n
		s.res.failed += failed
		s.mu.Unlock()
	}()
	for j := int64(0); ; j++ {
		due := sc.stepStart[0] + j*period + period/2 // the mix goes on the whole periods
		if !s.clk.waitUntil(ctx, due) {
			return
		}
		sent := s.clk.now()
		code, resp, err := s.d.post(ctx, "/v1/query", body)
		recv := s.clk.now()
		if err != nil && ctx.Err() != nil {
			return // cut off by the end of the load, not failed
		}
		n++
		if err != nil || code != http.StatusOK {
			failed++
			continue
		}
		late = append(late, float64(sent-due)/1e6)
		lat = append(lat, float64(recv-due)/1e6)
		at, ok := eventTime(resp)
		if !ok {
			continue // the probe has not reported yet
		}
		for seen := lineOf(at); next <= seen && next < spec.lines; next += spec.probeEvery {
			k := sc.step(next)
			vis[k] = append(vis[k], float64(recv-sc.due(next))/1e6)
			if next+spec.probeEvery >= spec.lines {
				close(polled)
			}
		}
	}
}

// sample scrapes /metrics four times a second while the feed runs (traced
// runs only): the scrape's own cost, and the deepest ingest queue seen.
func (s *session) sample(ctx context.Context) {
	var ms []float64
	depth := 0.0
	defer func() {
		s.mu.Lock()
		s.res.scrapeMS = append(s.res.scrapeMS, ms...)
		s.res.depthMax = depth
		s.mu.Unlock()
	}()
	for tick := time.NewTicker(250 * time.Millisecond); ; {
		select {
		case <-ctx.Done():
			tick.Stop()
			return
		case <-tick.C:
		}
		t0 := time.Now()
		m, err := s.d.scrape(ctx)
		if err != nil {
			continue // the session's own checks report a dead daemon
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
		depth = max(depth, m["ingest_queue_depth"])
	}
}

// query issues one mix request and files its latency under the variant.
// from is the instant latency counts from: the due time on an open-loop
// schedule, the send time in a closed loop.
func (s *session) query(ctx context.Context, v variant, body []byte, from int64, parent int, into *[numVariants][]float64) bool {
	sp := s.spec.tr.start(v.span(), parent)
	code, _, err := s.d.post(ctx, "/v1/query", body)
	recv := s.clk.now()
	s.spec.tr.end(sp, 1)
	if err != nil && ctx.Err() != nil {
		return false // cut off by the end of the load, not failed
	}
	if err != nil || code != http.StatusOK {
		s.mu.Lock()
		s.res.failed++
		s.res.queries++
		s.mu.Unlock()
		return true
	}
	into[v] = append(into[v], float64(recv-from)/1e6)
	return true
}

// openMix issues the watch-floor mix on a fixed schedule.
func (s *session) openMix(ctx context.Context, parent int) {
	spec, sc := &s.spec, &s.sched
	m := newMixer(spec.mixSeed, spec.mixFeed)
	period := int64(time.Second) / int64(spec.mixHz)
	var got [numVariants][]float64
	defer func() { s.merge(&got) }()
	for j := int64(0); ; j++ {
		due := sc.stepStart[0] + j*period
		if !s.clk.waitUntil(ctx, due) {
			return
		}
		v, req := m.watchFloor(int(j), atOf(int(sc.written.Load())))
		if !s.query(ctx, v, encode(req), due, parent, &got) {
			return
		}
	}
}

// closedMix is one closed-loop client of the archive mix.
func (s *session) closedMix(ctx context.Context, client, parent int) {
	m := newMixer(s.spec.mixSeed+int64(client)*7919, s.spec.mixFeed)
	var got [numVariants][]float64
	defer func() { s.merge(&got) }()
	for j := 0; ctx.Err() == nil; j++ {
		v, req := m.archiveMix(j)
		if !s.query(ctx, v, encode(req), s.clk.now(), parent, &got) {
			return
		}
	}
}

func (s *session) merge(got *[numVariants][]float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for v := range got {
		s.res.mixMS[v] = append(s.res.mixMS[v], got[v]...)
		s.res.queries += len(got[v])
		s.res.mixN += len(got[v])
	}
}

// sweep issues sweepN seeded requests of every variant, one at a time,
// against the quiet daemon. With reference answers at hand each body must
// match byte for byte. Traced runs also read the daemon's own per-kind
// latency around each variant, and re-send part of the sweep with
// trace:true to price the tracing.
func (s *session) sweep(ctx context.Context) error {
	spec := &s.spec
	sp := spec.tr.start("sweep", spec.parent)
	defer func() { spec.tr.end(sp, spec.sweepN*int(numVariants)) }()
	reqs := sweepRequests(spec.mixSeed, spec.mixFeed, spec.sweepN)
	for v := variant(0); v < numVariants; v++ {
		var before map[string]float64
		var err error
		if spec.tr != nil {
			if before, err = s.d.scrape(ctx); err != nil {
				return err
			}
		}
		for i, req := range reqs[v] {
			t0 := s.clk.now()
			qs := spec.tr.start(v.span(), sp)
			code, body, err := s.d.post(ctx, "/v1/query", encode(req))
			spec.tr.end(qs, 1)
			if err != nil || code != http.StatusOK {
				return fmt.Errorf("sweep %s #%d: status %d, %v: %s", v, i, code, err, body)
			}
			s.res.sweepUS[v] = append(s.res.sweepUS[v], float64(s.clk.now()-t0)/1e3)
			if v == vStats {
				// The one field pair that by design tells the two daemons
				// apart: SourceStats reports them only once something is evicted.
				body = tierStatsRE.ReplaceAll(body, nil)
			}
			if spec.want != nil && !bytes.Equal(body, spec.want[v][i]) {
				return fmt.Errorf("check failed: %s #%d answers differently from the resident in-process reference:\n got %.300s\nwant %.300s",
					v, i, body, spec.want[v][i])
			}
		}
		if spec.tr != nil {
			after, err := s.d.scrape(ctx)
			if err != nil {
				return err
			}
			label := `{kind="` + string(v.kind()) + `"}`
			count, sum := "query_latency_ns_count"+label, "query_latency_ns_sum"+label
			if dn := after[count] - before[count]; dn > 0 {
				s.res.engineUS[v] = (after[sum] - before[sum]) / dn / 1e3
			}
		}
	}
	if spec.tr == nil {
		return nil
	}
	// Tracing overhead: the same requests, plain and traced.
	for v := variant(0); v < numVariants; v++ {
		for i, req := range reqs[v] {
			if i >= 10 {
				break
			}
			// Alternate which goes first, so neither always finds the
			// other's pages warm.
			for _, traced := range []bool{i%2 == 1, i%2 == 0} {
				req.Trace = traced
				t0 := s.clk.now()
				qs := spec.tr.start(v.span(), sp)
				code, body, err := s.d.post(ctx, "/v1/query", encode(req))
				end := s.clk.now()
				spec.tr.end(qs, 1)
				if err != nil || code != http.StatusOK {
					return fmt.Errorf("traced sweep %s #%d: status %d, %v", v, i, code, err)
				}
				if !traced {
					s.res.plainUS = append(s.res.plainUS, float64(end-t0)/1e3)
					continue
				}
				s.res.tracedUS = append(s.res.tracedUS, float64(end-t0)/1e3)
				// The daemon's stage spans become children of the client span.
				var got struct {
					Trace []query.TraceSpan `json:"trace"`
				}
				if err := json.Unmarshal(body, &got); err != nil {
					return fmt.Errorf("traced sweep %s #%d: %w", v, i, err)
				}
				origin := int64(time.Duration(t0) + s.clk.base.Sub(spec.tr.base))
				for _, ts := range got.Trace {
					spec.tr.add("maritimed."+ts.Name, qs, origin+ts.StartNS, origin+ts.StartNS+ts.DurNS, 1)
				}
			}
		}
	}
	return nil
}

var tierStatsRE = regexp.MustCompile(`,"resident_points":\d+,"evicted_vessels":\d+`)

// sweepRequests draws the first n requests of every variant from a
// dedicated seeded stream, the same for every workload of a seed.
func sweepRequests(seed int64, f *feed, n int) [numVariants][]query.Request {
	m := newMixer(seed^0x5eed, f)
	var out [numVariants][]query.Request
	for v := variant(0); v < numVariants; v++ {
		for i := 0; i < n; i++ {
			out[v] = append(out[v], m.archive(v))
		}
	}
	return out
}
