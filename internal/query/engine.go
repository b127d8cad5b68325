package query

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/tstore"
	"repro/internal/va"
)

// Source is one store the engine can answer from. The three shipped
// implementations are NewLiveSource (the sharded in-process pipelines,
// fanned out per shard and merged), NewStoreSource (a recovered or
// loaded tstore archive) and Client (another daemon as a federation
// member — see federate.go); any future backend implements the same
// reads and inherits the whole query surface. Implementations must be
// safe for concurrent use: the engine fans a multi-source read out to
// all sources at once.
//
// Every read takes the request's context: it carries cancellation (a
// remote source abandons its exchange when the caller gives up) and the
// request's trace (obs.FromContext). In-memory sources may ignore it.
//
// Contracts: Trajectory and SpaceTime return samples in [from, to]
// ordered by (MMSI, time); Nearest returns up to k distinct vessels
// each with a sample within tol of at, ordered by that sample's
// distance to p; Live returns at most one (the newest known) state per
// vessel inside r, ordered by MMSI; Alerts returns the recognised-event
// history (nil for sources that do not track events); Stats returns the
// source's holdings, MMSIs always filled: the sorted identifiers of
// exactly the vessels a worldwide Live read would report — the cheap
// distinct-count read stats aggregation uses instead of fetching every
// source's live picture (nil on a degraded peer).
//
// Derived is the hook behind the kinds that fold a vessel's history
// into an answer (track, predict, quality, anomalies): a source returns
// its own — an online lane's, a peer's, an archive's memoised replay —
// with ok=true (authoritative, empty included), or ok=false if it has none.
type Source interface {
	Name() string
	Trajectory(ctx context.Context, mmsi uint32, from, to time.Time) []model.VesselState
	SpaceTime(ctx context.Context, r geo.Rect, from, to time.Time) []model.VesselState
	Nearest(ctx context.Context, p geo.Point, at time.Time, tol time.Duration, k int) []model.VesselState
	Live(ctx context.Context, r geo.Rect) []model.VesselState
	Alerts(ctx context.Context) []events.Alert
	Stats(ctx context.Context) SourceStats
	Derived(ctx context.Context, req Request) (res *Result, ok bool)
}

// Engine executes Requests against one or more Sources, merging and
// deduplicating on (MMSI, timestamp) so a sample present both in a live
// shard and in the durable archive appears once. It is safe for
// concurrent use when its sources are (both shipped sources are).
type Engine struct {
	sources []Source
	reg     *obs.Registry // nil when uninstrumented
}

// NewEngine builds an engine over the given sources (at least one).
func NewEngine(sources ...Source) *Engine {
	return &Engine{sources: sources}
}

// Instrument points the engine at a metrics registry: every query then
// records per-kind end-to-end latency (query_latency_ns), per-source
// fan-out latency (query_source_ns), request/error counts and replay work
// (query_replay_{hits,folds}_total: memo hits, vessels re-folded). Call
// before serving; the field is read without synchronisation.
func (e *Engine) Instrument(reg *obs.Registry) { e.reg = reg }

// sourcesFor returns the sources a request is answered from: all of them
// normally, the non-peer ones when the request is marked Local — the
// federation loop guard (see PeerSource).
func (e *Engine) sourcesFor(req Request) []Source {
	if !req.Local {
		return e.sources
	}
	local := make([]Source, 0, len(e.sources))
	for _, s := range e.sources {
		if _, remote := s.(PeerSource); !remote {
			local = append(local, s)
		}
	}
	return local
}

// call is one request in flight — what a kind's run (kinds.go) works
// with: the caller's context, the engine's registry (nil when
// uninstrumented), the request's trace (nil when untraced; it also
// rides ctx, which is how remote sources find it), the sources the
// request is answered from and the validated, defaulted request. The
// untraced, uninstrumented path pays only nil checks.
type call struct {
	ctx  context.Context
	reg  *obs.Registry
	tr   *obs.Trace
	srcs []Source
	req  Request
}

// sourceStart begins the per-source measurement of one gather read: a
// query_source_ns sample and a "source:<name>" span.
func (c *call) sourceStart(s Source) func() {
	if c.reg == nil && c.tr == nil {
		return func() {}
	}
	var h *obs.Histogram
	if c.reg != nil {
		h = c.reg.Histogram("query_source_ns", "source", s.Name())
	}
	end := c.tr.StartSpan("source:" + s.Name())
	t0 := time.Now()
	return func() {
		if h != nil {
			h.ObserveSince(t0)
		}
		end()
	}
}

// gather runs one read against every source concurrently and returns the
// per-source results in source order (so downstream merges stay
// deterministic). Sources are required to be safe for concurrent use
// already; fanning out bounds a multi-source query at its slowest source
// — with federation peers in the mix, a timing-out peer costs one
// PeerTimeout, not one per peer serially. A cancelled request stops
// waiting: the slots of sources still reading stay zero, and
// QueryContext reports the context's error instead of the partial answer.
func gather[T any](c *call, read func(context.Context, Source) T) []T {
	out := make([]T, len(c.srcs))
	if len(c.srcs) == 1 { // common case: no goroutine overhead
		done := c.sourceStart(c.srcs[0])
		out[0] = read(c.ctx, c.srcs[0])
		done()
		return out
	}
	type slot struct {
		i int
		v T
	}
	// One send per source, so a reader that has given up never strands a
	// source goroutine on its send.
	ch := make(chan slot, len(c.srcs))
	for i, s := range c.srcs {
		go func(i int, s Source) {
			done := c.sourceStart(s)
			v := read(c.ctx, s)
			done()
			ch <- slot{i, v}
		}(i, s)
	}
	for range c.srcs {
		select {
		case r := <-ch:
			out[r.i] = r.v
		case <-c.ctx.Done():
			return out
		}
	}
	return out
}

// Query validates and executes one request.
func (e *Engine) Query(req Request) (*Result, error) {
	return e.QueryContext(context.Background(), req)
}

// QueryContext validates and executes one request under ctx: cancelling
// it (or passing its deadline) abandons the fan-out — peers included —
// and fails the query with the context's error. A trace carried by ctx
// (obs.WithTrace) collects stage spans; setting req.Trace without one
// starts a fresh trace and returns its spans in Result.Trace.
func (e *Engine) QueryContext(ctx context.Context, req Request) (*Result, error) {
	if len(e.sources) == 0 {
		return nil, fmt.Errorf("query: engine has no sources")
	}
	req, def, err := prepare(req)
	if err != nil {
		return e.failed(err)
	}
	tr := obs.FromContext(ctx)
	if tr == nil && req.Trace {
		tr = obs.NewTrace()
		ctx = obs.WithTrace(ctx, tr)
	}
	if e.reg != nil && def.replay != nil {
		ctx = context.WithValue(ctx, tallyKey{}, &replayTally{})
	}
	c := &call{ctx: ctx, reg: e.reg, tr: tr, srcs: e.sourcesFor(req), req: req}
	t0 := time.Now()
	res := &Result{Kind: req.Kind, Sources: make([]string, len(c.srcs))}
	for i, s := range c.srcs {
		res.Sources[i] = s.Name()
	}
	def.run(c, res)
	if err := ctx.Err(); err != nil {
		// Whatever was gathered before the caller gave up is partial, and
		// a partial answer must not pass for the answer.
		return e.failed(fmt.Errorf("query: %w", err))
	}
	if e.reg != nil {
		e.reg.Counter("query_requests_total", "kind", string(req.Kind)).Inc()
		e.reg.Histogram("query_latency_ns", "kind", string(req.Kind)).ObserveSince(t0)
		if rt, ok := ctx.Value(tallyKey{}).(*replayTally); ok {
			e.reg.Counter("query_replay_hits_total", "kind", string(req.Kind)).Add(rt.hits.Load())
			e.reg.Counter("query_replay_folds_total", "kind", string(req.Kind)).Add(rt.folds.Load())
		}
	}
	if req.Trace && tr != nil {
		for _, sp := range tr.Spans() {
			res.Trace = append(res.Trace, TraceSpan{
				Name: sp.Name, Parent: sp.Parent, StartNS: int64(sp.Start), DurNS: int64(sp.Dur),
			})
		}
		res.Trace = append(res.Trace, TraceSpan{Name: "total", DurNS: int64(time.Since(t0))})
	}
	return res, nil
}

// failed counts a query that ended in err.
func (e *Engine) failed(err error) (*Result, error) {
	if e.reg != nil {
		e.reg.Counter("query_errors_total").Inc()
	}
	return nil, err
}

// --- merges: the run halves of the kind table (kinds.go) -------------------------

// statesOf builds the run of a kind whose answer is the sources' samples
// merged: one read per source, deduplicated on (MMSI, timestamp),
// ordered, truncated to Limit.
func statesOf(read func(ctx context.Context, s Source, r Request) []model.VesselState) func(*call, *Result) {
	return func(c *call, res *Result) {
		merged := flatten(gather(c, func(ctx context.Context, s Source) []model.VesselState {
			return read(ctx, s, c.req)
		}))
		defer c.tr.StartSpan("merge")()
		res.setStates(DedupeStates(merged), c.req.Limit)
	}
}

// sortStates orders samples by (MMSI, time), the order of every sample
// answer. Federated sources can tie on that key, so it stays sort.Slice:
// another algorithm could keep another of the tied duplicates.
func sortStates(states []model.VesselState) {
	sort.Slice(states, func(i, j int) bool {
		if states[i].MMSI != states[j].MMSI {
			return states[i].MMSI < states[j].MMSI
		}
		return states[i].At.Before(states[j].At)
	})
}

// DedupeStates sorts samples by (MMSI, time) and removes (MMSI,
// timestamp) duplicates in place — the merge step between overlapping
// sources. Exported for tests and for callers composing their own reads.
func DedupeStates(states []model.VesselState) []model.VesselState {
	sortStates(states)
	out := states[:0]
	for _, s := range states {
		if n := len(out); n > 0 && out[n-1].MMSI == s.MMSI && out[n-1].At.Equal(s.At) {
			continue
		}
		out = append(out, s)
	}
	return out
}

// setStates fills a sample answer: the count before Limit, the cut
// recorded, the samples in wire form.
func (res *Result) setStates(states []model.VesselState, limit int) {
	res.Count = len(states)
	states, res.Truncated = capped(states, limit)
	for _, s := range states {
		res.States = append(res.States, StateOf(s))
	}
}

// capped applies a Limit (0 = unlimited) and reports whether it cut.
func capped[T any](xs []T, limit int) ([]T, bool) {
	if limit > 0 && len(xs) > limit {
		return xs[:limit], true
	}
	return xs, false
}

// flatten concatenates per-source result lists in source order.
func flatten(lists [][]model.VesselState) []model.VesselState {
	if len(lists) == 1 {
		return lists[0]
	}
	var out []model.VesselState
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// runNearest merges per-source candidate lists: order every candidate by
// distance to the reference point, keep the nearest sample per vessel,
// take k.
func runNearest(c *call, res *Result) {
	req := c.req
	p := geo.Point{Lat: req.Lat, Lon: req.Lon}
	cands := flatten(gather(c, func(ctx context.Context, s Source) []model.VesselState {
		return s.Nearest(ctx, p, req.At, time.Duration(req.Tol), req.K)
	}))
	defer c.tr.StartSpan("merge")()
	slices.SortStableFunc(cands, func(a, b model.VesselState) int {
		return cmp.Compare(geo.Distance(p, a.Pos), geo.Distance(p, b.Pos))
	})
	seen := make(map[uint32]bool, min(req.K, len(cands)))
	for _, cand := range cands {
		if seen[cand.MMSI] {
			continue
		}
		seen[cand.MMSI] = true
		res.States = append(res.States, StateOf(cand))
		if len(res.States) == req.K {
			break
		}
	}
	res.Count = len(res.States)
}

func runLive(c *call, res *Result) {
	res.setStates(livePicture(c, c.req.Box.Rect()), c.req.Limit)
}

// livePicture merges the sources' current pictures, keeping the newest
// state per vessel (a live pipeline beats a stale archive), MMSI-ordered.
func livePicture(c *call, r geo.Rect) []model.VesselState {
	lists := gather(c, func(ctx context.Context, s Source) []model.VesselState { return s.Live(ctx, r) })
	defer c.tr.StartSpan("merge")()
	return mergeByMMSI(lists)
}

// mergeByMMSI merges MMSI-ordered lists into one, keeping the newest
// state per vessel and the earlier list's on an At tie. A single list
// is returned as it is. It consumes lists.
func mergeByMMSI(lists [][]model.VesselState) []model.VesselState {
	if len(lists) == 1 {
		return lists[0]
	}
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	out := make([]model.VesselState, 0, n)
	for {
		next := -1 // the list whose head has the least MMSI, the earliest on ties
		for i, l := range lists {
			if len(l) > 0 && (next < 0 || l[0].MMSI < lists[next][0].MMSI) {
				next = i
			}
		}
		if next < 0 {
			return out
		}
		s := lists[next][0]
		lists[next] = lists[next][1:]
		if k := len(out) - 1; k >= 0 && out[k].MMSI == s.MMSI {
			if s.At.After(out[k].At) {
				out[k] = s
			}
			continue
		}
		out = append(out, s)
	}
}

// runSituation assembles the merged operational picture: the
// deduplicated live states plus the merged alert board, aggregated
// exactly as core.Pipeline.Situation aggregates a single pipeline's.
func runSituation(c *call, res *Result) {
	req := c.req
	bounds := req.Box.Rect()
	// Like stats: the two fan-outs run concurrently so a hanging peer
	// costs one timeout per situation, not two.
	var vessels []model.VesselState
	var merged []events.Alert
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		vessels = livePicture(c, bounds)
	}()
	go func() {
		defer wg.Done()
		merged = mergedAlerts(c)
	}()
	wg.Wait()
	defer c.tr.StartSpan("assemble")()
	at := req.At
	if at.IsZero() {
		for _, v := range vessels {
			if v.At.After(at) {
				at = v.At
			}
		}
	}
	var alerts []va.SituationAlert
	for _, a := range merged {
		if a.Severity < req.MinSeverity {
			continue
		}
		alerts = append(alerts, va.SituationAlert{
			At: a.At, Kind: string(a.Kind), MMSI: a.MMSI,
			Where: a.Where, Severity: a.Severity, Note: a.Note,
		})
	}
	res.Situation = SituationOf(va.BuildSituation(at, bounds, vessels, alerts, req.Rows, req.Cols))
	res.Count = len(res.Situation.Vessels)
}

// runAlerts merges, filters and time-orders the sources' alerts.
func runAlerts(c *call, res *Result) {
	req := c.req
	from, to := req.timeRange()
	merged := mergedAlerts(c)
	defer c.tr.StartSpan("merge")()
	var kept []events.Alert
	for _, a := range merged {
		if a.Severity < req.MinSeverity || a.At.Before(from) || a.At.After(to) {
			continue
		}
		kept = append(kept, a)
	}
	slices.SortStableFunc(kept, func(a, b events.Alert) int { return a.At.Compare(b.At) })
	res.Count = len(kept)
	kept, res.Truncated = capped(kept, req.Limit)
	for _, a := range kept {
		res.Alerts = append(res.Alerts, AlertOf(a))
	}
}

// mergedAlerts concatenates the sources' alert histories, dropping exact
// duplicates (same kind, vessels and instant) from overlapping sources.
func mergedAlerts(c *call) []events.Alert {
	type key struct {
		kind        events.Kind
		mmsi, other uint32
		unixNano    int64
	}
	var out []events.Alert
	seen := make(map[key]bool)
	for _, alerts := range gather(c, func(ctx context.Context, s Source) []events.Alert { return s.Alerts(ctx) }) {
		for _, a := range alerts {
			k := key{kind: a.Kind, mmsi: a.MMSI, other: a.Other, unixNano: a.At.UnixNano()}
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, a)
		}
	}
	return out
}

// derived builds the run of a per-vessel derived kind: every source
// answers through Source.Derived (authoritative, empty included) and the
// best non-nil answer under better wins (ties keep the earlier source, so
// merged answers are deterministic). field locates the kind's payload.
func derived[T any](field func(*Result) **T, better func(a, b *T) bool) func(*call, *Result) {
	return func(c *call, res *Result) {
		answers := gather(c, func(ctx context.Context, s Source) *T {
			if own, ok := s.Derived(ctx, c.req); ok {
				return *field(own)
			}
			return nil
		})
		defer c.tr.StartSpan("merge")()
		var best *T
		for _, a := range answers {
			if a != nil && (best == nil || better(a, best)) {
				best = a
			}
		}
		if best != nil {
			*field(res) = best
			res.Count = 1
		}
	}
}

// betterVesselAnomaly prefers the fresher (then deeper) answer when
// sources overlap.
func betterVesselAnomaly(a, b *VesselAnomaly) bool {
	if !a.At.Equal(b.At) {
		return a.At.After(b.At)
	}
	return a.Samples > b.Samples
}

// runAnomalies answers both forms of the anomalies kind: one vessel's
// report (the freshest source wins) or the merged fleet ranking.
func runAnomalies(c *call, res *Result) {
	if c.req.MMSI != 0 {
		runVesselAnomaly(c, res)
	} else {
		runRankedAnomalies(c, res)
	}
}

var runVesselAnomaly = derived(vesselAnomalyOf, betterVesselAnomaly)

// runRankedAnomalies merges the sources' rankings into one entry per
// vessel (fresher answer wins, earlier source on ties), sorted and capped
// at Limit. Several local sources rank uncapped: one source's cap could
// cut a vessel's fresh answer and let another's stale one through. Peers
// still cap on their side (the wire carries Limit).
func runRankedAnomalies(c *call, res *Result) {
	lists := gather(c, func(ctx context.Context, s Source) []VesselAnomaly {
		req := c.req
		if _, peer := s.(PeerSource); !peer && len(c.srcs) > 1 {
			req.Limit = 0
		}
		if own, ok := s.Derived(ctx, req); ok && own.Anomalies != nil {
			return own.Anomalies.Ranked
		}
		return nil
	})
	defer c.tr.StartSpan("merge")()
	var out []VesselAnomaly
	if len(lists) == 1 {
		out = lists[0] // one entry per vessel, sorted already
		out, res.Truncated = capped(out, c.req.Limit)
	} else {
		best := make(map[uint32]*VesselAnomaly)
		for _, l := range lists {
			for i := range l {
				if prev, ok := best[l[i].MMSI]; !ok || betterVesselAnomaly(&l[i], prev) {
					best[l[i].MMSI] = &l[i]
				}
			}
		}
		reports := make([]*VesselAnomaly, 0, len(best))
		for _, va := range best {
			reports = append(reports, va)
		}
		out = RankAnomalies(reports, c.req.Limit)
		res.Truncated = c.req.Limit > 0 && len(reports) > c.req.Limit
	}
	res.Anomalies = &AnomalyReport{Ranked: out}
	res.Count = len(out)
}

// runStats aggregates per-source statistics. Vessels and Live are
// distinct counts and therefore computed from merged per-source
// identifier sets, not summed — Stats moves one sorted uint32 list per
// source, so a stats poll against an N-vessel federation peer costs one
// exchange of O(N) integers instead of the N full states a worldwide
// live picture would. Exactness of the headline counts stays
// test-pinned: every shipped source reports exactly the vessels its
// worldwide Live read would.
func runStats(c *call, res *Result) {
	list := gather(c, func(ctx context.Context, s Source) SourceStats { return s.Stats(ctx) })
	defer c.tr.StartSpan("merge")()
	st := &Stats{}
	var fleet []uint32
	for _, ss := range list {
		fleet = append(fleet, ss.MMSIs...)
		if !c.req.MMSIs {
			ss.MMSIs = nil
		}
		st.Sources = append(st.Sources, ss)
		st.Points += ss.Points
		st.Alerts += ss.Alerts
	}
	if len(list) > 1 { // one source's identifiers are sorted and distinct already
		slices.Sort(fleet)
		fleet = slices.Compact(fleet)
	}
	st.Vessels = len(fleet)
	st.Live = len(fleet)
	if c.req.MMSIs {
		st.MMSIs = fleet
	}
	res.Stats = st
	res.Count = st.Points
}

// --- live source (core.Sharded fan-out) -----------------------------------------

// Lane is the read side of an online stage behind the live source: for
// each derived kind the stage maintains state for, the function that
// answers a request from that state — ok=false when the stage does not
// know the vessel (never fed nor seeded with it), which sends the live
// source back to replaying its store. internal/track and
// internal/anomaly build theirs (Stages.Lane).
type Lane map[Kind]func(Request) (*Result, bool)

// liveSource answers from the running sharded pipelines: per-vessel
// reads route to the owning shard, set reads fan out across every
// shard's consistent view and merge.
type liveSource struct {
	sharded *core.Sharded
	snaps   []*snapshotCache
	replays []*replays // per shard
	lanes   Lane       // online answers by derived kind; empty without stages
}

// NewLiveSource builds a Source over the sharded pipelines (the
// in-process live picture plus each shard's in-memory archive). Nearest
// queries build per-shard spatial snapshots, cached until the shard's
// archive grows. Each lane puts an online stage behind the derived
// kinds it serves: those answer from the stage's state where it knows
// the vessel and by a deterministic store replay where it does not
// (no stage, or a store loaded behind the stage's back — Engine.Resume
// seeds the stages it preloads for; the store pages evicted history
// back, so tiering keeps the replay exact; replays are memoised per shard).
func NewLiveSource(s *core.Sharded, lanes ...Lane) Source {
	src := &liveSource{sharded: s, lanes: Lane{}}
	for _, lane := range lanes {
		for k, own := range lane {
			src.lanes[k] = own
		}
	}
	for _, p := range s.Shards {
		src.snaps = append(src.snaps, &snapshotCache{store: p.Store})
		src.replays = append(src.replays, &replays{store: p.Store, memo: map[replayKey]replayed{}})
	}
	return src
}

func (l *liveSource) Name() string { return "live" }

func (l *liveSource) Trajectory(_ context.Context, mmsi uint32, from, to time.Time) []model.VesselState {
	return l.sharded.ShardFor(mmsi).Store.TimeRange(mmsi, from, to)
}

func (l *liveSource) SpaceTime(_ context.Context, r geo.Rect, from, to time.Time) []model.VesselState {
	var out []model.VesselState
	for _, p := range l.sharded.Shards {
		out = append(out, p.Store.SpaceTime(r, from, to)...)
	}
	// Shards partition the fleet, so per-shard (MMSI, time) order merges
	// into global order by a plain sort without ties to break.
	sortStates(out)
	return out
}

func (l *liveSource) Nearest(_ context.Context, p geo.Point, at time.Time, tol time.Duration, k int) []model.VesselState {
	type cand struct {
		dist float64
		s    model.VesselState
	}
	var cands []cand
	for _, sc := range l.snaps {
		for _, s := range sc.get().NearestVessels(p, at, tol, k) {
			cands = append(cands, cand{geo.Distance(p, s.Pos), s})
		}
	}
	slices.SortStableFunc(cands, func(a, b cand) int { return cmp.Compare(a.dist, b.dist) })
	if len(cands) > k {
		cands = cands[:k]
	}
	var out []model.VesselState
	for _, c := range cands {
		out = append(out, c.s)
	}
	return out
}

func (l *liveSource) Live(_ context.Context, r geo.Rect) []model.VesselState {
	lists := make([][]model.VesselState, len(l.sharded.Shards))
	for i, p := range l.sharded.Shards {
		lists[i] = p.Live.InRect(r)
	}
	return mergeByMMSI(lists)
}

func (l *liveSource) Alerts(context.Context) []events.Alert { return l.sharded.Alerts() }

func (l *liveSource) Stats(context.Context) SourceStats {
	st := SourceStats{Name: l.Name()}
	resident, evicted := 0, 0
	for _, p := range l.sharded.Shards {
		st.Points += p.Store.Len()
		st.Vessels += p.Store.VesselCount() // shards partition the fleet: no double count
		st.Live += p.Live.Count()
		// The counter moves with the alert log; reading it takes no ingest
		// lock and copies no alert.
		st.Alerts += int(p.Metrics.Alerts.Load())
		st.MMSIs = append(st.MMSIs, p.Live.MMSIs()...) // ...and no duplicate identifiers
		tc := p.Store.Tier()
		resident += tc.ResidentPoints
		evicted += tc.EvictedPoints
		st.EvictedVessels += tc.EvictedVessels
	}
	if evicted > 0 { // fully resident sources report bytes-identically to pre-tiering
		st.ResidentPoints = resident
	}
	slices.Sort(st.MMSIs)
	return st
}

// Derived: a lane's answer where it knows the vessel, else the replay.
func (l *liveSource) Derived(ctx context.Context, req Request) (*Result, bool) {
	if own := l.lanes[req.Kind]; own != nil {
		if res, ok := own(req); ok {
			return res, true
		}
	}
	return replayDerived(ctx, l, req)
}

func (l *liveSource) replaysOf(mmsi uint32) *replays { return l.replays[l.sharded.ShardIndex(mmsi)] }

// --- archive source (tstore.Store) ----------------------------------------------

// storeSource answers from a trajectory archive — typically one
// recovered by store.OpenReadOnly or loaded from a snapshot file. The
// "live picture" of an archive is each vessel's newest persisted state.
type storeSource struct {
	name    string
	store   *tstore.Store
	snap    snapshotCache
	replays *replays
}

// NewStoreSource builds a Source over a trajectory archive. The name
// labels it in Result.Sources ("archive" when empty).
func NewStoreSource(name string, st *tstore.Store) Source {
	if name == "" {
		name = "archive"
	}
	return &storeSource{name: name, store: st, snap: snapshotCache{store: st}, replays: &replays{store: st, memo: map[replayKey]replayed{}}}
}

func (a *storeSource) Name() string { return a.name }

func (a *storeSource) Trajectory(_ context.Context, mmsi uint32, from, to time.Time) []model.VesselState {
	return a.store.TimeRange(mmsi, from, to)
}

func (a *storeSource) SpaceTime(_ context.Context, r geo.Rect, from, to time.Time) []model.VesselState {
	return a.store.SpaceTime(r, from, to)
}

func (a *storeSource) Nearest(_ context.Context, p geo.Point, at time.Time, tol time.Duration, k int) []model.VesselState {
	return a.snap.get().NearestVessels(p, at, tol, k)
}

func (a *storeSource) Live(_ context.Context, r geo.Rect) []model.VesselState {
	latest := a.store.LatestStates() // O(vessels), already MMSI-ordered
	out := latest[:0]
	for _, s := range latest {
		if r.Contains(s.Pos) {
			out = append(out, s)
		}
	}
	return out
}

func (a *storeSource) Alerts(context.Context) []events.Alert { return nil }

func (a *storeSource) Stats(context.Context) SourceStats {
	ss := SourceStats{
		Name: a.name, Points: a.store.Len(), Vessels: a.store.VesselCount(), MMSIs: a.store.MMSIs(),
	}
	tc := a.store.Tier()
	if tc.EvictedPoints > 0 {
		ss.ResidentPoints = tc.ResidentPoints
		ss.EvictedVessels = tc.EvictedVessels
	}
	return ss
}

// Derived: an archive holds no online state; every derived kind replays.
func (a *storeSource) Derived(ctx context.Context, req Request) (*Result, bool) {
	return replayDerived(ctx, a, req)
}

func (a *storeSource) replaysOf(uint32) *replays { return a.replays }

// snapshotCache lazily builds a store's spatial snapshot and reuses it
// until the store grows — archives are static after recovery, so their
// snapshot builds once; live shard stores rebuild only when queried
// after new appends.
type snapshotCache struct {
	store *tstore.Store

	mu    sync.Mutex
	built *tstore.Snapshot
	atLen int
}

func (c *snapshotCache) get() *tstore.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.store.Len(); c.built == nil || n != c.atLen {
		c.built = c.store.SpatialSnapshot()
		c.atLen = n
	}
	return c.built
}
