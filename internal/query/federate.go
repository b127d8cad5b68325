package query

import (
	"context"
	"time"

	"repro/internal/events"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/obs"
)

// This file makes *Client a Source — the federation member of the read
// surface. The Source and Executor contracts are two views of the same
// remote daemon: an Executor answers whole typed Requests, a Source
// answers the primitive reads an Engine merges. Implementing the
// latter in terms of the former means any daemon serving /v1/query can
// be composed into another daemon's query engine verbatim:
//
//	eng := query.NewEngine(
//	    query.NewLiveSource(sharded),       // this daemon's picture
//	    query.NewClient("peer-a:8080"),     // a federation member
//	)
//
// which is exactly what `maritimed -peer URL` wires up. Results merge
// and deduplicate on (MMSI, timestamp) like any other source pair.
//
// Two federation-specific behaviours:
//
//   - One hop only. Every federated read sets Request.Local, so the peer
//     answers from its own sources and does not fan out to *its* peers —
//     mutually-peered daemons cannot create a query cycle.
//   - Degraded mode. A peer that times out (PeerTimeout, default 5s) or
//     errors contributes nothing to that answer instead of failing it;
//     the failure is retained and surfaced in the peer's SourceStats.Err, so an
//     operator sees the degradation in any stats read.
//
// A federated read runs under the request's context bounded by the peer
// timeout, so a caller that gives up releases the exchange at once. When
// that context carries a trace (obs.FromContext) the exchange forwards
// Request.Trace, grafts the peer's returned spans under a peer/<addr>
// span (rebased onto the local trace's clock), and records a degraded
// child when the peer failed — one stitched tree spanning daemons
// instead of a trace that dies at the HTTP hop.

// PeerSource is a Source that answers from another daemon. Engines skip
// peer sources when a request is marked Local — the loop guard that keeps
// federation one hop deep.
type PeerSource interface {
	Source
	// Peer identifies the federation member (its base URL).
	Peer() string
}

// Name implements Source: the label peers carry in Result.Sources.
func (c *Client) Name() string {
	if c.PeerName != "" {
		return c.PeerName
	}
	return "peer:" + c.Base
}

// Peer implements PeerSource.
func (c *Client) Peer() string { return c.Base }

// PeerErr returns the most recent federated-read failure (nil while the
// peer is healthy or after it recovers).
func (c *Client) PeerErr() error {
	c.peerMu.Lock()
	defer c.peerMu.Unlock()
	return c.peerErr
}

func (c *Client) peerTimeout() time.Duration {
	if c.PeerTimeout > 0 {
		return c.PeerTimeout
	}
	return 5 * time.Second
}

// notePeer records the read's outcome and emits a flight event on the
// healthy<->degraded edge (not per failing read — a dead peer under a
// query storm is one incident, not a thousand).
func (c *Client) notePeer(err error) {
	c.peerMu.Lock()
	wasDown := c.peerDown
	c.peerErr = err
	c.peerDown = err != nil
	c.peerMu.Unlock()
	if c.Flight == nil || wasDown == (err != nil) {
		return
	}
	if err != nil {
		c.Flight.Record(obs.FlightWarn, "query", "federation peer degraded",
			obs.FS("peer", c.Base), obs.FS("err", err.Error()))
	} else {
		c.Flight.Record(obs.FlightInfo, "query", "federation peer recovered",
			obs.FS("peer", c.Base))
	}
}

// peerQuery issues one federated read: local-only on the peer, bounded
// by the peer timeout inside the caller's context, failures recorded
// instead of propagated. Callers use the returned error (not PeerErr,
// which a concurrent recovered read may have cleared in the meantime).
// The read deliberately skips the client's retry policy: a dead peer
// must degrade after one connection attempt, not charge backoff to every
// local query that fans to it — retrying is the next query's job. Under
// a trace, the peer computes its own stage spans (Request.Trace
// forwarded) and stitch grafts them in.
func (c *Client) peerQuery(ctx context.Context, req Request) (*Result, error) {
	tr := obs.FromContext(ctx)
	req.Local = true
	req.Trace = tr != nil
	start := tr.Offset()
	t0 := time.Now()
	pctx, cancel := context.WithTimeout(ctx, c.peerTimeout())
	defer cancel()
	res, err := c.queryContext(pctx, req, RetryPolicy{})
	if ctx.Err() == nil { // a caller that gave up says nothing about the peer's health
		c.notePeer(err)
	}
	if tr != nil {
		c.stitch(tr, start, time.Since(t0), res, err)
	}
	return res, err
}

// stitch grafts one federated exchange into the local trace: a
// peer/<addr> span nested under this source's fan-out span, the peer's
// own stages as its children (names path-prefixed so two daemons' merge
// spans stay distinct, offsets rebased onto the local clock — the hop's
// network time is the gap between the parent and its children), and a
// degraded child instead of silence when the peer failed.
func (c *Client) stitch(tr *obs.Trace, start, dur time.Duration, res *Result, err error) {
	parent := "peer/" + c.Base
	tr.Add(obs.Span{Name: parent, Parent: "source:" + c.Name(), Start: start, Dur: dur})
	if err != nil {
		tr.Add(obs.Span{Name: parent + "/degraded", Parent: parent, Start: start, Dur: dur})
		return
	}
	for _, ts := range res.Trace {
		p := parent
		if ts.Parent != "" {
			p = parent + "/" + ts.Parent
		}
		tr.Add(obs.Span{
			Name:   parent + "/" + ts.Name,
			Parent: p,
			Start:  start + time.Duration(ts.StartNS),
			Dur:    time.Duration(ts.DurNS),
		})
	}
}

// peerStates is the shared shape of the sample reads: a degraded peer
// contributes nothing.
func (c *Client) peerStates(ctx context.Context, req Request) []model.VesselState {
	res, err := c.peerQuery(ctx, req)
	if err != nil {
		return nil
	}
	return res.ModelStates()
}

// Trajectory implements Source.
func (c *Client) Trajectory(ctx context.Context, mmsi uint32, from, to time.Time) []model.VesselState {
	return c.peerStates(ctx, Request{Kind: KindTrajectory, MMSI: mmsi, From: from, To: to})
}

// SpaceTime implements Source.
func (c *Client) SpaceTime(ctx context.Context, r geo.Rect, from, to time.Time) []model.VesselState {
	b := BoxOf(r)
	return c.peerStates(ctx, Request{Kind: KindSpaceTime, Box: &b, From: from, To: to})
}

// Nearest implements Source.
func (c *Client) Nearest(ctx context.Context, p geo.Point, at time.Time, tol time.Duration, k int) []model.VesselState {
	return c.peerStates(ctx, Request{
		Kind: KindNearest, Lat: p.Lat, Lon: p.Lon, At: at, Tol: Duration(tol), K: k,
	})
}

// Live implements Source.
func (c *Client) Live(ctx context.Context, r geo.Rect) []model.VesselState {
	b := BoxOf(r)
	return c.peerStates(ctx, Request{Kind: KindLivePicture, Box: &b})
}

// Alerts implements Source.
func (c *Client) Alerts(ctx context.Context) []events.Alert {
	res, err := c.peerQuery(ctx, Request{Kind: KindAlertHistory})
	if err != nil {
		return nil
	}
	out := make([]events.Alert, len(res.Alerts))
	for i, a := range res.Alerts {
		out[i] = a.Model()
	}
	return out
}

// Stats implements Source: one stats read with the identifier sets
// requested, so the engine's stats aggregation costs this peer exactly
// one HTTP exchange carrying both the aggregate numbers (reported under
// this peer's name) and a sorted uint32 list — O(vessels) integers, not
// the peer's worldwide live picture. A degraded peer reports why in Err
// and contributes no identifiers, like every other federated read.
func (c *Client) Stats(ctx context.Context) SourceStats {
	res, err := c.peerQuery(ctx, Request{Kind: KindStats, MMSIs: true})
	if err != nil {
		return SourceStats{Name: c.Name(), Err: err.Error()}
	}
	if res.Stats == nil {
		// A nonconforming peer (version skew, interposed proxy) must
		// degrade like any other failure, not panic the daemon.
		return SourceStats{Name: c.Name(), Err: "peer answered without stats"}
	}
	st := res.Stats
	return SourceStats{
		Name: c.Name(), Points: st.Points, Vessels: st.Vessels,
		Live: st.Live, Alerts: st.Alerts, MMSIs: st.MMSIs,
	}
}

// Derived implements Source: the peer computes (or reads) the answer
// server-side, so a federated derived kind — track, predict, quality,
// anomalies, any kind added to the table — costs one exchange of the
// request itself, not a trajectory fetch plus a local replay. A degraded
// peer answers nothing, authoritatively, like every other federated read.
func (c *Client) Derived(ctx context.Context, req Request) (*Result, bool) {
	res, err := c.peerQuery(ctx, req)
	if err != nil { // already noted and stitched; the answer is empty
		res = &Result{}
	}
	return res, true
}
