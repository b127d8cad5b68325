package query

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Client answers Requests by POSTing them to a Server's /v1/query route
// and turns them into standing queries through /v1/stream — the remote
// half of both the Executor and Subscriber contracts, so a CLI or another
// service talks to a running daemon with exactly the code it would use
// in-process. A Client is also a Source (federate.go): hand it to
// NewEngine and the remote daemon's picture merges into local answers,
// which is what `maritimed -peer` does.
type Client struct {
	// Base is the server root, e.g. "http://localhost:8080" (a bare
	// host:port is promoted to http://).
	Base string
	// HTTP overrides the transport. When nil a shared client with a
	// 30-second overall timeout is used for one-shot queries, so a
	// stalled daemon fails the query instead of hanging the caller
	// forever. Streams always run without an overall timeout (they are
	// unbounded by design) on the same transport.
	HTTP *http.Client
	// Retry governs transient transport failures (connection refused or
	// reset, DNS hiccups, timeouts): the attempt is repeated with
	// exponential backoff. An HTTP error status is never retried — the
	// server answered; its error comes back verbatim.
	Retry RetryPolicy

	// PeerName labels this client when it serves as a federation Source
	// in Result.Sources ("peer:<base>" when empty). See federate.go.
	PeerName string
	// PeerTimeout bounds each federated read when this client serves as
	// a Source (default 5s): a slow peer degrades — its contribution is
	// skipped and the error surfaced in Stats — instead of stalling the
	// local query.
	PeerTimeout time.Duration
	// Flight, when set, records peer degraded/recovered transitions and
	// stream epoch rewinds into the flight ring. Set before first use.
	Flight *obs.Flight

	peerMu   sync.Mutex
	peerErr  error // last federated-read failure (nil once recovered)
	peerDown bool  // tracks the degraded<->healthy edge for flight events
}

// RetryPolicy is an exponential backoff over transient transport errors.
type RetryPolicy struct {
	// Max is the number of retries after the first attempt; 0 disables
	// retrying.
	Max int
	// BaseDelay seeds the backoff (default 100ms); each retry doubles
	// it, capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 2s).
	MaxDelay time.Duration
}

// delay returns the backoff before retry number attempt (0-based).
func (p RetryPolicy) delay(attempt int) time.Duration {
	base, ceil := p.BaseDelay, p.MaxDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if ceil <= 0 {
		ceil = 2 * time.Second
	}
	d := base << attempt
	if d <= 0 || d > ceil { // shift overflow or past the cap
		d = ceil
	}
	return d
}

// defaultHTTPClient bounds queries against unresponsive daemons; large
// archive answers stream well inside this on any sane link.
var defaultHTTPClient = &http.Client{Timeout: 30 * time.Second}

// NewClient builds a client for a server root or host:port, with a
// modest default retry budget (3 attempts over ~700ms) against transient
// connection errors. Set Retry to the zero RetryPolicy to fail fast.
func NewClient(base string) *Client {
	return &Client{Base: base, Retry: RetryPolicy{Max: 2}}
}

// url resolves the client's base URL.
func (c *Client) url() (string, error) {
	base := strings.TrimRight(c.Base, "/")
	if base == "" {
		return "", fmt.Errorf("query: client has no base URL")
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return base, nil
}

// queryClient returns the HTTP client for one-shot requests.
func (c *Client) queryClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultHTTPClient
}

// streamTransport bounds the connect, TLS and header phases of a stream
// without bounding the (deliberately unbounded) body: a daemon that is
// blackholed, or accepts the connection but never answers, must fail the
// subscribe attempt within a known window, not hang it for the kernel's
// connect timeout.
var streamTransport = &http.Transport{
	Proxy:                 http.ProxyFromEnvironment,
	DialContext:           (&net.Dialer{Timeout: 10 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
	TLSHandshakeTimeout:   10 * time.Second,
	ResponseHeaderTimeout: 30 * time.Second,
}

// streamClient returns an HTTP client with no overall timeout — a
// standing query is supposed to outlive any deadline — reusing the
// caller's transport when one was provided. A caller who only set a
// Timeout (Transport nil) still gets the header-bounded stream
// transport, not the unbounded default.
func (c *Client) streamClient() *http.Client {
	if c.HTTP != nil && c.HTTP.Transport != nil {
		return &http.Client{Transport: c.HTTP.Transport}
	}
	return &http.Client{Transport: streamTransport}
}

// post issues one POST with the given retry policy applied: transport
// errors back off and retry (until the budget or the context ends); any
// HTTP response, success or error, is returned as-is.
func (c *Client) post(ctx context.Context, hc *http.Client, path string, body []byte, retry RetryPolicy) (*http.Response, error) {
	base, err := c.url()
	if err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("query: building request: %w", err)
		}
		req.Header.Set("Content-Type", "application/json")
		attemptStart := time.Now()
		resp, err := hc.Do(req)
		if err == nil {
			return resp, nil
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("query: %w", ctx.Err())
		}
		if attempt >= retry.Max {
			return nil, fmt.Errorf("query: %w", err)
		}
		// Retry only fast failures (refused/reset connections). An
		// attempt that burned seconds before failing hit a timeout, not
		// a blip — repeating it would multiply the caller's worst-case
		// wait well past the per-attempt bound.
		if time.Since(attemptStart) > 5*time.Second {
			return nil, fmt.Errorf("query: %w", err)
		}
		select {
		case <-time.After(retry.delay(attempt)):
		case <-ctx.Done():
			return nil, fmt.Errorf("query: %w", ctx.Err())
		}
	}
}

// Query executes the request against the remote server. Server-side
// validation errors come back verbatim as errors here.
func (c *Client) Query(req Request) (*Result, error) {
	return c.QueryContext(context.Background(), req)
}

// QueryContext is Query with caller-controlled cancellation: the context
// bounds the whole exchange, including retry backoff.
func (c *Client) QueryContext(ctx context.Context, req Request) (*Result, error) {
	return c.queryContext(ctx, req, c.Retry)
}

// queryContext executes one request under an explicit retry policy —
// federated reads (federate.go) pass the zero policy so a dead peer
// degrades in one connection attempt instead of paying backoff per read.
func (c *Client) queryContext(ctx context.Context, req Request, retry RetryPolicy) (*Result, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("query: encoding request: %w", err)
	}
	resp, err := c.post(ctx, c.queryClient(), "/v1/query", body, retry)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, fmt.Errorf("query: reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, serverError(resp, data)
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("query: decoding response: %w", err)
	}
	return &res, nil
}

// serverError converts a non-200 response into a descriptive error.
func serverError(resp *http.Response, data []byte) error {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return fmt.Errorf("query: server: %s", e.Error)
	}
	return fmt.Errorf("query: server returned %s", resp.Status)
}

// --- standing queries (Subscriber over /v1/stream) -------------------------------

// Subscribe turns req into a standing query against the remote daemon:
// the same Request a one-shot Query answers, delivered incrementally over
// /v1/stream. See SubscribeContext.
func (c *Client) Subscribe(req Request, opt SubOptions) (*Subscription, error) {
	return c.SubscribeContext(context.Background(), req, opt)
}

// SubscribeContext opens the stream (retrying transient connection
// errors under the client's policy) and pumps Updates into the returned
// subscription. Heartbeats are consumed by the client itself: they keep
// the resume cursor and the remote drop counter current, and do not
// appear on Updates.
//
// If the stream breaks mid-flight, the client resumes automatically from
// the last sequence it saw (again under the retry policy); replayed
// updates still retained by the server arrive exactly once. (Dropped is
// an upper bound across such resumes — an update dropped server-side
// and then recovered by the replay stays counted.) Only when resumption
// exhausts the budget does the subscription end: Updates closes and Err
// reports the cause. Cancelling the context or calling Cancel closes it
// cleanly (nil Err).
func (c *Client) SubscribeContext(ctx context.Context, req Request, opt SubOptions) (*Subscription, error) {
	ctx, cancel := context.WithCancel(ctx)
	conn, first, err := c.openStream(ctx, req, opt, opt.FromSeq, opt.Resume)
	if err != nil {
		cancel()
		return nil, err
	}
	sub := &Subscription{req: req, ch: make(chan Update, 16), startSeq: first.Seq}
	sub.epoch.Store(first.Epoch)
	sub.stop = cancel
	go c.streamLoop(ctx, sub, conn, first, req, opt)
	return sub, nil
}

// streamConn is one live NDJSON stream.
type streamConn struct {
	resp *http.Response
	br   *bufio.Reader
}

func (sc *streamConn) next() (Update, error) {
	line, err := sc.br.ReadBytes('\n')
	if len(line) == 0 && err != nil {
		return Update{}, err
	}
	var u Update
	if jerr := json.Unmarshal(line, &u); jerr != nil {
		return Update{}, fmt.Errorf("query: decoding update: %w", jerr)
	}
	return u, nil
}

// close aborts the stream. No draining: Close unblocks a pending read,
// which is exactly what the silence watchdog needs on a half-open
// connection (a drain would block on the same dead socket), and stream
// connections are not keep-alive-reusable anyway.
func (sc *streamConn) close() {
	sc.resp.Body.Close()
}

// openStream POSTs the StreamRequest and reads the opening update
// (normally the heartbeat acknowledging the start sequence). resume
// marks fromSeq authoritative even at 0 — a reconnect that had received
// nothing yet still wants everything the server retained.
func (c *Client) openStream(ctx context.Context, req Request, opt SubOptions, fromSeq uint64, resume bool) (*streamConn, Update, error) {
	sr := StreamRequest{
		Request: req, FromSeq: fromSeq, Resume: resume, Buffer: opt.Buffer,
		Heartbeat: Duration(opt.Heartbeat), Tick: Duration(opt.Tick),
	}
	body, err := json.Marshal(sr)
	if err != nil {
		return nil, Update{}, fmt.Errorf("query: encoding stream request: %w", err)
	}
	resp, err := c.post(ctx, c.streamClient(), "/v1/stream", body, c.Retry)
	if err != nil {
		return nil, Update{}, err
	}
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		return nil, Update{}, serverError(resp, data)
	}
	conn := &streamConn{resp: resp, br: bufio.NewReader(resp.Body)}
	// The server writes the opening heartbeat immediately; a connection
	// that answers headers but then stalls must not hang the subscribe
	// (or a mid-stream resume, where the silence watchdog is disarmed).
	guard := time.AfterFunc(3*opt.heartbeat(), func() { conn.close() })
	first, err := conn.next()
	guard.Stop()
	if err != nil {
		conn.close()
		return nil, Update{}, fmt.Errorf("query: reading stream opening: %w", err)
	}
	if first.Kind == UpdateError {
		conn.close()
		return nil, Update{}, fmt.Errorf("query: server: %s", first.Error)
	}
	return conn, first, nil
}

// streamLoop pumps one subscription: deliver updates, absorb heartbeats,
// resume on transport loss, close on cancellation or exhaustion. A
// watchdog armed at 3× the heartbeat cadence force-closes a connection
// that has gone silent — a half-open TCP path (NAT drop, power loss)
// produces no error on its own, and closing the body turns the stall
// into a read error the resume path handles. (A local consumer stalled
// past the watchdog causes a harmless reconnect: resume continues from
// the last sequence.)
func (c *Client) streamLoop(ctx context.Context, sub *Subscription, conn *streamConn,
	first Update, req Request, opt SubOptions) {
	defer close(sub.ch)
	// Release the derived cancel context however the pump exits (terminal
	// server error, exhausted resume budget) — not only via user Cancel —
	// so no dead child context stays registered on the caller's parent.
	defer sub.Cancel()
	defer func() { conn.close() }()
	quiet := 3 * opt.heartbeat()
	watch := func(sc *streamConn) *time.Timer {
		return time.AfterFunc(quiet, func() { sc.close() })
	}
	wd := watch(conn)
	defer func() { wd.Stop() }()
	lastSeq := first.Seq
	// Each resumed connection gets a fresh server-side subscription whose
	// drop counter restarts at zero, so accumulate: this connection's
	// heartbeat count on top of everything lost before the reconnect.
	var dropBase uint64
	deliver := func(u Update) bool {
		if u.Kind == UpdateHeartbeat {
			// Transport bookkeeping, not a result: fold the server-side
			// drop count into the local counter and move on. Monotonic
			// max via CAS — a plain Load/Store pair would lose a
			// concurrent increment on the same counter.
			for {
				cur := sub.dropped.Load()
				d := dropBase + u.Dropped
				if d <= cur || sub.dropped.CompareAndSwap(cur, d) {
					break
				}
			}
			return true
		}
		select {
		//lint:ignore boundedsend ordered-delivery pump: blocking here is the remote backpressure contract, bounded by ctx; drops are accounted server-side and folded in via heartbeats
		case sub.ch <- u:
			sub.delivered.Add(1)
			return true
		case <-ctx.Done():
			return false
		}
	}
	if !deliver(first) {
		return
	}
	for {
		u, err := conn.next()
		if err == nil {
			wd.Reset(quiet)
			if u.Kind == UpdateError {
				// Terminal: the subscription failed server-side. Not a
				// transport loss — do not resume.
				sub.setErr(fmt.Errorf("query: server: %s", u.Error))
				return
			}
			if u.Seq > lastSeq {
				lastSeq = u.Seq
			}
			if !deliver(u) {
				return
			}
			continue
		}
		if ctx.Err() != nil {
			return // cancelled: clean close
		}
		// Transport loss (or watchdog-declared silence): resume from the
		// last sequence we saw. The retry policy inside openStream paces
		// the reconnect attempts.
		wd.Stop()
		conn.close()
		dropBase = sub.dropped.Load()
		nc, f, rerr := c.openStream(ctx, req, opt, lastSeq, true)
		if rerr != nil {
			if ctx.Err() == nil {
				sub.setErr(fmt.Errorf("query: stream lost (%v); resume failed: %w", err, rerr))
			}
			return
		}
		conn = nc
		wd = watch(conn)
		if prev := sub.epoch.Load(); prev != 0 && f.Epoch != 0 && f.Epoch != prev {
			// The resume crossed a daemon epoch: the daemon restarted (or
			// the reconnect landed elsewhere), so our cursor numbers a
			// sequence space that no longer exists. Reset it to the new
			// epoch's opening position and surface the discontinuity —
			// silently continuing live-only is exactly the PR 4 gap this
			// closes. Server-side drops also restarted with the epoch, so
			// the accumulated base already covers everything older.
			lastSeq = f.Seq
			//lint:ignore atomiccounter single-writer: only this pump goroutine stores epoch; readers are concurrent, writers are not
			sub.epoch.Store(f.Epoch)
			sub.rewinds.Add(1)
			c.Flight.Record(obs.FlightWarn, "hub", "stream epoch rewind",
				obs.FS("peer", c.Base), obs.FI("seq", int64(f.Seq)))
			if !deliver(Update{Kind: UpdateRewound, Seq: f.Seq, Epoch: f.Epoch}) {
				return
			}
		} else if f.Seq > lastSeq {
			lastSeq = f.Seq
		}
		if !deliver(f) {
			return
		}
	}
}
