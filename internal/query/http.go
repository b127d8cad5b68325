package query

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/obs"
)

// Executor is anything that can answer a Request: the in-process Engine,
// the ingest engine's read surface, or a Client talking to a remote
// daemon. The HTTP server serves any of them.
type Executor interface {
	Query(Request) (*Result, error)
}

// ContextExecutor is the context-aware executor. When the server's
// executor implements it (Engine and the ingest engine do), requests
// run under the HTTP request context, so traces started there propagate
// and client disconnects can cancel.
type ContextExecutor interface {
	QueryContext(ctx context.Context, req Request) (*Result, error)
}

// execute runs req through exec, under ctx when the executor takes one.
func execute(ctx context.Context, exec Executor, req Request) (*Result, error) {
	if cx, ok := exec.(ContextExecutor); ok {
		return cx.QueryContext(ctx, req)
	}
	return exec.Query(req)
}

// Server serves the unified query surface over HTTP as JSON:
//
//	POST /v1/query     body = Request         (the canonical route)
//	POST /v1/stream    body = StreamRequest   (standing query, NDJSON)
//	GET  /v1/<kind>    one route per entry of the kind table, taking the
//	                   query-string parameters that entry lists — e.g.
//	                   /v1/spacetime?box=&from=&to=&limit= (README lists
//	                   them all; a test keeps that list equal to the table)
//
// ServeMetrics adds GET /metrics and GET /debug/vars; ServePprof adds
// /debug/pprof/ (both opt-in mounts on the same mux). Every GET query
// route accepts &trace=1 to request a Result.Trace stage breakdown.
//
// Every one-shot route returns a Result; the GET routes are conveniences
// that build the same Request the POST route accepts (times are RFC 3339,
// tol and horizon Go durations, box is minLat,minLon,maxLat,maxLon).
// /v1/stream turns the same Request into a standing query and pushes
// incremental Updates as NDJSON (stream_http.go) — served when the
// executor also implements Subscriber, 501 otherwise. Errors come back
// as {"error": "..."} with status 400 (bad request), 405 (method), 500
// (execution) or 501 (streaming unsupported).
type Server struct {
	exec Executor
	sub  Subscriber // non-nil when exec can serve standing queries
	mux  *http.ServeMux

	// Slow-query hook (RecordSlowQueries): any query whose execution
	// exceeds slowAfter lands in slowFlight with its full stage trace.
	slowAfter  time.Duration
	slowFlight *obs.Flight
}

// NewServer builds the HTTP surface over an executor. When the executor
// also implements Subscriber (the ingest engine does, and so does any
// Streamer), /v1/stream serves standing queries over it.
func NewServer(exec Executor) *Server {
	s := &Server{exec: exec, mux: http.NewServeMux()}
	s.sub, _ = exec.(Subscriber)
	s.mux.HandleFunc("/v1/query", s.handlePost)
	s.mux.HandleFunc("/v1/stream", s.handleStream)
	for _, d := range kinds {
		s.get("/v1/"+string(d.kind), s.handleGet(d))
	}
	return s
}

// get mounts a GET-only handler; any other method is a 405.
func (s *Server) get(path string, h http.HandlerFunc) {
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
			return
		}
		h(w, r)
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// ServeMetrics mounts the observability read surface on the server's
// mux: GET /metrics (Prometheus text exposition) and GET /debug/vars
// (JSON snapshot of the same registry, histograms as
// count/sum/max/p50/p90/p99 objects).
func (s *Server) ServeMetrics(reg *obs.Registry) {
	s.get("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			return // headers are gone; nothing more to do
		}
	})
	s.get("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := reg.WriteJSON(w); err != nil {
			return
		}
	})
}

// ServeHealth mounts the health surface on the server's mux:
//
//	GET /healthz   liveness  — 200 whenever the process answers
//	GET /readyz    readiness — 200/503 from h.Evaluate(), JSON verdict
//
// Liveness is intentionally unconditional: a process that can run the
// handler is alive. Readiness aggregates the registered per-layer
// checks; the body carries the per-check detail either way, so a 503
// names the failing check instead of leaving the operator to guess.
func (s *Server) ServeHealth(h *obs.Health) {
	start := time.Now()
	s.get("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"alive":          true,
			"uptime_seconds": time.Since(start).Seconds(),
		})
	})
	s.get("/readyz", func(w http.ResponseWriter, r *http.Request) {
		v := h.Evaluate()
		w.Header().Set("Content-Type", "application/json")
		if !v.Ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(v)
	})
}

// ServeFlight mounts GET /debug/flight: the flight recorder's retained
// events as JSON, oldest first. Query params filter the dump:
// ?layer= (exact match), ?level=info|warn|error (minimum), ?since=
// (RFC 3339 wall-clock floor).
func (s *Server) ServeFlight(f *obs.Flight) {
	s.get("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		flt := obs.FlightFilter{
			Layer:    q.Get("layer"),
			MinLevel: obs.ParseFlightLevel(q.Get("level")),
		}
		var err error
		if flt.Since, err = parseTime("since", q.Get("since")); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := f.WriteJSON(w, flt); err != nil {
			return // headers are gone; nothing more to do
		}
	})
}

// RecordSlowQueries arms the slow-query hook: any query that takes
// longer than threshold is recorded into f as a warn-level flight event
// carrying its kind, duration and full stage trace. While armed, every
// request is traced internally (the trace is stripped from the response
// unless the caller asked for it), so the evidence exists by the time
// the query turns out to have been slow. threshold <= 0 disarms.
func (s *Server) RecordSlowQueries(threshold time.Duration, f *obs.Flight) {
	s.slowAfter, s.slowFlight = threshold, f
}

// ServePprof mounts net/http/pprof under /debug/pprof/ — opt-in
// (maritimed -pprof) because profiles expose internals and cost CPU.
func (s *Server) ServePprof() {
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// handlePost decodes a Request body and executes it.
func (s *Server) handlePost(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST (GET routes are per-kind: /v1/%s ...)", KindTrajectory))
		return
	}
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	s.run(w, r, req)
}

// handleGet serves a kind's GET route: ParseParams builds the Request
// the POST route would have carried.
func (s *Server) handleGet(d *kindDef) http.HandlerFunc {
	for _, name := range d.params {
		if _, ok := getParams[name]; !ok { // a defect in the table: fail the mount, not each request
			panic(fmt.Sprintf("query: kind %s lists unknown GET parameter %q", d.kind, name))
		}
	}
	return func(w http.ResponseWriter, r *http.Request) {
		req, err := ParseParams(d.kind, r.URL.Query())
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		s.run(w, r, req)
	}
}

func (s *Server) run(w http.ResponseWriter, r *http.Request, req Request) {
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// While the slow-query hook is armed, trace every request so the
	// stage breakdown exists by the time the query proves slow; forced
	// traces are stripped from the response (the caller didn't ask).
	forced := false
	if s.slowAfter > 0 && !req.Trace {
		req.Trace, forced = true, true
	}
	t0 := time.Now()
	res, err := execute(r.Context(), s.exec, req)
	if elapsed := time.Since(t0); s.slowAfter > 0 && elapsed >= s.slowAfter {
		s.recordSlow(req, res, err, elapsed)
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if forced {
		res.Trace = nil
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(res); err != nil {
		// Headers are gone; nothing more to do than note it server-side.
		return
	}
}

// recordSlow lands one over-threshold query in the flight ring with its
// stage trace rendered compactly (name@start+dur, semicolon-joined).
func (s *Server) recordSlow(req Request, res *Result, err error, elapsed time.Duration) {
	fields := []obs.KV{
		obs.FS("kind", string(req.Kind)),
		obs.FI("ms", elapsed.Milliseconds()),
	}
	switch {
	case err != nil:
		fields = append(fields, obs.FS("error", err.Error()))
	case res != nil && len(res.Trace) > 0:
		var b []byte
		for i, sp := range res.Trace {
			if i > 0 {
				b = append(b, ';')
			}
			b = fmt.Appendf(b, "%s@%v+%v", sp.Name,
				time.Duration(sp.StartNS).Round(time.Microsecond),
				time.Duration(sp.DurNS).Round(time.Microsecond))
		}
		fields = append(fields, obs.FS("trace", string(b)))
	}
	s.slowFlight.Record(obs.FlightWarn, "query", "slow query", fields...)
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
