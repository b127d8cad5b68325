// Package query is the unified read surface of the infrastructure, in
// two modes over one typed request vocabulary.
//
// One-shot: a Request — trajectory retrieval, space–time range, nearest
// vessel, the live picture, situation assembly, alert history, store
// statistics (the §2.3 moving-object queries) — answered from the live
// sharded pipelines, the durable archive, federation peers, or any mix,
// merged and deduplicated on (MMSI, timestamp) (engine.go), servable
// over HTTP (http.go / client.go):
//
//	res, err := eng.Query(query.Request{
//	    Kind: query.KindSpaceTime,
//	    Box:  &query.Box{MinLat: 42, MinLon: 4, MaxLat: 44, MaxLon: 9},
//	    From: t0, To: t1,
//	})
//
// Continuous: the same Request, subscribed instead of executed, becomes
// a standing query whose incremental results are pushed as they happen —
// a box watch, a per-vessel follow, an alert feed, a situation ticker
// (sub.go). A Hub fans published records out through bounded
// per-subscriber queues (slow consumers drop, counted, never blocking
// the publisher) with a replay ring for resume-from-sequence; the HTTP
// form is /v1/stream NDJSON (stream_http.go) and Client.Subscribe is the
// remote peer with automatic resume:
//
//	sub, err := e.Subscribe(req, query.SubOptions{})
//	for u := range sub.Updates() { ... }
//
// The read API is also the system's composition boundary: a Client is
// itself a Source (federate.go), so `maritimed -peer URL` merges another
// daemon's picture into local answers — one hop deep, degraded rather
// than fatal when the peer misbehaves.
//
// Results and updates carry a stable JSON encoding (lower-snake field
// names, RFC 3339 timestamps, durations as Go duration strings), so the
// wire form of an HTTP answer is byte-comparable with a locally
// marshalled in-process answer — the contract the round-trip tests pin.
// Any future storage backend (remote segments, object stores) plugs in
// as a Source and inherits the whole surface.
package query

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/ais"
	"repro/internal/events"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/va"
)

// Kind selects the query a Request performs.
type Kind string

// The request kinds of the unified read surface.
const (
	// KindTrajectory retrieves one vessel's samples in [From, To]
	// (zero times = unbounded).
	KindTrajectory Kind = "trajectory"
	// KindSpaceTime retrieves every sample inside Box during [From, To],
	// ordered by (MMSI, time).
	KindSpaceTime Kind = "spacetime"
	// KindNearest retrieves up to K distinct vessels with a sample within
	// Tol of instant At, ordered by the distance of that sample to
	// (Lat, Lon). A zero At (with no Tol) searches time-agnostically:
	// every sample qualifies, whatever its age.
	KindNearest Kind = "nearest"
	// KindLivePicture retrieves the current (newest-known) state of every
	// vessel inside Box, one state per vessel, ordered by MMSI.
	KindLivePicture Kind = "live"
	// KindSituation assembles the operational picture over Box: live
	// states, a Rows×Cols density surface and the alert board.
	KindSituation Kind = "situation"
	// KindAlertHistory retrieves recognised alerts in [From, To] with
	// severity ≥ MinSeverity, time-ordered.
	KindAlertHistory Kind = "alerts"
	// KindStats reports per-source and aggregate store statistics.
	KindStats Kind = "stats"
	// KindTrack retrieves one vessel's fused track state: the smoothed
	// position/velocity estimate and its covariance ellipse (trackintel.go).
	KindTrack Kind = "track"
	// KindPredict forecasts one vessel's position Horizon ahead of its last
	// fix, with a 1-sigma confidence envelope radius.
	KindPredict Kind = "predict"
	// KindQuality reports one vessel's data-integrity score: a Beta-mean
	// reliability with a conservative lower bound, plus per-rule issue
	// counts from the kinematic checks.
	KindQuality Kind = "quality"
	// KindAnomalies reports behavioral deviation (anomaly.go): with MMSI
	// set, one vessel's deviation score, reporting gaps and recent
	// stop/move episodes; without, the fleet ranked by deviation score
	// (Limit-capped, default DefaultAnomalyLimit).
	KindAnomalies Kind = "anomalies"
)

// Duration is a time.Duration with a human-readable JSON encoding: it
// marshals as a Go duration string ("30m0s") and unmarshals from either a
// duration string or a number of nanoseconds.
type Duration time.Duration

// MarshalJSON encodes the duration as its Go string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "30m", "1h30m0s" or integer nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("query: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("query: duration must be a string or nanoseconds: %s", b)
	}
	*d = Duration(n)
	return nil
}

// Box is the wire form of a geographic bounding box. Unlike geo.Rect it
// validates (parseBox, Validate) and carries stable JSON field names.
type Box struct {
	MinLat float64 `json:"min_lat"`
	MinLon float64 `json:"min_lon"`
	MaxLat float64 `json:"max_lat"`
	MaxLon float64 `json:"max_lon"`
}

// BoxOf converts a geo.Rect into its wire form.
func BoxOf(r geo.Rect) Box {
	return Box{MinLat: r.MinLat, MinLon: r.MinLon, MaxLat: r.MaxLat, MaxLon: r.MaxLon}
}

// Rect converts the box back to the geodesy type.
func (b Box) Rect() geo.Rect {
	return geo.Rect{MinLat: b.MinLat, MinLon: b.MinLon, MaxLat: b.MaxLat, MaxLon: b.MaxLon}
}

// Validate rejects inverted or out-of-range bounds with a descriptive
// error — a query against an accidentally empty box should fail loudly,
// not return zero rows.
func (b Box) Validate() error {
	switch {
	case b.MinLat > b.MaxLat:
		return fmt.Errorf("query: box has minLat %g > maxLat %g", b.MinLat, b.MaxLat)
	case b.MinLon > b.MaxLon:
		return fmt.Errorf("query: box has minLon %g > maxLon %g", b.MinLon, b.MaxLon)
	case b.MinLat < -90 || b.MaxLat > 90:
		return fmt.Errorf("query: box latitude out of range [-90, 90]: %g..%g", b.MinLat, b.MaxLat)
	case b.MinLon < -180 || b.MaxLon > 180:
		return fmt.Errorf("query: box longitude out of range [-180, 180]: %g..%g", b.MinLon, b.MaxLon)
	}
	return nil
}

// parseBox parses "minLat,minLon,maxLat,maxLon" strictly: exactly four
// numeric fields (spaces around commas tolerated) and validated bounds.
func parseBox(s string) (Box, error) {
	fields, err := splitFloats(s, 4)
	if err != nil {
		return Box{}, fmt.Errorf("query: box must be minLat,minLon,maxLat,maxLon: %w", err)
	}
	b := Box{MinLat: fields[0], MinLon: fields[1], MaxLat: fields[2], MaxLon: fields[3]}
	if err := b.Validate(); err != nil {
		return Box{}, err
	}
	return b, nil
}

// parsePoint parses "lat,lon" strictly, validating the coordinate range.
func parsePoint(s string) (geo.Point, error) {
	fields, err := splitFloats(s, 2)
	if err != nil {
		return geo.Point{}, fmt.Errorf("query: point must be lat,lon: %w", err)
	}
	p := geo.Point{Lat: fields[0], Lon: fields[1]}
	if p.Lat < -90 || p.Lat > 90 || p.Lon < -180 || p.Lon > 180 {
		return geo.Point{}, fmt.Errorf("query: point out of range: %g,%g", p.Lat, p.Lon)
	}
	return p, nil
}

// splitFloats splits a comma-separated list into exactly n floats,
// rejecting missing, extra or non-numeric fields.
func splitFloats(s string, n int) ([]float64, error) {
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("expected %d comma-separated fields, got %d in %q", n, len(parts), s)
	}
	out := make([]float64, n)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("field %d (%q) is not a number", i+1, strings.TrimSpace(p))
		}
		out[i] = v
	}
	return out, nil
}

// Request is one typed read against the unified surface. Zero-valued
// fields that a kind does not use are ignored; fields a kind requires are
// checked by Validate (the Engine and the HTTP server both call it).
type Request struct {
	Kind Kind `json:"kind"`

	// MMSI selects the vessel of the per-vessel kinds (trajectory, track,
	// predict, quality) and switches anomalies to its per-vessel form.
	MMSI uint32 `json:"mmsi,omitempty"`

	// From/To bound event time (trajectory, space–time, alert history).
	// Zero means unbounded on that side.
	From time.Time `json:"from,omitempty"`
	To   time.Time `json:"to,omitempty"`

	// Box bounds space (space–time, live picture, situation).
	Box *Box `json:"box,omitempty"`

	// Lat/Lon is the reference point and At the reference instant for
	// KindNearest; Tol is the half-width of the admissible time window
	// around At (default 30m) and K the number of vessels (default 5, at
	// most 10000).
	// An omitted point searches from (0,0) — the GET route and the CLI
	// require it explicitly, the typed/JSON form trusts the caller.
	Lat float64   `json:"lat,omitempty"`
	Lon float64   `json:"lon,omitempty"`
	At  time.Time `json:"at,omitempty"`
	Tol Duration  `json:"tol,omitempty"`
	K   int       `json:"k,omitempty"`

	// Rows/Cols set the situation density resolution (default 12×48, at
	// most 1<<20 cells).
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`

	// Horizon is how far ahead of the vessel's last fix a KindPredict
	// request forecasts (required, positive, at most MaxPredictHorizon).
	Horizon Duration `json:"horizon,omitempty"`

	// MinSeverity filters alerts (history and situation boards).
	MinSeverity int `json:"min_severity,omitempty"`

	// Limit caps the number of states/alerts returned (0 = unlimited).
	// Truncation is recorded in Result.Truncated.
	Limit int `json:"limit,omitempty"`

	// MMSIs asks a KindStats request to include the distinct vessel
	// identifier sets (per source, and their union in Stats.MMSIs). This
	// is the cheap federation read: a peer polling stats fetches one
	// sorted uint32 list per poll instead of the worldwide live picture.
	MMSIs bool `json:"mmsis,omitempty"`

	// Local restricts the answer to this daemon's own sources: federation
	// peers are skipped. Peer sources set it on every outgoing federated
	// read, which keeps federation one hop deep — mutually-peered daemons
	// cannot create a query cycle.
	Local bool `json:"local,omitempty"`

	// Trace asks the engine to record a per-stage breakdown (source
	// fan-out, merge, total) into Result.Trace — `msaquery -trace`.
	Trace bool `json:"trace,omitempty"`
}

// Validate checks that the request names a known kind and carries the
// fields that kind requires, with every bound in range — the kind's own
// definition (kinds.go) says which.
func (r Request) Validate() error {
	_, _, err := prepare(r)
	return err
}

// normalize fills the kind's defaults into a valid request.
func (r Request) normalize() Request {
	r, _, _ = prepare(r)
	return r
}

// timeRange returns the effective [from, to] with zero values widened to
// unbounded (the zero time is before every sample; year 9999 is after).
func (r Request) timeRange() (time.Time, time.Time) {
	from, to := r.From, r.To
	if to.IsZero() {
		to = time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC)
	}
	return from, to
}

// window is the standing-query form of timeRange: a predicate admitting
// the instants inside [From, To].
func (r Request) window() func(time.Time) bool {
	from, to := r.timeRange()
	return func(at time.Time) bool { return !at.Before(from) && !at.After(to) }
}

// State is the wire form of one vessel state sample.
type State struct {
	MMSI      uint32    `json:"mmsi"`
	At        time.Time `json:"at"`
	Lat       float64   `json:"lat"`
	Lon       float64   `json:"lon"`
	SpeedKn   float64   `json:"speed_kn"`
	CourseDeg float64   `json:"course_deg"`
	Status    int       `json:"status"`
}

// StateOf converts a model state into its wire form.
func StateOf(s model.VesselState) State {
	return State{
		MMSI: s.MMSI, At: s.At, Lat: s.Pos.Lat, Lon: s.Pos.Lon,
		SpeedKn: s.SpeedKn, CourseDeg: s.CourseDeg, Status: int(s.Status),
	}
}

// Model converts the wire state back into the model type.
func (s State) Model() model.VesselState {
	return model.VesselState{
		MMSI: s.MMSI, At: s.At, Pos: geo.Point{Lat: s.Lat, Lon: s.Lon},
		SpeedKn: s.SpeedKn, CourseDeg: s.CourseDeg, Status: ais.NavStatus(s.Status),
	}
}

// Alert is the wire form of one recognised event.
type Alert struct {
	Kind     string    `json:"kind"`
	MMSI     uint32    `json:"mmsi"`
	Other    uint32    `json:"other,omitempty"`
	At       time.Time `json:"at"`
	Lat      float64   `json:"lat"`
	Lon      float64   `json:"lon"`
	Severity int       `json:"severity"`
	Note     string    `json:"note,omitempty"`
}

// AlertOf converts an events.Alert into its wire form.
func AlertOf(a events.Alert) Alert {
	return Alert{
		Kind: string(a.Kind), MMSI: a.MMSI, Other: a.Other, At: a.At,
		Lat: a.Where.Lat, Lon: a.Where.Lon, Severity: a.Severity, Note: a.Note,
	}
}

// Model converts the wire alert back into the events type.
func (a Alert) Model() events.Alert {
	return events.Alert{
		Kind: events.Kind(a.Kind), MMSI: a.MMSI, Other: a.Other, At: a.At,
		Where: geo.Point{Lat: a.Lat, Lon: a.Lon}, Severity: a.Severity, Note: a.Note,
	}
}

// Situation is the wire form of an assembled operational picture: the
// vessels, the row-major Rows×Cols density surface (row 0 = south) and
// the severity-ordered alert board.
type Situation struct {
	At      time.Time `json:"at"`
	Box     Box       `json:"box"`
	Rows    int       `json:"rows"`
	Cols    int       `json:"cols"`
	Density []int     `json:"density"`
	Vessels []State   `json:"vessels"`
	Alerts  []Alert   `json:"alerts"`
}

// SituationOf converts a va.Situation into its wire form.
func SituationOf(s *va.Situation) *Situation {
	out := &Situation{
		At: s.At, Box: BoxOf(s.Bounds),
		Rows: s.Density.Rows, Cols: s.Density.Cols,
		Density: append([]int(nil), s.Density.Counts...),
	}
	for _, v := range s.Vessels {
		out.Vessels = append(out.Vessels, StateOf(v))
	}
	for _, a := range s.Alerts {
		out.Alerts = append(out.Alerts, Alert{
			Kind: a.Kind, MMSI: a.MMSI, At: a.At,
			Lat: a.Where.Lat, Lon: a.Where.Lon, Severity: a.Severity, Note: a.Note,
		})
	}
	return out
}

// SourceStats describes one source's holdings. Err reports a degraded
// federation peer: the engine kept answering without it, and this is
// where the operator sees why the picture may be partial.
//
// ResidentPoints and EvictedVessels surface the tiered archive: Points
// counts everything the source holds, ResidentPoints the subset actually
// in memory, and EvictedVessels the vessels reduced to stubs (both
// omitted while nothing is evicted — a fully resident source reports
// bytes-identically to a pre-tiering one).
type SourceStats struct {
	Name    string `json:"name"`
	Points  int    `json:"points"`
	Vessels int    `json:"vessels"`
	Live    int    `json:"live"`
	Alerts  int    `json:"alerts"`
	Err     string `json:"err,omitempty"`

	ResidentPoints int `json:"resident_points,omitempty"`
	EvictedVessels int `json:"evicted_vessels,omitempty"`

	// MMSIs is the source's distinct vessel identifier set, sorted — in
	// an answer, populated only when the request set Request.MMSIs.
	MMSIs []uint32 `json:"mmsis,omitempty"`
}

// Stats aggregates the sources a query engine answers from. Points and
// Alerts are sums (overlapping sources may hold the same record twice);
// Vessels and Live count distinct MMSIs across sources, computed from
// the per-source identifier sets (an O(vessels) integer read per source,
// never a worldwide state fetch).
type Stats struct {
	Points  int           `json:"points"`
	Vessels int           `json:"vessels"`
	Live    int           `json:"live"`
	Alerts  int           `json:"alerts"`
	Sources []SourceStats `json:"sources"`

	// MMSIs is the distinct-vessel union across sources, sorted —
	// populated only when the request set Request.MMSIs (the read
	// federation peers poll).
	MMSIs []uint32 `json:"mmsis,omitempty"`
}

// Result is the answer to one Request. Exactly the fields relevant to
// the request's kind are populated; Count is the number of states or
// alerts (or live vessels for situations) before Limit truncation.
type Result struct {
	Kind    Kind     `json:"kind"`
	Sources []string `json:"sources"`
	Count   int      `json:"count"`
	// Truncated reports that Limit cut the answer short.
	Truncated bool `json:"truncated,omitempty"`

	States    []State    `json:"states,omitempty"`
	Alerts    []Alert    `json:"alerts,omitempty"`
	Situation *Situation `json:"situation,omitempty"`
	Stats     *Stats     `json:"stats,omitempty"`

	// Track intelligence payloads (trackintel.go), one per kind.
	Track      *TrackState   `json:"track,omitempty"`
	Prediction *Prediction   `json:"prediction,omitempty"`
	Quality    *QualityScore `json:"quality,omitempty"`

	// Anomalies is the behavioral-deviation payload (anomaly.go).
	Anomalies *AnomalyReport `json:"anomalies,omitempty"`

	// Trace is the per-stage breakdown, present when the request set
	// Trace: true. Spans are sorted by (start, name); "total" is last.
	Trace []TraceSpan `json:"trace,omitempty"`
}

// TraceSpan is one named stage of a traced request as it appears on the
// wire: offset from request start and duration, both in nanoseconds.
// Parent names the span this one nests under ("" = root) — federated
// traces use it to hang a peer's stages below its peer/<addr> span.
type TraceSpan struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// ModelStates converts the result's states back into model form.
func (r *Result) ModelStates() []model.VesselState {
	out := make([]model.VesselState, len(r.States))
	for i, s := range r.States {
		out[i] = s.Model()
	}
	return out
}
