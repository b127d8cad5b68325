package query

import (
	"context"
	"fmt"
	"net/url"
	"slices"
	"strconv"
	"time"

	"repro/internal/fusion"
	"repro/internal/geo"
	"repro/internal/model"
)

// kindDef is the one definition of a query kind. Everything that has to
// know a kind — Validate and normalize, the engine's execution, the GET
// route and msaquery (ParseParams), the hub filter or the Streamer
// ticker — looks it up here
// (lookup) or iterates the table (Kinds, NewServer); federation needs no
// entry at all, because a peer is asked through the same primitive
// reads and the Derived hook every other source answers. Adding a kind
// is one entry in kinds below plus its test (README, "Adding a query
// kind").
type kindDef struct {
	kind Kind

	// params are the query-string parameters GET /v1/<kind> accepts, by
	// name in the getParams vocabulary. required are the fields every
	// request of the kind must carry, named the same way (Validate:
	// "<kind> requires <name>").
	params   []string
	required []string
	// validate holds the kind's own bounds beyond presence and fills its
	// defaults into the request that passed them; nil = neither.
	validate func(r *Request) error

	// run answers one validated, defaulted request: fetch from every
	// source of the call (gather), merge, fill res.
	run func(c *call, res *Result)
	// replay answers a derived kind from a tstore archive (the archive
	// sources' Derived where no lane knows the vessel); nil otherwise.
	replay func(ctx context.Context, a archived, r Request) *Result

	// Standing mode. update is the Update kind a subscription delivers
	// ("" = not streamable), produced by exactly one of: match, which
	// builds the hub-side predicate over published updates of that kind
	// (replay-on-append: trajectory, spacetime, live, alerts); or tick,
	// which copies the payload out of a periodic re-run through the
	// executor, false = nothing to push yet (situation, track, predict,
	// quality, anomalies — served by a Streamer).
	update UpdateKind
	match  func(r Request) func(*Update) bool
	tick   func(res *Result, u *Update) bool
}

// Input ceilings of the kinds whose cost scales with a request field
// rather than with the data held: past these a request is rejected, not
// served slowly (an unbounded k or grid is a one-line memory attack on
// an empty daemon).
const (
	maxNearestK       = 10000
	maxSituationCells = 1 << 20
)

// kinds is the table, in the stable order Kinds() reports.
var kinds = []*kindDef{
	{
		kind:     KindTrajectory,
		params:   []string{"mmsi", "from", "to", "limit"},
		required: []string{"mmsi"},
		run: statesOf(func(ctx context.Context, s Source, r Request) []model.VesselState {
			from, to := r.timeRange()
			return s.Trajectory(ctx, r.MMSI, from, to)
		}),
		update: UpdateState,
		match: func(r Request) func(*Update) bool {
			inWindow := r.window()
			return func(u *Update) bool { return u.State.MMSI == r.MMSI && inWindow(u.State.At) }
		},
	},
	{
		kind:     KindSpaceTime,
		params:   []string{"box", "from", "to", "limit"},
		required: []string{"box"},
		run: statesOf(func(ctx context.Context, s Source, r Request) []model.VesselState {
			from, to := r.timeRange()
			return s.SpaceTime(ctx, r.Box.Rect(), from, to)
		}),
		update: UpdateState,
		match: func(r Request) func(*Update) bool {
			inWindow, rect := r.window(), r.Box.Rect()
			return func(u *Update) bool {
				return inWindow(u.State.At) && rect.Contains(geo.Point{Lat: u.State.Lat, Lon: u.State.Lon})
			}
		},
	},
	{
		kind:   KindNearest,
		params: []string{"point", "at", "tol", "k"},
		validate: func(r *Request) error {
			// (0,0) is a legitimate reference point (Gulf of Guinea), so an
			// omitted point is indistinguishable from it here; the GET
			// route and the CLI require the point parameter explicitly.
			if r.Lat < -90 || r.Lat > 90 || r.Lon < -180 || r.Lon > 180 {
				return fmt.Errorf("query: nearest point out of range: %g,%g", r.Lat, r.Lon)
			}
			if r.K < 0 || r.K > maxNearestK {
				return fmt.Errorf("query: nearest k must be in [0, %d], got %d", maxNearestK, r.K)
			}
			if r.K == 0 {
				r.K = 5
			}
			if r.Tol <= 0 {
				if r.At.IsZero() {
					// No reference instant: time-agnostic nearest (any
					// sample qualifies; time.Time.Sub saturates, so the
					// max-duration tolerance admits every dt).
					r.Tol = Duration(1<<63 - 1)
				} else {
					r.Tol = Duration(30 * time.Minute)
				}
			}
			return nil
		},
		run: runNearest,
	},
	{
		kind:     KindLivePicture,
		params:   []string{"box", "limit"},
		required: []string{"box"},
		run:      runLive,
		update:   UpdateState,
		match: func(r Request) func(*Update) bool {
			rect := r.Box.Rect()
			return func(u *Update) bool { return rect.Contains(geo.Point{Lat: u.State.Lat, Lon: u.State.Lon}) }
		},
	},
	{
		kind:     KindSituation,
		params:   []string{"box", "rows", "cols", "severity"},
		required: []string{"box"},
		validate: func(r *Request) error {
			if r.Rows < 0 || r.Cols < 0 {
				return fmt.Errorf("query: situation rows and cols must not be negative, got %d×%d", r.Rows, r.Cols)
			}
			if r.Rows == 0 {
				r.Rows = 12
			}
			if r.Cols == 0 {
				r.Cols = 48
			}
			// Divide rather than multiply: the product of two accepted
			// ints can overflow (on 32-bit, wrap to 0 and pass).
			if r.Rows > maxSituationCells/r.Cols {
				return fmt.Errorf("query: situation rows×cols %d×%d exceeds %d cells", r.Rows, r.Cols, maxSituationCells)
			}
			return nil
		},
		run:    runSituation,
		update: UpdateSituation,
		tick: func(res *Result, u *Update) bool {
			u.Situation = res.Situation
			return true
		},
	},
	{
		kind:   KindAlertHistory,
		params: []string{"from", "to", "severity", "limit"},
		run:    runAlerts,
		update: UpdateAlert,
		match: func(r Request) func(*Update) bool {
			inWindow := r.window()
			return func(u *Update) bool { return u.Alert.Severity >= r.MinSeverity && inWindow(u.Alert.At) }
		},
	},
	{
		kind: KindStats,
		run:  runStats,
	},
	{
		kind:     KindTrack,
		params:   []string{"mmsi"},
		required: []string{"mmsi"},
		run:      derived(trackOf, func(a, b *TrackState) bool { return a.At.After(b.At) }),
		replay:   memoised(trackOf, TrackFold(fusion.DefaultTrackerConfig())),
		update:   UpdateTrack,
		tick: func(res *Result, u *Update) bool {
			u.Track = res.Track
			return u.Track != nil
		},
	},
	{
		kind:     KindPredict,
		params:   []string{"mmsi", "horizon"},
		required: []string{"mmsi"},
		validate: func(r *Request) error {
			if r.Horizon <= 0 {
				return fmt.Errorf("query: predict requires a positive horizon")
			}
			if time.Duration(r.Horizon) > MaxPredictHorizon {
				return fmt.Errorf("query: predict horizon %s exceeds %s", time.Duration(r.Horizon), MaxPredictHorizon)
			}
			return nil
		},
		run: derived(func(res *Result) **Prediction { return &res.Prediction },
			func(a, b *Prediction) bool { return a.From.After(b.From) }),
		replay: derivePredict,
		update: UpdatePredict,
		tick: func(res *Result, u *Update) bool {
			u.Prediction = res.Prediction
			return u.Prediction != nil
		},
	},
	{
		kind:     KindQuality,
		params:   []string{"mmsi"},
		required: []string{"mmsi"},
		run:      derived(qualityOf, func(a, b *QualityScore) bool { return a.Checked > b.Checked }),
		replay:   memoised(qualityOf, NewQualityAccumulator),
		update:   UpdateQuality,
		tick: func(res *Result, u *Update) bool {
			u.Quality = res.Quality
			return u.Quality != nil
		},
	},
	{
		// MMSI is optional: set, the per-vessel report; unset, the
		// fleet-ranked form (Limit-capped).
		kind:   KindAnomalies,
		params: []string{"mmsi", "limit"},
		validate: func(r *Request) error {
			if r.MMSI == 0 && r.Limit == 0 {
				r.Limit = DefaultAnomalyLimit
			}
			return nil
		},
		run:    runAnomalies,
		replay: replayAnomalies,
		update: UpdateAnomalies,
		tick: func(res *Result, u *Update) bool {
			u.Anomalies = res.Anomalies
			return u.Anomalies != nil
		},
	},
}

// The payloads of the memoised fold kinds, for their run and replay.
func trackOf(res *Result) **TrackState     { return &res.Track }
func qualityOf(res *Result) **QualityScore { return &res.Quality }
func vesselAnomalyOf(res *Result) **VesselAnomaly {
	if res.Anomalies == nil {
		res.Anomalies = &AnomalyReport{}
	}
	return &res.Anomalies.Vessel
}

// lookup finds a kind's definition, nil when the kind is unknown. The
// table is a dozen entries; a scan beats hashing the name.
func lookup(k Kind) *kindDef {
	for _, d := range kinds {
		if d.kind == k {
			return d
		}
	}
	return nil
}

// kindsWhere lists the kinds whose definition satisfies keep, in table
// order.
func kindsWhere(keep func(*kindDef) bool) []Kind {
	var out []Kind
	for _, d := range kinds {
		if keep(d) {
			out = append(out, d.kind)
		}
	}
	return out
}

// Kinds lists every request kind (stable order, used by CLIs and docs).
func Kinds() []Kind { return kindsWhere(func(*kindDef) bool { return true }) }

// prepare resolves a request's definition, validates the request against
// it — presence, the bounds every kind shares, then the kind's own — and
// fills the kind's defaults: the one entry every execution path (engine,
// hub, streamer) takes.
func prepare(r Request) (Request, *kindDef, error) {
	d := lookup(r.Kind)
	if d == nil {
		if r.Kind == "" {
			return r, nil, fmt.Errorf("query: missing kind (one of %v)", Kinds())
		}
		return r, nil, fmt.Errorf("query: unknown kind %q (one of %v)", r.Kind, Kinds())
	}
	for _, name := range d.required {
		// A name outside the vocabulary has no presence check and so is
		// never present: a typo in the table fails every request of the
		// kind with this error instead of dereferencing nil.
		if has := getParams[name].has; has == nil || !has(&r) {
			return r, nil, fmt.Errorf("query: %s requires %s", r.Kind, name)
		}
	}
	if r.Box != nil {
		if err := r.Box.Validate(); err != nil {
			return r, nil, err
		}
	}
	if !r.From.IsZero() && !r.To.IsZero() && r.To.Before(r.From) {
		return r, nil, fmt.Errorf("query: to %s precedes from %s", r.To.Format(time.RFC3339), r.From.Format(time.RFC3339))
	}
	if r.Limit < 0 {
		return r, nil, fmt.Errorf("query: negative limit %d", r.Limit)
	}
	if d.validate != nil {
		if err := d.validate(&r); err != nil {
			return r, nil, err
		}
	}
	return r, d, nil
}

// --- the GET vocabulary ---------------------------------------------------------

// ParseParams builds the request of kind from query-string parameters,
// the way GET /v1/<kind>?name=value… and msaquery's KIND name=value…
// both read one. It accepts each name the kind's params list, plus
// trace (a bool), and rejects an unknown kind, any other name and a
// name given twice. The request is parsed, not validated.
func ParseParams(kind Kind, q url.Values) (Request, error) {
	req := Request{Kind: kind}
	d := lookup(kind)
	if d == nil {
		return req, fmt.Errorf("query: unknown kind %q (one of %v)", kind, Kinds())
	}
	names := make([]string, 0, len(q))
	for name := range q {
		names = append(names, name)
	}
	slices.Sort(names) // the first bad name in a stable order
	for _, name := range names {
		if name != "trace" && !slices.Contains(d.params, name) {
			return req, fmt.Errorf("query: %s has no parameter %q (it takes %v and trace)", kind, name, d.params)
		}
		if n := len(q[name]); n > 1 {
			return req, fmt.Errorf("query: parameter %s given %d times", name, n)
		}
	}
	for _, name := range d.params {
		if err := getParams[name].set(&req, name, q.Get(name)); err != nil {
			return req, err
		}
	}
	req.Trace, _ = strconv.ParseBool(q.Get("trace"))
	return req, nil
}

// param is one query-string parameter of the GET routes: set parses its
// value into the request ("" = absent, and absent is fine unless the
// parameter says otherwise); has reports the field present on a typed
// request, for the parameters a kind lists as required (point has none:
// the typed form cannot tell an omitted point from (0,0)).
type param struct {
	set func(r *Request, key, v string) error
	has func(r *Request) bool
}

// scalar builds the parameter of a plain field: parse reads its text
// into T ("" = the zero value), at locates the field on the request, and
// present means non-zero.
func scalar[T comparable](parse func(key, s string) (T, error), at func(*Request) *T) param {
	return param{
		set: func(r *Request, key, v string) (err error) {
			*at(r), err = parse(key, v)
			return err
		},
		has: func(r *Request) bool {
			var zero T
			return *at(r) != zero
		},
	}
}

// getParams is the shared vocabulary the kinds' params and required
// lists draw from. Times are RFC 3339, durations Go duration strings,
// box is minLat,minLon,maxLat,maxLon and point lat,lon.
var getParams = map[string]param{
	"mmsi":     scalar(parseUint32, func(r *Request) *uint32 { return &r.MMSI }),
	"from":     scalar(parseTime, func(r *Request) *time.Time { return &r.From }),
	"to":       scalar(parseTime, func(r *Request) *time.Time { return &r.To }),
	"at":       scalar(parseTime, func(r *Request) *time.Time { return &r.At }),
	"tol":      scalar(parseDuration, func(r *Request) *Duration { return &r.Tol }),
	"horizon":  scalar(parseDuration, func(r *Request) *Duration { return &r.Horizon }),
	"k":        scalar(parseInt, func(r *Request) *int { return &r.K }),
	"rows":     scalar(parseInt, func(r *Request) *int { return &r.Rows }),
	"cols":     scalar(parseInt, func(r *Request) *int { return &r.Cols }),
	"limit":    scalar(parseInt, func(r *Request) *int { return &r.Limit }),
	"severity": scalar(parseInt, func(r *Request) *int { return &r.MinSeverity }),
	"box": {
		set: func(r *Request, _, v string) error {
			if v == "" {
				return nil
			}
			b, err := parseBox(v)
			if err != nil {
				return err
			}
			r.Box = &b
			return nil
		},
		has: func(r *Request) bool { return r.Box != nil },
	},
	"point": {
		set: func(r *Request, _, v string) error {
			// The one parameter a route insists on: the typed form cannot
			// tell an omitted point from (0,0), so the GET form must.
			if v == "" {
				return fmt.Errorf("query: %s requires point=lat,lon", r.Kind)
			}
			p, err := parsePoint(v)
			r.Lat, r.Lon = p.Lat, p.Lon // the zero point on error, and the error rejects the request
			return err
		},
	},
}

// The value parsers: "" is the zero value, anything else must parse.
var (
	parseTime = parsed("RFC 3339", func(s string) (time.Time, error) { return time.Parse(time.RFC3339, s) })
	parseInt  = parsed("an integer", strconv.Atoi)

	parseDuration = parsed("a duration", func(s string) (Duration, error) {
		d, err := time.ParseDuration(s)
		return Duration(d), err
	})
	parseUint32 = parsed("an unsigned 32-bit integer", func(s string) (uint32, error) {
		n, err := strconv.ParseUint(s, 10, 32)
		return uint32(n), err
	})
)

// parsed lifts a text parser into the vocabulary: key names the
// parameter and form what it must look like in the rejection.
func parsed[T any](form string, parse func(string) (T, error)) func(key, s string) (T, error) {
	return func(key, s string) (T, error) {
		var zero T
		if s == "" {
			return zero, nil
		}
		v, err := parse(s)
		if err != nil { // the input is quoted back; the parser's own wording adds nothing to it
			return zero, fmt.Errorf("query: %s must be %s (got %q)", key, form, s)
		}
		return v, nil
	}
}
