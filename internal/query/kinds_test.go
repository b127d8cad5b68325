package query

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/tstore"
)

// kindSamples holds one representative typed request per kind — the POST
// form the completeness test compares each GET route against. A kind
// without a sample fails the test: adding a kind is its table entry plus
// its line here.
func kindSamples() map[Kind]Request {
	box := &Box{MinLat: 41, MinLon: 4, MaxLat: 45, MaxLon: 9}
	at := t0.Add(10 * time.Minute)
	return map[Kind]Request{
		KindTrajectory:   {Kind: KindTrajectory, MMSI: 201000003, From: t0.Add(3 * time.Minute), To: at, Limit: 4},
		KindSpaceTime:    {Kind: KindSpaceTime, Box: box, From: t0, To: at, Limit: 9},
		KindNearest:      {Kind: KindNearest, Lat: 42.2, Lon: 5.3, At: at, Tol: Duration(5 * time.Minute), K: 3},
		KindLivePicture:  {Kind: KindLivePicture, Box: box, Limit: 5},
		KindSituation:    {Kind: KindSituation, Box: box, Rows: 6, Cols: 12, MinSeverity: 1},
		KindAlertHistory: {Kind: KindAlertHistory, From: t0, To: at, MinSeverity: 2, Limit: 3},
		KindStats:        {Kind: KindStats},
		KindTrack:        {Kind: KindTrack, MMSI: 201000003},
		KindPredict:      {Kind: KindPredict, MMSI: 201000003, Horizon: Duration(15 * time.Minute)},
		KindQuality:      {Kind: KindQuality, MMSI: 201000003},
		KindAnomalies:    {Kind: KindAnomalies, MMSI: 201000003, Limit: 2},
	}
}

// renderParam writes a typed request's field the way a caller would put
// it on a query string — the hand-written inverse of the getParams
// setters, so a setter filling the wrong field shows as a GET/POST
// divergence.
var renderParam = map[string]func(r Request) string{
	"mmsi":     func(r Request) string { return strconv.FormatUint(uint64(r.MMSI), 10) },
	"from":     func(r Request) string { return r.From.Format(time.RFC3339) },
	"to":       func(r Request) string { return r.To.Format(time.RFC3339) },
	"at":       func(r Request) string { return r.At.Format(time.RFC3339) },
	"tol":      func(r Request) string { return time.Duration(r.Tol).String() },
	"horizon":  func(r Request) string { return time.Duration(r.Horizon).String() },
	"k":        func(r Request) string { return strconv.Itoa(r.K) },
	"rows":     func(r Request) string { return strconv.Itoa(r.Rows) },
	"cols":     func(r Request) string { return strconv.Itoa(r.Cols) },
	"limit":    func(r Request) string { return strconv.Itoa(r.Limit) },
	"severity": func(r Request) string { return strconv.Itoa(r.MinSeverity) },
	"point":    func(r Request) string { return fmt.Sprintf("%g,%g", r.Lat, r.Lon) },
	"box": func(r Request) string {
		return fmt.Sprintf("%g,%g,%g,%g", r.Box.MinLat, r.Box.MinLon, r.Box.MaxLat, r.Box.MaxLon)
	},
}

// getURL renders the GET form of a typed request from its kind's
// declared parameters.
func getURL(t *testing.T, d *kindDef, req Request) string {
	t.Helper()
	q := url.Values{}
	for _, name := range d.params {
		render, ok := renderParam[name]
		if !ok {
			t.Fatalf("kind %s lists GET parameter %q with no renderer in this test", d.kind, name)
		}
		q.Set(name, render(req))
	}
	u := "/v1/" + string(d.kind)
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	return u
}

// httpDo issues a GET (body == "") or a JSON POST and returns the status
// with the trimmed response body.
func httpDo(t *testing.T, url, body string) (int, string) {
	t.Helper()
	var resp *http.Response
	var err error
	if body == "" {
		resp, err = http.Get(url)
	} else {
		resp, err = http.Post(url, "application/json", strings.NewReader(body))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, strings.TrimSpace(string(b))
}

// TestKindTableComplete walks the kind table: every entry is well
// formed, its GET route answers byte-identically to the POST form (the
// one route no other test hits — /v1/anomalies — included), an empty
// request fails validation exactly when the entry declares a required
// field, and subscribing yields the declared standing mode.
func TestKindTableComplete(t *testing.T) {
	st := fill(tstore.New(), testStates(8, 30))
	eng := NewEngine(NewStoreSource("archive", st))
	hub := NewHub(HubConfig{})
	ts := httptest.NewServer(NewServer(NewStreamer(hub, eng)))
	defer ts.Close()
	samples := kindSamples()

	for _, k := range Kinds() {
		d := lookup(k)
		t.Run(string(k), func(t *testing.T) {
			// Well-formed: a run, known parameter names, required fields
			// the typed form can check, one standing mode at most.
			if d.run == nil {
				t.Fatal("definition has no run")
			}
			for _, name := range d.params {
				if _, ok := getParams[name]; !ok {
					t.Fatalf("GET parameter %q is not in the getParams vocabulary", name)
				}
			}
			for _, name := range d.required {
				if p, ok := getParams[name]; !ok || p.has == nil {
					t.Fatalf("required field %q has no presence check in getParams", name)
				}
			}
			if modes := btoi(d.match != nil) + btoi(d.tick != nil); modes != btoi(d.update != "") {
				t.Fatalf("standing mode malformed: update %q with %d of match/tick set", d.update, modes)
			}

			// GET == POST, byte for byte.
			sample, ok := samples[k]
			if !ok {
				t.Fatalf("no sample request for kind %s: add one to kindSamples", k)
			}
			gs, gb := httpDo(t, ts.URL+getURL(t, d, sample), "")
			body, _ := json.Marshal(sample)
			ps, pb := httpDo(t, ts.URL+"/v1/query", string(body))
			if gs != http.StatusOK || ps != http.StatusOK {
				t.Fatalf("GET %d (%s) / POST %d (%s)", gs, gb, ps, pb)
			}
			if gb != pb {
				t.Fatalf("GET diverged from POST:\nGET:  %s\nPOST: %s", gb, pb)
			}
			var res Result
			if err := json.Unmarshal([]byte(gb), &res); err != nil || res.Kind != k {
				t.Fatalf("answer is not a %s result (err %v): %s", k, err, gb)
			}

			// Empty request: invalid exactly when a field is required.
			err := Request{Kind: k}.Validate()
			if wantErr := len(d.required) > 0; (err != nil) != wantErr {
				t.Fatalf("empty request: Validate = %v, definition requires %v", err, d.required)
			}
			if err != nil && !strings.Contains(err.Error(), "requires "+d.required[0]) {
				t.Fatalf("empty request error %q does not name %q", err, d.required[0])
			}

			// Standing mode.
			sub, err := NewStreamer(hub, eng).Subscribe(sample, SubOptions{Tick: 10 * time.Millisecond})
			if d.update == "" {
				if err == nil || !strings.Contains(err.Error(), "not streamable") {
					t.Fatalf("want not-streamable error, got %v", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Cancel()
			if d.match != nil { // replay-on-append: feed the hub something that matches
				hub.PublishState(model.VesselState{MMSI: sample.MMSI, At: t0.Add(5 * time.Minute), Pos: geo.Point{Lat: 42.2, Lon: 5.3}})
				hub.PublishAlert(events.Alert{Kind: "test", MMSI: 7, At: t0.Add(5 * time.Minute), Severity: 3})
			}
			if first := collect(t, sub, 1)[0]; first.Kind != d.update {
				t.Fatalf("first update kind %q, definition declares %q", first.Kind, d.update)
			}
		})
	}
	for k := range samples {
		if lookup(k) == nil {
			t.Errorf("kindSamples has %q, which is not in the table", k)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// readmeRow renders a definition the way README's "Adding a query kind"
// table lists it.
func readmeRow(d *kindDef) string {
	route := "/v1/" + string(d.kind)
	for i, name := range d.params {
		sep := "&"
		if i == 0 {
			sep = "?"
		}
		route += sep + name + "="
	}
	standing := "—"
	switch {
	case d.match != nil:
		standing = fmt.Sprintf("hub filter → `%s`", d.update)
	case d.tick != nil:
		standing = fmt.Sprintf("ticker → `%s`", d.update)
	}
	return fmt.Sprintf("| `%s` | `%s` | %s |", d.kind, route, standing)
}

// TestReadmeKindTable keeps README's route/kind table equal to the
// table in kinds.go, row for row and in order, so the docs cannot drift.
func TestReadmeKindTable(t *testing.T) {
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "| `") && strings.Contains(line, "` | `/v1/") {
			got = append(got, line)
		}
	}
	var want []string
	for _, d := range kinds {
		want = append(want, readmeRow(d))
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("README kind table is out of date; it should read:\n%s\n\nbut reads:\n%s",
			strings.Join(want, "\n"), strings.Join(got, "\n"))
	}
}

// TestKindTableDefectsAreReported: a table entry naming something outside
// the getParams vocabulary fails loudly and early — a required name
// without a presence check (a typo, or point) rejects every request of
// the kind with an error, an unknown GET parameter refuses to mount —
// never a nil dereference inside a request handler.
func TestKindTableDefectsAreReported(t *testing.T) {
	saved := kinds
	t.Cleanup(func() { kinds = saved })
	run := func(*call, *Result) {}
	withKind := func(d *kindDef) { kinds = append(saved[:len(saved):len(saved)], d) }

	for _, name := range []string{"mmsii", "point"} {
		withKind(&kindDef{kind: "broken", required: []string{name}, run: run})
		err := Request{Kind: "broken", MMSI: 7, Lat: 1, Lon: 1}.Validate()
		if err == nil || !strings.Contains(err.Error(), "broken requires "+name) {
			t.Fatalf("required %q: Validate = %v, want a \"requires\" error", name, err)
		}
	}

	// Every scalar of the vocabulary can be required: present = non-zero.
	withKind(&kindDef{kind: "broken", required: []string{"horizon", "from"}, run: run})
	if err := (Request{Kind: "broken", Horizon: Duration(time.Minute)}).Validate(); err == nil || !strings.Contains(err.Error(), "requires from") {
		t.Fatalf("Validate = %v, want horizon seen present and from missing", err)
	}
	if err := (Request{Kind: "broken", Horizon: Duration(time.Minute), From: t0}).Validate(); err != nil {
		t.Fatalf("both required scalars present: Validate = %v", err)
	}

	withKind(&kindDef{kind: "broken", params: []string{"mmsii"}, run: run})
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, `unknown GET parameter "mmsii"`) {
			t.Fatalf("NewServer over a table with an unknown GET parameter: recovered %q", msg)
		}
	}()
	NewServer(NewEngine(NewStoreSource("archive", tstore.New())))
}

// fullHistory reads a source's entire stored trajectory for one vessel.
func fullHistory(ctx context.Context, s Source, mmsi uint32) []model.VesselState {
	return s.Trajectory(ctx, mmsi, time.Time{}, time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC))
}

// TestKindDefinedOnce is the mechanical form of "adding a kind touches
// one file plus its test": a throwaway kind — lastfix, the newest stored
// sample of one vessel, built only on existing Request/Result/Update
// fields — is defined by one table entry right here and is then
// validated, executed, routed (GET and POST), ticked and federated
// without another line of the package knowing it exists.
func TestKindDefinedOnce(t *testing.T) {
	const lastfix Kind = "lastfix"
	saved := kinds
	t.Cleanup(func() { kinds = saved })
	kinds = append(kinds[:len(kinds):len(kinds)], &kindDef{
		kind: lastfix, params: []string{"mmsi"}, required: []string{"mmsi"},
		run: func(c *call, res *Result) {
			answers := gather(c, func(ctx context.Context, s Source) []State {
				if own, ok := s.Derived(ctx, c.req); ok { // a peer answers the kind itself
					return own.States
				}
				pts := fullHistory(ctx, s, c.req.MMSI)
				if len(pts) == 0 {
					return nil
				}
				return []State{StateOf(pts[len(pts)-1])}
			})
			for _, a := range answers {
				if len(a) == 1 && (len(res.States) == 0 || a[0].At.After(res.States[0].At)) {
					res.States = a
				}
			}
			res.Count = len(res.States)
		},
		update: UpdateState,
		tick: func(res *Result, u *Update) bool {
			if len(res.States) == 0 {
				return false
			}
			u.State = &res.States[0]
			return true
		},
	})

	all := testStates(4, 25)
	remote := fill(tstore.New(), all[:2*25]) // vessels 1, 2
	local := fill(tstore.New(), all[2*25:])  // vessels 3, 4
	const localVessel, peerVessel = 201000003, 201000001
	newest := func(mmsi uint32) State {
		var last State
		for _, s := range all {
			if s.MMSI == mmsi {
				last = StateOf(s)
			}
		}
		return last
	}

	// The peer daemon: its server counts the lastfix requests it is asked.
	peerEng := NewEngine(NewStoreSource("peer-archive", remote))
	var peerAsked, peerAskedLastfix atomic.Int64
	peerSrv := NewServer(peerEng)
	tsPeer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		peerAsked.Add(1)
		if strings.Contains(string(body), `"kind":"lastfix"`) {
			peerAskedLastfix.Add(1)
		}
		r.Body = io.NopCloser(strings.NewReader(string(body)))
		peerSrv.ServeHTTP(w, r)
	}))
	defer tsPeer.Close()
	peer := NewClient(tsPeer.URL)
	peer.PeerName = "peerA"
	eng := NewEngine(NewStoreSource("local", local), peer)
	hub := NewHub(HubConfig{})
	str := NewStreamer(hub, eng)
	ts := httptest.NewServer(NewServer(str))
	defer ts.Close()

	// Listed and validated.
	if ks := Kinds(); ks[len(ks)-1] != lastfix {
		t.Fatalf("Kinds() = %v, want it to end with %s", ks, lastfix)
	}
	if err := (Request{Kind: lastfix}).Validate(); err == nil || !strings.Contains(err.Error(), "lastfix requires mmsi") {
		t.Fatalf("Validate of an empty lastfix = %v", err)
	}

	// Executed by the engine.
	res, err := eng.Query(Request{Kind: lastfix, MMSI: localVessel})
	if err != nil || len(res.States) != 1 || js(res.States[0]) != js(newest(localVessel)) {
		t.Fatalf("engine lastfix = %+v, %v; want %+v", res, err, newest(localVessel))
	}
	want, _ := json.Marshal(res)

	// Routed: GET and POST answer what the engine answers.
	if status, body := httpDo(t, fmt.Sprintf("%s/v1/lastfix?mmsi=%d", ts.URL, localVessel), ""); status != http.StatusOK || body != string(want) {
		t.Fatalf("GET /v1/lastfix: %d %s\nwant %s", status, body, want)
	}
	post := fmt.Sprintf(`{"kind":"lastfix","mmsi":%d}`, localVessel)
	if status, body := httpDo(t, ts.URL+"/v1/query", post); status != http.StatusOK || body != string(want) {
		t.Fatalf("POST lastfix: %d %s\nwant %s", status, body, want)
	}
	if status, body := httpDo(t, ts.URL+"/v1/lastfix", ""); status != http.StatusBadRequest || !strings.Contains(body, "requires mmsi") {
		t.Fatalf("GET /v1/lastfix without mmsi: %d %s", status, body)
	}

	// Ticked: in-process through the Streamer, remotely over /v1/stream.
	for name, s := range map[string]Subscriber{"streamer": str, "http": NewClient(ts.URL)} {
		sub, err := s.Subscribe(Request{Kind: lastfix, MMSI: localVessel}, SubOptions{Tick: 10 * time.Millisecond})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		u := collect(t, sub, 1)[0]
		sub.Cancel()
		if u.Kind != UpdateState || u.State == nil || js(u.State) != js(newest(localVessel)) {
			t.Fatalf("%s: lastfix tick = %+v", name, u)
		}
	}
	if _, err := hub.Subscribe(Request{Kind: lastfix, MMSI: localVessel}, SubOptions{}); err == nil ||
		!strings.Contains(err.Error(), "lastfix") || !strings.Contains(err.Error(), "not streamable") {
		t.Fatalf("bare hub should refuse a ticker kind and list it, got %v", err)
	}

	// Federated: a vessel only the peer holds is answered by one exchange
	// of the request itself, identically to the peer's own answer.
	asked, askedLastfix := peerAsked.Load(), peerAskedLastfix.Load()
	fed, err := eng.Query(Request{Kind: lastfix, MMSI: peerVessel})
	if err != nil {
		t.Fatal(err)
	}
	if a, l := peerAsked.Load()-asked, peerAskedLastfix.Load()-askedLastfix; a != 1 || l != 1 {
		t.Fatalf("federated lastfix cost the peer %d exchanges, %d of them lastfix; want one exchange of the kind itself", a, l)
	}
	direct, err := peerEng.Query(Request{Kind: lastfix, MMSI: peerVessel})
	if err != nil {
		t.Fatal(err)
	}
	if len(fed.States) != 1 || js(fed.States) != js(direct.States) || js(fed.States[0]) != js(newest(peerVessel)) {
		t.Fatalf("federated lastfix %+v diverged from the peer's own %+v", fed.States, direct.States)
	}
}

// js is a value's wire form, for comparing answers across an HTTP hop.
func js(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}
