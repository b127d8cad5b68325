// Command msaquery is the CLI of the unified query surface (§2.3 moving
// object queries, internal/query): the same typed requests a program
// issues in-process, pointed at a snapshot file (-read), an archive
// directory a daemon owns (-data; read-only recovery, nothing on disk is
// touched), or a running maritimed's query API (-http). -write still
// simulates traffic into a snapshot file for the other modes to read.
//
// Usage:
//
//	msaquery -write archive.bin -vessels 100 -minutes 120
//	msaquery -read archive.bin -vessel 201000091
//	msaquery -read archive.bin -box "42,4,44,9"
//	msaquery -data /var/lib/maritimed -knn "43.2,5.3" -k 5
//	msaquery -http localhost:8080 -live "42,4,44,9"
//	msaquery -http localhost:8080 -situation "42,4,44,9"
//	msaquery -data /var/lib/maritimed -stats -json
//	msaquery -http localhost:8080 -track 201000091
//	msaquery -http localhost:8080 -predict 201000091 -horizon 15m
//	msaquery -http localhost:8080 -quality 201000091
//	msaquery -http localhost:8080 -anomalies ranked -limit 10
//	msaquery -http localhost:8080 -anomalies 201000091
//
// Exactly one query flag (-vessel, -box, -knn, -live, -situation,
// -alerts, -stats, -track, -predict, -quality, -anomalies) runs per
// invocation; -from/-to/-at bound time where
// the kind supports it, and -json dumps the raw Result encoding instead
// of the human summary. -trace asks the executor to record where the
// query spent its time and prints the per-stage breakdown (per-source
// fan-out, merge/dedup, end-to-end) under the answer.
//
// With -http the same requests also run as standing queries over
// /v1/stream — updates stream until interrupted (or -count updates
// arrive):
//
//	msaquery -http localhost:8080 -watch "42,4,44,9"       # box watch
//	msaquery -http localhost:8080 -follow 201000091        # vessel follow
//	msaquery -http localhost:8080 -watch "42,4,44,9" -count 100 -json
//	msaquery -http localhost:8080 -watch predict -predict 201000091 -horizon 10m
//	msaquery -http localhost:8080 -watch track -track 201000091
//	msaquery -http localhost:8080 -watch anomalies                    # ranked board ticker
//	msaquery -http localhost:8080 -watch anomalies -anomalies 201000091
//
// -watch KIND turns the one-shot request the other flags spell into a
// standing one (the daemon rejects kinds that do not stream). -watch
// predict is the forecast ticker: a fresh dead-reckoned fix every tick,
// showing the vessel's expected motion between AIS reports. -watch
// anomalies is the deviation ticker: the fleet ranked by behavior-shift
// score (or one vessel's report, with -anomalies MMSI) pushed every
// tick — a client watching "vessels deviating from their own history".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/tstore"
)

func main() {
	write := flag.String("write", "", "simulate traffic and write an archive to this path")
	read := flag.String("read", "", "load an archive snapshot file from this path")
	data := flag.String("data", "", "open an archive directory (maritimed -data-dir) with read-only WAL recovery")
	remote := flag.String("remote", "", "with -data: also read segments/snapshots migrated to this object-store directory (maritimed -remote-dir)")
	httpAddr := flag.String("http", "", "query a running maritimed -http daemon at this address")
	vessels := flag.Int("vessels", 100, "fleet size for -write")
	minutes := flag.Int("minutes", 120, "duration for -write")

	vessel := flag.Uint("vessel", 0, "trajectory query: print this vessel's summary")
	box := flag.String("box", "", "space-time query: minLat,minLon,maxLat,maxLon")
	knn := flag.String("knn", "", "nearest-vessel query: lat,lon")
	k := flag.Int("k", 5, "number of neighbours for -knn")
	live := flag.String("live", "", "live-picture query: minLat,minLon,maxLat,maxLon")
	situation := flag.String("situation", "", "situation query: minLat,minLon,maxLat,maxLon")
	alerts := flag.Bool("alerts", false, "alert-history query")
	severity := flag.Int("severity", 0, "minimum severity for -alerts / -situation")
	stats := flag.Bool("stats", false, "store statistics query")
	track := flag.Uint("track", 0, "track query: fused Kalman state + error ellipse for this MMSI")
	predict := flag.Uint("predict", 0, "predict query: forecast this MMSI's position -horizon ahead")
	horizon := flag.Duration("horizon", 0, "forecast horizon for -predict (e.g. 15m; required, at most 24h)")
	quality := flag.Uint("quality", 0, "quality query: data-integrity score for this MMSI")
	anomalies := flag.String("anomalies", "", "anomalies query: an MMSI for one vessel's deviation report, or \"ranked\" for the fleet board (cap with -limit)")
	from := flag.String("from", "", "lower time bound, RFC 3339")
	to := flag.String("to", "", "upper time bound, RFC 3339")
	at := flag.String("at", "", "reference instant for -knn, RFC 3339 (default: any time)")
	tol := flag.Duration("tol", 0, "time tolerance around -at for -knn (default 30m when -at is set)")
	limit := flag.Int("limit", 0, "cap returned states/alerts (0 = unlimited)")
	asJSON := flag.Bool("json", false, "print the raw Result JSON instead of a summary")
	trace := flag.Bool("trace", false, "request a per-stage trace and print where the query spent its time")

	watch := flag.String("watch", "", "standing query (requires -http): a box minLat,minLon,maxLat,maxLon to watch — or a query kind (predict, track, quality, anomalies, ...) made standing, with that kind's own flags (-watch predict -predict MMSI -horizon 10m; -watch anomalies alone is the ranked board)")
	follow := flag.Uint("follow", 0, "standing per-vessel follow (requires -http): MMSI")
	count := flag.Int("count", 0, "stop a -watch/-follow stream after this many updates (0 = until interrupted)")
	fromSeq := flag.Uint64("from-seq", 0, "resume a -watch/-follow stream after this sequence number")
	flag.Parse()

	if *write != "" {
		writeArchive(*write, *vessels, *minutes)
		return
	}

	flags := reqFlags{
		vessel: uint32(*vessel), box: *box, knn: *knn, k: *k,
		live: *live, situation: *situation, alerts: *alerts, stats: *stats,
		track: uint32(*track), predict: uint32(*predict), horizon: *horizon, quality: uint32(*quality),
		anomalies: *anomalies,
		severity:  *severity, from: *from, to: *to, at: *at, tol: *tol, limit: *limit,
	}
	if *watch != "" || *follow != 0 {
		if *httpAddr == "" {
			log.Fatal("-watch/-follow are standing queries against a daemon: pass -http ADDR")
		}
		streamUpdates(*httpAddr, *watch, uint32(*follow), flags, *count, *fromSeq, *asJSON)
		return
	}

	req, err := buildRequest(flags)
	if err != nil {
		log.Fatal(err)
	}
	req.Trace = *trace

	exec, describe, err := openExecutor(*read, *data, *remote, *httpAddr)
	if err != nil {
		log.Fatal(err)
	}
	if describe != "" {
		fmt.Println(describe)
	}
	res, err := exec.Query(req)
	if err != nil {
		log.Fatal(err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			log.Fatal(err)
		}
		return
	}
	printResult(req, res)
	if *trace {
		printTrace(res)
	}
}

// printTrace renders the per-stage breakdown a Trace: true request
// returns as a tree: spans nest under their Parent, so a federated
// query reads as one hierarchy spanning daemons — local stages at the
// root, each peer's stages indented under its peer/<addr> span (a dead
// peer shows a single degraded leaf).
func printTrace(res *query.Result) {
	if len(res.Trace) == 0 {
		fmt.Println("trace: (empty — the executor does not record stage spans)")
		return
	}
	var total int64
	for _, sp := range res.Trace {
		if sp.Name == "total" {
			total = sp.DurNS
		}
	}
	// Children in wire order (already sorted by start, name): the render
	// walks roots depth-first. A span whose parent never arrived (peer
	// truncated its trace) renders as a root rather than vanishing.
	named := make(map[string]bool, len(res.Trace))
	for _, sp := range res.Trace {
		named[sp.Name] = true
	}
	children := make(map[string][]query.TraceSpan, len(res.Trace))
	for _, sp := range res.Trace {
		parent := sp.Parent
		if parent != "" && !named[parent] {
			parent = ""
		}
		children[parent] = append(children[parent], sp)
	}
	fmt.Println("trace:")
	var walk func(parent string, depth int)
	walk = func(parent string, depth int) {
		for _, sp := range children[parent] {
			name := strings.Repeat("  ", depth) + sp.Name
			line := fmt.Sprintf("  %-32s @%-10v %10v", name,
				time.Duration(sp.StartNS).Round(time.Microsecond),
				time.Duration(sp.DurNS).Round(time.Microsecond))
			if total > 0 && sp.Name != "total" {
				line += fmt.Sprintf("  %5.1f%%", 100*float64(sp.DurNS)/float64(total))
			}
			fmt.Println(line)
			walk(sp.Name, depth+1)
		}
	}
	walk("", 0)
}

// reqFlags collects the raw query flags for translation into a Request.
type reqFlags struct {
	vessel          uint32
	box, knn        string
	k               int
	live, situation string
	alerts, stats   bool
	track, predict  uint32
	horizon         time.Duration
	quality         uint32
	anomalies       string
	severity        int
	from, to, at    string
	tol             time.Duration
	limit           int
	// watch is the kind -watch KIND names: the request must come out as
	// that kind, and with no query flag at all it is the kind's bare
	// request (the ranked anomalies board; anything that needs more fails
	// the kind's own validation).
	watch query.Kind
}

// buildRequest translates the flags into exactly one validated Request.
func buildRequest(f reqFlags) (query.Request, error) {
	req := query.Request{MinSeverity: f.severity, Limit: f.limit}
	modes := 0
	switch {
	case f.vessel != 0:
		modes++
		req.Kind = query.KindTrajectory
		req.MMSI = f.vessel
	}
	if f.box != "" {
		modes++
		b, err := query.ParseBox(f.box)
		if err != nil {
			return req, fmt.Errorf("bad -box: %w", err)
		}
		req.Kind = query.KindSpaceTime
		req.Box = &b
	}
	if f.knn != "" {
		modes++
		p, err := query.ParsePoint(f.knn)
		if err != nil {
			return req, fmt.Errorf("bad -knn: %w", err)
		}
		req.Kind = query.KindNearest
		req.Lat, req.Lon = p.Lat, p.Lon
		req.K = f.k
		req.Tol = query.Duration(f.tol)
	}
	if f.live != "" {
		modes++
		b, err := query.ParseBox(f.live)
		if err != nil {
			return req, fmt.Errorf("bad -live: %w", err)
		}
		req.Kind = query.KindLivePicture
		req.Box = &b
	}
	if f.situation != "" {
		modes++
		b, err := query.ParseBox(f.situation)
		if err != nil {
			return req, fmt.Errorf("bad -situation: %w", err)
		}
		req.Kind = query.KindSituation
		req.Box = &b
	}
	if f.alerts {
		modes++
		req.Kind = query.KindAlertHistory
	}
	if f.stats {
		modes++
		req.Kind = query.KindStats
	}
	if f.track != 0 {
		modes++
		req.Kind = query.KindTrack
		req.MMSI = f.track
	}
	if f.predict != 0 {
		modes++
		req.Kind = query.KindPredict
		req.MMSI = f.predict
		req.Horizon = query.Duration(f.horizon)
	}
	if f.quality != 0 {
		modes++
		req.Kind = query.KindQuality
		req.MMSI = f.quality
	}
	if f.anomalies != "" {
		modes++
		req.Kind = query.KindAnomalies
		mmsi, err := parseAnomalyTarget(f.anomalies)
		if err != nil {
			return req, err
		}
		req.MMSI = mmsi
	}
	if modes == 0 && f.watch != "" {
		modes, req.Kind = 1, f.watch
	}
	if f.watch != "" && req.Kind != f.watch {
		return req, fmt.Errorf("-watch %s with the flags of a %s query", f.watch, req.Kind)
	}
	if modes != 1 {
		return req, fmt.Errorf("pass exactly one of -vessel, -box, -knn, -live, -situation, -alerts, -stats, -track, -predict, -quality, -anomalies (got %d)", modes)
	}
	var err error
	if req.From, err = parseTime(f.from, "-from"); err != nil {
		return req, err
	}
	if req.To, err = parseTime(f.to, "-to"); err != nil {
		return req, err
	}
	if req.At, err = parseTime(f.at, "-at"); err != nil {
		return req, err
	}
	return req, req.Validate()
}

// parseAnomalyTarget interprets the -anomalies value: "ranked" (or
// "all") asks for the fleet board (MMSI 0), anything else must be the
// MMSI of the vessel whose deviation report to fetch.
func parseAnomalyTarget(s string) (uint32, error) {
	if s == "ranked" || s == "all" {
		return 0, nil
	}
	n, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad -anomalies (want an MMSI or \"ranked\"): %q", s)
	}
	return uint32(n), nil
}

func parseTime(s, flagName string) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		return time.Time{}, fmt.Errorf("bad %s (want RFC 3339): %w", flagName, err)
	}
	return t, nil
}

// openExecutor builds the query executor for the selected mode: a local
// engine over a loaded snapshot or recovered directory, or a client of a
// running daemon. The description line reports what was opened (empty
// for remote, which describes itself via -stats).
func openExecutor(read, data, remote, httpAddr string) (query.Executor, string, error) {
	picked := 0
	for _, s := range []string{read, data, httpAddr} {
		if s != "" {
			picked++
		}
	}
	if picked != 1 {
		return nil, "", fmt.Errorf("pass exactly one of -read, -data, -http (or -write)")
	}
	if remote != "" && data == "" {
		return nil, "", fmt.Errorf("-remote extends -data recovery; pass -data DIR too")
	}
	switch {
	case httpAddr != "":
		return query.NewClient(httpAddr), "", nil
	case read != "":
		f, err := os.Open(read)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		st := tstore.New()
		if _, err := st.Load(f); err != nil {
			return nil, "", err
		}
		desc := fmt.Sprintf("archive %s: %d points, %d vessels", read, st.Len(), st.VesselCount())
		return query.NewEngine(query.NewStoreSource("archive", st)), desc, nil
	default:
		// Read-only recovery: mutates nothing, takes no lock — safe to
		// query a directory a running maritimed owns (replay stops at
		// the writer's in-flight tail). With -remote the migrated
		// segments and snapshots are read back from the object store.
		cfg := store.Config{Dir: data}
		if remote != "" {
			objects, err := store.NewFSObjects(remote)
			if err != nil {
				return nil, "", err
			}
			cfg.Remote = objects
		}
		arch, err := store.OpenReadOnly(cfg)
		if err != nil {
			return nil, "", err
		}
		desc := fmt.Sprintf("recovered %d records (%d snapshot + %d WAL over %d segments",
			arch.Stats.Total(), arch.Stats.SnapshotPoints,
			arch.Stats.WALRecords, arch.Stats.WALSegments)
		if arch.Stats.RemoteSegments > 0 {
			desc += fmt.Sprintf(", %d remote", arch.Stats.RemoteSegments)
		}
		if arch.Stats.TornBytes > 0 {
			desc += fmt.Sprintf("; skipped %d in-flight/torn tail bytes", arch.Stats.TornBytes)
		}
		desc += fmt.Sprintf(") from %s", data)
		return query.NewEngine(query.NewStoreSource("archive", arch.Store)), desc, nil
	}
}

// streamUpdates runs a standing query (-watch / -follow) over /v1/stream
// and prints updates as they arrive. The request is the one-shot path's
// (buildRequest): -watch BOX is a -box watch, -follow MMSI a -vessel
// follow, and -watch KIND the request the kind's own flags spell, made
// standing — whether a kind streams is the daemon's call.
func streamUpdates(httpAddr, watch string, follow uint32, f reqFlags, count int, fromSeq uint64, asJSON bool) {
	switch {
	case watch != "" && follow != 0:
		log.Fatal("pass exactly one of -watch, -follow")
	case follow != 0:
		f.vessel = follow
	case slices.Contains(query.Kinds(), query.Kind(watch)):
		f.watch = query.Kind(watch)
	default:
		f.box = watch
	}
	req, err := buildRequest(f)
	if err != nil {
		log.Fatalf("standing query: %v", err)
	}
	c := query.NewClient(httpAddr)
	sub, err := c.Subscribe(req, query.SubOptions{FromSeq: fromSeq})
	if err != nil {
		log.Fatal(err)
	}
	defer sub.Cancel()
	fmt.Fprintf(os.Stderr, "streaming %s from %s (seq %d)...\n", req.Kind, httpAddr, sub.StartSeq())
	enc := json.NewEncoder(os.Stdout)
	n := 0
	for u := range sub.Updates() {
		if asJSON {
			if err := enc.Encode(u); err != nil {
				log.Fatal(err)
			}
		} else if u.State != nil {
			s := u.State
			fmt.Printf("#%-8d vessel %-9d %8.4f,%9.4f  %5.1f kn  %s\n",
				u.Seq, s.MMSI, s.Lat, s.Lon, s.SpeedKn, s.At.Format("15:04:05"))
		} else if u.Alert != nil {
			a := u.Alert
			fmt.Printf("#%-8d [sev%d] %-18s vessel %d: %s\n", u.Seq, a.Severity, a.Kind, a.MMSI, a.Note)
		} else if u.Prediction != nil {
			p := u.Prediction
			fmt.Printf("#%-8d vessel %-9d %8.4f,%9.4f  at %s (+%s, %s, ±%.0f m)\n",
				u.Seq, p.MMSI, p.Lat, p.Lon, p.At.Format("15:04:05"),
				time.Duration(p.Horizon), p.Method, p.ConfidenceM)
		} else if u.Track != nil {
			s := u.Track
			fmt.Printf("#%-8d vessel %-9d %8.4f,%9.4f  %5.1f kn  ±%.0f m  %s\n",
				u.Seq, s.MMSI, s.Lat, s.Lon, s.SpeedKn, s.SigmaM, s.At.Format("15:04:05"))
		} else if u.Quality != nil {
			q := u.Quality
			fmt.Printf("#%-8d vessel %-9d reliability %.3f (lower %.3f), %d/%d flagged\n",
				u.Seq, q.MMSI, q.Reliability, q.LowerBound, q.Flagged, q.Checked)
		} else if u.Anomalies != nil {
			if v := u.Anomalies.Vessel; v != nil {
				fmt.Printf("#%-8d vessel %-9d score %.3f (spd %.3f hdg %.3f pos %.3f)  %d gaps  %s\n",
					u.Seq, v.MMSI, v.Score, v.SpeedShift, v.HeadingShift, v.PositionShift,
					v.Gaps, v.At.Format("15:04:05"))
			} else {
				fmt.Printf("#%-8d %d vessels by deviation score\n", u.Seq, len(u.Anomalies.Ranked))
				top := u.Anomalies.Ranked
				if len(top) > 5 {
					top = top[:5]
				}
				for i, v := range top {
					fmt.Printf("  %d. vessel %-9d score %.3f  %d gaps\n", i+1, v.MMSI, v.Score, v.Gaps)
				}
			}
		} else if u.Kind == query.UpdateRewound {
			fmt.Fprintf(os.Stderr, "(stream rewound: daemon restarted — cursor reset to seq %d in epoch %x; retained-but-undelivered updates from the old epoch are gone)\n",
				u.Seq, u.Epoch)
		}
		n++
		if count > 0 && n >= count {
			break
		}
	}
	if err := sub.Err(); err != nil {
		log.Fatal(err)
	}
	if d := sub.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "(%d updates dropped server-side: consumer slower than the feed)\n", d)
	}
	if r := sub.Rewound(); r > 0 {
		fmt.Fprintf(os.Stderr, "(%d epoch rewinds: the stream crossed daemon restarts)\n", r)
	}
}

// printResult renders the human summary for each kind.
func printResult(req query.Request, res *query.Result) {
	switch res.Kind {
	case query.KindTrajectory:
		if res.Count == 0 {
			log.Fatalf("vessel %d not found", req.MMSI)
		}
		tr := &model.Trajectory{MMSI: req.MMSI, Points: res.ModelStates()}
		fmt.Printf("vessel %d: %d points, %s → %s, %.1f km travelled\n",
			req.MMSI, tr.Len(),
			tr.Start().Format(time.RFC3339), tr.End().Format(time.RFC3339),
			tr.Length()/1000)
	case query.KindSpaceTime:
		seen := map[uint32]bool{}
		for _, s := range res.States {
			seen[s.MMSI] = true
		}
		fmt.Printf("box query: %d points from %d vessels\n", res.Count, len(seen))
	case query.KindNearest:
		p := geo.Point{Lat: req.Lat, Lon: req.Lon}
		for i, s := range res.States {
			sp := geo.Point{Lat: s.Lat, Lon: s.Lon}
			fmt.Printf("%d. vessel %d at %s (%.1f km away, %s)\n",
				i+1, s.MMSI, sp, geo.Distance(p, sp)/1000, s.At.Format("15:04:05"))
		}
	case query.KindLivePicture:
		fmt.Printf("live picture: %d vessels\n", res.Count)
		for _, s := range res.States {
			fmt.Printf("  vessel %-9d %8.4f,%9.4f  %5.1f kn  %s\n",
				s.MMSI, s.Lat, s.Lon, s.SpeedKn, s.At.Format("15:04:05"))
		}
	case query.KindSituation:
		sit := res.Situation
		fmt.Printf("SITUATION %s — %d vessels, %d alerts\n",
			sit.At.Format("2006-01-02 15:04:05"), len(sit.Vessels), len(sit.Alerts))
		renderDensity(sit)
		n := len(sit.Alerts)
		if n > 8 {
			n = 8
		}
		for _, a := range sit.Alerts[:n] {
			fmt.Printf("  [sev%d] %-18s vessel %-9d %s\n", a.Severity, a.Kind, a.MMSI, a.Note)
		}
	case query.KindAlertHistory:
		fmt.Printf("%d alerts\n", res.Count)
		for _, a := range res.Alerts {
			fmt.Printf("  [%s] sev%d %-18s vessel %d: %s\n",
				a.At.Format("15:04:05"), a.Severity, a.Kind, a.MMSI, a.Note)
		}
	case query.KindTrack:
		if res.Track == nil {
			log.Fatalf("vessel %d not found", req.MMSI)
		}
		s := res.Track
		status := "tentative"
		if s.Confirmed {
			status = "confirmed"
		}
		fmt.Printf("vessel %d track (%s, %d hits): %.5f,%.5f  %.1f kn @ %.0f°  at %s\n",
			s.MMSI, status, s.Hits, s.Lat, s.Lon, s.SpeedKn, s.CourseDeg, s.At.Format(time.RFC3339))
		fmt.Printf("  uncertainty ±%.0f m (ellipse %.0f×%.0f m @ %.0f°)\n",
			s.SigmaM, s.MajorM, s.MinorM, s.OrientDeg)
		for _, src := range sortedKeys(s.Sources) {
			fmt.Printf("  %d %s measurements\n", s.Sources[src], src)
		}
	case query.KindPredict:
		if res.Prediction == nil {
			log.Fatalf("vessel %d not found", req.MMSI)
		}
		p := res.Prediction
		fmt.Printf("vessel %d at %s (+%s from %s): %.5f,%.5f  (%s, ±%.0f m)\n",
			p.MMSI, p.At.Format(time.RFC3339), time.Duration(p.Horizon),
			p.From.Format("15:04:05"), p.Lat, p.Lon, p.Method, p.ConfidenceM)
	case query.KindQuality:
		if res.Quality == nil {
			log.Fatalf("vessel %d not found", req.MMSI)
		}
		q := res.Quality
		fmt.Printf("vessel %d reliability %.3f (lower bound %.3f): %d of %d messages flagged\n",
			q.MMSI, q.Reliability, q.LowerBound, q.Flagged, q.Checked)
		for _, rule := range sortedKeys(q.Issues) {
			fmt.Printf("  %-16s %d\n", rule, q.Issues[rule])
		}
	case query.KindAnomalies:
		if res.Anomalies == nil {
			log.Fatal("no anomaly report (is the daemon running, or the archive empty?)")
		}
		if req.MMSI != 0 {
			v := res.Anomalies.Vessel
			if v == nil {
				log.Fatalf("vessel %d not found", req.MMSI)
			}
			printVesselAnomaly(v)
			break
		}
		fmt.Printf("%d vessels by deviation score\n", len(res.Anomalies.Ranked))
		for i, v := range res.Anomalies.Ranked {
			fmt.Printf("%2d. vessel %-9d score %.3f (spd %.3f hdg %.3f pos %.3f)  %d gaps  %d samples\n",
				i+1, v.MMSI, v.Score, v.SpeedShift, v.HeadingShift, v.PositionShift,
				v.Gaps, v.Samples)
		}
	case query.KindStats:
		st := res.Stats
		fmt.Printf("%d points, %d vessels, %d live, %d alerts\n",
			st.Points, st.Vessels, st.Live, st.Alerts)
		for _, s := range st.Sources {
			fmt.Printf("  source %-8s %8d points  %6d vessels  %6d live  %6d alerts",
				s.Name, s.Points, s.Vessels, s.Live, s.Alerts)
			if s.EvictedVessels > 0 || s.ResidentPoints > 0 {
				fmt.Printf("  [tiered: %d resident points, %d vessels evicted]",
					s.ResidentPoints, s.EvictedVessels)
			}
			if s.Err != "" {
				fmt.Printf("  (degraded: %s)", s.Err)
			}
			fmt.Println()
		}
	}
	if res.Truncated {
		fmt.Printf("(truncated to -limit %d of %d)\n", req.Limit, res.Count)
	}
}

// printVesselAnomaly renders one vessel's full deviation report: the
// headline score, the per-dimension shifts behind it, the reporting-gap
// bookkeeping and the recent stop/move episode timeline.
func printVesselAnomaly(v *query.VesselAnomaly) {
	fmt.Printf("vessel %d deviation %.3f (speed %.3f, heading %.3f, position %.3f) over %d samples, at %s\n",
		v.MMSI, v.Score, v.SpeedShift, v.HeadingShift, v.PositionShift,
		v.Samples, v.At.Format(time.RFC3339))
	if v.Gaps > 0 && v.LastGap != nil {
		g := v.LastGap
		fmt.Printf("  %d reporting gaps; last %s → %s (%s dark)\n",
			v.Gaps, g.Start.Format("15:04:05"), g.End.Format("15:04:05"),
			time.Duration(g.Duration).Round(time.Second))
	}
	for _, e := range v.Episodes {
		fmt.Printf("  episode %-8s %s → %s  %8.4f,%9.4f  %4.1f kn\n",
			e.Activity, e.Start.Format("15:04:05"), e.End.Format("15:04:05"),
			e.Lat, e.Lon, e.AvgSpeedKn)
	}
	if e := v.Current; e != nil {
		fmt.Printf("  current %-8s since %s  %8.4f,%9.4f  %4.1f kn\n",
			e.Activity, e.Start.Format("15:04:05"), e.Lat, e.Lon, e.AvgSpeedKn)
	}
}

// sortedKeys returns a count map's keys in stable order for printing.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// renderDensity draws the situation's density surface the way va.Density
// renders it (north up, light-to-heavy ASCII ramp).
func renderDensity(sit *query.Situation) {
	ramp := []byte(" .:-=+*#%@")
	maxBin := 0
	for _, c := range sit.Density {
		if c > maxBin {
			maxBin = c
		}
	}
	for r := sit.Rows - 1; r >= 0; r-- {
		row := make([]byte, sit.Cols)
		for c := 0; c < sit.Cols; c++ {
			v := sit.Density[r*sit.Cols+c]
			if maxBin == 0 || v == 0 {
				row[c] = ramp[0]
				continue
			}
			idx := 1 + v*(len(ramp)-2)/maxBin
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			row[c] = ramp[idx]
		}
		fmt.Println(string(row))
	}
}

// writeArchive simulates traffic and writes a snapshot file (-write).
func writeArchive(path string, vessels, minutes int) {
	run, err := sim.Simulate(sim.Config{
		Seed: 1, NumVessels: vessels,
		Duration: time.Duration(minutes) * time.Minute, TickSec: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	st := tstore.New()
	for mmsi, pts := range run.Truth {
		for _, p := range pts {
			st.Append(model.VesselState{
				MMSI: mmsi, At: p.At, Pos: p.Pos,
				SpeedKn: p.SpeedKn, CourseDeg: p.CourseDeg,
			})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	n, err := st.WriteTo(f)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d points (%d vessels, %d bytes) to %s\n",
		st.Len(), st.VesselCount(), n, path)
}
