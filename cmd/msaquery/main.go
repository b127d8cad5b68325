// Command msaquery is the CLI of the unified query surface (§2.3 moving
// object queries, internal/query): the same typed requests a program
// issues in-process, pointed at a snapshot file (-read), an archive
// directory a daemon owns (-data; read-only recovery, nothing on disk is
// touched), or a running maritimed's query API (-http). -write still
// simulates traffic into a snapshot file for the other modes to read.
//
// Usage:
//
//	msaquery [-read F | -data D [-remote R] | -http A] [-json] [-watch [-count N] [-from-seq S]] KIND [name=value …]
//	msaquery -write F [-vessels N] [-minutes M]
//
// KIND is a query kind and the name=value arguments are exactly the
// query string of its GET route, read by the same query.ParseParams:
// "msaquery -http h nearest point=43.2,5.3 k=5" asks what
// GET /v1/nearest?point=43.2,5.3&k=5 asks, and a name the kind does not
// take is rejected the same way. Flags go before KIND. trace=1 prints
// where the query spent its time (per-source fan-out, merge/dedup,
// end-to-end) under the answer; -json dumps the raw Result encoding
// instead of the human summary.
//
//	msaquery -write archive.bin -vessels 100 -minutes 120
//	msaquery -read archive.bin trajectory mmsi=201000091
//	msaquery -read archive.bin spacetime box=42,4,44,9
//	msaquery -data /var/lib/maritimed nearest point=43.2,5.3 k=5
//	msaquery -http localhost:8080 live box=42,4,44,9
//	msaquery -http localhost:8080 situation box=42,4,44,9
//	msaquery -http localhost:8080 alerts severity=3 limit=20
//	msaquery -data /var/lib/maritimed -json stats
//	msaquery -http localhost:8080 track mmsi=201000091
//	msaquery -http localhost:8080 predict mmsi=201000091 horizon=15m
//	msaquery -http localhost:8080 quality mmsi=201000091
//	msaquery -http localhost:8080 anomalies limit=10
//	msaquery -http localhost:8080 anomalies mmsi=201000091
//
// With -http, -watch makes the request standing over /v1/stream:
// updates stream until interrupted (or -count updates arrive), and the
// daemon rejects kinds that do not stream:
//
//	msaquery -http localhost:8080 -watch spacetime box=42,4,44,9     # box watch
//	msaquery -http localhost:8080 -watch trajectory mmsi=201000091   # vessel follow
//	msaquery -http localhost:8080 -watch -count 100 -json spacetime box=42,4,44,9
//	msaquery -http localhost:8080 -watch predict mmsi=201000091 horizon=10m
//	msaquery -http localhost:8080 -watch anomalies                   # ranked board ticker
//
// -watch predict is the forecast ticker: a fresh dead-reckoned fix
// every tick, showing the vessel's expected motion between AIS reports.
// -watch anomalies is the deviation ticker: the fleet ranked by
// behavior-shift score (or one vessel's report, with mmsi=) pushed
// every tick.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/tstore"
)

// options is one command line: the flags, and the request KIND
// name=value… spells (zero with -write).
type options struct {
	write, read, data, remote, http string
	vessels, minutes                int
	json, watch                     bool
	count                           int
	fromSeq                         uint64
	req                             query.Request
}

// parseArgs reads the flags, then KIND name=value….
func parseArgs(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("msaquery", flag.ExitOnError)
	fs.StringVar(&o.write, "write", "", "simulate traffic and write an archive to this path")
	fs.StringVar(&o.read, "read", "", "load an archive snapshot file from this path")
	fs.StringVar(&o.data, "data", "", "open an archive directory (maritimed -data-dir) with read-only WAL recovery")
	fs.StringVar(&o.remote, "remote", "", "with -data: also read segments/snapshots migrated to this object-store directory (maritimed -remote-dir)")
	fs.StringVar(&o.http, "http", "", "query a running maritimed -http daemon at this address")
	fs.IntVar(&o.vessels, "vessels", 100, "fleet size for -write")
	fs.IntVar(&o.minutes, "minutes", 120, "duration for -write")
	fs.BoolVar(&o.json, "json", false, "print the raw Result JSON instead of a summary")
	fs.BoolVar(&o.watch, "watch", false, "make the request a standing query (requires -http)")
	fs.IntVar(&o.count, "count", 0, "stop a -watch stream after this many updates (0 = until interrupted)")
	fs.Uint64Var(&o.fromSeq, "from-seq", 0, "resume a -watch stream after this sequence number")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: msaquery [-read F | -data D [-remote R] | -http A] [-json] [-watch [-count N] [-from-seq S]] KIND [name=value ...]\n"+
			"       msaquery -write F [-vessels N] [-minutes M]\n"+
			"KIND is one of %v; name=value are the parameters of GET /v1/KIND.\n", query.Kinds())
		fs.PrintDefaults()
	}
	fs.Parse(args) // ExitOnError: a bad flag exits here
	if o.write != "" {
		return o, nil
	}
	var err error
	o.req, err = parseRequest(fs.Args())
	return o, err
}

// parseRequest reads KIND name=value… into the validated request
// GET /v1/KIND?name=value… carries.
func parseRequest(args []string) (query.Request, error) {
	if len(args) == 0 {
		return query.Request{}, fmt.Errorf("missing KIND (one of %v)", query.Kinds())
	}
	q := url.Values{}
	for _, a := range args[1:] {
		if strings.HasPrefix(a, "-") {
			return query.Request{}, fmt.Errorf("%s after KIND %s: flags go before KIND", a, args[0])
		}
		name, value, ok := strings.Cut(a, "=")
		if !ok {
			return query.Request{}, fmt.Errorf("argument %q after KIND %s is not name=value", a, args[0])
		}
		q.Add(name, value)
	}
	req, err := query.ParseParams(query.Kind(args[0]), q)
	if err != nil {
		return req, err
	}
	return req, req.Validate()
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	if o.write != "" {
		writeArchive(o.write, o.vessels, o.minutes)
		return
	}
	if o.watch {
		if o.http == "" {
			log.Fatal("-watch is a standing query against a daemon: pass -http ADDR")
		}
		streamUpdates(o)
		return
	}

	exec, describe, err := openExecutor(o.read, o.data, o.remote, o.http)
	if err != nil {
		log.Fatal(err)
	}
	if describe != "" {
		fmt.Println(describe)
	}
	res, err := exec.Query(o.req)
	if err != nil {
		log.Fatal(err)
	}
	if o.json {
		printJSON(res)
		return
	}
	printResult(o.req, res)
	if o.req.Trace {
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

// streamUpdates runs the request as a standing query over /v1/stream
// and prints updates as they arrive.
func streamUpdates(o options) {
	sub, err := query.NewClient(o.http).Subscribe(o.req, query.SubOptions{FromSeq: o.fromSeq})
	if err != nil {
		log.Fatal(err)
	}
	defer sub.Cancel()
	fmt.Fprintf(os.Stderr, "streaming %s from %s (seq %d)...\n", o.req.Kind, o.http, sub.StartSeq())
	enc := json.NewEncoder(os.Stdout)
	n := 0
	for u := range sub.Updates() {
		if o.json {
			if err := enc.Encode(u); err != nil {
				log.Fatal(err)
			}
		} else {
			printUpdate(u)
		}
		n++
		if o.count > 0 && n >= o.count {
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

// printUpdate renders one standing-query update: its payload, through
// the printer the one-shot answer uses, after its #seq.
func printUpdate(u query.Update) {
	if u.Kind == query.UpdateRewound {
		fmt.Fprintf(os.Stderr, "(stream rewound: daemon restarted — cursor reset to seq %d in epoch %x; retained-but-undelivered updates from the old epoch are gone)\n",
			u.Seq, u.Epoch)
		return
	}
	fmt.Printf("#%-8d ", u.Seq)
	switch {
	case u.State != nil:
		printState(*u.State)
	case u.Alert != nil:
		printAlert(*u.Alert)
	case u.Situation != nil:
		printSituation(u.Situation)
	case u.Track != nil:
		printTrack(u.Track)
	case u.Prediction != nil:
		printPrediction(u.Prediction)
	case u.Quality != nil:
		printQuality(u.Quality)
	case u.Anomalies != nil:
		printAnomalies(u.Anomalies)
	}
}

// printResult renders the human summary of a one-shot answer.
func printResult(req query.Request, res *query.Result) {
	notFound := func() { log.Fatalf("vessel %d not found", req.MMSI) }
	switch res.Kind {
	case query.KindTrajectory:
		if res.Count == 0 {
			notFound()
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
			fmt.Print("  ")
			printState(s)
		}
	case query.KindSituation:
		printSituation(res.Situation)
	case query.KindAlertHistory:
		fmt.Printf("%d alerts\n", res.Count)
		for _, a := range res.Alerts {
			fmt.Print("  ")
			printAlert(a)
		}
	case query.KindTrack:
		if res.Track == nil {
			notFound()
		}
		printTrack(res.Track)
	case query.KindPredict:
		if res.Prediction == nil {
			notFound()
		}
		printPrediction(res.Prediction)
	case query.KindQuality:
		if res.Quality == nil {
			notFound()
		}
		printQuality(res.Quality)
	case query.KindAnomalies:
		if res.Anomalies == nil {
			log.Fatal("no anomaly report (is the daemon running, or the archive empty?)")
		}
		if req.MMSI != 0 && res.Anomalies.Vessel == nil {
			notFound()
		}
		printAnomalies(res.Anomalies)
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
	default: // a kind with no human renderer yet
		printJSON(res)
	}
	if res.Truncated {
		fmt.Printf("(truncated to limit=%d of %d)\n", req.Limit, res.Count)
	}
}

// printJSON prints the raw Result encoding (-json).
func printJSON(res *query.Result) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		log.Fatal(err)
	}
}

// The per-payload printers, shared by one-shot answers and stream updates.

func printState(s query.State) {
	fmt.Printf("vessel %-9d %8.4f,%9.4f  %5.1f kn  %s\n",
		s.MMSI, s.Lat, s.Lon, s.SpeedKn, s.At.Format("15:04:05"))
}

func printAlert(a query.Alert) {
	fmt.Printf("[%s] sev%d %-18s vessel %d: %s\n",
		a.At.Format("15:04:05"), a.Severity, a.Kind, a.MMSI, a.Note)
}

func printSituation(sit *query.Situation) {
	fmt.Printf("SITUATION %s — %d vessels, %d alerts\n",
		sit.At.Format("2006-01-02 15:04:05"), len(sit.Vessels), len(sit.Alerts))
	renderDensity(sit)
	for _, a := range sit.Alerts[:min(len(sit.Alerts), 8)] {
		fmt.Print("  ")
		printAlert(a)
	}
}

func printTrack(s *query.TrackState) {
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
}

func printPrediction(p *query.Prediction) {
	fmt.Printf("vessel %d at %s (+%s from %s): %.5f,%.5f  (%s, ±%.0f m)\n",
		p.MMSI, p.At.Format(time.RFC3339), time.Duration(p.Horizon),
		p.From.Format("15:04:05"), p.Lat, p.Lon, p.Method, p.ConfidenceM)
}

func printQuality(q *query.QualityScore) {
	fmt.Printf("vessel %d reliability %.3f (lower bound %.3f): %d of %d messages flagged\n",
		q.MMSI, q.Reliability, q.LowerBound, q.Flagged, q.Checked)
	for _, rule := range sortedKeys(q.Issues) {
		fmt.Printf("  %-16s %d\n", rule, q.Issues[rule])
	}
}

// printAnomalies renders either form of the anomalies payload: one
// vessel's report, or the fleet ranked by deviation score.
func printAnomalies(rep *query.AnomalyReport) {
	if rep.Vessel != nil {
		printVesselAnomaly(rep.Vessel)
		return
	}
	fmt.Printf("%d vessels by deviation score\n", len(rep.Ranked))
	for i, v := range rep.Ranked {
		fmt.Printf("%2d. vessel %-9d score %.3f (spd %.3f hdg %.3f pos %.3f)  %d gaps  %d samples\n",
			i+1, v.MMSI, v.Score, v.SpeedShift, v.HeadingShift, v.PositionShift,
			v.Gaps, v.Samples)
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
