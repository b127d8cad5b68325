// Command maritimed runs the integrated pipeline (the paper's Figure 2)
// over an AIS NMEA stream read from stdin — feed it `aisgen` output or any
// AIVDM log — and prints alerts as they are recognised plus a final
// situation board.
//
// Ingest is fully asynchronous: a reader goroutine stamps and fans lines
// out to N parallel decode workers, decoded reports are partitioned by
// MMSI across per-shard pipelines behind bounded queues (backpressure all
// the way back to stdin), and merged alerts stream to stdout as they are
// raised. See internal/ingest for the dataflow.
//
// With -data-dir the archive persists across runs: post-synopsis records
// stream through an asynchronous flush stage into a segmented,
// checksummed write-ahead log (snapshot-compacted as it grows), and on
// startup the daemon recovers the persisted state — snapshot plus WAL
// tail, torn trailing writes truncated — and resumes ingesting on top of
// it. Kill it mid-ingest and restart: the picture continues from exactly
// what reached disk.
//
// With -http the daemon serves the unified query surface while it
// ingests: POST a QueryRequest to /v1/query (or use the per-kind GET
// routes, /v1/<kind> for every query kind) and read the live picture, the
// accumulated archive, situation boards and alert history as JSON, from
// any host, mid-ingest. POST a StreamRequest to /v1/stream and the same
// typed request becomes a standing query: incremental updates pushed as
// NDJSON while ingest runs (box watches, per-vessel follows, alert
// feeds, situation tickers). cmd/msaquery -http is the CLI client
// (-watch for the streaming modes).
//
// With -peer URL (repeatable) the daemon federates: every query it
// serves merges the named daemons' pictures into its own, deduplicated
// on (MMSI, timestamp). A peer that is down or slow degrades (skipped,
// surfaced under /v1/stats) instead of failing the query, and federated
// reads are marked local-only so mutually-peered daemons cannot loop.
//
// The daemon is fully instrumented through the obs registry: with -http,
// GET /metrics serves the Prometheus text exposition and GET /debug/vars
// a JSON snapshot of the same registry — counters, gauges and latency
// histograms from every layer (ingest, store, tier, query, hub). -pprof
// additionally mounts net/http/pprof under /debug/pprof/. With
// -stats-every the daemon prints a periodic one-line health summary read
// from the same registry the scrape endpoints serve.
//
// Incident-grade observability rides on top of the metrics: an always-on
// flight recorder (a fixed-size ring of structured events — segment
// seals and uploads, upload-queue stalls, flush backpressure, tier
// evictions and page-back failures, subscriber drops, peer degradation)
// is served on GET /debug/flight, dumped to stderr on SIGQUIT and at
// daemon exit, and fed by the -slow-query hook with any query exceeding
// the threshold (full stage trace attached). GET /healthz answers
// liveness; GET /readyz aggregates per-layer readiness checks (flush
// backlog, upload-queue age, storage errors, peer reachability, hub
// drops) into a machine-readable verdict.
//
// With -track and -anomaly the daemon attaches online lanes to the
// ingest tee — per-vessel folds on one shared sharded host
// (internal/lane), answering the derived query kinds live instead of by
// archive replay; with -data-dir every recovered trajectory is folded
// back into them at startup, so those answers continue across a restart
// exactly where a replay of the archive stands (alerts are not
// replayed).
//
// -track is the track-intelligence lane: fused per-vessel Kalman state
// and integrity scores behind the track/quality kinds (predict is
// dead-reckoned from the archive with or without it). With -detections
// it additionally parses $PRADAR radar-contact lines interleaved in the
// feed (aisgen -radar-range emits them) and fuses those identity-less
// contacts into the vessel tracks. With -data-dir, anonymous radar-only
// tracks (which exist nowhere in the archive) are snapshotted to
// orphans.json at shutdown and resumed at startup, so the whole track
// picture survives a restart.
//
// -anomaly is the streaming anomaly lane: a behavior profile per vessel
// (sliding-window distribution shift against the vessel's own history),
// stop/move episodes materialised into a semantic store as they close,
// and continuous open-world CEP — reporting gaps matched across vessels
// for physically feasible covert meetings, raised as
// possible-rendezvous alerts to /v1/stream alert subscriptions only (the
// daemon's alert printer never sees them), behind the anomalies kind
// (/v1/anomalies, msaquery anomalies / -watch anomalies).
//
// Failure semantics of both: a lane never refuses traffic or fails a
// query; without its flag the kinds still answer, derived from the
// archive on demand.
//
// With -mem-budget the archive exceeds RAM: once resident points pass
// the budget, the coldest vessels are evicted down to compact stubs and
// their history spills to the object store (-remote-dir, or a tier/
// subdirectory of -data-dir); queries keep answering, paging evicted
// spans back in on demand. With -remote-dir, sealed WAL segments and
// snapshots also migrate off local disk on seal (upload confirmed before
// the local copy is deleted; recovery re-uploads anything a crash left
// behind).
//
// Usage:
//
//	aisgen -vessels 200 -minutes 60 | maritimed [-shards N] [-decoders N] [-data-dir DIR] [-fsync MODE] [-remote-dir DIR] [-mem-budget SIZE] [-http ADDR] [-pprof] [-stats-every D] [-slow-query D] [-track] [-detections] [-anomaly] [-peer URL]...
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/ais"
	"repro/internal/anomaly"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/query"
	"repro/internal/semstore"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/track"
)

// parseBytes reads a human byte size: plain bytes, decimal suffixes
// (KB/MB/GB) or binary ones (KiB/MiB/GiB).
func parseBytes(s string) (int64, error) {
	t := strings.TrimSpace(s)
	mult := int64(1)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{
		{"KiB", 1 << 10}, {"MiB", 1 << 20}, {"GiB", 1 << 30},
		{"KB", 1000}, {"MB", 1000 * 1000}, {"GB", 1000 * 1000 * 1000},
		{"B", 1},
	} {
		if strings.HasSuffix(t, u.suffix) {
			t = strings.TrimSpace(strings.TrimSuffix(t, u.suffix))
			mult = u.mult
			break
		}
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("want a positive size like 64MiB or 500MB, got %q", s)
	}
	return n * mult, nil
}

// parseRadarLine parses one "$PRADAR,<station>,<lat>,<lon>" contact
// sentence, stamping it with the feed's synthesized timeline.
func parseRadarLine(line string, at time.Time) (track.Detection, bool) {
	parts := strings.Split(line, ",")
	if len(parts) != 4 {
		return track.Detection{}, false
	}
	station, err1 := strconv.Atoi(parts[1])
	lat, err2 := strconv.ParseFloat(parts[2], 64)
	lon, err3 := strconv.ParseFloat(parts[3], 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return track.Detection{}, false
	}
	return track.Detection{
		At: at, Pos: geo.Point{Lat: lat, Lon: lon}, Station: station,
	}, true
}

// The query server's timeouts: a client that has not finished its request
// headers after readHeaderTimeout, or leaves a keep-alive connection idle
// for idleTimeout, is disconnected instead of holding a goroutine and a
// file descriptor for ever. There is no write timeout: /v1/stream
// responses are long-lived by design.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer is the query API's server around h.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func main() {
	synopsisTol := flag.Float64("synopsis", 60, "synopsis tolerance in metres (0 = archive everything)")
	minSeverity := flag.Int("severity", 2, "minimum alert severity to print")
	shards := flag.Int("shards", runtime.GOMAXPROCS(0), "pipeline shards")
	decoders := flag.Int("decoders", 0, "NMEA decode workers (default = shards)")
	dataDir := flag.String("data-dir", "", "persist the archive in this directory (WAL + snapshots) and resume on restart")
	fsync := flag.String("fsync", "rotate", "fsync policy with -data-dir: rotate, always or never")
	remoteDir := flag.String("remote-dir", "", "migrate sealed WAL segments, snapshots and evicted chunks to this object-store directory (local disk keeps only the active segment)")
	memBudget := flag.String("mem-budget", "", "resident archive memory budget (e.g. 64MiB): evict cold vessels past it, paging them back on demand (needs -data-dir or -remote-dir)")
	httpAddr := flag.String("http", "", "serve the query API on this address (e.g. :8080) while ingesting")
	pprofOn := flag.Bool("pprof", false, "with -http, mount net/http/pprof under /debug/pprof/")
	statsEvery := flag.Duration("stats-every", 0, "print a periodic health line read from the metrics registry (0 = off)")
	slowQuery := flag.Duration("slow-query", time.Second, "record any query exceeding this duration in the flight ring with its full stage trace (0 = off)")
	trackOn := flag.Bool("track", false, "run the online track-intelligence stage (fused Kalman state and integrity scores behind the track/quality query kinds)")
	detections := flag.Bool("detections", false, "parse $PRADAR radar-contact lines from the feed into the track stage (implies -track); aisgen -radar-range emits them")
	anomalyOn := flag.Bool("anomaly", false, "run the streaming anomaly lane (behavior profiles behind the anomalies query kind, continuous episode extraction, possible-rendezvous CEP alerts)")
	var peers []string
	flag.Func("peer", "federate another maritimed -http daemon's picture into query answers (repeatable)",
		func(u string) error { peers = append(peers, u); return nil })
	flag.Parse()

	world := sim.MediterraneanWorld(1)
	// One registry is the single source of truth for every stat the
	// daemon reports: the /metrics and /debug/vars scrapes, the periodic
	// -stats-every line and the final summary all read from it.
	reg := obs.NewRegistry()
	revision, goVersion := obs.RegisterBuildInfo(reg, time.Now())
	// The flight recorder is always on: recording is an atomic add plus a
	// short per-slot mutex hold, cheap enough that the black box exists
	// before anyone knows they need it. Served on /debug/flight with
	// -http, dumped to stderr on SIGQUIT and at exit.
	flight := obs.NewFlight(4096)
	fmt.Printf("[build] %s (%s)\n", revision, goVersion)
	cfg := ingest.Config{
		Pipeline: core.Config{
			Zones:              world.Zones,
			SynopsisToleranceM: *synopsisTol,
		},
		Shards:        *shards,
		DecodeWorkers: *decoders,
		Obs:           reg,
		Flight:        flight,
	}
	for _, u := range peers {
		c := query.NewClient(u)
		c.Flight = flight // peer degraded/recovered + epoch rewinds, on the record
		cfg.Peers = append(cfg.Peers, c)
		fmt.Printf("[federation] peer %s merged into query answers\n", u)
	}
	// SIGQUIT dumps the black box without killing the daemon — the
	// incident-investigation tap (kill -QUIT <pid>).
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGQUIT)
	go func() {
		for range sigc {
			flight.Dump(os.Stderr)
		}
	}()
	if *trackOn || *detections {
		cfg.Track = &track.Config{}
		if *detections {
			fmt.Println("[track] online tracker on; fusing $PRADAR radar contacts from the feed")
		} else {
			fmt.Println("[track] online tracker on")
		}
	}
	var semantic *semstore.Store
	if *anomalyOn {
		semantic = semstore.NewStore()
		cfg.Anomaly = &anomaly.Config{Semantic: semantic, Zones: world.Zones}
		fmt.Println("[anomaly] streaming anomaly lane on: behavior profiles, episode extraction, possible-rendezvous CEP")
	}

	// Tiered storage: -remote-dir is the object store sealed segments,
	// snapshots and evicted chunks migrate to; -mem-budget arms eviction.
	var objects store.ObjectStore
	if *remoteDir != "" {
		fs, err := store.NewFSObjects(*remoteDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "maritimed: opening remote object store:", err)
			os.Exit(1)
		}
		objects = fs
		if *dataDir != "" {
			fmt.Printf("[tier] sealed segments and snapshots migrate to %s\n", *remoteDir)
		}
	}
	if *memBudget != "" {
		budget, err := parseBytes(*memBudget)
		if err != nil {
			fmt.Fprintf(os.Stderr, "maritimed: bad -mem-budget: %v\n", err)
			os.Exit(2)
		}
		// Spill chunks are a paging cache (stubs referencing them die
		// with the process), so their store skips fsync.
		spillDir := *remoteDir
		if spillDir == "" {
			if *dataDir == "" {
				fmt.Fprintln(os.Stderr, "maritimed: -mem-budget needs somewhere to spill: pass -remote-dir or -data-dir")
				os.Exit(2)
			}
			// Spill next to the WAL: a subdirectory the segment scanner
			// ignores.
			spillDir = filepath.Join(*dataDir, "tier")
		}
		spill, err := store.NewFSObjectsCache(spillDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "maritimed: opening spill store:", err)
			os.Exit(1)
		}
		cfg.MemoryBudget = budget
		cfg.TierObjects = spill
		fmt.Printf("[tier] resident archive budget %s: cold vessels evict and page back on demand\n", *memBudget)
	}

	var arch *store.Archive
	if *dataDir != "" {
		policy, ok := map[string]store.SyncPolicy{
			"rotate": store.SyncRotate, "always": store.SyncAlways, "never": store.SyncNever,
		}[*fsync]
		if !ok {
			fmt.Fprintf(os.Stderr, "maritimed: unknown -fsync policy %q\n", *fsync)
			os.Exit(2)
		}
		scfg := store.Config{Dir: *dataDir, Sync: policy}
		if *remoteDir != "" {
			scfg.Remote = objects
		}
		var err error
		arch, err = store.Open(scfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "maritimed: opening archive:", err)
			os.Exit(1)
		}
		cfg.Backend = arch.Backend
		arch.Instrument(reg) // recovery stats + WAL/upload latency series
	}

	engine := ingest.New(cfg)
	if arch != nil {
		resumed := engine.Resume(arch.Store)
		fmt.Printf("[archive] %s: recovered %d records (%d from snapshot, %d from WAL over %d segments",
			*dataDir, arch.Stats.Total(), arch.Stats.SnapshotPoints,
			arch.Stats.WALRecords, arch.Stats.WALSegments)
		if arch.Stats.RemoteSegments > 0 {
			fmt.Printf(", %d remote", arch.Stats.RemoteSegments)
		}
		if arch.Stats.Reuploaded > 0 {
			fmt.Printf("; re-uploaded %d segments", arch.Stats.Reuploaded)
		}
		if arch.Stats.TornBytes > 0 {
			fmt.Printf("; truncated %d torn bytes", arch.Stats.TornBytes)
		}
		fmt.Printf("); resumed %d points across %d shards\n", resumed, *shards)
		flight.Record(obs.FlightInfo, "store", "archive recovered",
			obs.FI("records", int64(arch.Stats.Total())),
			obs.FI("segments", int64(arch.Stats.WALSegments)),
			obs.FI("torn_bytes", arch.Stats.TornBytes))
	}
	ctx := context.Background()
	engine.Start(ctx)

	// Anonymous radar-only tracks exist nowhere in the archive (identified
	// tracks were seeded from it by Resume), so with -track and -data-dir
	// the orphan picture parked at the previous shutdown is resumed here.
	orphansPath := ""
	if *dataDir != "" && (*trackOn || *detections) {
		orphansPath = filepath.Join(*dataDir, "orphans.json")
		if data, err := os.ReadFile(orphansPath); err == nil {
			if err := engine.Tracks().DecodeOrphans(data); err != nil {
				// A stale or resharded snapshot starts fresh, not fatally.
				fmt.Fprintln(os.Stderr, "maritimed: resuming orphan tracks:", err)
			} else if n := engine.Tracks().OrphanCount(); n > 0 {
				fmt.Printf("[track] resumed %d anonymous radar tracks from %s\n", n, orphansPath)
			}
		} else if !os.IsNotExist(err) {
			fmt.Fprintln(os.Stderr, "maritimed: reading orphan snapshot:", err)
		}
	}

	// Query API: the unified read surface over the ingesting shards,
	// served concurrently with ingest (reads see each shard's consistent
	// current state).
	var httpSrv *http.Server
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "maritimed: query API listen:", err)
			os.Exit(1)
		}
		srv := query.NewServer(engine)
		srv.ServeMetrics(reg)
		srv.ServeFlight(flight)
		srv.ServeHealth(engine.Health(ingest.HealthOptions{}))
		if *slowQuery > 0 {
			srv.RecordSlowQueries(*slowQuery, flight)
		}
		if *pprofOn {
			srv.ServePprof()
		}
		httpSrv = newHTTPServer(srv)
		go func() {
			if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "maritimed: query API:", err)
			}
		}()
		fmt.Printf("[query] serving /v1 (one-shot + /v1/stream standing queries), /metrics, /healthz, /readyz and /debug/flight on %s\n", ln.Addr())
		if *pprofOn {
			fmt.Printf("[query] profiling on http://%s/debug/pprof/\n", ln.Addr())
		}
	}

	// Static/voyage quality issues surface from decode workers; serialise
	// them onto stdout.
	var outMu sync.Mutex
	onStatic := func(_ time.Time, _ *ais.StaticVoyage, issues []quality.Issue) {
		if len(issues) == 0 {
			return
		}
		outMu.Lock()
		defer outMu.Unlock()
		for _, issue := range issues {
			fmt.Printf("[quality] vessel %d: %s (%s)\n", issue.MMSI, issue.Rule, issue.Note)
		}
	}
	lines := make(chan ingest.Line, 1024)
	engine.StartLines(ctx, lines, onStatic)

	// Periodic health line: the same registry the scrape endpoints
	// serve, printed. reg.Value tolerates series that are not registered
	// yet (no backend / no tier), reading as zero.
	if *statsEvery > 0 {
		go func() {
			tick := time.NewTicker(*statsEvery)
			defer tick.Stop()
			for range tick.C {
				in, _ := reg.Value("ingest_messages_in_total")
				out, _ := reg.Value("ingest_messages_out_total")
				queued, _ := reg.Value("ingest_queue_depth")
				flushQ, _ := reg.Value("store_flush_queue_depth")
				resident, _ := reg.Value("tier_resident_points")
				evicted, _ := reg.Value("tier_evicted_points")
				p50, _ := reg.Quantile("ingest_batch_append_ns", 0.50)
				p99, _ := reg.Quantile("ingest_batch_append_ns", 0.99)
				outMu.Lock()
				fmt.Printf("[stats] in=%.0f out=%.0f queued=%.0f flushq=%.0f resident=%.0f evicted=%.0f batch p50=%s p99=%s\n",
					in, out, queued, flushQ, resident, evicted,
					time.Duration(p50), time.Duration(p99))
				outMu.Unlock()
			}
		}()
	}

	// Alert printer: drains the merged alert stream until the engine has
	// fully flushed; doubles as the completion barrier.
	var latest time.Time
	var latestMu sync.Mutex
	printed := make(chan struct{})
	go func() {
		defer close(printed)
		for ev := range engine.Alerts() {
			latestMu.Lock()
			if ev.Time.After(latest) {
				latest = ev.Time
			}
			latestMu.Unlock()
			if ev.Value.Severity >= *minSeverity {
				outMu.Lock()
				fmt.Println(ev.Value)
				outMu.Unlock()
			}
		}
	}()

	// Reader: stamp lines in arrival order and feed the decode fan-out.
	// NMEA has no timestamps; synthesise event time from arrival order at
	// a nominal 10 Hz per vessel-interleaved stream (good enough for a
	// demo over replayed logs; production feeds carry receiver timestamps).
	at := time.Date(2017, 3, 21, 0, 0, 0, 0, time.UTC)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<16), 1<<16)
	n := 0
	radarSeen, radarFused, radarBad := 0, 0, 0
	start := time.Now()
	for sc.Scan() {
		n++
		at = at.Add(100 * time.Millisecond)
		line := sc.Text()
		// $PRADAR contact lines (aisgen -radar-range) are not AIS: they
		// never enter the decode path. With -detections they feed the
		// track stage, stamped on the same synthesized timeline as the
		// surrounding sentences.
		if strings.HasPrefix(line, "$PRADAR,") {
			if *detections {
				radarSeen++
				if d, ok := parseRadarLine(line, at); ok {
					radarFused += engine.IngestDetections([]track.Detection{d})
				} else {
					radarBad++
				}
			}
			continue
		}
		lines <- ingest.Line{At: at, Text: line}
	}
	close(lines)
	<-printed // engine auto-closes once decode drains; alerts close last
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "maritimed: read:", err)
		os.Exit(1)
	}
	end := at
	if latest.After(end) {
		end = latest
	}
	elapsed := time.Since(start)
	sharded := engine.Sharded()
	snap := engine.Snapshot()
	dm := engine.DecodeMetrics.Snapshot()
	compression := sharded.CompressionRatio()
	fmt.Printf("\n%d lines → %d messages in %v (%.0f msg/s over %d shards); "+
		"archived %d (%.1f%% compression); %d alerts; %d undecodable\n",
		n, dm.Out, elapsed.Round(time.Millisecond), float64(dm.Out)/elapsed.Seconds(),
		len(sharded.Shards), snap.Archived, compression*100, snap.Alerts, dm.Dropped)

	// Situation board over the merged live picture of every shard.
	fmt.Printf("%d vessels live; per-shard ingest: ", sharded.LiveCount())
	for i, p := range sharded.Shards {
		if i > 0 {
			fmt.Print(" ")
		}
		fmt.Print(p.Metrics.Ingested.Load())
	}
	fmt.Println()
	fmt.Print(sharded.Situation(end, world.Bounds, 12, 48).Summary())

	if tracks := engine.Tracks(); tracks != nil {
		fmt.Printf("[track] %d fused vessel tracks, %d anonymous radar tracks",
			tracks.VesselCount(), tracks.OrphanCount())
		if *detections {
			fmt.Printf("; %d contacts (%d fused to vessels", radarSeen, radarFused)
			if radarBad > 0 {
				fmt.Printf(", %d malformed", radarBad)
			}
			fmt.Print(")")
		}
		fmt.Println()
		// Park the anonymous picture for the next process; identified
		// tracks need no snapshot (Resume seeds them from the archive).
		if orphansPath != "" {
			if data, err := tracks.EncodeOrphans(); err != nil {
				fmt.Fprintln(os.Stderr, "maritimed: snapshotting orphan tracks:", err)
			} else if err := os.WriteFile(orphansPath, data, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "maritimed: writing orphan snapshot:", err)
			}
		}
	}

	if anoms := engine.Anomalies(); anoms != nil {
		fmt.Printf("[anomaly] %d vessels profiled; %d episodes closed (%d triples), %d reporting gaps, %d possible rendezvous\n",
			anoms.VesselCount(), anoms.EpisodeCount(), semantic.Len(), anoms.GapCount(), anoms.RendezvousCount())
	}

	// Final summaries read from the registry — the same numbers a
	// /metrics scrape would have reported at this instant.
	if arch != nil {
		engine.Wait() // flush stage drained and final-synced
		if err := engine.FlushErr(); err != nil {
			fmt.Fprintln(os.Stderr, "maritimed: persistence:", err)
		}
		if err := arch.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "maritimed: closing archive:", err)
		}
		persisted, _ := reg.Value("store_flush_out_total")
		dropped, _ := reg.Value("store_flush_dropped_total")
		fmt.Printf("[archive] persisted %.0f records to %s (%.0f dropped)\n", persisted, *dataDir, dropped)
	}
	if cfg.MemoryBudget > 0 {
		engine.Wait()
		resident, _ := reg.Value("tier_resident_points")
		evicted, _ := reg.Value("tier_evicted_points")
		stubs, _ := reg.Value("tier_evicted_vessels")
		evictions, _ := reg.Value("tier_evictions_total")
		pageIns, _ := reg.Value("tier_pageins_total")
		pagedPts, _ := reg.Value("tier_paged_points_total")
		spilled, _ := reg.Value("tier_spilled_bytes_total")
		fmt.Printf("[tier] %.0f resident / %.0f evicted points (%.0f stub vessels); %.0f evictions, %.0f page-ins (%.0f points back), %.1f MiB spilled\n",
			resident, evicted, stubs, evictions, pageIns, pagedPts, spilled/(1<<20))
	}

	if httpSrv != nil {
		shutCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			// Standing /v1/stream connections never drain on their own;
			// after the graceful window, cut them.
			httpSrv.Close()
		}
	}

	// Last act: empty the black box onto stderr, so the run's event
	// record survives the process whether or not anyone scraped it.
	flight.Dump(os.Stderr)
}
