// Package maritime is the public facade of the library: a stable surface
// over the integrated maritime data integration and analysis
// infrastructure reproduced from Claramunt et al., "Maritime Data
// Integration and Analysis: Recent Progress and Research Challenges"
// (EDBT 2017).
//
// The facade re-exports what the commands (cmd/) and examples
// (examples/) compose, and nothing else — the deadexport analyzer
// (internal/lint) reports a re-export once nothing outside uses it:
//
//   - Pipeline — the Figure 2 infrastructure: ingest AIS, get quality
//     assessment, synopses, storage, event recognition and situation
//     pictures (package internal/core).
//   - IngestEngine — the asynchronous, backpressure-aware sharded front
//     door over Pipeline for real AIS volumes (package internal/ingest),
//     with its online track and anomaly lanes (TrackConfig,
//     AnomalyConfig).
//   - Simulate — the synthetic world standing in for live feeds
//     (package internal/sim).
//   - OpenArchive and the object stores — the durable, tiered archive
//     (package internal/store).
//   - NewQueryServer and NewQueryClient — the query surface over HTTP
//     (package internal/query); the request and result types live there.
//   - NewObsRegistry and NewObsFlight — metrics and the flight recorder
//     (package internal/obs).
//
// # Building
//
// The module is self-contained (no external dependencies):
//
//	go build ./...
//	go test ./...
//	go test -race ./...   # the ingest engine is concurrent; keep it clean
//
// # Quick start (synchronous)
//
//	run, _ := maritime.Simulate(maritime.SimConfig{Seed: 1, NumVessels: 50, Duration: time.Hour})
//	p := maritime.NewPipeline(maritime.PipelineConfig{Zones: run.Config.World.Zones})
//	for i := range run.Positions {
//	    obs := &run.Positions[i]
//	    alerts := p.Ingest(obs.At, &obs.Report)
//	    for _, a := range alerts {
//	        fmt.Println(a)
//	    }
//	}
//
// # Sharded ingest (asynchronous)
//
// For multi-core scaling, feed the same stream through the ingest engine:
// reports are partitioned by MMSI across per-shard pipelines behind
// bounded queues (a saturated shard backpressures the submitter), batches
// amortise the pipeline lock, and alerts from all shards arrive merged on
// one channel:
//
//	e := maritime.NewIngestEngine(maritime.IngestConfig{
//	    Pipeline: maritime.PipelineConfig{Zones: run.Config.World.Zones},
//	    Shards:   8,
//	})
//	ctx := context.Background()
//	e.Start(ctx)
//	go func() {
//	    for i := range run.Positions {
//	        obs := &run.Positions[i]
//	        e.Ingest(ctx, obs.At, &obs.Report)
//	    }
//	    e.Close()
//	}()
//	for ev := range e.Alerts() { // closes once everything in flight drains
//	    fmt.Println(ev.Value)
//	}
//
// The engine produces the same alert multiset as the sequential Pipeline
// over the same input (per-vessel order is preserved end to end); see
// internal/ingest for the dataflow details and cmd/maritimed for a
// complete NMEA-to-alerts daemon built on it.
//
// # Persistence and tiering
//
// By default everything is in-memory. To make the archive survive
// restarts, open an archive directory and hand its backend to the
// engine: archived records stream through an asynchronous flush stage
// into a segmented, CRC32C-checksummed write-ahead log that is
// periodically compacted into snapshots. On the next start, OpenArchive
// recovers the persisted state (snapshot + WAL tail, truncating torn
// trailing writes at the last valid record) and Resume seeds the engine
// with it:
//
//	arch, err := maritime.OpenArchive(maritime.StoreConfig{Dir: "/var/lib/maritimed"})
//	if err != nil { ... }
//	e := maritime.NewIngestEngine(maritime.IngestConfig{
//	    Pipeline: maritime.PipelineConfig{Zones: run.Config.World.Zones},
//	    Backend:  arch.Backend, // async batched flush; queue bound + fsync policy in Flush
//	})
//	fmt.Printf("recovered %d records\n", e.Resume(arch.Store))
//	e.Start(ctx)
//	// ... feed it, drain Alerts ...
//	e.Wait()     // flush queue drained, backend synced
//	arch.Close() // archive is durable
//
// With a memory budget the in-memory archive becomes a cache over the
// durable store: past the budget the coldest vessels are evicted to
// compact stubs and their history spills to an ObjectStore, and every
// query kind keeps working, paging back only the chunks it reaches:
//
//	objects, _ := maritime.NewFSObjectsCache("/var/lib/maritimed-tier")
//	e := maritime.NewIngestEngine(maritime.IngestConfig{
//	    Pipeline:     maritime.PipelineConfig{Zones: run.Config.World.Zones},
//	    Backend:      arch.Backend, // durability (WAL) as before
//	    MemoryBudget: 256 << 20,    // resident points capped at ~256 MiB
//	    TierObjects:  objects,      // evicted chunks spill here
//	})
//
// The same ObjectStore can back the WAL itself (StoreConfig.Remote):
// sealed segments and snapshots migrate off local disk on seal, with the
// local copy deleted only after the upload is confirmed. maritimed wires
// both with -mem-budget and -remote-dir.
//
// # Querying, subscriptions and federation
//
// Every read — trajectory retrieval, space–time range, nearest vessel,
// the live picture, situation assembly, alert history, store stats, and
// the derived track, predict, quality and anomalies kinds — is one typed
// request (internal/query) that the ingest engine answers in process
// (IngestEngine.Query, IngestEngine.Subscribe for standing queries).
// NewQueryServer serves the same surface over HTTP (/v1/query, the
// per-kind GET routes and /v1/stream), and a QueryClient is its remote
// twin and a federation member:
//
//	srv := maritime.NewQueryServer(e)
//	// mount srv on an http.Server; then, elsewhere:
//	c := maritime.NewQueryClient("localhost:8080")
//
// Results have a stable JSON encoding, so the HTTP answer and a locally
// marshalled in-process answer are byte-identical. cmd/maritimed -http
// serves it, cmd/msaquery is the CLI client, and maritimed -peer URL
// federates another daemon's picture into local answers.
package maritime

import (
	"time"

	"repro/internal/anomaly"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/semstore"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/track"
	"repro/internal/tstore"
)

// Point is a geographic position in degrees.
type Point = geo.Point

// Pipeline: the paper's Figure 2 infrastructure.
type (
	// Pipeline is the integrated processing pipeline.
	Pipeline = core.Pipeline
	// PipelineConfig parameterises a pipeline.
	PipelineConfig = core.Config
)

// NewPipeline builds the integrated pipeline.
func NewPipeline(cfg PipelineConfig) *Pipeline { return core.New(cfg) }

// Asynchronous ingest: the backpressure-aware sharded dataflow.
type (
	// IngestEngine is the async front door: decode workers → partition by
	// MMSI → per-shard batched pipelines → merged alerts.
	IngestEngine = ingest.Engine
	// IngestConfig parameterises the engine (shards, buffers, batch size).
	IngestConfig = ingest.Config
	// IngestLine is one raw NMEA sentence with its receive timestamp, the
	// input unit of the engine's decode front-end.
	IngestLine = ingest.Line
	// IngestHealthOptions tunes IngestEngine.Health's thresholds.
	IngestHealthOptions = ingest.HealthOptions
)

// NewIngestEngine builds the async sharded ingest engine (call Start, then
// Ingest or StartLines; drain Alerts until it closes).
func NewIngestEngine(cfg IngestConfig) *IngestEngine { return ingest.New(cfg) }

// Simulation: the synthetic maritime world.
type (
	// SimConfig parameterises a simulation run.
	SimConfig = sim.Config
	// SimRun is a completed simulation with streams and ground truth.
	SimRun = sim.Run
	// World is the static stage (ports, routes, zones, stations).
	World = sim.World
)

// Simulate executes a scenario.
func Simulate(cfg SimConfig) (*SimRun, error) { return sim.Simulate(cfg) }

// MediterraneanWorld builds the default regional stage.
func MediterraneanWorld(seed int64) *World { return sim.MediterraneanWorld(seed) }

// Store is the trajectory archive.
type Store = tstore.Store

// NewStore returns an empty trajectory archive.
func NewStore() *Store { return tstore.New() }

// Persistence and tiering: the durable archive (segmented WAL +
// snapshots) and the object store cold bytes migrate to.
type (
	// StoreConfig parameterises an on-disk archive (directory, segment
	// cap, fsync policy, compaction cadence).
	StoreConfig = store.Config
	// SyncPolicy selects when the disk backend fsyncs.
	SyncPolicy = store.SyncPolicy
	// Archive is an opened on-disk archive: recovered store + backend.
	Archive = store.Archive
	// ObjectStore is the minimal immutable-blob interface sealed WAL
	// segments, snapshots and evicted trajectory chunks migrate to
	// (atomic Put, immutable objects, prefix List).
	ObjectStore = store.ObjectStore
	// FSObjectStore is the local-filesystem ObjectStore reference
	// implementation (atomic write-temp + rename Puts).
	FSObjectStore = store.FSObjects
)

// Fsync policies for StoreConfig.Sync.
const (
	SyncRotate = store.SyncRotate
	SyncAlways = store.SyncAlways
	SyncNever  = store.SyncNever
)

// OpenArchive opens (creating if needed) an archive directory and
// recovers the persisted state: newest snapshot plus WAL tail, with torn
// trailing records truncated at the last valid record. The directory is
// flock-protected: a second concurrent writer fails fast.
func OpenArchive(cfg StoreConfig) (*Archive, error) { return store.Open(cfg) }

// NewFSObjects opens (creating if needed) a filesystem object store
// rooted at dir, with fully durable Puts — the store migrated WAL
// segments and snapshots require.
func NewFSObjects(dir string) (*FSObjectStore, error) { return store.NewFSObjects(dir) }

// NewFSObjectsCache is NewFSObjects without fsync: fit for paging
// caches like tier spill chunks (reconstructable after a crash), unfit
// for WAL migration.
func NewFSObjectsCache(dir string) (*FSObjectStore, error) { return store.NewFSObjectsCache(dir) }

// The query surface over HTTP (package internal/query).
type (
	// QueryServer serves the surface over HTTP (/v1/query + GET routes +
	// /v1/stream standing queries).
	QueryServer = query.Server
	// QueryClient answers requests by calling a remote QueryServer; it is
	// also a federation member (maritimed -peer).
	QueryClient = query.Client
	// QueryExecutor is anything that answers a query: an engine, an
	// ingest engine, or a client.
	QueryExecutor = query.Executor
)

// NewQueryServer builds the HTTP handler serving an executor. When the
// executor also subscribes (the ingest engine does), /v1/stream serves
// standing queries over it.
func NewQueryServer(exec QueryExecutor) *QueryServer { return query.NewServer(exec) }

// NewQueryClient builds a client for a running query server
// ("host:port" or a full URL): a remote executor, a remote subscriber
// (Subscribe over /v1/stream with automatic resume) and a federation
// member (maritimed -peer).
func NewQueryClient(base string) *QueryClient { return query.NewClient(base) }

// Online lanes: the track stage (fusion, radar association) and the
// streaming anomaly stage (profiles, episodes, open-world CEP).
type (
	// TrackConfig parameterises the online track stage; assign a
	// (possibly zero) value to IngestConfig.Track to enable it.
	TrackConfig = track.Config
	// Detection is one identity-less sensor measurement (radar contact)
	// for IngestEngine.IngestDetections.
	Detection = track.Detection
	// AnomalyConfig parameterises the streaming anomaly lane; assign a
	// (possibly zero) value to IngestConfig.Anomaly to enable it.
	AnomalyConfig = anomaly.Config
	// SemanticStore is the triple store incrementally closed episodes
	// materialise into (AnomalyConfig.Semantic).
	SemanticStore = semstore.Store
)

// NewSemanticStore returns an empty semantic triple store.
func NewSemanticStore() *SemanticStore { return semstore.NewStore() }

// Observability (package internal/obs). Hand an ObsRegistry to
// IngestConfig.Obs and every stage of the dataflow — ingest, store,
// tier, query, hub — reports through it; QueryServer.ServeMetrics
// exposes it as GET /metrics (Prometheus text) and GET /debug/vars
// (JSON).
type (
	// ObsRegistry holds named metrics and renders them for scraping.
	ObsRegistry = obs.Registry
	// ObsFlight is the always-on black-box flight recorder: a fixed-size
	// ring of structured events every layer writes its load-bearing
	// transitions into. Assign one to IngestConfig.Flight and serve it
	// with QueryServer.ServeFlight (GET /debug/flight).
	ObsFlight = obs.Flight
)

// NewObsRegistry returns an empty metrics registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// NewObsFlight builds a flight recorder ring of at least size events
// (rounded up to a power of two; default 1024 when size <= 0).
func NewObsFlight(size int) *ObsFlight { return obs.NewFlight(size) }

// RegisterObsBuildInfo exports the binary's build identity
// (maritime_build_info{revision,go}) and process uptime on reg,
// returning the identity for startup logging.
func RegisterObsBuildInfo(reg *ObsRegistry, start time.Time) (revision, goVersion string) {
	return obs.RegisterBuildInfo(reg, start)
}
