// Package tier makes the in-memory trajectory archive a cache over the
// durable store instead of the store itself — the exceeding-RAM layer of
// the storage stack.
//
// Two pieces:
//
//   - ChunkStore spills evicted trajectory runs as immutable objects
//     into a store.ObjectStore (a local directory, or wherever sealed
//     WAL segments migrate) in a full-fidelity encoding, and pages them
//     back through a read-through block cache with per-key singleflight
//     — concurrent queries of one evicted vessel share a single load.
//   - Manager watches the per-vessel heat of one or more tstore.Store
//     archives (last-touch clock driven by ingest appends and query
//     reads) against a resident-memory budget, and evicts the coldest
//     vessels down to their compact stubs until the archive fits.
//
// Eviction is invisible to every query kind: reads page the spans they
// need back in (and only those — the stub's chunk directory carries a
// bounding rectangle and time span per run, so windowed, boxed and
// best-first nearest reads prune unread chunks), the live picture and
// stats answer from the stub alone, and the chunk encoding preserves
// full float64 fidelity so paged-back answers are byte-identical to
// never-evicted ones. Crash durability is unchanged — the WAL/snapshot
// store (internal/store) still holds the full history; spilled chunks
// are a paging representation rebuilt after restart (stale ones are
// garbage-collected when a new Manager opens the same object store).
package tier

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ais"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/tstore"
)

// chunkPrefix namespaces spill objects away from the WAL segment and
// snapshot objects that may share the ObjectStore.
const chunkPrefix = "tier/"

// Chunk object layout (version 1), little-endian:
//
//	header: magic u32 "MTCH" | version u16 | mmsi u32 | count u32
//	record: unixnano i64 | lat f64 | lon f64 | speed f64 | course f64 |
//	        status u8
//
// Unlike the WAL's quantised 33-byte record, spill records keep speed
// and course as raw float64: a page-back must reproduce the evicted
// points bit-for-bit, not merely restart-accurately.
const (
	chunkMagic      = 0x4D544348 // "MTCH"
	chunkVersion    = 1
	chunkHeaderSize = 14
	chunkRecSize    = 41
)

// ChunkStore spills evicted runs to an ObjectStore and pages them back
// through a block cache. It implements tstore.ChunkStore. Safe for
// concurrent use.
type ChunkStore struct {
	objects store.ObjectStore
	cache   *store.BlockCache

	seq         atomic.Uint64
	spills      atomic.Uint64
	spillBytes  atomic.Uint64
	fetches     atomic.Uint64
	fetchBytes  atomic.Uint64
	liveObjects atomic.Int64

	// Page-back timing (Manager.Instrument): cold fetches hit the
	// object store, cached ones are served by the block cache. Atomic
	// pointers because the manager's budget loop is already running
	// when instrumentation attaches.
	fetchColdNS   atomic.Pointer[obs.Histogram]
	fetchCachedNS atomic.Pointer[obs.Histogram]

	// flight, when attached (Manager.SetFlight), records page-back
	// failures — the moment a query needed a spilled run and the object
	// store (or the chunk itself) let it down.
	flight atomic.Pointer[obs.Flight]
}

// failFetch records one page-back failure in the flight ring and
// returns it — every Fetch error path funnels through here so the
// black box sees the incident whichever check tripped.
func (cs *ChunkStore) failFetch(key string, err error) ([]model.VesselState, error) {
	cs.flight.Load().Record(obs.FlightError, "tier", "page-back failed",
		obs.FS("key", key), obs.FS("error", err.Error()))
	return nil, err
}

// NewChunkStore builds a spill store over objects with a read cache of
// cacheBytes.
func NewChunkStore(objects store.ObjectStore, cacheBytes int64) *ChunkStore {
	return &ChunkStore{objects: objects, cache: store.NewBlockCache(cacheBytes)}
}

// GC deletes every spill object in the store. Stubs referencing spilled
// chunks live only in process memory, so after a restart all previous
// spill objects are unreachable garbage — a new Manager calls this once
// before its first eviction. Never call it while a Store with live stubs
// is attached.
func (cs *ChunkStore) GC() (int, error) {
	keys, err := cs.objects.List(chunkPrefix)
	if err != nil {
		return 0, err
	}
	for _, key := range keys {
		if err := cs.objects.Delete(key); err != nil {
			return 0, err
		}
		cs.cache.Drop(key)
	}
	return len(keys), nil
}

// Spill implements tstore.ChunkStore: one immutable object per run.
func (cs *ChunkStore) Spill(mmsi uint32, pts []model.VesselState) (string, error) {
	if len(pts) == 0 {
		return "", fmt.Errorf("tier: refusing to spill an empty run")
	}
	data := make([]byte, chunkHeaderSize+len(pts)*chunkRecSize)
	binary.LittleEndian.PutUint32(data[0:], chunkMagic)
	binary.LittleEndian.PutUint16(data[4:], chunkVersion)
	binary.LittleEndian.PutUint32(data[6:], mmsi)
	binary.LittleEndian.PutUint32(data[10:], uint32(len(pts)))
	off := chunkHeaderSize
	for _, p := range pts {
		binary.LittleEndian.PutUint64(data[off:], uint64(p.At.UnixNano()))
		binary.LittleEndian.PutUint64(data[off+8:], math.Float64bits(p.Pos.Lat))
		binary.LittleEndian.PutUint64(data[off+16:], math.Float64bits(p.Pos.Lon))
		binary.LittleEndian.PutUint64(data[off+24:], math.Float64bits(p.SpeedKn))
		binary.LittleEndian.PutUint64(data[off+32:], math.Float64bits(p.CourseDeg))
		data[off+40] = uint8(p.Status)
		off += chunkRecSize
	}
	key := fmt.Sprintf("%s%09d/%012d.chk", chunkPrefix, mmsi, cs.seq.Add(1))
	if err := cs.objects.Put(key, data); err != nil {
		return "", err
	}
	cs.spills.Add(1)
	cs.spillBytes.Add(uint64(len(data)))
	cs.liveObjects.Add(1)
	return key, nil
}

// Fetch implements tstore.ChunkStore: page one run back, through the
// cache (concurrent fetches of the same key share one object read).
func (cs *ChunkStore) Fetch(key string, mmsi uint32, n int) ([]model.VesselState, error) {
	coldH, cachedH := cs.fetchColdNS.Load(), cs.fetchCachedNS.Load()
	var t0 time.Time
	if coldH != nil || cachedH != nil {
		t0 = time.Now()
	}
	// missed records whether our loader ran: under singleflight a
	// concurrent fetch of the same key may do the load for us, which
	// counts as cached here — this goroutine never touched the object
	// store.
	missed := false
	data, err := cs.cache.Get(key, func() ([]byte, error) { missed = true; return cs.objects.Get(key) })
	if err != nil {
		return cs.failFetch(key, err)
	}
	if coldH != nil || cachedH != nil {
		defer func() {
			h := cachedH
			if missed {
				h = coldH
			}
			if h != nil {
				h.ObserveSince(t0) // decode included: the cost a query waits for
			}
		}()
	}
	if len(data) < chunkHeaderSize {
		return cs.failFetch(key, fmt.Errorf("tier: chunk %s shorter than its header", key))
	}
	if m := binary.LittleEndian.Uint32(data[0:]); m != chunkMagic {
		return cs.failFetch(key, fmt.Errorf("tier: chunk %s has bad magic %08x", key, m))
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != chunkVersion {
		return cs.failFetch(key, fmt.Errorf("tier: chunk %s has unsupported version %d", key, v))
	}
	if m := binary.LittleEndian.Uint32(data[6:]); m != mmsi {
		return cs.failFetch(key, fmt.Errorf("tier: chunk %s belongs to vessel %d, wanted %d", key, m, mmsi))
	}
	count := int(binary.LittleEndian.Uint32(data[10:]))
	if count != n || len(data) != chunkHeaderSize+count*chunkRecSize {
		return cs.failFetch(key, fmt.Errorf("tier: chunk %s carries %d records in %d bytes, wanted %d",
			key, count, len(data), n))
	}
	pts := make([]model.VesselState, count)
	off := chunkHeaderSize
	for i := range pts {
		pts[i] = model.VesselState{
			MMSI: mmsi,
			At:   time.Unix(0, int64(binary.LittleEndian.Uint64(data[off:]))).UTC(),
			Pos: geo.Point{
				Lat: math.Float64frombits(binary.LittleEndian.Uint64(data[off+8:])),
				Lon: math.Float64frombits(binary.LittleEndian.Uint64(data[off+16:])),
			},
			SpeedKn:   math.Float64frombits(binary.LittleEndian.Uint64(data[off+24:])),
			CourseDeg: math.Float64frombits(binary.LittleEndian.Uint64(data[off+32:])),
			Status:    ais.NavStatus(data[off+40]),
		}
		off += chunkRecSize
	}
	cs.fetches.Add(1)
	cs.fetchBytes.Add(uint64(len(data)))
	return pts, nil
}

// CacheStats returns the read-cache counters.
func (cs *ChunkStore) CacheStats() store.CacheStats { return cs.cache.Stats() }

// --- eviction manager ----------------------------------------------------------

// pageCacheBytes bounds a Manager's page-back block cache.
const pageCacheBytes = 32 << 20

// Config parameterises a Manager. Budget is required; everything else
// defaults.
type Config struct {
	// Budget is the resident-point memory budget, in bytes, summed across
	// every watched store (floor, not exact RSS: tstore.PointBytes per
	// resident point; map, index and stub overheads ride on top).
	Budget int64
	// CheckEvery is the cadence of the background budget check (default
	// 2s; <0 disables the loop — call Check explicitly, as tests and
	// benchmarks do).
	CheckEvery time.Duration
	// Objects is where evicted runs spill (required): typically the same
	// object store sealed WAL segments migrate to, under the "tier/"
	// prefix.
	Objects store.ObjectStore
}

// Manager enforces a memory budget over one or more trajectory stores by
// evicting the coldest vessels (least recently appended-to or read) down
// to their stubs. One Manager owns the spill namespace of its object
// store: creating it garbage-collects spill objects left by a previous
// process.
type Manager struct {
	cfg    Config
	chunks *ChunkStore
	stores []*tstore.Store

	evictions   atomic.Uint64
	evictedPts  atomic.Uint64
	hotSkips    atomic.Uint64
	checks      atomic.Uint64
	lastEvictNs atomic.Int64 // wall ns spent inside the last eviction pass

	errMu sync.Mutex
	err   error

	// flight, when attached (SetFlight), records eviction passes and
	// spill failures; page-back failures go through the chunk store's
	// own pointer.
	flight atomic.Pointer[obs.Flight]

	closeOnce sync.Once
	done      chan struct{}
	stopped   chan struct{}
}

// SetFlight attaches a flight recorder to the manager and its chunk
// store. Safe on a live manager — the budget loop and concurrent
// fetches pick it up atomically.
func (m *Manager) SetFlight(f *obs.Flight) {
	m.flight.Store(f)
	m.chunks.flight.Store(f)
}

// NewManager builds the manager, attaches its chunk store to every
// store, garbage-collects stale spill objects, and starts the budget
// loop (unless CheckEvery < 0).
func NewManager(cfg Config, stores ...*tstore.Store) (*Manager, error) {
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("tier: Config.Budget is required")
	}
	if cfg.Objects == nil {
		return nil, fmt.Errorf("tier: Config.Objects is required")
	}
	if cfg.CheckEvery == 0 {
		cfg.CheckEvery = 2 * time.Second
	}
	if len(stores) == 0 {
		return nil, fmt.Errorf("tier: at least one store to watch is required")
	}
	m := &Manager{
		cfg:     cfg,
		chunks:  NewChunkStore(cfg.Objects, pageCacheBytes),
		stores:  stores,
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	if _, err := m.chunks.GC(); err != nil {
		return nil, fmt.Errorf("tier: collecting stale spill objects: %w", err)
	}
	for _, st := range stores {
		st.SetChunkStore(m.chunks)
	}
	if cfg.CheckEvery > 0 {
		go m.loop()
	} else {
		close(m.stopped)
	}
	return m, nil
}

// Instrument registers the tiered-archive series with reg: eviction and
// spill counters, resident/evicted gauges aggregated across the watched
// stores at scrape time, block-cache hit accounting, and the page-back
// latency histograms (tier_pageback_ns{path="cold"|"cached"}, the
// fetch+decode cost a query waits for). Safe on a live manager.
func (m *Manager) Instrument(reg *obs.Registry) {
	m.chunks.fetchColdNS.Store(reg.Histogram("tier_pageback_ns", "path", "cold"))
	m.chunks.fetchCachedNS.Store(reg.Histogram("tier_pageback_ns", "path", "cached"))
	reg.CounterFunc("tier_evictions_total", func() float64 { return float64(m.evictions.Load()) })
	reg.CounterFunc("tier_evicted_points_total", func() float64 { return float64(m.evictedPts.Load()) })
	reg.CounterFunc("tier_hot_skips_total", func() float64 { return float64(m.hotSkips.Load()) })
	reg.CounterFunc("tier_checks_total", func() float64 { return float64(m.checks.Load()) })
	reg.CounterFunc("tier_spill_objects_total", func() float64 { return float64(m.chunks.spills.Load()) })
	reg.CounterFunc("tier_spilled_bytes_total", func() float64 { return float64(m.chunks.spillBytes.Load()) })
	reg.CounterFunc("tier_fetches_total", func() float64 { return float64(m.chunks.fetches.Load()) })
	reg.CounterFunc("tier_fetched_bytes_total", func() float64 { return float64(m.chunks.fetchBytes.Load()) })
	reg.CounterFunc("tier_cache_hits_total", func() float64 { return float64(m.chunks.CacheStats().Hits) })
	reg.CounterFunc("tier_cache_misses_total", func() float64 { return float64(m.chunks.CacheStats().Misses) })
	reg.GaugeFunc("tier_cache_bytes", func() float64 { return float64(m.chunks.CacheStats().Bytes) })
	reg.GaugeFunc("tier_budget_bytes", func() float64 { return float64(m.cfg.Budget) })
	reg.GaugeFunc("tier_resident_points", m.sumTier(func(tc tstore.TierCounters) float64 { return float64(tc.ResidentPoints) }))
	reg.GaugeFunc("tier_evicted_points", m.sumTier(func(tc tstore.TierCounters) float64 { return float64(tc.EvictedPoints) }))
	reg.GaugeFunc("tier_resident_vessels", m.sumTier(func(tc tstore.TierCounters) float64 { return float64(tc.ResidentVessels) }))
	reg.GaugeFunc("tier_evicted_vessels", m.sumTier(func(tc tstore.TierCounters) float64 { return float64(tc.EvictedVessels) }))
	reg.CounterFunc("tier_pageins_total", m.sumTier(func(tc tstore.TierCounters) float64 { return float64(tc.PageIns) }))
	reg.CounterFunc("tier_paged_points_total", m.sumTier(func(tc tstore.TierCounters) float64 { return float64(tc.PagedPoints) }))
}

// sumTier builds a scrape-time aggregator over the watched stores'
// tier counters.
func (m *Manager) sumTier(pick func(tstore.TierCounters) float64) func() float64 {
	return func() float64 {
		var total float64
		for _, st := range m.stores {
			total += pick(st.Tier())
		}
		return total
	}
}

func (m *Manager) loop() {
	defer close(m.stopped)
	tick := time.NewTicker(m.cfg.CheckEvery)
	defer tick.Stop()
	for {
		select {
		case <-m.done:
			return
		case <-tick.C:
			m.Check()
		}
	}
}

// Close stops the budget loop. Stubs stay paged-in-able (the chunk store
// remains attached); nothing new is evicted.
func (m *Manager) Close() {
	m.closeOnce.Do(func() { close(m.done) })
	<-m.stopped
}

// Check runs one budget pass: if resident bytes exceed the budget, evict
// the coldest vessels (across all watched stores, ranked by last touch)
// until the archive fits or no evictable vessel remains. It returns the
// number of vessels evicted. Safe to call concurrently with ingest and
// queries — a vessel touched mid-spill is skipped, not corrupted.
func (m *Manager) Check() int {
	m.checks.Add(1)
	start := time.Now()
	defer func() { m.lastEvictNs.Store(time.Since(start).Nanoseconds()) }()

	type cand struct {
		st *tstore.Store
		h  tstore.VesselHeat
	}
	pointBytes := int64(tstore.PointBytes)
	var resident int64
	var cands []cand
	for _, st := range m.stores {
		for _, h := range st.Heat() {
			resident += int64(h.Resident) * pointBytes
			cands = append(cands, cand{st: st, h: h})
		}
	}
	if resident <= m.cfg.Budget {
		return 0
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].h.LastTouch < cands[j].h.LastTouch })
	evicted, pts := 0, 0
	over := resident - m.cfg.Budget
	for _, c := range cands {
		if resident <= m.cfg.Budget {
			break
		}
		n, err := c.st.EvictVessel(c.h.MMSI)
		switch {
		case err == tstore.ErrVesselHot:
			m.hotSkips.Add(1)
			continue
		case err != nil:
			m.setErr(err)
			m.flight.Load().Record(obs.FlightError, "tier", "eviction spill failed",
				obs.FI("mmsi", int64(c.h.MMSI)), obs.FS("error", err.Error()))
			return evicted
		case n == 0:
			continue
		}
		resident -= int64(n) * pointBytes
		evicted++
		m.evictions.Add(1)
		m.evictedPts.Add(uint64(n))
		pts += n
	}
	if evicted > 0 {
		m.flight.Load().Record(obs.FlightInfo, "tier", "eviction pass",
			obs.FI("vessels", int64(evicted)), obs.FI("points", int64(pts)),
			obs.FI("over_bytes", over))
	}
	return evicted
}

func (m *Manager) setErr(err error) {
	m.errMu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.errMu.Unlock()
}

// Err returns the first eviction failure (spill IO); nil while healthy.
// Hot-skip races are not errors.
func (m *Manager) Err() error {
	m.errMu.Lock()
	defer m.errMu.Unlock()
	return m.err
}

// Stats aggregates the tiered-archive state across the watched stores.
type Stats struct {
	Budget        int64 `json:"budget"`
	ResidentBytes int64 `json:"resident_bytes"`

	ResidentPoints  int `json:"resident_points"`
	EvictedPoints   int `json:"evicted_points"`
	ResidentVessels int `json:"resident_vessels"`
	EvictedVessels  int `json:"evicted_vessels"`
	SpilledChunks   int `json:"spilled_chunks"`

	Evictions      uint64 `json:"evictions"`
	EvictedTotal   uint64 `json:"evicted_points_total"`
	HotSkips       uint64 `json:"hot_skips"`
	Checks         uint64 `json:"checks"`
	PageIns        uint64 `json:"page_ins"`
	PagedPoints    uint64 `json:"paged_points"`
	SpillObjects   uint64 `json:"spill_objects"`
	SpilledBytes   uint64 `json:"spilled_bytes"`
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheBytes     int64  `json:"cache_bytes"`
	LastCheckNanos int64  `json:"last_check_ns"`
}

// Stats snapshots the manager and its stores.
func (m *Manager) Stats() Stats {
	s := Stats{
		Budget:         m.cfg.Budget,
		Evictions:      m.evictions.Load(),
		EvictedTotal:   m.evictedPts.Load(),
		HotSkips:       m.hotSkips.Load(),
		Checks:         m.checks.Load(),
		SpillObjects:   m.chunks.spills.Load(),
		SpilledBytes:   m.chunks.spillBytes.Load(),
		LastCheckNanos: m.lastEvictNs.Load(),
	}
	for _, st := range m.stores {
		tc := st.Tier()
		s.ResidentPoints += tc.ResidentPoints
		s.EvictedPoints += tc.EvictedPoints
		s.ResidentVessels += tc.ResidentVessels
		s.EvictedVessels += tc.EvictedVessels
		s.SpilledChunks += tc.SpilledChunks
		s.PageIns += tc.PageIns
		s.PagedPoints += tc.PagedPoints
	}
	s.ResidentBytes = int64(s.ResidentPoints) * int64(tstore.PointBytes)
	cs := m.chunks.CacheStats()
	s.CacheHits, s.CacheMisses, s.CacheBytes = cs.Hits, cs.Misses, cs.Bytes
	return s
}
