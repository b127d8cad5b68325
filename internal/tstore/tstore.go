// Package tstore is the moving-object store of the infrastructure (§2.3):
// an append-optimised archive of vessel trajectories supporting
// time-range, space-time-range and k-nearest-vessel queries, a live layer
// holding the current fleet picture under a uniform grid, and a compact
// binary snapshot format for persistence. It is safe for concurrent use.
//
// The archive is tierable: a Store with a ChunkStore attached can evict
// cold vessels down to a compact stub (chunk directory + newest sample +
// counts) and every read pages the evicted spans back in transparently,
// reading only the chunks its window and box actually reach — memory
// becomes a cache over the durable store instead of the store itself.
// internal/tier drives eviction (heat tracking, memory budget) and
// implements the chunk store over an object store.
package tstore

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/ais"
	"repro/internal/geo"
	"repro/internal/model"
)

// Sink receives the records appended to a Store — the hook a persistence
// backend attaches to. The canonical implementation is internal/store's
// Flusher, which queues records for an asynchronous write-ahead log;
// implementations must be safe for concurrent use when the owning store
// is used concurrently.
type Sink interface {
	Append(recs ...model.VesselState) error
}

// Tee fans appended records out to several sinks: every sink sees every
// record, and the first error any sink reports is returned (the remaining
// sinks still receive the batch). Nil sinks are skipped, so callers can
// compose optional stages without branching:
//
//	store.Attach(tstore.Tee(hub, flusher)) // publish + persist
func Tee(sinks ...Sink) Sink { return teeSink(sinks) }

type teeSink []Sink

func (t teeSink) Append(recs ...model.VesselState) error {
	var first error
	for _, s := range t {
		if s == nil {
			continue
		}
		if err := s.Append(recs...); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ChunkStore pages evicted trajectory spans out of a Store and back in —
// the hook the tiered-archive layer (internal/tier) attaches. Spill
// persists one immutable run of a single vessel's time-ordered points
// and returns the key that fetches it back; Fetch must return exactly
// the points Spill was given for that key, bit-for-bit (eviction is
// invisible to every query only if paging is lossless, so chunk
// encodings keep full float64 fidelity — unlike the quantised WAL
// encoding, which only needs restart fidelity). Implementations must be
// safe for concurrent use and should single-flight Fetch per key so
// concurrent queries of the same evicted vessel don't double-load.
type ChunkStore interface {
	Spill(mmsi uint32, pts []model.VesselState) (key string, err error)
	Fetch(key string, mmsi uint32, n int) ([]model.VesselState, error)
}

// ErrVesselHot reports an eviction abandoned because the vessel was
// appended to or read mid-spill — it is hot again, exactly the vessel an
// eviction manager should not be evicting. The spilled objects of the
// abandoned attempt become garbage (reclaimed at the next process
// start).
var ErrVesselHot = errors.New("tstore: vessel touched during eviction")

// tierChunkLen is the spill-run length: large enough that a page-in is
// one sensible object read, small enough that chunk rectangles stay
// tight for nearest/space-time pruning (the spill analogue of
// nearestChunkLen).
const tierChunkLen = 256

// Store archives trajectories keyed by vessel.
type Store struct {
	mu      sync.RWMutex
	vessels map[uint32]*series
	total   int
	sink    Sink
	sinkErr error

	// Tiered-archive state: resident counts points currently held in
	// memory (total keeps counting evicted ones), chunkStore pages
	// evicted spans, clock is the logical last-touch clock eviction
	// ranks vessels by.
	resident   int
	chunkStore ChunkStore
	clock      int64 // atomic
	pageErr    error
	pageIns    atomic.Uint64
	pagedPts   atomic.Uint64

	// fwdMu serialises sink forwarding in append order without holding
	// mu: readers proceed while a slow sink (or a wide pub/sub fan-out)
	// works, yet the sink still sees batches in the order they were
	// inserted and a blocking sink still backpressures the appender.
	fwdMu sync.Mutex
}

// series holds one vessel's points, kept sorted by time. AIS streams are
// near-ordered, so the common append cost is O(1) with a short
// insertion-sort tail for stragglers.
//
// Under tiered storage a series may be partially evicted: chunks
// describes the spilled prefix (immutable runs held by the chunk store)
// and points the resident tail. A fully evicted vessel is the "compact
// stub" of the tiered archive: its chunk directory, its newest sample
// (last) and its counts — everything the live picture, stats and query
// pruning need without paging anything in.
// Reads prune by exact summaries of the resident points, kept at append
// time: runs and bound.
type series struct {
	points    []model.VesselState
	runs      []geo.Rect // run r = points[r*nearestChunkLen:(r+1)*nearestChunkLen], full runs only
	bound     geo.Rect   // over every resident point
	chunks    []evChunk
	last      model.VesselState // newest sample, resident or not
	n         int               // total points, resident + evicted
	lastTouch int64             // atomic: store clock at last append/read
}

// evChunk is one spilled run: its key in the chunk store plus the
// summary (count, bounding rectangle, time span) reads prune by.
type evChunk struct {
	key      string
	n        int
	rect     geo.Rect
	from, to time.Time
}

func (s *series) insert(st model.VesselState) {
	s.points = append(s.points, st)
	i := len(s.points) - 1
	for ; i > 0 && s.points[i].At.Before(s.points[i-1].At); i-- {
		s.points[i], s.points[i-1] = s.points[i-1], s.points[i]
	}
	// A straggler moved to index i reshuffles every run from i's onwards:
	// drop those summaries and re-summarise each run that is full again.
	s.runs = s.runs[:min(len(s.runs), i/nearestChunkLen)]
	for r := len(s.runs); (r+1)*nearestChunkLen <= len(s.points); r++ {
		s.runs = append(s.runs, rectOf(s.points[r*nearestChunkLen:(r+1)*nearestChunkLen]))
	}
	s.bound = s.bound.Extend(st.Pos)
	if s.n == 0 || !st.At.Before(s.last.At) {
		s.last = st
	}
	s.n++
}

// rangeIdx returns the half-open index range of points in [from, to].
func (s *series) rangeIdx(from, to time.Time) (lo, hi int) {
	lo = sort.Search(len(s.points), func(i int) bool { return !s.points[i].At.Before(from) })
	hi = sort.Search(len(s.points), func(i int) bool { return s.points[i].At.After(to) })
	return lo, hi
}

// inBox copies the resident points inside r during [from, to], skipping
// the whole vessel by its bound and each full run by its rectangle.
func (s *series) inBox(r geo.Rect, from, to time.Time) []model.VesselState {
	if !r.Intersects(s.bound) {
		return nil
	}
	var out []model.VesselState
	lo, hi := s.rangeIdx(from, to)
	for lo < hi {
		run := lo / nearestChunkLen
		end := min((run+1)*nearestChunkLen, hi)
		if run >= len(s.runs) || r.Intersects(s.runs[run]) {
			out = appendInBox(out, s.points[lo:end], r)
		}
		lo = end
	}
	return out
}

func appendInBox(dst, pts []model.VesselState, r geo.Rect) []model.VesselState {
	for _, p := range pts {
		if r.Contains(p.Pos) {
			dst = append(dst, p)
		}
	}
	return dst
}

func rectOf(pts []model.VesselState) geo.Rect {
	rect := geo.EmptyRect()
	for _, p := range pts {
		rect = rect.Extend(p.Pos)
	}
	return rect
}

// chunksInWindow returns copies of the spilled-chunk descriptors whose
// time span overlaps [from, to] and, when r is non-nil, whose bounding
// rectangle intersects it — the set a windowed read has to page in.
func (s *series) chunksInWindow(from, to time.Time, r *geo.Rect) []evChunk {
	var need []evChunk
	for _, c := range s.chunks {
		if c.to.Before(from) || c.from.After(to) {
			continue
		}
		if r != nil && !r.Intersects(c.rect) {
			continue
		}
		need = append(need, c)
	}
	return need
}

// New returns an empty store.
func New() *Store {
	return &Store{vessels: make(map[uint32]*series)}
}

// Attach installs a persistence sink: every record appended from now on
// is forwarded to it after insertion (nil detaches). Attach before
// feeding the store — records appended earlier are not replayed into the
// sink. Forwarding errors are retained for SinkErr rather than failing
// the append; the in-memory insert always happens. The sink is called
// after the store lock is released (reads proceed while it works) but
// under a dedicated forwarding lock, so it sees appends in insertion
// order and a blocking sink (a full flush queue) still backpressures the
// appender — attach an asynchronous stage (store.Flusher), not a raw
// disk writer, when ingest latency matters. Note: concurrent appends of
// the *same* vessel from different goroutines have no defined forward
// order (the shipped ingest engine serialises per vessel by sharding).
func (st *Store) Attach(s Sink) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sink = s
}

// SinkErr returns the first error the attached sink reported.
func (st *Store) SinkErr() error {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.sinkErr
}

// Append inserts one state sample.
func (st *Store) Append(s model.VesselState) {
	st.mu.Lock()
	st.insertLocked(s)
	sink := st.sink
	st.mu.Unlock()
	if sink != nil {
		st.forward(sink, s)
	}
}

func (st *Store) insertLocked(s model.VesselState) {
	ser, ok := st.vessels[s.MMSI]
	if !ok {
		ser = &series{bound: geo.EmptyRect()}
		st.vessels[s.MMSI] = ser
	}
	ser.insert(s)
	st.total++
	st.resident++
	st.touchLocked(ser)
}

// touchLocked advances the vessel's last-touch clock. Callers hold mu in
// either mode (the fields are atomics so read paths can touch under the
// read lock).
func (st *Store) touchLocked(ser *series) {
	atomic.StoreInt64(&ser.lastTouch, atomic.AddInt64(&st.clock, 1))
}

// --- tiered storage: eviction + page-back ----------------------------------------

// SetChunkStore attaches the paging layer evictions spill to and reads
// page back from (nil detaches; eviction then fails, already-spilled
// chunks become unreadable). Attach before the first EvictVessel.
func (st *Store) SetChunkStore(cs ChunkStore) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.chunkStore = cs
}

// EvictVessel spills the vessel's resident points to the chunk store and
// drops them from memory, leaving the compact stub (chunk directory +
// newest sample + counts). Every read keeps working — windowed reads
// page back only the chunks overlapping their window, the live picture
// and stats answer from the stub alone. It returns the number of points
// evicted: 0 when the vessel is unknown or already fully evicted, and
// ErrVesselHot when the vessel was appended to or read mid-spill (the
// caller should simply skip it — it is not cold). Spilling does IO and
// runs outside the store locks, so reads and appends of other vessels
// proceed throughout.
func (st *Store) EvictVessel(mmsi uint32) (int, error) {
	st.mu.RLock()
	cs := st.chunkStore
	ser, ok := st.vessels[mmsi]
	if cs == nil {
		st.mu.RUnlock()
		return 0, fmt.Errorf("tstore: EvictVessel(%d): no chunk store attached", mmsi)
	}
	if !ok || len(ser.points) == 0 {
		st.mu.RUnlock()
		return 0, nil
	}
	snap := append([]model.VesselState(nil), ser.points...)
	touch := atomic.LoadInt64(&ser.lastTouch)
	st.mu.RUnlock()

	var spilled []evChunk
	for lo := 0; lo < len(snap); lo += tierChunkLen {
		hi := lo + tierChunkLen
		if hi > len(snap) {
			hi = len(snap)
		}
		run := snap[lo:hi]
		key, err := cs.Spill(mmsi, run)
		if err != nil {
			return 0, fmt.Errorf("tstore: spilling vessel %d: %w", mmsi, err)
		}
		spilled = append(spilled, evChunk{
			key: key, n: len(run), rect: rectOf(run),
			from: run[0].At, to: run[len(run)-1].At,
		})
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	cur := st.vessels[mmsi]
	if cur == nil || atomic.LoadInt64(&cur.lastTouch) != touch || len(cur.points) != len(snap) {
		return 0, ErrVesselHot
	}
	cur.chunks = append(cur.chunks, spilled...)
	cur.points, cur.runs, cur.bound = nil, nil, geo.EmptyRect()
	st.resident -= len(snap)
	return len(snap), nil
}

// fetchChunk pages one spilled run back in (a read, so it heats the
// vessel). Errors park in PageErr as well as being returned, so a
// degraded read surface still shows why it is partial.
func (st *Store) fetchChunk(mmsi uint32, c evChunk) ([]model.VesselState, error) {
	st.mu.RLock()
	cs := st.chunkStore
	if ser, ok := st.vessels[mmsi]; ok {
		st.touchLocked(ser)
	}
	st.mu.RUnlock()
	if cs == nil {
		err := fmt.Errorf("tstore: vessel %d has spilled chunks but no chunk store attached", mmsi)
		st.recordPageErr(err)
		return nil, err
	}
	pts, err := cs.Fetch(c.key, mmsi, c.n)
	if err != nil {
		st.recordPageErr(fmt.Errorf("tstore: paging vessel %d back in: %w", mmsi, err))
		return nil, err
	}
	st.pageIns.Add(1)
	st.pagedPts.Add(uint64(len(pts)))
	return pts, nil
}

// fetchChunks pages a descriptor list back in, degrading on error: a
// failed chunk contributes nothing (PageErr says why) while the rest of
// the read proceeds — the same degraded-not-fatal stance as a federation
// peer outage.
func (st *Store) fetchChunks(mmsi uint32, need []evChunk) [][]model.VesselState {
	parts := make([][]model.VesselState, 0, len(need))
	for _, c := range need {
		if pts, err := st.fetchChunk(mmsi, c); err == nil {
			parts = append(parts, pts)
		}
	}
	return parts
}

func (st *Store) recordPageErr(err error) {
	st.mu.Lock()
	if st.pageErr == nil {
		st.pageErr = err
	}
	st.mu.Unlock()
}

// PageErr returns the first chunk page-back failure (nil while paging is
// healthy). A non-nil value means some read returned resident data only.
func (st *Store) PageErr() error {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.pageErr
}

// mergeByTime merges time-sorted runs into one time-sorted slice,
// breaking ties in favour of earlier runs — spill order first, resident
// tail last, which reproduces exactly the order insertion built before
// eviction.
func mergeByTime(parts [][]model.VesselState) []model.VesselState {
	switch len(parts) {
	case 0:
		return nil
	case 1:
		out := make([]model.VesselState, len(parts[0]))
		copy(out, parts[0])
		return out
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]model.VesselState, 0, total)
	idx := make([]int, len(parts))
	for len(out) < total {
		best := -1
		for i, p := range parts {
			if idx[i] >= len(p) {
				continue
			}
			if best < 0 || p[idx[i]].At.Before(parts[best][idx[best]].At) {
				best = i
			}
		}
		out = append(out, parts[best][idx[best]])
		idx[best]++
	}
	return out
}

// trimWindow narrows a time-sorted run to [from, to].
func trimWindow(pts []model.VesselState, from, to time.Time) []model.VesselState {
	lo := sort.Search(len(pts), func(i int) bool { return !pts[i].At.Before(from) })
	hi := sort.Search(len(pts), func(i int) bool { return pts[i].At.After(to) })
	return pts[lo:hi]
}

// VesselHeat is one vessel's eviction-relevant state: how many points it
// holds in memory and when it was last appended to or read, on the
// store's logical clock.
type VesselHeat struct {
	MMSI      uint32
	Resident  int
	LastTouch int64
}

// Heat returns the vessels currently holding resident points, the
// candidate set an eviction manager ranks by LastTouch.
func (st *Store) Heat() []VesselHeat {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]VesselHeat, 0, len(st.vessels))
	for m, ser := range st.vessels {
		if len(ser.points) == 0 {
			continue
		}
		out = append(out, VesselHeat{
			MMSI: m, Resident: len(ser.points),
			LastTouch: atomic.LoadInt64(&ser.lastTouch),
		})
	}
	return out
}

// TierCounters snapshots the store's tiered-storage state.
type TierCounters struct {
	ResidentPoints  int
	EvictedPoints   int
	ResidentVessels int    // vessels with at least one resident point
	EvictedVessels  int    // vessels holding history but zero resident points
	SpilledChunks   int    // chunk-directory entries across all stubs
	PageIns         uint64 // chunk fetches served (cache hits included)
	PagedPoints     uint64 // points those fetches carried
}

// Tier snapshots the store's tiered-storage counters.
func (st *Store) Tier() TierCounters {
	st.mu.RLock()
	defer st.mu.RUnlock()
	tc := TierCounters{
		ResidentPoints: st.resident,
		EvictedPoints:  st.total - st.resident,
		PageIns:        st.pageIns.Load(),
		PagedPoints:    st.pagedPts.Load(),
	}
	for _, ser := range st.vessels {
		tc.SpilledChunks += len(ser.chunks)
		switch {
		case len(ser.points) > 0:
			tc.ResidentVessels++
		case ser.n > 0:
			tc.EvictedVessels++
		}
	}
	return tc
}

// forward hands records to the sink outside the store lock, serialised
// in append order by fwdMu; the first error parks in sinkErr.
func (st *Store) forward(sink Sink, recs ...model.VesselState) {
	st.fwdMu.Lock()
	err := sink.Append(recs...)
	st.fwdMu.Unlock()
	if err != nil {
		st.mu.Lock()
		if st.sinkErr == nil {
			st.sinkErr = err
		}
		st.mu.Unlock()
	}
}

// MoveTo hands every series over to the store route picks for its MMSI,
// in MMSI order, and leaves st empty. Each series moves whole — points,
// run summaries, bound, newest sample and counts — without a copy, and
// is touched on its destination's clock as appending its points there
// one by one would have touched it, so eviction ranks moved vessels as
// it ranks appended ones. Nothing is forwarded to any sink. After each
// series lands, moved is called with its MMSI and its points, which now
// belong to the destination: moved must not modify or retain them.
// Neither route nor moved is called under a store lock. It returns the
// number of points moved.
//
// Two preconditions, each a programming error that panics: st holds no
// spilled chunks (a store recovered from disk has no chunk store), and
// no destination already holds a vessel it is handed (so destinations
// must partition the MMSIs, and must not include st).
func (st *Store) MoveTo(route func(mmsi uint32) *Store, moved func(mmsi uint32, pts []model.VesselState)) int {
	st.mu.Lock()
	vessels, mmsis := st.vessels, make([]uint32, 0, len(st.vessels))
	for m, ser := range vessels {
		if len(ser.chunks) > 0 {
			st.mu.Unlock()
			panic(fmt.Sprintf("tstore: MoveTo: vessel %d has spilled chunks", m))
		}
		mmsis = append(mmsis, m)
	}
	st.vessels, st.total, st.resident = make(map[uint32]*series), 0, 0
	st.mu.Unlock()
	slices.Sort(mmsis)
	n := 0
	for _, m := range mmsis {
		ser, dst := vessels[m], route(m)
		if dst == st {
			panic(fmt.Sprintf("tstore: MoveTo: vessel %d routed to its own store", m))
		}
		dst.mu.Lock()
		if _, ok := dst.vessels[m]; ok {
			dst.mu.Unlock()
			panic(fmt.Sprintf("tstore: MoveTo: destination already holds vessel %d", m))
		}
		dst.vessels[m] = ser
		dst.total += ser.n
		dst.resident += len(ser.points)
		atomic.StoreInt64(&ser.lastTouch, atomic.AddInt64(&dst.clock, int64(len(ser.points))))
		dst.mu.Unlock()
		moved(m, ser.points)
		n += ser.n
	}
	return n
}

// Len returns the total number of stored points.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.total
}

// VesselCount returns the number of distinct vessels.
func (st *Store) VesselCount() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.vessels)
}

// VesselLen returns the vessel's point count, resident and evicted (0 if
// unknown), without paging or heating it. Query replay memos key on it, as
// the store is append-only (Append and Load add, eviction moves): a
// retention or delete path must change the count or clear those memos.
func (st *Store) VesselLen(mmsi uint32) int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if ser, ok := st.vessels[mmsi]; ok {
		return ser.n
	}
	return 0
}

// MMSIs returns the sorted vessel identifiers present.
func (st *Store) MMSIs() []uint32 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]uint32, 0, len(st.vessels))
	for m := range st.vessels {
		out = append(out, m)
	}
	slices.Sort(out)
	return out
}

// Trajectory returns a copy of the vessel's full trajectory (nil points if
// unknown vessel), paging any evicted spans back in.
func (st *Store) Trajectory(mmsi uint32) *model.Trajectory {
	st.mu.RLock()
	tr := &model.Trajectory{MMSI: mmsi}
	ser, ok := st.vessels[mmsi]
	if !ok {
		st.mu.RUnlock()
		return tr
	}
	st.touchLocked(ser)
	resident := make([]model.VesselState, len(ser.points))
	copy(resident, ser.points)
	need := append([]evChunk(nil), ser.chunks...)
	st.mu.RUnlock()
	if len(need) == 0 {
		tr.Points = resident
		return tr
	}
	parts := st.fetchChunks(mmsi, need)
	parts = append(parts, resident)
	tr.Points = mergeByTime(parts)
	return tr
}

// Latest returns the vessel's newest sample without copying the
// trajectory (false for an unknown vessel). The stub keeps the newest
// sample resident, so this never pages.
//
//lint:ignore deadexport TestEvictionIsInvisible checks an evicted stub against it
func (st *Store) Latest(mmsi uint32) (model.VesselState, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	ser, ok := st.vessels[mmsi]
	if !ok || ser.n == 0 {
		return model.VesselState{}, false
	}
	st.touchLocked(ser)
	return ser.last, true
}

// LatestStates returns every vessel's newest sample, ordered by MMSI —
// the archive's "current picture", at O(vessels) instead of the
// O(points) a per-vessel Trajectory walk would copy. Stubs answer from
// their retained newest sample: a fully evicted archive still serves its
// live picture without one page-in.
func (st *Store) LatestStates() []model.VesselState {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]model.VesselState, 0, len(st.vessels))
	for _, ser := range st.vessels {
		if ser.n > 0 {
			out = append(out, ser.last)
		}
	}
	slices.SortFunc(out, func(a, b model.VesselState) int { return cmp.Compare(a.MMSI, b.MMSI) })
	return out
}

// TimeRange returns the vessel's samples in [from, to], paging in only
// the evicted chunks whose span overlaps the window.
func (st *Store) TimeRange(mmsi uint32, from, to time.Time) []model.VesselState {
	st.mu.RLock()
	ser, ok := st.vessels[mmsi]
	if !ok {
		st.mu.RUnlock()
		return nil
	}
	st.touchLocked(ser)
	lo, hi := ser.rangeIdx(from, to)
	resident := make([]model.VesselState, hi-lo)
	copy(resident, ser.points[lo:hi])
	need := ser.chunksInWindow(from, to, nil)
	st.mu.RUnlock()
	if len(need) == 0 {
		return resident
	}
	parts := st.fetchChunks(mmsi, need)
	for i, p := range parts {
		parts[i] = trimWindow(p, from, to)
	}
	parts = append(parts, resident)
	return mergeByTime(parts)
}

// SpaceTime returns all samples inside the box during [from, to], ordered
// by (MMSI, time). Under the read lock it skips every vessel whose bound
// misses the box and every full run whose rectangle does, and copies only
// the points both in the window and in the box. Evicted chunks are paged
// in only when their time span overlaps the window AND their bounding
// rectangle intersects the box — the chunk directory prunes the rest
// unread. Only the vessels the read returns points for or pages chunks of
// are heated: a box read does not re-stamp the fleet it passes over.
func (st *Store) SpaceTime(r geo.Rect, from, to time.Time) []model.VesselState {
	type vesselRead struct {
		mmsi     uint32
		resident []model.VesselState // in the window and in the box
		need     []evChunk
	}
	st.mu.RLock()
	var reads []vesselRead
	for m, ser := range st.vessels {
		resident := ser.inBox(r, from, to)
		need := ser.chunksInWindow(from, to, &r)
		if len(resident) == 0 && len(need) == 0 {
			continue
		}
		st.touchLocked(ser)
		reads = append(reads, vesselRead{mmsi: m, resident: resident, need: need})
	}
	st.mu.RUnlock()
	slices.SortFunc(reads, func(a, b vesselRead) int { return cmp.Compare(a.mmsi, b.mmsi) })
	var out []model.VesselState
	for _, vr := range reads {
		if len(vr.need) == 0 {
			out = append(out, vr.resident...)
			continue
		}
		parts := st.fetchChunks(vr.mmsi, vr.need)
		for i, p := range parts {
			parts[i] = appendInBox(nil, trimWindow(p, from, to), r)
		}
		out = append(out, mergeByTime(append(parts, vr.resident))...)
	}
	return out
}

// Snapshot is an immutable spatial view over the archive at build time: a
// copy of the resident points plus a time-chunked directory (bounding
// rectangle and time span per run of up to nearestChunkLen consecutive
// samples), grouped per vessel under one union rectangle and span.
// NearestVessels walks the directory, pruning whole vessels and chunks
// instead of filtering points one by one.
//
// Evicted spans join the same directory as unresolved entries carrying
// their chunk-store key: their rectangle and span still prune and bound
// the best-first search, and their points are paged in only when the
// search actually pops them — a nearest query over a mostly evicted
// archive reads back just the chunks it would have scanned anyway.
// Resolution is cached per chunk inside the snapshot (sync.Once), so a
// shared snapshot pages each chunk at most once however many queries run
// over it.
type Snapshot struct {
	states []model.VesselState // resident points, (MMSI, time)-ordered
	chunks []snapChunk         // per-vessel runs, grouped by vessel
	groups []snapGroup         // one per vessel, MMSI-ordered
	total  int                 // resident + evicted points
	fetch  func(mmsi uint32, key string, n int) []model.VesselState
}

// snapGroup is one vessel's share of the directory, chunks[lo:hi], under
// the union of their rectangles and spans.
type snapGroup struct {
	rect     geo.Rect
	from, to time.Time
	lo, hi   int
}

// snapChunk summarises up to nearestChunkLen consecutive samples of one
// vessel: their bounding rectangle, time span and either an index range
// in states (resident) or a lazily resolved spilled chunk (evicted).
type snapChunk struct {
	mmsi     uint32
	rect     geo.Rect
	from, to time.Time
	lo, hi   int        // states[lo:hi] when lazy is nil
	lazy     *lazyChunk // non-nil: evicted span, resolved on first use
}

// lazyChunk resolves one evicted span at most once per snapshot.
type lazyChunk struct {
	key  string
	n    int
	once sync.Once
	pts  []model.VesselState
}

// resolve returns the chunk's points, paging an evicted span in on first
// use (nil on page failure — the store records why in PageErr).
func (sn *Snapshot) resolve(c *snapChunk) []model.VesselState {
	if c.lazy == nil {
		return sn.states[c.lo:c.hi]
	}
	c.lazy.once.Do(func() { c.lazy.pts = sn.fetch(c.mmsi, c.lazy.key, c.lazy.n) })
	return c.lazy.pts
}

// nearestChunkLen balances directory size against scan width: chunks are
// small enough that rect lower bounds stay tight and a window scan stays
// cheap, large enough that the directory is ~2% of the point count.
const nearestChunkLen = 64

// PointBytes is the in-memory footprint of one resident point (the
// series slice element), the unit eviction memory budgets are accounted
// in. Map, slice-header and stub overheads ride on top, so a budget is a
// floor on what eviction can reclaim, not an exact RSS bound.
var PointBytes = int(unsafe.Sizeof(model.VesselState{}))

// SpatialSnapshot builds a snapshot over all points currently stored.
// The read lock covers only copying the resident points, the run
// summaries and the chunk directory; tail-run rectangles and per-vessel
// unions are computed from the copy after it. Evicted spans are not paged
// in at build time — they enter the directory as lazy entries resolved
// only if a query reaches them.
func (st *Store) SpatialSnapshot() *Snapshot {
	st.mu.RLock()
	mmsis := make([]uint32, 0, len(st.vessels))
	for m := range st.vessels {
		mmsis = append(mmsis, m)
	}
	slices.Sort(mmsis)
	sn := &Snapshot{total: st.total, states: make([]model.VesselState, 0, st.resident)}
	for _, m := range mmsis {
		ser, first := st.vessels[m], len(sn.chunks)
		for _, c := range ser.chunks {
			sn.chunks = append(sn.chunks, snapChunk{
				mmsi: m, rect: c.rect, from: c.from, to: c.to,
				lazy: &lazyChunk{key: c.key, n: c.n},
			})
		}
		base := len(sn.states)
		sn.states = append(sn.states, ser.points...)
		for lo := 0; lo < len(ser.points); lo += nearestChunkLen {
			hi := min(lo+nearestChunkLen, len(ser.points))
			c := snapChunk{mmsi: m, from: ser.points[lo].At, to: ser.points[hi-1].At, lo: base + lo, hi: base + hi}
			if r := lo / nearestChunkLen; r < len(ser.runs) {
				c.rect = ser.runs[r]
			}
			sn.chunks = append(sn.chunks, c)
		}
		sn.groups = append(sn.groups, snapGroup{lo: first, hi: len(sn.chunks)})
	}
	st.mu.RUnlock()
	for i := range sn.groups {
		g := &sn.groups[i]
		g.rect, g.from, g.to = geo.EmptyRect(), sn.chunks[g.lo].from, sn.chunks[g.lo].to
		for j := g.lo; j < g.hi; j++ {
			c := &sn.chunks[j]
			if c.lazy == nil && c.hi-c.lo < nearestChunkLen { // the open tail run
				c.rect = rectOf(sn.states[c.lo:c.hi])
			}
			g.rect = g.rect.Union(c.rect)
			if c.from.Before(g.from) {
				g.from = c.from
			}
			if c.to.After(g.to) {
				g.to = c.to
			}
		}
	}
	sn.fetch = func(mmsi uint32, key string, n int) []model.VesselState {
		pts, _ := st.fetchChunk(mmsi, evChunk{key: key, n: n})
		return pts
	}
	return sn
}

// Len returns the number of points the snapshot covers, resident and
// evicted alike.
func (sn *Snapshot) Len() int { return sn.total }

// NearestVessels returns up to k distinct vessels with a sample within tol
// of the instant `at`, ordered by the distance of that sample to p.
//
// The search is best-first over the directory in two levels: vessels
// whose span reaches the window enter the queue at the latitude-only part
// of their union rectangle's bound, refined to Rect.DistanceTo at the
// front; a refined vessel at the front queues its admissible chunks at
// their rectangles' bounds, and a chunk at the front resolves to its
// nearest admissible sample at its true distance. Ties break by MMSI,
// then by the earlier sample, so answers do not depend on chunking.
func (sn *Snapshot) NearestVessels(p geo.Point, at time.Time, tol time.Duration, k int) []model.VesselState {
	if k <= 0 || len(sn.chunks) == 0 {
		return nil
	}
	// time.Time.Sub saturates, so the max-duration tolerance used for
	// time-agnostic searches admits every dt without overflow.
	admit := func(t time.Time) bool {
		dt := t.Sub(at)
		if dt < 0 {
			dt = -dt
		}
		return dt <= tol
	}
	// reaches: the instant of [from, to] nearest `at` is admissible.
	reaches := func(from, to time.Time) bool {
		return !(at.Before(from) && from.Sub(at) > tol || at.After(to) && at.Sub(to) > tol)
	}
	q := make(nvQueue, 0, len(sn.groups)+4*k)
	for i, g := range sn.groups {
		if reaches(g.from, g.to) {
			latGap := max(g.rect.MinLat-p.Lat, p.Lat-g.rect.MaxLat, 0)
			q = append(q, nvEntry{dist: geo.Radians(latGap) * geo.EarthRadius, mmsi: sn.chunks[g.lo].mmsi, idx: i})
		}
	}
	for i := len(q)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
	seen := make(map[uint32]bool, k)
	out := make([]model.VesselState, 0, k)
	for len(q) > 0 && len(out) < k {
		e := q.pop()
		if seen[e.mmsi] {
			continue
		}
		switch e.kind {
		case nvVessel:
			e.kind, e.dist = nvVesselRect, sn.groups[e.idx].rect.DistanceTo(p)
			q.push(e)
		case nvVesselRect:
			for i := sn.groups[e.idx].lo; i < sn.groups[e.idx].hi; i++ {
				if c := &sn.chunks[i]; reaches(c.from, c.to) {
					q.push(nvEntry{dist: c.rect.DistanceTo(p), mmsi: e.mmsi, kind: nvChunk, idx: i})
				}
			}
		case nvChunk:
			// Resolving an evicted chunk pages it in here — and only
			// here: chunks whose rectangle lower bound never reaches the
			// front of the queue are never read back.
			pts := sn.resolve(&sn.chunks[e.idx])
			best, bd := -1, math.Inf(1)
			for j := range pts {
				if !admit(pts[j].At) {
					continue
				}
				if d := geo.Distance(p, pts[j].Pos); d < bd {
					best, bd = j, d
				}
			}
			if best >= 0 {
				q.push(nvEntry{dist: bd, mmsi: e.mmsi, kind: nvSample, idx: e.idx, s: &pts[best]})
			}
		case nvSample: // the vessel's nearest admissible sample
			seen[e.mmsi] = true
			out = append(out, *e.s)
		}
	}
	return out
}

// nvEntry is a best-first queue entry of NearestVessels: a vessel
// (groups[idx]) at its latitude or rectangle bound, a chunk (chunks[idx])
// at its rectangle bound, or a resolved sample s at its true distance.
type nvEntry struct {
	dist float64
	mmsi uint32
	kind uint8
	idx  int
	s    *model.VesselState
}

const (
	nvVessel uint8 = iota
	nvVesselRect
	nvChunk
	nvSample
)

// nvQueue is a min-heap by less, without container/heap's interface boxing.
type nvQueue []nvEntry

func (q nvQueue) less(i, j int) bool {
	a, b := &q[i], &q[j]
	switch {
	case a.dist < b.dist || b.dist < a.dist:
		return a.dist < b.dist
	case a.mmsi != b.mmsi:
		return a.mmsi < b.mmsi
	case a.kind != b.kind:
		return a.kind < b.kind
	case a.s != nil && !a.s.At.Equal(b.s.At):
		return a.s.At.Before(b.s.At)
	}
	return a.idx < b.idx
}

func (q nvQueue) down(i int) {
	for c := 2*i + 1; c < len(q); i, c = c, 2*c+1 {
		if c+1 < len(q) && q.less(c+1, c) {
			c++
		}
		if !q.less(c, i) {
			return
		}
		q[i], q[c] = q[c], q[i]
	}
}

func (q *nvQueue) push(e nvEntry) {
	h := append(*q, e)
	for i := len(h) - 1; i > 0 && h.less(i, (i-1)/2); i = (i - 1) / 2 {
		h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
	}
	*q = h
}

func (q *nvQueue) pop() nvEntry {
	h := *q
	e := h[0]
	h[0] = h[len(h)-1]
	*q = h[:len(h)-1]
	q.down(0)
	return e
}

// --- live layer ---------------------------------------------------------------

// Live maintains the current picture: the latest state per vessel under a
// uniform grid for box reads over "now".
type Live struct {
	mu     sync.RWMutex
	latest map[uint32]model.VesselState
	order  []uint32 // the keys of latest, ascending
	grid   liveGrid
}

// NewLive returns an empty live layer with the given grid cell size.
func NewLive(cellDeg float64) *Live {
	return &Live{
		latest: make(map[uint32]model.VesselState),
		grid:   liveGrid{grid: geo.NewGrid(cellDeg), cells: make(map[geo.CellID][]gridEntry)},
	}
}

// Update replaces the vessel's current state.
func (l *Live) Update(s model.VesselState) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, ok := l.latest[s.MMSI]; ok {
		l.grid.remove(prev.Pos, s.MMSI)
	} else {
		i, _ := slices.BinarySearch(l.order, s.MMSI)
		l.order = slices.Insert(l.order, i, s.MMSI)
	}
	l.latest[s.MMSI] = s
	l.grid.insert(s.Pos, s.MMSI)
}

// Count returns the number of tracked vessels.
func (l *Live) Count() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.latest)
}

// MMSIs returns the sorted identifiers of the tracked vessels — the
// distinct-count read stats aggregation uses (O(vessels) integers, no
// state copies). The slice is the caller's.
func (l *Live) MMSIs() []uint32 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return append(make([]uint32, 0, len(l.order)), l.order...)
}

// InRect returns the current states inside the box, ordered by MMSI. A box
// spanning more grid cells than there are vessels walks the fleet in
// MMSI order instead of the cells.
func (l *Live) InRect(r geo.Rect) []model.VesselState {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []model.VesselState
	if l.grid.grid.NumCellsInRect(r) > len(l.order) {
		for _, m := range l.order {
			if s := l.latest[m]; r.Contains(s.Pos) {
				out = append(out, s)
			}
		}
		return out
	}
	ids := l.grid.search(r)
	slices.Sort(ids)
	for _, m := range ids {
		out = append(out, l.latest[m])
	}
	return out
}

// liveGrid hashes the live picture's vessels into equal-angle cells by
// current position: O(1) moves, and a box read visits only the cells the
// box covers.
type liveGrid struct {
	grid  geo.Grid
	cells map[geo.CellID][]gridEntry
}

// gridEntry is a vessel's position in its cell.
type gridEntry struct {
	pos  geo.Point
	mmsi uint32
}

// insert files the vessel under the cell of pos.
func (g *liveGrid) insert(pos geo.Point, mmsi uint32) {
	c := g.grid.Cell(pos)
	g.cells[c] = append(g.cells[c], gridEntry{pos: pos, mmsi: mmsi})
}

// remove deletes the vessel from the cell of pos, its last inserted
// position.
func (g *liveGrid) remove(pos geo.Point, mmsi uint32) {
	c := g.grid.Cell(pos)
	es := g.cells[c]
	for i, e := range es {
		if e.mmsi == mmsi {
			es[i] = es[len(es)-1]
			g.cells[c] = es[:len(es)-1]
			if len(es) == 1 {
				delete(g.cells, c)
			}
			return
		}
	}
}

// search returns the MMSIs of the vessels inside r.
func (g *liveGrid) search(r geo.Rect) []uint32 {
	var out []uint32
	for _, c := range g.grid.CellsInRect(r, nil) {
		for _, e := range g.cells[c] {
			if r.Contains(e.pos) {
				out = append(out, e.mmsi)
			}
		}
	}
	return out
}

// --- persistence ----------------------------------------------------------------

const (
	snapshotMagic   = 0x4D415254 // "MART"
	snapshotVersion = 1
)

// WriteTo serialises the archive in a compact binary layout, paging any
// evicted spans back in (a snapshot must be complete, so unlike the
// query paths a page-back failure here is an error, not a degradation).
// It returns the number of bytes written.
func (st *Store) WriteTo(w io.Writer) (int64, error) {
	st.mu.RLock()
	// Capture per-vessel state so spilled chunks can be fetched without
	// holding the lock; a fully resident store captures only slice
	// references it then copies out (the common case: compaction folds and
	// snapshot writes run over never-evicted stores).
	type vcap struct {
		mmsi     uint32
		resident []model.VesselState
		chunks   []evChunk
	}
	caps := make([]vcap, 0, len(st.vessels))
	for m, ser := range st.vessels {
		vc := vcap{mmsi: m, chunks: append([]evChunk(nil), ser.chunks...)}
		vc.resident = make([]model.VesselState, len(ser.points))
		copy(vc.resident, ser.points)
		caps = append(caps, vc)
	}
	st.mu.RUnlock()
	slices.SortFunc(caps, func(a, b vcap) int { return cmp.Compare(a.mmsi, b.mmsi) })

	bw := bufio.NewWriter(w)
	var n int64
	write := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := write(uint32(snapshotMagic)); err != nil {
		return n, err
	}
	if err := write(uint16(snapshotVersion)); err != nil {
		return n, err
	}
	if err := write(uint32(len(caps))); err != nil {
		return n, err
	}
	for _, vc := range caps {
		pts := vc.resident
		if len(vc.chunks) > 0 {
			parts := make([][]model.VesselState, 0, len(vc.chunks)+1)
			for _, c := range vc.chunks {
				cp, err := st.fetchChunk(vc.mmsi, c)
				if err != nil {
					return n, err
				}
				parts = append(parts, cp)
			}
			parts = append(parts, vc.resident)
			pts = mergeByTime(parts)
		}
		if err := write(vc.mmsi); err != nil {
			return n, err
		}
		if err := write(uint32(len(pts))); err != nil {
			return n, err
		}
		for _, p := range pts {
			rec := diskRecord{
				UnixNano:  p.At.UnixNano(),
				Lat:       p.Pos.Lat,
				Lon:       p.Pos.Lon,
				SpeedCKn:  uint16(math.Round(clampF(p.SpeedKn, 0, 655.35) * 100)),
				CourseCDg: uint16(math.Round(clampF(p.CourseDeg, 0, 655.35) * 100)),
				Status:    uint8(p.Status),
			}
			if err := write(rec); err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// diskRecord is the on-disk point layout: 27 bytes per point.
type diskRecord struct {
	UnixNano  int64
	Lat, Lon  float64
	SpeedCKn  uint16 // centi-knots
	CourseCDg uint16 // centi-degrees
	Status    uint8
}

// Load deserialises an archive produced by WriteTo into the store. Its
// semantics are APPEND-MERGE, not replace: every loaded point is inserted
// into per-vessel time order alongside whatever the store already holds,
// existing points are never removed or overwritten, and loading the same
// archive twice therefore duplicates every point (Len doubles). Load into
// a fresh New() store for replace semantics; TestLoadMergesIntoNonEmpty
// pins this contract. Loaded points are forwarded to an attached Sink
// like any other append — load before Attach to avoid re-persisting an
// archive you just read. It returns the number of points read. (Named
// Load rather than ReadFrom to avoid colliding with io.ReaderFrom's
// contract, which counts bytes, not points.)
func (st *Store) Load(r io.Reader) (int, error) {
	br := bufio.NewReader(r)
	var magic uint32
	var version uint16
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return 0, fmt.Errorf("tstore: reading magic: %w", err)
	}
	if magic != snapshotMagic {
		return 0, fmt.Errorf("tstore: bad magic %08x", magic)
	}
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return 0, err
	}
	if version != snapshotVersion {
		return 0, fmt.Errorf("tstore: unsupported version %d", version)
	}
	var nVessels uint32
	if err := binary.Read(br, binary.LittleEndian, &nVessels); err != nil {
		return 0, err
	}
	total := 0
	for v := uint32(0); v < nVessels; v++ {
		var mmsi, nPoints uint32
		if err := binary.Read(br, binary.LittleEndian, &mmsi); err != nil {
			return total, err
		}
		if err := binary.Read(br, binary.LittleEndian, &nPoints); err != nil {
			return total, err
		}
		for i := uint32(0); i < nPoints; i++ {
			var rec diskRecord
			if err := binary.Read(br, binary.LittleEndian, &rec); err != nil {
				return total, fmt.Errorf("tstore: point %d of vessel %d: %w", i, mmsi, err)
			}
			st.Append(model.VesselState{
				MMSI:      mmsi,
				At:        time.Unix(0, rec.UnixNano).UTC(),
				Pos:       geo.Point{Lat: rec.Lat, Lon: rec.Lon},
				SpeedKn:   float64(rec.SpeedCKn) / 100,
				CourseDeg: float64(rec.CourseCDg) / 100,
				Status:    ais.NavStatus(rec.Status),
			})
			total++
		}
	}
	return total, nil
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
