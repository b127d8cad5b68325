// Package store is the persistence subsystem of the infrastructure: it
// makes the trajectory archive and the live maritime picture survive
// process restarts, the top ROADMAP open item toward exceeding-RAM
// archives and multi-backend scaling.
//
// The design is a classic write-ahead log with snapshots:
//
//   - Appended records land in an append-only segmented WAL
//     (length-prefixed, CRC32C-checksummed frames; fixed-cap segments
//     with rotation — see wal.go for the layout).
//   - Compaction folds sealed segments into a compact snapshot in the
//     existing tstore WriteTo/Load encoding, bounding recovery time and
//     disk usage; the snapshot file name records the newest segment it
//     covers, so a crash between snapshot rename and segment deletion
//     cannot double-count.
//   - Open recovers by loading the newest snapshot and replaying the WAL
//     tail, truncating torn writes at the last valid record — the state
//     after a kill -9 mid-ingest is exactly the persisted prefix.
//
// Backends implement the minimal Backend interface so the rest of the
// stack (tstore attachment points, the ingest flush stage, the CLIs) is
// storage-agnostic: Mem keeps records in memory (tests, ephemeral runs),
// Disk is the durable WAL+snapshot implementation. The asynchronous
// Flusher (flusher.go) decouples ingest latency from disk latency.
package store

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/tstore"
)

// Backend is the pluggable persistence target for appended vessel states.
// Implementations must be safe for concurrent use.
type Backend interface {
	// Append persists a batch of records per the backend's sync policy.
	Append(recs []model.VesselState) error
	// Sync forces buffered appends down to durable storage.
	Sync() error
	// Close flushes, syncs and releases the backend.
	Close() error
}

// --- in-memory backend --------------------------------------------------------------

// Mem is the in-memory Backend: records accumulate in an ordinary slice.
// It exists for tests, benchmarks (the zero-durability baseline) and
// ephemeral runs that still want the flush-stage wiring.
type Mem struct {
	mu     sync.Mutex
	recs   []model.VesselState
	closed bool
}

// NewMem returns an empty in-memory backend.
//
//lint:ignore deadexport TestFlushStageMirrorsArchive backs an engine with it
func NewMem() *Mem { return &Mem{} }

// Append stores the batch.
func (m *Mem) Append(recs []model.VesselState) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("store: append to closed Mem backend")
	}
	m.recs = append(m.recs, recs...)
	return nil
}

// Sync is a no-op: memory is as durable as Mem gets.
func (m *Mem) Sync() error { return nil }

// Close marks the backend closed; further appends fail.
func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

// Len returns the number of records appended so far.
func (m *Mem) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.recs)
}

// States returns a copy of the appended records in append order.
//
//lint:ignore deadexport TestFlushStageMirrorsArchive reads the flushed records back
func (m *Mem) States() []model.VesselState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]model.VesselState(nil), m.recs...)
}

// --- disk backend --------------------------------------------------------------------

// SyncPolicy selects when the disk backend calls fsync.
type SyncPolicy int

const (
	// SyncRotate (the default) fsyncs when a segment seals and on
	// Sync/Close — at most one segment of recent records is exposed to an
	// OS crash; a process crash alone loses only unflushed buffers.
	SyncRotate SyncPolicy = iota
	// SyncAlways fsyncs after every Append batch: maximum durability,
	// disk-latency-bound ingest.
	SyncAlways
	// SyncNever leaves flushing entirely to the OS page cache.
	SyncNever
)

// Config parameterises a disk archive. The zero value of every field but
// Dir is usable.
type Config struct {
	// Dir is the archive directory (created if absent). Required.
	Dir string
	// SegmentBytes caps a WAL segment before rotation (default 4 MiB).
	SegmentBytes int64
	// Sync is the fsync policy (default SyncRotate).
	Sync SyncPolicy
	// CompactEvery folds sealed segments into the snapshot once this many
	// have accumulated (default 8; negative disables auto-compaction).
	CompactEvery int
	// Remote, when set, tiers the archive onto an object store: a sealed
	// WAL segment is uploaded on rotation (and a compacted snapshot on
	// compaction) and its local file removed, so local disk holds only
	// the active segment. Upload is confirmed-before-delete: a crash
	// between seal and upload leaves the local file, and the next Open
	// re-uploads it; a half-written remote object cannot be observed at
	// all when the store honours the ObjectStore atomic-Put contract.
	// Recovery and compaction read migrated objects back through a block
	// cache (remoteCacheBytes). A failed upload degrades to local (the
	// segment stays on local disk, retried at the next Open) and surfaces
	// in UploadErr.
	Remote ObjectStore
}

// remoteCacheBytes bounds the read-through cache over Remote reads.
const remoteCacheBytes = 32 << 20

func (c *Config) normalize() {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 4 << 20
	}
	if c.CompactEvery == 0 {
		c.CompactEvery = 8
	}
}

// Disk is the durable Backend: a segmented WAL plus snapshot compaction
// in an archive directory. Build one with Open, which also recovers the
// persisted state.
type Disk struct {
	cfg    Config
	rcache *BlockCache // read-through cache over cfg.Remote (nil without Remote)

	mu        sync.Mutex
	seg       *os.File
	bw        *bufio.Writer
	seq       uint64 // active segment sequence number
	segBytes  int64  // bytes written to the active segment
	sealed    []uint64
	snapSeq   uint64   // newest segment folded into the snapshot (0 = none)
	frame     []byte   // reusable frame-encoding scratch
	lock      *os.File // flock-held LOCK file; released on Close
	closed    bool
	uploadErr error // first failed segment/snapshot migration (degraded to local)

	// Upload-on-seal runs on a background goroutine so a slow remote Put
	// never stalls the append path (it used to run under mu). The queue
	// and in-flight marker live under mu; upCond (on mu) is signalled on
	// enqueue, on upload completion and on close. upQAt parallels upQ
	// with enqueue instants so the queue's age is observable (a stalled
	// remote shows up as an old head, not just a deep queue).
	upQ        []uint64             // sealed segments awaiting upload, FIFO
	upQAt      []time.Time          // enqueue instant of each upQ entry
	upInflight map[uint64]time.Time // segment being uploaded -> its enqueue instant
	upClosed   bool                 // tells the uploader to drain and exit
	upStalled  bool                 // an upload-stall flight event is outstanding
	upCond     *sync.Cond
	upWG       sync.WaitGroup
	compacting bool // re-entrancy guard: compactLocked waits on upCond, releasing mu

	// Observability instruments (Instrument). Atomic pointers because
	// the uploader goroutine is already running when Instrument is
	// called on a live backend.
	appendNS     atomic.Pointer[obs.Histogram]
	uploadNS     atomic.Pointer[obs.Histogram]
	sealedCtr    atomic.Pointer[obs.Counter]
	uploadCtr    atomic.Pointer[obs.Counter]
	uploadErrCtr atomic.Pointer[obs.Counter]

	// flight, when attached (SetFlight), records the WAL's load-bearing
	// transitions: segment seals, upload outcomes, and upload-queue
	// stall/drain episodes.
	flight atomic.Pointer[obs.Flight]
}

// SetFlight attaches a flight recorder. Safe on a live backend — the
// append path and the uploader pick it up atomically.
func (d *Disk) SetFlight(f *obs.Flight) { d.flight.Store(f) }

// uploadStallAge is how old the upload queue's head may grow before the
// backend records a stall episode: long enough that a merely slow
// remote doesn't cry wolf, short enough that a blocked one is on record
// while the incident is still live.
const uploadStallAge = 5 * time.Second

// UploadQueue reports the migration backlog: how many sealed objects
// await (or are in) upload, and the age of the oldest — the two numbers
// a readiness check needs (a healthy queue drains young; a blocked
// remote shows as a head that only gets older).
func (d *Disk) UploadQueue() (depth int, oldest time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	depth = len(d.upQ) + len(d.upInflight)
	now := time.Now()
	if len(d.upQAt) > 0 {
		oldest = now.Sub(d.upQAt[0])
	}
	for _, at := range d.upInflight {
		if age := now.Sub(at); age > oldest {
			oldest = age
		}
	}
	return depth, oldest
}

// Instrument registers the backend's series with reg: WAL append
// latency (store_wal_append_ns, the whole framed write including any
// rotation it triggers), seal count, background upload latency and
// outcomes, and queue-depth gauges. Safe on a live backend — the
// running goroutines pick the instruments up atomically.
func (d *Disk) Instrument(reg *obs.Registry) {
	d.appendNS.Store(reg.Histogram("store_wal_append_ns"))
	d.uploadNS.Store(reg.Histogram("store_upload_ns"))
	d.sealedCtr.Store(reg.Counter("store_wal_sealed_total"))
	d.uploadCtr.Store(reg.Counter("store_uploads_total"))
	d.uploadErrCtr.Store(reg.Counter("store_upload_failures_total"))
	reg.GaugeFunc("store_upload_queue_depth", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return float64(len(d.upQ) + len(d.upInflight))
	})
	reg.GaugeFunc("store_wal_sealed_segments", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return float64(len(d.sealed))
	})
}

func segName(seq uint64) string  { return fmt.Sprintf("wal-%08d.log", seq) }
func snapName(seq uint64) string { return fmt.Sprintf("snap-%08d.bin", seq) }

// Local file names and remote object keys are identical, so an archive
// directory and its object store read as one namespace.
func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, segName(seq))
}

func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, snapName(seq))
}

// Append frames the batch into the active segment, rotating when the
// segment cap is reached. Durability follows the Sync policy.
func (d *Disk) Append(recs []model.VesselState) error {
	if h := d.appendNS.Load(); h != nil {
		defer h.ObserveSince(time.Now()) // includes lock wait + any rotation
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("store: append to closed archive %s", d.cfg.Dir)
	}
	for i := range recs {
		if d.segBytes >= d.cfg.SegmentBytes {
			if err := d.rotateLocked(); err != nil {
				return err
			}
		}
		d.frame = appendFrame(d.frame[:0], recs[i])
		if _, err := d.bw.Write(d.frame); err != nil {
			return err
		}
		d.segBytes += int64(len(d.frame))
	}
	if d.cfg.Sync == SyncAlways {
		return d.syncLocked()
	}
	return nil
}

// Sync flushes buffered frames and fsyncs the active segment.
func (d *Disk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	return d.syncLocked()
}

func (d *Disk) syncLocked() error {
	if err := d.bw.Flush(); err != nil {
		return err
	}
	return d.seg.Sync()
}

func (d *Disk) flushLocked() error {
	if err := d.bw.Flush(); err != nil {
		return err
	}
	if d.cfg.Sync != SyncNever {
		return d.seg.Sync()
	}
	return nil
}

// rotateLocked seals the active segment and opens the next one,
// migrating the sealed segment to the remote store (upload-on-seal) and
// compacting if enough sealed segments have accumulated.
func (d *Disk) rotateLocked() error {
	if err := d.flushLocked(); err != nil {
		return err
	}
	if err := d.seg.Close(); err != nil {
		return err
	}
	d.sealed = append(d.sealed, d.seq)
	if c := d.sealedCtr.Load(); c != nil {
		c.Inc()
	}
	// Record is atomic-add + short slot mutex, no IO — fine under mu.
	d.flight.Load().Record(obs.FlightInfo, "store", "segment sealed",
		obs.FI("seq", int64(d.seq)), obs.FI("bytes", d.segBytes))
	d.enqueueUploadLocked(d.seq)
	if err := d.openSegmentLocked(d.seq + 1); err != nil {
		return err
	}
	if d.cfg.CompactEvery > 0 && len(d.sealed) >= d.cfg.CompactEvery {
		//lint:ignore lockio compaction is documented stop-the-world (see Compact); streaming compaction is a ROADMAP item
		return d.compactLocked()
	}
	return nil
}

// enqueueUploadLocked hands a sealed segment to the background uploader.
// Called with d.mu held; the actual IO happens on the uploader goroutine
// with no lock, so a slow or blocked remote Put cannot stall appends.
func (d *Disk) enqueueUploadLocked(seq uint64) {
	if d.remote() == nil {
		return
	}
	d.upQ = append(d.upQ, seq)
	d.upQAt = append(d.upQAt, time.Now())
	// Stall detection happens here, on the hot evidence: if the queue's
	// head has aged past the bound while new seals keep arriving, the
	// uploader is stuck behind the remote. One event per episode; the
	// uploader records the matching drain.
	if !d.upStalled && time.Since(d.upQAt[0]) > uploadStallAge {
		d.upStalled = true
		d.flight.Load().Record(obs.FlightWarn, "store", "upload queue stalled",
			obs.FI("depth", int64(len(d.upQ)+len(d.upInflight))),
			obs.FI("oldest_ms", time.Since(d.upQAt[0]).Milliseconds()))
	}
	d.upCond.Signal()
}

// startUploader initialises the queue state and, for tiered archives,
// launches the upload-on-seal goroutine. Called once from open, before
// the Disk is shared.
func (d *Disk) startUploader() {
	d.upInflight = make(map[uint64]time.Time)
	d.upCond = sync.NewCond(&d.mu)
	if d.remote() == nil {
		return
	}
	d.upWG.Add(1)
	go d.uploader()
}

// uploader drains the seal queue: dequeue under mu, do the IO unlocked,
// re-acquire to record the outcome. Exits once Close marks upClosed and
// the queue is empty — Close waits for that, so pending migrations
// complete before Close returns.
func (d *Disk) uploader() {
	defer d.upWG.Done()
	d.mu.Lock()
	for {
		for !d.upClosed && len(d.upQ) == 0 {
			d.upCond.Wait()
		}
		if len(d.upQ) == 0 {
			d.mu.Unlock()
			return
		}
		seq := d.upQ[0]
		queuedAt := d.upQAt[0]
		d.upQ = d.upQ[1:]
		d.upQAt = d.upQAt[1:]
		d.upInflight[seq] = queuedAt
		d.mu.Unlock()

		h := d.uploadNS.Load()
		t0 := time.Now()
		err := d.uploadSegment(seq)
		if h != nil {
			h.ObserveSince(t0)
		}
		if c := d.uploadCtr.Load(); c != nil {
			c.Inc()
		}
		if err != nil {
			if c := d.uploadErrCtr.Load(); c != nil {
				c.Inc()
			}
			d.flight.Load().Record(obs.FlightError, "store", "segment upload failed",
				obs.FI("seq", int64(seq)), obs.FS("error", err.Error()))
		} else {
			d.flight.Load().Record(obs.FlightInfo, "store", "segment uploaded",
				obs.FI("seq", int64(seq)), obs.FI("ms", time.Since(t0).Milliseconds()))
		}

		d.mu.Lock()
		delete(d.upInflight, seq)
		if err != nil {
			d.setUploadErrLocked(err)
		}
		if d.upStalled && len(d.upQ) == 0 && len(d.upInflight) == 0 {
			d.upStalled = false
			d.flight.Load().Record(obs.FlightInfo, "store", "upload queue drained",
				obs.FI("last_seq", int64(seq)))
		}
		d.upCond.Broadcast()
	}
}

// uploadSegment migrates one sealed segment to the remote store and
// removes the local file. No lock is held. The local copy is removed
// only after the Put succeeded, so a crash anywhere in between leaves
// the segment local and the next Open re-uploads it. A failed upload
// degrades to local-only (the WAL stays durable on local disk) and
// parks in uploadErr; it does not fail the append path.
func (d *Disk) uploadSegment(seq uint64) error {
	path := segPath(d.cfg.Dir, seq)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("store: reading sealed segment for upload: %w", err)
	}
	if err := d.remote().Put(segName(seq), data); err != nil {
		return fmt.Errorf("store: uploading %s: %w", segName(seq), err)
	}
	if err := os.Remove(path); err != nil {
		// The migration itself succeeded; the stale local copy just gets
		// re-uploaded (identical bytes) at the next Open. Still worth the
		// operator's attention.
		return fmt.Errorf("store: removing migrated segment %s: %w", path, err)
	}
	return nil
}

func (d *Disk) remote() ObjectStore { return d.cfg.Remote }

func (d *Disk) setUploadErrLocked(err error) {
	if d.uploadErr == nil {
		d.uploadErr = err
	}
}

// UploadErr returns the first failed remote migration (nil while every
// seal and snapshot reached the object store). A non-nil value means the
// archive is degraded to local disk for the named object, not that data
// was lost.
func (d *Disk) UploadErr() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.uploadErr
}

// remoteGet reads one migrated object through the block cache.
func (d *Disk) remoteGet(key string) ([]byte, error) {
	return d.rcache.Get(key, func() ([]byte, error) { return d.remote().Get(key) })
}

// replaySealedLocked replays one sealed segment wherever it lives: the
// local file when still present (not yet migrated), otherwise the remote
// object. Sealed segments can never legitimately be torn.
func (d *Disk) replaySealedLocked(seq uint64, fn func(model.VesselState)) error {
	path := segPath(d.cfg.Dir, seq)
	if _, err := os.Stat(path); err == nil {
		_, _, rerr := replaySegment(path, tornError, fn)
		return rerr
	}
	if d.remote() == nil {
		return fmt.Errorf("store: sealed segment %s missing", path)
	}
	data, err := d.remoteGet(segName(seq))
	if err != nil {
		return fmt.Errorf("store: fetching migrated segment %s: %w", segName(seq), err)
	}
	_, err = replaySegmentBytes(segName(seq), data, fn)
	return err
}

// loadSnapLocked loads the snapshot covering seq from the local file or
// the remote object.
func (d *Disk) loadSnapLocked(seq uint64, into *tstore.Store) error {
	path := snapPath(d.cfg.Dir, seq)
	if _, err := os.Stat(path); err == nil {
		return loadSnapshot(path, into)
	}
	if d.remote() == nil {
		return fmt.Errorf("store: snapshot %s missing", path)
	}
	data, err := d.remoteGet(snapName(seq))
	if err != nil {
		return fmt.Errorf("store: fetching migrated snapshot %s: %w", snapName(seq), err)
	}
	if _, err := into.Load(bytes.NewReader(data)); err != nil {
		return fmt.Errorf("store: loading migrated snapshot %s: %w", snapName(seq), err)
	}
	return nil
}

func (d *Disk) openSegmentLocked(seq uint64) error {
	f, err := os.OpenFile(segPath(d.cfg.Dir, seq), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if d.cfg.Sync != SyncNever {
		if err := syncDir(d.cfg.Dir); err != nil {
			f.Close()
			return err
		}
	}
	d.seg = f
	d.seq = seq
	d.bw = bufio.NewWriterSize(f, 1<<16)
	d.segBytes = segHeaderSize
	return writeSegmentHeader(d.bw)
}

// Compact folds the sealed WAL segments into a fresh snapshot (tstore
// WriteTo encoding) and deletes them. Appends block for the duration; run
// it from a maintenance path, or let rotation trigger it (CompactEvery).
func (d *Disk) Compact() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("store: compact on closed archive %s", d.cfg.Dir)
	}
	//lint:ignore lockio compaction is documented stop-the-world (see Compact); streaming compaction is a ROADMAP item
	return d.compactLocked()
}

func (d *Disk) compactLocked() error {
	if len(d.sealed) == 0 || d.compacting {
		return nil
	}
	// Settle the background uploader before folding: still-queued
	// segments are dropped from the queue (the fold reads them from
	// local disk; uploading first would be wasted work), and in-flight
	// ones are waited out so the fold and the uploader don't race on the
	// segment files. upCond.Wait releases d.mu, so appends can slip in
	// and seal more segments meanwhile — the compacting flag keeps a
	// second rotation from folding concurrently, and d.sealed is read
	// only after the queue is quiet.
	d.compacting = true
	defer func() { d.compacting = false }()
	d.upQ, d.upQAt = d.upQ[:0], d.upQAt[:0]
	for len(d.upInflight) > 0 {
		d.upCond.Wait()
		d.upQ, d.upQAt = d.upQ[:0], d.upQAt[:0]
	}
	// The fold consumes whatever the queue held, so any stall episode
	// ends here — without a drain event, since nothing was uploaded.
	d.upStalled = false
	folded := tstore.New()
	if d.snapSeq > 0 {
		if err := d.loadSnapLocked(d.snapSeq, folded); err != nil {
			return err
		}
	}
	for _, seq := range d.sealed {
		if err := d.replaySealedLocked(seq, folded.Append); err != nil {
			return err
		}
	}
	newSeq := d.sealed[len(d.sealed)-1]
	if d.remote() != nil {
		// Migrated archive: the new snapshot goes straight to the object
		// store (atomic Put), never touching local disk. A failed Put
		// aborts the compaction — the sealed segments stay wherever they
		// are and the next rotation retries.
		var buf bytes.Buffer
		if _, err := folded.WriteTo(&buf); err != nil {
			return err
		}
		//lint:ignore lockio compaction is documented stop-the-world (see Compact); streaming compaction is a ROADMAP item
		if err := d.remote().Put(snapName(newSeq), buf.Bytes()); err != nil {
			return fmt.Errorf("store: uploading %s: %w", snapName(newSeq), err)
		}
	} else {
		if err := writeSnapshot(snapPath(d.cfg.Dir, newSeq), folded); err != nil {
			return err
		}
		// The snapshot rename must reach the directory before the covered
		// files are unlinked — otherwise a power cut could persist the
		// deletions but not the rename, losing the compacted data.
		if err := syncDir(d.cfg.Dir); err != nil {
			return err
		}
	}
	// Now everything the snapshot covers can go — local files and remote
	// objects both. A crash anywhere below re-deletes on the next Open
	// (covered files are ignored by recovery).
	if d.snapSeq > 0 {
		//lint:ignore errsink covered file; a leftover is ignored by recovery and re-deleted at the next Open
		os.Remove(snapPath(d.cfg.Dir, d.snapSeq))
		//lint:ignore lockio compaction is documented stop-the-world (see Compact); streaming compaction is a ROADMAP item
		d.removeRemote(snapName(d.snapSeq))
	}
	for _, seq := range d.sealed {
		//lint:ignore errsink covered file; a leftover is ignored by recovery and re-deleted at the next Open
		os.Remove(segPath(d.cfg.Dir, seq))
		//lint:ignore lockio compaction is documented stop-the-world (see Compact); streaming compaction is a ROADMAP item
		d.removeRemote(segName(seq))
	}
	d.snapSeq = newSeq
	d.sealed = d.sealed[:0]
	return syncDir(d.cfg.Dir)
}

// removeRemote deletes a migrated object (and its cache entry). Caller
// holds d.mu. A leftover object below the snapshot horizon is ignored by
// recovery and re-deleted at the next Open, so a failed Delete costs
// only garbage — but it is still surfaced through UploadErr so a
// misbehaving object store is visible to the operator.
func (d *Disk) removeRemote(key string) {
	if d.remote() == nil {
		return
	}
	if err := d.remote().Delete(key); err != nil {
		d.setUploadErrLocked(fmt.Errorf("store: deleting compacted %s: %w", key, err))
	}
	d.rcache.Drop(key)
}

// syncDir fsyncs the archive directory so renames, creations and
// deletions are ordered against a power loss.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close flushes and fsyncs the active segment, drains pending segment
// migrations (so a Close-then-assert sequence observes the final remote
// state), releases the directory lock and retires the backend.
func (d *Disk) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	err := d.syncLocked()
	if cerr := d.seg.Close(); err == nil {
		err = cerr
	}
	d.upClosed = true
	d.upCond.Broadcast()
	d.mu.Unlock()
	d.upWG.Wait()
	releaseLock(d.lock)
	return err
}

func writeSnapshot(path string, st *tstore.Store) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := st.WriteTo(f); err != nil {
		f.Close()
		//lint:ignore errsink best-effort .tmp cleanup on a path already returning the write error; Open removes leftovers
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		//lint:ignore errsink best-effort .tmp cleanup on a path already returning the sync error; Open removes leftovers
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		//lint:ignore errsink best-effort .tmp cleanup on a path already returning the close error; Open removes leftovers
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

func loadSnapshot(path string, into *tstore.Store) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := into.Load(f); err != nil {
		return fmt.Errorf("store: loading snapshot %s: %w", path, err)
	}
	return nil
}

// --- open / recovery ----------------------------------------------------------------

// RecoverStats describes what Open found on disk (and, for tiered
// archives, in the object store).
type RecoverStats struct {
	SnapshotPoints int   // points loaded from the newest snapshot
	WALRecords     int   // records replayed from WAL segments
	WALSegments    int   // segments replayed
	TornBytes      int64 // bytes truncated off the newest segment's torn tail
	RemoteSegments int   // segments replayed from the object store
	Reuploaded     int   // local sealed segments (re-)migrated during recovery
	CleanupErrs    int   // stale local files / remote objects that failed to delete (retried next Open)
}

// Total returns the recovered point count.
func (r RecoverStats) Total() int { return r.SnapshotPoints + r.WALRecords }

// instrument exposes what recovery found as gauges. Recovery numbers
// are facts about one Open, so they are set once, not computed at
// scrape.
func (r RecoverStats) instrument(reg *obs.Registry) {
	reg.Gauge("store_recovered_snapshot_points").Set(int64(r.SnapshotPoints))
	reg.Gauge("store_recovered_wal_records").Set(int64(r.WALRecords))
	reg.Gauge("store_recovered_wal_segments").Set(int64(r.WALSegments))
	reg.Gauge("store_recovered_torn_bytes").Set(r.TornBytes)
	reg.Gauge("store_recovered_remote_segments").Set(int64(r.RemoteSegments))
	reg.Gauge("store_recovery_reuploaded").Set(int64(r.Reuploaded))
	reg.Gauge("store_recovery_cleanup_errors").Set(int64(r.CleanupErrs))
}

// Archive is an opened on-disk archive: the recovered store plus (for
// writable opens) the disk backend positioned to continue appending.
type Archive struct {
	// Store holds the recovered trajectory archive. Records appended to
	// the backend after Open are NOT mirrored into it automatically —
	// attach the backend (or a Flusher over it) to the live store doing
	// the ingesting (tstore.Store.Attach).
	Store *tstore.Store
	// Backend is the disk backend, ready for appends. Nil when the
	// archive was opened with OpenReadOnly.
	Backend *Disk
	// Stats describes the recovery.
	Stats RecoverStats
	// ReadOnly reports whether this archive came from OpenReadOnly.
	ReadOnly bool
}

// Open opens (creating if needed) the archive directory, recovers the
// persisted state — newest snapshot plus WAL tail, with torn trailing
// records truncated — and returns the recovered store with the backend
// ready to continue appending into a fresh segment. The directory is
// locked (flock on Dir/LOCK) for the lifetime of the backend, so a
// second writer — or a crashed writer's survivor racing a restart —
// fails fast instead of corrupting the WAL.
func Open(cfg Config) (*Archive, error) {
	return open(cfg, false)
}

// OpenReadOnly recovers the persisted state without mutating the
// directory in any way: no torn-tail truncation, no stale-file cleanup,
// no new segment, no lock. It is safe to run against a directory a live
// writer owns — replay simply stops at the writer's in-flight tail
// (counted in Stats.TornBytes). The returned Archive has a nil Backend;
// Close is a no-op. Point-in-time caveat: a concurrent compaction can
// delete a segment between the directory scan and its replay, which
// surfaces as an open error — just retry.
func OpenReadOnly(cfg Config) (*Archive, error) {
	return open(cfg, true)
}

func open(cfg Config, readOnly bool) (*Archive, error) {
	cfg.normalize()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("store: Config.Dir is required")
	}
	var lock *os.File
	if readOnly {
		// Read-only must not create anything — a missing directory is an
		// error, not an empty archive.
		if fi, err := os.Stat(cfg.Dir); err != nil {
			return nil, err
		} else if !fi.IsDir() {
			return nil, fmt.Errorf("store: %s is not a directory", cfg.Dir)
		}
	} else {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, err
		}
		var err error
		if lock, err = acquireLock(cfg.Dir); err != nil {
			return nil, err
		}
		// Every mutation below happens under the directory lock.
	}
	// A remote-backed directory is marked: opening it without the object
	// store would silently recover only the local tail — and, worse, a
	// compaction in that state could later cover (and delete) migrated
	// segments whose data the snapshot never saw. Refuse instead.
	marker := filepath.Join(cfg.Dir, "REMOTE")
	if _, err := os.Stat(marker); err == nil && cfg.Remote == nil {
		releaseLock(lock)
		return nil, fmt.Errorf(
			"store: %s is a remote-backed archive (REMOTE marker present): its segments migrate to an object store; open it with Config.Remote (maritimed -remote-dir / msaquery -remote)",
			cfg.Dir)
	} else if cfg.Remote != nil && !readOnly && os.IsNotExist(err) {
		if werr := os.WriteFile(marker, []byte("segments and snapshots migrate to an object store; open with Config.Remote\n"), 0o644); werr != nil {
			releaseLock(lock)
			return nil, werr
		}
		if serr := syncDir(cfg.Dir); serr != nil {
			releaseLock(lock)
			return nil, serr
		}
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		releaseLock(lock)
		return nil, err
	}
	var stats RecoverStats
	// cleanup deletes a stale file or object, best-effort: recovery
	// ignores leftovers and re-deletes them at the next Open, but a
	// failing janitor is counted so operators can see a directory or
	// object store that has stopped accepting deletes.
	cleanup := func(err error) {
		if err != nil {
			stats.CleanupErrs++
		}
	}
	localSeg := map[uint64]bool{}
	localSnap := map[uint64]bool{}
	for _, e := range entries {
		name := e.Name()
		var seq uint64
		switch {
		case len(name) == len("wal-00000000.log") && name[:4] == "wal-":
			if _, err := fmt.Sscanf(name, "wal-%08d.log", &seq); err == nil {
				localSeg[seq] = true
			}
		case len(name) == len("snap-00000000.bin") && name[:5] == "snap-":
			if _, err := fmt.Sscanf(name, "snap-%08d.bin", &seq); err == nil {
				localSnap[seq] = true
			}
		case filepath.Ext(name) == ".tmp" && !readOnly:
			// Leftover from a crashed compaction; never referenced.
			cleanup(os.Remove(filepath.Join(cfg.Dir, name)))
		}
	}
	// A tiered archive spreads across the directory and the object store:
	// merge both listings. The active tail is always local (only sealed
	// segments migrate); remote objects are always complete (atomic Put,
	// local copy deleted only after a confirmed upload).
	remoteSeg := map[uint64]bool{}
	remoteSnap := map[uint64]bool{}
	var rcache *BlockCache
	if cfg.Remote != nil {
		rcache = NewBlockCache(remoteCacheBytes)
		keys, err := cfg.Remote.List("")
		if err != nil {
			releaseLock(lock)
			return nil, fmt.Errorf("store: listing object store: %w", err)
		}
		for _, key := range keys {
			var seq uint64
			switch {
			case len(key) == len("wal-00000000.log") && key[:4] == "wal-":
				if _, err := fmt.Sscanf(key, "wal-%08d.log", &seq); err == nil {
					remoteSeg[seq] = true
				}
			case len(key) == len("snap-00000000.bin") && key[:5] == "snap-":
				if _, err := fmt.Sscanf(key, "snap-%08d.bin", &seq); err == nil {
					remoteSnap[seq] = true
				}
			}
		}
	}
	segs := sortedSeqs(localSeg, remoteSeg)
	snaps := sortedSeqs(localSnap, remoteSnap)
	remoteGet := func(key string) ([]byte, error) {
		return rcache.Get(key, func() ([]byte, error) { return cfg.Remote.Get(key) })
	}

	st := tstore.New()
	var snapSeq uint64
	if len(snaps) > 0 {
		snapSeq = snaps[len(snaps)-1]
		if localSnap[snapSeq] {
			err = loadSnapshot(snapPath(cfg.Dir, snapSeq), st)
		} else {
			var data []byte
			if data, err = remoteGet(snapName(snapSeq)); err == nil {
				_, err = st.Load(bytes.NewReader(data))
			}
		}
		if err != nil {
			releaseLock(lock)
			return nil, fmt.Errorf("store: loading snapshot %d: %w", snapSeq, err)
		}
		stats.SnapshotPoints = st.Len()
		// Older snapshots and covered segments are leftovers of a crashed
		// compaction — the newest snapshot subsumes them.
		if !readOnly {
			for _, s := range snaps[:len(snaps)-1] {
				if localSnap[s] {
					cleanup(os.Remove(snapPath(cfg.Dir, s)))
				}
				if remoteSnap[s] {
					cleanup(cfg.Remote.Delete(snapName(s)))
				}
			}
		}
	}
	maxSeq := snapSeq
	var lastLocal uint64 // the active tail at crash time, if any
	for seq := range localSeg {
		if seq > lastLocal {
			lastLocal = seq
		}
	}
	var sealed []uint64
	for _, seq := range segs {
		if seq <= snapSeq {
			if !readOnly {
				if localSeg[seq] {
					cleanup(os.Remove(segPath(cfg.Dir, seq)))
				}
				if remoteSeg[seq] {
					cleanup(cfg.Remote.Delete(segName(seq)))
				}
			}
			continue
		}
		if localSeg[seq] {
			// Only the newest local segment can legitimately be mid-write
			// (it was the active tail): readers skip its tail, writers
			// repair it. A tear anywhere else is real corruption for both.
			mode := tornError
			if seq == lastLocal && seq == maxSegSeq(segs) {
				if readOnly {
					mode = tornIgnore
				} else {
					mode = tornTruncate
				}
			}
			path := segPath(cfg.Dir, seq)
			n, torn, err := replaySegment(path, mode, st.Append)
			if err != nil {
				releaseLock(lock)
				return nil, err
			}
			stats.WALRecords += n
			stats.WALSegments++
			stats.TornBytes += torn
			// A segment torn before its header flushed is removed outright;
			// only files still on disk become sealed (compaction input).
			if _, err := os.Stat(path); err == nil {
				sealed = append(sealed, seq)
			}
		} else {
			data, err := remoteGet(segName(seq))
			if err != nil {
				releaseLock(lock)
				return nil, fmt.Errorf("store: fetching migrated segment %s: %w", segName(seq), err)
			}
			n, err := replaySegmentBytes(segName(seq), data, st.Append)
			if err != nil {
				releaseLock(lock)
				return nil, err
			}
			stats.WALRecords += n
			stats.WALSegments++
			stats.RemoteSegments++
			sealed = append(sealed, seq)
		}
		if seq > maxSeq {
			maxSeq = seq
		}
	}

	if readOnly {
		return &Archive{Store: st, Stats: stats, ReadOnly: true}, nil
	}
	d := &Disk{cfg: cfg, rcache: rcache, sealed: sealed, snapSeq: snapSeq, lock: lock}
	d.startUploader()
	if cfg.Remote != nil {
		// Migrate every sealed segment still sitting on local disk: a
		// crash between seal and upload (or a previously failed upload,
		// or a half-written object next to a surviving local copy) left
		// it here, and the local copy is authoritative until a Put
		// confirms. Re-putting an already-uploaded segment just
		// overwrites it with identical bytes. Recovery uploads
		// synchronously — nothing else can touch the archive yet, and
		// Open's contract is a settled directory.
		for _, seq := range sealed {
			if _, err := os.Stat(segPath(d.cfg.Dir, seq)); err == nil {
				if uerr := d.uploadSegment(seq); uerr != nil {
					d.setUploadErrLocked(uerr) // not yet shared; no lock needed
				}
				if _, err := os.Stat(segPath(d.cfg.Dir, seq)); err != nil {
					stats.Reuploaded++
				}
			}
		}
	}
	if err := d.openSegmentLocked(maxSeq + 1); err != nil {
		releaseLock(lock)
		return nil, err
	}
	return &Archive{Store: st, Backend: d, Stats: stats}, nil
}

// sortedSeqs merges sequence-number sets into one ascending list.
func sortedSeqs(sets ...map[uint64]bool) []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for _, set := range sets {
		for seq := range set {
			if !seen[seq] {
				seen[seq] = true
				out = append(out, seq)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func maxSegSeq(segs []uint64) uint64 {
	if len(segs) == 0 {
		return 0
	}
	return segs[len(segs)-1]
}

// Close closes the backend (a no-op for read-only archives).
func (a *Archive) Close() error {
	if a.Backend == nil {
		return nil
	}
	return a.Backend.Close()
}

// Instrument exposes the archive's recovery outcome as gauges and, for
// writable archives, instruments the backend itself (see
// Disk.Instrument).
func (a *Archive) Instrument(reg *obs.Registry) {
	a.Stats.instrument(reg)
	if a.Backend != nil {
		a.Backend.Instrument(reg)
	}
}
