package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/tstore"
)

func t0() time.Time { return time.Date(2017, 3, 21, 0, 0, 0, 0, time.UTC) }

func sample(mmsi uint32, sec int, lat, lon float64) model.VesselState {
	return model.VesselState{
		MMSI: mmsi, At: t0().Add(time.Duration(sec) * time.Second),
		Pos: geo.Point{Lat: lat, Lon: lon}, SpeedKn: 10.5, CourseDeg: 92.25,
		Status: ais.StatusUnderWayEngine,
	}
}

// randState builds the i-th random sample. Timestamps are a scrambled
// permutation of unique seconds (7919 is coprime to 100000), so replay
// order vs time order differ while per-vessel tie-breaking — which disk
// round trips do not preserve — never matters.
func randState(rng *rand.Rand, i int) model.VesselState {
	return model.VesselState{
		MMSI: uint32(201000000 + rng.Intn(50)),
		At:   t0().Add(time.Duration(i*7919%100000) * time.Second),
		Pos: geo.Point{
			Lat: -80 + rng.Float64()*160,
			Lon: -179 + rng.Float64()*358,
		},
		SpeedKn:   rng.Float64() * 40,
		CourseDeg: rng.Float64() * 360,
		Status:    ais.NavStatus(rng.Intn(16)),
	}
}

// states returns the full contents of a store as one flat (MMSI, time)
// ordered slice, for equality comparison.
func states(st *tstore.Store) []model.VesselState {
	var out []model.VesselState
	for _, m := range st.MMSIs() {
		out = append(out, st.Trajectory(m).Points...)
	}
	return out
}

func TestQuantizeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		s := randState(rng, i)
		q := Quantize(s)
		if !reflect.DeepEqual(q, Quantize(q)) {
			t.Fatalf("Quantize not idempotent for %+v", s)
		}
	}
}

// TestQuantizeMatchesTstoreEncoding pins that store.Quantize predicts the
// tstore WriteTo/Load round trip exactly — the property the WAL and the
// snapshot encoding must agree on for compaction to be value-preserving.
func TestQuantizeMatchesTstoreEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := tstore.New()
	var want []model.VesselState
	for i := 0; i < 300; i++ {
		s := randState(rng, i)
		src.Append(s)
	}
	for _, s := range states(src) {
		want = append(want, Quantize(s))
	}
	var buf bytes.Buffer
	if _, err := src.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	dst := tstore.New()
	if _, err := dst.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if got := states(dst); !reflect.DeepEqual(got, want) {
		t.Fatalf("WriteTo/Load round trip diverges from Quantize:\n got %v\nwant %v", got[:3], want[:3])
	}
}

func TestMemBackend(t *testing.T) {
	m := NewMem()
	if err := m.Append([]model.VesselState{sample(1, 0, 40, 5), sample(2, 10, 41, 6)}); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Append([]model.VesselState{sample(3, 20, 42, 7)}); err == nil {
		t.Fatal("append after Close should fail")
	}
	if m.Len() != 2 {
		t.Fatalf("Len after refused append = %d, want 2", m.Len())
	}
}

func TestDiskAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	arch, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if arch.Stats.Total() != 0 {
		t.Fatalf("fresh dir recovered %d records", arch.Stats.Total())
	}
	rng := rand.New(rand.NewSource(3))
	mem := tstore.New()
	var batch []model.VesselState
	for i := 0; i < 1000; i++ {
		s := randState(rng, i)
		mem.Append(Quantize(s))
		batch = append(batch, s)
		if len(batch) == 64 {
			if err := arch.Backend.Append(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := arch.Backend.Append(batch); err != nil {
		t.Fatal(err)
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Stats.WALRecords != 1000 {
		t.Fatalf("recovered %d WAL records, want 1000", re.Stats.WALRecords)
	}
	if re.Stats.TornBytes != 0 {
		t.Fatalf("clean close reported %d torn bytes", re.Stats.TornBytes)
	}
	if !reflect.DeepEqual(states(re.Store), states(mem)) {
		t.Fatal("recovered store diverges from in-memory reference")
	}
}

// TestRotationAndCompaction drives enough records through tiny segments
// to force rotation and auto-compaction, then checks the recovered state
// is complete and the directory holds only the snapshot + recent WAL.
func TestRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, SegmentBytes: 2048, CompactEvery: 3}
	arch, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	mem := tstore.New()
	for i := 0; i < 2000; i++ {
		s := randState(rng, i)
		mem.Append(Quantize(s))
		if err := arch.Backend.Append([]model.VesselState{s}); err != nil {
			t.Fatal(err)
		}
	}
	if len(arch.Backend.SealedSegments()) >= cfg.CompactEvery {
		t.Fatalf("auto-compaction never ran: %d sealed segments", len(arch.Backend.SealedSegments()))
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}

	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.bin"))
	if len(snaps) != 1 {
		t.Fatalf("expected exactly one snapshot after compaction, got %v", snaps)
	}

	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Stats.Total(); got != 2000 {
		t.Fatalf("recovered %d records, want 2000 (snapshot %d + wal %d)",
			got, re.Stats.SnapshotPoints, re.Stats.WALRecords)
	}
	if re.Stats.SnapshotPoints == 0 {
		t.Fatal("compaction produced an empty snapshot")
	}
	if !reflect.DeepEqual(states(re.Store), states(mem)) {
		t.Fatal("recovered store diverges from in-memory reference across rotation+compaction")
	}
}

// TestManualCompactThenRecover pins the compacted-snapshot path in
// isolation: compact explicitly, delete nothing by hand, reopen.
func TestManualCompactThenRecover(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, SegmentBytes: 1024, CompactEvery: -1}
	arch, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var all []model.VesselState
	for i := 0; i < 300; i++ {
		all = append(all, sample(uint32(1+i%7), i*10, 40+float64(i)*0.01, 5))
	}
	if err := arch.Backend.Append(all); err != nil {
		t.Fatal(err)
	}
	if len(arch.Backend.SealedSegments()) == 0 {
		t.Fatal("expected sealed segments before compaction")
	}
	if err := arch.Backend.Compact(); err != nil {
		t.Fatal(err)
	}
	if len(arch.Backend.SealedSegments()) != 0 {
		t.Fatal("compaction left sealed segments behind")
	}
	// Records appended after compaction land in the active segment.
	post := sample(99, 999999, 43, 8)
	if err := arch.Backend.Append([]model.VesselState{post}); err != nil {
		t.Fatal(err)
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Stats.Total() != 301 {
		t.Fatalf("recovered %d records, want 301", re.Stats.Total())
	}
	if got, ok := newestState(re, 99); !ok || got.Pos.Lat != 43 {
		t.Fatalf("post-compaction record lost: %+v ok=%v", got, ok)
	}
}

// newestState returns the vessel's newest state in the recovered archive's
// live picture (Store.LatestStates, the read the store source's live
// answers come from).
func newestState(a *Archive, mmsi uint32) (model.VesselState, bool) {
	for _, s := range a.Store.LatestStates() {
		if s.MMSI == mmsi {
			return s, true
		}
	}
	return model.VesselState{}, false
}

// TestArchiveLive pins that the recovered live picture is the newest
// persisted state per vessel.
func TestArchiveLive(t *testing.T) {
	dir := t.TempDir()
	arch, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	recs := []model.VesselState{
		sample(1, 0, 40, 5), sample(1, 100, 40.5, 5.5),
		sample(2, 50, 41, 6),
	}
	if err := arch.Backend.Append(recs); err != nil {
		t.Fatal(err)
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n := len(re.Store.LatestStates()); n != 2 {
		t.Fatalf("live count = %d, want 2", n)
	}
	got, ok := newestState(re, 1)
	if !ok || got.Pos.Lat != 40.5 {
		t.Fatalf("live picture holds %+v, want the newest persisted state of vessel 1", got)
	}
}

func TestFlusherDrainsToBackend(t *testing.T) {
	mem := NewMem()
	f := NewFlusher(mem, FlushConfig{Queue: 32, Batch: 8})
	var want []model.VesselState
	for i := 0; i < 100; i++ {
		s := Quantize(sample(uint32(1+i%5), i*7, 40+float64(i)*0.01, 5))
		want = append(want, s)
		if err := f.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got := mem.States()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("backend saw %d records in wrong order/content, want %d", len(got), len(want))
	}
	ms := f.Metrics.Snapshot()
	if ms.In != 100 || ms.Out != 100 || ms.Dropped != 0 {
		t.Fatalf("metrics = %+v, want 100/100/0", ms)
	}
	if err := f.Append(sample(9, 0, 40, 5)); err == nil {
		t.Fatal("append after Close should fail")
	}
	if f.Metrics.Snapshot().Dropped != 1 {
		t.Fatalf("refused append not counted as Dropped")
	}
}

func TestFlusherAsSinkOnStore(t *testing.T) {
	mem := NewMem()
	f := NewFlusher(mem, FlushConfig{})
	st := tstore.New()
	st.Attach(f)
	for i := 0; i < 50; i++ {
		st.Append(sample(uint32(1+i%3), i*10, 40+float64(i)*0.01, 5))
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if st.SinkErr() != nil {
		t.Fatal(st.SinkErr())
	}
	if mem.Len() != 50 {
		t.Fatalf("backend saw %d records, want 50", mem.Len())
	}
}

// TestOpenCleansCrashedCompactionLeftovers simulates a crash between the
// snapshot rename and the segment deletions: both the snapshot and the
// covered segments exist on disk. Recovery must not double-count.
func TestOpenCleansCrashedCompactionLeftovers(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, SegmentBytes: 1024, CompactEvery: -1}
	arch, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var recs []model.VesselState
	for i := 0; i < 200; i++ {
		recs = append(recs, sample(uint32(1+i%5), i*10, 40+float64(i)*0.01, 5))
	}
	if err := arch.Backend.Append(recs); err != nil {
		t.Fatal(err)
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}

	// Freeze the segment set, then compact via a fresh archive but
	// restore the deleted segments afterwards to fake the crash window.
	saved := map[string][]byte{}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	for _, p := range segs {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		saved[p] = b
	}
	arch2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := arch2.Backend.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := arch2.Close(); err != nil {
		t.Fatal(err)
	}
	for p, b := range saved {
		if _, err := os.Stat(p); os.IsNotExist(err) {
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Stats.Total(); got != 200 {
		t.Fatalf("recovered %d records, want 200 (covered segments double-counted?)", got)
	}
	// The covered segments must be gone after recovery cleaned them.
	for p := range saved {
		if _, err := os.Stat(p); err == nil {
			t.Fatalf("covered segment %s survived recovery", p)
		}
	}
}

// syncCounter wraps a backend and counts Sync calls.
type syncCounter struct {
	*Mem
	mu    sync.Mutex
	syncs int
}

func (s *syncCounter) Sync() error {
	s.mu.Lock()
	s.syncs++
	s.mu.Unlock()
	return s.Mem.Sync()
}

func (s *syncCounter) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncs
}

// TestFlusherSyncEveryCoversIdle pins the SyncEvery loss bound: a batch
// written just before the stage goes idle must still be synced within
// the configured interval, without waiting for more traffic or Close.
func TestFlusherSyncEveryCoversIdle(t *testing.T) {
	b := &syncCounter{Mem: NewMem()}
	f := NewFlusher(b, FlushConfig{SyncEvery: 20 * time.Millisecond})
	if err := f.Append(sample(1, 0, 40, 5)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for b.count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle flusher never synced within SyncEvery")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// SealedSegments returns the sequence numbers of sealed, uncompacted
// segments (diagnostics).
func (d *Disk) SealedSegments() []uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]uint64(nil), d.sealed...)
}
