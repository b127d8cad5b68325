package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/tstore"
)

// remoteFixture opens a tiered archive: tiny segments so appends rotate
// (and migrate) quickly, compaction disabled unless asked for.
func remoteFixture(t *testing.T, compactEvery int) (Config, *FSObjects) {
	t.Helper()
	objects, err := NewFSObjects(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if compactEvery == 0 {
		compactEvery = -1
	}
	return Config{
		Dir: t.TempDir(), SegmentBytes: 200, Sync: SyncNever,
		CompactEvery: compactEvery, Remote: objects,
	}, objects
}

func appendN(t *testing.T, b Backend, n int, seed int64) []model.VesselState {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	recs := make([]model.VesselState, n)
	for i := range recs {
		recs[i] = Quantize(randState(rng, i))
	}
	if err := b.Append(recs); err != nil {
		t.Fatal(err)
	}
	return recs
}

func localWALs(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestRemoteMigrationAndRecovery pins upload-on-seal: sealed segments
// leave local disk for the object store, only the active segment stays,
// and recovery reads the migrated objects back into exactly the appended
// state.
func TestRemoteMigrationAndRecovery(t *testing.T) {
	cfg, objects := remoteFixture(t, -1)
	arch, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := appendN(t, arch.Backend, 40, 1)
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}

	if got := localWALs(t, cfg.Dir); len(got) != 1 {
		t.Fatalf("local dir should hold only the active segment, has %v", got)
	}
	keys, err := objects.List("wal-")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) < 3 {
		t.Fatalf("expected several migrated segments, got %v", keys)
	}
	if err := arch.Backend.UploadErr(); err != nil {
		t.Fatalf("upload error: %v", err)
	}

	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Stats.RemoteSegments < 3 {
		t.Fatalf("recovery replayed %d remote segments, want >= 3 (%+v)", re.Stats.RemoteSegments, re.Stats)
	}
	if got := states(re.Store); !reflect.DeepEqual(got, orderStates(recs)) {
		t.Fatalf("recovered %d records, want %d and equal", len(got), len(recs))
	}
}

// TestCrashBeforeUploadIsReuploaded pins the seal/upload crash window: a
// sealed segment still on local disk (the crash hit between seal and
// upload confirmation — including the half-uploaded case, where a
// non-atomic store left a truncated object) is re-uploaded by the next
// Open and only then removed locally. Nothing is lost either way.
func TestCrashBeforeUploadIsReuploaded(t *testing.T) {
	cfg, objects := remoteFixture(t, -1)
	arch, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := appendN(t, arch.Backend, 40, 2)
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}

	keys, err := objects.List("wal-")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) < 2 {
		t.Fatalf("need at least two migrated segments, got %v", keys)
	}
	// Crash shape 1 — upload never happened: put the segment back on
	// local disk and delete the object outright.
	lost := keys[0]
	data, err := objects.Get(lost)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cfg.Dir, lost), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := objects.Delete(lost); err != nil {
		t.Fatal(err)
	}
	// Crash shape 2 — half-uploaded: local copy survives next to a
	// truncated object (what a store without atomic Put would leave).
	torn := keys[1]
	data2, err := objects.Get(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cfg.Dir, torn), data2, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(objects.Root(), torn), data2[:len(data2)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// At least the two crafted crash shapes — plus the previous run's
	// active tail, which is sealed by this recovery and migrates too.
	if re.Stats.Reuploaded < 2 {
		t.Fatalf("recovery re-uploaded %d segments, want >= 2 (%+v)", re.Stats.Reuploaded, re.Stats)
	}
	for _, key := range []string{lost, torn} {
		got, err := objects.Get(key)
		if err != nil {
			t.Fatalf("segment %s missing from object store after recovery: %v", key, err)
		}
		if len(got) != len(data) && len(got) != len(data2) {
			t.Fatalf("segment %s re-uploaded truncated: %d bytes", key, len(got))
		}
		if _, err := os.Stat(filepath.Join(cfg.Dir, key)); !os.IsNotExist(err) {
			t.Fatalf("segment %s still on local disk after confirmed upload", key)
		}
	}
	if got := states(re.Store); !reflect.DeepEqual(got, orderStates(recs)) {
		t.Fatalf("recovered %d records, want %d and equal", len(got), len(recs))
	}
}

// TestCompactionFoldsRemoteSegments pins tiered compaction: sealed
// segments living in the object store fold into a snapshot object, the
// covered objects are deleted, and recovery loads the remote snapshot.
func TestCompactionFoldsRemoteSegments(t *testing.T) {
	cfg, objects := remoteFixture(t, 3)
	arch, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := appendN(t, arch.Backend, 60, 3)
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}

	snaps, err := objects.List("snap-")
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("expected exactly one snapshot object, got %v", snaps)
	}
	wals, err := objects.List("wal-")
	if err != nil {
		t.Fatal(err)
	}
	if len(wals) >= 6 {
		t.Fatalf("compaction left every segment behind: %v", wals)
	}

	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Stats.SnapshotPoints == 0 {
		t.Fatalf("recovery ignored the remote snapshot (%+v)", re.Stats)
	}
	if got := states(re.Store); !reflect.DeepEqual(got, orderStates(recs)) {
		t.Fatalf("recovered %d records, want %d and equal", len(got), len(recs))
	}
}

// TestRemoteMarkerRefusesLocalOpen pins the guard against the silent
// partial-recovery trap: a directory that ever migrated segments is
// marked, and opening it without the object store errors instead of
// recovering only the local tail (which a later compaction could turn
// into deletion of migrated history).
func TestRemoteMarkerRefusesLocalOpen(t *testing.T) {
	cfg, _ := remoteFixture(t, -1)
	arch, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, arch.Backend, 40, 4)
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}

	local := cfg
	local.Remote = nil
	if _, err := Open(local); err == nil || !strings.Contains(err.Error(), "REMOTE marker") {
		t.Fatalf("Open without Remote on a marked archive: got %v, want a REMOTE-marker refusal", err)
	}
	if _, err := OpenReadOnly(local); err == nil || !strings.Contains(err.Error(), "REMOTE marker") {
		t.Fatalf("OpenReadOnly without Remote on a marked archive: got %v, want a REMOTE-marker refusal", err)
	}
	re, err := Open(cfg) // with the object store: fine
	if err != nil {
		t.Fatal(err)
	}
	re.Close()
}

// TestFSObjectsTmpInvisible pins the atomic-Put contract plumbing: an
// in-flight (or abandoned) Put temporary is never listed as an object.
func TestFSObjectsTmpInvisible(t *testing.T) {
	objects, err := NewFSObjects(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := objects.Put("wal-00000001.log", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(objects.Root(), "wal-00000002.log.tmp-obj"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	keys, err := objects.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != "wal-00000001.log" {
		t.Fatalf("List = %v, want only the completed object", keys)
	}
}

// orderStates sorts a record batch the way a recovered store reports it:
// grouped per vessel in (MMSI, time) order.
func orderStates(recs []model.VesselState) []model.VesselState {
	st := tstore.New()
	for _, s := range recs {
		st.Append(s)
	}
	return states(st)
}

// Root returns the root directory.
func (f *FSObjects) Root() string { return f.root }
