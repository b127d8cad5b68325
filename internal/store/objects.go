package store

import (
	"container/list"
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ObjectStore is the remote half of the tiered archive: a minimal
// immutable-blob interface the durable layers migrate cold bytes to —
// sealed WAL segments and snapshots (Disk with Config.Remote) and
// evicted trajectory chunks (internal/tier). The contract is
// deliberately the S3 subset every object service offers:
//
//   - Put is atomic: a reader never observes a partially written object,
//     only presence or absence (FSObjects implements this with a
//     write-to-temp + rename). Re-putting a key overwrites it.
//   - Objects are immutable once written: callers never modify in place,
//     so any cache over Get needs no invalidation protocol.
//   - Get on a missing key returns an error satisfying
//     errors.Is(err, fs.ErrNotExist).
//   - List returns the keys under a prefix in lexical order.
//   - Delete is idempotent: deleting a missing key is not an error.
//
// Keys are slash-separated relative paths ("wal-00000001.log",
// "tier/201000001/000000000001.chk"). Implementations must be safe for
// concurrent use.
type ObjectStore interface {
	Put(key string, data []byte) error
	Get(key string) ([]byte, error)
	List(prefix string) ([]string, error)
	Delete(key string) error
}

// --- filesystem reference implementation ---------------------------------------

// FSObjects is the local-filesystem ObjectStore: objects are files under
// a root directory, keys map to relative paths. It is the reference
// implementation (tests, single-node tiering onto a second disk or a
// network mount); a real deployment would implement ObjectStore over an
// object service with the same atomicity contract.
type FSObjects struct {
	root   string
	noSync bool
}

// NewFSObjects returns an object store rooted at dir (created if
// absent). Puts are fully durable (fsync + directory fsync before the
// rename is visible) — the contract migrated WAL segments rely on.
func NewFSObjects(dir string) (*FSObjects, error) {
	return newFSObjects(dir, false)
}

// NewFSObjectsCache returns an object store that skips fsync on Put.
// Appropriate for paging caches — tier spill chunks are reconstructable
// from the archive after a crash (and unreachable after one anyway, the
// stubs referencing them being in-memory) — and roughly an order of
// magnitude cheaper per Put. Never use it for migrated WAL segments or
// snapshots: their local copies are deleted on upload confirmation, so
// the uploaded object must actually be durable.
func NewFSObjectsCache(dir string) (*FSObjects, error) {
	return newFSObjects(dir, true)
}

func newFSObjects(dir string, noSync bool) (*FSObjects, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: FSObjects root directory is required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &FSObjects{root: dir, noSync: noSync}, nil
}

// objTmpSuffix marks in-flight Put temporaries. They are never listed as
// objects, and a crash mid-Put leaves at most one behind (cleaned up by
// the next Put of the same key or ignored forever).
const objTmpSuffix = ".tmp-obj"

func (f *FSObjects) path(key string) (string, error) {
	if key == "" || path.Clean("/"+key) != "/"+key || strings.HasSuffix(key, objTmpSuffix) {
		return "", fmt.Errorf("store: bad object key %q", key)
	}
	return filepath.Join(f.root, filepath.FromSlash(key)), nil
}

// Put writes the object atomically: temp file in the destination
// directory, fsync, rename, directory fsync — a crash at any point
// leaves either the previous object (or nothing) or the complete new
// one, never a torn blob.
func (f *FSObjects) Put(key string, data []byte) error {
	p, err := f.path(key)
	if err != nil {
		return err
	}
	dir := filepath.Dir(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := p + objTmpSuffix
	t, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := t.Write(data); err != nil {
		t.Close()
		//lint:ignore errsink best-effort .tmp cleanup on a path already returning the write error
		os.Remove(tmp)
		return err
	}
	if !f.noSync {
		if err := t.Sync(); err != nil {
			t.Close()
			//lint:ignore errsink best-effort .tmp cleanup on a path already returning the sync error
			os.Remove(tmp)
			return err
		}
	}
	if err := t.Close(); err != nil {
		//lint:ignore errsink best-effort .tmp cleanup on a path already returning the close error
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, p); err != nil {
		//lint:ignore errsink best-effort .tmp cleanup on a path already returning the rename error
		os.Remove(tmp)
		return err
	}
	if f.noSync {
		return nil
	}
	return syncDir(dir)
}

// Get reads the whole object; a missing key reports fs.ErrNotExist.
func (f *FSObjects) Get(key string) ([]byte, error) {
	p, err := f.path(key)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(p)
}

// List returns every object key under the prefix, sorted. A prefix is a
// plain string prefix over keys, not a directory: "wal-" matches
// "wal-00000001.log".
func (f *FSObjects) List(prefix string) ([]string, error) {
	var keys []string
	err := filepath.WalkDir(f.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.HasSuffix(p, objTmpSuffix) {
			return nil // in-flight or abandoned Put temporary, not an object
		}
		rel, err := filepath.Rel(f.root, p)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		if strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(keys)
	return keys, nil
}

// Delete removes the object; deleting a missing key succeeds.
func (f *FSObjects) Delete(key string) error {
	p, err := f.path(key)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// --- read-through block cache --------------------------------------------------

// BlockCache is a byte-bounded LRU over immutable object reads with
// per-key singleflight: concurrent Gets of the same missing key share
// one load instead of hammering the backing store — the property the
// tiered archive's page-back path relies on so concurrent queries of an
// evicted vessel don't double-load its chunks. Because objects are
// immutable, there is no invalidation protocol; Drop exists only to
// release bytes early after an explicit Delete.
type BlockCache struct {
	mu       sync.Mutex
	capBytes int64
	size     int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	loads    map[string]*cacheLoad

	hits, misses uint64
}

type cacheEntry struct {
	key  string
	data []byte
}

type cacheLoad struct {
	done chan struct{}
	data []byte
	err  error
}

// NewBlockCache returns a cache bounded at capBytes (minimum 1 MiB).
func NewBlockCache(capBytes int64) *BlockCache {
	if capBytes < 1<<20 {
		capBytes = 1 << 20
	}
	return &BlockCache{
		capBytes: capBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		loads:    make(map[string]*cacheLoad),
	}
}

// Get returns the cached bytes for key, calling load exactly once per
// residency to fill a miss (concurrent callers of the same key wait for
// that one load). Returned bytes are shared and must not be modified.
// Load errors are not cached: the next Get retries.
func (c *BlockCache) Get(key string, load func() ([]byte, error)) ([]byte, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		data := el.Value.(*cacheEntry).data
		c.mu.Unlock()
		return data, nil
	}
	if fl, ok := c.loads[key]; ok {
		// Someone is already loading it: share their result.
		c.hits++
		c.mu.Unlock()
		<-fl.done
		return fl.data, fl.err
	}
	fl := &cacheLoad{done: make(chan struct{})}
	c.loads[key] = fl
	c.misses++
	c.mu.Unlock()

	fl.data, fl.err = load()
	c.mu.Lock()
	delete(c.loads, key)
	if fl.err == nil {
		c.insertLocked(key, fl.data)
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.data, fl.err
}

func (c *BlockCache) insertLocked(key string, data []byte) {
	if int64(len(data)) > c.capBytes {
		return // larger than the whole cache: serve uncached
	}
	if el, ok := c.items[key]; ok { // raced re-insert of an immutable object
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&cacheEntry{key: key, data: data})
	c.items[key] = el
	c.size += int64(len(data))
	for c.size > c.capBytes {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		ent := tail.Value.(*cacheEntry)
		c.ll.Remove(tail)
		delete(c.items, ent.key)
		c.size -= int64(len(ent.data))
	}
}

// Drop evicts one key (after an explicit object Delete).
func (c *BlockCache) Drop(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		c.ll.Remove(el)
		delete(c.items, ent.key)
		c.size -= int64(len(ent.data))
	}
}

// CacheStats is a point-in-time BlockCache counter snapshot.
type CacheStats struct {
	Hits, Misses uint64
	Bytes        int64
	Objects      int
}

// Stats snapshots the cache counters.
func (c *BlockCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Bytes: c.size, Objects: len(c.items)}
}
