package engine

import (
	"container/list"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// memLRU is the in-memory tier: a thread-safe LRU of marshalled result
// bytes keyed by <kind>/<hash>. Every stored result is deterministic, so
// entries never go stale — the LRU only bounds memory.
type memLRU struct {
	mu      sync.Mutex
	max     int
	ll      *list.List
	items   map[string]*list.Element
	hits    uint64
	misses  uint64
	evicted uint64
}

type lruEntry struct {
	key string
	val []byte
}

func newMemLRU(max int) *memLRU {
	if max <= 0 {
		max = 1
	}
	return &memLRU{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the cached bytes for key and records a hit, or a miss
// when countMiss is set (a second look at a key must not count its miss
// twice).
func (c *memLRU) get(key string, countMiss bool) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*lruEntry).val, true
	}
	if countMiss {
		c.misses++
	}
	return nil, false
}

// put stores val under key, evicting the least recently used entry when
// the cache is full.
func (c *memLRU) put(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	for c.ll.Len() > c.max {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.items, el.Value.(*lruEntry).key)
		c.evicted++
	}
}

// CacheStats is the memory tier's aggregate view (the service's
// /v1/stats "cache" section).
type CacheStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Evicted uint64 `json:"evicted"`
	Entries int    `json:"entries"`
	Max     int    `json:"max"`
}

func (c *memLRU) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evicted: c.evicted, Entries: c.ll.Len(), Max: c.max}
}

// diskStore is the content-addressed on-disk tier: one file per result
// at <dir>/<kind>/<hash>.json, written atomically (temp file + rename)
// so a kill mid-write never leaves a torn entry. Results are pure
// functions of their hash, so files are immutable once written and the
// store needs no locking beyond the filesystem's.
type diskStore struct {
	dir string
}

func newDiskStore(dir string) (*diskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &diskStore{dir: dir}, nil
}

// path maps a (kind, hash) identity to its file. Kinds are lowercase
// slugs and hashes hex by construction; sanitize anyway so a hostile
// kind string can never escape the store root.
func (d *diskStore) path(kind, hash string) string {
	clean := func(s string) string {
		return strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
				return r
			default:
				return '_'
			}
		}, s)
	}
	return filepath.Join(d.dir, clean(kind), clean(hash)+".json")
}

func (d *diskStore) get(kind, hash string) ([]byte, bool) {
	b, err := os.ReadFile(d.path(kind, hash))
	if err != nil {
		return nil, false
	}
	return b, true
}

func (d *diskStore) put(kind, hash string, b []byte) error {
	path := d.path(kind, hash)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	// A unique temp file per writer, not a fixed "<path>.tmp": stores
	// can be shared across processes (a serve instance plus CLIs on one
	// -result-cache), and two concurrent writers of the same result
	// truncating one temp path could publish a torn entry. Distinct
	// temp names make the final rename the only point of contention,
	// and both writers rename identical bytes.
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// CreateTemp opens 0600; match the 0644 the rest of the data dir uses.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
