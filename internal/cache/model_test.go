package cache

// Model-based testing: drive the production cache and an obviously-correct
// reference implementation (map + explicit recency list, no packing or
// masking tricks) with the same random access streams and require
// identical hit/miss behaviour, including disabled ways and the victim
// cache swap protocol.

import (
	"fmt"
	"math/rand"
	"testing"

	"vccmin/internal/core"
	"vccmin/internal/geom"
)

// refCache is the executable specification: LRU per set over enabled ways,
// optional fully-associative LRU victim buffer with remove-on-hit.
type refCache struct {
	g      geom.Geometry
	enable *core.BlockDisableMap
	sets   []map[uint64]int // tag -> recency stamp
	victim map[geom.Addr]int
	vcap   int
	stamp  int
}

func newRefCache(g geom.Geometry, enable *core.BlockDisableMap, victimEntries int) *refCache {
	r := &refCache{g: g, enable: enable, sets: make([]map[uint64]int, g.Sets()), vcap: victimEntries}
	for i := range r.sets {
		r.sets[i] = make(map[uint64]int)
	}
	if victimEntries > 0 {
		r.victim = make(map[geom.Addr]int)
	}
	return r
}

func (r *refCache) ways(set int) int {
	if r.enable == nil {
		return r.g.Ways
	}
	return r.enable.Sets[set].Count()
}

// access returns (hit, victimHit).
func (r *refCache) access(a geom.Addr) (bool, bool) {
	r.stamp++
	// Division rather than the cache's shifts and masks: the same split
	// for power-of-two geometries, computed independently.
	frame := uint64(a) / uint64(r.g.BlockBytes)
	set := int(frame % uint64(r.g.Sets()))
	tag := frame / uint64(r.g.Sets())
	if _, ok := r.sets[set][tag]; ok {
		r.sets[set][tag] = r.stamp
		return true, false
	}
	block := r.g.BlockAddr(a)
	victimHit := false
	if r.victim != nil {
		if _, ok := r.victim[block]; ok {
			victimHit = true
			delete(r.victim, block)
		}
	}
	r.insert(set, tag, block)
	return false, victimHit
}

func (r *refCache) insert(set int, tag uint64, block geom.Addr) {
	capacity := r.ways(set)
	if capacity == 0 {
		if r.victim != nil {
			r.vinsert(block)
		}
		return
	}
	if len(r.sets[set]) >= capacity {
		// Evict LRU.
		var lruTag uint64
		lru := int(^uint(0) >> 1)
		for t, s := range r.sets[set] {
			if s < lru {
				lru, lruTag = s, t
			}
		}
		delete(r.sets[set], lruTag)
		if r.victim != nil {
			evicted := geom.Addr(lruTag)<<uint(r.g.IndexBits()+r.g.OffsetBits()) |
				geom.Addr(set)<<uint(r.g.OffsetBits())
			r.vinsert(evicted)
		}
	}
	r.sets[set][tag] = r.stamp
}

func (r *refCache) vinsert(block geom.Addr) {
	if r.vcap == 0 {
		return
	}
	if _, ok := r.victim[block]; ok {
		r.victim[block] = r.stamp
		return
	}
	if len(r.victim) >= r.vcap {
		var lruA geom.Addr
		lru := int(^uint(0) >> 1)
		for a, s := range r.victim {
			if s < lru {
				lru, lruA = s, a
			}
		}
		delete(r.victim, lruA)
	}
	r.victim[block] = r.stamp
}

// runModelComparison drives both implementations over n random
// accesses with every way enabled, then resets the cache and assigns each
// of masks in turn, the way sim reuses one L2 across machines: the cache
// must read Enable at access time, not at New. Every phase must match a
// fresh reference holding that phase's mask.
func runModelComparison(t *testing.T, g geom.Geometry, masks []*core.BlockDisableMap, victimEntries, n int, seed int64) {
	t.Helper()
	c := MustNew("L1", g, 3, &Memory{Latency: 10})
	if victimEntries > 0 {
		c.Victim = MustNewVictim(victimEntries, 1, g.BlockBytes)
	}
	for i, enable := range append([]*core.BlockDisableMap{nil}, masks...) {
		if i > 0 {
			c.Reset()
		}
		c.Enable = enable
		modelPhase(t, c, newRefCache(g, enable, victimEntries), n, seed+int64(i))
	}
}

// modelPhase drives c and ref with the same n random accesses and
// requires identical hit and victim-hit outcomes.
func modelPhase(t *testing.T, c *Cache, ref *refCache, n int, seed int64) {
	t.Helper()
	g := c.Geom
	rng := rand.New(rand.NewSource(seed))
	addrSpace := uint64(g.SizeBytes * 8) // 8x the cache: plenty of conflict
	for i := 0; i < n; i++ {
		a := geom.Addr(rng.Uint64() % addrSpace)
		wantHit, wantVHit := ref.access(a)
		before := c.Stats
		c.Access(a, Read)
		gotHit := c.Stats.Hits == before.Hits+1
		gotVHit := c.Stats.VictimHits == before.VictimHits+1
		if gotHit != wantHit || gotVHit != wantVHit {
			t.Fatalf("access %d (%#x): got hit=%v victimHit=%v, reference says %v/%v",
				i, a, gotHit, gotVHit, wantHit, wantVHit)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// randomMask enables a random subset of each set's ways, any subset
// including none, and kills set dead outright.
func randomMask(g geom.Geometry, seed int64, dead int) *core.BlockDisableMap {
	d := &core.BlockDisableMap{Geom: g, Sets: make([]core.WayMask, g.Sets())}
	rng := rand.New(rand.NewSource(seed))
	for i := range d.Sets {
		d.Sets[i] = core.WayMask(rng.Intn(1 << g.Ways))
	}
	d.Sets[dead] = 0
	return d
}

// disabledWayGeometries are the shapes the disabled-way comparisons
// cover: a small 4-way array with heavy conflict, the 16 KB 4-way L1
// that word-disabling leaves, and the paper's 32 KB 8-way L1.
func disabledWayGeometries() []geom.Geometry {
	return []geom.Geometry{geom.MustNew(4*1024, 4, 64), geom.MustNew(16*1024, 4, 64), geom.MustNew(32*1024, 8, 64)}
}

func TestModelPlainCache(t *testing.T) {
	runModelComparison(t, geom.MustNew(4*1024, 4, 64), nil, 0, 30000, 1)
}

func TestModelVictimCache(t *testing.T) {
	runModelComparison(t, geom.MustNew(4*1024, 4, 64), nil, 8, 30000, 2)
}

func TestModelDisabledWays(t *testing.T) {
	for _, g := range disabledWayGeometries() {
		t.Run(fmt.Sprintf("%dKB-%dway", g.SizeBytes/1024, g.Ways), func(t *testing.T) {
			// Masks with varied per-set associativity, each with a dead set.
			runModelComparison(t, g, []*core.BlockDisableMap{randomMask(g, 3, 0), randomMask(g, 33, 5)}, 0, 30000, 4)
		})
	}
}

func TestModelDisabledWaysWithVictim(t *testing.T) {
	for _, g := range disabledWayGeometries() {
		t.Run(fmt.Sprintf("%dKB-%dway", g.SizeBytes/1024, g.Ways), func(t *testing.T) {
			runModelComparison(t, g, []*core.BlockDisableMap{randomMask(g, 5, 1), randomMask(g, 55, 7)}, 8, 30000, 6)
		})
	}
}

func TestModelReferenceGeometry(t *testing.T) {
	if testing.Short() {
		t.Skip("large model comparison")
	}
	g := geom.MustNew(32*1024, 8, 64)
	runModelComparison(t, g, nil, 16, 60000, 7)
}
