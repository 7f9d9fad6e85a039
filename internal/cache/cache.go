// Package cache implements the memory-hierarchy substrate of the
// evaluation: set-associative write-back caches with true-LRU replacement,
// per-set way-enable masks (block-disabling's variable associativity), an
// optional fully-associative victim cache, an optional next-line
// prefetcher, and a fixed-latency memory backing the chain.
//
// Timing model: Access returns the number of cycles until the requested
// data is available, accumulated down the hierarchy (L1 hit latency + L2
// latency on an L1 miss, and so on). Bandwidth and MSHR contention are not
// modeled; the out-of-order core overlaps access latencies itself.
package cache

import (
	"fmt"
	"math/bits"

	"vccmin/internal/core"
	"vccmin/internal/geom"
)

// Kind distinguishes access types for statistics.
type Kind int

const (
	Read Kind = iota
	Write
	Fetch
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case Fetch:
		return "fetch"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Level is anything that can serve a block-granularity access and report
// its latency in cycles.
type Level interface {
	Access(a geom.Addr, k Kind) int
}

// Memory is the fixed-latency end of the hierarchy.
type Memory struct {
	Latency  int
	Accesses uint64
}

// Access implements Level.
func (m *Memory) Access(a geom.Addr, k Kind) int {
	m.Accesses++
	return m.Latency
}

// Stats counts cache events.
type Stats struct {
	Accesses     uint64
	Hits         uint64
	Misses       uint64
	VictimHits   uint64 // misses served by the victim cache
	Bypasses     uint64 // accesses to sets with zero enabled ways
	Evictions    uint64
	Writebacks   uint64
	Prefetches   uint64
	PrefetchHits uint64 // demand hits on prefetched-but-unused lines
}

// line is the state of one frame beyond its tag and valid bit.
type line struct {
	stamp      uint64
	dirty      bool
	prefetched bool // filled by prefetch, not yet demanded
}

// Cache is one set-associative level.
type Cache struct {
	Name string
	// Geom is the array's shape. New splits addresses by it once; it
	// must not change afterwards.
	Geom       geom.Geometry
	HitLatency int
	Next       Level

	// Enable is the per-set way mask from block-disabling; nil means all
	// ways enabled (high voltage, or a fault-free array). It may be
	// assigned or replaced after New: every access reads it afresh. A
	// non-nil map must have one mask per set of Geom; mask bits at or
	// above Geom.Ways are ignored.
	Enable *core.BlockDisableMap

	// Victim, when non-nil, is probed on a miss and receives evictions.
	Victim *VictimCache

	// PrefetchNextLine fetches block+1 on every demand miss (the paper's
	// future-work interaction for small block sizes).
	PrefetchNextLine bool

	Stats Stats

	// Frame f = set*Geom.Ways + way. A probe reads only the set's valid
	// mask and its tags, which sit together; the rest of a line is read
	// on a hit or an insert.
	valid []core.WayMask // per set: the ways holding a block
	tags  []uint64
	lines []line
	clock uint64

	// The address split and full mask of Geom, fixed at New.
	ways        int
	offsetShift uint         // block-offset bits
	tagShift    uint         // block-offset plus set-index bits
	setMask     uint64       // Sets()-1
	allWays     core.WayMask // every way of a set
}

// New builds a cache level. next must not be nil.
func New(name string, g geom.Geometry, hitLatency int, next Level) (*Cache, error) {
	if err := g.Check(); err != nil {
		return nil, fmt.Errorf("cache %s: %w", name, err)
	}
	if g.Ways > 64 {
		return nil, fmt.Errorf("cache %s: %d ways exceed the 64 a way mask holds", name, g.Ways)
	}
	if hitLatency <= 0 {
		return nil, fmt.Errorf("cache %s: hit latency %d must be positive", name, hitLatency)
	}
	if next == nil {
		return nil, fmt.Errorf("cache %s: next level must not be nil", name)
	}
	return &Cache{
		Name: name, Geom: g, HitLatency: hitLatency, Next: next,
		valid:       make([]core.WayMask, g.Sets()),
		tags:        make([]uint64, g.Blocks()),
		lines:       make([]line, g.Blocks()),
		ways:        g.Ways,
		offsetShift: uint(g.OffsetBits()),
		tagShift:    uint(g.OffsetBits() + g.IndexBits()),
		setMask:     uint64(g.Sets() - 1),
		allWays:     core.AllWays(g.Ways),
	}, nil
}

// MustNew is New but panics on error; for tests and fixed configurations.
func MustNew(name string, g geom.Geometry, hitLatency int, next Level) *Cache {
	c, err := New(name, g, hitLatency, next)
	if err != nil {
		panic(err)
	}
	return c
}

// split returns the set index and the tag of a.
func (c *Cache) split(a geom.Addr) (int, uint64) {
	return int(uint64(a) >> c.offsetShift & c.setMask), uint64(a) >> c.tagShift
}

// mask returns the ways of set that may hold data.
func (c *Cache) mask(set int) core.WayMask {
	if c.Enable == nil {
		return c.allWays
	}
	return c.Enable.Sets[set] & c.allWays
}

// find returns the frame of set holding tag in an enabled way, or -1.
func (c *Cache) find(set int, tag uint64) int {
	live := c.valid[set] & c.mask(set)
	base := set * c.ways
	for w, t := range c.tags[base : base+c.ways] {
		if t == tag && live.Enabled(w) {
			return base + w
		}
	}
	return -1
}

// Access implements Level: it returns the cycles until data for a is
// available, recursing into the victim cache and the next level on a miss.
func (c *Cache) Access(a geom.Addr, k Kind) int {
	c.Stats.Accesses++
	c.clock++
	set, tag := c.split(a)

	// Probe the enabled ways.
	if f := c.find(set, tag); f >= 0 {
		l := &c.lines[f]
		c.Stats.Hits++
		if l.prefetched {
			c.Stats.PrefetchHits++
			l.prefetched = false
		}
		l.stamp = c.clock
		if k == Write {
			l.dirty = true
		}
		return c.HitLatency
	}

	// Miss in the main array: try the victim cache.
	c.Stats.Misses++
	if c.Victim != nil {
		if vl, ok := c.Victim.Probe(a); ok {
			c.Stats.VictimHits++
			// Swap: the victim line returns to the main array (if the set
			// has an enabled frame), displacing a line into the V$.
			c.insert(set, tag, vl.dirty || k == Write, false)
			return c.HitLatency + c.Victim.Latency
		}
	}

	// Fetch from the next level.
	latency := c.HitLatency + c.Next.Access(a, missKind(k))
	c.insert(set, tag, k == Write, false)

	if c.PrefetchNextLine {
		c.prefetch(a + geom.Addr(c.Geom.BlockBytes))
	}
	return latency
}

// missKind maps the access kind propagated downstream on a miss: a write
// miss allocates with a read-for-ownership.
func missKind(k Kind) Kind {
	if k == Write {
		return Read
	}
	return k
}

// prefetch brings addr's block into the cache without charging latency to
// the triggering access. The downstream access is still counted there.
func (c *Cache) prefetch(a geom.Addr) {
	set, tag := c.split(a)
	if c.find(set, tag) >= 0 {
		return // already present
	}
	c.Stats.Prefetches++
	c.Next.Access(a, Read)
	c.insert(set, tag, false, true)
}

// insert places a block into set, evicting as needed: into the lowest
// enabled free way if there is one, else over the least recently used
// enabled way (the lowest on a tie). If the set has no enabled ways, the
// block goes straight to the victim cache when present, and is dropped
// otherwise (bypass).
func (c *Cache) insert(set int, tag uint64, dirty, prefetched bool) {
	mask := c.mask(set)
	if mask == 0 {
		c.Stats.Bypasses++
		if c.Victim != nil {
			c.Victim.Insert(c.rebuildAddr(set, tag), dirty)
		}
		return
	}
	base := set * c.ways
	var victim int
	if free := mask &^ c.valid[set]; free != 0 {
		victim = bits.TrailingZeros64(uint64(free))
		c.valid[set] |= 1 << uint(victim)
	} else {
		victim = -1
		var oldest uint64
		for w, l := range c.lines[base : base+c.ways] {
			if mask.Enabled(w) && (victim == -1 || l.stamp < oldest) {
				victim, oldest = w, l.stamp
			}
		}
		l := &c.lines[base+victim]
		c.Stats.Evictions++
		if c.Victim != nil {
			c.Victim.Insert(c.rebuildAddr(set, c.tags[base+victim]), l.dirty)
		} else if l.dirty {
			c.Stats.Writebacks++
		}
	}
	c.tags[base+victim] = tag
	c.lines[base+victim] = line{stamp: c.clock, dirty: dirty, prefetched: prefetched}
}

// rebuildAddr reconstructs a block address from its set and tag.
func (c *Cache) rebuildAddr(set int, tag uint64) geom.Addr {
	return geom.Addr(tag)<<c.tagShift | geom.Addr(set)<<c.offsetShift
}

// ResetStats clears the counters while keeping cache contents — used at
// the end of a warmup phase.
func (c *Cache) ResetStats() {
	c.Stats = Stats{}
	if c.Victim != nil {
		c.Victim.ResetStats()
	}
}

// Reset invalidates all lines and clears statistics.
func (c *Cache) Reset() {
	clear(c.valid)
	clear(c.tags)
	clear(c.lines)
	c.Stats = Stats{}
	c.clock = 0
	if c.Victim != nil {
		c.Victim.Reset()
	}
}
