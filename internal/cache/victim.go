package cache

import (
	"fmt"

	"vccmin/internal/geom"
)

// VictimCache is the small fully-associative buffer of Jouppi that catches
// blocks evicted from the L1. The paper attaches a 16-entry, 1-cycle
// victim cache to the data cache; built from 10T cells it keeps all
// entries at low voltage, built from 6T cells only the fault-free ones
// (conservatively half, per Section V).
type VictimCache struct {
	Entries int // usable entries at the current operating point
	Latency int

	Probes     uint64
	HitCount   uint64
	Inserts    uint64
	Evictions  uint64
	Writebacks uint64

	lines []vline
	clock uint64
	block int // block size used to align addresses
}

type vline struct {
	addr  geom.Addr // block-aligned
	valid bool
	dirty bool
	stamp uint64
}

// NewVictim builds a victim cache with the given usable entries.
func NewVictim(entries, latency, blockBytes int) (*VictimCache, error) {
	if entries < 0 {
		return nil, fmt.Errorf("victim cache: entries %d must be non-negative", entries)
	}
	if latency <= 0 {
		return nil, fmt.Errorf("victim cache: latency %d must be positive", latency)
	}
	if blockBytes <= 0 || blockBytes&(blockBytes-1) != 0 {
		return nil, fmt.Errorf("victim cache: block size %d must be a positive power of two", blockBytes)
	}
	return &VictimCache{Entries: entries, Latency: latency, lines: make([]vline, entries), block: blockBytes}, nil
}

func (v *VictimCache) align(a geom.Addr) geom.Addr { return a &^ geom.Addr(v.block-1) }

// Probe looks up addr's block; on a hit the entry is removed (it moves
// back into the main cache) and returned.
func (v *VictimCache) Probe(a geom.Addr) (vline, bool) {
	v.Probes++
	if v.Entries == 0 {
		return vline{}, false
	}
	a = v.align(a)
	for i := range v.lines {
		l := &v.lines[i]
		if l.valid && l.addr == a {
			v.HitCount++
			out := *l
			l.valid = false
			return out, true
		}
	}
	return vline{}, false
}

// Insert stores an evicted block, displacing the LRU entry if full.
func (v *VictimCache) Insert(a geom.Addr, dirty bool) {
	if v.Entries == 0 {
		if dirty {
			v.Writebacks++
		}
		return
	}
	v.Inserts++
	v.clock++
	a = v.align(a)
	// If the block is already present just refresh it.
	for i := range v.lines {
		l := &v.lines[i]
		if l.valid && l.addr == a {
			l.dirty = l.dirty || dirty
			l.stamp = v.clock
			return
		}
	}
	victim := -1
	var oldest uint64
	for i := range v.lines {
		l := &v.lines[i]
		if !l.valid {
			victim = i
			break
		}
		if victim == -1 || l.stamp < oldest {
			victim, oldest = i, l.stamp
		}
	}
	if v.lines[victim].valid {
		v.Evictions++
		if v.lines[victim].dirty {
			v.Writebacks++
		}
	}
	v.lines[victim] = vline{addr: a, valid: true, dirty: dirty, stamp: v.clock}
}

// HitRate returns hits/probes.
func (v *VictimCache) HitRate() float64 {
	if v.Probes == 0 {
		return 0
	}
	return float64(v.HitCount) / float64(v.Probes)
}

// ResetStats clears the counters while keeping contents.
func (v *VictimCache) ResetStats() {
	v.Probes, v.HitCount, v.Inserts, v.Evictions, v.Writebacks = 0, 0, 0, 0, 0
}

// Reset invalidates all entries and clears statistics.
func (v *VictimCache) Reset() {
	for i := range v.lines {
		v.lines[i] = vline{}
	}
	v.Probes, v.HitCount, v.Inserts, v.Evictions, v.Writebacks, v.clock = 0, 0, 0, 0, 0, 0
}
