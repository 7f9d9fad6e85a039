package cache

// Inspection helpers only this package's tests call.

import (
	"fmt"

	"vccmin/internal/geom"
)

// MissRate returns misses/accesses (victim hits count as misses of the
// main array but do not propagate downstream).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Contains reports whether addr's block is present in an enabled way.
func (c *Cache) Contains(a geom.Addr) bool {
	return c.find(c.split(a)) >= 0
}

// ValidLines returns the number of valid lines in enabled ways.
func (c *Cache) ValidLines() int {
	n := 0
	for set, v := range c.valid {
		n += (v & c.mask(set)).Count()
	}
	return n
}

// CheckInvariants verifies structural invariants: no duplicate tags within
// a set's enabled ways, and no valid data in disabled ways.
func (c *Cache) CheckInvariants() error {
	for set, v := range c.valid {
		seen := map[uint64]bool{}
		mask := c.mask(set)
		for w := 0; w < c.ways; w++ {
			if !v.Enabled(w) {
				continue
			}
			if !mask.Enabled(w) {
				return fmt.Errorf("cache %s: set %d way %d disabled but valid", c.Name, set, w)
			}
			tag := c.tags[set*c.ways+w]
			if seen[tag] {
				return fmt.Errorf("cache %s: set %d holds tag %#x twice", c.Name, set, tag)
			}
			seen[tag] = true
		}
	}
	return nil
}

// MustNewVictim is NewVictim but panics on error.
func MustNewVictim(entries, latency, blockBytes int) *VictimCache {
	v, err := NewVictim(entries, latency, blockBytes)
	if err != nil {
		panic(err)
	}
	return v
}

// Valid returns the number of valid entries.
func (v *VictimCache) Valid() int {
	n := 0
	for _, l := range v.lines {
		if l.valid {
			n++
		}
	}
	return n
}
