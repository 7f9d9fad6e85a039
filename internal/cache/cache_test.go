package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vccmin/internal/core"
	"vccmin/internal/faults"
	"vccmin/internal/geom"
)

var refGeom = geom.MustNew(32*1024, 8, 64)

// tiny geometry keeps eviction tests readable: 2 sets, 2 ways, 64B blocks.
var tinyGeom = geom.MustNew(256, 2, 64)

func newL1(t *testing.T, g geom.Geometry, next Level) *Cache {
	t.Helper()
	c, err := New("L1", g, 3, next)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestColdMissThenHit(t *testing.T) {
	mem := &Memory{Latency: 51}
	c := newL1(t, refGeom, mem)
	if lat := c.Access(0x1000, Read); lat != 3+51 {
		t.Errorf("cold miss latency = %d, want 54", lat)
	}
	if lat := c.Access(0x1000, Read); lat != 3 {
		t.Errorf("hit latency = %d, want 3", lat)
	}
	if lat := c.Access(0x1020, Read); lat != 3 {
		t.Errorf("same-block hit latency = %d, want 3", lat)
	}
	if c.Stats.Hits != 2 || c.Stats.Misses != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
	if mem.Accesses != 1 {
		t.Errorf("memory accesses = %d, want 1", mem.Accesses)
	}
}

func TestLRUEviction(t *testing.T) {
	mem := &Memory{Latency: 10}
	c := newL1(t, tinyGeom, mem)
	// tiny: 2 sets, 2 ways. Fill set 0 with blocks A, B, touch A, then C
	// must evict B.
	const (
		A = geom.Addr(0x0000) // set 0
		B = geom.Addr(0x0080) // set 0 (2 sets * 64B stride)
		C = geom.Addr(0x0100) // set 0
	)
	c.Access(A, Read)
	c.Access(B, Read)
	c.Access(A, Read) // A most recently used
	c.Access(C, Read) // evicts B
	if !c.Contains(A) || !c.Contains(C) {
		t.Error("A and C should be resident")
	}
	if c.Contains(B) {
		t.Error("B should have been LRU-evicted")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestMultiLevelLatency(t *testing.T) {
	mem := &Memory{Latency: 255}
	l2 := MustNew("L2", geom.MustNew(2*1024*1024, 8, 64), 20, mem)
	l1 := newL1(t, refGeom, l2)
	// Cold: L1 miss + L2 miss + memory.
	if lat := l1.Access(0x4000, Read); lat != 3+20+255 {
		t.Errorf("cold access latency = %d, want 278", lat)
	}
	// L1 hit.
	if lat := l1.Access(0x4000, Read); lat != 3 {
		t.Errorf("L1 hit latency = %d, want 3", lat)
	}
	// Evict from L1 by filling the set, then re-access: L2 hit.
	a := geom.Addr(0x4000)
	for i := 1; i <= refGeom.Ways; i++ {
		l1.Access(a+geom.Addr(i*refGeom.SizeBytes/refGeom.Ways), Read)
	}
	if l1.Contains(a) {
		t.Fatal("fill pattern failed to evict the target block")
	}
	if lat := l1.Access(a, Read); lat != 3+20 {
		t.Errorf("L2 hit latency = %d, want 23", lat)
	}
}

func TestWriteDirtyWriteback(t *testing.T) {
	mem := &Memory{Latency: 10}
	c := newL1(t, tinyGeom, mem)
	c.Access(0x0000, Write) // miss, allocate dirty
	c.Access(0x0080, Read)
	c.Access(0x0100, Read) // evicts 0x0000 (dirty) -> writeback
	if c.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
	// A write hit marks dirty.
	c.Access(0x0080, Write)
	c.Access(0x0180, Read) // may evict 0x0080 or 0x0100; 0x0080 is dirty LRU? order: 0x0080 used @write (newer), 0x0100 older -> evicts 0x0100 clean
	if c.Stats.Writebacks != 1 {
		t.Errorf("clean eviction should not write back (writebacks=%d)", c.Stats.Writebacks)
	}
}

func TestDisabledWaysNeverAllocate(t *testing.T) {
	mem := &Memory{Latency: 10}
	c := newL1(t, refGeom, mem)
	fm := faults.Generate(refGeom, 32, 0.002, rand.New(rand.NewSource(4)))
	c.Enable = core.BuildBlockDisable(fm)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		c.Access(geom.Addr(rng.Uint64()&(1<<20-1)), Read)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c.ValidLines() > c.Enable.EnabledBlocks() {
		t.Errorf("valid lines %d exceed enabled blocks %d", c.ValidLines(), c.Enable.EnabledBlocks())
	}
}

func TestZeroWaySetBypass(t *testing.T) {
	mem := &Memory{Latency: 10}
	c := newL1(t, tinyGeom, mem)
	c.Enable = &core.BlockDisableMap{Geom: tinyGeom, Sets: []core.WayMask{0, core.AllWays(2)}}
	// Set 0 has no enabled ways: every access misses and bypasses.
	for i := 0; i < 3; i++ {
		if lat := c.Access(0x0000, Read); lat != 3+10 {
			t.Errorf("bypass access latency = %d, want 13", lat)
		}
	}
	if c.Stats.Hits != 0 {
		t.Errorf("zero-way set should never hit, got %d", c.Stats.Hits)
	}
	if c.Stats.Bypasses != 3 {
		t.Errorf("bypasses = %d, want 3", c.Stats.Bypasses)
	}
	// Set 1 (odd block index) still works.
	c.Access(0x0040, Read)
	if lat := c.Access(0x0040, Read); lat != 3 {
		t.Errorf("enabled set hit latency = %d, want 3", lat)
	}
}

// TestMaskBitsBeyondWaysIgnored: a mask bit at or above the cache's
// way count names no frame. A set enabling only such ways is a dead set
// that bypasses, not a set whose insert finds no victim.
func TestMaskBitsBeyondWaysIgnored(t *testing.T) {
	mem := &Memory{Latency: 10}
	c := newL1(t, tinyGeom, mem)
	c.Enable = &core.BlockDisableMap{Geom: tinyGeom, Sets: []core.WayMask{0b1100, 0b0101}}
	c.Access(0x0000, Read)
	if lat := c.Access(0x0000, Read); lat != 3+10 || c.Stats.Bypasses != 2 {
		t.Errorf("set 0 enables only ways 2-3 of 2: latency %d, bypasses %d, want 13 and 2", lat, c.Stats.Bypasses)
	}
	// Set 1 keeps way 0 only: a 1-way set.
	c.Access(0x0040, Read)
	c.Access(0x00c0, Read)
	if c.Contains(0x0040) || !c.Contains(0x00c0) {
		t.Error("set 1 should behave as a 1-way set")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestVariableAssociativityLRU(t *testing.T) {
	// With one way disabled the set behaves as a 1-way cache.
	mem := &Memory{Latency: 10}
	c := newL1(t, tinyGeom, mem)
	c.Enable = &core.BlockDisableMap{Geom: tinyGeom, Sets: []core.WayMask{0b01, core.AllWays(2)}}
	c.Access(0x0000, Read)
	c.Access(0x0080, Read) // must evict 0x0000: only one usable way
	if c.Contains(0x0000) {
		t.Error("single-way set kept two blocks")
	}
	if !c.Contains(0x0080) {
		t.Error("newest block missing")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestVictimCacheSwap(t *testing.T) {
	mem := &Memory{Latency: 100}
	c := newL1(t, tinyGeom, mem)
	c.Victim = MustNewVictim(4, 1, tinyGeom.BlockBytes)
	c.Access(0x0000, Read)
	c.Access(0x0080, Read)
	c.Access(0x0100, Read) // evicts 0x0000 into V$
	if c.Contains(0x0000) {
		t.Fatal("expected 0x0000 evicted")
	}
	// Access 0x0000: V$ hit, swap back, much faster than memory.
	lat := c.Access(0x0000, Read)
	if lat != 3+1 {
		t.Errorf("victim hit latency = %d, want 4", lat)
	}
	if !c.Contains(0x0000) {
		t.Error("victim hit should reinstall the block in L1")
	}
	if c.Stats.VictimHits != 1 {
		t.Errorf("victim hits = %d, want 1", c.Stats.VictimHits)
	}
	if got := mem.Accesses; got != 3 {
		t.Errorf("memory accesses = %d, want 3 (victim hit must not go to memory)", got)
	}
}

func TestVictimRescuesZeroWaySet(t *testing.T) {
	// The paper's fail-safe: a set with no enabled ways still gets
	// short-latency service from the victim cache.
	mem := &Memory{Latency: 100}
	c := newL1(t, tinyGeom, mem)
	c.Enable = &core.BlockDisableMap{Geom: tinyGeom, Sets: []core.WayMask{0, core.AllWays(2)}}
	c.Victim = MustNewVictim(4, 1, tinyGeom.BlockBytes)
	c.Access(0x0000, Read) // bypass: allocated into V$
	lat := c.Access(0x0000, Read)
	if lat != 3+1 {
		t.Errorf("second access latency = %d, want 4 (victim hit)", lat)
	}
	if mem.Accesses != 1 {
		t.Errorf("memory accesses = %d, want 1", mem.Accesses)
	}
}

func TestVictimCapacityEviction(t *testing.T) {
	v := MustNewVictim(2, 1, 64)
	v.Insert(0x000, false)
	v.Insert(0x040, true)
	v.Insert(0x080, false) // evicts 0x000 (LRU)
	if v.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", v.Evictions)
	}
	if _, ok := v.Probe(0x000); ok {
		t.Error("LRU entry should be gone")
	}
	if _, ok := v.Probe(0x040); !ok {
		t.Error("0x040 should be present")
	}
	// Probe removed it.
	if _, ok := v.Probe(0x040); ok {
		t.Error("probe must remove the entry")
	}
	if v.Valid() != 1 {
		t.Errorf("valid = %d, want 1 (just 0x080)", v.Valid())
	}
}

func TestVictimDirtyWritebackOnEvict(t *testing.T) {
	v := MustNewVictim(1, 1, 64)
	v.Insert(0x000, true)
	v.Insert(0x040, false) // evicts dirty 0x000
	if v.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", v.Writebacks)
	}
}

func TestVictimZeroEntries(t *testing.T) {
	v := MustNewVictim(0, 1, 64)
	v.Insert(0x000, true)
	if _, ok := v.Probe(0x000); ok {
		t.Error("zero-entry victim cache can not hit")
	}
	if v.Writebacks != 1 {
		t.Error("dirty insert into zero-entry V$ must write back")
	}
}

func TestVictimDuplicateInsert(t *testing.T) {
	v := MustNewVictim(4, 1, 64)
	v.Insert(0x000, false)
	v.Insert(0x000, true)
	if v.Valid() != 1 {
		t.Errorf("duplicate insert should refresh, valid = %d", v.Valid())
	}
	l, ok := v.Probe(0x000)
	if !ok || !l.dirty {
		t.Error("refreshed entry should be dirty")
	}
}

func TestPrefetchNextLine(t *testing.T) {
	mem := &Memory{Latency: 50}
	c := newL1(t, refGeom, mem)
	c.PrefetchNextLine = true
	c.Access(0x0000, Read) // miss; prefetches 0x0040
	if !c.Contains(0x0040) {
		t.Fatal("next line not prefetched")
	}
	if lat := c.Access(0x0040, Read); lat != 3 {
		t.Errorf("prefetched line access latency = %d, want 3", lat)
	}
	if c.Stats.Prefetches != 1 || c.Stats.PrefetchHits != 1 {
		t.Errorf("prefetch stats = %+v", c.Stats)
	}
}

func TestResetClearsEverything(t *testing.T) {
	mem := &Memory{Latency: 10}
	c := newL1(t, tinyGeom, mem)
	c.Victim = MustNewVictim(2, 1, tinyGeom.BlockBytes)
	c.Access(0x0000, Write)
	c.Access(0x0080, Read)
	c.Access(0x0100, Read)
	c.Reset()
	if c.ValidLines() != 0 || c.Stats.Accesses != 0 || c.Victim.Valid() != 0 {
		t.Error("reset left state behind")
	}
	if lat := c.Access(0x0000, Read); lat != 3+10 {
		t.Errorf("post-reset access latency = %d, want cold miss", lat)
	}
}

func TestConstructorValidation(t *testing.T) {
	mem := &Memory{Latency: 1}
	if _, err := New("x", geom.Geometry{}, 3, mem); err == nil {
		t.Error("accepted invalid geometry")
	}
	if _, err := New("x", tinyGeom, 0, mem); err == nil {
		t.Error("accepted zero latency")
	}
	if _, err := New("x", tinyGeom, 3, nil); err == nil {
		t.Error("accepted nil next level")
	}
	if _, err := New("x", geom.MustNew(128*64, 128, 64), 3, mem); err == nil {
		t.Error("accepted more ways than a way mask holds")
	}
	if _, err := New("x", geom.MustNew(64*64, 64, 64), 3, mem); err != nil {
		t.Errorf("rejected a 64-way cache: %v", err)
	}
	if _, err := NewVictim(-1, 1, 64); err == nil {
		t.Error("accepted negative victim entries")
	}
	if _, err := NewVictim(4, 0, 64); err == nil {
		t.Error("accepted zero victim latency")
	}
	if _, err := NewVictim(4, 1, 60); err == nil {
		t.Error("accepted non-power-of-two block")
	}
}

func TestKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" || Fetch.String() != "fetch" {
		t.Error("kind names wrong")
	}
	if Kind(7).String() != "Kind(7)" {
		t.Error("unknown kind name wrong")
	}
}

// TestFullyEnabledMatchesNilMask: a block-disable map with every way
// enabled must behave identically to no mask at all.
func TestFullyEnabledMatchesNilMask(t *testing.T) {
	memA, memB := &Memory{Latency: 17}, &Memory{Latency: 17}
	a := newL1(t, refGeom, memA)
	b := newL1(t, refGeom, memB)
	b.Enable = core.FullyEnabled(refGeom)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 30000; i++ {
		addr := geom.Addr(rng.Uint64() & (1<<22 - 1))
		k := Read
		if rng.Intn(4) == 0 {
			k = Write
		}
		la, lb := a.Access(addr, k), b.Access(addr, k)
		if la != lb {
			t.Fatalf("access %d: latency diverged %d vs %d", i, la, lb)
		}
	}
	if a.Stats != b.Stats {
		t.Errorf("stats diverged: %+v vs %+v", a.Stats, b.Stats)
	}
}

// Property: hits + misses == accesses, and miss rate in [0,1].
func TestStatsConservation(t *testing.T) {
	f := func(seed int64) bool {
		mem := &Memory{Latency: 9}
		c := MustNew("L1", tinyGeom, 2, mem)
		c.Victim = MustNewVictim(2, 1, tinyGeom.BlockBytes)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			c.Access(geom.Addr(rng.Uint64()&0xFFF), Kind(rng.Intn(2)))
		}
		s := c.Stats
		return s.Hits+s.Misses == s.Accesses &&
			s.MissRate() >= 0 && s.MissRate() <= 1 &&
			c.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: smaller cache never has fewer misses on the same stream
// (LRU inclusion property holds per set for same block size/sets... we use
// same geometry but halved ways, the word-disable situation).
func TestHalvedWaysNeverFewerMisses(t *testing.T) {
	full := MustNew("L1", geom.MustNew(32*1024, 8, 64), 3, &Memory{Latency: 1})
	half := MustNew("L1h", geom.MustNew(16*1024, 4, 64), 3, &Memory{Latency: 1})
	rng := rand.New(rand.NewSource(77))
	// Loop over a working set that fits the big one but not the small one.
	base := geom.Addr(0)
	for i := 0; i < 60000; i++ {
		off := geom.Addr(rng.Intn(24 * 1024))
		full.Access(base+off, Read)
		half.Access(base+off, Read)
	}
	if half.Stats.Misses < full.Stats.Misses {
		t.Errorf("halved cache missed less: %d vs %d", half.Stats.Misses, full.Stats.Misses)
	}
	if half.Stats.MissRate() <= full.Stats.MissRate() {
		t.Errorf("halved cache should have strictly higher miss rate on a 24KB working set: %v vs %v",
			half.Stats.MissRate(), full.Stats.MissRate())
	}
}
