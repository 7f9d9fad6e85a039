// Package pipeline is the trace-driven timing model of the out-of-order
// superscalar core of Table II (sim-alpha's Alpha-21264-like machine; see
// DESIGN.md for the substitution rationale).
//
// The model is event-based and O(1) per instruction: instead of walking
// cycle by cycle, it computes for every dynamic instruction the cycle at
// which each pipeline event happens, with ring buffers carrying the
// constraints that couple instructions:
//
//	fetch    — fetch-width instructions per cycle; stalls on I-cache
//	           misses; taken branches cost a redirect bubble that grows
//	           with the I-cache hit latency (the word-disable +1 cycle);
//	           mispredictions restart fetch after branch resolution plus
//	           the front-end refill penalty.
//	dispatch — blocked by ROB occupancy (128) and per-side issue-queue
//	           occupancy (40 INT / 20 FP).
//	issue    — waits for register dependences (trace dependence
//	           distances), a free functional unit, and an issue slot
//	           (6 wide).
//	execute  — fixed latencies per class; loads access the D-cache
//	           hierarchy (hit latency through memory latency); stores
//	           retire into a write buffer without blocking dependents.
//	commit   — in order, commit-width per cycle.
//
// Total cycles = commit time of the last instruction.
package pipeline

import (
	"fmt"

	"vccmin/internal/branch"
	"vccmin/internal/cache"
	"vccmin/internal/geom"
	"vccmin/internal/trace"
)

// Config carries the core parameters (Table II defaults via TableII).
type Config struct {
	FetchWidth  int
	IssueWidth  int
	CommitWidth int
	ROBSize     int
	IntIQ       int // integer issue-queue entries
	FPIQ        int // floating-point issue-queue entries

	IntALUs  int
	IntMults int
	FPALUs   int
	FPMults  int

	IntALULat  int
	IntMultLat int
	FPALULat   int
	FPMultLat  int

	// MispredictPenalty is the front-end refill depth charged after a
	// resolved misprediction, on top of the I-cache hit latency.
	MispredictPenalty int

	HistoryBits int // gshare history length
	BTBSize     int
}

// TableII returns the paper's fixed core configuration.
func TableII() Config {
	return Config{
		FetchWidth: 4, IssueWidth: 6, CommitWidth: 4,
		ROBSize: 128, IntIQ: 40, FPIQ: 20,
		IntALUs: 4, IntMults: 4, FPALUs: 1, FPMults: 1,
		IntALULat: 1, IntMultLat: 7, FPALULat: 4, FPMultLat: 4,
		MispredictPenalty: 11,
		HistoryBits:       15,
		BTBSize:           4096,
	}
}

// Check validates the configuration.
func (c Config) Check() error {
	switch {
	case c.FetchWidth <= 0 || c.IssueWidth <= 0 || c.CommitWidth <= 0:
		return fmt.Errorf("pipeline: widths must be positive: %+v", c)
	case c.ROBSize <= 0 || c.ROBSize > robRing:
		return fmt.Errorf("pipeline: ROB size %d out of (0, %d]", c.ROBSize, robRing)
	case c.IntIQ <= 0 || c.IntIQ > iqRing || c.FPIQ <= 0 || c.FPIQ > iqRing:
		return fmt.Errorf("pipeline: IQ sizes %d/%d out of (0, %d]", c.IntIQ, c.FPIQ, iqRing)
	case c.IntALUs <= 0 || c.IntALUs > maxFU || c.IntMults <= 0 || c.IntMults > maxFU ||
		c.FPALUs <= 0 || c.FPALUs > maxFU || c.FPMults <= 0 || c.FPMults > maxFU:
		return fmt.Errorf("pipeline: FU counts out of (0, %d]", maxFU)
	case c.IntALULat <= 0 || c.IntMultLat <= 0 || c.FPALULat <= 0 || c.FPMultLat <= 0:
		return fmt.Errorf("pipeline: execution latencies must be positive")
	case c.MispredictPenalty < 0:
		return fmt.Errorf("pipeline: negative mispredict penalty")
	case c.HistoryBits <= 0 || c.BTBSize <= 0:
		return fmt.Errorf("pipeline: predictor sizes must be positive")
	}
	return nil
}

const (
	robRing   = 256  // ring capacity for complete/commit times (>= ROB and max dep distance)
	iqRing    = 64   // ring capacity for per-side issue times (>= IQ sizes)
	widthRing = 4096 // ring capacity for per-cycle issue-slot accounting
	maxFU     = 8
)

// fuPool tracks when the units of one functional-unit class are next
// free. Units are interchangeable and fully pipelined (initiation
// interval one cycle), so only the multiset of free times matters: free
// keeps it in ascending order, and the earliest-free unit is free[0].
type fuPool struct {
	free [maxFU]uint64
	n    int
}

// earliestAt returns the first cycle >= t at which a unit is free.
func (p *fuPool) earliestAt(t uint64) uint64 { return max(p.free[0], t) }

// claim occupies the earliest-free unit for the cycle t: its free time
// leaves the front and t+1 is inserted in order.
func (p *fuPool) claim(t uint64) {
	next, i := t+1, 1
	for ; i < p.n && p.free[i] < next; i++ {
		p.free[i-1] = p.free[i]
	}
	p.free[i-1] = next
}

// CPU is one simulated core bound to its caches and predictors.
type CPU struct {
	cfg    Config
	icache *cache.Cache
	dcache *cache.Cache
	gshare *branch.Gshare
	btb    *branch.BTB

	// Per-instruction event times.
	completeAt [robRing]uint64
	commitAt   [robRing]uint64
	seq        uint64

	// Per-side issue-queue occupancy rings.
	intIssueAt [iqRing]uint64
	fpIssueAt  [iqRing]uint64
	intSeq     uint64
	fpSeq      uint64

	// Functional units.
	intALU, intMult, fpALU, fpMult fuPool

	// Issue bandwidth: issued[c & mask] counts issues at cycle c (tagged).
	issuedTag   [widthRing]uint64
	issuedCount [widthRing]uint16

	// Fetch state.
	fetchCycle  uint64
	fetchedNow  int
	curFetchBlk geom.Addr

	stats Stats

	// scratch is Run's decode buffer (see Run for why it is not a local).
	scratch trace.Instr
}

// Stats aggregates the run.
type Stats struct {
	Instructions uint64
	Cycles       uint64
	Branches     uint64
	Mispredicts  uint64
	TakenBubbles uint64 // cycles lost to correctly-predicted taken redirects
	FetchStalls  uint64 // cycles lost to I-cache misses
	Loads        uint64
	Stores       uint64
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// New builds a CPU. icache and dcache must be distinct cache instances.
func New(cfg Config, icache, dcache *cache.Cache) (*CPU, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	if icache == nil || dcache == nil {
		return nil, fmt.Errorf("pipeline: nil cache")
	}
	c := &CPU{
		cfg:    cfg,
		icache: icache,
		dcache: dcache,
		gshare: branch.MustNewGshare(cfg.HistoryBits),
		btb:    branch.MustNewBTB(cfg.BTBSize),
	}
	c.intALU.n, c.intMult.n = cfg.IntALUs, cfg.IntMults
	c.fpALU.n, c.fpMult.n = cfg.FPALUs, cfg.FPMults
	c.curFetchBlk = ^geom.Addr(0)
	return c, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config, icache, dcache *cache.Cache) *CPU {
	c, err := New(cfg, icache, dcache)
	if err != nil {
		panic(err)
	}
	return c
}

// Reset returns the core to its just-built microarchitectural state:
// empty rings, idle functional units, cold predictors, zeroed statistics.
// The configuration and the cache bindings are kept (the caches are NOT
// reset — callers owning the hierarchy reset it themselves, e.g.
// sim.System.Reset). A Run after Reset is bit-identical to a Run on a
// freshly built CPU over the same caches.
func (c *CPU) Reset() {
	c.completeAt = [robRing]uint64{}
	c.commitAt = [robRing]uint64{}
	c.seq = 0
	c.intIssueAt = [iqRing]uint64{}
	c.fpIssueAt = [iqRing]uint64{}
	c.intSeq, c.fpSeq = 0, 0
	c.intALU.free = [maxFU]uint64{}
	c.intMult.free = [maxFU]uint64{}
	c.fpALU.free = [maxFU]uint64{}
	c.fpMult.free = [maxFU]uint64{}
	c.issuedTag = [widthRing]uint64{}
	c.issuedCount = [widthRing]uint16{}
	c.fetchCycle = 0
	c.fetchedNow = 0
	c.curFetchBlk = ^geom.Addr(0)
	c.stats = Stats{}
	c.gshare.Reset()
	c.btb.Reset()
}

// Run simulates n instructions from gen and returns statistics for this
// call only. Consecutive calls continue from the warm microarchitectural
// state (predictors, ring history), so callers can warm up with one Run
// and measure with the next — the trace-driven analogue of SimPoint-style
// warmup.
func (c *CPU) Run(gen trace.Generator, n int) Stats {
	startSeq := c.seq
	startCycles := c.lastCommit()
	c.stats = Stats{}
	// The decode scratch lives on the CPU, not the stack: its address
	// passes through the Generator interface, so a local would escape and
	// cost one heap allocation per Run — the difference between an
	// allocation-free and an allocating scheduler chunk loop.
	ins := &c.scratch
	for i := 0; i < n; i++ {
		gen.Next(ins)
		c.step(ins)
	}
	c.stats.Instructions = c.seq - startSeq
	c.stats.Cycles = c.lastCommit() - startCycles
	return c.stats
}

// lastCommit returns the commit cycle of the most recent instruction.
func (c *CPU) lastCommit() uint64 {
	if c.seq == 0 {
		return 0
	}
	return c.commitAt[(c.seq-1)&(robRing-1)]
}

// step advances the model by one dynamic instruction.
func (c *CPU) step(ins *trace.Instr) {
	cfg := &c.cfg
	i := c.seq

	// ---- Fetch ----
	blk := c.icache.Geom.BlockAddr(geom.Addr(ins.PC))
	if blk != c.curFetchBlk {
		lat := c.icache.Access(blk, cache.Fetch)
		if lat > c.icache.HitLatency {
			// Miss: fetch stalls for the portion beyond the pipelined hit
			// (critical-word-first refill; the in-flight window drains
			// behind it).
			stall := uint64(lat - c.icache.HitLatency)
			c.fetchCycle += stall
			c.stats.FetchStalls += stall
			c.fetchedNow = 0
		}
		c.curFetchBlk = blk
	}
	if c.fetchedNow == cfg.FetchWidth {
		c.fetchCycle++
		c.fetchedNow = 0
	}
	fetchT := c.fetchCycle
	c.fetchedNow++

	// ---- Dispatch: ROB and issue-queue occupancy ----
	dispatch := fetchT
	if i >= uint64(cfg.ROBSize) {
		if t := c.commitAt[(i-uint64(cfg.ROBSize))&(robRing-1)] + 1; t > dispatch {
			dispatch = t
		}
	}
	isFP := ins.Class.IsFP()
	if isFP {
		if c.fpSeq >= uint64(cfg.FPIQ) {
			if t := c.fpIssueAt[(c.fpSeq-uint64(cfg.FPIQ))&(iqRing-1)] + 1; t > dispatch {
				dispatch = t
			}
		}
	} else {
		if c.intSeq >= uint64(cfg.IntIQ) {
			if t := c.intIssueAt[(c.intSeq-uint64(cfg.IntIQ))&(iqRing-1)] + 1; t > dispatch {
				dispatch = t
			}
		}
	}

	// ---- Ready: register dependences ----
	ready := dispatch
	if d := uint64(ins.Dep1); d > 0 && d <= i {
		if t := c.completeAt[(i-d)&(robRing-1)]; t > ready {
			ready = t
		}
	}
	if d := uint64(ins.Dep2); d > 0 && d <= i {
		if t := c.completeAt[(i-d)&(robRing-1)]; t > ready {
			ready = t
		}
	}

	// ---- Issue: functional unit + issue bandwidth ----
	pool := c.poolFor(ins.Class)
	issue := c.nextIssueSlot(pool.earliestAt(ready))
	pool.claim(issue)
	c.claimIssueSlot(issue)
	if isFP {
		c.fpIssueAt[c.fpSeq&(iqRing-1)] = issue
		c.fpSeq++
	} else {
		c.intIssueAt[c.intSeq&(iqRing-1)] = issue
		c.intSeq++
	}

	// ---- Execute ----
	var lat int
	switch ins.Class {
	case trace.IntALU:
		lat = cfg.IntALULat
	case trace.IntMult:
		lat = cfg.IntMultLat
	case trace.FPALU:
		lat = cfg.FPALULat
	case trace.FPMult:
		lat = cfg.FPMultLat
	case trace.Load:
		c.stats.Loads++
		lat = c.dcache.Access(geom.Addr(ins.Addr), cache.Read)
	case trace.Store:
		c.stats.Stores++
		c.dcache.Access(geom.Addr(ins.Addr), cache.Write)
		lat = 1 // retires into the write buffer
	case trace.Branch:
		lat = 1
	default:
		lat = 1
	}
	complete := issue + uint64(lat)
	c.completeAt[i&(robRing-1)] = complete

	// ---- Commit: in order, CommitWidth per cycle ----
	ct := complete
	if i > 0 {
		if t := c.commitAt[(i-1)&(robRing-1)]; t > ct {
			ct = t
		}
	}
	if i >= uint64(cfg.CommitWidth) {
		if t := c.commitAt[(i-uint64(cfg.CommitWidth))&(robRing-1)] + 1; t > ct {
			ct = t
		}
	}
	c.commitAt[i&(robRing-1)] = ct

	// ---- Branch resolution and fetch redirect ----
	if ins.Class == trace.Branch {
		c.stats.Branches++
		predTaken := c.gshare.Predict(ins.PC)
		c.gshare.Update(ins.PC, ins.Taken)
		predTarget, btbHit := c.btb.Predict(ins.PC)
		if ins.Taken {
			c.btb.Update(ins.PC, ins.Target)
		}
		mispredicted := predTaken != ins.Taken ||
			(ins.Taken && (!btbHit || predTarget != ins.Target))
		switch {
		case mispredicted:
			c.stats.Mispredicts++
			resume := complete + uint64(cfg.MispredictPenalty+c.icache.HitLatency)
			if resume > c.fetchCycle {
				c.fetchCycle = resume
			}
			c.fetchedNow = 0
			c.curFetchBlk = ^geom.Addr(0) // force an I-cache access at the target
		case ins.Taken:
			// Correctly predicted taken branch: redirect bubble scales
			// with the front-end (I-cache) latency; this is where the
			// word-disable alignment network hurts fetch.
			bubble := uint64(c.icache.HitLatency - 2)
			if bubble > 0 {
				c.fetchCycle = fetchT + bubble
				c.fetchedNow = 0
				c.stats.TakenBubbles += bubble
			}
		}
	}
	c.seq++
}

// poolFor maps a class to its functional-unit pool. Loads, stores and
// branches use the integer ALUs (address generation / condition
// evaluation).
func (c *CPU) poolFor(cl trace.Class) *fuPool {
	switch cl {
	case trace.IntMult:
		return &c.intMult
	case trace.FPALU:
		return &c.fpALU
	case trace.FPMult:
		return &c.fpMult
	default:
		return &c.intALU
	}
}

// nextIssueSlot returns the first cycle >= t with issue bandwidth left.
func (c *CPU) nextIssueSlot(t uint64) uint64 {
	for {
		e := t & (widthRing - 1)
		if c.issuedTag[e] != t {
			return t
		}
		if int(c.issuedCount[e]) < c.cfg.IssueWidth {
			return t
		}
		t++
	}
}

// claimIssueSlot consumes one issue slot at cycle t.
func (c *CPU) claimIssueSlot(t uint64) {
	e := t & (widthRing - 1)
	if c.issuedTag[e] != t {
		c.issuedTag[e] = t
		c.issuedCount[e] = 0
	}
	c.issuedCount[e]++
}
