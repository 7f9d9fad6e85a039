package pipeline

import (
	"math/rand"
	"testing"

	"vccmin/internal/cache"
	"vccmin/internal/geom"
	"vccmin/internal/trace"
)

// sliceGenerator replays a fixed instruction slice cyclically.
type sliceGenerator struct {
	Instrs []trace.Instr
	pos    int
}

func (s *sliceGenerator) Next(out *trace.Instr) {
	*out = s.Instrs[s.pos]
	s.pos++
	if s.pos == len(s.Instrs) {
		s.pos = 0
	}
}

func TestSliceGeneratorCycles(t *testing.T) {
	g := &sliceGenerator{Instrs: []trace.Instr{
		{PC: 0x100, Class: trace.IntALU},
		{PC: 0x104, Class: trace.Load, Addr: 0x8000},
	}}
	for i := 0; i < 5; i++ {
		var ins trace.Instr
		g.Next(&ins)
		if want := g.Instrs[i%2]; ins != want {
			t.Errorf("instr %d = %+v, want %+v", i, ins, want)
		}
	}
}

// MispredictRate returns mispredictions per branch.
func (s Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

// testCaches builds a fresh I$/D$ pair over a shared L2 and memory,
// mirroring the paper's hierarchy but with configurable L1 latency.
func testCaches(l1Lat, memLat int) (*cache.Cache, *cache.Cache) {
	mem := &cache.Memory{Latency: memLat}
	l2 := cache.MustNew("L2", geom.MustNew(2*1024*1024, 8, 64), 20, mem)
	ic := cache.MustNew("IL1", geom.MustNew(32*1024, 8, 64), l1Lat, l2)
	dc := cache.MustNew("DL1", geom.MustNew(32*1024, 8, 64), l1Lat, l2)
	return ic, dc
}

func run(t *testing.T, instrs []trace.Instr, n int, l1Lat int) Stats {
	t.Helper()
	ic, dc := testCaches(l1Lat, 51)
	cpu := MustNew(TableII(), ic, dc)
	return cpu.Run(&sliceGenerator{Instrs: instrs}, n)
}

func TestIndependentALUHitsCommitWidth(t *testing.T) {
	// Independent single-cycle ALU ops: commit width (4) bound.
	instrs := []trace.Instr{{PC: 0x100, Class: trace.IntALU}}
	s := run(t, instrs, 40000, 3)
	if ipc := s.IPC(); ipc < 3.5 || ipc > 4.01 {
		t.Errorf("independent ALU IPC = %v, want ≈4 (commit width)", ipc)
	}
}

func TestSerialDependenceChainIPC1(t *testing.T) {
	// Each op depends on the previous: one per cycle at latency 1.
	instrs := []trace.Instr{{PC: 0x100, Class: trace.IntALU, Dep1: 1}}
	s := run(t, instrs, 20000, 3)
	if ipc := s.IPC(); ipc < 0.95 || ipc > 1.05 {
		t.Errorf("serial chain IPC = %v, want ≈1", ipc)
	}
}

func TestMultiplyChainBoundByLatency(t *testing.T) {
	instrs := []trace.Instr{{PC: 0x100, Class: trace.IntMult, Dep1: 1}}
	s := run(t, instrs, 10000, 3)
	want := 1.0 / float64(TableII().IntMultLat)
	if ipc := s.IPC(); ipc < want*0.9 || ipc > want*1.1 {
		t.Errorf("multiply chain IPC = %v, want ≈%v", ipc, want)
	}
}

func TestFPALUThroughputBoundByOneUnit(t *testing.T) {
	// Independent FP adds, but only one FP ALU: IPC ≈ 1.
	instrs := []trace.Instr{{PC: 0x100, Class: trace.FPALU}}
	s := run(t, instrs, 20000, 3)
	if ipc := s.IPC(); ipc < 0.9 || ipc > 1.05 {
		t.Errorf("FP ALU stream IPC = %v, want ≈1 (single unit)", ipc)
	}
}

func TestLoadChainTracksDCacheLatency(t *testing.T) {
	// Pointer-chase: each load depends on the previous one and hits in
	// the D-cache, so IPC ≈ 1/latency. The word-disable +1 cycle must
	// show up directly.
	chase := []trace.Instr{{PC: 0x100, Class: trace.Load, Addr: 0x8000, Dep1: 1}}
	s3 := run(t, chase, 20000, 3)
	s4 := run(t, chase, 20000, 4)
	want3, want4 := 1.0/3, 1.0/4
	if ipc := s3.IPC(); ipc < want3*0.9 || ipc > want3*1.1 {
		t.Errorf("load chain IPC at latency 3 = %v, want ≈%v", ipc, want3)
	}
	if ipc := s4.IPC(); ipc < want4*0.9 || ipc > want4*1.1 {
		t.Errorf("load chain IPC at latency 4 = %v, want ≈%v", ipc, want4)
	}
}

func TestIndependentLoadsOverlap(t *testing.T) {
	// Independent hitting loads: the model must overlap them (no chain),
	// reaching well above 1/latency.
	instrs := []trace.Instr{{PC: 0x100, Class: trace.Load, Addr: 0x8000}}
	s := run(t, instrs, 20000, 3)
	if ipc := s.IPC(); ipc < 2 {
		t.Errorf("independent hitting loads IPC = %v, want > 2 (overlapped)", ipc)
	}
}

func TestPredictedTakenBranchBubble(t *testing.T) {
	// A self-loop branch, perfectly predictable: costs the redirect
	// bubble every iteration (1 cycle at I$ latency 3), so IPC ≈ 1.
	instrs := []trace.Instr{{PC: 0x100, Class: trace.Branch, Taken: true, Target: 0x100}}
	s := run(t, instrs, 20000, 3)
	if s.Branches != 20000 {
		t.Fatalf("branches = %d", s.Branches)
	}
	if rate := s.MispredictRate(); rate > 0.01 {
		t.Errorf("self-loop mispredict rate = %v, want ≈0", rate)
	}
	if ipc := s.IPC(); ipc < 0.85 || ipc > 1.1 {
		t.Errorf("predictable taken-branch loop IPC = %v, want ≈1", ipc)
	}
	// With a slower I-cache (word-disable), the bubble doubles: IPC ≈ 0.5.
	s4 := run(t, instrs, 20000, 4)
	if ipc := s4.IPC(); ipc < 0.4 || ipc > 0.6 {
		t.Errorf("taken-branch loop IPC at I$ latency 4 = %v, want ≈0.5", ipc)
	}
}

func TestRandomBranchesPayPenalty(t *testing.T) {
	// Alternating taken/not-taken at one PC with a short pattern is
	// learnable; instead use two interleaved branches whose outcomes
	// differ each visit — construct a 4-entry pattern that gshare with
	// global history can learn, versus a pseudo-random stream it cannot.
	predictable := []trace.Instr{
		{PC: 0x100, Class: trace.Branch, Taken: true, Target: 0x200},
		{PC: 0x200, Class: trace.Branch, Taken: false},
		{PC: 0x204, Class: trace.Branch, Taken: true, Target: 0x100},
	}
	sp := run(t, predictable, 30000, 3)
	if rate := sp.MispredictRate(); rate > 0.05 {
		t.Errorf("predictable pattern mispredict rate = %v", rate)
	}

	// Genuinely random outcomes, long enough that the trace never
	// replays: no history-based predictor can learn them.
	rng := rand.New(rand.NewSource(99))
	random := make([]trace.Instr, 0, 30000)
	for i := 0; i < 30000; i++ {
		taken := rng.Intn(2) == 0
		ins := trace.Instr{PC: 0x100, Class: trace.Branch, Taken: taken}
		if taken {
			ins.Target = 0x100
		}
		random = append(random, ins)
	}
	sr := run(t, random, 30000, 3)
	if rate := sr.MispredictRate(); rate < 0.25 {
		t.Errorf("random branch mispredict rate = %v, want high", rate)
	}
	if sr.IPC() >= sp.IPC() {
		t.Errorf("random branches should be slower: %v vs %v", sr.IPC(), sp.IPC())
	}
}

func TestICacheMissesStallFetch(t *testing.T) {
	// A code footprint larger than the I$ forces misses; compare against
	// a tiny loop. Same instruction class mix otherwise.
	big := make([]trace.Instr, 0, 4096)
	for b := 0; b < 2048; b++ { // 2048 blocks * 64B = 128KB of code
		pc := uint64(0x40000 + b*1024) // one instr per block to maximize misses
		big = append(big, trace.Instr{PC: pc, Class: trace.IntALU})
	}
	sBig := run(t, big, 20000, 3)
	small := []trace.Instr{{PC: 0x100, Class: trace.IntALU}}
	sSmall := run(t, small, 20000, 3)
	if sBig.IPC() >= sSmall.IPC()*0.7 {
		t.Errorf("I$-thrashing code should be much slower: %v vs %v", sBig.IPC(), sSmall.IPC())
	}
	if sBig.FetchStalls == 0 {
		t.Error("expected fetch stalls from I$ misses")
	}
}

func TestDCacheMissesHurt(t *testing.T) {
	// Loads over a 1MB working set (L2 resident) vs a 4KB one.
	bigWS := make([]trace.Instr, 0, 16384)
	for i := 0; i < 16384; i++ {
		bigWS = append(bigWS, trace.Instr{PC: 0x100, Class: trace.Load, Addr: uint64(0x100000 + i*64), Dep1: 1})
	}
	sBig := run(t, bigWS, 16384, 3)
	smallWS := make([]trace.Instr, 0, 64)
	for i := 0; i < 64; i++ {
		smallWS = append(smallWS, trace.Instr{PC: 0x100, Class: trace.Load, Addr: uint64(0x100000 + i*64), Dep1: 1})
	}
	sSmall := run(t, smallWS, 16384, 3)
	if sBig.IPC() >= sSmall.IPC()*0.5 {
		t.Errorf("L2-resident chase should be much slower: %v vs %v", sBig.IPC(), sSmall.IPC())
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() Stats {
		ic, dc := testCaches(3, 51)
		cpu := MustNew(TableII(), ic, dc)
		instrs := []trace.Instr{
			{PC: 0x100, Class: trace.Load, Addr: 0x8000, Dep1: 2},
			{PC: 0x104, Class: trace.IntALU, Dep1: 1},
			{PC: 0x108, Class: trace.Branch, Taken: true, Target: 0x100},
		}
		return cpu.Run(&sliceGenerator{Instrs: instrs}, 5000)
	}
	a, b := mk(), mk()
	if a != b {
		t.Errorf("identical runs diverged: %+v vs %+v", a, b)
	}
}

func TestStatsAccounting(t *testing.T) {
	instrs := []trace.Instr{
		{PC: 0x100, Class: trace.Load, Addr: 0x8000},
		{PC: 0x104, Class: trace.Store, Addr: 0x8100},
		{PC: 0x108, Class: trace.IntALU},
		{PC: 0x10C, Class: trace.Branch, Taken: false},
	}
	s := run(t, instrs, 4000, 3)
	if s.Instructions != 4000 {
		t.Errorf("instructions = %d, want 4000", s.Instructions)
	}
	if s.Loads != 1000 || s.Stores != 1000 || s.Branches != 1000 {
		t.Errorf("class counts: loads %d stores %d branches %d, want 1000 each", s.Loads, s.Stores, s.Branches)
	}
	if s.Cycles == 0 {
		t.Error("zero cycles")
	}
	if s.IPC() <= 0 || s.IPC() > float64(TableII().CommitWidth) {
		t.Errorf("IPC %v out of (0, commit width]", s.IPC())
	}
}

func TestConfigValidation(t *testing.T) {
	ic, dc := testCaches(3, 51)
	bad := TableII()
	bad.ROBSize = 0
	if _, err := New(bad, ic, dc); err == nil {
		t.Error("accepted zero ROB")
	}
	bad = TableII()
	bad.ROBSize = robRing + 1
	if _, err := New(bad, ic, dc); err == nil {
		t.Error("accepted oversized ROB")
	}
	bad = TableII()
	bad.IntALUs = 0
	if _, err := New(bad, ic, dc); err == nil {
		t.Error("accepted zero ALUs")
	}
	bad = TableII()
	bad.FPIQ = iqRing + 1
	if _, err := New(bad, ic, dc); err == nil {
		t.Error("accepted oversized IQ")
	}
	if _, err := New(TableII(), nil, dc); err == nil {
		t.Error("accepted nil icache")
	}
	if err := TableII().Check(); err != nil {
		t.Errorf("TableII config invalid: %v", err)
	}
}

func TestZeroInstructionRun(t *testing.T) {
	ic, dc := testCaches(3, 51)
	cpu := MustNew(TableII(), ic, dc)
	s := cpu.Run(&sliceGenerator{Instrs: []trace.Instr{{PC: 0x100}}}, 0)
	if s.Instructions != 0 || s.Cycles != 0 {
		t.Errorf("zero-instruction run produced %+v", s)
	}
	if s.IPC() != 0 {
		t.Error("IPC of empty run should be 0")
	}
}

func TestROBLimitsRunahead(t *testing.T) {
	// One very long load miss followed by independent ALU work: the ROB
	// (128) caps how much work proceeds behind the miss. With a larger
	// ROB the same stream finishes faster.
	instrs := make([]trace.Instr, 0, 256)
	for i := 0; i < 255; i++ {
		if i%128 == 0 {
			instrs = append(instrs, trace.Instr{PC: 0x100, Class: trace.Load, Addr: uint64(0x40000000 + i*1024*1024), Dep1: 1})
		} else {
			instrs = append(instrs, trace.Instr{PC: 0x104, Class: trace.IntALU})
		}
	}
	runWith := func(rob int) Stats {
		ic, dc := testCaches(3, 255)
		cfg := TableII()
		cfg.ROBSize = rob
		cpu := MustNew(cfg, ic, dc)
		return cpu.Run(&sliceGenerator{Instrs: instrs}, 20000)
	}
	small, large := runWith(32), runWith(256)
	if large.IPC() <= small.IPC() {
		t.Errorf("larger ROB should help hide misses: %v vs %v", large.IPC(), small.IPC())
	}
}
