package pipeline

import (
	"testing"

	"vccmin/internal/trace"
)

// TestIssueWidthCap: with more parallel single-cycle work than the issue
// width can move, IPC is bound by the commit width, and shrinking the
// issue width below the commit width binds tighter.
func TestIssueWidthCap(t *testing.T) {
	instrs := []trace.Instr{{PC: 0x100, Class: trace.IntALU}}
	runWidth := func(w int) float64 {
		ic, dc := testCaches(t, 3, 51)
		cfg := TableII()
		cfg.IssueWidth = w
		cpu := MustNew(cfg, ic, dc)
		return cpu.Run(&sliceGenerator{Instrs: instrs}, 20000).IPC()
	}
	if ipc := runWidth(2); ipc > 2.05 {
		t.Errorf("issue width 2 should cap IPC at 2, got %v", ipc)
	}
	if ipc := runWidth(6); ipc < 3.5 {
		t.Errorf("issue width 6 should allow commit-width IPC, got %v", ipc)
	}
}

// TestFPIssueQueueBlocksDispatch: two independent FP streams can issue to
// the two FP units in parallel, but a one-entry FP queue serializes their
// dispatch to one per cycle.
func TestFPIssueQueueBlocksDispatch(t *testing.T) {
	instrs := []trace.Instr{
		{PC: 0x100, Class: trace.FPALU},
		{PC: 0x104, Class: trace.FPMult},
	}
	run := func(fpq int) float64 {
		ic, dc := testCaches(t, 3, 51)
		cfg := TableII()
		cfg.FPIQ = fpq
		cpu := MustNew(cfg, ic, dc)
		return cpu.Run(&sliceGenerator{Instrs: instrs}, 20000).IPC()
	}
	small, large := run(1), run(20)
	if large < 1.8 {
		t.Errorf("two FP units should sustain ≈2 FP/cycle, got %v", large)
	}
	if small > 1.1 {
		t.Errorf("one-entry FP queue should serialize dispatch to ≈1/cycle, got %v", small)
	}
}

// TestIntIssueQueueLimit mirrors the FP case on the integer side.
func TestIntIssueQueueLimit(t *testing.T) {
	// Long-latency multiplies occupy the INT queue.
	instrs := []trace.Instr{
		{PC: 0x100, Class: trace.IntMult, Dep1: 1},
		{PC: 0x104, Class: trace.IntALU},
	}
	run := func(iq int) float64 {
		ic, dc := testCaches(t, 3, 51)
		cfg := TableII()
		cfg.IntIQ = iq
		cpu := MustNew(cfg, ic, dc)
		return cpu.Run(&sliceGenerator{Instrs: instrs}, 20000).IPC()
	}
	small, large := run(2), run(40)
	if small >= large {
		t.Errorf("tiny INT queue should throttle: %v vs %v", small, large)
	}
}

// TestFunctionalUnitContention: four independent multiply chains saturate
// the multiplier pool exactly.
func TestFunctionalUnitContention(t *testing.T) {
	instrs := []trace.Instr{{PC: 0x100, Class: trace.IntMult}}
	run := func(units int) float64 {
		ic, dc := testCaches(t, 3, 51)
		cfg := TableII()
		cfg.IntMults = units
		cpu := MustNew(cfg, ic, dc)
		return cpu.Run(&sliceGenerator{Instrs: instrs}, 20000).IPC()
	}
	// Fully pipelined units: throughput = units per cycle up to widths.
	if ipc := run(1); ipc > 1.05 {
		t.Errorf("1 multiplier should cap IPC at 1, got %v", ipc)
	}
	if ipc := run(4); ipc < 3.3 {
		t.Errorf("4 multipliers should reach commit width, got %v", ipc)
	}
}

// TestBTBMissOnTakenBranchCostsFullRedirect: a taken branch whose target
// the BTB has never seen must pay the mispredict-class penalty once, then
// train.
func TestBTBMissOnTakenBranchCostsFullRedirect(t *testing.T) {
	ic, dc := testCaches(t, 3, 51)
	cpu := MustNew(TableII(), ic, dc)
	// Many distinct branch PCs, visited twice each: first visit BTB-cold.
	instrs := make([]trace.Instr, 0, 512)
	for i := 0; i < 256; i++ {
		pc := uint64(0x1000 + i*64)
		instrs = append(instrs, trace.Instr{PC: pc, Class: trace.Branch, Taken: true, Target: pc + 4})
	}
	s := cpu.Run(&sliceGenerator{Instrs: instrs}, 256)
	if s.Mispredicts != 256 {
		t.Errorf("first visits should all misfetch: %d/256", s.Mispredicts)
	}
	// Second pass trains the 2-bit counters from weakly to strongly taken;
	// by the third pass both the BTB and gshare are warm.
	cpu.Run(&sliceGenerator{Instrs: instrs}, 256)
	s3 := cpu.Run(&sliceGenerator{Instrs: instrs}, 256)
	if s3.Mispredicts > 16 {
		t.Errorf("third visits should mostly predict correctly: %d mispredicts", s3.Mispredicts)
	}
}

// TestCommitWidthBound: even with infinite-width everything else, commit
// width caps IPC.
func TestCommitWidthBound(t *testing.T) {
	ic, dc := testCaches(t, 3, 51)
	cfg := TableII()
	cfg.CommitWidth = 2
	cfg.FetchWidth = 8
	cpu := MustNew(cfg, ic, dc)
	s := cpu.Run(&sliceGenerator{Instrs: []trace.Instr{{PC: 0x100, Class: trace.IntALU}}}, 20000)
	if ipc := s.IPC(); ipc > 2.05 {
		t.Errorf("commit width 2 exceeded: IPC %v", ipc)
	}
}

// TestConsecutiveRunsMeasureDeltas: two Run calls on one CPU return
// per-call statistics, not cumulative ones.
func TestConsecutiveRunsMeasureDeltas(t *testing.T) {
	ic, dc := testCaches(t, 3, 51)
	cpu := MustNew(TableII(), ic, dc)
	gen := &sliceGenerator{Instrs: []trace.Instr{{PC: 0x100, Class: trace.IntALU, Dep1: 1}}}
	a := cpu.Run(gen, 5000)
	b := cpu.Run(gen, 5000)
	if a.Instructions != 5000 || b.Instructions != 5000 {
		t.Errorf("per-run instruction counts: %d, %d", a.Instructions, b.Instructions)
	}
	if b.Cycles == 0 || b.Cycles > a.Cycles*2 {
		t.Errorf("second-run cycles implausible: %d vs %d", b.Cycles, a.Cycles)
	}
}
