package workload

import (
	"fmt"

	"vccmin/internal/trace"
)

// Recording is a generator's stream drawn once and stored compactly, so
// that several simulations of one (profile, seed) — a fault-free baseline
// and every fault trial of a sweep cell — replay it instead of drawing it
// again. Replay yields exactly the trace.Instr sequence a fresh Generator
// for the same profile and seed would.
//
// Each instruction packs into one 8-byte word, a sixth of a trace.Instr,
// using invariants the generator guarantees (Record checks every one and
// refuses a stream that breaks them):
//   - the PC is not stored: it starts at codeBase and moves to the target
//     of a taken branch, otherwise to the next instruction, wrapping at
//     the end of the code footprint, so Replay recomputes it;
//   - Dep1 and Dep2 are at most 64, so each fits in 7 bits;
//   - only a branch is ever Taken, a branch carries no Addr and a memory
//     op no Target, so one 46-bit field holds whichever the class uses.
type Recording struct {
	name   string
	seed   int64
	end    uint64   // first PC past the code footprint
	instrs []uint64 // packed instructions, layout below
	gen    Generator
}

// Packed instruction layout.
//
//	bits  0-2   Class
//	bit   3     Taken
//	bits  4-10  Dep1
//	bits 11-17  Dep2
//	bits 18-63  Addr of a load or store, Target of a branch, else 0
const (
	classMask = 7
	takenBit  = 1 << 3
	dep1Shift = 4
	dep2Shift = 11
	depMask   = 0x7F
	addrShift = 18
	maxDep    = 64
	maxAddr   = 1<<(64-addrShift) - 1
)

// Record draws the first n instructions of prof's stream under seed into
// r, replacing what r held. It reuses r's buffers, so re-recording a
// stream no longer and a profile no larger than r has held allocates
// nothing. On error r is left empty.
func (r *Recording) Record(prof Profile, seed int64, n int) error {
	r.Reset()
	if n < 0 {
		return fmt.Errorf("workload: negative recording length %d", n)
	}
	if err := r.gen.init(prof, seed); err != nil {
		return err
	}
	if cap(r.instrs) < n {
		r.instrs = make([]uint64, 0, n)
	}
	instrs := r.instrs[:n]
	end := codeBase + r.gen.footBytes
	pc := codeBase
	var ins trace.Instr
	for i := range instrs {
		r.gen.Next(&ins)
		p, err := pack(&ins, pc)
		if err != nil {
			return fmt.Errorf("workload %s: instruction %d: %w", prof.Name, i, err)
		}
		instrs[i] = p
		pc = nextPC(p, pc, end)
	}
	r.name, r.seed, r.end, r.instrs = prof.Name, seed, end, instrs
	return nil
}

// pack encodes ins, whose PC must be pc, the one Replay will recompute.
func pack(ins *trace.Instr, pc uint64) (uint64, error) {
	word, unused := ins.Addr, ins.Target
	switch {
	case ins.Class == trace.Branch:
		word, unused = ins.Target, ins.Addr
	case !ins.Class.IsMem():
		word, unused = 0, ins.Addr|ins.Target
	}
	switch {
	case ins.PC != pc:
		return 0, fmt.Errorf("PC %#x breaks the fall-through/branch sequence (want %#x)", ins.PC, pc)
	case ins.Dep1 < 0 || ins.Dep1 > maxDep || ins.Dep2 < 0 || ins.Dep2 > maxDep:
		return 0, fmt.Errorf("dependence distances %d/%d outside [0, %d]", ins.Dep1, ins.Dep2, maxDep)
	case ins.Taken && ins.Class != trace.Branch:
		return 0, fmt.Errorf("taken %s", ins.Class)
	case unused != 0:
		return 0, fmt.Errorf("%s carries an address it does not use", ins.Class)
	case word > maxAddr:
		return 0, fmt.Errorf("address %#x exceeds %d bits", word, 64-addrShift)
	}
	p := uint64(ins.Class) | uint64(ins.Dep1)<<dep1Shift | uint64(ins.Dep2)<<dep2Shift | word<<addrShift
	if ins.Taken {
		p |= takenBit
	}
	return p, nil
}

// nextPC is the PC after packed instruction p at pc: the target of a
// taken branch, otherwise the next instruction, wrapping at end (the
// generator's own rule).
func nextPC(p, pc, end uint64) uint64 {
	if p&takenBit != 0 {
		return p >> addrShift
	}
	if pc += instrSize; pc >= end {
		pc = codeBase
	}
	return pc
}

// Reset empties r, keeping its buffers for the next Record.
func (r *Recording) Reset() { r.name, r.seed, r.end, r.instrs = "", 0, 0, r.instrs[:0] }

// Benchmark names the recorded profile ("" for an empty recording).
func (r *Recording) Benchmark() string { return r.name }

// Seed is the generator seed of the recorded stream.
func (r *Recording) Seed() int64 { return r.seed }

// Len is the number of recorded instructions.
func (r *Recording) Len() int { return len(r.instrs) }

// Replay returns a generator that plays the recording from its first
// instruction. It must not be asked for more than Len instructions, and
// the recording must not be re-recorded while a replay is in use; any
// number of replays may read one recording at once.
func (r *Recording) Replay() *Replay {
	return &Replay{instrs: r.instrs, pc: codeBase, end: r.end}
}

// Replay plays a Recording back as a trace.Generator.
type Replay struct {
	instrs  []uint64
	pos     int
	pc, end uint64
}

// Next implements trace.Generator.
func (p *Replay) Next(out *trace.Instr) {
	w := p.instrs[p.pos]
	p.pos++
	c := trace.Class(w & classMask)
	// Field by field: assigning a composite literal through out measured
	// about three times slower per instruction.
	out.PC, out.Class, out.Taken = p.pc, c, w&takenBit != 0
	out.Dep1, out.Dep2 = int32(w>>dep1Shift&depMask), int32(w>>dep2Shift&depMask)
	out.Addr, out.Target = 0, 0
	switch {
	case c == trace.Branch:
		out.Target = w >> addrShift
	case c.IsMem():
		out.Addr = w >> addrShift
	}
	p.pc = nextPC(w, p.pc, p.end)
}
