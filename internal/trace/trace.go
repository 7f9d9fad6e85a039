// Package trace defines the instruction-stream representation consumed by
// the out-of-order timing model and produced by the synthetic workload
// generators. Instructions carry everything a trace-driven timing
// simulation needs: class, PC, memory address, branch outcome/target, and
// register dependence distances.
package trace

import "fmt"

// Class is an instruction's functional category; it selects the execution
// latency and functional-unit pool (Table II).
type Class uint8

const (
	IntALU  Class = iota // 1-cycle integer op, 4 units
	IntMult              // 7-cycle integer multiply/divide, 4 units
	FPALU                // 4-cycle FP add/compare, 1 unit
	FPMult               // 4-cycle FP multiply/divide, 1 unit
	Load                 // D-cache access
	Store                // D-cache access, non-blocking
	Branch               // resolves in execute; redirects fetch
)

// NumClasses is the number of instruction classes.
const NumClasses = 7

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case IntALU:
		return "intalu"
	case IntMult:
		return "intmult"
	case FPALU:
		return "fpalu"
	case FPMult:
		return "fpmult"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// IsMem reports whether the class accesses the data cache.
func (c Class) IsMem() bool { return c == Load || c == Store }

// IsFP reports whether the class uses the floating-point issue queue.
func (c Class) IsFP() bool { return c == FPALU || c == FPMult }

// Instr is one dynamic instruction.
type Instr struct {
	PC    uint64
	Class Class

	// Addr is the effective address of a Load or Store.
	Addr uint64

	// Branch fields.
	Taken  bool
	Target uint64

	// Dep1 and Dep2 are register dependence distances: this instruction's
	// sources were produced by the instructions Dep1 and Dep2 positions
	// earlier in the dynamic stream. Zero means no dependence.
	Dep1, Dep2 int32
}

// Generator produces a dynamic instruction stream. Next fills in
// the provided Instr (avoiding per-instruction allocation) and is expected
// to produce an unbounded stream.
type Generator interface {
	Next(*Instr)
}
