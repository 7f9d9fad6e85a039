// Package workload synthesizes instruction traces that stand in for the 26
// SPEC CPU 2000 benchmarks of the paper's evaluation (we have no SPEC
// binaries or SimPoint traces; see DESIGN.md).
//
// Each benchmark is a Profile: an instruction mix, a data-reuse mixture
// (components with a working-set size in cache blocks, optionally
// concentrated in a few cache sets), an instruction footprint, a static
// branch population with per-site bias, and a register-dependence-distance
// distribution that sets the available ILP. The generator draws a dynamic
// stream from the profile with a deterministic PRNG, so every run of a
// given (profile, seed) yields the identical trace.
//
// The components give direct control over the property the paper's
// experiments stress: how the miss ratio responds to losing cache capacity
// (word-disabling halves it; block-disabling removes a random ~42%) and
// associativity, which is exactly what distinguishes capacity-sensitive
// (crafty, vortex, gcc), memory-bound (mcf, art, swim) and compute-bound
// (eon, sixtrack) benchmarks.
package workload

import (
	"fmt"
	"math"

	"vccmin/internal/lfrand"
	"vccmin/internal/trace"
)

// ReuseComponent is one level of a benchmark's data working set.
type ReuseComponent struct {
	Weight  float64 // share of reused (non-streaming) accesses
	Blocks  int     // working-set size in 64-byte blocks
	HotSets int     // >0: concentrate the component on this many cache sets
}

// Profile characterizes one benchmark.
type Profile struct {
	Name  string
	Suite string // "int" or "fp"

	// Instruction mix; the remainder is ALU work.
	LoadFrac, StoreFrac, BranchFrac float64
	FPFrac                          float64 // share of ALU ops that are floating point
	MultFrac                        float64 // share of ALU ops that are multiplies/divides

	// Data side.
	ColdFrac float64 // share of data accesses streaming through new blocks
	Reuse    []ReuseComponent

	// Instruction side.
	IFootprintBlocks int // static code size in 64-byte blocks

	// Control flow.
	StaticBranches   int
	RandomBranchFrac float64 // share of branch sites with 50/50 outcomes

	// TargetBias skews branch targets toward the front of the code
	// footprint: a site's target block is floor(N * u^TargetBias) for a
	// per-site uniform u. 1 (or 0) = uniform targets; larger values
	// concentrate execution in a hot code region, so a cache that holds
	// the hot region performs well while a halved cache thrashes — the
	// instruction-side locality of large-footprint benchmarks (crafty,
	// gcc, perlbmk, vortex).
	TargetBias float64

	// Mean register dependence distance (instructions); larger = more ILP.
	MeanDepDist float64

	// LoadChainFrac is the probability that a load's first source is the
	// most recent earlier load — a pointer-chase dependence that
	// serializes misses and exposes their full latency. Array codes sit
	// near 0.15 (addresses come from induction variables); pointer codes
	// like mcf approach 0.8.
	LoadChainFrac float64
}

// Check validates the profile.
func (p Profile) Check() error {
	frac := p.LoadFrac + p.StoreFrac + p.BranchFrac
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: profile needs a name")
	case frac < 0 || frac > 0.95:
		return fmt.Errorf("workload %s: load+store+branch = %v out of [0, 0.95]", p.Name, frac)
	case p.FPFrac < 0 || p.FPFrac > 1 || p.MultFrac < 0 || p.MultFrac > 1:
		return fmt.Errorf("workload %s: FP/mult fractions out of range", p.Name)
	case p.ColdFrac < 0 || p.ColdFrac > 1:
		return fmt.Errorf("workload %s: cold fraction %v out of range", p.Name, p.ColdFrac)
	case len(p.Reuse) == 0 && p.ColdFrac < 1 && p.LoadFrac+p.StoreFrac > 0:
		return fmt.Errorf("workload %s: memory accesses need reuse components", p.Name)
	case p.IFootprintBlocks <= 0:
		return fmt.Errorf("workload %s: instruction footprint must be positive", p.Name)
	case p.StaticBranches <= 0:
		return fmt.Errorf("workload %s: needs static branches", p.Name)
	case p.RandomBranchFrac < 0 || p.RandomBranchFrac > 1:
		return fmt.Errorf("workload %s: random branch fraction out of range", p.Name)
	case p.MeanDepDist < 1:
		return fmt.Errorf("workload %s: mean dependence distance %v must be >= 1", p.Name, p.MeanDepDist)
	case p.TargetBias < 0:
		return fmt.Errorf("workload %s: target bias %v must be non-negative", p.Name, p.TargetBias)
	case p.LoadChainFrac < 0 || p.LoadChainFrac > 1:
		return fmt.Errorf("workload %s: load chain fraction %v out of [0,1]", p.Name, p.LoadChainFrac)
	}
	for _, c := range p.Reuse {
		if c.Weight <= 0 || c.Blocks <= 0 {
			return fmt.Errorf("workload %s: reuse component %+v invalid", p.Name, c)
		}
		if c.HotSets < 0 {
			return fmt.Errorf("workload %s: negative hot sets", p.Name)
		}
	}
	return nil
}

// Address-space layout of the synthetic process image. Regions are spaced
// far apart so components never alias.
const (
	codeBase  = uint64(0x0000_4000_0000) >> 0 // instruction region
	coldBase  = uint64(0x1_0000_0000)         // streaming region
	reuseBase = uint64(0x2_0000_0000)         // first reuse component
	reuseStep = uint64(0x1_0000_0000)         // spacing between components
	blockSize = 64
	instrSize = 4
	l1Sets    = 64 // reference L1 set count, used by hot-set placement
)

// Generator draws the dynamic stream of a profile. Its PRNG is an
// lfrand.Source — byte-identical to the math/rand stream the package
// has always used, but a concrete inlinable value with allocation-free
// reseeding — and its per-site branch state lives in a slice sized to
// the profile's static branch population, so steady-state generation
// (and re-initializing a generator for a recording) never touches the
// heap.
type Generator struct {
	prof Profile
	rng  lfrand.Source

	pc        uint64
	coldNext  uint64
	cumReuse  []float64 // cumulative component weights
	depP      float64   // geometric parameter for dependence distances
	logQdep   float64   // ln(1-depP), hoisted out of depDist
	footBytes uint64
	sinceLoad int         // instructions since the last load (for load chains)
	sites     []siteState // indexed by site id
}

// siteState is a static branch's fixed character, derived on its first
// visit: its kind and its target. Every visit then draws the outcome
// afresh — a fair coin for random sites, a 99%/1% biased coin for loop
// and guard sites. The per-site bias is what a global-history predictor
// learns.
type siteState struct {
	target  uint64
	kind    siteKind
	visited bool
}

type siteKind uint8

const (
	siteRandom siteKind = iota
	siteLoop            // taken with probability 0.99
	siteGuard           // taken with probability 0.01
)

// NewGenerator builds a generator for prof seeded with seed.
func NewGenerator(prof Profile, seed int64) (*Generator, error) {
	g := new(Generator)
	if err := g.init(prof, seed); err != nil {
		return nil, err
	}
	return g, nil
}

// init points g at prof and rewinds it to seed, reusing g's buffers when
// they are large enough: re-initializing a generator for a profile no
// larger than one it has held allocates nothing.
func (g *Generator) init(prof Profile, seed int64) error {
	if err := prof.Check(); err != nil {
		return err
	}
	g.prof = prof
	g.depP = 1 / prof.MeanDepDist
	g.logQdep = math.Log(1 - g.depP)
	g.footBytes = uint64(prof.IFootprintBlocks) * blockSize
	if cap(g.sites) < prof.StaticBranches {
		g.sites = make([]siteState, prof.StaticBranches)
	}
	g.sites = g.sites[:prof.StaticBranches]
	total := 0.0
	for _, c := range prof.Reuse {
		total += c.Weight
	}
	cum := 0.0
	g.cumReuse = g.cumReuse[:0]
	for _, c := range prof.Reuse {
		cum += c.Weight / total
		g.cumReuse = append(g.cumReuse, cum)
	}
	g.rng.Seed(seed ^ int64(hash64(prof.Name)))
	g.pc = codeBase
	g.coldNext = coldBase
	g.sinceLoad = 0
	clear(g.sites)
	return nil
}

// Next implements trace.Generator.
func (g *Generator) Next(out *trace.Instr) {
	*out = trace.Instr{PC: g.pc}
	// The instruction at a PC is fixed, as in real code: the class comes
	// from a hash of the PC, not a per-visit draw. This keeps branch PCs
	// a stable subset of the footprint (so the BTB can hold them) and
	// makes the dynamic branch-history sequence repeat (so gshare can
	// learn it).
	r := float64(hash64Mix(g.pc^0xC1A55)) / float64(math.MaxUint64)
	p := &g.prof // a pointer: copying the Profile per instruction showed in profiles
	switch {
	case r < p.BranchFrac:
		out.Class = trace.Branch
		g.genBranch(out)
	case r < p.BranchFrac+p.LoadFrac:
		out.Class = trace.Load
		out.Addr = g.dataAddr()
	case r < p.BranchFrac+p.LoadFrac+p.StoreFrac:
		out.Class = trace.Store
		out.Addr = g.dataAddr()
	default:
		out.Class = g.aluClass(g.pc)
	}
	out.Dep1 = g.depDist()
	if out.Class == trace.Load && g.sinceLoad > 0 && g.sinceLoad <= 64 &&
		g.rng.Float64() < p.LoadChainFrac {
		// Pointer chase: the address depends on the previous load's value.
		out.Dep1 = int32(g.sinceLoad)
	}
	if g.rng.Float64() < 0.5 {
		out.Dep2 = g.depDist()
	}
	if out.Class == trace.Load {
		g.sinceLoad = 1
	} else if g.sinceLoad > 0 {
		g.sinceLoad++
	}
	if out.Class != trace.Branch || !out.Taken {
		g.pc = g.advance(g.pc)
	} else {
		g.pc = out.Target
	}
}

// advance steps the PC to the next instruction, wrapping at the footprint.
func (g *Generator) advance(pc uint64) uint64 {
	pc += instrSize
	if pc >= codeBase+g.footBytes {
		pc = codeBase
	}
	return pc
}

func (g *Generator) aluClass(pc uint64) trace.Class {
	fp := float64(hash64Mix(pc^0xF9))/float64(math.MaxUint64) < g.prof.FPFrac
	mult := float64(hash64Mix(pc^0x3333))/float64(math.MaxUint64) < g.prof.MultFrac
	switch {
	case fp && mult:
		return trace.FPMult
	case fp:
		return trace.FPALU
	case mult:
		return trace.IntMult
	default:
		return trace.IntALU
	}
}

// genBranch resolves the branch at the current PC: its site identity,
// outcome and target. Sites have fixed targets (BTB-friendly) and a
// fixed outcome bias (which gshare learns), except for the
// RandomBranchFrac of sites that are data-dependent coin flips.
func (g *Generator) genBranch(out *trace.Instr) {
	site := hash64Mix(out.PC) % uint64(g.prof.StaticBranches)
	st := &g.sites[site]
	if !st.visited {
		g.initSite(st, site)
	}
	switch st.kind {
	case siteRandom:
		// Data-dependent branch: a coin flip every visit, unlearnable.
		out.Taken = g.rng.Intn(2) == 0
	case siteLoop:
		// Loop back-edge: strongly taken. The per-site bias survives the
		// history noise of interleaved branches, which is what lets a
		// global-history predictor reach its realistic accuracy here.
		out.Taken = g.rng.Float64() < 0.99
	case siteGuard:
		// Error/guard test: strongly not taken.
		out.Taken = g.rng.Float64() < 0.01
	}
	out.Target = st.target
}

// initSite derives a site's fixed character on its first visit.
// Everything here comes from hash mixes, never the rng, so lazily
// initializing a site does not perturb the draw stream (init relies on
// this when it rewinds a generator by clearing its sites).
func (g *Generator) initSite(st *siteState, site uint64) {
	siteRand := float64(hash64Mix(site+0x9E3779B9)) / float64(math.MaxUint64)
	switch {
	case siteRand < g.prof.RandomBranchFrac:
		st.kind = siteRandom
	case siteRand < g.prof.RandomBranchFrac+(1-g.prof.RandomBranchFrac)*0.7:
		st.kind = siteLoop
	default:
		st.kind = siteGuard
	}
	// Fixed target: a block start inside the footprint, biased toward the
	// hot front of the code when TargetBias > 1.
	u := float64(hash64Mix(site+0x5151_5151)) / float64(math.MaxUint64)
	if g.prof.TargetBias > 1 {
		u = math.Pow(u, g.prof.TargetBias)
	}
	tgtBlock := uint64(u * float64(g.prof.IFootprintBlocks))
	if tgtBlock >= uint64(g.prof.IFootprintBlocks) {
		tgtBlock = uint64(g.prof.IFootprintBlocks) - 1
	}
	st.target = codeBase + tgtBlock*blockSize
	st.visited = true
}

// dataAddr draws the effective address of a load or store.
func (g *Generator) dataAddr() uint64 {
	p := &g.prof
	if len(p.Reuse) == 0 || g.rng.Float64() < p.ColdFrac {
		// Streaming: walk forward one word at a time through fresh memory.
		a := g.coldNext
		g.coldNext += 8
		return a
	}
	r := g.rng.Float64()
	ci := 0
	for ci < len(g.cumReuse)-1 && r > g.cumReuse[ci] {
		ci++
	}
	c := p.Reuse[ci]
	u := g.rng.Intn(c.Blocks)
	blockIdx := uint64(u)
	if c.HotSets > 0 {
		// Fold the component onto a narrow band of cache sets: set index
		// becomes u mod HotSets.
		blockIdx = uint64(u/c.HotSets)*l1Sets + uint64(u%c.HotSets)
	}
	base := reuseBase + uint64(ci)*reuseStep
	return base + blockIdx*blockSize + uint64(g.rng.Intn(blockSize/8))*8
}

// depDist draws a register dependence distance >= 1 from a geometric
// distribution with the profile's mean, capped at 64 (beyond any
// realistic scheduling window effect).
func (g *Generator) depDist() int32 {
	u := g.rng.Float64()
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	d := 1 + int32(math.Log(u)/g.logQdep)
	if d > 64 {
		d = 64
	}
	if d < 1 {
		d = 1
	}
	return d
}

// hash64 hashes a string (FNV-1a).
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// hash64Mix is a splitmix64-style integer mixer.
func hash64Mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
