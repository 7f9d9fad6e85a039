// Package sim assembles complete simulated systems — core, predictors,
// L1 I/D caches, optional victim cache, L2 and memory — for each of the
// paper's Table III configurations, and runs benchmarks on them.
//
// Operating modes (Table III):
//
//	High voltage: 3 GHz, memory 255 cycles, all caches fully reliable.
//	Low voltage:  600 MHz, memory 51 cycles; the L1s keep only what the
//	              active scheme can certify (block-disable way masks, or
//	              word-disabling's halved geometry).
//
// Latencies: L1 3 cycles (4 with word-disabling's alignment network, in
// both modes), L2 20 cycles, victim cache +1.
package sim

import (
	"fmt"

	"vccmin/internal/cache"
	"vccmin/internal/core"
	"vccmin/internal/faults"
	"vccmin/internal/geom"
	"vccmin/internal/pipeline"
	"vccmin/internal/trace"
	"vccmin/internal/workload"
)

// Mode is the operating voltage domain.
type Mode int

const (
	HighVoltage Mode = iota
	LowVoltage
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == HighVoltage {
		return "high-voltage"
	}
	return "low-voltage"
}

// Scheme selects the cache fault-tolerance mechanism.
type Scheme int

const (
	Baseline Scheme = iota
	WordDisable
	BlockDisable
	IncrementalWordDisable // extension: the Section IV.C variant, simulated
	BitFix                 // extension: Wilkerson's bit-pair repair (Section II), simulated
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case Baseline:
		return "baseline"
	case WordDisable:
		return "word-disable"
	case BlockDisable:
		return "block-disable"
	case IncrementalWordDisable:
		return "incremental-word-disable"
	case BitFix:
		return "bit-fix"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// VictimKind selects the victim-cache option of Section III.A.
type VictimKind int

const (
	NoVictim  VictimKind = iota
	Victim10T            // 10T cells: all 16 entries usable at low voltage
	Victim6T             // 6T cells + disable bit: half the entries at low voltage
)

// String implements fmt.Stringer.
func (v VictimKind) String() string {
	switch v {
	case NoVictim:
		return "no-victim"
	case Victim10T:
		return "victim-10T"
	case Victim6T:
		return "victim-6T"
	}
	return fmt.Sprintf("VictimKind(%d)", int(v))
}

// TableIII holds the mode-dependent machine parameters.
type TableIII struct {
	MemLatency     int
	L1Size         int
	L1Ways         int
	L1BlockBytes   int
	L1Latency      int
	L2Size         int
	L2Ways         int
	L2Latency      int
	VictimEntries  int
	VictimLatency  int
	WordDisableLat int // L1 latency under word-disabling (alignment network)
}

// Reference returns the paper's Table III parameters for a mode.
func Reference(m Mode) TableIII {
	t := TableIII{
		MemLatency:     255,
		L1Size:         32 * 1024,
		L1Ways:         8,
		L1BlockBytes:   64,
		L1Latency:      3,
		L2Size:         2 * 1024 * 1024,
		L2Ways:         8,
		L2Latency:      20,
		VictimEntries:  16,
		VictimLatency:  1,
		WordDisableLat: 4,
	}
	if m == LowVoltage {
		t.MemLatency = 51
	}
	return t
}

// Options configures one simulation run.
type Options struct {
	Benchmark string
	Mode      Mode
	Scheme    Scheme
	Victim    VictimKind

	// Pair supplies the I/D fault maps; required for BlockDisable and
	// IncrementalWordDisable at low voltage, ignored otherwise. Each map
	// must have the geometry of the L1 it gates.
	Pair *faults.Pair

	// Instructions to simulate (default 200k).
	Instructions int

	// Warmup instructions executed before measurement begins: caches and
	// predictors run but their statistics (and the cycle count) reset at
	// the measurement boundary. Defaults to Instructions/2. The paper's
	// 100M-instruction runs make warmup negligible; at reproduction scale
	// it must be explicit. Set to -1 to disable.
	Warmup int

	// Seed for the workload generator.
	Seed int64

	// Machine overrides; zero value means Reference(Mode). The core is
	// always pipeline.TableII().
	Machine *TableIII

	// L2Map applies block-disabling to the L2 as well at low voltage
	// (extension). It must have the L2's geometry.
	L2Map *faults.Map

	// PrefetchNextLine enables the L1D next-line prefetcher (extension).
	PrefetchNextLine bool
}

// Result reports one simulation run.
type Result struct {
	Options Options
	Stats   pipeline.Stats
	IPC     float64

	ICache        cache.Stats
	DCache        cache.Stats
	L2            cache.Stats
	VictimHitRate float64

	// Low-voltage capacity actually available to the run.
	ICapacity float64
	DCapacity float64
}

// System is an assembled machine ready to run.
type System struct {
	CPU    *pipeline.CPU
	ICache *cache.Cache
	DCache *cache.Cache
	L2     *cache.Cache
	Mem    *cache.Memory

	iCap, dCap float64
}

// Reset returns the whole machine to its just-built state — cold caches
// and predictors, empty pipeline rings, zeroed statistics — while keeping
// the assembled configuration: geometries, latencies, way-enable maps and
// the victim cache wiring survive. A Run after Reset is bit-identical to
// a Run on a freshly Built system with the same Options, which is what
// lets the dvfs probe reuse one system per mode across phases instead of
// rebuilding the hierarchy for every (mode, phase) cell.
func (s *System) Reset() {
	s.ICache.Reset()
	s.DCache.Reset()
	s.L2.Reset()
	s.Mem.Accesses = 0
	s.CPU.Reset()
}

// Build assembles the system for opts without running it.
func Build(opts Options) (*System, error) { return assemble(opts, nil) }

// assemble builds the system for opts. A non-nil prev donates its L2 —
// most of a system's memory — when the new L2 has the same shape: the
// cache is reset to its just-built state instead of reallocated. prev
// must not be used afterwards.
func assemble(opts Options, prev *System) (*System, error) {
	machine := Reference(opts.Mode)
	if opts.Machine != nil {
		machine = *opts.Machine
	}

	mem := &cache.Memory{Latency: machine.MemLatency}
	l2Geom, err := geom.New(machine.L2Size, machine.L2Ways, machine.L1BlockBytes)
	if err != nil {
		return nil, fmt.Errorf("sim: l2 geometry: %w", err)
	}
	var l2 *cache.Cache
	if prev != nil && prev.L2.Geom == l2Geom && prev.L2.HitLatency == machine.L2Latency {
		l2 = prev.L2
		l2.Reset()
		l2.Next, l2.Enable = mem, nil
	} else if l2, err = cache.New("L2", l2Geom, machine.L2Latency, mem); err != nil {
		return nil, err
	}
	if opts.L2Map != nil && opts.Mode == LowVoltage {
		if l2.Enable, err = gate("L2", opts.L2Map, l2Geom, core.BuildBlockDisable); err != nil {
			return nil, err
		}
	}

	l1Size, l1Ways, l1Lat := machine.L1Size, machine.L1Ways, machine.L1Latency
	switch {
	case opts.Scheme == WordDisable:
		l1Lat = machine.WordDisableLat
		if opts.Mode == LowVoltage {
			l1Size /= 2
			l1Ways /= 2
		}
	case opts.Scheme == BitFix && opts.Mode == LowVoltage:
		// A quarter of the ways hold fix bits; the patching network adds
		// two cycles. At high voltage bit-fix is bypassed entirely.
		bf := core.ReferenceBitFix()
		l1Lat += bf.ExtraLatencyCycles
		l1Size = l1Size * 3 / 4
		l1Ways = l1Ways * 3 / 4
	}
	l1Geom, err := geom.New(l1Size, l1Ways, machine.L1BlockBytes)
	if err != nil {
		return nil, fmt.Errorf("sim: l1 geometry: %w", err)
	}

	ic, err := cache.New("IL1", l1Geom, l1Lat, l2)
	if err != nil {
		return nil, err
	}
	dc, err := cache.New("DL1", l1Geom, l1Lat, l2)
	if err != nil {
		return nil, err
	}
	dc.PrefetchNextLine = opts.PrefetchNextLine

	sys := &System{ICache: ic, DCache: dc, L2: l2, Mem: mem, iCap: 1, dCap: 1}

	if opts.Mode == LowVoltage {
		switch opts.Scheme {
		case BlockDisable:
			if opts.Pair == nil {
				return nil, fmt.Errorf("sim: block-disable at low voltage needs a fault-map pair")
			}
			if ic.Enable, err = gate("I-cache", opts.Pair.I, l1Geom, core.BuildBlockDisable); err != nil {
				return nil, err
			}
			if dc.Enable, err = gate("D-cache", opts.Pair.D, l1Geom, core.BuildBlockDisable); err != nil {
				return nil, err
			}
			sys.iCap = ic.Enable.CapacityFraction()
			sys.dCap = dc.Enable.CapacityFraction()
		case IncrementalWordDisable:
			if opts.Pair == nil {
				return nil, fmt.Errorf("sim: incremental word-disable at low voltage needs a fault-map pair")
			}
			if ic.Enable, err = gate("I-cache", opts.Pair.I, l1Geom, core.BuildIncrementalEnable); err != nil {
				return nil, err
			}
			if dc.Enable, err = gate("D-cache", opts.Pair.D, l1Geom, core.BuildIncrementalEnable); err != nil {
				return nil, err
			}
			// The repairable pairs run merged at the alignment-network
			// latency; we charge it on every access (conservative).
			ic.HitLatency = machine.WordDisableLat
			dc.HitLatency = machine.WordDisableLat
			sys.iCap = ic.Enable.CapacityFraction()
			sys.dCap = dc.Enable.CapacityFraction()
		case WordDisable:
			sys.iCap, sys.dCap = 0.5, 0.5
		case BitFix:
			sys.iCap, sys.dCap = 0.75, 0.75
		}
	}

	if opts.Victim != NoVictim {
		entries := machine.VictimEntries
		if opts.Victim == Victim6T && opts.Mode == LowVoltage {
			entries = core.VictimUsableEntries(entries)
		}
		v, err := cache.NewVictim(entries, machine.VictimLatency, machine.L1BlockBytes)
		if err != nil {
			return nil, err
		}
		dc.Victim = v
	}

	cpu, err := pipeline.New(pipeline.TableII(), ic, dc)
	if err != nil {
		return nil, err
	}
	sys.CPU = cpu
	return sys, nil
}

// gate derives the way-enable map of the cache of geometry g from its
// fault map m. A map drawn for another geometry is refused: its per-set
// masks would not line up with the cache's sets and ways.
func gate(cache string, m *faults.Map, g geom.Geometry, build func(*faults.Map) *core.BlockDisableMap) (*core.BlockDisableMap, error) {
	switch {
	case m == nil:
		return nil, fmt.Errorf("sim: %s fault map is missing", cache)
	case m.Geom != g:
		return nil, fmt.Errorf("sim: %s fault map is for a %v, the cache is a %v", cache, m.Geom, g)
	}
	return build(m), nil
}

// withDefaults fills in the run length: 200k measured instructions
// unless set, a warm-up of half the measured length unless set, and no
// warm-up when Warmup is negative.
func (o Options) withDefaults() Options {
	if o.Instructions <= 0 {
		o.Instructions = 200_000
	}
	if o.Warmup == 0 {
		o.Warmup = o.Instructions / 2
	}
	if o.Warmup < 0 {
		o.Warmup = 0
	}
	return o
}

// Run builds the system for opts and simulates the benchmark, drawing
// its instruction stream live. A stream is recorded only where it is
// replayed (Recording, Replayer): Run simulates its stream once, and
// recording it first would cost 8 bytes per instruction of a length
// the caller picks (a /v1/sim request's instructions has no service
// limit), where the live stream holds constant memory.
func Run(opts Options) (Result, error) {
	opts = opts.withDefaults()
	prof, err := workload.ByName(opts.Benchmark)
	if err != nil {
		return Result{}, err
	}
	gen, err := workload.NewGenerator(prof, opts.Seed)
	if err != nil {
		return Result{}, err
	}
	sys, err := Build(opts)
	if err != nil {
		return Result{}, err
	}
	return sys.run(opts, gen), nil
}

// Recording is the instruction stream of one run — the warm-up and
// measured instructions of a benchmark under a seed — drawn once, so
// that runs differing only in the machine (a sweep cell's fault-free
// baseline and every fault trial) replay it instead of regenerating it.
// Replaying is bit-identical to Run's live stream: the pipeline consumes
// exactly Warmup+Instructions instructions and never fetches a wrong
// path.
type Recording struct {
	warmup, instructions int
	prof                 workload.Profile // last profile looked up
	stream               workload.Recording
}

// Record draws r as the stream Run(opts) would simulate, reusing r's
// buffers: once r has held a stream at least as long, re-recording the
// same benchmark allocates nothing. On error r is left empty and replays
// nothing.
func (r *Recording) Record(opts Options) error {
	opts = opts.withDefaults()
	if r.prof.Name == "" || r.prof.Name != opts.Benchmark {
		prof, err := workload.ByName(opts.Benchmark)
		if err != nil {
			r.stream.Reset()
			return err
		}
		r.prof = prof
	}
	if err := r.stream.Record(r.prof, opts.Seed, opts.Warmup+opts.Instructions); err != nil {
		return err
	}
	r.warmup, r.instructions = opts.Warmup, opts.Instructions
	return nil
}

// check reports whether r holds exactly the stream of the defaulted
// opts: a mismatched recording is refused, never simulated.
func (r *Recording) check(opts Options) error {
	switch {
	case r.stream.Benchmark() != opts.Benchmark:
		return fmt.Errorf("sim: recording is of benchmark %q, run wants %q", r.stream.Benchmark(), opts.Benchmark)
	case r.stream.Seed() != opts.Seed:
		return fmt.Errorf("sim: recording has seed %d, run wants %d", r.stream.Seed(), opts.Seed)
	case r.warmup != opts.Warmup || r.instructions != opts.Instructions:
		return fmt.Errorf("sim: recording holds %d warm-up + %d instructions, run wants %d + %d",
			r.warmup, r.instructions, opts.Warmup, opts.Instructions)
	}
	return nil
}

// Replayer runs a succession of machines — a sweep cell's baseline and
// fault trials — holding one system at a time: each Run assembles its
// machine from the previous one, reusing the L2 (reset, not
// reallocated) whenever its shape is unchanged. The zero value is ready
// to use; a Replayer is not safe for concurrent use.
type Replayer struct{ sys *System }

// Run assembles the system for opts and replays rec on it. The result
// equals sim.Run(opts); rec must have been recorded for the same
// benchmark, seed, warm-up and length, or Run returns an error.
func (p *Replayer) Run(opts Options, rec *Recording) (Result, error) {
	opts = opts.withDefaults()
	if err := rec.check(opts); err != nil {
		return Result{}, err
	}
	sys, err := assemble(opts, p.sys)
	p.sys = sys // nil after a failed assemble, which may have taken the L2
	if err != nil {
		return Result{}, err
	}
	return sys.run(opts, rec.stream.Replay()), nil
}

func (s *System) run(opts Options, gen trace.Generator) Result {
	if opts.Warmup > 0 {
		s.CPU.Run(gen, opts.Warmup)
		s.ICache.ResetStats()
		s.DCache.ResetStats()
		s.L2.ResetStats()
		s.Mem.Accesses = 0
	}
	stats := s.CPU.Run(gen, opts.Instructions)
	res := Result{
		Options:   opts,
		Stats:     stats,
		IPC:       stats.IPC(),
		ICache:    s.ICache.Stats,
		DCache:    s.DCache.Stats,
		L2:        s.L2.Stats,
		ICapacity: s.iCap,
		DCapacity: s.dCap,
	}
	if s.DCache.Victim != nil {
		res.VictimHitRate = s.DCache.Victim.HitRate()
	}
	return res
}
