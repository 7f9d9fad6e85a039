// Package dvfs is the phase-aware dual-mode scheduler: it drives the
// Table III machines across the high-voltage (3 GHz, fully reliable) and
// low-voltage (600 MHz, fault-mitigated, below Vcc-min) domains while a
// multi-phase workload executes, deciding at chunk boundaries which mode
// the next slice of the instruction stream should run in.
//
// The paper's thesis is *performance-effective* operation below Vcc-min:
// not "run slow", but switch modes so the energy saving of the
// low-voltage domain is harvested exactly where it costs the least
// performance (memory-bound phases, whose stalls shrink with the clock)
// and the high-voltage domain is spent where it buys the most (compute
// phases). The scheduler executes one shared instruction stream (the
// phases of a workload.MultiPhase, in order) on two persistent
// sim.Systems — one per mode, each keeping its own cache and predictor
// state — charging a configurable switch penalty (pipeline drain plus
// low-voltage cache re-certification) on every transition, and accounts
// time and energy per phase with the internal/power Fig. 1 model
// (power.Default()): a mode's cycles cost V²·cycles normalized energy
// and cycles/f normalized time, the high mode at V = f = 1 and the low
// mode at the Fig. 1 voltage for its pfail and f = 0.2 (Table III's
// 600 MHz against 3 GHz).
//
// A stream that is replayed is recorded once: each phase's stream is
// drawn into a workload.Recording at the start of a run, and the
// oracle's probes in both modes and the schedule itself replay it. The
// warm-up streams are used once each and stay live. A run therefore
// holds 8 bytes per workload instruction, which the service bounds
// through its DVFS scale limit.
//
// Five policies (PolicyKind) decide the schedule: the static-high and
// static-low bounds, an oracle that plans per-phase modes by dynamic
// programming over isolated per-phase probe costs, a reactive
// IPC-threshold policy, and a naive interval alternator. Explore runs a
// (workload × scheme × policy) grid and computes the Pareto frontier
// over (performance, energy), the repo's first cross-mode scenario
// engine.
//
// Everything is seeded: a Config's result is a pure function of its
// fields, byte-identical across runs and machines, which is what lets
// the sweep axis, the /v1/dvfs endpoint and the golden fixtures share
// one deterministic contract.
package dvfs

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"vccmin/internal/faults"
	"vccmin/internal/geom"
	"vccmin/internal/power"
	"vccmin/internal/sim"
	"vccmin/internal/workload"
)

// Config describes one scheduled run. The mode economics the paper
// fixes are not options: the low mode clocks at lowFreq = 0.2 (Table
// III's 600 MHz against 3 GHz), the reactive policy's bar rises by
// lowIPCScale = 2.5 at low voltage, the oracle's λ is always the static
// schedules' exchange rate, and time and energy are priced with the
// Fig. 1 model, power.Default().
type Config struct {
	// Workload is the multi-phase instruction stream to schedule.
	Workload workload.MultiPhase

	// Scheme and Victim configure the low-voltage cache mitigation
	// (high-voltage operation is always fully reliable).
	Scheme sim.Scheme
	Victim sim.VictimKind

	// Geometry is the L1 geometry of both mode machines (and of the
	// drawn fault maps). Zero value means the reference 32 KB, 8-way,
	// 64 B/block L1.
	Geometry geom.Geometry

	// Pfail is the per-cell failure probability at the low-voltage
	// operating point; it sizes both the drawn fault maps and the Fig. 1
	// voltage the energy accounting charges below Vcc-min.
	Pfail float64

	// Policy picks the mode schedule.
	Policy PolicyKind

	// Seed roots every random stream of the run (fault maps, workload
	// generators), via faults.DeriveSeed.
	Seed int64

	// SwitchPenalty is the cycle cost of one mode transition, charged in
	// the destination mode: pipeline drain, PLL relock and re-validating
	// the low-voltage way masks. Default 2000 cycles. Set -1 for zero.
	SwitchPenalty int

	// Interval is the decision-chunk size in instructions: policies are
	// consulted every Interval instructions (and always at phase
	// boundaries — chunks never span phases). It is also the alternation
	// period of PolicyInterval. Default 2000.
	Interval int

	// IPCThreshold drives PolicyReactive: a chunk executed at high
	// voltage observing IPC below it schedules the next chunk at low
	// voltage. Default 0.1 (between the memory-bound and compute-bound
	// bands of the synthetic profiles at reproduction scale).
	IPCThreshold float64

	// Warmup instructions executed on each mode's system before the
	// measured run (drawn from dedicated warmup streams, not the
	// workload's). Default: half the first phase. Set -1 to disable.
	Warmup int
}

// The low-voltage mode's fixed economics.
const (
	// lowFreq is the low mode's normalized clock: Table III's 600 MHz
	// against the 3 GHz high-voltage clock.
	lowFreq = 0.2

	// lowIPCScale multiplies IPCThreshold while running at low voltage,
	// where memory stalls shrink in cycle terms (51 versus 255 cycles)
	// and every profile's IPC rises: a low-mode chunk must beat
	// IPCThreshold·lowIPCScale to earn the switch back up.
	lowIPCScale = 2.5
)

// Default switch economics, shared by Config.withDefaults and
// ExploreSpec.withDefaults so a spec spelling out the defaults hashes
// identically to one omitting them.
const (
	DefaultSwitchPenalty = 2000
	DefaultInterval      = 2000
	DefaultIPCThreshold  = 0.1
)

func (c Config) withDefaults() Config {
	if c.SwitchPenalty == 0 {
		c.SwitchPenalty = DefaultSwitchPenalty
	}
	if c.SwitchPenalty < 0 {
		c.SwitchPenalty = 0
	}
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.IPCThreshold == 0 {
		c.IPCThreshold = DefaultIPCThreshold
	}
	if c.Warmup == 0 && len(c.Workload.Phases) > 0 {
		c.Warmup = c.Workload.Phases[0].Instructions / 2
	}
	if c.Warmup < 0 {
		c.Warmup = 0
	}
	return c
}

// Check validates the config.
func (c Config) Check() error {
	if err := c.Workload.Check(); err != nil {
		return err
	}
	if c.Pfail < 0 || c.Pfail >= 1 {
		return fmt.Errorf("dvfs: pfail %v out of [0,1)", c.Pfail)
	}
	if c.Policy == PolicyNone {
		return fmt.Errorf("dvfs: config needs a policy")
	}
	return nil
}

// PhaseBreakdown is one phase's share of a scheduled run.
type PhaseBreakdown struct {
	Index        int     `json:"index"`
	Benchmark    string  `json:"benchmark"`
	Instructions int     `json:"instructions"`
	HighCycles   uint64  `json:"high_cycles"`
	LowCycles    uint64  `json:"low_cycles"`
	Time         float64 `json:"time"`   // normalized (high-voltage clock) time
	Energy       float64 `json:"energy"` // normalized energy
}

// Result is one scheduled run's accounting.
type Result struct {
	Workload string  `json:"workload"`
	Scheme   string  `json:"scheme"`
	Victim   string  `json:"victim"`
	Policy   string  `json:"policy"`
	Pfail    float64 `json:"pfail"`
	Seed     int64   `json:"seed"`

	// LowVoltage is the normalized supply of the low mode (the Fig. 1
	// voltage at Pfail, clamped to [VFloor, VccMin]); the high mode runs
	// at 1.0.
	LowVoltage float64 `json:"low_voltage"`

	TotalInstructions int     `json:"total_instructions"`
	Switches          int     `json:"switches"`
	HighInstructions  int     `json:"high_instructions"`
	LowInstructions   int     `json:"low_instructions"`
	Time              float64 `json:"time"`   // normalized time incl. switch penalties
	Energy            float64 `json:"energy"` // normalized energy incl. switch penalties

	// Performance is instructions per normalized time unit — equal to
	// plain IPC when the whole run stays at high voltage.
	Performance          float64 `json:"performance"`
	EnergyPerInstruction float64 `json:"energy_per_instruction"`
	EnergyDelayProduct   float64 `json:"energy_delay_product"`

	Phases []PhaseBreakdown `json:"phases"`
}

// runner bundles the per-mode machines, the recorded phase streams and
// the accounting of one run.
type runner struct {
	cfg Config

	systems [2]*sim.System // indexed by sim.Mode
	freq    [2]float64
	volt    [2]float64
	phases  []workload.Recording // indexed by phase
}

// geometry returns the config's L1 geometry, defaulting to the
// reference Table III L1.
func (c Config) geometry() geom.Geometry {
	if c.Geometry.SizeBytes != 0 {
		return c.Geometry
	}
	ref := sim.Reference(sim.HighVoltage)
	return geom.MustNew(ref.L1Size, ref.L1Ways, ref.L1BlockBytes)
}

// modeOptions builds the sim.Options for one mode: the config's L1
// geometry applied to that mode's Table III machine, and the fault-map
// pair (drawn over the same geometry from the config's seed) for
// fault-dependent schemes.
func (c Config) modeOptions(m sim.Mode) sim.Options {
	g := c.geometry()
	machine := sim.Reference(m)
	machine.L1Size, machine.L1Ways, machine.L1BlockBytes = g.SizeBytes, g.Ways, g.BlockBytes
	opts := sim.Options{Mode: m, Scheme: c.Scheme, Victim: c.Victim, Machine: &machine}
	if m == sim.LowVoltage &&
		(c.Scheme == sim.BlockDisable || c.Scheme == sim.IncrementalWordDisable) {
		pair := faults.GeneratePairSparse(g, g, 32, c.Pfail,
			faults.DeriveSeed(c.Seed, "dvfs-pair", c.Workload.Name))
		opts.Pair = &pair
	}
	return opts
}

// record draws each phase's stream once into r.phases. The oracle's
// probes and the schedule replay the same recordings, so the isolated
// measurements see exactly the instruction stream the real run executes.
func (r *runner) record() error {
	r.phases = make([]workload.Recording, len(r.cfg.Workload.Phases))
	for p, ph := range r.cfg.Workload.Phases {
		prof, err := workload.ByName(ph.Benchmark)
		if err != nil {
			return err
		}
		seed := faults.DeriveSeed(r.cfg.Seed, "dvfs-phase", strconv.Itoa(p), ph.Benchmark)
		if err := r.phases[p].Record(prof, seed, ph.Instructions); err != nil {
			return err
		}
	}
	return nil
}

// Run executes the workload under the config's policy and returns the
// full accounting. The result is a pure function of the config.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Check(); err != nil {
		return Result{}, err
	}
	// The low mode sits at the Fig. 1 operating point for this pfail —
	// the same (clamped) voltage every sweep cell and /v1/operating-point
	// report, so the layers can never disagree on what "low" costs.
	lowV := power.Default().OperatingPointForPfail(cfg.Pfail).Voltage

	r := &runner{cfg: cfg}
	r.freq[sim.HighVoltage], r.freq[sim.LowVoltage] = 1, lowFreq
	r.volt[sim.HighVoltage], r.volt[sim.LowVoltage] = 1, lowV

	for _, m := range []sim.Mode{sim.HighVoltage, sim.LowVoltage} {
		sys, err := sim.Build(cfg.modeOptions(m))
		if err != nil {
			return Result{}, fmt.Errorf("dvfs: building %s system: %w", m, err)
		}
		r.systems[m] = sys
	}

	if err := r.warmup(); err != nil {
		return Result{}, err
	}
	if err := r.record(); err != nil {
		return Result{}, err
	}

	decide, err := r.policy()
	if err != nil {
		return Result{}, err
	}
	return r.schedule(decide)
}

// warmup runs each mode's system over a dedicated stream of the first
// phase's profile so neither machine starts with stone-cold caches and
// predictors.
func (r *runner) warmup() error {
	if r.cfg.Warmup <= 0 {
		return nil
	}
	prof, err := workload.ByName(r.cfg.Workload.Phases[0].Benchmark)
	if err != nil {
		return err
	}
	for _, m := range []sim.Mode{sim.HighVoltage, sim.LowVoltage} {
		gen, err := workload.NewGenerator(prof,
			faults.DeriveSeed(r.cfg.Seed, "dvfs-warmup", m.String()))
		if err != nil {
			return err
		}
		r.systems[m].CPU.Run(gen, r.cfg.Warmup)
	}
	return nil
}

// probeKey identifies everything the oracle's probe cycle counts depend
// on: the machine (geometry, scheme, victim), the fault-map pair (pfail,
// seed, workload name — the pair seed derives from them) and the phase
// list (each phase's recording seed derives from the config seed, the
// phase index and the benchmark name). Frequency, voltage, switch
// economics and the power model scale cycles into time and energy AFTER
// the probe, so they are deliberately absent.
type probeKey struct {
	g      geom.Geometry
	scheme sim.Scheme
	victim sim.VictimKind
	pfail  float64
	seed   int64
	name   string
	phases string
}

func (c Config) probeKey() probeKey {
	var b strings.Builder
	for _, ph := range c.Workload.Phases {
		fmt.Fprintf(&b, "%d:%s:%d;", len(ph.Benchmark), ph.Benchmark, ph.Instructions)
	}
	return probeKey{
		g:      c.geometry(),
		scheme: c.Scheme,
		victim: c.Victim,
		pfail:  c.Pfail,
		seed:   c.Seed,
		name:   c.Workload.Name,
		phases: b.String(),
	}
}

// probeCache memoizes probe cycle tables across runs. Probe cycles are a
// pure function of the probeKey, so a hit is observationally identical
// to re-simulating — it just skips the dominant cost of an oracle run
// (two system builds plus every phase in both modes). Explore's parallel
// jobs share it, hence the lock. probeCacheCap bounds growth: at the cap
// the cache drops everything (entries are cheap to recompute and a full
// wipe keeps the policy deterministic).
var probeCache = struct {
	sync.Mutex
	m map[probeKey][2][]uint64
}{m: map[probeKey][2][]uint64{}}

const probeCacheCap = 128

// probeCycles measures every phase in isolation in both modes (the
// oracle's cost table) by replaying its recording, reusing one system
// per mode via sim.System.Reset — bit-identical to building a fresh
// system per (mode, phase) cell, at a fraction of the cost — and
// memoizing the result in probeCache.
func (r *runner) probeCycles() ([2][]uint64, error) {
	cfg := r.cfg
	key := cfg.probeKey()
	probeCache.Lock()
	cycles, ok := probeCache.m[key]
	probeCache.Unlock()
	if ok {
		return cycles, nil
	}
	for _, m := range []sim.Mode{sim.HighVoltage, sim.LowVoltage} {
		cycles[m] = make([]uint64, len(cfg.Workload.Phases))
		sys, err := sim.Build(cfg.modeOptions(m))
		if err != nil {
			return cycles, err
		}
		for p, ph := range cfg.Workload.Phases {
			if p > 0 {
				sys.Reset()
			}
			cycles[m][p] = sys.CPU.Run(r.phases[p].Replay(), ph.Instructions).Cycles
		}
	}
	probeCache.Lock()
	if len(probeCache.m) >= probeCacheCap {
		probeCache.m = map[probeKey][2][]uint64{}
	}
	probeCache.m[key] = cycles
	probeCache.Unlock()
	return cycles, nil
}

// probe scales the (possibly cached) probe cycle table into the oracle's
// normalized time and energy costs at this run's operating points.
func (r *runner) probe() (energy, time [2][]float64, err error) {
	cycles, err := r.probeCycles()
	if err != nil {
		return energy, time, err
	}
	for _, m := range []sim.Mode{sim.HighVoltage, sim.LowVoltage} {
		energy[m] = make([]float64, len(cycles[m]))
		time[m] = make([]float64, len(cycles[m]))
		for p, cy := range cycles[m] {
			c := float64(cy)
			energy[m][p] = r.volt[m] * r.volt[m] * c
			time[m][p] = c / r.freq[m]
		}
	}
	return energy, time, nil
}

// policy materializes the config's PolicyKind as a decision function.
func (r *runner) policy() (policyFunc, error) {
	cfg := r.cfg
	switch cfg.Policy {
	case PolicyStaticHigh:
		return func(decisionContext) sim.Mode { return sim.HighVoltage }, nil
	case PolicyStaticLow:
		return func(decisionContext) sim.Mode { return sim.LowVoltage }, nil
	case PolicyInterval:
		return func(d decisionContext) sim.Mode {
			if d.Chunk%2 == 0 {
				return sim.HighVoltage
			}
			return sim.LowVoltage
		}, nil
	case PolicyReactive:
		return func(d decisionContext) sim.Mode {
			if !d.HaveSample {
				return sim.HighVoltage
			}
			// The bar rises at low voltage: shrunken memory stalls lift
			// every profile's IPC, so earning the switch back up takes
			// lowIPCScale times the high-mode threshold.
			threshold := cfg.IPCThreshold
			if d.Mode == sim.LowVoltage {
				threshold *= lowIPCScale
			}
			if d.LastIPC < threshold {
				return sim.LowVoltage
			}
			return sim.HighVoltage
		}, nil
	case PolicyOracle:
		energy, time, err := r.probe()
		if err != nil {
			return nil, err
		}
		// λ is the exchange rate between the static schedules: the
		// energy the all-low schedule saves per unit of time it loses
		// against the all-high one. Degenerate gaps fall back to 1.
		var eH, eL, tH, tL float64
		for p := range cfg.Workload.Phases {
			eH += energy[sim.HighVoltage][p]
			eL += energy[sim.LowVoltage][p]
			tH += time[sim.HighVoltage][p]
			tL += time[sim.LowVoltage][p]
		}
		lambda := 1.0
		if tL > tH && eH > eL {
			lambda = (eH - eL) / (tL - tH)
		}
		pen := float64(cfg.SwitchPenalty)
		plan := planOracle(len(cfg.Workload.Phases), lambda,
			func(p int, m sim.Mode) float64 { return energy[m][p] },
			func(p int, m sim.Mode) float64 { return time[m][p] },
			func(to sim.Mode) float64 { return r.volt[to] * r.volt[to] * pen },
			func(to sim.Mode) float64 { return pen / r.freq[to] })
		return func(d decisionContext) sim.Mode { return plan[d.Phase] }, nil
	}
	return nil, fmt.Errorf("dvfs: policy %s is not schedulable", cfg.Policy)
}

// schedule replays the recorded phases chunk by chunk, consulting the
// policy at every chunk boundary and charging switch penalties on mode
// transitions.
func (r *runner) schedule(decide policyFunc) (Result, error) {
	cfg := r.cfg
	res := Result{
		Workload:          cfg.Workload.Name,
		Scheme:            cfg.Scheme.String(),
		Victim:            cfg.Victim.String(),
		Policy:            cfg.Policy.String(),
		Pfail:             cfg.Pfail,
		Seed:              cfg.Seed,
		LowVoltage:        r.volt[sim.LowVoltage],
		TotalInstructions: cfg.Workload.TotalInstructions(),
		Phases:            make([]PhaseBreakdown, len(cfg.Workload.Phases)),
	}
	streams := make([]*workload.Replay, len(r.phases))
	for p, ph := range cfg.Workload.Phases {
		res.Phases[p] = PhaseBreakdown{Index: p, Benchmark: ph.Benchmark, Instructions: ph.Instructions}
		streams[p] = r.phases[p].Replay()
	}

	r.runChunks(decide, &res, streams)

	if res.Time > 0 {
		res.Performance = float64(res.TotalInstructions) / res.Time
	}
	res.EnergyPerInstruction = res.Energy / float64(res.TotalInstructions)
	res.EnergyDelayProduct = res.Energy * res.Time
	return res, nil
}

// runChunks is the scheduler's hot loop: replay each phase's stream in
// turn, in chunks of at most Interval instructions (a chunk never spans
// phases), consulting the policy at every boundary and charging switch
// penalties on transitions, accumulating into res (whose Phases slice
// the caller pre-sized). Everything it needs — the DP plan behind an
// oracle decide, the per-mode systems, the replay cursors, the phase
// accounting slots — is materialized before the first chunk, so the
// loop itself allocates nothing (TestOracleChunkLoopAllocs pins this).
func (r *runner) runChunks(decide policyFunc, res *Result, streams []*workload.Replay) {
	cfg := r.cfg
	mode := sim.HighVoltage
	d := decisionContext{Mode: mode}
	for p, stream := range streams {
		d.Phase = p
		pb := &res.Phases[p]
		for left := cfg.Workload.Phases[p].Instructions; left > 0; d.Chunk++ {
			next := decide(d)
			if d.HaveSample && next != mode {
				// Transition: penalty cycles charged in the destination mode.
				pen := float64(cfg.SwitchPenalty)
				res.Switches++
				res.Time += pen / r.freq[next]
				res.Energy += r.volt[next] * r.volt[next] * pen
				pb.Time += pen / r.freq[next]
				pb.Energy += r.volt[next] * r.volt[next] * pen
			}
			mode = next

			n := min(cfg.Interval, left)
			stats := r.systems[mode].CPU.Run(stream, n)
			left -= n

			c := float64(stats.Cycles)
			t, e := c/r.freq[mode], r.volt[mode]*r.volt[mode]*c
			res.Time += t
			res.Energy += e
			pb.Time += t
			pb.Energy += e
			if mode == sim.HighVoltage {
				pb.HighCycles += stats.Cycles
				res.HighInstructions += n
			} else {
				pb.LowCycles += stats.Cycles
				res.LowInstructions += n
			}

			d.Mode = mode
			d.LastIPC = stats.IPC()
			d.HaveSample = true
		}
	}
}
