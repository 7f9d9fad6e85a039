package dvfs

// Differential equivalence suite for the oracle hot path.
//
// The oracle scheduler was rewritten in observationally invisible
// steps — flat-array DP in planOracle, probe-system reuse via
// sim.System.Reset in probeCycles, the allocation-free runChunks loop,
// and phases recorded once and replayed instead of drawn live per use —
// each promising byte-identical results to the code it replaced. The
// historical implementations are frozen here (refPlanOracle is the
// map-per-phase DP verbatim; refProbeCycles builds a fresh system and a
// live generator per (mode, phase) cell exactly as probe() used to;
// refSchedule drives one live phased stream through the chunk loop) and
// held to the production path across randomized cost tables and real
// workloads. TestOracleChunkLoopAllocs pins the chunk loop to zero
// allocations at steady state. CI runs this suite under -race
// (make diff-race).

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"vccmin/internal/faults"
	"vccmin/internal/power"
	"vccmin/internal/sim"
	"vccmin/internal/trace"
	"vccmin/internal/workload"
)

// refPlanOracle is the historical map-based DP, frozen as the
// differential reference — do not "optimize" it. Tie semantics: modes
// are evaluated high-voltage first with a strict < comparison.
func refPlanOracle(phases int, lambda float64,
	energyOf, timeOf func(phase int, m sim.Mode) float64,
	switchEnergy, switchTime func(to sim.Mode) float64) oraclePlan {

	modes := []sim.Mode{sim.HighVoltage, sim.LowVoltage}
	cost := func(p int, m sim.Mode) float64 { return energyOf(p, m) + lambda*timeOf(p, m) }
	swCost := func(to sim.Mode) float64 { return switchEnergy(to) + lambda*switchTime(to) }

	best := map[sim.Mode]float64{}
	from := make([]map[sim.Mode]sim.Mode, phases)
	for _, m := range modes {
		best[m] = cost(0, m)
	}
	for p := 1; p < phases; p++ {
		next := map[sim.Mode]float64{}
		from[p] = map[sim.Mode]sim.Mode{}
		for _, m := range modes {
			bestPrev, bestVal := modes[0], 0.0
			for i, prev := range modes {
				v := best[prev]
				if prev != m {
					v += swCost(m)
				}
				if i == 0 || v < bestVal {
					bestPrev, bestVal = prev, v
				}
			}
			next[m] = bestVal + cost(p, m)
			from[p][m] = bestPrev
		}
		best = next
	}

	plan := make(oraclePlan, phases)
	last := modes[0]
	if best[modes[1]] < best[modes[0]] {
		last = modes[1]
	}
	plan[phases-1] = last
	for p := phases - 1; p > 0; p-- {
		last = from[p][last]
		plan[p-1] = last
	}
	return plan
}

func TestDifferentialOraclePlan(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 400; trial++ {
		phases := 1 + rng.Intn(12)
		// Half the trials draw continuous costs; the other half draw from
		// a 4-value grid so equal-cost ties are common and the strict-<
		// tie-breaking of both implementations is actually exercised.
		draw := rng.Float64
		if trial%2 == 1 {
			draw = func() float64 { return float64(1 + rng.Intn(4)) }
		}
		energy := [2][]float64{make([]float64, phases), make([]float64, phases)}
		time := [2][]float64{make([]float64, phases), make([]float64, phases)}
		for p := 0; p < phases; p++ {
			for m := 0; m < 2; m++ {
				energy[m][p] = draw() * 100
				time[m][p] = draw() * 10
			}
		}
		lambda := draw()
		swE := [2]float64{draw() * float64(rng.Intn(2)), draw() * float64(rng.Intn(2))}
		swT := [2]float64{draw(), draw()}

		energyOf := func(p int, m sim.Mode) float64 { return energy[m][p] }
		timeOf := func(p int, m sim.Mode) float64 { return time[m][p] }
		switchEnergy := func(to sim.Mode) float64 { return swE[to] }
		switchTime := func(to sim.Mode) float64 { return swT[to] }

		got := planOracle(phases, lambda, energyOf, timeOf, switchEnergy, switchTime)
		want := refPlanOracle(phases, lambda, energyOf, timeOf, switchEnergy, switchTime)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (phases=%d): flat DP plan %v differs from map-based reference %v",
				trial, phases, got, want)
		}
	}
}

// refPhaseGenerator draws phase p's stream live, seeded as the
// scheduler has always seeded it.
func refPhaseGenerator(t *testing.T, cfg Config, p int) *workload.Generator {
	t.Helper()
	ph := cfg.Workload.Phases[p]
	prof, err := workload.ByName(ph.Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(prof,
		faults.DeriveSeed(cfg.Seed, "dvfs-phase", strconv.Itoa(p), ph.Benchmark))
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// refProbeCycles is the historical probe measurement: a fresh sim.Build
// and a live generator for every (mode, phase) cell, no reuse, no cache.
func refProbeCycles(t *testing.T, cfg Config) [2][]uint64 {
	t.Helper()
	var cycles [2][]uint64
	for _, m := range []sim.Mode{sim.HighVoltage, sim.LowVoltage} {
		cycles[m] = make([]uint64, len(cfg.Workload.Phases))
		for p, ph := range cfg.Workload.Phases {
			sys, err := sim.Build(cfg.modeOptions(m))
			if err != nil {
				t.Fatal(err)
			}
			cycles[m][p] = sys.CPU.Run(refPhaseGenerator(t, cfg, p), ph.Instructions).Cycles
		}
	}
	return cycles
}

// refPhased is the phased stream the scheduler used to execute, frozen:
// the phases' live generators concatenated, reporting lazily which phase
// the next instruction comes from and how much of that phase is left.
type refPhased struct {
	gens      []*workload.Generator
	lens      []int
	idx, left int
}

func (s *refPhased) phase() int {
	if s.left == 0 {
		return (s.idx + 1) % len(s.gens)
	}
	return s.idx
}

func (s *refPhased) remaining() int {
	if s.left == 0 {
		return s.lens[(s.idx+1)%len(s.lens)]
	}
	return s.left
}

func (s *refPhased) Next(out *trace.Instr) {
	if s.left == 0 {
		s.idx = (s.idx + 1) % len(s.gens)
		s.left = s.lens[s.idx]
	}
	s.gens[s.idx].Next(out)
	s.left--
}

// refSchedule is Run as it was when one phased stream of live
// generators fed the chunk loop, frozen as the reference for the
// recorded phases. It shares Run's machines, warm-up and decision
// functions; an oracle plans from refProbeCycles, which it puts in
// probeCache for policy to find.
func refSchedule(t *testing.T, cfg Config) Result {
	t.Helper()
	cfg = cfg.withDefaults()
	model := power.Default()
	r := &runner{cfg: cfg}
	r.freq[sim.HighVoltage], r.freq[sim.LowVoltage] = 1, lowFreq
	r.volt[sim.HighVoltage], r.volt[sim.LowVoltage] = 1, model.OperatingPointForPfail(cfg.Pfail).Voltage
	for _, m := range []sim.Mode{sim.HighVoltage, sim.LowVoltage} {
		sys, err := sim.Build(cfg.modeOptions(m))
		if err != nil {
			t.Fatal(err)
		}
		r.systems[m] = sys
	}
	if err := r.warmup(); err != nil {
		t.Fatal(err)
	}
	if cfg.Policy == PolicyOracle {
		cycles := refProbeCycles(t, cfg)
		probeCache.Lock()
		probeCache.m[cfg.probeKey()] = cycles
		probeCache.Unlock()
	}
	decide, err := r.policy()
	if err != nil {
		t.Fatal(err)
	}

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
	stream := &refPhased{}
	for p, ph := range cfg.Workload.Phases {
		res.Phases[p] = PhaseBreakdown{Index: p, Benchmark: ph.Benchmark, Instructions: ph.Instructions}
		stream.gens = append(stream.gens, refPhaseGenerator(t, cfg, p))
		stream.lens = append(stream.lens, ph.Instructions)
	}
	stream.left = stream.lens[0]

	mode := sim.HighVoltage
	d := decisionContext{Mode: mode}
	left := res.TotalInstructions
	for chunk := 0; left > 0; chunk++ {
		d.Phase, d.Chunk = stream.phase(), chunk
		next := decide(d)
		if d.HaveSample && next != mode {
			pen := float64(cfg.SwitchPenalty)
			res.Switches++
			res.Time += pen / r.freq[next]
			res.Energy += r.volt[next] * r.volt[next] * pen
			res.Phases[d.Phase].Time += pen / r.freq[next]
			res.Phases[d.Phase].Energy += r.volt[next] * r.volt[next] * pen
		}
		mode = next

		n := cfg.Interval
		if rem := stream.remaining(); n > rem {
			n = rem
		}
		if n > left {
			n = left
		}
		stats := r.systems[mode].CPU.Run(stream, n)
		left -= n

		c := float64(stats.Cycles)
		tm, e := c/r.freq[mode], r.volt[mode]*r.volt[mode]*c
		res.Time += tm
		res.Energy += e
		pb := &res.Phases[d.Phase]
		pb.Time += tm
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

	if res.Time > 0 {
		res.Performance = float64(res.TotalInstructions) / res.Time
	}
	res.EnergyPerInstruction = res.Energy / float64(res.TotalInstructions)
	res.EnergyDelayProduct = res.Energy * res.Time
	return res
}

// TestDifferentialSchedule holds Run to refSchedule for every policy and
// builtin workload, at intervals that cut chunks of one instruction, of
// an odd size, of the default size and longer than any phase, with the
// default and no warm-up, and with the default switch penalty (at this
// scale the oracle then stays at high voltage) and none (it then
// switches every few phases). probeCache is emptied before each Run, so
// the oracle's probe is measured by Run itself; the table it stores
// must equal refProbeCycles.
func TestDifferentialSchedule(t *testing.T) {
	const scale = 12_000
	for _, name := range workload.MultiPhaseNames() {
		mp, err := workload.MultiPhaseByName(name)
		if err != nil {
			t.Fatal(err)
		}
		mp = mp.Scaled(scale)
		for _, policy := range Policies() {
			for _, interval := range []int{1, 7, 2000, scale + 1} {
				for _, warmup := range []int{0, -1} {
					for _, penalty := range []int{0, -1} {
						cfg := Config{
							Workload:      mp,
							Scheme:        sim.BlockDisable,
							Pfail:         0.001,
							Policy:        policy,
							Seed:          29,
							Interval:      interval,
							Warmup:        warmup,
							SwitchPenalty: penalty,
						}
						probeCache.Lock()
						probeCache.m = map[probeKey][2][]uint64{}
						probeCache.Unlock()
						got, err := Run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						if policy == PolicyOracle {
							def := cfg.withDefaults()
							probeCache.Lock()
							cycles := probeCache.m[def.probeKey()]
							probeCache.Unlock()
							if want := refProbeCycles(t, def); !reflect.DeepEqual(cycles, want) {
								t.Fatalf("%s: Run probed %v, reference %v", name, cycles, want)
							}
						}
						if want := refSchedule(t, cfg); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s/%s interval %d warmup %d penalty %d: Run differs from the phased-stream reference\n got %+v\nwant %+v",
								name, policy, interval, warmup, penalty, got, want)
						}
					}
				}
			}
		}
	}
}

func TestDifferentialProbeCycles(t *testing.T) {
	for _, name := range workload.MultiPhaseNames() {
		mp, err := workload.MultiPhaseByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range []sim.Scheme{sim.BlockDisable, sim.WordDisable} {
			cfg := Config{
				Workload: mp.Scaled(12_000),
				Scheme:   scheme,
				Pfail:    0.001,
				Policy:   PolicyOracle,
				Seed:     424243, // unique: the first probeCycles call must compute, not hit the cache
			}.withDefaults()
			r := &runner{cfg: cfg}
			if err := r.record(); err != nil {
				t.Fatal(err)
			}
			got, err := r.probeCycles()
			if err != nil {
				t.Fatal(err)
			}
			want := refProbeCycles(t, cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s: Reset-reuse probe cycles %v differ from fresh-build reference %v",
					name, scheme, got, want)
			}
		}
	}
}

func TestProbeCacheHitIsIdentical(t *testing.T) {
	cfg := Config{
		Workload: testWorkload(t),
		Scheme:   sim.BlockDisable,
		Pfail:    0.001,
		Policy:   PolicyOracle,
		Seed:     424244,
	}.withDefaults()
	r := &runner{cfg: cfg}
	if err := r.record(); err != nil {
		t.Fatal(err)
	}
	first, err := r.probeCycles()
	if err != nil {
		t.Fatal(err)
	}
	second, err := (&runner{cfg: cfg}).probeCycles()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("probe cache hit returned different cycles than the computing call")
	}
}

// TestOracleChunkLoopAllocs pins the scheduler's steady-state chunk loop
// — everything schedule() runs after setup — to zero heap allocations.
// It rebuilds exactly the state Run materializes before runChunks, then
// replays the loop with the replay cursors rewound, and the systems and
// result buffer reset, in place between iterations.
func TestOracleChunkLoopAllocs(t *testing.T) {
	cfg := Config{
		Workload: testWorkload(t),
		Scheme:   sim.BlockDisable,
		Pfail:    0.001,
		Policy:   PolicyOracle,
		Seed:     11,
	}.withDefaults()
	model := power.Default()
	r := &runner{cfg: cfg}
	r.freq[sim.HighVoltage], r.freq[sim.LowVoltage] = 1, lowFreq
	r.volt[sim.HighVoltage], r.volt[sim.LowVoltage] = 1, model.OperatingPointForPfail(cfg.Pfail).Voltage
	for _, m := range []sim.Mode{sim.HighVoltage, sim.LowVoltage} {
		sys, err := sim.Build(cfg.modeOptions(m))
		if err != nil {
			t.Fatal(err)
		}
		r.systems[m] = sys
	}
	if err := r.record(); err != nil {
		t.Fatal(err)
	}
	decide, err := r.policy()
	if err != nil {
		t.Fatal(err)
	}

	streams := make([]*workload.Replay, len(r.phases))
	for p := range r.phases {
		streams[p] = r.phases[p].Replay()
	}
	res := Result{
		TotalInstructions: cfg.Workload.TotalInstructions(),
		Phases:            make([]PhaseBreakdown, len(cfg.Workload.Phases)),
	}

	allocs := testing.AllocsPerRun(5, func() {
		for p := range streams {
			*streams[p] = *r.phases[p].Replay()
		}
		for _, m := range []sim.Mode{sim.HighVoltage, sim.LowVoltage} {
			r.systems[m].Reset()
		}
		res.Switches, res.HighInstructions, res.LowInstructions = 0, 0, 0
		res.Time, res.Energy = 0, 0
		for i := range res.Phases {
			res.Phases[i] = PhaseBreakdown{}
		}
		r.runChunks(decide, &res, streams)
	})
	if allocs != 0 {
		t.Fatalf("oracle chunk loop allocates %v objects per run, want 0", allocs)
	}
	if res.HighInstructions+res.LowInstructions != res.TotalInstructions {
		t.Fatalf("replayed loop lost instructions: %d+%d != %d",
			res.HighInstructions, res.LowInstructions, res.TotalInstructions)
	}
}
