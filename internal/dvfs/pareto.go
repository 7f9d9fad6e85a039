package dvfs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"vccmin/internal/par"
	"vccmin/internal/sim"
	"vccmin/internal/workload"
)

// Point is one (workload, scheme, policy) operating point of the
// explorer: where the scheduled run landed in (performance, energy)
// space, with the supply voltage its low-mode slices used.
type Point struct {
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	Policy   string `json:"policy"`

	Performance          float64 `json:"performance"`
	Energy               float64 `json:"energy"`
	EnergyPerInstruction float64 `json:"energy_per_instruction"`
	EnergyDelayProduct   float64 `json:"energy_delay_product"`
	LowVoltage           float64 `json:"low_voltage"`
	Switches             int     `json:"switches"`
	LowInstructionShare  float64 `json:"low_instruction_share"`

	// Pareto reports whether the point is on its workload's frontier
	// (no other point of the same workload has both higher performance
	// and lower energy per instruction).
	Pareto bool `json:"pareto"`
}

// dominates reports whether a beats b on the (maximize performance,
// minimize energy-per-instruction) order: at least as good on both and
// strictly better on one.
func dominates(a, b Point) bool {
	if a.Performance < b.Performance || a.EnergyPerInstruction > b.EnergyPerInstruction {
		return false
	}
	return a.Performance > b.Performance || a.EnergyPerInstruction < b.EnergyPerInstruction
}

// FrontierSet maintains a Pareto frontier over (maximize performance,
// minimize energy-per-instruction) incrementally: points are inserted
// one at a time, and at every moment the set holds exactly the
// non-dominated points seen so far, deduplicated, as a staircase sorted
// by strictly decreasing performance — which, on the frontier, forces
// strictly decreasing energy too (a cheaper point at equal-or-higher
// performance would dominate). Insert and Dominated are O(log n) plus
// the amortized O(1) removal of newly dominated members, replacing the
// all-pairs rescan MarkFrontier used to run over the full point set.
type FrontierSet struct {
	perf []float64
	epi  []float64
}

// Len returns the number of distinct frontier members.
func (f *FrontierSet) Len() int { return len(f.perf) }

// lastGE returns the index of the last member with performance >= perf,
// or -1. Members are sorted by strictly decreasing performance.
func (f *FrontierSet) lastGE(perf float64) int {
	return sort.Search(len(f.perf), func(i int) bool { return f.perf[i] < perf }) - 1
}

// Dominated reports whether some inserted point strictly dominates p
// (better or equal on both axes, strictly better on one). A point equal
// to a member on both axes is NOT dominated — equal points share the
// frontier, exactly as under the pairwise dominates relation.
func (f *FrontierSet) Dominated(p Point) bool {
	// Among members at performance >= p's, the last one has the lowest
	// energy (staircase), so it dominates p iff any member does.
	i := f.lastGE(p.Performance)
	if i < 0 || f.epi[i] > p.EnergyPerInstruction {
		return false
	}
	return f.perf[i] > p.Performance || f.epi[i] < p.EnergyPerInstruction
}

// Insert adds p to the set, dropping it if dominated (or an exact
// duplicate) and evicting any members p newly dominates.
func (f *FrontierSet) Insert(p Point) {
	if f.Dominated(p) {
		return
	}
	lo := f.lastGE(p.Performance) + 1 // first member with perf < p's
	if i := lo - 1; i >= 0 && f.perf[i] == p.Performance {
		if f.epi[i] == p.EnergyPerInstruction {
			return // exact duplicate of a member
		}
		// Not dominated and not equal at the same performance: the member
		// pays strictly more energy, so p evicts it too.
		lo = i
	}
	// Members from lo on have performance <= p's; the prefix of them with
	// energy >= p's is dominated by p (energies decrease, so the doomed
	// run is contiguous).
	hi := lo
	for hi < len(f.perf) && f.epi[hi] >= p.EnergyPerInstruction {
		hi++
	}
	f.perf = append(f.perf[:lo], append([]float64{p.Performance}, f.perf[hi:]...)...)
	f.epi = append(f.epi[:lo], append([]float64{p.EnergyPerInstruction}, f.epi[hi:]...)...)
}

// MarkFrontier sets Pareto on every non-dominated point, comparing only
// points of the same workload (cross-workload comparisons mix different
// instruction streams and mean nothing). The slice is modified in place.
// One incremental FrontierSet per workload replaces the historical
// all-pairs scan; TestMarkFrontierMatchesRebuild holds the two to
// identical markings on random point sets.
func MarkFrontier(points []Point) {
	frontiers := make(map[string]*FrontierSet)
	for i := range points {
		fs := frontiers[points[i].Workload]
		if fs == nil {
			fs = &FrontierSet{}
			frontiers[points[i].Workload] = fs
		}
		fs.Insert(points[i])
	}
	for i := range points {
		points[i].Pareto = !frontiers[points[i].Workload].Dominated(points[i])
	}
}

// Frontier returns the Pareto-optimal points (after MarkFrontier
// semantics), in the input order.
func Frontier(points []Point) []Point {
	cp := append([]Point(nil), points...)
	MarkFrontier(cp)
	var out []Point
	for _, p := range cp {
		if p.Pareto {
			out = append(out, p)
		}
	}
	return out
}

// ExploreSpec is a (workload × scheme × policy) grid for the explorer.
// Empty axes take defaults; scalar knobs flow into every run's Config.
type ExploreSpec struct {
	Workloads []string       // multi-phase workload names; default: all builtins
	Schemes   []sim.Scheme   // default: BlockDisable, WordDisable
	Policies  []PolicyKind   // default: Policies()
	Victim    sim.VictimKind // applied to every run
	Pfail     float64        // default 0.001
	Seed      int64          // default 1
	Scale     int            // if >0, workloads are rescaled to ~Scale total instructions
	Workers   int            // bounds concurrent runs; 0 = GOMAXPROCS

	// Switch economics applied to every run (zero = the Config
	// defaults). Unlike the Config hook these are result-defining fields
	// CanonicalHash digests.
	SwitchPenalty int
	Interval      int
	IPCThreshold  float64

	Config func(*Config) // optional per-run Config hook; NOT hashed — callers using it must extend the cache key themselves
}

// WithDefaults returns the spec with every zero-valued axis and scalar
// replaced by its reference default — the form Explore evaluates and
// CanonicalHash digests. Callers sizing or echoing a grid before
// running (e.g. the service's request gate) apply it first.
func (s ExploreSpec) WithDefaults() ExploreSpec { return s.withDefaults() }

func (s ExploreSpec) withDefaults() ExploreSpec {
	if len(s.Workloads) == 0 {
		s.Workloads = workload.MultiPhaseNames()
	}
	if len(s.Schemes) == 0 {
		s.Schemes = []sim.Scheme{sim.BlockDisable, sim.WordDisable}
	}
	if len(s.Policies) == 0 {
		s.Policies = Policies()
	}
	if s.Pfail == 0 {
		s.Pfail = 0.001
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	// Resolve the switch economics to the Config defaults here, so a
	// spec spelling them out hashes (and caches) identically to one
	// leaving them zero.
	if s.SwitchPenalty == 0 {
		s.SwitchPenalty = DefaultSwitchPenalty
	}
	if s.Interval <= 0 {
		s.Interval = DefaultInterval
	}
	if s.IPCThreshold == 0 {
		s.IPCThreshold = DefaultIPCThreshold
	}
	return s
}

// CanonicalHash digests the spec's result-defining fields — the explorer
// analogue of sweep.Spec.CanonicalHash, and the /v1/dvfs response-cache
// key. Workers is excluded (scheduling only); the Config hook is the
// caller's responsibility to reflect in the key if it uses one.
func (s ExploreSpec) CanonicalHash() string {
	s = s.withDefaults()
	h := sha256.New()
	fmt.Fprintf(h, "dvfs-v1|pfail=%g|seed=%d|victim=%s|scale=%d|penalty=%d|interval=%d|ipc=%g\n",
		s.Pfail, s.Seed, s.Victim, s.Scale, s.SwitchPenalty, s.Interval, s.IPCThreshold)
	for _, w := range s.Workloads {
		fmt.Fprintf(h, "workload=%d:%s\n", len(w), w)
	}
	for _, sc := range s.Schemes {
		fmt.Fprintf(h, "scheme=%s\n", sc)
	}
	for _, p := range s.Policies {
		fmt.Fprintf(h, "policy=%s\n", p)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// ExploreResult is the explorer's output: every grid point (frontier
// membership marked) plus the runs behind them, in grid order.
type ExploreResult struct {
	Points []Point  `json:"points"`
	Runs   []Result `json:"runs"`
}

// ParetoPoints returns just the frontier points, in grid order.
func (r ExploreResult) ParetoPoints() []Point {
	var out []Point
	for _, p := range r.Points {
		if p.Pareto {
			out = append(out, p)
		}
	}
	return out
}

// Explore evaluates the grid: one scheduled run per (workload, scheme,
// policy) cell, in parallel up to Workers, then marks each workload's
// Pareto frontier. Results land in grid order regardless of scheduling,
// so the output is deterministic at every worker count.
func Explore(spec ExploreSpec) (*ExploreResult, error) {
	spec = spec.withDefaults()
	type cell struct {
		workload string
		scheme   sim.Scheme
		policy   PolicyKind
	}
	var cells []cell
	for _, w := range spec.Workloads {
		for _, sc := range spec.Schemes {
			for _, p := range spec.Policies {
				cells = append(cells, cell{w, sc, p})
			}
		}
	}

	runs := make([]Result, len(cells))
	err := par.Do(len(cells), spec.Workers, nil, func(_ struct{}, i int) error {
		c := cells[i]
		mp, err := workload.MultiPhaseByName(c.workload)
		if err != nil {
			return err
		}
		if spec.Scale > 0 {
			mp = mp.Scaled(spec.Scale)
		}
		cfg := Config{
			Workload:      mp,
			Scheme:        c.scheme,
			Victim:        spec.Victim,
			Pfail:         spec.Pfail,
			Policy:        c.policy,
			Seed:          spec.Seed,
			SwitchPenalty: spec.SwitchPenalty,
			Interval:      spec.Interval,
			IPCThreshold:  spec.IPCThreshold,
		}
		if spec.Config != nil {
			spec.Config(&cfg)
		}
		r, err := Run(cfg)
		if err != nil {
			return fmt.Errorf("dvfs: %s/%s/%s: %w", c.workload, c.scheme, c.policy, err)
		}
		runs[i] = r
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}

	points := make([]Point, len(runs))
	for i, r := range runs {
		share := 0.0
		if r.TotalInstructions > 0 {
			share = float64(r.LowInstructions) / float64(r.TotalInstructions)
		}
		points[i] = Point{
			Workload:             r.Workload,
			Scheme:               r.Scheme,
			Policy:               r.Policy,
			Performance:          r.Performance,
			Energy:               r.Energy,
			EnergyPerInstruction: r.EnergyPerInstruction,
			EnergyDelayProduct:   r.EnergyDelayProduct,
			LowVoltage:           r.LowVoltage,
			Switches:             r.Switches,
			LowInstructionShare:  share,
		}
	}
	MarkFrontier(points)
	return &ExploreResult{Points: points, Runs: runs}, nil
}

// SortByPerformance orders points by descending performance (stable on
// the original order for ties) — the presentation order of the frontier.
func SortByPerformance(points []Point) {
	sort.SliceStable(points, func(i, j int) bool {
		return points[i].Performance > points[j].Performance
	})
}
