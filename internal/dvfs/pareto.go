package dvfs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"

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

// MarkFrontier sets Pareto on every point that no point of the same
// workload dominates (cross-workload comparisons mix different
// instruction streams and mean nothing). The slice is modified in place.
// The scan is pairwise: an Explore grid holds at most
// |schemes|×|policies| points per workload, each the product of a full
// Run.
func MarkFrontier(points []Point) {
	for i := range points {
		p := points[i]
		points[i].Pareto = !slices.ContainsFunc(points, func(q Point) bool {
			return q.Workload == p.Workload && dominates(q, p)
		})
	}
}

// Frontier returns the Pareto-optimal points (after MarkFrontier
// semantics), in the input order.
func Frontier(points []Point) []Point {
	cp := append([]Point(nil), points...)
	MarkFrontier(cp)
	return marked(cp)
}

// marked returns the points whose Pareto flag is set, in order.
func marked(points []Point) []Point {
	var out []Point
	for _, p := range points {
		if p.Pareto {
			out = append(out, p)
		}
	}
	return out
}

// ExploreSpec is a (workload × scheme × policy) grid for the explorer.
// Empty axes take defaults; scalar knobs flow into every run's Config,
// whose fixed mode economics (the 0.2 low-mode clock of Table III, the
// reactive policy's 2.5 low-voltage scale, the auto-calibrated oracle λ
// and the Fig. 1 power model) every run shares.
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
	// defaults); result-defining, so CanonicalHash digests them.
	SwitchPenalty int
	Interval      int
	IPCThreshold  float64
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
// key. Workers is excluded (scheduling only).
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
func (r ExploreResult) ParetoPoints() []Point { return marked(r.Points) }

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
