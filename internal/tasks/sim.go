package tasks

import (
	"context"
	"fmt"

	"vccmin/internal/experiments"
	"vccmin/internal/faults"
	"vccmin/internal/geom"
	"vccmin/internal/sim"
)

// SimRequest is one simulation run's parameters (the POST /v1/sim body).
// String fields use the CLI forms (scheme "block", victim "10t", mode
// "low"); zero values take the reference defaults.
type SimRequest struct {
	Benchmark    string  `json:"benchmark" help:"benchmark to simulate; vccmin-sim runs this one and prints JSON instead of the figures"`
	Mode         string  `json:"mode" help:"voltage domain (low,high)"`
	Scheme       string  `json:"scheme" help:"mitigation scheme (baseline,word,block,inc-word,bitfix)"`
	Victim       string  `json:"victim" help:"victim cache (none,10t,6t)"`
	Geometry     string  `json:"geometry" flag:"geom" help:"L1 geometry SIZExWAYSxBLOCK (empty = reference)"`
	Pfail        float64 `json:"pfail" help:"per-cell failure probability below Vcc-min"`
	Seed         int64   `json:"seed" help:"base random seed"`
	Instructions int     `json:"instructions" help:"instructions per simulation run"`
}

// options validates the request and converts it into the simulator's
// option form, without the fault-map pair, and the L1 geometry the pair
// is drawn over.
func (req SimRequest) options() (sim.Options, geom.Geometry, error) {
	opts := sim.Options{Benchmark: req.Benchmark, Seed: req.Seed, Instructions: req.Instructions}
	g := experiments.ReferenceGeometry()
	if opts.Benchmark == "" {
		return opts, g, fmt.Errorf("benchmark is required")
	}
	switch req.Mode {
	case "", "low", "low-voltage":
		opts.Mode = sim.LowVoltage
	case "high", "high-voltage":
		opts.Mode = sim.HighVoltage
	default:
		return opts, g, fmt.Errorf("bad mode %q (want low or high)", req.Mode)
	}
	var err error
	if req.Scheme != "" {
		if opts.Scheme, err = sim.ParseScheme(req.Scheme); err != nil {
			return opts, g, err
		}
	}
	if req.Victim != "" {
		if opts.Victim, err = sim.ParseVictim(req.Victim); err != nil {
			return opts, g, err
		}
	}
	if req.Geometry != "" {
		if g, err = geom.Parse(req.Geometry); err != nil {
			return opts, g, err
		}
		machine := sim.Reference(opts.Mode)
		machine.L1Size, machine.L1Ways, machine.L1BlockBytes = g.SizeBytes, g.Ways, g.BlockBytes
		opts.Machine = &machine
	}
	return opts, g, checkPfail(req.Pfail)
}

// SimResponse summarizes one simulation run.
type SimResponse struct {
	Benchmark     string  `json:"benchmark"`
	Mode          string  `json:"mode"`
	Scheme        string  `json:"scheme"`
	Victim        string  `json:"victim"`
	Pfail         float64 `json:"pfail"`
	Seed          int64   `json:"seed"`
	Instructions  int     `json:"instructions"`
	IPC           float64 `json:"ipc"`
	ICapacity     float64 `json:"i_capacity"`
	DCapacity     float64 `json:"d_capacity"`
	VictimHitRate float64 `json:"victim_hit_rate"`
}

// SimTask runs one simulation.
type SimTask struct {
	Req SimRequest

	opts sim.Options   // the simulator options, without the fault-map pair
	geom geom.Geometry // the L1 geometry the pair is drawn over
}

// NewSimTask validates the request into a runnable task, keeping the
// simulator options it builds for Run. The fault-map pair is drawn when
// the task runs, not here: a request served from the result cache never
// needs it.
func NewSimTask(req SimRequest) (SimTask, error) {
	opts, g, err := req.options()
	if err != nil {
		return SimTask{}, err
	}
	return SimTask{Req: req, opts: opts, geom: g}, nil
}

// Kind implements engine.Task.
func (t SimTask) Kind() string { return KindSim }

// CanonicalHash digests the request verbatim: every field is
// result-defining (zero values are the reference defaults).
func (t SimTask) CanonicalHash() string { return hashJSON(KindSim, t.Req) }

// Run implements engine.Task.
func (t SimTask) Run(ctx context.Context) (any, error) {
	opts := t.opts
	// Block-disabling and incremental word-disabling at low voltage run
	// over a fault-map pair drawn deterministically from the request's
	// pfail and seed on the sparse fast path.
	if opts.Mode == sim.LowVoltage &&
		(opts.Scheme == sim.BlockDisable || opts.Scheme == sim.IncrementalWordDisable) {
		pair := faults.GeneratePairSparse(t.geom, t.geom, 32, t.Req.Pfail, faults.DeriveSeed(t.Req.Seed, "serve-sim-pair"))
		opts.Pair = &pair
	}
	res, err := sim.Run(opts)
	if err != nil {
		return nil, err
	}
	return SimResponse{
		Benchmark:     t.Req.Benchmark,
		Mode:          opts.Mode.String(),
		Scheme:        opts.Scheme.String(),
		Victim:        opts.Victim.String(),
		Pfail:         t.Req.Pfail,
		Seed:          t.Req.Seed,
		Instructions:  opts.Instructions,
		IPC:           res.IPC,
		ICapacity:     res.ICapacity,
		DCapacity:     res.DCapacity,
		VictimHitRate: res.VictimHitRate,
	}, nil
}
