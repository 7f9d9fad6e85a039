package tasks

import (
	"context"
	"fmt"

	"vccmin/internal/dvfs"
	"vccmin/internal/geom"
	"vccmin/internal/sim"
	"vccmin/internal/workload"
)

// DVFSExploreRequest is the Pareto explorer's grid (the GET /v1/dvfs
// parameters): comma axes spelled as string lists, plus the switch
// economics. Empty axes take the explorer defaults. Scale 0 means the
// workloads' reference instruction budgets.
type DVFSExploreRequest struct {
	Workloads     []string `json:"workloads,omitempty" help:"multi-phase workloads, comma list (default: all builtins)"`
	Schemes       []string `json:"schemes,omitempty" help:"low-voltage schemes, comma list of baseline,word,block,inc-word,bitfix (default block,word)"`
	Policies      []string `json:"policies,omitempty" help:"scheduling policies, comma list of static-high,static-low,oracle,reactive,interval (default: all)"`
	Victim        string   `json:"victim,omitempty" help:"victim cache: none, 10t or 6t (default none)"`
	Pfail         *float64 `json:"pfail,omitempty" help:"per-cell failure probability at the low-voltage point (default 0.001)"`
	Seed          int64    `json:"seed,omitempty" help:"base seed for every run's random streams (0 = default 1)"`
	Scale         int      `json:"scale,omitempty" help:"rescale each workload to about this many instructions (0 = reference scale)"`
	SwitchPenalty int      `json:"penalty,omitempty" help:"mode-switch penalty in cycles (0 = default 2000, -1 = free switches)"`
	Interval      int      `json:"interval,omitempty" help:"decision-chunk size in instructions (0 = default 2000)"`
	IPCThreshold  float64  `json:"ipc_threshold,omitempty" help:"reactive policy's high-mode IPC threshold (0 = default 0.1)"`

	// IncludeRuns adds the full per-run phase accounting to the
	// response. It changes the stored bytes, so it is part of the task's
	// canonical hash (but not of the response's spec hash).
	IncludeRuns bool `json:"runs,omitempty" help:"include the full per-run phase accounting in the output"`
}

// ExploreSpec converts the request into the explorer's spec form,
// validating every axis value.
func (r DVFSExploreRequest) ExploreSpec() (dvfs.ExploreSpec, error) {
	var spec dvfs.ExploreSpec
	var err error
	if spec.Workloads, err = parseList(r.Workloads, func(w string) (string, error) {
		_, err := workload.MultiPhaseByName(w)
		return w, err
	}); err != nil {
		return spec, err
	}
	if spec.Schemes, err = parseList(r.Schemes, sim.ParseScheme); err != nil {
		return spec, err
	}
	if spec.Policies, err = parseList(r.Policies, parseSchedulable); err != nil {
		return spec, err
	}
	if r.Victim != "" {
		v, err := sim.ParseVictim(r.Victim)
		if err != nil {
			return spec, err
		}
		spec.Victim = v
	}
	pfail := 0.001
	if r.Pfail != nil {
		pfail = *r.Pfail
	}
	if err := checkPfail(pfail); err != nil {
		return spec, err
	}
	spec.Pfail = pfail
	if err := nonNegative(field{"seed", r.Seed}, field{"scale", int64(r.Scale)}); err != nil {
		return spec, err
	}
	spec.Seed = r.Seed
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	spec.Scale = r.Scale
	spec.SwitchPenalty = r.SwitchPenalty
	spec.Interval = r.Interval
	spec.IPCThreshold = r.IPCThreshold
	return spec, nil
}

// DVFSResponse is the explorer's answer: every explored operating point
// (frontier membership marked) plus the frontier subset, in grid order.
// Hash is the explorer spec's canonical hash — the identity /v1/dvfs
// has always reported.
type DVFSResponse struct {
	Hash      string        `json:"hash"`
	Pfail     float64       `json:"pfail"`
	Seed      int64         `json:"seed"`
	Scale     int           `json:"scale,omitempty"`
	Workloads []string      `json:"workloads"`
	Points    []dvfs.Point  `json:"points"`
	Frontier  []dvfs.Point  `json:"frontier"`
	Runs      []dvfs.Result `json:"runs,omitempty"`
}

// DVFSExploreTask runs the (workload × scheme × policy) grid and marks
// each workload's Pareto frontier.
type DVFSExploreTask struct {
	Spec        dvfs.ExploreSpec // defaulted by the constructor
	IncludeRuns bool
}

// NewDVFSExploreTask validates the request into a runnable task.
func NewDVFSExploreTask(req DVFSExploreRequest) (DVFSExploreTask, error) {
	spec, err := req.ExploreSpec()
	if err != nil {
		return DVFSExploreTask{}, err
	}
	return DVFSExploreTask{Spec: spec.WithDefaults(), IncludeRuns: req.IncludeRuns}, nil
}

// Kind implements engine.Task.
func (t DVFSExploreTask) Kind() string { return KindDVFSExplore }

// CanonicalHash is the explorer spec's hash, extended when the full
// per-run accounting is included (different stored bytes, different
// identity).
func (t DVFSExploreTask) CanonicalHash() string {
	h := t.Spec.CanonicalHash()
	if t.IncludeRuns {
		return hashJSON(KindDVFSExplore, struct {
			Spec string `json:"spec"`
			Runs bool   `json:"runs"`
		}{Spec: h, Runs: true})
	}
	return h
}

// GridCells reports the grid size after defaults, for request gates.
func (t DVFSExploreTask) GridCells() int {
	return len(t.Spec.Workloads) * len(t.Spec.Schemes) * len(t.Spec.Policies)
}

// Run implements engine.Task.
func (t DVFSExploreTask) Run(ctx context.Context) (any, error) {
	res, err := dvfs.Explore(t.Spec)
	if err != nil {
		return nil, err
	}
	resp := DVFSResponse{
		Hash:      t.Spec.CanonicalHash(),
		Pfail:     t.Spec.Pfail,
		Seed:      t.Spec.Seed,
		Scale:     t.Spec.Scale,
		Workloads: t.Spec.Workloads,
		Points:    res.Points,
		Frontier:  res.ParetoPoints(),
	}
	if t.IncludeRuns {
		resp.Runs = res.Runs
	}
	return resp, nil
}

// DVFSRunRequest is one scheduled dual-mode run: a builtin multi-phase
// workload driven across the two voltage domains by one policy.
type DVFSRunRequest struct {
	Workload      string   `json:"workload"`
	Scheme        string   `json:"scheme,omitempty"`
	Victim        string   `json:"victim,omitempty"`
	Policy        string   `json:"policy"`
	Geometry      string   `json:"geom,omitempty"`
	Pfail         *float64 `json:"pfail,omitempty"` // default 0.001
	Seed          int64    `json:"seed,omitempty"`  // default 1
	Scale         int      `json:"scale,omitempty"`
	SwitchPenalty int      `json:"penalty,omitempty"`
	Interval      int      `json:"interval,omitempty"`
	IPCThreshold  float64  `json:"ipc_threshold,omitempty"`
}

// normalized applies the scalar defaults — the form the hash digests.
func (r DVFSRunRequest) normalized() DVFSRunRequest {
	if r.Pfail == nil {
		v := 0.001
		r.Pfail = &v
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	return r
}

// DVFSRunTask executes one scheduled run and stores its full
// dvfs.Result accounting.
type DVFSRunTask struct {
	Req DVFSRunRequest

	cfg dvfs.Config // the scheduler config the constructor built
}

// NewDVFSRunTask validates the request into a runnable task, keeping
// the scheduler config it builds for Run.
func NewDVFSRunTask(req DVFSRunRequest) (DVFSRunTask, error) {
	cfg, err := req.config()
	if err != nil {
		return DVFSRunTask{}, err
	}
	return DVFSRunTask{Req: req, cfg: cfg}, nil
}

// parseSchedulable parses a policy a scheduler can run: any but none.
func parseSchedulable(s string) (dvfs.PolicyKind, error) {
	p, err := dvfs.ParsePolicy(s)
	if err == nil && p == dvfs.PolicyNone {
		err = fmt.Errorf("policy %q is not schedulable", s)
	}
	return p, err
}

// config builds the scheduler Config, validating every field.
func (r DVFSRunRequest) config() (dvfs.Config, error) {
	r = r.normalized()
	var cfg dvfs.Config
	mp, err := workload.MultiPhaseByName(r.Workload)
	if err != nil {
		return cfg, err
	}
	if r.Scale > 0 {
		mp = mp.Scaled(r.Scale)
	}
	cfg.Workload = mp
	if r.Scheme != "" {
		if cfg.Scheme, err = sim.ParseScheme(r.Scheme); err != nil {
			return cfg, err
		}
	}
	if r.Victim != "" {
		if cfg.Victim, err = sim.ParseVictim(r.Victim); err != nil {
			return cfg, err
		}
	}
	if r.Geometry != "" {
		if cfg.Geometry, err = geom.Parse(r.Geometry); err != nil {
			return cfg, err
		}
	}
	if err := checkPfail(*r.Pfail); err != nil {
		return cfg, err
	}
	cfg.Pfail = *r.Pfail
	if err := nonNegative(field{"seed", r.Seed}); err != nil {
		return cfg, err
	}
	if cfg.Policy, err = parseSchedulable(r.Policy); err != nil {
		return cfg, err
	}
	cfg.Seed = r.Seed
	cfg.SwitchPenalty = r.SwitchPenalty
	cfg.Interval = r.Interval
	cfg.IPCThreshold = r.IPCThreshold
	return cfg, nil
}

// Kind implements engine.Task.
func (t DVFSRunTask) Kind() string { return KindDVFSRun }

// CanonicalHash digests the defaulted request.
func (t DVFSRunTask) CanonicalHash() string { return hashJSON(KindDVFSRun, t.Req.normalized()) }

// Run implements engine.Task.
func (t DVFSRunTask) Run(ctx context.Context) (any, error) { return dvfs.Run(t.cfg) }
