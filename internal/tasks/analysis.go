package tasks

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"vccmin/internal/experiments"
	"vccmin/internal/geom"
	"vccmin/internal/overhead"
	"vccmin/internal/power"
	"vccmin/internal/prob"
)

// ---- capacity ----

// CapacityRequest asks for the Section IV closed forms at one (geometry,
// pfail, granularity) point, with an optional Monte Carlo cross-check.
// Field names match the GET /v1/capacity query parameters. Workers only
// changes Monte Carlo scheduling, never the estimate, so it is excluded
// from the canonical hash.
type CapacityRequest struct {
	Pfail       *float64 `json:"pfail,omitempty"` // default 0.001
	Geometry    string   `json:"geom,omitempty"`  // SIZExWAYSxBLOCK; default reference L1
	Granularity string   `json:"gran,omitempty"`  // block|set|way; default block
	Trials      int      `json:"trials,omitempty"`
	Seed        int64    `json:"seed,omitempty"` // default 1
	Workers     int      `json:"workers,omitempty"`
}

// normalized applies the defaults and strips the scheduling knob — the
// form the canonical hash digests.
func (r CapacityRequest) normalized() CapacityRequest {
	if r.Pfail == nil {
		v := 0.001
		r.Pfail = &v
	}
	if r.Granularity == "" {
		r.Granularity = "block"
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	r.Workers = 0
	return r
}

// CapacityResponse carries the Section IV closed forms at one (geometry,
// pfail, granularity) point, plus an optional Monte Carlo cross-check.
type CapacityResponse struct {
	Pfail       float64 `json:"pfail"`
	Geometry    string  `json:"geometry"`
	Granularity string  `json:"granularity"`

	ExpectedCapacity        float64 `json:"expected_capacity"`          // Eq. 2 at the granularity
	MeanFaultyBlockFraction float64 `json:"mean_faulty_block_fraction"` // 1 - Eq. 2 per block
	WordDisableFailProb     float64 `json:"word_disable_fail_prob"`     // Eqs. 4-5
	IncrementalWDCapacity   float64 `json:"incremental_wd_capacity"`    // Eq. 6
	BitFixFailProb          float64 `json:"bitfix_fail_prob"`           // extension

	// Monte Carlo cross-check, present when trials > 0 is requested.
	MeasuredCapacity *float64 `json:"measured_capacity,omitempty"`
	Trials           int      `json:"trials,omitempty"`
}

// CapacityTask computes a CapacityResponse.
type CapacityTask struct {
	Req CapacityRequest

	geom geom.Geometry    // parsed (or reference) L1 geometry
	gran prob.Granularity // parsed disabling granularity
}

// NewCapacityTask validates the request into a runnable task, keeping
// the geometry and granularity it parses for Run.
func NewCapacityTask(req CapacityRequest) (CapacityTask, error) {
	if err := nonNegative(field{"trials", int64(req.Trials)}, field{"seed", req.Seed},
		field{"workers", int64(req.Workers)}); err != nil {
		return CapacityTask{}, err
	}
	n := req.normalized()
	if err := checkPfail(*n.Pfail); err != nil {
		return CapacityTask{}, err
	}
	t := CapacityTask{Req: req, geom: experiments.ReferenceGeometry()}
	var err error
	if n.Geometry != "" {
		if t.geom, err = geom.Parse(n.Geometry); err != nil {
			return CapacityTask{}, err
		}
	}
	if t.gran, err = prob.ParseGranularity(n.Granularity); err != nil {
		return CapacityTask{}, err
	}
	if n.Trials > 10_000 {
		return CapacityTask{}, fmt.Errorf("trials %d too large (max 10000)", n.Trials)
	}
	return t, nil
}

// Kind implements engine.Task.
func (t CapacityTask) Kind() string { return KindCapacity }

// CanonicalHash digests the defaulted request minus the worker knob.
func (t CapacityTask) CanonicalHash() string { return hashJSON(KindCapacity, t.Req.normalized()) }

// Run implements engine.Task.
func (t CapacityTask) Run(ctx context.Context) (any, error) {
	r := t.Req.normalized()
	pfail, g, gran := *r.Pfail, t.geom, t.gran
	resp := CapacityResponse{
		Pfail:                   pfail,
		Geometry:                fmt.Sprintf("%dx%dx%d", g.SizeBytes, g.Ways, g.BlockBytes),
		Granularity:             gran.String(),
		ExpectedCapacity:        prob.GranularityCapacity(g, gran, pfail),
		MeanFaultyBlockFraction: prob.MeanFaultyBlockFraction(g.CellsPerBlock(), pfail),
		WordDisableFailProb:     prob.WordDisableWholeCacheFailProb(g.Blocks(), g.BlockBytes, 32, 8, pfail),
		IncrementalWDCapacity:   prob.IncrementalWDCapacity(g.DataBits(), 8, 32, pfail),
		BitFixFailProb:          prob.BitFixWholeCacheFailProb(g.Blocks(), g.DataBits(), 8, 1, pfail),
	}
	if r.Trials > 0 {
		// The worker knob bounds the Monte Carlo pool (0 = all CPUs),
		// clamped so an unauthenticated request cannot multiply sampler
		// buffers; the estimate itself is identical at every setting.
		workers := t.Req.Workers
		if max := runtime.GOMAXPROCS(0); workers > max {
			workers = max
		}
		mc := experiments.MeasuredBlockDisableCapacityWorkers(g, pfail, r.Trials, r.Seed, workers)
		resp.MeasuredCapacity = &mc
		resp.Trials = r.Trials
	}
	return resp, nil
}

// ---- operating-point ----

// OperatingPointRequest asks the Fig. 1 model either for the point a
// pfail implies or for the cheapest point delivering a performance
// floor. Setting MinPerformance selects the second mode and makes Pfail
// irrelevant.
type OperatingPointRequest struct {
	Pfail          *float64 `json:"pfail,omitempty"` // default 0.001
	MinPerformance *float64 `json:"min_performance,omitempty"`
}

func (r OperatingPointRequest) normalized() OperatingPointRequest {
	if r.MinPerformance != nil {
		r.Pfail = nil // ignored in performance-floor mode
		return r
	}
	if r.Pfail == nil {
		v := 0.001
		r.Pfail = &v
	}
	return r
}

// OperatingPointResponse is the Fig. 1 model's answer at one query point.
type OperatingPointResponse struct {
	Pfail          float64 `json:"pfail,omitempty"`
	MinPerformance float64 `json:"min_performance,omitempty"`

	Voltage              float64 `json:"voltage"`
	Frequency            float64 `json:"frequency"`
	Power                float64 `json:"power"`
	Performance          float64 `json:"performance"`
	Zone                 string  `json:"zone"`
	EnergyPerInstruction float64 `json:"energy_per_instruction"`
}

// OperatingPointTask computes an OperatingPointResponse.
type OperatingPointTask struct {
	Req OperatingPointRequest
}

// NewOperatingPointTask validates the request into a runnable task.
func NewOperatingPointTask(req OperatingPointRequest) (OperatingPointTask, error) {
	n := req.normalized()
	if n.MinPerformance == nil {
		if p := *n.Pfail; !(p > 0 && p < 1) {
			return OperatingPointTask{}, fmt.Errorf("pfail %v out of (0,1)", p)
		}
	} else if v := *n.MinPerformance; math.IsNaN(v) || math.IsInf(v, 0) {
		// CanonicalHash's JSON encoding cannot represent the value.
		return OperatingPointTask{}, fmt.Errorf("min_performance %v is not a finite number", v)
	}
	return OperatingPointTask{Req: req}, nil
}

// Kind implements engine.Task.
func (t OperatingPointTask) Kind() string { return KindOperatingPoint }

// CanonicalHash digests the defaulted request.
func (t OperatingPointTask) CanonicalHash() string {
	return hashJSON(KindOperatingPoint, t.Req.normalized())
}

// Run implements engine.Task.
func (t OperatingPointTask) Run(ctx context.Context) (any, error) {
	r := t.Req.normalized()
	m := power.Default()
	if r.MinPerformance != nil {
		minPerf := *r.MinPerformance
		choice, ok := m.MostEfficientPoint(minPerf, 400)
		if !ok {
			return nil, fmt.Errorf("no operating point delivers performance >= %v", minPerf)
		}
		return OperatingPointResponse{
			MinPerformance:       minPerf,
			Voltage:              choice.Point.Voltage,
			Frequency:            choice.Point.Freq,
			Power:                choice.Point.Power,
			Performance:          choice.Point.Performance,
			Zone:                 choice.Point.Zone.String(),
			EnergyPerInstruction: choice.EnergyPerWork,
		}, nil
	}
	pfail := *r.Pfail
	p := m.OperatingPointForPfail(pfail)
	return OperatingPointResponse{
		Pfail:                pfail,
		Voltage:              p.Voltage,
		Frequency:            p.Freq,
		Power:                p.Power,
		Performance:          p.Performance,
		Zone:                 p.Zone.String(),
		EnergyPerInstruction: power.EnergyPerWork(p),
	}, nil
}

// ---- overhead ----

// OverheadRow is one Table I row with the scheme spelled out.
type OverheadRow struct {
	Scheme             string `json:"scheme"`
	TagTransistors     int    `json:"tag_transistors"`
	DisableTransistors int    `json:"disable_transistors"`
	VictimTransistors  int    `json:"victim_transistors"`
	AlignmentNetwork   bool   `json:"alignment_network"`
	Total              int    `json:"total"`
}

// OverheadResponse is the Table I accounting for the reference
// configuration.
type OverheadResponse struct {
	Rows []OverheadRow `json:"rows"`
}

// OverheadTask computes the Table I transistor-overhead comparison. It
// has no parameters: there is exactly one reference table.
type OverheadTask struct{}

// Kind implements engine.Task.
func (OverheadTask) Kind() string { return KindOverhead }

// CanonicalHash implements engine.Task; the table has a single identity.
func (OverheadTask) CanonicalHash() string { return hashJSON(KindOverhead, struct{}{}) }

// Run implements engine.Task.
func (OverheadTask) Run(ctx context.Context) (any, error) {
	rows := overhead.TableI()
	out := make([]OverheadRow, 0, len(rows))
	for _, row := range rows {
		out = append(out, OverheadRow{
			Scheme:             row.Scheme.String(),
			TagTransistors:     row.TagTransistors,
			DisableTransistors: row.DisableTransistors,
			VictimTransistors:  row.VictimTransistors,
			AlignmentNetwork:   row.AlignmentNetwork,
			Total:              row.Total,
		})
	}
	return OverheadResponse{Rows: out}, nil
}
