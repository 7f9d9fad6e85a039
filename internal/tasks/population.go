package tasks

import (
	"context"
	"fmt"

	"vccmin/internal/cliflag"
	"vccmin/internal/geom"
	"vccmin/internal/population"
	"vccmin/internal/sim"
)

// FleetRequest is the fleet sweep's JSON shape (the GET/POST /v1/fleet
// parameters): the die population, the variation model, the schemes to
// certify under and the voltage grid. Zero fields take the population
// defaults; note that, as everywhere in this package, an explicit zero
// selects the default (use a tiny sigma to approximate "no variation").
type FleetRequest struct {
	Dies          int      `json:"dies,omitempty" help:"fleet size in dies (0 = default 1000)"`
	DiesPerWafer  int      `json:"dies_per_wafer,omitempty" help:"wafer capacity (0 = default 64)"`
	Schemes       []string `json:"schemes,omitempty" help:"schemes to certify each die under, comma list (default block,word)"`
	WaferSigma    *float64 `json:"wafer_sigma,omitempty" help:"lognormal sigma of the per-wafer mean multiplier (0 = default 0.25)"`
	Gradient      *float64 `json:"gradient,omitempty" help:"intra-wafer radial log-multiplier span (0 = default 0.4)"`
	DieSigma      *float64 `json:"die_sigma,omitempty" help:"lognormal sigma of the per-die noise (0 = default 0.15)"`
	CapacityFloor *float64 `json:"capacity_floor,omitempty" help:"surviving-capacity fraction a capacity scheme must retain (0 = default 0.75)"`
	VSteps        int      `json:"vsteps,omitempty" help:"voltage grid points between Vcc-min and the floor (0 = default 33)"`
	Geometry      string   `json:"geom,omitempty" help:"cache geometry SIZExWAYSxBLOCK (default 32768x8x64)"`
	Seed          int64    `json:"seed,omitempty" help:"fleet base seed; every wafer and die stream derives from it (0 = default 1)"`

	// IncludeDies adds the per-die rows to the response. Like the DVFS
	// explorer's runs flag it changes the stored bytes, so it is part
	// of the canonical hash.
	IncludeDies bool `json:"include_dies,omitempty" help:"include the per-die rows in the output"`

	// Workers bounds the fan-out goroutines. Scheduling only — results
	// are bit-identical at every value — so it is zeroed before
	// hashing.
	Workers int `json:"workers,omitempty" help:"fan-out goroutines (0 = GOMAXPROCS); never changes results"`
}

// normalized applies the scalar defaults and strips the scheduling
// knob — the form the hash digests.
func (r FleetRequest) normalized() FleetRequest {
	if r.Dies == 0 {
		r.Dies = 1000
	}
	if r.DiesPerWafer == 0 {
		r.DiesPerWafer = population.DefaultDiesPerWafer
	}
	if len(r.Schemes) == 0 {
		r.Schemes = []string{"block", "word"}
	}
	r.WaferSigma = defaultPtr(r.WaferSigma, population.DefaultWaferSigma)
	r.Gradient = defaultPtr(r.Gradient, population.DefaultGradient)
	r.DieSigma = defaultPtr(r.DieSigma, population.DefaultDieSigma)
	r.CapacityFloor = defaultPtr(r.CapacityFloor, population.DefaultCapacityFloor)
	if r.VSteps == 0 {
		r.VSteps = population.DefaultVSteps
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	r.Workers = 0
	return r
}

func defaultPtr(p *float64, def float64) *float64 {
	if p == nil || *p == 0 {
		return &def
	}
	return p
}

// FleetSpec converts the request into the population layer's spec,
// validating every field.
func (r FleetRequest) FleetSpec() (population.FleetSpec, error) {
	if err := nonNegative(field{"dies", int64(r.Dies)}, field{"dies_per_wafer", int64(r.DiesPerWafer)},
		field{"vsteps", int64(r.VSteps)}, field{"seed", r.Seed}, field{"workers", int64(r.Workers)}); err != nil {
		return population.FleetSpec{}, err
	}
	n := r.normalized()
	spec := population.FleetSpec{
		Dies:          n.Dies,
		DiesPerWafer:  n.DiesPerWafer,
		Variation:     population.Variation{WaferSigma: *n.WaferSigma, Gradient: *n.Gradient, DieSigma: *n.DieSigma},
		VSteps:        n.VSteps,
		CapacityFloor: *n.CapacityFloor,
		Seed:          n.Seed,
		Workers:       r.Workers,
	}
	var err error
	if spec.Schemes, err = parseList(n.Schemes, sim.ParseScheme); err != nil {
		return spec, err
	}
	if n.Geometry != "" {
		if spec.Geom, err = geom.Parse(n.Geometry); err != nil {
			return spec, err
		}
	}
	spec = spec.WithDefaults()
	return spec, spec.Check()
}

// FleetResponse is the fleet sweep's answer: the resolved population
// parameters, the voltage grid and the per-scheme Vcc-min
// distributions; per-die rows only when requested.
type FleetResponse struct {
	Hash          string                   `json:"hash"`
	Dies          int                      `json:"dies"`
	DiesPerWafer  int                      `json:"dies_per_wafer"`
	Wafers        int                      `json:"wafers"`
	Seed          int64                    `json:"seed"`
	Geometry      string                   `json:"geom"`
	Variation     population.Variation     `json:"variation"`
	CapacityFloor float64                  `json:"capacity_floor"`
	Grid          []float64                `json:"grid"`
	Schemes       []population.SchemeYield `json:"schemes"`
	DieRows       []population.DieResult   `json:"die_rows,omitempty"`
}

// FleetTask sweeps a simulated fleet and reports its Vcc-min
// distribution and yield curves.
type FleetTask struct {
	Req  FleetRequest
	Spec population.FleetSpec
	hash string
}

// NewFleetTask validates the request into a runnable task and hashes
// it once, for both the engine's key and the response.
func NewFleetTask(req FleetRequest) (FleetTask, error) {
	spec, err := req.FleetSpec()
	if err != nil {
		return FleetTask{}, err
	}
	return FleetTask{Req: req, Spec: spec, hash: hashJSON(KindFleetSweep, req.normalized())}, nil
}

// Kind implements engine.Task.
func (t FleetTask) Kind() string { return KindFleetSweep }

// CanonicalHash digests the defaulted request with the workers knob
// stripped.
func (t FleetTask) CanonicalHash() string { return t.hash }

// DieCount reports the fleet size after defaults, for request gates.
func (t FleetTask) DieCount() int { return t.Spec.Dies }

// Run implements engine.Task.
func (t FleetTask) Run(ctx context.Context) (any, error) {
	res, err := population.RunFleet(t.Spec)
	if err != nil {
		return nil, err
	}
	resp := FleetResponse{
		Hash:          t.hash,
		Dies:          t.Spec.Dies,
		DiesPerWafer:  t.Spec.DiesPerWafer,
		Wafers:        t.Spec.Wafers(),
		Seed:          t.Spec.Seed,
		Geometry:      geomString(t.Spec.Geom),
		Variation:     t.Spec.Variation,
		CapacityFloor: t.Spec.CapacityFloor,
		Grid:          res.Grid,
		Schemes:       res.Schemes,
	}
	if t.Req.IncludeDies {
		resp.DieRows = res.Dies
	}
	return resp, nil
}

func geomString(g geom.Geometry) string {
	return fmt.Sprintf("%dx%dx%d", g.SizeBytes, g.Ways, g.BlockBytes)
}

// PredictRequest is the data-efficient Vcc-min prediction study's JSON
// shape: the same population parameters as a fleet sweep, one scheme,
// the per-die measurement budget K and the sample size. A field it
// shares with FleetRequest has that field's json name and type, so
// cliflag.Copy maps one request onto the other.
type PredictRequest struct {
	Dies          int      `json:"dies,omitempty"`           // default 1000
	DiesPerWafer  int      `json:"dies_per_wafer,omitempty"` // default 64
	Scheme        string   `json:"scheme,omitempty"`         // default block
	WaferSigma    *float64 `json:"wafer_sigma,omitempty"`    // default 0.25
	Gradient      *float64 `json:"gradient,omitempty"`       // default 0.4
	DieSigma      *float64 `json:"die_sigma,omitempty"`      // default 0.15
	CapacityFloor *float64 `json:"capacity_floor,omitempty"` // default 0.75
	Geometry      string   `json:"geom,omitempty"`           // default 32768x8x64
	Seed          int64    `json:"seed,omitempty"`           // default 1
	K             int      `json:"k,omitempty"`              // default 6
	Sample        int      `json:"sample,omitempty"`         // default 128

	// Workers is scheduling only; zeroed before hashing.
	Workers int `json:"workers,omitempty"`
}

// normalized applies the scalar defaults and strips the scheduling
// knob — the form the hash digests.
func (r PredictRequest) normalized() PredictRequest {
	if r.Dies == 0 {
		r.Dies = 1000
	}
	if r.DiesPerWafer == 0 {
		r.DiesPerWafer = population.DefaultDiesPerWafer
	}
	if r.Scheme == "" {
		r.Scheme = "block"
	}
	r.WaferSigma = defaultPtr(r.WaferSigma, population.DefaultWaferSigma)
	r.Gradient = defaultPtr(r.Gradient, population.DefaultGradient)
	r.DieSigma = defaultPtr(r.DieSigma, population.DefaultDieSigma)
	r.CapacityFloor = defaultPtr(r.CapacityFloor, population.DefaultCapacityFloor)
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.K == 0 {
		r.K = population.DefaultPredictK
	}
	if r.Sample == 0 {
		r.Sample = population.DefaultPredictSample
	}
	r.Workers = 0
	return r
}

// PredictSpec converts the request into the population layer's spec,
// validating every field. The population parameters go through the
// fleet sweep's own conversion, copied field by field by json name.
func (r PredictRequest) PredictSpec() (population.PredictSpec, error) {
	n := r.normalized()
	fleet := FleetRequest{Schemes: []string{n.Scheme}}
	cliflag.Copy(&fleet, &r)
	fspec, err := fleet.FleetSpec()
	if err != nil {
		return population.PredictSpec{}, err
	}
	if err := nonNegative(field{"k", int64(r.K)}, field{"sample", int64(r.Sample)}); err != nil {
		return population.PredictSpec{}, err
	}
	spec := population.PredictSpec{
		Fleet:  fspec,
		Scheme: fspec.Schemes[0],
		K:      n.K,
		Sample: n.Sample,
	}
	spec = spec.WithDefaults()
	return spec, spec.Check()
}

// PredictResponse is the study's answer: the resolved parameters plus
// the |estimate - truth| error distribution in volts.
type PredictResponse struct {
	Hash         string  `json:"hash"`
	Scheme       string  `json:"scheme"`
	K            int     `json:"k"`
	Sample       int     `json:"sample"`
	Dies         int     `json:"dies"`
	Seed         int64   `json:"seed"`
	MeanAbsError float64 `json:"mean_abs_error"`
	P50          float64 `json:"p50"`
	P90          float64 `json:"p90"`
	P99          float64 `json:"p99"`
	Max          float64 `json:"max"`
	BracketBound float64 `json:"bracket_bound"`
}

// PredictTask estimates sampled dies' minimum operating voltages from
// K measurements each and reports error quantiles against ground
// truth.
type PredictTask struct {
	Req  PredictRequest
	Spec population.PredictSpec
	hash string
}

// NewPredictTask validates the request into a runnable task and hashes
// it once, for both the engine's key and the response.
func NewPredictTask(req PredictRequest) (PredictTask, error) {
	spec, err := req.PredictSpec()
	if err != nil {
		return PredictTask{}, err
	}
	return PredictTask{Req: req, Spec: spec, hash: hashJSON(KindVccminPredict, req.normalized())}, nil
}

// Kind implements engine.Task.
func (t PredictTask) Kind() string { return KindVccminPredict }

// CanonicalHash digests the defaulted request with the workers knob
// stripped.
func (t PredictTask) CanonicalHash() string { return t.hash }

// SampleCount reports the number of dies measured, for request gates.
func (t PredictTask) SampleCount() int { return t.Spec.Sample }

// Run implements engine.Task.
func (t PredictTask) Run(ctx context.Context) (any, error) {
	res, err := population.RunPredict(t.Spec)
	if err != nil {
		return nil, err
	}
	return PredictResponse{
		Hash:         t.hash,
		Scheme:       t.Spec.Scheme.String(),
		K:            t.Spec.K,
		Sample:       t.Spec.Sample,
		Dies:         t.Spec.Fleet.Dies,
		Seed:         t.Spec.Fleet.Seed,
		MeanAbsError: res.MeanAbsError,
		P50:          res.P50,
		P90:          res.P90,
		P99:          res.P99,
		Max:          res.Max,
		BracketBound: res.BracketBound,
	}, nil
}
