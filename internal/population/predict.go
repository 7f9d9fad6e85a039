package population

import (
	"fmt"
	"math"
	"sort"

	"vccmin/internal/par"
	"vccmin/internal/sim"
	"vccmin/internal/stats"
)

// PredictSpec configures a data-efficient Vcc-min prediction study: for
// Sample dies drawn evenly across the fleet, estimate each die's
// minimum operating voltage from K adaptive (voltage, pass/fail)
// measurements and compare against the die's bisected ground truth.
type PredictSpec struct {
	// Fleet is the die population the study samples; its Schemes field
	// is ignored in favor of Scheme below.
	Fleet FleetSpec
	// Scheme is the fault-tolerance scheme the die is certified under.
	// The zero value is sim.Baseline; the task layer defaults its
	// string form to block-disable before building a spec.
	Scheme sim.Scheme
	// K is the number of adaptive bisection measurements the predictor
	// may spend per die (after the two bracket checks at the nominal
	// Vcc-min and the floor). Default 6.
	K int
	// Sample is the number of dies sampled, evenly strided across the
	// fleet. Default 128, capped at the fleet size.
	Sample int
}

// Predictor defaults.
const (
	DefaultPredictK      = 6
	DefaultPredictSample = 128
	// truthIters is the bisection depth of the ground-truth threshold:
	// 40 halvings of the voltage bracket, far below float64 noise.
	truthIters = 40
)

// WithDefaults returns the spec with every zero field defaulted.
func (s PredictSpec) WithDefaults() PredictSpec {
	s.Fleet = s.Fleet.WithDefaults()
	if s.K <= 0 {
		s.K = DefaultPredictK
	}
	if s.Sample <= 0 {
		s.Sample = DefaultPredictSample
	}
	if s.Sample > s.Fleet.Dies {
		s.Sample = s.Fleet.Dies
	}
	return s
}

// Check validates a defaulted spec.
func (s PredictSpec) Check() error {
	if err := s.Fleet.Check(); err != nil {
		return err
	}
	switch {
	case s.K <= 0 || s.K > 60:
		return fmt.Errorf("population: predictor k %d out of [1,60]", s.K)
	case s.Sample <= 0:
		return fmt.Errorf("population: predictor sample must be positive, got %d", s.Sample)
	}
	return nil
}

// PredictResult reports the study's error distribution: how close a
// K-measurement estimate lands to the bisected ground truth, in volts.
type PredictResult struct {
	Spec PredictSpec `json:"-"`
	// Sampled is the number of dies measured.
	Sampled int `json:"sampled"`
	// MeanAbsError is the mean |estimate - truth| over sampled dies.
	MeanAbsError float64 `json:"mean_abs_error"`
	// P50/P90/P99/Max are quantiles of |estimate - truth|.
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
	// BracketBound is the analytic worst case (VccMin-VFloor)/2^(K+1):
	// after K halvings the estimate is the midpoint of a bracket of
	// width span/2^K that still contains the truth.
	BracketBound float64 `json:"bracket_bound"`
}

// RunPredict runs the prediction study. Each sampled die spends two
// bracket measurements (pass at the nominal Vcc-min? pass at the
// floor?) and then K bisection measurements; the estimate is the final
// bracket's midpoint and the truth is the same bisection carried to
// truthIters halvings. Dies fan out over Fleet.Workers goroutines into
// index-ordered slots, bit-identical at every worker count.
func RunPredict(spec PredictSpec) (*PredictResult, error) {
	spec = spec.WithDefaults()
	if err := spec.Check(); err != nil {
		return nil, err
	}
	errs := make([]float64, spec.Sample)
	// Each worker owns one prober; the fan-out never fails.
	_ = par.Do(spec.Sample, spec.Fleet.Workers, func() *prober { return newProber(spec.Fleet) }, func(p *prober, j int) error {
		// Evenly strided sample across the fleet, so the study sees
		// every wafer region, not just the first wafer.
		d := j * spec.Fleet.Dies / spec.Sample
		p.draw(d)
		est, truth := p.estimateAndTruth(spec.Scheme, spec.K)
		errs[j] = math.Abs(est - truth)
		return nil
	}, nil)

	res := &PredictResult{
		Spec:         spec,
		Sampled:      spec.Sample,
		BracketBound: (spec.Fleet.Model.VccMin - spec.Fleet.Model.VFloor) / math.Pow(2, float64(spec.K)+1),
	}
	sum := 0.0
	for _, e := range errs {
		sum += e
	}
	res.MeanAbsError = sum / float64(len(errs))
	sorted := append([]float64(nil), errs...)
	sort.Float64s(sorted)
	res.P50 = stats.QuantileSorted(sorted, 0.50)
	res.P90 = stats.QuantileSorted(sorted, 0.90)
	res.P99 = stats.QuantileSorted(sorted, 0.99)
	res.Max = sorted[len(sorted)-1]
	return res, nil
}

// estimateAndTruth measures the drawn die once: the K-measurement
// estimate and the deep ground truth come from the same bisection
// trajectory, so the estimate's bracket always contains the truth and
// |est - truth| <= span/2^(K+1). One pass resolves the scheme's kill
// severity, after which every simulated measurement is an O(1)
// severity comparison instead of a fault-map rebuild.
func (p *prober) estimateAndTruth(scheme sim.Scheme, k int) (est, truth float64) {
	s := p.killSeverity(scheme)
	lo, hi := p.spec.Model.VFloor, p.spec.Model.VccMin
	if !p.passAt(s, hi) {
		// Unusable even at nominal: both report the top of the range.
		return hi, hi
	}
	if p.passAt(s, lo) {
		return lo, lo
	}
	est = math.NaN()
	for i := 0; i < truthIters; i++ {
		if i == k {
			est = (lo + hi) / 2
		}
		mid := (lo + hi) / 2
		if p.passAt(s, mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	truth = (lo + hi) / 2
	if math.IsNaN(est) { // k >= truthIters: the estimate is the truth
		est = truth
	}
	return est, truth
}
