// Package population models fleet-scale process variation on top of
// the paper's single-chip fault model: instead of every simulated chip
// sharing one global pfail, each die of a manufactured fleet carries
// its own failure-probability multiplier drawn from a wafer-level
// lognormal distribution composed with an intra-wafer spatial gradient
// and per-die noise (in the spirit of the inter-/intra-wafer variation
// alignment of arXiv 2408.06254). From that population the package
// measures the fleet's Vcc-min distribution and yield-versus-voltage
// curves under each fault-tolerance scheme, and runs a data-efficient
// predictor that estimates a die's minimum operating voltage from K
// sampled (voltage, pass/fail) measurements.
//
// Determinism contract: every random quantity derives from the fleet
// seed through faults.DeriveSeed — the wafer mean from ("wafer", w),
// the die noise and fault population from ("fleet-die", d) — so any
// die is reproducible in isolation, fleets shard over workers with
// bit-identical results at every worker count, and the whole layer is
// golden-testable.
//
// Physical model: a die's latent fault population is drawn once at the
// voltage floor's effective pfail, with an iid severity attached to
// each faulty cell. The cells active at voltage v are those whose
// severity falls below pfail(v)/pfail(floor), so fault sets are nested
// as voltage falls — exactly the monotone pass/fail structure real
// Vcc-min characterization relies on, and what lets both the fleet
// sweep and the predictor bisect instead of scanning.
package population

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strconv"

	"vccmin/internal/faults"
	"vccmin/internal/geom"
	"vccmin/internal/lfrand"
	"vccmin/internal/power"
	"vccmin/internal/sim"
)

// Variation parameterizes the die-to-die pfail multiplier model. A
// die's multiplier is exp(waferMu + gradient + dieNoise): waferMu ~
// N(0, WaferSigma²) shared by every die of a wafer, gradient a radial
// intra-wafer term growing toward the wafer edge with peak-to-center
// log-range Gradient, and dieNoise ~ N(0, DieSigma²) per die.
type Variation struct {
	// WaferSigma is the lognormal sigma of the per-wafer mean
	// multiplier (inter-wafer variation).
	WaferSigma float64 `json:"wafer_sigma"`
	// Gradient is the intra-wafer radial term's log-multiplier span:
	// center dies see about -Gradient/2, edge dies about +Gradient/2.
	Gradient float64 `json:"gradient"`
	// DieSigma is the lognormal sigma of the per-die noise
	// (intra-wafer, position-independent variation).
	DieSigma float64 `json:"die_sigma"`
}

// FleetSpec configures one fleet measurement: the die population, the
// schemes to certify each die under, and the voltage grid.
type FleetSpec struct {
	// Dies is the fleet size; wafers are filled in die-index order.
	Dies int
	// DiesPerWafer sets the wafer capacity; dies lay out on a
	// near-square grid for the spatial gradient.
	DiesPerWafer int
	// Geom is the L1 array the fault model strikes; default the
	// paper's 32 KB / 8-way / 64 B reference.
	Geom geom.Geometry
	// Model is the voltage/pfail coupling; default power.Default().
	Model power.Model
	// Variation is the multiplier model; zero fields take the
	// defaults (0.25 / 0.4 / 0.15).
	Variation Variation
	// Schemes are the fault-tolerance schemes each die is certified
	// under; default block-disable and word-disable.
	Schemes []sim.Scheme
	// VSteps is the voltage grid resolution between the model's
	// Vcc-min and its floor, inclusive; default 33.
	VSteps int
	// CapacityFloor is the surviving-capacity fraction a capacity
	// scheme (block, inc-word) must retain to pass; default 0.75.
	CapacityFloor float64
	// Seed is the fleet's base seed; every per-wafer and per-die
	// stream derives from it. Default 1.
	Seed int64
	// Workers bounds the fan-out goroutines (0 = GOMAXPROCS). It
	// never changes results, only scheduling.
	Workers int
}

// Default variation and grid parameters.
const (
	DefaultWaferSigma    = 0.25
	DefaultGradient      = 0.4
	DefaultDieSigma      = 0.15
	DefaultVSteps        = 33
	DefaultCapacityFloor = 0.75
	DefaultDiesPerWafer  = 64
)

// WithDefaults returns the spec with every zero field defaulted — the
// form RunFleet evaluates and the canonical task hash digests.
func (s FleetSpec) WithDefaults() FleetSpec {
	if s.Dies == 0 {
		s.Dies = 1000
	}
	if s.DiesPerWafer == 0 {
		s.DiesPerWafer = DefaultDiesPerWafer
	}
	if s.Geom == (geom.Geometry{}) {
		s.Geom = geom.MustNew(32*1024, 8, 64)
	}
	if s.Model == (power.Model{}) {
		s.Model = power.Default()
	}
	if s.Variation.WaferSigma == 0 {
		s.Variation.WaferSigma = DefaultWaferSigma
	}
	if s.Variation.Gradient == 0 {
		s.Variation.Gradient = DefaultGradient
	}
	if s.Variation.DieSigma == 0 {
		s.Variation.DieSigma = DefaultDieSigma
	}
	if len(s.Schemes) == 0 {
		s.Schemes = []sim.Scheme{sim.BlockDisable, sim.WordDisable}
	}
	if s.VSteps == 0 {
		s.VSteps = DefaultVSteps
	}
	if s.CapacityFloor == 0 {
		s.CapacityFloor = DefaultCapacityFloor
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Check validates a defaulted spec.
func (s FleetSpec) Check() error {
	switch {
	case s.Dies <= 0:
		return fmt.Errorf("population: dies must be positive, got %d", s.Dies)
	case s.DiesPerWafer <= 0:
		return fmt.Errorf("population: dies_per_wafer must be positive, got %d", s.DiesPerWafer)
	case s.VSteps < 2:
		return fmt.Errorf("population: vsteps %d below minimum 2", s.VSteps)
	case !(s.CapacityFloor >= 0 && s.CapacityFloor <= 1):
		return fmt.Errorf("population: capacity_floor %v out of [0,1]", s.CapacityFloor)
	case !(finiteNonNegative(s.Variation.WaferSigma) && finiteNonNegative(s.Variation.Gradient) &&
		finiteNonNegative(s.Variation.DieSigma)):
		return fmt.Errorf("population: variation parameters must be finite and non-negative, got %+v", s.Variation)
	case s.Geom.BlockBytes > 128:
		return fmt.Errorf("population: block size %d B exceeds the fault model's 128 B bound", s.Geom.BlockBytes)
	case len(s.Schemes) == 0:
		return fmt.Errorf("population: at least one scheme required")
	}
	if err := s.Model.Check(); err != nil {
		return err
	}
	return nil
}

// finiteNonNegative reports whether v is a finite number >= 0 (NaN and
// ±Inf fail: an infinite sigma cannot be drawn from, and the task
// layer's canonical JSON hash cannot encode it).
func finiteNonNegative(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// Grid returns the descending voltage grid: VSteps points from the
// model's Vcc-min (index 0) down to its floor (last index), inclusive.
func (s FleetSpec) Grid() []float64 {
	g := make([]float64, s.VSteps)
	span := s.Model.VccMin - s.Model.VFloor
	for i := range g {
		g[i] = s.Model.VccMin - span*float64(i)/float64(s.VSteps-1)
	}
	return g
}

// Wafers returns the number of wafers the fleet occupies.
func (s FleetSpec) Wafers() int { return (s.Dies + s.DiesPerWafer - 1) / s.DiesPerWafer }

// DiePosition returns the wafer grid coordinates of die-in-wafer index
// j: a near-square cols × rows layout filled row-major.
func (s FleetSpec) DiePosition(j int) (x, y int) {
	cols := waferCols(s.DiesPerWafer)
	return j % cols, j / cols
}

func waferCols(diesPerWafer int) int {
	return int(math.Ceil(math.Sqrt(float64(diesPerWafer))))
}

// DieMultiplier returns die d's pfail multiplier: the wafer mean drawn
// from ("wafer", w), the radial gradient at the die's wafer position,
// and the die noise drawn from the head of the die's own stream.
func (s FleetSpec) DieMultiplier(d int) float64 {
	w := d / s.DiesPerWafer
	j := d % s.DiesPerWafer
	waferRng := rand.New(rand.NewSource(faults.DeriveSeed(s.Seed, "wafer", strconv.Itoa(w))))
	mu := s.Variation.WaferSigma * waferRng.NormFloat64()
	dieRng := rand.New(rand.NewSource(faults.DeriveSeed(s.Seed, "fleet-die", strconv.Itoa(d))))
	noise := s.Variation.DieSigma * dieRng.NormFloat64()
	return math.Exp(mu + s.gradientAt(j) + noise)
}

// gradientAt returns the intra-wafer radial log-multiplier at
// die-in-wafer index j: -Gradient/2 at the wafer center rising to
// about +Gradient/2 at the corners (edge dies run hotter pfail, the
// usual process signature).
func (s FleetSpec) gradientAt(j int) float64 {
	cols := waferCols(s.DiesPerWafer)
	rows := (s.DiesPerWafer + cols - 1) / cols
	x, y := s.DiePosition(j)
	cx := (float64(x)+0.5)/float64(cols) - 0.5
	cy := (float64(y)+0.5)/float64(rows) - 0.5
	r2 := 2 * (cx*cx + cy*cy) // 0 at center, ~1 at the corners
	return s.Variation.Gradient * (r2 - 0.5)
}

// pfailAt returns the die's effective per-cell failure probability at
// voltage v: the model's pfail scaled by the die multiplier, clamped
// into [0,1].
func (s FleetSpec) pfailAt(mult, v float64) float64 {
	return scaledPfail(mult, s.Model.Pfail(v))
}

// scaledPfail is pfailAt with the model's pfail already evaluated: the
// prober tabulates Model.Pfail over the grid once and scales per die,
// which is the same float operations as calling pfailAt at every step.
func scaledPfail(mult, modelPfail float64) float64 {
	p := mult * modelPfail
	if p > 1 {
		return 1
	}
	return p
}

// Scheme parameters the prober hardcodes, matching the reference
// configurations the frozen oracle evaluated with
// (core.ReferenceWordDisable and core.ReferenceBitFix).
const (
	mapWordBits      = 32
	wordsPerSubblock = 8
	pairsPerGroup    = 8
	repairsPerGroup  = 1
)

// Incremental word-disable pair states, ordered so a pair's state only
// ever increases as faults accumulate (core.PairState values).
const (
	pairFullState uint8 = iota
	pairHalfState
	pairDisabledState
)

// prober measures one die at a time, reusing its buffers across dies
// and voltages; each concurrent worker owns one.
//
// The measurement is a single incremental walk: draw orders the latent
// population ascending by severity (an expected O(F) bucket sort, see
// sortBySeverity), so the fault set active at any voltage is a prefix
// of the sorted order (the nested-severity construction above).
// Walking the descending voltage grid, each fault enters the reused map
// exactly once as the prefix grows, and every scheme's pass predicate
// is maintained incrementally alongside:
// baseline passes while the prefix is empty; block-disable keeps a
// running faulty-block count; incremental word-disable keeps per-pair
// full/half/disabled counts, reclassifying only the pair a fault lands
// in; word-disable and bit-fix fitness are monotone-sticky (once
// unfit, unfit forever), re-checking only the subblock or fix group
// the fault lands in. The frozen pre-walk prober — a full O(F) map
// rebuild at every probed voltage, bisected per scheme — lives in
// differential_test.go as the oracle this walk is held bit-identical
// to.
type prober struct {
	spec FleetSpec

	// The die's latent fault population at the voltage floor: linear
	// cell indices plus iid severities, sorted ascending by severity
	// (ties by cell index) after the draw. A cell is active at voltage
	// v iff its severity is at most pfail(v)/pfail(floor), so the
	// active set is always a prefix of the sorted order.
	flt  []latentFault
	mult float64
	pflr float64 // effective pfail at the voltage floor

	// sortBySeverity's scratch, reused across dies: per-bucket start
	// offsets and the slice the faults are scattered into (swapped
	// with flt after each sort).
	bucketStart []int32
	swap        []latentFault

	// Model.Pfail at each point of spec.Grid(), computed once per
	// prober: the walk scales it by the die multiplier instead of
	// re-evaluating the model's exponential at every step of every die.
	gridPfail []float64

	// Reused random stream: one lfrand source reseeded in place per
	// die (no per-die generator allocation or math/rand reseeding
	// cost). The gap and severity uniforms come straight from
	// src.Float64, which replicates rand.Rand.Float64 (rand.Rand keeps
	// no state between those draws). rng wraps src once so the wafer
	// and die normals are the stdlib's own NormFloat64 over the
	// replicated stream.
	src lfrand.Source
	rng *rand.Rand

	// The wafer mean is shared by a whole wafer of consecutive dies;
	// caching it skips the per-die wafer-stream reseed.
	cachedWafer int
	waferMu     float64

	// Reused fault-map buffer. Built without the internal faulty-block
	// bitset (the accessors fall back to scanning Blocks), so clearing
	// is just zeroing the dirty block records.
	m     *faults.Map
	dirty []int32

	// Geometry constants hoisted out of the walk.
	cellsPerBlock int
	dataBits      int
	subPerBlock   int // word-disable subblocks per block
	groupsPerLine int // bit-fix fix groups per line
	pairsPerSet   int // incremental-WD pairs per set (Ways/2)
	totalPairs    int // Sets() * pairsPerSet

	// Which schemes the current walk maintains state for.
	needWD, needBF, needIWD bool

	// Incremental per-scheme state, reset by resetWalk.
	faultyBlocks int  // blocks with at least one faulty cell
	wdFit        bool // word-disable fitness (sticky once false)
	bfFit        bool // bit-fix fitness (sticky once false)
	pairFull     int  // incremental-WD pair-state counts
	pairHalf     int
	pairState    []uint8 // lazily allocated, one state per pair
	dirtyPairs   []int32

	alive     []bool // per-scheme liveness during a grid walk
	oneScheme [1]sim.Scheme
}

// latentFault is one cell of the latent population: the linear cell
// index and the iid severity that decides the voltage it activates at.
type latentFault struct {
	sev  float64
	cell int32
}

func newProber(spec FleetSpec) *prober {
	g := spec.Geom
	p := &prober{
		spec: spec,
		m: &faults.Map{
			Geom:     g,
			WordBits: mapWordBits,
			Blocks:   make([]faults.BlockFaults, g.Blocks()),
		},
		cellsPerBlock: g.CellsPerBlock(),
		dataBits:      g.DataBits(),
		subPerBlock:   g.DataBits() / mapWordBits / wordsPerSubblock,
		groupsPerLine: g.DataBits() / 2 / pairsPerGroup,
		pairsPerSet:   g.Ways / 2,
		cachedWafer:   -1,
	}
	p.totalPairs = g.Sets() * p.pairsPerSet
	p.rng = rand.New(&p.src)
	p.gridPfail = spec.Grid() // voltages, mapped in place to Model.Pfail
	for i, v := range p.gridPfail {
		p.gridPfail[i] = spec.Model.Pfail(v)
	}
	return p
}

// compareFaults orders the latent population ascending by severity,
// ties by cell index. Tie order cannot change any active set
// (membership is a pure severity comparison), but a deterministic
// order keeps walks reproducible.
func compareFaults(a, b latentFault) int {
	switch {
	case a.sev < b.sev:
		return -1
	case a.sev > b.sev:
		return 1
	}
	return int(a.cell) - int(b.cell)
}

// draw fills the prober with die d's multiplier and latent fault
// population, then sorts the population by severity so later walks can
// treat active sets as prefixes. The random streams are exactly
// DieMultiplier's: the wafer mean from ("wafer", w) — cached, since
// consecutive dies share a wafer — and the die's own ("fleet-die", d)
// stream: one normal for the die noise, then geometric gap sampling at
// the floor pfail with one severity uniform per fault.
func (p *prober) draw(d int) {
	w := d / p.spec.DiesPerWafer
	if w != p.cachedWafer {
		p.src.Seed(faults.DeriveSeed(p.spec.Seed, "wafer", strconv.Itoa(w)))
		p.waferMu = p.spec.Variation.WaferSigma * p.rng.NormFloat64()
		p.cachedWafer = w
	}
	p.src.Seed(faults.DeriveSeed(p.spec.Seed, "fleet-die", strconv.Itoa(d)))
	noise := p.spec.Variation.DieSigma * p.rng.NormFloat64()
	p.mult = math.Exp(p.waferMu + p.spec.gradientAt(d%p.spec.DiesPerWafer) + noise)
	p.pflr = p.spec.pfailAt(p.mult, p.spec.Model.VFloor)
	p.flt = p.flt[:0]
	if p.pflr <= 0 {
		return
	}
	total := p.spec.Geom.TotalCells()
	if p.pflr >= 1 {
		for c := 0; c < total; c++ {
			p.flt = append(p.flt, latentFault{sev: p.src.Float64(), cell: int32(c)})
		}
		p.sortBySeverity()
		return
	}
	logQ := math.Log1p(-p.pflr)
	cell := -1
	for {
		u := p.src.Float64()
		if u == 0 {
			u = math.SmallestNonzeroFloat64
		}
		cell += 1 + int(math.Log(u)/logQ)
		if cell >= total || cell < 0 {
			p.sortBySeverity()
			return
		}
		p.flt = append(p.flt, latentFault{sev: p.src.Float64(), cell: int32(cell)})
	}
}

// sortBySeverity orders p.flt by compareFaults in expected O(F) time,
// producing exactly the order slices.SortFunc(p.flt, compareFaults)
// would (the order is strict and total, so the sorted sequence is
// unique). Severities are iid uniform on [0,1), so scattering the F
// faults into F equal-width buckets by int(sev·F) leaves O(1) expected
// faults per bucket (for sev < 1 the rounded product stays below F;
// the min with F-1 only guards the slice bound). The bucket index is
// monotone in severity, so faults in different buckets are already in
// order and one insertion pass over the scattered slice finishes the
// sort; the scatter is stable and draw emits ascending cells, so equal
// severities also arrive in order and that pass moves only the
// in-bucket inversions. The scratch is reused across dies: the scatter
// target becomes flt and the old flt the next die's scatter target.
func (p *prober) sortBySeverity() {
	n := len(p.flt)
	if n < 2 {
		return
	}
	if cap(p.bucketStart) < n+1 {
		p.bucketStart = make([]int32, n+1, cap(p.flt)+1)
	}
	if cap(p.swap) < n {
		p.swap = make([]latentFault, cap(p.flt))
	}
	// start[b+1] counts bucket b, then the prefix sum turns start[b]
	// into bucket b's first slot.
	start := p.bucketStart[:n+1]
	clear(start)
	fn := float64(n)
	for _, f := range p.flt {
		start[min(int(f.sev*fn), n-1)+1]++
	}
	sum := start[0]
	for b := 1; b < n; b++ {
		sum += start[b]
		start[b] = sum
	}
	out := p.swap[:n]
	for _, f := range p.flt {
		b := min(int(f.sev*fn), n-1)
		out[start[b]] = f
		start[b]++
	}
	for i := 1; i < n; i++ {
		f := out[i]
		j := i
		for ; j > 0 && compareFaults(f, out[j-1]) < 0; j-- {
			out[j] = out[j-1]
		}
		out[j] = f
	}
	p.flt, p.swap = out, p.flt
}

// setNeeds prepares a walk over the given schemes: which incremental
// predicates to maintain, plus the lazily sized scratch buffers.
func (p *prober) setNeeds(schemes []sim.Scheme) {
	p.needWD, p.needBF, p.needIWD = false, false, false
	for _, s := range schemes {
		switch s {
		case sim.WordDisable:
			p.needWD = true
		case sim.BitFix:
			p.needBF = true
		case sim.IncrementalWordDisable:
			p.needIWD = true
		}
	}
	if p.needIWD && p.pairState == nil && p.totalPairs > 0 {
		p.pairState = make([]uint8, p.totalPairs)
	}
	if len(p.alive) < len(schemes) {
		p.alive = make([]bool, len(schemes))
	}
}

// resetWalk returns the map and every incremental predicate to the
// fault-free state, touching only the blocks and pairs the previous
// walk dirtied.
func (p *prober) resetWalk() {
	for _, b := range p.dirty {
		p.m.Blocks[b] = faults.BlockFaults{}
	}
	p.dirty = p.dirty[:0]
	p.m.Total = 0
	p.faultyBlocks = 0
	p.wdFit = true
	p.bfFit = true
	for _, q := range p.dirtyPairs {
		p.pairState[q] = pairFullState
	}
	p.dirtyPairs = p.dirtyPairs[:0]
	p.pairFull = p.totalPairs
	p.pairHalf = 0
}

// addNext admits the next fault of the severity prefix into the map
// and updates every maintained predicate. The map mutation mirrors
// faults.Map.AddFault exactly, so the map state at any prefix equals
// the oracle's full rebuild of the same active set.
func (p *prober) addNext(cell int32) {
	c := int(cell)
	b := c / p.cellsPerBlock
	off := c - b*p.cellsPerBlock
	bf := &p.m.Blocks[b]
	if bf.Cells == 0 {
		p.faultyBlocks++
		p.dirty = append(p.dirty, int32(b))
	}
	if off < p.dataBits {
		w := off / mapWordBits
		bf.WordMask |= 1 << uint(w)
		pair := off / 2
		bf.PairMask[pair/64] |= 1 << uint(pair%64)
		if p.needWD && p.wdFit {
			// Only the subblock this fault lands in can newly exceed
			// the faulty-word budget.
			if s := w / wordsPerSubblock; s < p.subPerBlock {
				mask := (uint64(1)<<wordsPerSubblock - 1) << uint(s*wordsPerSubblock)
				if bits.OnesCount64(bf.WordMask&mask) > wordsPerSubblock/2 {
					p.wdFit = false
				}
			}
		}
		if p.needBF && p.bfFit {
			// Fix groups are 8 pairs, so a group never straddles a
			// PairMask word; only the landed group can newly overflow.
			if grp := pair / pairsPerGroup; grp < p.groupsPerLine {
				start := grp * pairsPerGroup
				n := bits.OnesCount64(bf.PairMask[start/64] >> uint(start%64) & (1<<pairsPerGroup - 1))
				if n > repairsPerGroup {
					p.bfFit = false
				}
			}
		}
		if p.needIWD {
			way := b % p.spec.Geom.Ways
			if way/2 < p.pairsPerSet { // odd-way geometries leave the last way unpaired
				set := b / p.spec.Geom.Ways
				q := set*p.pairsPerSet + way/2
				if st := p.classifyPair(set, way/2); st != p.pairState[q] {
					switch p.pairState[q] {
					case pairFullState:
						p.pairFull--
						p.dirtyPairs = append(p.dirtyPairs, int32(q))
					case pairHalfState:
						p.pairHalf--
					}
					if st == pairHalfState {
						p.pairHalf++
					}
					p.pairState[q] = st
				}
			}
		}
	} else {
		bf.TagFaulty = true
	}
	bf.Cells++
	p.m.Total++
}

// classifyPair mirrors core's incremental word-disable pair
// classification (tag faults ignored): fault-free pairs run at full
// capacity, pairs whose subblocks are all repairable merge to half,
// the rest are disabled.
func (p *prober) classifyPair(set, pairInSet int) uint8 {
	b0 := set*p.spec.Geom.Ways + 2*pairInSet
	w0 := p.m.Blocks[b0].WordMask
	w1 := p.m.Blocks[b0+1].WordMask
	if w0 == 0 && w1 == 0 {
		return pairFullState
	}
	for s := 0; s < p.subPerBlock; s++ {
		mask := (uint64(1)<<wordsPerSubblock - 1) << uint(s*wordsPerSubblock)
		if bits.OnesCount64(w0&mask) > wordsPerSubblock/2 ||
			bits.OnesCount64(w1&mask) > wordsPerSubblock/2 {
			return pairDisabledState
		}
	}
	return pairHalfState
}

// passIncr evaluates a scheme's pass predicate from the incremental
// state — O(1), and float-for-float the expression the oracle's full
// evaluation computes on the same fault set.
func (p *prober) passIncr(scheme sim.Scheme) bool {
	switch scheme {
	case sim.Baseline:
		return p.m.Total == 0
	case sim.WordDisable:
		return p.wdFit
	case sim.BlockDisable:
		return 1-float64(p.faultyBlocks)/float64(len(p.m.Blocks)) >= p.spec.CapacityFloor
	case sim.IncrementalWordDisable:
		if p.totalPairs == 0 {
			return 0 >= p.spec.CapacityFloor
		}
		return (float64(p.pairFull)+0.5*float64(p.pairHalf))/float64(p.totalPairs) >= p.spec.CapacityFloor
	case sim.BitFix:
		return p.bfFit
	}
	return false
}

// gridSteps computes every spec scheme's deepest passing grid index —
// -1 when the die fails at the nominal Vcc-min (grid index 0),
// len(grid)-1 when it reaches the floor — in one walk down the grid:
// the severity prefix grows monotonically with the grid index, each
// fault is admitted exactly once, and a scheme that fails is dead for
// the rest of the walk (every predicate is monotone in the fault set).
// The walk exits early once every scheme has failed. steps must have
// length len(spec.Schemes); the grid is the prober's own spec.Grid().
func (p *prober) gridSteps(steps []int) {
	schemes := p.spec.Schemes
	p.setNeeds(schemes)
	p.resetWalk()
	for k := range steps {
		steps[k] = -1
	}
	if p.pflr <= 0 || len(p.flt) == 0 {
		// No latent fault is active at any voltage: each scheme holds
		// its fault-free verdict across the whole grid.
		last := len(p.gridPfail) - 1
		for k, scheme := range schemes {
			if p.passIncr(scheme) {
				steps[k] = last
			}
		}
		return
	}
	alive := p.alive
	remaining := len(schemes)
	for k := range schemes {
		alive[k] = true
	}
	idx := 0
	for i, pf := range p.gridPfail {
		ratio := scaledPfail(p.mult, pf) / p.pflr
		for idx < len(p.flt) && p.flt[idx].sev <= ratio {
			p.addNext(p.flt[idx].cell)
			idx++
		}
		for k, scheme := range schemes {
			if !alive[k] {
				continue
			}
			if p.passIncr(scheme) {
				steps[k] = i
			} else {
				alive[k] = false
				remaining--
			}
		}
		if remaining == 0 {
			return
		}
	}
}

// criticalCount returns the largest sorted-prefix length n such that
// the scheme still passes with the first n faults present: len(cells)
// when it never fails, -1 when it fails even fault-free (degenerate
// specs). Because every predicate is monotone in the fault set and the
// active set at any voltage is a severity prefix, pass-at-voltage
// reduces to comparing the prefix length at that voltage against this
// single count — see passAtCount.
func (p *prober) criticalCount(scheme sim.Scheme) int {
	p.oneScheme[0] = scheme
	p.setNeeds(p.oneScheme[:])
	p.resetWalk()
	if !p.passIncr(scheme) {
		return -1
	}
	if p.pflr <= 0 {
		return len(p.flt)
	}
	for i, f := range p.flt {
		p.addNext(f.cell)
		if !p.passIncr(scheme) {
			return i
		}
	}
	return len(p.flt)
}

// passAtCount reports whether the die passes at voltage v given the
// scheme's critical count c: the active prefix at v stays within the
// passing region iff the (c+1)-th sorted severity (if any) is not yet
// active. Boolean-identical to the oracle's rebuild-and-evaluate
// passAt, at O(1) per probe.
func (p *prober) passAtCount(c int, v float64) bool {
	if c < 0 {
		return false
	}
	if p.pflr <= 0 || c >= len(p.flt) {
		return true
	}
	ratio := p.spec.pfailAt(p.mult, v) / p.pflr
	return !(p.flt[c].sev <= ratio)
}

// thresholdVoltage bisects the continuous pass/fail boundary of the
// drawn die under the scheme to iters halvings of [VFloor, VccMin] —
// the predictor's ground truth. The boundary exists and is unique
// because pass-at-voltage is monotone; after one incremental walk for
// the critical count, each probe is an O(1) severity comparison.
func (p *prober) thresholdVoltage(scheme sim.Scheme, iters int) float64 {
	c := p.criticalCount(scheme)
	lo, hi := p.spec.Model.VFloor, p.spec.Model.VccMin
	if !p.passAtCount(c, hi) {
		return hi
	}
	if p.passAtCount(c, lo) {
		return lo
	}
	// Invariant: pass at hi, fail at lo; the threshold is in (lo, hi].
	for i := 0; i < iters; i++ {
		mid := (lo + hi) / 2
		if p.passAtCount(c, mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2
}
