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
// sweep and the predictor resolve a die under a scheme from the one
// severity at which the scheme first fails.
package population

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
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
// (core.ReferenceWordDisable and core.ReferenceBitFix): a subblock of
// 8 32-bit words fails with more than 4 faulty words, a fix group of 8
// 2-bit pairs with more than 1 faulty pair.
const (
	mapWordBits      = 32
	wordsPerSubblock = 8
	pairBits         = 2
	pairsPerGroup    = 8
	repairsPerGroup  = 1
)

// drawBatch is the number of (gap, severity) uniform pairs draw takes
// from the die's stream at a time.
const drawBatch = 16

// selectBuckets is the number of equal-width severity buckets
// rankSeverity counts into before sorting the one bucket that holds
// the wanted rank.
const selectBuckets = 128

// prober measures one die at a time, reusing its buffers across dies;
// each concurrent worker owns one.
//
// A die is resolved from per-scheme kill severities (see
// killSeverities): the smallest latent-fault severity at which the
// scheme fails on the active set {sev <= t}. Every pass predicate is
// monotone in the fault set and the active set at voltage v is
// {sev <= pfail(v)/pfail(floor)}, so the die passes at v iff that
// ratio is below the kill severity: one pass over the population
// settles every grid step and every bisection probe. The frozen
// rebuild-per-probe prober in differential_test.go is the oracle this
// is held bit-identical to.
type prober struct {
	spec FleetSpec

	// The die's latent fault population at the voltage floor: linear
	// cell indices in ascending order, as draw emits them, plus iid
	// severities. A cell is active at voltage v iff its severity is at
	// most pfail(v)/pfail(floor).
	flt  []latentFault
	mult float64
	pflr float64 // effective pfail at the voltage floor

	// Model.Pfail at each point of spec.Grid(), computed once per
	// prober: the steps scale it by the die multiplier instead of
	// re-evaluating the model's exponential at every step of every die.
	gridPfail []float64

	// Reused random stream: one lfrand source reseeded in place per
	// die (no per-die generator allocation or math/rand reseeding
	// cost). The gap and severity uniforms come straight from
	// src.Float64s into uni, the same values rand.Rand.Float64 would
	// return (rand.Rand keeps no state between those draws). rng wraps
	// src once so the wafer and die normals are the stdlib's own
	// NormFloat64 over the replicated stream.
	src lfrand.Source
	rng *rand.Rand
	uni [2 * drawBatch]float64

	// The wafer mean is shared by a whole wafer of consecutive dies;
	// caching it skips the per-die wafer-stream reseed.
	cachedWafer int
	waferMu     float64

	// Geometry constants hoisted out of the pass. A cell's block is
	// blockDiv.div(cell) and a block's set wayDiv.div(block), exact
	// divisions by cellsPerBlock and by the ways for every index below
	// 2^31.
	blockDiv      divider
	wayDiv        divider
	cellsPerBlock int
	dataBits      int
	subPerBlock   int // word-disable subblocks per block
	groupsPerLine int // bit-fix fix groups per line

	// The capacity schemes' smallest failing counts, fixed per prober:
	// faulty blocks under block-disable, half-unit pair events under
	// incremental word-disable. 0 means the scheme fails fault-free;
	// one past the largest possible count means it never fails.
	blockFailAt int
	pairFailAt  int

	// The kill pass's per-block slots, indexed by block: the minimum
	// severity folded in so far (+Inf for none) and the data-fault
	// count. The pass resets every slot it reads, so between dies they
	// hold +Inf and 0.
	slotMin  []float64
	slotData []int32

	// Scratch reused across dies: the faulty blocks' minimum
	// severities and the positions of their data faults (each sized one
	// past the blocks: the pass stores past the last entry), the
	// incremental word-disable pair events, the bucket rankSeverity
	// sorts, and the kill severities themselves. The slots and the two
	// block lists are O(blocks), not O(faults): 14 KB per prober at the
	// default 512-block geometry.
	acc       killAcc
	blockMin  []float64
	blockData []dataRun
	events    []float64
	bucket    []float64
	kill      []float64
	oneScheme [1]sim.Scheme
}

// latentFault is one cell of the latent population: the linear cell
// index and the iid severity that decides the voltage it activates at.
type latentFault struct {
	sev  float64
	cell int32
}

// divider divides by an invariant d as a multiply and shift (Granlund
// and Montgomery): with l = ceil(log2 d), shift 31+l and multiplier
// floor(2^(31+l)/d)+1, the rounding error stays below 1/d for every
// 31-bit index, so the floor is exact, and the product (below
// 2^31·(2^32+1)) fits in 64 bits.
type divider struct {
	mul   uint64
	shift uint
}

func newDivider(d int) divider {
	shift := 31 + uint(bits.Len(uint(d-1)))
	return divider{mul: (uint64(1)<<shift)/uint64(d) + 1, shift: shift}
}

// div returns n/d for 0 <= n < 2^31.
func (v divider) div(n int) int { return int(uint64(n) * v.mul >> (v.shift & 63)) }

func newProber(spec FleetSpec) *prober {
	g := spec.Geom
	p := &prober{
		spec:          spec,
		cellsPerBlock: g.CellsPerBlock(),
		dataBits:      g.DataBits(),
		subPerBlock:   g.DataBits() / mapWordBits / wordsPerSubblock,
		groupsPerLine: g.DataBits() / pairBits / pairsPerGroup,
		cachedWafer:   -1,
	}
	p.blockDiv = newDivider(p.cellsPerBlock)
	p.wayDiv = newDivider(g.Ways)
	blocks := g.Blocks()
	p.slotMin = make([]float64, blocks)
	for b := range p.slotMin {
		p.slotMin[b] = math.Inf(1)
	}
	p.slotData = make([]int32, blocks)
	p.blockMin = make([]float64, blocks+1)
	p.blockData = make([]dataRun, len(p.blockMin))
	p.rng = rand.New(&p.src)
	p.gridPfail = spec.Grid() // voltages, mapped in place to Model.Pfail
	for i, v := range p.gridPfail {
		p.gridPfail[i] = spec.Model.Pfail(v)
	}
	// The pass expressions are float-for-float the oracle's:
	// faults.Map.CapacityFraction for blocks, and IncrementalWDResult's
	// (full + 0.5·half)/pairs for pairs, where full + 0.5·half is
	// exactly pairs − e/2 after e half-unit events. Both fall
	// monotonically with the count, so the first failing count is a
	// binary search.
	pairs := g.Sets() * (g.Ways / 2)
	floor := spec.CapacityFloor
	p.blockFailAt = sort.Search(blocks+1, func(n int) bool {
		return !(1-float64(n)/float64(blocks) >= floor)
	})
	p.pairFailAt = sort.Search(2*pairs+1, func(e int) bool {
		if pairs == 0 {
			return !(0 >= floor)
		}
		return !((float64(pairs)-0.5*float64(e))/float64(pairs) >= floor)
	})
	return p
}

// draw fills the prober with die d's multiplier and latent fault
// population, in ascending cell order. The random streams are the wafer
// mean from ("wafer", w) — cached, since consecutive dies share a
// wafer — and the die's own ("fleet-die", d) stream: one normal for the
// die noise, then geometric gap sampling at the floor pfail with one
// severity uniform per fault.
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
		return
	}
	// The uniforms arrive in batches, in stream order: gap, severity,
	// gap, severity, … The last batch runs past the die's last fault,
	// which is harmless: every draw reseeds src before reading it, and
	// nothing reads src after draw returns.
	gap := faults.NewGapSampler(p.pflr)
	cell := -1
	for {
		p.src.Float64s(p.uni[:])
		for i := 0; i < len(p.uni); i += 2 {
			cell += 1 + gap.Skip(p.uni[i])
			if cell >= total || cell < 0 {
				return
			}
			p.flt = append(p.flt, latentFault{sev: p.uni[i+1], cell: int32(cell)})
		}
	}
}

// killSeverities returns each scheme's kill severity on the drawn
// population, in schemes order: the smallest fault severity t at which
// the scheme fails on the active set {sev <= t}, +Inf if it never
// fails and -Inf if it fails even fault-free. The population arrives in
// ascending cell order, so blocks, words, pairs, fix groups and
// way-pairs are each contiguous:
//   - baseline: the minimum severity;
//   - block-disable: the blockFailAt-th smallest per-block minimum
//     (tag cells count);
//   - word-disable: over every subblock, the smallest 5th-smallest
//     per-word minimum (the severity its fifth faulty word activates);
//   - bit-fix: over every fix group, the smallest 2nd-smallest
//     per-pair minimum;
//   - incremental word-disable: the pairFailAt-th smallest pair event,
//     a way-pair losing half a unit at its minimum data severity (full
//     to half) and the other half at its blocks' smallest subblock
//     kill (half to disabled).
//
// Tag cells are ignored by all but the first two, as the core
// evaluators ignore them. The returned slice is reused by the next
// call.
//
// Two passes over the population, neither with a data-dependent
// branch per fault (foldSlots and drainSlots), list the faulty blocks
// in ascending order with their minimum severities and the positions
// of their data faults. Only the blocks with enough data faults to
// matter reach endBlock's per-word and per-pair ranking.
func (p *prober) killSeverities(schemes []sim.Scheme) []float64 {
	inf := math.Inf(1)
	acc := &p.acc
	*acc = killAcc{wd: inf, bf: inf, pair: -1, half: inf, dis: inf}
	// Blocks with fewer data faults than heavy cannot change the
	// data-array schemes' results and skip endBlock.
	heavy := int32(math.MaxInt32)
	for _, s := range schemes {
		switch s {
		case sim.WordDisable:
			acc.needWD = true
			heavy = min(heavy, wordsPerSubblock/2+1)
		case sim.BitFix:
			acc.needBF = true
			heavy = min(heavy, repairsPerGroup+1)
		case sim.IncrementalWordDisable:
			acc.needIWD = true
			heavy = 1
		}
	}
	p.foldSlots()
	p.drainSlots()
	p.events = p.events[:0]
	for _, d := range p.blockData {
		if d.n >= heavy {
			p.endBlock(p.blockDiv.div(int(p.flt[d.first].cell)), p.flt[d.first:d.first+d.n])
		}
	}
	p.addPairEvents()

	kill := p.kill[:0]
	for _, s := range schemes {
		k := math.Inf(-1) // an unknown scheme fails fault-free, as the oracle's does
		switch s {
		case sim.Baseline:
			k = p.rankSeverity(p.blockMin, 1)
		case sim.BlockDisable:
			k = p.rankSeverity(p.blockMin, p.blockFailAt)
		case sim.WordDisable:
			k = acc.wd
		case sim.BitFix:
			k = acc.bf
		case sim.IncrementalWordDisable:
			k = p.rankSeverity(p.events, p.pairFailAt)
		}
		kill = append(kill, k)
	}
	p.kill = kill
	return kill
}

// foldSlots is the kill pass's first pass: it folds every fault into
// its block's slots.
func (p *prober) foldSlots() {
	slotMin, slotData := p.slotMin, p.slotData
	bd, cellsPerBlock, dataBits := p.blockDiv, p.cellsPerBlock, p.dataBits
	for _, f := range p.flt {
		c := int(f.cell)
		b := bd.div(c)
		slotMin[b] = min(slotMin[b], f.sev)
		// offset−dataBits is negative exactly for a data cell, so its
		// arithmetic shift by 63 is −1 for a data cell, 0 for a tag cell.
		slotData[b] -= int32((c - b*cellsPerBlock - dataBits) >> 63)
	}
}

// drainSlots is the kill pass's second pass: it reads and resets each
// fault's block slots in cell order, leaving in p.blockMin every
// faulty block's minimum severity and at the same index of
// p.blockData the position of its data faults, in ascending block
// order. Only a block's first fault finds its slots filled. Data cells
// precede a block's tag cells, so the block's data faults are the
// slot's count of faults starting at that first one. Both lists take a
// store at every fault, and their length advances only past a filled
// slot.
func (p *prober) drainSlots() {
	inf := math.Inf(1)
	// Each pair of slices shares a length, so one bounds check covers
	// both.
	slotMin, bd := p.slotMin, p.blockDiv
	slotData := p.slotData[:len(slotMin)]
	blockMin, n := p.blockMin[:cap(p.blockMin)], 0
	data := p.blockData[:len(blockMin)]
	for i, f := range p.flt {
		b := bd.div(int(f.cell))
		m := slotMin[b]
		blockMin[n] = m
		data[n] = dataRun{first: int32(i), n: slotData[b]}
		slotMin[b], slotData[b] = inf, 0
		if m < inf {
			n++
		}
	}
	p.blockMin, p.blockData = blockMin[:n], data[:n]
}

// dataRun locates one block's data faults in the population:
// flt[first : first+n].
type dataRun struct{ first, n int32 }

// killAcc is killSeverities' state for the data-array schemes.
type killAcc struct {
	needWD, needBF, needIWD bool
	// The word-disable and bit-fix kill severities so far.
	wd, bf float64
	// The way-pair being accumulated (identified by its even way's
	// block index) and its two event severities so far.
	pair      int
	half, dis float64
}

// endBlock folds block b's data faults into the data-array schemes.
func (p *prober) endBlock(b int, data []latentFault) {
	acc := &p.acc
	sub := math.Inf(1)
	if (acc.needWD || acc.needIWD) && len(data) > wordsPerSubblock/2 {
		sub = rankedGroupKill(data, b*p.cellsPerBlock, mapWordBits, wordsPerSubblock, p.subPerBlock, wordsPerSubblock/2+1)
		acc.wd = min(acc.wd, sub)
	}
	if acc.needBF && len(data) > repairsPerGroup {
		acc.bf = min(acc.bf, rankedGroupKill(data, b*p.cellsPerBlock, pairBits, pairsPerGroup, p.groupsPerLine, repairsPerGroup+1))
	}
	if !acc.needIWD {
		return
	}
	dmin := math.Inf(1)
	for _, f := range data {
		dmin = min(dmin, f.sev)
	}
	// Odd-way geometries leave the last way of each set unpaired.
	ways := p.spec.Geom.Ways
	if way := b - p.wayDiv.div(b)*ways; way < ways&^1 {
		if q := b - way&1; q != acc.pair {
			p.addPairEvents()
			acc.pair, acc.half, acc.dis = q, dmin, sub
		} else {
			acc.half, acc.dis = min(acc.half, dmin), min(acc.dis, sub)
		}
	}
}

// addPairEvents records the accumulated way-pair's finite event
// severities; a pair with no data fault (half = +Inf) adds none.
func (p *prober) addPairEvents() {
	if !math.IsInf(p.acc.half, 1) {
		p.events = append(p.events, p.acc.half)
	}
	if !math.IsInf(p.acc.dis, 1) {
		p.events = append(p.events, p.acc.dis)
	}
}

// rankedGroupKill returns the severity at which some group of one
// block's data array first holds rank faulty units: the smallest, over
// the first groups groups of unitsPerGroup units of unitBits cells, of
// the rank-th smallest per-unit minimum severity (+Inf if no group
// reaches rank faulty units). data holds the block's data faults in
// ascending cell order and start is the block's first cell. unitBits
// and unitsPerGroup are powers of two, so a fault's unit and group are
// shifts of its offset rather than divisions.
func rankedGroupKill(data []latentFault, start, unitBits, unitsPerGroup, groups, rank int) float64 {
	kill := math.Inf(1)
	unitShift := uint(bits.TrailingZeros(uint(unitBits)))
	groupShift := unitShift + uint(bits.TrailingZeros(uint(unitsPerGroup)))
	var mins [max(wordsPerSubblock, pairsPerGroup)]float64
	for i := 0; i < len(data); {
		g := (int(data[i].cell) - start) >> groupShift
		if g >= groups {
			break
		}
		n, unit := 0, -1
		for ; i < len(data) && (int(data[i].cell)-start)>>groupShift == g; i++ {
			u, s := (int(data[i].cell)-start)>>unitShift, data[i].sev
			if u != unit {
				mins[n], unit = s, u
				n++
			} else if s < mins[n-1] {
				mins[n-1] = s
			}
		}
		if n < rank {
			continue
		}
		for a := 1; a < n; a++ { // insertion sort: n <= 8
			for b := a; b > 0 && mins[b] < mins[b-1]; b-- {
				mins[b], mins[b-1] = mins[b-1], mins[b]
			}
		}
		if mins[rank-1] < kill {
			kill = mins[rank-1]
		}
	}
	return kill
}

// rankSeverity returns the r-th smallest of xs (1-based): -Inf when r
// is 0 (the scheme fails fault-free), +Inf when xs holds fewer than r
// values (it never fails), and for r = 1 (the baseline's) a plain
// minimum. Otherwise, severities lying in [0,1), counting them into
// selectBuckets equal-width buckets finds the bucket holding rank r,
// and only that bucket is gathered and sorted.
func (p *prober) rankSeverity(xs []float64, r int) float64 {
	switch {
	case r == 0:
		return math.Inf(-1)
	case len(xs) < r:
		return math.Inf(1)
	case r == 1:
		// The minimum: a compare per value, rarely taken.
		m := xs[0]
		for _, x := range xs[1:] {
			if x < m {
				m = x
			}
		}
		return m
	}
	var count [selectBuckets]int32
	for _, x := range xs {
		count[min(int(x*selectBuckets), selectBuckets-1)]++
	}
	b := 0
	for ; r > int(count[b]); b++ {
		r -= int(count[b])
	}
	sel := p.bucket[:0]
	for _, x := range xs {
		if min(int(x*selectBuckets), selectBuckets-1) == b {
			sel = append(sel, x)
		}
	}
	slices.Sort(sel)
	p.bucket = sel
	return sel[r-1]
}

// killSeverity is killSeverities for one scheme.
func (p *prober) killSeverity(scheme sim.Scheme) float64 {
	p.oneScheme[0] = scheme
	return p.killSeverities(p.oneScheme[:])[0]
}

// gridSteps computes every spec scheme's deepest passing grid index —
// -1 when the die fails at the nominal Vcc-min (grid index 0),
// len(grid)-1 when it reaches the floor. A scheme passes at grid index
// i iff no ratio up to i reaches its kill severity (the active set
// only grows down the grid), so its step is one before the first
// index whose ratio does. steps must have length len(spec.Schemes);
// the grid is the prober's own spec.Grid().
func (p *prober) gridSteps(steps []int) {
	last := len(p.gridPfail) - 1
	for k, s := range p.killSeverities(p.spec.Schemes) {
		steps[k] = -1
		if math.IsInf(s, 0) {
			// Never or always failing: the fault-free verdict holds
			// across the whole grid.
			if s > 0 {
				steps[k] = last
			}
			continue
		}
		// A finite kill severity means a drawn fault, so pflr > 0.
		for i, pf := range p.gridPfail {
			if !(scaledPfail(p.mult, pf)/p.pflr < s) {
				break
			}
			steps[k] = i
		}
	}
}

// passAt reports whether the drawn die passes at voltage v under a
// scheme with kill severity s: the active set {sev <= ratio} at v
// stays below s. Boolean-identical to the oracle's rebuild-and-evaluate
// passAt, at O(1) per probe.
func (p *prober) passAt(s, v float64) bool {
	if math.IsInf(s, 0) {
		return s > 0
	}
	return !(s <= p.spec.pfailAt(p.mult, v)/p.pflr)
}
