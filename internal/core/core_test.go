package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vccmin/internal/faults"
	"vccmin/internal/geom"
	"vccmin/internal/prob"
)

var refGeom = geom.MustNew(32*1024, 8, 64)

func TestWayMask(t *testing.T) {
	m := AllWays(8)
	if m.Count() != 8 {
		t.Errorf("AllWays(8).Count() = %d", m.Count())
	}
	for w := 0; w < 8; w++ {
		if !m.Enabled(w) {
			t.Errorf("way %d should be enabled", w)
		}
	}
	if m.Enabled(8) {
		t.Error("way 8 should not be enabled in an 8-way mask")
	}
	var none WayMask
	if none.Count() != 0 || none.Enabled(0) {
		t.Error("zero mask misbehaves")
	}
}

func TestFullyEnabled(t *testing.T) {
	d := FullyEnabled(refGeom)
	if d.EnabledBlocks() != refGeom.Blocks() {
		t.Errorf("EnabledBlocks = %d, want %d", d.EnabledBlocks(), refGeom.Blocks())
	}
	if d.CapacityFraction() != 1 {
		t.Errorf("capacity = %v, want 1", d.CapacityFraction())
	}
	if d.MinSetWays() != refGeom.Ways {
		t.Errorf("MinSetWays = %d, want %d", d.MinSetWays(), refGeom.Ways)
	}
}

func TestBlockDisableMatchesFaultMap(t *testing.T) {
	m := faults.Generate(refGeom, 32, 0.002, rand.New(rand.NewSource(2)))
	d := BuildBlockDisable(m)
	for set := 0; set < refGeom.Sets(); set++ {
		for way := 0; way < refGeom.Ways; way++ {
			if d.Enabled(set, way) == m.BlockFaulty(set, way) {
				t.Fatalf("set %d way %d: enabled=%v but faulty=%v", set, way, d.Enabled(set, way), m.BlockFaulty(set, way))
			}
		}
	}
	if got, want := d.EnabledBlocks(), refGeom.Blocks()-m.FaultyBlocks(); got != want {
		t.Errorf("EnabledBlocks = %d, want %d", got, want)
	}
	if math.Abs(d.CapacityFraction()-m.CapacityFraction()) > 1e-12 {
		t.Error("capacity fractions disagree between faults.Map and BlockDisableMap")
	}
}

func TestBlockDisableTagFaultDisables(t *testing.T) {
	// A block with only a tag fault must still be disabled (Section III:
	// "a faulty bit in either or both the tag or data").
	m := faults.NewEmpty(refGeom, 32)
	blockIdx := refGeom.BlockIndex(3, 5)
	m.Blocks[blockIdx].TagFaulty = true
	m.Blocks[blockIdx].Cells = 1
	m.ReindexBlocks()
	d := BuildBlockDisable(m)
	if d.Enabled(3, 5) {
		t.Error("block with tag fault should be disabled")
	}
	if d.EnabledBlocks() != refGeom.Blocks()-1 {
		t.Errorf("EnabledBlocks = %d, want %d", d.EnabledBlocks(), refGeom.Blocks()-1)
	}
}

func TestWaysHistogram(t *testing.T) {
	m := faults.Generate(refGeom, 32, 0.001, rand.New(rand.NewSource(9)))
	d := BuildBlockDisable(m)
	h := d.WaysHistogram()
	if len(h) != refGeom.Ways+1 {
		t.Fatalf("histogram has %d bins, want %d", len(h), refGeom.Ways+1)
	}
	sets, blocks := 0, 0
	for w, n := range h {
		sets += n
		blocks += w * n
	}
	if sets != refGeom.Sets() {
		t.Errorf("histogram covers %d sets, want %d", sets, refGeom.Sets())
	}
	if blocks != d.EnabledBlocks() {
		t.Errorf("histogram blocks %d != EnabledBlocks %d", blocks, d.EnabledBlocks())
	}
}

func TestBlockDisableCapacityMatchesEq3Distribution(t *testing.T) {
	// Monte Carlo mean capacity ≈ analytic mean (58% at pfail=0.001), and
	// >50% capacity virtually always.
	const trials = 60
	rng := rand.New(rand.NewSource(13))
	sum := 0.0
	atLeastHalf := 0
	for i := 0; i < trials; i++ {
		d := BuildBlockDisable(faults.Generate(refGeom, 32, 0.001, rng))
		c := d.CapacityFraction()
		sum += c
		if c > 0.5 {
			atLeastHalf++
		}
	}
	mean, _ := prob.CapacityMeanStd(refGeom.Blocks(), refGeom.CellsPerBlock(), 0.001)
	if math.Abs(sum/trials-mean) > 0.01 {
		t.Errorf("MC capacity mean = %v, analytic %v", sum/trials, mean)
	}
	if atLeastHalf != trials {
		t.Errorf("%d/%d maps had <= 50%% capacity; paper: virtually always above", trials-atLeastHalf, trials)
	}
}

func TestWordDisableCleanMapFits(t *testing.T) {
	m := faults.NewEmpty(refGeom, 32)
	res := EvaluateWordDisable(m, ReferenceWordDisable())
	if !res.Fit || res.FailedSubblocks != 0 {
		t.Errorf("clean map should fit: %+v", res)
	}
	if res.TotalSubblocks != refGeom.Blocks()*2 {
		t.Errorf("TotalSubblocks = %d, want %d (two 8-word subblocks per 16-word block)", res.TotalSubblocks, refGeom.Blocks()*2)
	}
	lv := res.LowVoltageGeom
	if lv.SizeBytes != 16*1024 || lv.Ways != 4 {
		t.Errorf("low-voltage geometry = %v, want 16KB 4-way", lv)
	}
}

func TestWordDisableBoundary(t *testing.T) {
	cfg := ReferenceWordDisable()
	// Exactly 4 faulty words in a subblock is tolerable...
	m := faults.NewEmpty(refGeom, 32)
	for w := 0; w < 4; w++ {
		m.Blocks[0].WordMask |= 1 << uint(w)
	}
	m.Blocks[0].Cells = 4
	if res := EvaluateWordDisable(m, cfg); !res.Fit {
		t.Error("4 faulty words in a subblock must be tolerated")
	}
	// ...but 5 is whole-cache failure.
	m.Blocks[0].WordMask |= 1 << 4
	m.Blocks[0].Cells = 5
	res := EvaluateWordDisable(m, cfg)
	if res.Fit {
		t.Error("5 faulty words in one subblock must fail the cache")
	}
	if res.FailedSubblocks != 1 {
		t.Errorf("FailedSubblocks = %d, want 1", res.FailedSubblocks)
	}
}

func TestWordDisableIgnoresTagFaults(t *testing.T) {
	m := faults.NewEmpty(refGeom, 32)
	for i := range m.Blocks {
		m.Blocks[i].TagFaulty = true
		m.Blocks[i].Cells = 3
	}
	if res := EvaluateWordDisable(m, ReferenceWordDisable()); !res.Fit {
		t.Error("word-disable stores tags in 10T cells; tag faults must not fail the cache")
	}
}

func TestWordDisableFailureRateMatchesEq4(t *testing.T) {
	// At pfail = 0.003 the analytic whole-cache-failure probability is
	// large enough to measure with few trials.
	const pfail = 0.003
	const trials = 300
	rng := rand.New(rand.NewSource(17))
	cfg := ReferenceWordDisable()
	failures := 0
	for i := 0; i < trials; i++ {
		m := faults.Generate(refGeom, 32, pfail, rng)
		if !EvaluateWordDisable(m, cfg).Fit {
			failures++
		}
	}
	want := prob.WordDisableWholeCacheFailProb(refGeom.Blocks(), 64, 32, 8, pfail)
	got := float64(failures) / trials
	sd := math.Sqrt(want * (1 - want) / trials)
	if math.Abs(got-want) > 4*sd+0.01 {
		t.Errorf("MC whole-cache-failure rate = %v, Eq.4 predicts %v (±%v)", got, want, 4*sd)
	}
}

func TestIncrementalWDCleanMap(t *testing.T) {
	m := faults.NewEmpty(refGeom, 32)
	res := EvaluateIncrementalWD(m, ReferenceWordDisable())
	wantPairs := refGeom.Blocks() / 2
	if res.FullPairs != wantPairs || res.HalfPairs != 0 || res.DisabledPairs != 0 {
		t.Errorf("clean map: %+v, want all %d pairs full", res, wantPairs)
	}
	if res.CapacityFraction() != 1 {
		t.Errorf("clean capacity = %v, want 1", res.CapacityFraction())
	}
}

func TestIncrementalWDStates(t *testing.T) {
	cfg := ReferenceWordDisable()
	m := faults.NewEmpty(refGeom, 32)
	// Pair 0 of set 0 (ways 0,1): one faulty word -> half capacity.
	b01 := refGeom.BlockIndex(0, 0)
	m.Blocks[b01].WordMask = 1
	m.Blocks[b01].Cells = 1
	// Pair 1 of set 0 (ways 2,3): 5 faulty words in one subblock -> disabled.
	b23 := refGeom.BlockIndex(0, 2)
	m.Blocks[b23].WordMask = 0x1F
	m.Blocks[b23].Cells = 5
	res := EvaluateIncrementalWD(m, cfg)
	wantPairs := refGeom.Blocks() / 2
	if res.FullPairs != wantPairs-2 {
		t.Errorf("FullPairs = %d, want %d", res.FullPairs, wantPairs-2)
	}
	if res.HalfPairs != 1 {
		t.Errorf("HalfPairs = %d, want 1", res.HalfPairs)
	}
	if res.DisabledPairs != 1 {
		t.Errorf("DisabledPairs = %d, want 1", res.DisabledPairs)
	}
	wantCap := (float64(wantPairs-2) + 0.5) / float64(wantPairs)
	if math.Abs(res.CapacityFraction()-wantCap) > 1e-12 {
		t.Errorf("capacity = %v, want %v", res.CapacityFraction(), wantCap)
	}
}

func TestIncrementalWDMatchesEq6(t *testing.T) {
	// Monte Carlo capacity of the incremental scheme ≈ Eq. 6.
	for _, pfail := range []float64{0.0005, 0.002, 0.005} {
		const trials = 40
		rng := rand.New(rand.NewSource(19))
		cfg := ReferenceWordDisable()
		sum := 0.0
		for i := 0; i < trials; i++ {
			m := faults.Generate(refGeom, 32, pfail, rng)
			sum += EvaluateIncrementalWD(m, cfg).CapacityFraction()
		}
		got := sum / trials
		want := prob.IncrementalWDCapacity(refGeom.DataBits(), cfg.WordsPerSubblock, cfg.WordBits, pfail)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("pfail=%v: MC incremental capacity = %v, Eq.6 predicts %v", pfail, got, want)
		}
	}
}

func TestIncrementalNeverWholeCacheFailure(t *testing.T) {
	// Even at brutal pfail the incremental scheme keeps some capacity
	// accounting (pairs disabled individually, never the whole cache).
	m := faults.Generate(refGeom, 32, 0.02, rand.New(rand.NewSource(23)))
	res := EvaluateIncrementalWD(m, ReferenceWordDisable())
	total := res.FullPairs + res.HalfPairs + res.DisabledPairs
	if total != refGeom.Blocks()/2 {
		t.Errorf("pair accounting lost pairs: %d, want %d", total, refGeom.Blocks()/2)
	}
}

// TestIncrementalEnableMatchesEvaluation: over seeded maps, the enable
// map's pairs with both ways on, way 2i alone and neither count exactly
// the Full, Half and Disabled pairs EvaluateIncrementalWD reports, and
// no pair enables way 2i+1 alone.
func TestIncrementalEnableMatchesEvaluation(t *testing.T) {
	for _, pfail := range []float64{0, 0.0005, 0.002, 0.005, 0.02} {
		for seed := int64(1); seed <= 3; seed++ {
			m := faults.Generate(refGeom, 32, pfail, rand.New(rand.NewSource(seed)))
			d := BuildIncrementalEnable(m)
			var got IncrementalWDResult
			for set, mask := range d.Sets {
				for p := 0; p < refGeom.Ways/2; p++ {
					switch mask >> uint(2*p) & 3 {
					case 3:
						got.FullPairs++
					case 1:
						got.HalfPairs++
					case 0:
						got.DisabledPairs++
					default:
						t.Fatalf("pfail %v seed %d: set %d pair %d enables way 2i+1 alone", pfail, seed, set, p)
					}
				}
			}
			if want := EvaluateIncrementalWD(m, ReferenceWordDisable()); got != want {
				t.Errorf("pfail %v seed %d: enable map counts %+v, evaluation %+v", pfail, seed, got, want)
			}
		}
	}
}

func TestPairStateString(t *testing.T) {
	if PairFullCapacity.String() != "full" || PairHalfCapacity.String() != "half" || PairDisabled.String() != "disabled" {
		t.Error("pair state names wrong")
	}
	if PairState(9).String() != "PairState(9)" {
		t.Error("unknown pair state name wrong")
	}
}

func TestVictimUsableEntries(t *testing.T) {
	if got := VictimUsableEntries(16); got != 8 {
		t.Errorf("VictimUsableEntries(16) = %d, want 8 (paper Section V)", got)
	}
}

func TestCapacityInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := faults.Generate(refGeom, 32, 0.003, rng)
		d := BuildBlockDisable(m)
		cap := d.CapacityFraction()
		inc := EvaluateIncrementalWD(m, ReferenceWordDisable()).CapacityFraction()
		// Block-disable capacity counts tag faults, incremental WD ignores
		// them, so no fixed ordering — but both must be valid fractions
		// and block-disable can never exceed the fault-free block count.
		return cap >= 0 && cap <= 1 && inc >= 0 && inc <= 1 &&
			d.EnabledBlocks()+m.FaultyBlocks() == refGeom.Blocks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
