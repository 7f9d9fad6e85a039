package sim

import (
	"strings"
	"testing"

	"vccmin/internal/faults"
	"vccmin/internal/geom"
)

const testInstrs = 60_000

func refPair(seed int64) *faults.Pair {
	g := geom.MustNew(32*1024, 8, 64)
	p := faults.GeneratePairSparse(g, g, 32, 0.001, seed)
	return &p
}

func mustRun(t *testing.T, opts Options) Result {
	t.Helper()
	if opts.Instructions == 0 {
		opts.Instructions = testInstrs
	}
	r, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestReferenceTableIII(t *testing.T) {
	hv, lv := Reference(HighVoltage), Reference(LowVoltage)
	if hv.MemLatency != 255 || lv.MemLatency != 51 {
		t.Errorf("memory latencies = %d/%d, want 255/51", hv.MemLatency, lv.MemLatency)
	}
	if hv.L1Size != 32*1024 || hv.L1Ways != 8 || hv.L1Latency != 3 || hv.WordDisableLat != 4 {
		t.Errorf("L1 parameters wrong: %+v", hv)
	}
	if hv.L2Size != 2*1024*1024 || hv.L2Latency != 20 {
		t.Errorf("L2 parameters wrong: %+v", hv)
	}
	if hv.VictimEntries != 16 || hv.VictimLatency != 1 {
		t.Errorf("victim parameters wrong: %+v", hv)
	}
}

func TestBaselineRuns(t *testing.T) {
	r := mustRun(t, Options{Benchmark: "gzip", Mode: LowVoltage, Scheme: Baseline, Seed: 1})
	if r.IPC <= 0 || r.IPC > 4 {
		t.Errorf("baseline IPC = %v out of range", r.IPC)
	}
	if r.ICache.Accesses == 0 || r.DCache.Accesses == 0 {
		t.Error("caches unused")
	}
	if r.ICapacity != 1 || r.DCapacity != 1 {
		t.Error("baseline capacity must be 1")
	}
}

func TestUnknownBenchmark(t *testing.T) {
	if _, err := Run(Options{Benchmark: "nosuch"}); err == nil {
		t.Error("accepted unknown benchmark")
	}
}

func TestBlockDisableNeedsPair(t *testing.T) {
	if _, err := Run(Options{Benchmark: "gzip", Mode: LowVoltage, Scheme: BlockDisable}); err == nil {
		t.Error("block-disable at low voltage must require a fault pair")
	}
	if _, err := Run(Options{Benchmark: "gzip", Mode: LowVoltage, Scheme: IncrementalWordDisable}); err == nil {
		t.Error("incremental word-disable at low voltage must require a fault pair")
	}
	// At high voltage no pair is needed: the disable bits are ignored.
	if _, err := Run(Options{Benchmark: "gzip", Mode: HighVoltage, Scheme: BlockDisable, Instructions: 10_000}); err != nil {
		t.Errorf("block-disable at high voltage should not need a pair: %v", err)
	}
}

func TestWordDisableGeometryAndLatency(t *testing.T) {
	sysLV, err := Build(Options{Benchmark: "gzip", Mode: LowVoltage, Scheme: WordDisable})
	if err != nil {
		t.Fatal(err)
	}
	if sysLV.DCache.Geom.SizeBytes != 16*1024 || sysLV.DCache.Geom.Ways != 4 {
		t.Errorf("WD low-voltage D$ = %v, want 16KB 4-way", sysLV.DCache.Geom)
	}
	if sysLV.DCache.HitLatency != 4 || sysLV.ICache.HitLatency != 4 {
		t.Error("WD caches must have latency 4")
	}
	sysHV, err := Build(Options{Benchmark: "gzip", Mode: HighVoltage, Scheme: WordDisable})
	if err != nil {
		t.Fatal(err)
	}
	if sysHV.DCache.Geom.SizeBytes != 32*1024 || sysHV.DCache.Geom.Ways != 8 {
		t.Errorf("WD high-voltage D$ = %v, want full 32KB 8-way", sysHV.DCache.Geom)
	}
	if sysHV.DCache.HitLatency != 4 {
		t.Error("WD alignment network must cost +1 cycle at high voltage too")
	}
}

func TestBlockDisableCapacityPlumbed(t *testing.T) {
	r := mustRun(t, Options{Benchmark: "gzip", Mode: LowVoltage, Scheme: BlockDisable, Pair: refPair(3), Seed: 1})
	if r.ICapacity <= 0.4 || r.ICapacity >= 0.8 {
		t.Errorf("I capacity = %v, want ≈0.58", r.ICapacity)
	}
	if r.DCapacity <= 0.4 || r.DCapacity >= 0.8 {
		t.Errorf("D capacity = %v, want ≈0.58", r.DCapacity)
	}
}

func TestVictimKinds(t *testing.T) {
	sys10, err := Build(Options{Benchmark: "gzip", Mode: LowVoltage, Scheme: BlockDisable, Pair: refPair(4), Victim: Victim10T})
	if err != nil {
		t.Fatal(err)
	}
	if sys10.DCache.Victim == nil || sys10.DCache.Victim.Entries != 16 {
		t.Error("10T victim cache should keep 16 entries at low voltage")
	}
	sys6, err := Build(Options{Benchmark: "gzip", Mode: LowVoltage, Scheme: BlockDisable, Pair: refPair(4), Victim: Victim6T})
	if err != nil {
		t.Fatal(err)
	}
	if sys6.DCache.Victim == nil || sys6.DCache.Victim.Entries != 8 {
		t.Error("6T victim cache should keep 8 entries at low voltage")
	}
	sys6hv, err := Build(Options{Benchmark: "gzip", Mode: HighVoltage, Scheme: Baseline, Victim: Victim6T})
	if err != nil {
		t.Fatal(err)
	}
	if sys6hv.DCache.Victim.Entries != 16 {
		t.Error("6T victim cache keeps all entries at high voltage")
	}
	sysNone, err := Build(Options{Benchmark: "gzip", Mode: HighVoltage, Scheme: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	if sysNone.DCache.Victim != nil {
		t.Error("no-victim build has a victim cache")
	}
}

func TestHighVoltageBlockDisableEqualsBaseline(t *testing.T) {
	// At high voltage block-disabling is overhead-free: identical IPC.
	base := mustRun(t, Options{Benchmark: "crafty", Mode: HighVoltage, Scheme: Baseline, Seed: 2})
	bd := mustRun(t, Options{Benchmark: "crafty", Mode: HighVoltage, Scheme: BlockDisable, Pair: refPair(5), Seed: 2})
	if base.IPC != bd.IPC {
		t.Errorf("high-voltage block-disable IPC %v != baseline %v", bd.IPC, base.IPC)
	}
}

func TestHighVoltageWordDisableSlower(t *testing.T) {
	base := mustRun(t, Options{Benchmark: "crafty", Mode: HighVoltage, Scheme: Baseline, Seed: 2})
	wd := mustRun(t, Options{Benchmark: "crafty", Mode: HighVoltage, Scheme: WordDisable, Seed: 2})
	if wd.IPC >= base.IPC {
		t.Errorf("word-disable at high voltage should be slower: %v vs %v", wd.IPC, base.IPC)
	}
}

func TestLowVoltageSchemeOrdering(t *testing.T) {
	// For a capacity-sensitive benchmark: baseline > block-disable > word-disable
	// (on the average fault map; paper Fig. 8).
	base := mustRun(t, Options{Benchmark: "crafty", Mode: LowVoltage, Scheme: Baseline, Seed: 2})
	wd := mustRun(t, Options{Benchmark: "crafty", Mode: LowVoltage, Scheme: WordDisable, Seed: 2})
	bd := mustRun(t, Options{Benchmark: "crafty", Mode: LowVoltage, Scheme: BlockDisable, Pair: refPair(6), Seed: 2})
	if !(base.IPC > bd.IPC) {
		t.Errorf("baseline (%v) should beat block-disable (%v)", base.IPC, bd.IPC)
	}
	if !(bd.IPC > wd.IPC) {
		t.Errorf("block-disable (%v) should beat word-disable (%v) on crafty", bd.IPC, wd.IPC)
	}
}

func TestVictimCacheHelpsBlockDisable(t *testing.T) {
	pair := refPair(7)
	plain := mustRun(t, Options{Benchmark: "gzip", Mode: LowVoltage, Scheme: BlockDisable, Pair: pair, Seed: 3})
	withVC := mustRun(t, Options{Benchmark: "gzip", Mode: LowVoltage, Scheme: BlockDisable, Pair: pair, Victim: Victim10T, Seed: 3})
	if withVC.IPC < plain.IPC {
		t.Errorf("victim cache should not hurt: %v vs %v", withVC.IPC, plain.IPC)
	}
	if withVC.VictimHitRate == 0 {
		t.Error("victim cache never hit")
	}
}

func TestDeterministicRuns(t *testing.T) {
	opts := Options{Benchmark: "vpr", Mode: LowVoltage, Scheme: BlockDisable, Pair: refPair(8), Victim: Victim10T, Seed: 4, Instructions: 30_000}
	a := mustRun(t, opts)
	b := mustRun(t, opts)
	if a.IPC != b.IPC || a.Stats != b.Stats {
		t.Error("same options produced different results")
	}
}

func TestIncrementalWordDisableRuns(t *testing.T) {
	r := mustRun(t, Options{Benchmark: "gzip", Mode: LowVoltage, Scheme: IncrementalWordDisable, Pair: refPair(9), Seed: 5})
	if r.IPC <= 0 {
		t.Fatal("incremental WD produced zero IPC")
	}
	// Capacity should be >= 0.5-ish at pfail 1e-3 (most pairs fault-free).
	if r.DCapacity < 0.5 || r.DCapacity > 1 {
		t.Errorf("incremental WD capacity = %v, want in [0.5, 1]", r.DCapacity)
	}
}

func TestL2BlockDisableExtension(t *testing.T) {
	g2 := geom.MustNew(2*1024*1024, 8, 64)
	l2map := faults.GeneratePairSparse(g2, g2, 32, 0.001, 11).I
	r := mustRun(t, Options{Benchmark: "mcf", Mode: LowVoltage, Scheme: Baseline, L2Map: l2map, Seed: 6})
	rFull := mustRun(t, Options{Benchmark: "mcf", Mode: LowVoltage, Scheme: Baseline, Seed: 6})
	if r.IPC > rFull.IPC {
		t.Errorf("L2 capacity loss should not speed things up: %v vs %v", r.IPC, rFull.IPC)
	}
}

func TestStringers(t *testing.T) {
	if HighVoltage.String() != "high-voltage" || LowVoltage.String() != "low-voltage" {
		t.Error("mode names wrong")
	}
	if Baseline.String() != "baseline" || WordDisable.String() != "word-disable" ||
		BlockDisable.String() != "block-disable" || IncrementalWordDisable.String() != "incremental-word-disable" {
		t.Error("scheme names wrong")
	}
	if NoVictim.String() != "no-victim" || Victim10T.String() != "victim-10T" || Victim6T.String() != "victim-6T" {
		t.Error("victim names wrong")
	}
	if Scheme(9).String() == "" || VictimKind(9).String() == "" {
		t.Error("unknown enum strings empty")
	}
}

func TestBitFixGeometryAndOrdering(t *testing.T) {
	sys, err := Build(Options{Benchmark: "gzip", Mode: LowVoltage, Scheme: BitFix})
	if err != nil {
		t.Fatal(err)
	}
	if sys.DCache.Geom.SizeBytes != 24*1024 || sys.DCache.Geom.Ways != 6 {
		t.Errorf("bit-fix low-voltage D$ = %v, want 24KB 6-way", sys.DCache.Geom)
	}
	if sys.DCache.HitLatency != 5 {
		t.Errorf("bit-fix latency = %d, want 5 (3 + 2-cycle patching)", sys.DCache.HitLatency)
	}
	// High voltage: bypassed entirely.
	hv, err := Build(Options{Benchmark: "gzip", Mode: HighVoltage, Scheme: BitFix})
	if err != nil {
		t.Fatal(err)
	}
	if hv.DCache.Geom.SizeBytes != 32*1024 || hv.DCache.HitLatency != 3 {
		t.Errorf("bit-fix at high voltage should be the baseline: %v lat %d", hv.DCache.Geom, hv.DCache.HitLatency)
	}
	// Performance: bit-fix keeps more capacity than word-disable but pays
	// two extra cycles; on a latency-sensitive benchmark it lands below
	// the baseline.
	base := mustRun(t, Options{Benchmark: "crafty", Mode: LowVoltage, Seed: 2})
	bf := mustRun(t, Options{Benchmark: "crafty", Mode: LowVoltage, Scheme: BitFix, Seed: 2})
	if bf.IPC >= base.IPC {
		t.Errorf("bit-fix (%v) should lose to the baseline (%v)", bf.IPC, base.IPC)
	}
	if bf.ICapacity != 0.75 || bf.DCapacity != 0.75 {
		t.Errorf("bit-fix capacity = %v/%v, want 0.75", bf.ICapacity, bf.DCapacity)
	}
}

// TestFaultMapGeometryMismatch: a fault map drawn for another geometry
// than the cache it gates is refused by Run and by fresh and reused
// Replayers alike, instead of gating the wrong sets and ways. The 32 KB
// 8-way pair on a 16 KB 4-way L1 has the same 64 sets, so only the way
// count differs: masks enabling only ways 4-7 once crashed the insert path.
func TestFaultMapGeometryMismatch(t *testing.T) {
	machine := Reference(LowVoltage)
	machine.L1Size, machine.L1Ways = 16*1024, 4
	g2 := geom.MustNew(1024*1024, 8, 64)
	l2map := faults.GeneratePairSparse(g2, g2, 32, 0.001, 12).I
	base := Options{Benchmark: "crafty", Mode: LowVoltage, Machine: &machine, Instructions: 5000, Seed: 3}
	bd := base
	bd.Scheme, bd.Pair = BlockDisable, refPair(13)
	iwd := bd
	iwd.Scheme = IncrementalWordDisable
	dOnly := bd
	dOnly.Pair = &faults.Pair{I: faults.GeneratePairSparse(geom.MustNew(16*1024, 4, 64), geom.MustNew(16*1024, 4, 64), 32, 0.001, 13).I, D: refPair(13).D}
	l2 := base
	l2.L2Map = l2map
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"block-disable", bd, "I-cache fault map is for a 32KB 8-way"},
		{"incremental-word-disable", iwd, "I-cache fault map is for a 32KB 8-way"},
		{"d-side", dOnly, "D-cache fault map is for a 32KB 8-way"},
		{"l2", l2, "L2 fault map is for a 1024KB 8-way"},
	}
	rec := new(Recording)
	if err := rec.Record(base); err != nil {
		t.Fatal(err)
	}
	var p Replayer
	for _, c := range cases {
		_, errRun := Run(c.opts)
		_, errFresh := new(Replayer).Run(c.opts, rec)
		_, errReplay := p.Run(c.opts, rec)
		for via, err := range map[string]error{"Run": errRun, "fresh Replayer.Run": errFresh, "Replayer.Run": errReplay} {
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s via %s: err = %v, want it to contain %q", c.name, via, err, c.want)
			}
		}
		// The Replayer stays usable after the refusal.
		got, err := p.Run(base, rec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: Replayer result after the refusal differs from Run", c.name)
		}
	}
	// A missing side of the pair is refused too, not dereferenced.
	half := bd
	half.Pair = &faults.Pair{D: refPair(13).D}
	if _, err := Run(half); err == nil || !strings.Contains(err.Error(), "I-cache fault map is missing") {
		t.Errorf("pair without an I-side map: err = %v", err)
	}
	// The pair is ignored where it gates nothing: word-disabling and the
	// baseline do not consult it, and neither does high voltage.
	for _, s := range []Scheme{Baseline, WordDisable, BitFix} {
		o := bd
		o.Scheme = s
		if _, err := Run(o); err != nil {
			t.Errorf("%v ignores the pair, got %v", s, err)
		}
	}
	hv := bd
	hv.Mode, hv.L2Map = HighVoltage, l2map
	if _, err := Run(hv); err != nil {
		t.Errorf("high voltage ignores the maps, got %v", err)
	}
}
