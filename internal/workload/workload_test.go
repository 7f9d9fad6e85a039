package workload

import (
	"math"
	"strings"
	"testing"

	"vccmin/internal/trace"
)

func TestAllProfilesValid(t *testing.T) {
	ps := Profiles()
	if len(ps) != 26 {
		t.Fatalf("got %d profiles, want 26 (the SPEC CPU 2000 suite)", len(ps))
	}
	seen := map[string]bool{}
	nfp, nint := 0, 0
	for _, p := range ps {
		if err := p.Check(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
		if seen[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		seen[p.Name] = true
		switch p.Suite {
		case "fp":
			nfp++
		case "int":
			nint++
		default:
			t.Errorf("profile %s has unknown suite %q", p.Name, p.Suite)
		}
	}
	if nfp != 14 || nint != 12 {
		t.Errorf("suite split = %d fp, %d int; want 14/12", nfp, nint)
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("crafty")
	if err != nil || p.Name != "crafty" {
		t.Errorf("ByName(crafty) = %v, %v", p.Name, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Error("ByName accepted unknown benchmark")
	}
	if len(Names()) != 26 {
		t.Error("name list wrong length")
	}
}

// TestProfileCheckRejects drives every error branch of Profile.Check and
// pins that the message names what went wrong — a profile author sees
// the failing field, not a generic rejection.
func TestProfileCheckRejects(t *testing.T) {
	good, _ := ByName("gzip")
	cases := []struct {
		name    string
		wantErr string // substring the error must carry
		mutate  func(*Profile)
	}{
		{"empty name", "needs a name",
			func(p *Profile) { p.Name = "" }},
		{"mix above bound", "out of [0, 0.95]",
			func(p *Profile) { p.LoadFrac = 0.9; p.StoreFrac = 0.4 }},
		{"negative mix", "out of [0, 0.95]",
			func(p *Profile) { p.LoadFrac = -0.5; p.StoreFrac = 0.1; p.BranchFrac = 0.1 }},
		{"fp fraction above one", "FP/mult fractions",
			func(p *Profile) { p.FPFrac = 1.5 }},
		{"mult fraction negative", "FP/mult fractions",
			func(p *Profile) { p.MultFrac = -0.1 }},
		{"cold fraction negative", "cold fraction",
			func(p *Profile) { p.ColdFrac = -0.1 }},
		{"cold fraction above one", "cold fraction",
			func(p *Profile) { p.ColdFrac = 1.1 }},
		{"memory without reuse", "need reuse components",
			func(p *Profile) { p.Reuse = nil; p.ColdFrac = 0.5 }},
		{"no instruction footprint", "instruction footprint",
			func(p *Profile) { p.IFootprintBlocks = 0 }},
		{"no static branches", "static branches",
			func(p *Profile) { p.StaticBranches = 0 }},
		{"random branch fraction", "random branch fraction",
			func(p *Profile) { p.RandomBranchFrac = 2 }},
		{"dependence distance below one", "must be >= 1",
			func(p *Profile) { p.MeanDepDist = 0.5 }},
		{"negative target bias", "target bias",
			func(p *Profile) { p.TargetBias = -1 }},
		{"load chain fraction", "load chain fraction",
			func(p *Profile) { p.LoadChainFrac = 1.5 }},
		{"reuse weight", "reuse component",
			func(p *Profile) { p.Reuse = []ReuseComponent{{Weight: -1, Blocks: 10}} }},
		{"reuse blocks", "reuse component",
			func(p *Profile) { p.Reuse = []ReuseComponent{{Weight: 1, Blocks: 0}} }},
		{"negative hot sets", "negative hot sets",
			func(p *Profile) { p.Reuse = []ReuseComponent{{Weight: 1, Blocks: 10, HotSets: -2}} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := good
			p.Reuse = append([]ReuseComponent(nil), good.Reuse...)
			tc.mutate(&p)
			err := p.Check()
			if err == nil {
				t.Fatal("Check accepted an invalid profile")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	p, _ := ByName("gcc")
	a := trace.Collect(MustNewGenerator(p, 7), 5000)
	b := trace.Collect(MustNewGenerator(p, 7), 5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("instr %d differs between identical generators", i)
		}
	}
	c := trace.Collect(MustNewGenerator(p, 8), 5000)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical traces")
	}
}

func TestInstructionMixMatchesProfile(t *testing.T) {
	for _, name := range []string{"crafty", "swim", "mcf"} {
		p, _ := ByName(name)
		g := MustNewGenerator(p, 1)
		const n = 200000
		counts := make(map[trace.Class]int)
		var ins trace.Instr
		for i := 0; i < n; i++ {
			g.Next(&ins)
			counts[ins.Class]++
		}
		// Classes are fixed per PC, so the realized dynamic mix is the
		// configured mix reweighted by code-region heat — approximate by
		// design, like a real binary's dynamic profile.
		checkFrac := func(what string, got int, want float64) {
			t.Helper()
			f := float64(got) / n
			if math.Abs(f-want) > 0.05 {
				t.Errorf("%s %s fraction = %v, want ≈%v", name, what, f, want)
			}
		}
		checkFrac("load", counts[trace.Load], p.LoadFrac)
		checkFrac("store", counts[trace.Store], p.StoreFrac)
		checkFrac("branch", counts[trace.Branch], p.BranchFrac)
	}
}

func TestMemOpsCarryAddresses(t *testing.T) {
	p, _ := ByName("ammp")
	g := MustNewGenerator(p, 2)
	var ins trace.Instr
	for i := 0; i < 50000; i++ {
		g.Next(&ins)
		if ins.Class.IsMem() && ins.Addr == 0 {
			t.Fatal("memory op without address")
		}
		if !ins.Class.IsMem() && ins.Addr != 0 {
			t.Fatal("non-memory op with address")
		}
	}
}

func TestBranchTargetsConsistentPerSite(t *testing.T) {
	// The same branch PC must always jump to the same target (so the BTB
	// can learn it).
	p, _ := ByName("vpr")
	g := MustNewGenerator(p, 3)
	targets := map[uint64]uint64{}
	var ins trace.Instr
	for i := 0; i < 300000; i++ {
		g.Next(&ins)
		if ins.Class != trace.Branch {
			continue
		}
		if prev, ok := targets[ins.PC]; ok && prev != ins.Target {
			t.Fatalf("branch at %#x changed target %#x -> %#x", ins.PC, prev, ins.Target)
		}
		targets[ins.PC] = ins.Target
	}
	if len(targets) < 10 {
		t.Errorf("only %d distinct branch sites observed", len(targets))
	}
}

func TestPCStaysInFootprint(t *testing.T) {
	p, _ := ByName("eon")
	g := MustNewGenerator(p, 4)
	limit := codeBase + uint64(p.IFootprintBlocks)*blockSize
	var ins trace.Instr
	for i := 0; i < 100000; i++ {
		g.Next(&ins)
		if ins.PC < codeBase || ins.PC >= limit {
			t.Fatalf("PC %#x outside footprint [%#x, %#x)", ins.PC, codeBase, limit)
		}
		if ins.Class == trace.Branch && ins.Taken {
			if ins.Target < codeBase || ins.Target >= limit {
				t.Fatalf("branch target %#x outside footprint", ins.Target)
			}
		}
	}
}

func TestDataFootprintMatchesComponents(t *testing.T) {
	// All reuse addresses must land inside their component's region, and
	// the number of distinct blocks per component must approximate the
	// configured working set.
	p := Profile{
		Name: "synthetic", Suite: "int",
		LoadFrac: 0.5, BranchFrac: 0.05,
		Reuse:            []ReuseComponent{{Weight: 1, Blocks: 256}},
		IFootprintBlocks: 16, StaticBranches: 32, MeanDepDist: 3,
	}
	g := MustNewGenerator(p, 5)
	blocks := map[uint64]bool{}
	var ins trace.Instr
	for i := 0; i < 200000; i++ {
		g.Next(&ins)
		if ins.Class != trace.Load {
			continue
		}
		if ins.Addr < reuseBase || ins.Addr >= reuseBase+reuseStep {
			t.Fatalf("reuse address %#x outside component region", ins.Addr)
		}
		blocks[ins.Addr/blockSize] = true
	}
	if len(blocks) != 256 {
		t.Errorf("distinct blocks = %d, want 256", len(blocks))
	}
}

func TestHotSetsConcentrate(t *testing.T) {
	p := Profile{
		Name: "hot", Suite: "int",
		LoadFrac: 0.5, BranchFrac: 0.05,
		Reuse:            []ReuseComponent{{Weight: 1, Blocks: 256, HotSets: 8}},
		IFootprintBlocks: 16, StaticBranches: 32, MeanDepDist: 3,
	}
	g := MustNewGenerator(p, 6)
	sets := map[uint64]bool{}
	var ins trace.Instr
	for i := 0; i < 100000; i++ {
		g.Next(&ins)
		if ins.Class == trace.Load {
			sets[(ins.Addr/blockSize)%l1Sets] = true
		}
	}
	if len(sets) != 8 {
		t.Errorf("hot component touched %d sets, want exactly 8", len(sets))
	}
}

func TestColdStreamIsFresh(t *testing.T) {
	p := Profile{
		Name: "stream", Suite: "fp",
		LoadFrac: 0.6, BranchFrac: 0.02, ColdFrac: 1,
		Reuse:            []ReuseComponent{{Weight: 1, Blocks: 64}},
		IFootprintBlocks: 16, StaticBranches: 32, MeanDepDist: 8,
	}
	g := MustNewGenerator(p, 7)
	var ins trace.Instr
	prev := uint64(0)
	for i := 0; i < 50000; i++ {
		g.Next(&ins)
		if ins.Class != trace.Load {
			continue
		}
		if ins.Addr <= prev {
			t.Fatal("cold stream must walk forward monotonically")
		}
		prev = ins.Addr
	}
}

func TestDependenceDistanceMean(t *testing.T) {
	for _, name := range []string{"mcf", "swim"} {
		p, _ := ByName(name)
		g := MustNewGenerator(p, 8)
		var ins trace.Instr
		sum, n := 0.0, 0
		for i := 0; i < 100000; i++ {
			g.Next(&ins)
			sum += float64(ins.Dep1)
			n++
			if ins.Dep1 < 1 || ins.Dep1 > 64 {
				t.Fatalf("dep distance %d out of [1,64]", ins.Dep1)
			}
		}
		mean := sum / float64(n)
		if math.Abs(mean-p.MeanDepDist) > 0.25*p.MeanDepDist {
			t.Errorf("%s mean dep distance = %v, want ≈%v", name, mean, p.MeanDepDist)
		}
	}
}

func TestTakenFractionReasonable(t *testing.T) {
	// Biased sites are 70% taken-biased: overall taken rate should be
	// substantial but not extreme.
	p, _ := ByName("gcc")
	g := MustNewGenerator(p, 9)
	var ins trace.Instr
	taken, branches := 0, 0
	for i := 0; i < 300000; i++ {
		g.Next(&ins)
		if ins.Class == trace.Branch {
			branches++
			if ins.Taken {
				taken++
			}
		}
	}
	rate := float64(taken) / float64(branches)
	if rate < 0.4 || rate > 0.9 {
		t.Errorf("taken rate = %v, want in [0.4, 0.9]", rate)
	}
}
