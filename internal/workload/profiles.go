package workload

import "fmt"

// The profile table below encodes the qualitative behaviour of the 26 SPEC
// CPU 2000 benchmarks the paper simulates, in the terms our generator
// understands. Working-set components are in 64-byte blocks (the reference
// L1 holds 512, the L2 32768):
//
//   - components up to ~512 blocks occupy the L1; components between 256
//     and 512 blocks are the capacity-sensitive band where halving the
//     cache (word-disable) or losing ~42% of blocks (block-disable at
//     pfail=1e-3) hurts;
//   - components with HotSets > 0 are conflict components: ~6 blocks per
//     hot set, which an 8-way set holds comfortably but a 4-way
//     (word-disable) or fault-thinned (block-disable) set thrashes; the
//     16-entry victim cache absorbs most of that overflow. These model
//     the benchmarks whose worst fault maps hurt block-disabling in
//     Fig. 8 (mesa, wupwise, gap, gzip, perlbmk) and the ones a victim
//     cache helps even at high voltage in Fig. 11 (apsi, fma3d, crafty);
//   - components of thousands of blocks live in the L2; larger ones and
//     the cold fraction stream from memory.
//
// TargetBias concentrates branch targets in a hot front of the code
// footprint, giving the large-code benchmarks (crafty, gcc, perlbmk,
// vortex, fma3d) instruction working sets that fit a 32 KB I-cache but
// thrash a 16 KB one. Dependence distance sets ILP: streaming FP codes
// tolerate latency, pointer chasers (mcf) do not.

// Profiles returns the 26 benchmark profiles in the paper's Fig. 8 order
// (SPECfp alphabetical, then SPECint alphabetical).
func Profiles() []Profile {
	return []Profile{
		// ---- SPECfp ----
		{Name: "ammp", Suite: "fp", LoadFrac: 0.27, StoreFrac: 0.09, BranchFrac: 0.05, FPFrac: 0.55, MultFrac: 0.25, ColdFrac: 0.03,
			Reuse:            []ReuseComponent{{Weight: 0.55, Blocks: 48}, {Weight: 0.049, Blocks: 50, HotSets: 10}, {Weight: 0.0275, Blocks: 300}, {Weight: 0.09, Blocks: 8000}, {Weight: 0.048, Blocks: 48000}},
			IFootprintBlocks: 220, StaticBranches: 700, RandomBranchFrac: 0.08, MeanDepDist: 4.5, LoadChainFrac: 0.45},
		{Name: "applu", Suite: "fp", LoadFrac: 0.30, StoreFrac: 0.10, BranchFrac: 0.03, FPFrac: 0.65, MultFrac: 0.30, ColdFrac: 0.3,
			Reuse:            []ReuseComponent{{Weight: 0.5, Blocks: 64}, {Weight: 0.042, Blocks: 50, HotSets: 10}, {Weight: 0.35, Blocks: 200}, {Weight: 0.09, Blocks: 24000}},
			IFootprintBlocks: 260, StaticBranches: 500, RandomBranchFrac: 0.03, MeanDepDist: 8, LoadChainFrac: 0.12},
		{Name: "apsi", Suite: "fp", LoadFrac: 0.28, StoreFrac: 0.10, BranchFrac: 0.06, FPFrac: 0.60, MultFrac: 0.25, ColdFrac: 0.06,
			Reuse:            []ReuseComponent{{Weight: 0.42, Blocks: 48}, {Weight: 0.1, Blocks: 96, HotSets: 16}, {Weight: 0.035, Blocks: 400}, {Weight: 0.09, Blocks: 2200}, {Weight: 0.03, Blocks: 28000}},
			IFootprintBlocks: 380, StaticBranches: 900, RandomBranchFrac: 0.06, MeanDepDist: 6, LoadChainFrac: 0.25, TargetBias: 1.5},
		{Name: "art", Suite: "fp", LoadFrac: 0.32, StoreFrac: 0.07, BranchFrac: 0.06, FPFrac: 0.50, MultFrac: 0.30, ColdFrac: 0.02,
			Reuse:            []ReuseComponent{{Weight: 0.3, Blocks: 64}, {Weight: 0.042, Blocks: 60, HotSets: 12}, {Weight: 0.25, Blocks: 150}, {Weight: 0.27, Blocks: 56000}},
			IFootprintBlocks: 120, StaticBranches: 300, RandomBranchFrac: 0.05, MeanDepDist: 5, LoadChainFrac: 0.35},
		{Name: "equake", Suite: "fp", LoadFrac: 0.34, StoreFrac: 0.08, BranchFrac: 0.06, FPFrac: 0.55, MultFrac: 0.30, ColdFrac: 0.05,
			Reuse:            []ReuseComponent{{Weight: 0.45, Blocks: 56}, {Weight: 0.049, Blocks: 50, HotSets: 10}, {Weight: 0.0312, Blocks: 260}, {Weight: 0.12, Blocks: 4200}, {Weight: 0.06, Blocks: 50000}},
			IFootprintBlocks: 200, StaticBranches: 450, RandomBranchFrac: 0.05, MeanDepDist: 4.5, LoadChainFrac: 0.35},
		{Name: "facerec", Suite: "fp", LoadFrac: 0.29, StoreFrac: 0.08, BranchFrac: 0.05, FPFrac: 0.60, MultFrac: 0.30, ColdFrac: 0.1,
			Reuse:            []ReuseComponent{{Weight: 0.45, Blocks: 64}, {Weight: 0.042, Blocks: 50, HotSets: 10}, {Weight: 0.0375, Blocks: 340}, {Weight: 0.102, Blocks: 6000}, {Weight: 0.048, Blocks: 40000}},
			IFootprintBlocks: 240, StaticBranches: 600, RandomBranchFrac: 0.05, MeanDepDist: 6.5, LoadChainFrac: 0.2},
		{Name: "fma3d", Suite: "fp", LoadFrac: 0.28, StoreFrac: 0.11, BranchFrac: 0.07, FPFrac: 0.55, MultFrac: 0.25, ColdFrac: 0.06,
			Reuse:            []ReuseComponent{{Weight: 0.32, Blocks: 56}, {Weight: 0.12, Blocks: 120, HotSets: 20}, {Weight: 0.1213, Blocks: 440}, {Weight: 0.09, Blocks: 5000}, {Weight: 0.03, Blocks: 30000}},
			IFootprintBlocks: 560, StaticBranches: 1400, RandomBranchFrac: 0.07, MeanDepDist: 5, LoadChainFrac: 0.3, TargetBias: 1.8},
		{Name: "galgel", Suite: "fp", LoadFrac: 0.30, StoreFrac: 0.07, BranchFrac: 0.05, FPFrac: 0.65, MultFrac: 0.35, ColdFrac: 0.04,
			Reuse:            []ReuseComponent{{Weight: 0.4, Blocks: 64}, {Weight: 0.049, Blocks: 60, HotSets: 12}, {Weight: 0.0475, Blocks: 380}, {Weight: 0.12, Blocks: 9000}},
			IFootprintBlocks: 200, StaticBranches: 450, RandomBranchFrac: 0.04, MeanDepDist: 7, LoadChainFrac: 0.15},
		{Name: "lucas", Suite: "fp", LoadFrac: 0.27, StoreFrac: 0.09, BranchFrac: 0.02, FPFrac: 0.70, MultFrac: 0.40, ColdFrac: 0.28,
			Reuse:            []ReuseComponent{{Weight: 0.4, Blocks: 48}, {Weight: 0.035, Blocks: 50, HotSets: 10}, {Weight: 0.4, Blocks: 160}, {Weight: 0.12, Blocks: 26000}},
			IFootprintBlocks: 140, StaticBranches: 250, RandomBranchFrac: 0.03, MeanDepDist: 9, LoadChainFrac: 0.1},
		{Name: "mesa", Suite: "fp", LoadFrac: 0.26, StoreFrac: 0.11, BranchFrac: 0.08, FPFrac: 0.45, MultFrac: 0.25, ColdFrac: 0.02,
			Reuse:            []ReuseComponent{{Weight: 0.32, Blocks: 48}, {Weight: 0.13, Blocks: 84, HotSets: 14}, {Weight: 0.1396, Blocks: 420}, {Weight: 0.072, Blocks: 3000}, {Weight: 0.018, Blocks: 20000}},
			IFootprintBlocks: 420, StaticBranches: 1100, RandomBranchFrac: 0.07, MeanDepDist: 4, LoadChainFrac: 0.35, TargetBias: 1.6},
		{Name: "mgrid", Suite: "fp", LoadFrac: 0.33, StoreFrac: 0.07, BranchFrac: 0.02, FPFrac: 0.70, MultFrac: 0.35, ColdFrac: 0.28,
			Reuse:            []ReuseComponent{{Weight: 0.4, Blocks: 56}, {Weight: 0.035, Blocks: 50, HotSets: 10}, {Weight: 0.4, Blocks: 210}, {Weight: 0.12, Blocks: 30000}},
			IFootprintBlocks: 130, StaticBranches: 220, RandomBranchFrac: 0.02, MeanDepDist: 8.5, LoadChainFrac: 0.1},
		{Name: "sixtrack", Suite: "fp", LoadFrac: 0.24, StoreFrac: 0.08, BranchFrac: 0.07, FPFrac: 0.60, MultFrac: 0.30, ColdFrac: 0.01,
			Reuse:            []ReuseComponent{{Weight: 0.5, Blocks: 64}, {Weight: 0.049, Blocks: 70, HotSets: 14}, {Weight: 0.4, Blocks: 180}, {Weight: 0.06, Blocks: 2000}},
			IFootprintBlocks: 480, StaticBranches: 1200, RandomBranchFrac: 0.05, MeanDepDist: 6, LoadChainFrac: 0.2, TargetBias: 2.4},
		{Name: "swim", Suite: "fp", LoadFrac: 0.32, StoreFrac: 0.09, BranchFrac: 0.02, FPFrac: 0.70, MultFrac: 0.30, ColdFrac: 0.35,
			Reuse:            []ReuseComponent{{Weight: 0.4, Blocks: 48}, {Weight: 0.035, Blocks: 50, HotSets: 10}, {Weight: 0.4, Blocks: 150}, {Weight: 0.12, Blocks: 40000}},
			IFootprintBlocks: 110, StaticBranches: 200, RandomBranchFrac: 0.02, MeanDepDist: 9, LoadChainFrac: 0.1},
		{Name: "wupwise", Suite: "fp", LoadFrac: 0.28, StoreFrac: 0.09, BranchFrac: 0.05, FPFrac: 0.60, MultFrac: 0.35, ColdFrac: 0.03,
			Reuse:            []ReuseComponent{{Weight: 0.32, Blocks: 56}, {Weight: 0.12, Blocks: 132, HotSets: 22}, {Weight: 0.045, Blocks: 400}, {Weight: 0.084, Blocks: 6000}, {Weight: 0.018, Blocks: 40000}},
			IFootprintBlocks: 260, StaticBranches: 650, RandomBranchFrac: 0.05, MeanDepDist: 6, LoadChainFrac: 0.25},

		// ---- SPECint ----
		{Name: "bzip", Suite: "int", LoadFrac: 0.26, StoreFrac: 0.10, BranchFrac: 0.11, FPFrac: 0, MultFrac: 0.04, ColdFrac: 0.04,
			Reuse:            []ReuseComponent{{Weight: 0.4, Blocks: 48}, {Weight: 0.056, Blocks: 60, HotSets: 12}, {Weight: 0.0375, Blocks: 300}, {Weight: 0.12, Blocks: 4200}, {Weight: 0.03, Blocks: 20000}},
			IFootprintBlocks: 130, StaticBranches: 500, RandomBranchFrac: 0.14, MeanDepDist: 3, LoadChainFrac: 0.35},
		{Name: "crafty", Suite: "int", LoadFrac: 0.28, StoreFrac: 0.08, BranchFrac: 0.13, FPFrac: 0, MultFrac: 0.03, ColdFrac: 0.01,
			Reuse:            []ReuseComponent{{Weight: 0.3, Blocks: 48}, {Weight: 0.15, Blocks: 126, HotSets: 18}, {Weight: 0.45, Blocks: 460}, {Weight: 0.06, Blocks: 1500}},
			IFootprintBlocks: 680, StaticBranches: 2200, RandomBranchFrac: 0.10, MeanDepDist: 2.2, LoadChainFrac: 0.5, TargetBias: 2.5},
		{Name: "eon", Suite: "int", LoadFrac: 0.26, StoreFrac: 0.12, BranchFrac: 0.11, FPFrac: 0.15, MultFrac: 0.08, ColdFrac: 0.01,
			Reuse:            []ReuseComponent{{Weight: 0.5, Blocks: 48}, {Weight: 0.035, Blocks: 50, HotSets: 10}, {Weight: 0.4, Blocks: 120}, {Weight: 0.06, Blocks: 3000}},
			IFootprintBlocks: 320, StaticBranches: 1300, RandomBranchFrac: 0.06, MeanDepDist: 2.8, LoadChainFrac: 0.2, TargetBias: 2.0},
		{Name: "gap", Suite: "int", LoadFrac: 0.27, StoreFrac: 0.09, BranchFrac: 0.10, FPFrac: 0, MultFrac: 0.05, ColdFrac: 0.02,
			Reuse:            []ReuseComponent{{Weight: 0.36, Blocks: 48}, {Weight: 0.11, Blocks: 96, HotSets: 16}, {Weight: 0.0413, Blocks: 420}, {Weight: 0.06, Blocks: 5200}, {Weight: 0.03, Blocks: 24000}},
			IFootprintBlocks: 430, StaticBranches: 1400, RandomBranchFrac: 0.09, MeanDepDist: 2.6, LoadChainFrac: 0.4, TargetBias: 1.8},
		{Name: "gcc", Suite: "int", LoadFrac: 0.26, StoreFrac: 0.12, BranchFrac: 0.15, FPFrac: 0, MultFrac: 0.02, ColdFrac: 0.03,
			Reuse:            []ReuseComponent{{Weight: 0.3, Blocks: 56}, {Weight: 0.063, Blocks: 80, HotSets: 16}, {Weight: 0.147, Blocks: 450}, {Weight: 0.09, Blocks: 3200}, {Weight: 0.03, Blocks: 15000}},
			IFootprintBlocks: 850, StaticBranches: 3000, RandomBranchFrac: 0.12, MeanDepDist: 2.4, LoadChainFrac: 0.4, TargetBias: 2.0},
		{Name: "gzip", Suite: "int", LoadFrac: 0.25, StoreFrac: 0.09, BranchFrac: 0.12, FPFrac: 0, MultFrac: 0.03, ColdFrac: 0.02,
			Reuse:            []ReuseComponent{{Weight: 0.4, Blocks: 40}, {Weight: 0.06, Blocks: 72, HotSets: 12}, {Weight: 0.0262, Blocks: 350}, {Weight: 0.072, Blocks: 1200}, {Weight: 0.018, Blocks: 8000}},
			IFootprintBlocks: 110, StaticBranches: 420, RandomBranchFrac: 0.13, MeanDepDist: 2.8, LoadChainFrac: 0.35},
		{Name: "mcf", Suite: "int", LoadFrac: 0.35, StoreFrac: 0.09, BranchFrac: 0.12, FPFrac: 0, MultFrac: 0.02, ColdFrac: 0.02,
			Reuse:            []ReuseComponent{{Weight: 0.25, Blocks: 48}, {Weight: 0.042, Blocks: 50, HotSets: 10}, {Weight: 0.2, Blocks: 120}, {Weight: 0.33, Blocks: 100000}},
			IFootprintBlocks: 100, StaticBranches: 300, RandomBranchFrac: 0.16, MeanDepDist: 1.6, LoadChainFrac: 0.8},
		{Name: "parser", Suite: "int", LoadFrac: 0.26, StoreFrac: 0.10, BranchFrac: 0.13, FPFrac: 0, MultFrac: 0.02, ColdFrac: 0.02,
			Reuse:            []ReuseComponent{{Weight: 0.36, Blocks: 48}, {Weight: 0.056, Blocks: 60, HotSets: 12}, {Weight: 0.04, Blocks: 310}, {Weight: 0.12, Blocks: 8000}, {Weight: 0.048, Blocks: 40000}},
			IFootprintBlocks: 330, StaticBranches: 1100, RandomBranchFrac: 0.12, MeanDepDist: 2.3, LoadChainFrac: 0.5},
		{Name: "perlbmk", Suite: "int", LoadFrac: 0.27, StoreFrac: 0.11, BranchFrac: 0.14, FPFrac: 0, MultFrac: 0.02, ColdFrac: 0.01,
			Reuse:            []ReuseComponent{{Weight: 0.32, Blocks: 48}, {Weight: 0.12, Blocks: 96, HotSets: 16}, {Weight: 0.1396, Blocks: 380}, {Weight: 0.072, Blocks: 2600}, {Weight: 0.018, Blocks: 12000}},
			IFootprintBlocks: 760, StaticBranches: 2600, RandomBranchFrac: 0.08, MeanDepDist: 2.5, LoadChainFrac: 0.4, TargetBias: 2.2},
		{Name: "twolf", Suite: "int", LoadFrac: 0.27, StoreFrac: 0.08, BranchFrac: 0.12, FPFrac: 0.05, MultFrac: 0.04, ColdFrac: 0.01,
			Reuse:            []ReuseComponent{{Weight: 0.37, Blocks: 48}, {Weight: 0.063, Blocks: 70, HotSets: 14}, {Weight: 0.0475, Blocks: 350}, {Weight: 0.102, Blocks: 2600}, {Weight: 0.03, Blocks: 10000}},
			IFootprintBlocks: 290, StaticBranches: 900, RandomBranchFrac: 0.12, MeanDepDist: 2.5, LoadChainFrac: 0.45},
		{Name: "vortex", Suite: "int", LoadFrac: 0.28, StoreFrac: 0.13, BranchFrac: 0.13, FPFrac: 0, MultFrac: 0.02, ColdFrac: 0.02,
			Reuse:            []ReuseComponent{{Weight: 0.3, Blocks: 56}, {Weight: 0.063, Blocks: 80, HotSets: 16}, {Weight: 0.1581, Blocks: 440}, {Weight: 0.108, Blocks: 4200}, {Weight: 0.042, Blocks: 20000}},
			IFootprintBlocks: 700, StaticBranches: 2400, RandomBranchFrac: 0.06, MeanDepDist: 2.6, LoadChainFrac: 0.4, TargetBias: 2.0},
		{Name: "vpr", Suite: "int", LoadFrac: 0.28, StoreFrac: 0.09, BranchFrac: 0.11, FPFrac: 0.10, MultFrac: 0.04, ColdFrac: 0.01,
			Reuse:            []ReuseComponent{{Weight: 0.39, Blocks: 48}, {Weight: 0.056, Blocks: 60, HotSets: 12}, {Weight: 0.0475, Blocks: 330}, {Weight: 0.09, Blocks: 2200}, {Weight: 0.03, Blocks: 9000}},
			IFootprintBlocks: 240, StaticBranches: 800, RandomBranchFrac: 0.10, MeanDepDist: 2.6, LoadChainFrac: 0.45},
	}
}

// ByName returns the profile with the given name.
func ByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Names returns all benchmark names in Fig. 8 order.
func Names() []string {
	ps := Profiles()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}
