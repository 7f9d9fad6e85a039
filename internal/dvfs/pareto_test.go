package dvfs

import (
	"math/rand"
	"reflect"
	"testing"

	"vccmin/internal/sim"
)

func TestMarkFrontier(t *testing.T) {
	pts := []Point{
		{Workload: "w", Policy: "a", Performance: 1.0, EnergyPerInstruction: 1.0},
		{Workload: "w", Policy: "b", Performance: 0.5, EnergyPerInstruction: 0.5},
		{Workload: "w", Policy: "c", Performance: 0.5, EnergyPerInstruction: 2.0}, // dominated by a
		{Workload: "w", Policy: "d", Performance: 0.4, EnergyPerInstruction: 0.6}, // dominated by b
		// Same coordinates as a dominated point, but another workload:
		// never compared, stays on its own frontier.
		{Workload: "x", Policy: "c", Performance: 0.5, EnergyPerInstruction: 2.0},
	}
	MarkFrontier(pts)
	want := []bool{true, true, false, false, true}
	for i, p := range pts {
		if p.Pareto != want[i] {
			t.Errorf("point %d (%s/%s): pareto = %v, want %v", i, p.Workload, p.Policy, p.Pareto, want[i])
		}
	}
	fr := Frontier(pts)
	if len(fr) != 3 {
		t.Fatalf("Frontier returned %d points, want 3", len(fr))
	}
}

// TestMarkFrontierProperties holds MarkFrontier to the properties that
// define a per-workload Pareto frontier, on random point sets: no marked
// point dominates another of its workload, every unmarked point is
// dominated by a marked one of its workload, equal points share a
// marking, and the marking does not depend on the input order.
func TestMarkFrontierProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	workloads := []string{"a", "b", "c"}
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(60)
		points := make([]Point, n)
		for i := range points {
			// A coarse value grid makes exact duplicates and single-axis
			// ties common — the cases where frontier semantics are subtle.
			points[i] = Point{
				Workload:             workloads[rng.Intn(len(workloads))],
				Performance:          float64(rng.Intn(8)) / 4,
				EnergyPerInstruction: float64(rng.Intn(8)) / 4,
			}
			if trial%3 == 0 { // continuous trials too
				points[i].Performance = rng.Float64()
				points[i].EnergyPerInstruction = rng.Float64()
			}
		}
		MarkFrontier(points)
		for i, p := range points {
			covered := false
			for j, q := range points {
				if q.Workload != p.Workload {
					continue
				}
				if p.Pareto && q.Pareto && dominates(p, q) {
					t.Fatalf("trial %d: marked point %d %+v dominates marked point %d %+v", trial, i, p, j, q)
				}
				if q.Performance == p.Performance && q.EnergyPerInstruction == p.EnergyPerInstruction && q.Pareto != p.Pareto {
					t.Fatalf("trial %d: equal points %d and %d marked %v and %v", trial, i, j, p.Pareto, q.Pareto)
				}
				covered = covered || q.Pareto && dominates(q, p)
			}
			if !p.Pareto && !covered {
				t.Fatalf("trial %d: unmarked point %d %+v is dominated by no marked point", trial, i, p)
			}
		}

		// Shuffle with a stream of its own (the point sets stay those of
		// the seed above) and invert every flag, so the marking must be
		// recomputed rather than carried over.
		perm := rand.New(rand.NewSource(int64(trial))).Perm(n)
		shuffled := make([]Point, n)
		for k, i := range perm {
			shuffled[k] = points[i]
			shuffled[k].Pareto = !points[i].Pareto
		}
		MarkFrontier(shuffled)
		for k, i := range perm {
			if shuffled[k].Pareto != points[i].Pareto {
				t.Fatalf("trial %d: point %d marked %v in input order, %v shuffled", trial, i, points[i].Pareto, shuffled[k].Pareto)
			}
		}
	}
}

func TestDominatesTiesAreNotDomination(t *testing.T) {
	a := Point{Performance: 1, EnergyPerInstruction: 1}
	if dominates(a, a) {
		t.Fatal("a point dominates itself")
	}
	b := Point{Performance: 1, EnergyPerInstruction: 0.9}
	if !dominates(b, a) || dominates(a, b) {
		t.Fatal("strict improvement on one axis with a tie on the other must dominate")
	}
}

func TestExploreDeterministicAcrossWorkers(t *testing.T) {
	spec := ExploreSpec{
		Workloads: []string{"compute-memory-swing"},
		Schemes:   []sim.Scheme{sim.BlockDisable},
		Policies:  []PolicyKind{PolicyStaticHigh, PolicyStaticLow, PolicyOracle},
		Scale:     12_000,
	}
	serial := spec
	serial.Workers = 1
	parallel := spec
	parallel.Workers = 4
	a, err := Explore(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Explore(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("explore results differ across worker counts")
	}
	if len(a.Points) != 3 {
		t.Fatalf("got %d points, want 3", len(a.Points))
	}
	if len(a.ParetoPoints()) == 0 {
		t.Fatal("no pareto points")
	}
}

func TestExploreRejectsUnknownWorkload(t *testing.T) {
	_, err := Explore(ExploreSpec{Workloads: []string{"nope"}})
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestCanonicalHashSensitivity(t *testing.T) {
	base := ExploreSpec{Workloads: []string{"bursty-server"}, Policies: []PolicyKind{PolicyOracle}}
	h := base.CanonicalHash()
	if h != base.CanonicalHash() {
		t.Fatal("hash is not stable")
	}
	for name, mut := range map[string]func(*ExploreSpec){
		"seed":     func(s *ExploreSpec) { s.Seed = 2 },
		"pfail":    func(s *ExploreSpec) { s.Pfail = 0.002 },
		"workload": func(s *ExploreSpec) { s.Workloads = []string{"steady-compute"} },
		"policy":   func(s *ExploreSpec) { s.Policies = []PolicyKind{PolicyReactive} },
		"scheme":   func(s *ExploreSpec) { s.Schemes = []sim.Scheme{sim.WordDisable} },
		"scale":    func(s *ExploreSpec) { s.Scale = 5000 },
		"victim":   func(s *ExploreSpec) { s.Victim = sim.Victim10T },
		"penalty":  func(s *ExploreSpec) { s.SwitchPenalty = 9000 },
		"interval": func(s *ExploreSpec) { s.Interval = 500 },
		"ipc":      func(s *ExploreSpec) { s.IPCThreshold = 0.3 },
	} {
		s := base
		mut(&s)
		if s.CanonicalHash() == h {
			t.Errorf("changing %s did not change the canonical hash", name)
		}
	}
	// Workers is scheduling-only and must not affect the hash.
	s := base
	s.Workers = 7
	if s.CanonicalHash() != h {
		t.Error("changing workers changed the canonical hash")
	}

	// Spelling out the default switch economics must hash identically to
	// omitting them — both forms run the same simulation.
	explicit := base
	explicit.SwitchPenalty = DefaultSwitchPenalty
	explicit.Interval = DefaultInterval
	explicit.IPCThreshold = DefaultIPCThreshold
	if explicit.CanonicalHash() != h {
		t.Error("explicit default switch economics changed the canonical hash")
	}
}
