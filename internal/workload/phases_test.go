package workload

import "testing"

func TestBuiltinMultiPhaseWorkloadsAreValid(t *testing.T) {
	ms := MultiPhaseProfiles()
	if len(ms) < 3 {
		t.Fatalf("only %d builtin multi-phase workloads, want at least 3", len(ms))
	}
	seen := map[string]bool{}
	for _, m := range ms {
		if err := m.Check(); err != nil {
			t.Errorf("builtin %s invalid: %v", m.Name, err)
		}
		if seen[m.Name] {
			t.Errorf("duplicate builtin name %s", m.Name)
		}
		seen[m.Name] = true
		if m.TotalInstructions() <= 0 {
			t.Errorf("builtin %s has no instructions", m.Name)
		}
	}
}

func TestMultiPhaseByName(t *testing.T) {
	for _, name := range MultiPhaseNames() {
		m, err := MultiPhaseByName(name)
		if err != nil {
			t.Fatalf("MultiPhaseByName(%q): %v", name, err)
		}
		if m.Name != name {
			t.Fatalf("MultiPhaseByName(%q) returned %q", name, m.Name)
		}
	}
	if _, err := MultiPhaseByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestMultiPhaseCheckErrors(t *testing.T) {
	valid := MultiPhase{Name: "w", Phases: []Phase{{Benchmark: "eon", Instructions: 10}}}
	if err := valid.Check(); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	cases := map[string]MultiPhase{
		"no name":           {Phases: []Phase{{Benchmark: "eon", Instructions: 10}}},
		"no phases":         {Name: "w"},
		"zero instructions": {Name: "w", Phases: []Phase{{Benchmark: "eon"}}},
		"unknown benchmark": {Name: "w", Phases: []Phase{{Benchmark: "nope", Instructions: 10}}},
	}
	for name, m := range cases {
		if err := m.Check(); err == nil {
			t.Errorf("%s: Check accepted an invalid workload", name)
		}
	}
}

func TestMultiPhaseScaled(t *testing.T) {
	m := MultiPhase{Name: "w", Phases: []Phase{
		{Benchmark: "eon", Instructions: 3000},
		{Benchmark: "mcf", Instructions: 1000},
	}}
	s := m.Scaled(2000)
	if s.Phases[0].Instructions != 1500 || s.Phases[1].Instructions != 500 {
		t.Fatalf("scaled phases = %+v, want 1500/500", s.Phases)
	}
	if got := m.Scaled(0); !equalPhases(got.Phases, m.Phases) {
		t.Fatal("Scaled(0) must be a no-op")
	}
	// Tiny targets keep every phase alive.
	tiny := m.Scaled(1)
	for i, ph := range tiny.Phases {
		if ph.Instructions < 1 {
			t.Fatalf("phase %d scaled to %d instructions", i, ph.Instructions)
		}
	}
}

func equalPhases(a, b []Phase) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
