package trace

import "testing"

func TestClassPredicates(t *testing.T) {
	if !Load.IsMem() || !Store.IsMem() {
		t.Error("loads and stores are memory ops")
	}
	if IntALU.IsMem() || Branch.IsMem() {
		t.Error("ALU/branch are not memory ops")
	}
	if !FPALU.IsFP() || !FPMult.IsFP() {
		t.Error("FP classes must report IsFP")
	}
	if IntALU.IsFP() || Load.IsFP() {
		t.Error("non-FP classes must not report IsFP")
	}
}

func TestClassString(t *testing.T) {
	names := map[Class]string{
		IntALU: "intalu", IntMult: "intmult", FPALU: "fpalu",
		FPMult: "fpmult", Load: "load", Store: "store", Branch: "branch",
	}
	for c, want := range names {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", c, got, want)
		}
	}
	if Class(99).String() != "Class(99)" {
		t.Error("unknown class string wrong")
	}
	if NumClasses != 7 {
		t.Errorf("NumClasses = %d, want 7", NumClasses)
	}
}
