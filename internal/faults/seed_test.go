package faults

import "testing"

func TestDeriveSeedDeterministic(t *testing.T) {
	a := DeriveSeed(1, "pfail=0.001", "trial=3")
	b := DeriveSeed(1, "pfail=0.001", "trial=3")
	if a != b {
		t.Fatalf("DeriveSeed not deterministic: %d vs %d", a, b)
	}
}

func TestDeriveSeedSeparatesLabels(t *testing.T) {
	if DeriveSeed(1, "ab", "c") == DeriveSeed(1, "a", "bc") {
		t.Error("label boundaries not separated")
	}
	if DeriveSeed(1, "x") == DeriveSeed(2, "x") {
		t.Error("base seed ignored")
	}
	if DeriveSeed(1, "x") == DeriveSeed(1, "y") {
		t.Error("labels ignored")
	}
}

func TestDeriveSeedSpreads(t *testing.T) {
	// Children of consecutive bases and trial indices must not collide in
	// a small sample (they feed rand.NewSource directly).
	seen := map[int64]bool{}
	for base := int64(0); base < 32; base++ {
		for trial := 0; trial < 32; trial++ {
			s := DeriveSeed(base, "trial", string(rune('a'+trial)))
			if seen[s] {
				t.Fatalf("collision at base=%d trial=%d", base, trial)
			}
			seen[s] = true
		}
	}
}
