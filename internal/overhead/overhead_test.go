package overhead

import "testing"

// TestTableITotals pins every Total in Table I of the paper.
func TestTableITotals(t *testing.T) {
	want := map[Scheme]int{
		Baseline:          76800,
		BaselineVC:        126138,
		WordDisable:       209920,
		BlockDisable:      81920,
		BlockDisableVC10T: 164150,
		BlockDisableVC6T:  131418,
	}
	for _, row := range TableI() {
		if got := row.Total; got != want[row.Scheme] {
			t.Errorf("%s: total = %d transistors, want %d", row.Scheme, got, want[row.Scheme])
		}
	}
}

func TestTableIStructure(t *testing.T) {
	rows := TableI()
	if len(rows) != 6 {
		t.Fatalf("TableI has %d rows, want 6", len(rows))
	}
	for _, row := range rows {
		if row.Total != row.TagTransistors+row.DisableTransistors+row.VictimTransistors {
			t.Errorf("%s: total %d != sum of parts", row.Scheme, row.Total)
		}
		if row.AlignmentNetwork != (row.Scheme == WordDisable) {
			t.Errorf("%s: alignment network flag wrong", row.Scheme)
		}
	}
}

func TestBlockDisableCheapestLowVoltageScheme(t *testing.T) {
	// "It is evident that in all cases block-disabling has lower overhead."
	bd := RowFor(BlockDisable).Total
	wd := RowFor(WordDisable).Total
	if bd >= wd {
		t.Errorf("block disable (%d) should cost less than word disable (%d)", bd, wd)
	}
	bdVC := RowFor(BlockDisableVC10T).Total
	if bdVC >= wd {
		t.Errorf("block disable + 10T V$ (%d) should still cost less than word disable (%d)", bdVC, wd)
	}
}

func TestSchemeString(t *testing.T) {
	if Baseline.String() != "Baseline" {
		t.Errorf("Baseline.String() = %q", Baseline.String())
	}
	if Scheme(99).String() != "Scheme(99)" {
		t.Errorf("unknown scheme String() = %q", Scheme(99).String())
	}
	if len(Schemes()) != 6 {
		t.Errorf("Schemes() returned %d entries, want 6", len(Schemes()))
	}
}
