package experiments

import (
	"strings"
	"testing"
)

// QuickScale smoke tests for the ablation sweeps (A1-A4), which shipped
// without direct coverage. The heavier ones skip under -short.

func TestA1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full CEMPaR ablation sweep; run without -short")
	}
	tbl, err := A1CEMPaRAblations(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "A1", tbl)
	if len(tbl.Rows) != 7 {
		t.Fatalf("rows = %d, want one per variant", len(tbl.Rows))
	}
	// The base variant leads the table; every variant must have scored
	// documents (a 0 F1 across the board means the sweep silently broke).
	if !strings.HasPrefix(tbl.Rows[0][0], "base") {
		t.Errorf("first variant = %q", tbl.Rows[0][0])
	}
	anyPositive := false
	for _, row := range tbl.Rows {
		if parseF(t, row[1]) > 0 {
			anyPositive = true
		}
	}
	if !anyPositive {
		t.Error("every ablation variant scored 0 F1")
	}
}

func TestA2Shape(t *testing.T) {
	tbl, err := A2Weighting(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "A2", tbl)
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want one per weighting scheme", len(tbl.Rows))
	}
	for i, want := range []string{"tf", "logtf", "tfidf"} {
		if tbl.Rows[i][0] != want {
			t.Errorf("row %d scheme = %q, want %q", i, tbl.Rows[i][0], want)
		}
		if f := parseF(t, tbl.Rows[i][1]); f <= 0.2 || f > 1 {
			t.Errorf("%s: implausible F1 %v", want, f)
		}
	}
}

func TestA3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full drop-rate sweep; run without -short")
	}
	tbl, err := A3DropRate(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "A3", tbl)
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Without loss, no issued query may fail.
	for _, row := range tbl.Rows {
		if row[0] == "0.0000" && row[3] != "0" {
			t.Errorf("%s failed %s queries at zero drop rate", row[1], row[3])
		}
	}
}

func TestA4Shape(t *testing.T) {
	tbl, err := A4Privacy(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "A4", tbl)
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// The privacy-utility trade-off: heavy noise must not beat the
	// noise-free model by more than test noise.
	clean, noisy := parseF(t, tbl.Rows[0][1]), parseF(t, tbl.Rows[len(tbl.Rows)-1][1])
	if noisy > clean+0.1 {
		t.Errorf("heavy noise (%v) should not beat noise-free (%v)", noisy, clean)
	}
}
