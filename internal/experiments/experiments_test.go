package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// All experiment functions run at QuickScale in tests; the committed
// EXPERIMENTS.md numbers come from DefaultScale (see cmd/experiments).

func TestE1Shape(t *testing.T) {
	tbl, err := E1AccuracyVsPeers(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "E1", tbl)
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Shape assertion: centralized beats local-only at the largest N.
	var central, local float64
	for _, row := range tbl.Rows {
		switch row[1] {
		case "Centralized":
			central = parseF(t, row[2])
		case "Local-only":
			local = parseF(t, row[2])
		}
	}
	if central <= local {
		t.Errorf("centralized (%v) should beat local (%v)", central, local)
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	var f float64
	if _, err := fmtSscan(s, &f); err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return f
}

func TestE2Shape(t *testing.T) {
	tbl, err := E2CommunicationCost(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "E2", tbl)
	// PACE rows must report zero query bytes.
	for _, row := range tbl.Rows {
		if row[1] == "PACE" && row[6] != "0B" {
			t.Errorf("PACE query bytes = %v, want 0B", row[6])
		}
	}
}

func TestE3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full training-fraction sweep; run without -short")
	}
	tbl, err := E3TrainingFraction(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "E3", tbl)
	// CEMPaR accuracy at 40% labels should beat its accuracy at 5%.
	var low, high float64
	for _, row := range tbl.Rows {
		if row[1] != "CEMPaR" {
			continue
		}
		switch row[0] {
		case "0.0500":
			low = parseF(t, row[2])
		case "0.4000":
			high = parseF(t, row[2])
		}
	}
	if high <= low {
		t.Errorf("more labels should help: 5%%=%v 40%%=%v", low, high)
	}
}

func TestE4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full churn sweep; run without -short")
	}
	tbl, err := E4Churn(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "E4", tbl)
	// PACE must fail no issued queries at any churn level.
	for _, row := range tbl.Rows {
		if row[1] == "PACE" && row[3] != "0" {
			t.Errorf("PACE failed queries = %v at churn %v", row[3], row[0])
		}
	}
}

func TestE5Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("full size-skew sweep; run without -short")
	}
	tbl, err := E5SizeSkew(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "E5", tbl)
	if len(tbl.Rows) != 8 {
		t.Errorf("rows = %d", len(tbl.Rows))
	}
}

func TestE6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full class-skew sweep; run without -short")
	}
	tbl, err := E6ClassSkew(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "E6", tbl)
	// Local-only improves (or holds) as users specialize.
	var diffuse, focused float64
	for _, row := range tbl.Rows {
		if row[1] != "Local-only" {
			continue
		}
		switch row[0] {
		case "10.0000":
			diffuse = parseF(t, row[2])
		case "0.3000":
			focused = parseF(t, row[2])
		}
	}
	if focused < diffuse-0.1 {
		t.Errorf("specialized users should not hurt local-only: diffuse=%v focused=%v", diffuse, focused)
	}
}

func TestE7Shape(t *testing.T) {
	tbl, err := E7Topology(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "E7", tbl)
	// Flood coverage must be complete; gossip cheaper than flood.
	var floodMsgs, gossipMsgs float64
	for _, row := range tbl.Rows {
		if row[2] == "flood" {
			floodMsgs = parseF(t, row[3])
			if !strings.HasPrefix(row[4], row[0]+"/") {
				t.Errorf("flood coverage incomplete: %v", row)
			}
		}
		if row[2] == "gossip" {
			gossipMsgs = parseF(t, row[3])
		}
	}
	if gossipMsgs >= floodMsgs {
		t.Errorf("gossip (%v) should cost less than flood (%v)", gossipMsgs, floodMsgs)
	}
}

func TestE8Runs(t *testing.T) {
	tbl, err := E8PaceTopK(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "E8", tbl)
	if len(tbl.Rows) != 10 {
		t.Errorf("rows = %d", len(tbl.Rows))
	}
}

func TestE9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full threshold sweep; run without -short")
	}
	tbl, err := E9ConfidenceSlider(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "E9", tbl)
	// Precision must not decrease as the threshold rises; recall must not
	// increase. Allow small non-monotonic noise.
	var prevP, prevR float64 = -1, 2
	for _, row := range tbl.Rows {
		p, r := parseF(t, row[3]), parseF(t, row[4])
		if p < prevP-0.1 {
			t.Errorf("precision dropped sharply at threshold %v", row[0])
		}
		if r > prevR+0.1 {
			t.Errorf("recall rose sharply at threshold %v", row[0])
		}
		prevP, prevR = p, r
	}
}

func TestE10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full refinement sweep; run without -short")
	}
	tbl, err := E10Refinement(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "E10", tbl)
	first := parseF(t, tbl.Rows[0][2])
	last := parseF(t, tbl.Rows[len(tbl.Rows)-1][2])
	if last < first {
		t.Errorf("refinement should not hurt: rounds0=%v rounds4=%v", first, last)
	}
}

func TestF4Runs(t *testing.T) {
	tbl, rendering, err := F4TagCloud(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "F4", tbl)
	if len(tbl.Rows) != 5 {
		t.Errorf("rows = %d", len(tbl.Rows))
	}
	if !strings.Contains(rendering, "tag cloud") {
		t.Error("cloud rendering missing")
	}
}

// fmtSscan avoids importing fmt at top level solely for tests.
func fmtSscan(s string, f *float64) (int, error) { return fmt.Sscan(s, f) }
