package experiments

import (
	"testing"

	"repro/internal/p2pdmt"
)

// TestParallelTablesByteIdentical is the determinism contract of the
// parallel experiment runner: for the same scale and seed, a sweep fanned
// out over many workers must render the exact bytes of a fully serial
// sweep — same rows, same order, same float formatting.
func TestParallelTablesByteIdentical(t *testing.T) {
	cases := []struct {
		name string
		run  func(Scale) (*p2pdmt.Table, error)
	}{
		{"E1", E1AccuracyVsPeers},
		{"E4", E4Churn},
	}
	// The byte-identity contract doesn't need the full QuickScale sweep;
	// under -short a reduced scale keeps the tier inside its time budget
	// while exercising the same code paths.
	baseScale := QuickScale()
	if testing.Short() {
		baseScale = Scale{MaxPeers: 8, EvalDocs: 12}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			serialScale := baseScale
			serialScale.Parallel = 1
			serial, err := c.run(serialScale)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			parallelScale := baseScale
			parallelScale.Parallel = 8
			parallel, err := c.run(parallelScale)
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			if serial.String() != parallel.String() {
				t.Errorf("rendered tables differ:\n--- serial ---\n%s--- parallel ---\n%s",
					serial, parallel)
			}
			if serial.CSV() != parallel.CSV() {
				t.Error("CSV renderings differ")
			}
		})
	}
}

// TestScaleSeedDerivesIndependentCells pins the runner's seed-derivation
// scheme: a custom Scale.Seed reproduces exactly on re-run, and changes
// the sweep relative to both the committed default and other seeds.
func TestScaleSeedDerivesIndependentCells(t *testing.T) {
	tiny := func(seed int64) Scale {
		return Scale{MaxPeers: 8, EvalDocs: 10, Seed: seed}
	}
	def, err := E1AccuracyVsPeers(tiny(0))
	if err != nil {
		t.Fatal(err)
	}
	a1, err := E1AccuracyVsPeers(tiny(99))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := E1AccuracyVsPeers(tiny(99))
	if err != nil {
		t.Fatal(err)
	}
	b, err := E1AccuracyVsPeers(tiny(100))
	if err != nil {
		t.Fatal(err)
	}
	if a1.String() != a2.String() {
		t.Error("same Scale.Seed must reproduce the same table")
	}
	if a1.String() == def.String() {
		t.Error("custom Scale.Seed should re-seed the sweep away from the default")
	}
	if a1.String() == b.String() {
		t.Error("different Scale.Seeds should produce different sweeps")
	}
}
