package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/analysistest"
)

// Each analyzer is proven against a seeded fixture: every // want line
// must diagnose, every unannotated line must stay silent, and reasoned
// //dmtvet:allow waivers must suppress. The fixtures type-check against
// real module packages through export data, so the tests exercise the
// same loader path as a production dmtvet run. All of this is cheap
// enough for the -race -short CI tier.

func TestDetRand(t *testing.T) {
	analysistest.Run(t, lint.DetRand, "testdata/src/detrand", "repro/internal/pace/dmtvetfixture")
}

func TestDetRandAllowlistedPackage(t *testing.T) {
	// The same violations are legal in wall-clock-legitimate packages:
	// the fixture has zero want comments, so any diagnostic fails.
	analysistest.Run(t, lint.DetRand, "testdata/src/detrand_allowed", "repro/internal/serving/dmtvetfixture")
}

func TestMapRange(t *testing.T) {
	analysistest.Run(t, lint.MapRange, "testdata/src/maprange", "repro/internal/experiments/dmtvetfixture")
}

func TestScratchEscape(t *testing.T) {
	analysistest.Run(t, lint.ScratchEscape, "testdata/src/scratchescape", "repro/internal/textproc/dmtvetfixture")
}

func TestLockDiscipline(t *testing.T) {
	analysistest.Run(t, lint.LockDiscipline, "testdata/src/lockdiscipline", "repro/internal/serving/dmtvetfixture")
}

func TestGoroLeak(t *testing.T) {
	analysistest.Run(t, lint.GoroLeak, "testdata/src/goroleak", "repro/internal/realnet/dmtvetfixture")
}

func TestWaiverStale(t *testing.T) {
	// The audit only means something in combination with the analyzer
	// whose waivers it judges: detrand supplies a used waiver (silent) and
	// a stale one (reported on the waiver's own line).
	analysistest.RunAnalyzers(t,
		[]*analysis.Analyzer{lint.DetRand, lint.WaiverStale},
		"testdata/src/waiverstale", "repro/internal/pace/dmtvetfixture")
}

// TestSuiteOrder pins the registry: six analyzers, stable names — waiver
// comments depend on them.
func TestSuiteOrder(t *testing.T) {
	want := []string{"detrand", "goroleak", "lockdiscipline", "maprange",
		"scratchescape", "waiverstale"}
	got := lint.Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() returned %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("Analyzers()[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing Doc or Run", a.Name)
		}
	}
}
