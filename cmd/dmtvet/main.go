// Command dmtvet runs the repo's custom static-analysis suite
// (internal/lint) over the module: the determinism and safety contracts
// from ROADMAP.md's "Standing contracts" section as compile-time checks.
//
// Usage:
//
//	go run ./cmd/dmtvet [packages]
//
// Every run applies the whole suite. Packages default to ./... resolved
// against the enclosing module root, so the command behaves identically
// from any directory in the repo — and identically in CI, where `make
// lint` is a required step next to go vet. Unwaived diagnostics print as
// file:line:col lines; under GitHub Actions (GITHUB_ACTIONS=true) each is
// also emitted as an ::error annotation. dmtvet exits 1 on any unwaived
// diagnostic, 2 on usage or load errors.
//
// Suppress a finding surgically with a comment on (or directly above) the
// offending line:
//
//	//dmtvet:allow <analyzer> <reason>
//
// The reason is mandatory; malformed waivers (no reason, or an analyzer
// the suite does not have) are themselves diagnostics, and so are waivers
// that no longer suppress anything (waiverstale).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
)

func main() {
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmtvet:", err)
		os.Exit(2)
	}
	root, err := analysis.ModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmtvet:", err)
		os.Exit(2)
	}

	diags, err := analysis.RunModule(root, patterns, lint.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmtvet:", err)
		os.Exit(2)
	}

	github := os.Getenv("GITHUB_ACTIONS") == "true"
	failing := 0
	for _, d := range diags {
		if d.Waived {
			continue
		}
		failing++
		file := analysis.RelPath(root, d.File)
		fmt.Printf("%s:%d:%d: %s: %s\n", file, d.Line, d.Col, d.Analyzer, d.Message)
		if github {
			// GitHub annotation properties use %0A/%0D/%25 escapes.
			msg := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A").Replace(d.Message)
			fmt.Printf("::error file=%s,line=%d,col=%d,title=dmtvet %s::%s\n", file, d.Line, d.Col, d.Analyzer, msg)
		}
	}

	if failing > 0 {
		fmt.Fprintf(os.Stderr, "dmtvet: %d diagnostic(s)\n", failing)
		os.Exit(1)
	}
}
