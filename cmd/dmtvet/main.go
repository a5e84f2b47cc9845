// Command dmtvet runs the repo's custom static-analysis suite
// (internal/lint) over the module: the determinism and safety contracts
// from ROADMAP.md's "Standing contracts" section as compile-time checks.
//
// Usage:
//
//	go run ./cmd/dmtvet [flags] [packages]
//
//	-run detrand,maprange   run a subset of analyzers (default: all)
//	-list                   list analyzers and exit
//	-json                   emit diagnostics as a JSON array (waived ones
//	                        included, marked) instead of text
//	-github                 also emit GitHub Actions ::error annotations
//
// Packages default to ./... resolved against the enclosing module root,
// so the command behaves identically from any directory in the repo — and
// identically in CI, where it is a required step next to go vet. dmtvet
// exits 1 on any unwaived diagnostic, 2 on usage or load errors.
//
// Suppress a finding surgically with a comment on (or directly above) the
// offending line:
//
//	//dmtvet:allow <analyzer> <reason>
//
// The reason is mandatory; malformed waivers are themselves diagnostics,
// and so are waivers that no longer suppress anything (waiverstale).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
)

func main() {
	var (
		runList  = flag.String("run", "", "comma-separated analyzer names to run (default: all)")
		listOnly = flag.Bool("list", false, "list analyzers and exit")
		jsonOut  = flag.Bool("json", false, "emit diagnostics as JSON")
		github   = flag.Bool("github", false, "emit GitHub Actions ::error annotations")
	)
	flag.Parse()

	all := lint.Analyzers()
	if *listOnly {
		for _, a := range all {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := all
	if *runList != "" {
		byName := make(map[string]*analysis.Analyzer, len(all))
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*runList, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "dmtvet: unknown analyzer %q (see -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

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

	diags, err := analysis.RunModule(root, patterns, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmtvet:", err)
		os.Exit(2)
	}

	failing := 0
	for _, d := range diags {
		if !d.Waived {
			failing++
		}
	}

	switch {
	case *jsonOut:
		type jsonDiag struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
			Waived   bool   `json:"waived"`
		}
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				File: analysis.RelPath(root, d.File), Line: d.Line, Col: d.Col,
				Analyzer: d.Analyzer, Message: d.Message, Waived: d.Waived,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "dmtvet:", err)
			os.Exit(2)
		}
	default:
		for _, d := range diags {
			if d.Waived {
				continue
			}
			fmt.Printf("%s:%d:%d: %s: %s\n", analysis.RelPath(root, d.File), d.Line, d.Col, d.Analyzer, d.Message)
		}
	}
	if *github {
		for _, d := range diags {
			if d.Waived {
				continue
			}
			// GitHub annotation properties use %0A/%0D/%25 escapes.
			msg := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A").Replace(d.Message)
			fmt.Printf("::error file=%s,line=%d,col=%d,title=dmtvet %s::%s\n",
				analysis.RelPath(root, d.File), d.Line, d.Col, d.Analyzer, msg)
		}
	}

	if failing > 0 {
		fmt.Fprintf(os.Stderr, "dmtvet: %d diagnostic(s)\n", failing)
		os.Exit(1)
	}
}
