// Package analysis is a minimal, dependency-free stand-in for
// golang.org/x/tools/go/analysis: it defines the Analyzer/Pass/Diagnostic
// vocabulary the dmtvet suite is written against, loads type-checked
// packages through the go command's export data (no network, no module
// downloads), and runs analyzers with support for //dmtvet:allow waiver
// comments.
//
// The API deliberately mirrors the x/tools package shape — an Analyzer has
// a Name, a Doc and a Run(*Pass) func; a Pass carries Fset/Files/Pkg/
// TypesInfo and reports Diagnostics — so the analyzers in internal/lint
// can migrate to the real framework by swapping one import if the
// dependency ever lands in the module. Until then this keeps the
// determinism contracts enforceable in a hermetic build: the loader shells
// out only to the local go tool (`go list -export -deps -json`), reads the
// export data it names from the build cache, and type-checks our sources
// against it with go/types.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check. Run is invoked once per loaded
// package and reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //dmtvet:allow waiver comments. It must be a single word.
	Name string

	// Doc is the one-paragraph description of the rule it enforces.
	Doc string

	// Run applies the analyzer to one package. The returned value is
	// unused today (the x/tools API reserves it for inter-analyzer
	// facts) and may be nil.
	Run func(*Pass) (any, error)

	// AuditWaivers marks the analyzer whose diagnostics the runner
	// produces itself: when it is in the run set, every waiver that
	// suppressed nothing in the same run is reported under this
	// analyzer's name, so dead waivers cannot rot in place.
	AuditWaivers bool
}

// Pass is the interface between one analyzer and one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Prog is the whole-program view: call graph and per-function
	// summaries over every package in the run, so analyzers can follow
	// facts across call boundaries. Always non-nil under RunPackage.
	Prog *Program

	// Report delivers one diagnostic. The runner installs a hook that
	// applies waiver comments before recording it.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}
