// Package lint implements dmtvet, the repo's custom static-analysis
// suite. Each analyzer turns one of ROADMAP.md's "Standing contracts" —
// until now enforced only by digest tests and runtime panics — into a
// compile-time diagnostic:
//
//	detrand         byte-determinism: no wall clock or underived
//	                randomness in the deterministic packages
//	maprange        byte-determinism: no order-dependent reductions over
//	                map iteration
//	scratchescape   fast-path rules: pooled scratch must not escape the
//	                borrowing call
//	enginerules     PDES engine rules: no engine mutation from node event
//	                handlers
//	fusedmut        fast-path rules: svm.FusedLinear and svm.KernelBank
//	                are immutable after construction
//	lockdiscipline  concurrency rules: no blocking op while a mutex is
//	                held, no lock-order inversions, no lock-value copies
//	goroleak        drain contracts: every spawned goroutine has a join
//	                or cancel path
//	waiverstale     waiver hygiene: a //dmtvet:allow that suppresses
//	                nothing is itself a diagnostic
//
// The analyzers are built on internal/lint/analysis (an offline,
// API-compatible stand-in for golang.org/x/tools/go/analysis, grown in
// this PR into an interprocedural engine: intra-module call graph plus
// deterministic per-function summaries — see analysis.Program/Summary).
// detrand, scratchescape, fusedmut, lockdiscipline and goroleak consume
// summaries, so their facts propagate across call boundaries. The suite
// runs via `go run ./cmd/dmtvet ./...`, which is a required CI step.
// Violations can be surgically suppressed with a
//
//	//dmtvet:allow <analyzer> <reason>
//
// comment on (or directly above) the offending line; the reason is
// mandatory and audited by the runner.
package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzers returns the full dmtvet suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		DetRand,
		EngineRules,
		FusedMut,
		GoroLeak,
		LockDiscipline,
		MapRange,
		ScratchEscape,
		WaiverStale,
	}
}

// init registers every suite name as a legal waiver target, so subset
// runs (`dmtvet -run detrand`) do not misreport other analyzers' waivers
// as malformed.
func init() {
	for _, a := range Analyzers() {
		analysis.RegisterWaiverNames(a.Name)
	}
}

// importedPackage resolves the package an identifier refers to when it
// names an import (e.g. the `rand` in rand.Intn), or nil.
func importedPackage(info *types.Info, x ast.Expr) *types.Package {
	id, ok := x.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return nil
	}
	return pn.Imported()
}

// calleeName returns the bare name of a call's callee: the function name
// of pkg.F(...) or x.M(...) or F(...), else "".
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// receiverNamed reports whether expr's type is the named type pkgPath.name
// (through one pointer indirection).
func receiverNamed(info *types.Info, expr ast.Expr, pkgPath, name string) bool {
	t := info.TypeOf(expr)
	return t != nil && namedIs(t, pkgPath, name)
}

// namedIs reports whether typ is the named type pkgPath.name, through one
// pointer indirection.
func namedIs(typ types.Type, pkgPath, name string) bool {
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	n, ok := typ.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// underPath reports whether pkg is path itself or nested below it.
func underPath(pkg, path string) bool {
	return pkg == path || strings.HasPrefix(pkg, path+"/")
}
