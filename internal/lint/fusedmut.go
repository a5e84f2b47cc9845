package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// fusedBank names one immutable packed score bank type and the prefix of
// the only functions allowed to write its fields.
type fusedBank struct{ typeName, constructor string }

// fusedBanks lists the immutable banks: the linear score matrix
// (NewFusedLinear, NewFusedLinearLayout) and its kernel sibling
// (NewKernelBank). The rebuild-on-swap contract says every model-bank
// change constructs a fresh one instead of patching the live one. Types
// match by name (rather than pinning repro/internal/svm) so the check
// stays meaningful in analysistest fixtures, which cannot reach svm's
// unexported fields from a fake package path; no other type of either
// name exists in the module.
var fusedBanks = []*fusedBank{
	{"FusedLinear", "NewFusedLinear"},
	{"KernelBank", "NewKernelBank"},
}

// fusedConstructorName reports whether a function of this name is one of
// the bank constructors.
func fusedConstructorName(name string) bool {
	for _, b := range fusedBanks {
		if strings.HasPrefix(name, b.constructor) {
			return true
		}
	}
	return false
}

// FusedMut enforces the FusedLinear/KernelBank immutability contract:
// outside the constructors, any write to a bank field — directly
// (f.rows[i] = w), through a local alias (rows := f.rows; rows[i] = w), or
// through an alias returned by one of its methods (f.Tags()[0] = ...) —
// is reported. A constructed bank is shared read-only across shards,
// generations and in-flight answers; mutating it in place races with
// concurrent scoring and silently breaks the bit-identical-to-Decision
// pinning.
var FusedMut = &analysis.Analyzer{
	Name: "fusedmut",
	Doc: "svm.FusedLinear and svm.KernelBank are immutable after construction: report writes to their " +
		"fields or backing arrays outside their constructors (rebuild on retrain/Refine/Swap instead)",
	Run: runFusedMut,
}

func runFusedMut(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fusedConstructorName(fd.Name.Name) {
				continue
			}
			checkFusedFunc(pass, fd)
		}
	}
	return nil, nil
}

func checkFusedFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	aliases := map[types.Object]*fusedBank{}

	// Taint locals that alias a bank's backing memory: assignments
	// from a field selection (rows := f.rows) or from an alias-returning
	// method call (tags := f.Tags()).
	for range 8 {
		changed := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				if i >= len(as.Rhs) {
					break
				}
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				bank := fusedAliased(info, aliases, as.Rhs[i])
				if bank == nil {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj != nil && aliases[obj] == nil {
					aliases[obj] = bank
					changed = true
				}
			}
			return true
		})
		if !changed {
			break
		}
	}

	report := func(lhs ast.Expr) {
		if how, bank := fusedWriteTarget(info, aliases, lhs); bank != nil {
			pass.Reportf(lhs.Pos(),
				"write to %s %s outside %s violates the rebuild-on-swap immutability contract; "+
					"construct a fresh one instead", bank.typeName, how, bank.constructor)
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				report(lhs)
			}
		case *ast.IncDecStmt:
			report(n.X)
		case *ast.CallExpr:
			// Handing a bank's backing memory to a callee whose summary
			// says it mutates that parameter is a write by proxy
			// (patchRows(f.rows) with func patchRows(rows [][]float64)
			// { rows[0][0] = ... }) — the cross-function hole the old
			// per-function pass could not see. Constructor-prefixed callees
			// are exempt, same as direct writes.
			callee := pass.Prog.FuncOfCall(info, n)
			if callee == nil || fusedConstructorName(callee.Func.Name()) {
				return true
			}
			exprs, idx := pass.Prog.CallArgs(info, n, callee)
			for i, arg := range exprs {
				if idx[i] >= len(callee.Summary.Params) || callee.Summary.Params[idx[i]]&analysis.ParamMutated == 0 {
					continue
				}
				bank := fusedAliased(info, aliases, arg)
				if bank == nil {
					bank = fusedReceiver(info, arg)
				}
				if bank != nil {
					pass.Reportf(arg.Pos(),
						"%s backing memory passed to %s, which mutates its parameter, violates the rebuild-on-swap immutability contract; construct a fresh one instead", bank.typeName, callee.ID)
				}
			}
		}
		return true
	})
}

// fusedWriteTarget classifies an lvalue: is it a bank field or an element
// of a bank's backing array, and of which bank type (nil: neither)?
func fusedWriteTarget(info *types.Info, aliases map[types.Object]*fusedBank, lhs ast.Expr) (string, *fusedBank) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if bank := fusedReceiver(info, l.X); bank != nil {
			return "field " + l.Sel.Name, bank
		}
		// Field of an element of a backing array: f.cells[0].w = ...
		return "backing array element", fusedAliased(info, aliases, l.X)
	case *ast.IndexExpr:
		return "backing array element", fusedAliased(info, aliases, l.X)
	case *ast.StarExpr:
		return "backing memory", fusedAliased(info, aliases, l.X)
	}
	return "", nil
}

// fusedReceiver returns the bank whose type, or pointer to it, expr has;
// nil when it is neither.
func fusedReceiver(info *types.Info, expr ast.Expr) *fusedBank {
	t := info.TypeOf(expr)
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		for _, b := range fusedBanks {
			if n.Obj().Name() == b.typeName {
				return b
			}
		}
	}
	return nil
}

// fusedAliased returns the bank whose backing memory e aliases — a field
// selection on a bank, a method call on one returning a slice, a
// slice/index over such an alias, or a tainted local — or nil.
func fusedAliased(info *types.Info, aliases map[types.Object]*fusedBank, e ast.Expr) *fusedBank {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		return aliases[obj]
	case *ast.SelectorExpr:
		if bank := fusedReceiver(info, e.X); bank != nil {
			return bank
		}
		return fusedAliased(info, aliases, e.X)
	case *ast.IndexExpr:
		return fusedAliased(info, aliases, e.X)
	case *ast.SliceExpr:
		return fusedAliased(info, aliases, e.X)
	case *ast.StarExpr:
		return fusedAliased(info, aliases, e.X)
	case *ast.CallExpr:
		// A method on a bank returning a slice hands out backing
		// memory (Tags); ScoreEntriesInto's result is the caller's own
		// dst (or fresh), never the matrix's. Only slice results of
		// receiver methods with no arguments are treated as aliases.
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok && len(e.Args) == 0 {
			if t := info.TypeOf(e); t != nil {
				if _, isSlice := t.Underlying().(*types.Slice); isSlice {
					return fusedReceiver(info, sel.X)
				}
			}
		}
	}
	return nil
}
