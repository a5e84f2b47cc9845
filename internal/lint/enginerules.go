package lint

import (
	"go/ast"
	"go/token"

	"repro/internal/lint/analysis"
)

// simnetPath is the import path of the simulator engine package.
const simnetPath = "repro/internal/simnet"

// engineMutators are the (*simnet.Network) methods that mutate cross-node
// engine state and are therefore only legal at serial points (between Run
// calls or inside system events scheduled via ScheduleSystem). Calling
// them from a node event handler panics at runtime today; EngineRules
// turns that into a compile-time diagnostic.
var engineMutators = map[string]string{
	"AddNode":        "registers a node",
	"RemoveNode":     "deletes a node",
	"Kill":           "kills a node",
	"Revive":         "revives a node",
	"ScheduleSystem": "schedules a system event",
}

// EngineRules enforces the simulator engine discipline: inside simnet protocol
// handlers — HandleMessage bodies, function literals passed to
// (*Network).Schedule (node timers), and simnet.HandlerFunc literals — it
// reports calls to engine-mutation APIs (AddNode, RemoveNode, Kill,
// Revive, ScheduleSystem) and to (*Network).Rand, the setup random stream
// handlers must not draw from (use NodeRand(self), whose draws depend only
// on the node's own event history, so one node's traffic cannot shift
// another node's randomness).
var EngineRules = &analysis.Analyzer{
	Name: "enginerules",
	Doc: "no engine mutation from simnet node event handlers: AddNode/RemoveNode/Kill/Revive/" +
		"ScheduleSystem (and the setup stream Rand) are serial-point APIs; handlers that call " +
		"them panic at runtime — this reports them at vet time",
	Run: runEngineRules,
}

func runEngineRules(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		// Handler contexts are collected first, then scanned: a context is
		// any body that the engine executes as a node event.
		var contexts []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil && isHandleMessageDecl(pass, n) {
					contexts = append(contexts, n.Body)
				}
			case *ast.CallExpr:
				// (*Network).Schedule(owner, delay, fn): fn runs as a node
				// timer event.
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok &&
					sel.Sel.Name == "Schedule" &&
					receiverNamed(pass.TypesInfo, sel.X, simnetPath, "Network") &&
					len(n.Args) == 3 {
					if lit, ok := ast.Unparen(n.Args[2]).(*ast.FuncLit); ok {
						contexts = append(contexts, lit.Body)
					}
				}
				// simnet.HandlerFunc(func(...){...}) conversions.
				if isHandlerFuncConversion(pass, n) {
					if lit, ok := ast.Unparen(n.Args[0]).(*ast.FuncLit); ok {
						contexts = append(contexts, lit.Body)
					}
				}
			}
			return true
		})
		// Contexts can nest (a Schedule literal inside HandleMessage);
		// dedupe by call position so each violation reports once.
		seen := map[token.Pos]bool{}
		for _, body := range contexts {
			checkHandlerBody(pass, body, seen)
		}
	}
	return nil, nil
}

// isHandleMessageDecl matches methods implementing simnet.Handler:
// HandleMessage(net *simnet.Network, msg simnet.Message).
func isHandleMessageDecl(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Name.Name != "HandleMessage" || fd.Type.Params == nil || len(fd.Type.Params.List) == 0 {
		return false
	}
	// Structural check on the declared parameter types: the first
	// parameter is *simnet.Network.
	first := fd.Type.Params.List[0]
	return receiverTypeExprNamed(pass, first.Type, "Network")
}

// receiverTypeExprNamed reports whether the type expression denotes
// (*)simnet.Network by resolving it through go/types.
func receiverTypeExprNamed(pass *analysis.Pass, t ast.Expr, name string) bool {
	tv, ok := pass.TypesInfo.Types[t]
	if !ok {
		return false
	}
	typ := tv.Type
	if typ == nil {
		return false
	}
	return namedIs(typ, simnetPath, name)
}

// isHandlerFuncConversion matches simnet.HandlerFunc(expr).
func isHandlerFuncConversion(pass *analysis.Pass, call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return false
	}
	return namedIs(tv.Type, simnetPath, "HandlerFunc")
}

// checkHandlerBody reports serial-point API calls anywhere inside a
// handler context, including nested function literals (they execute as
// part of the same node event unless re-scheduled, and a re-schedule from
// a handler can only target the handler's own node).
func checkHandlerBody(pass *analysis.Pass, body ast.Node, seen map[token.Pos]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || seen[call.Pos()] {
			return true
		}
		seen[call.Pos()] = true
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !receiverNamed(pass.TypesInfo, sel.X, simnetPath, "Network") {
			return true
		}
		name := sel.Sel.Name
		if what, bad := engineMutators[name]; bad {
			pass.Reportf(call.Pos(),
				"(*simnet.Network).%s %s and is only legal at serial points; "+
					"calling it from a node event handler panics at runtime", name, what)
		}
		if name == "Rand" {
			pass.Reportf(call.Pos(),
				"(*simnet.Network).Rand is the serial-point setup stream; handlers must draw "+
					"from NodeRand(self) so a node's randomness depends only on its own events")
		}
		return true
	})
}
