package analysis

import (
	"go/ast"
	"go/token"
	"testing"
)

// graphSource exercises the call graph and every summary fact through at
// least one call boundary, including a mutually recursive pair — the case
// a single bottom-up pass cannot summarize without a fixpoint.
const graphSource = `package graph

import (
	"math/rand"
	"sync"
	"time"
)

type box struct {
	mu sync.Mutex
}

func readClock() time.Time { return time.Now() }

func viaClock() time.Time { return readClock() }

func drawGlobal() int { return rand.Intn(4) }

func viaRand() int { return drawGlobal() }

func sleepy() { time.Sleep(time.Millisecond) }

func viaSleep() { sleepy() }

// pingPong and pongPing only read the clock through each other: the
// fixpoint must converge with both marked, in either visit order.
func pingPong(n int) {
	if n > 0 {
		pongPing(n - 1)
	}
}

func pongPing(n int) {
	time.Now()
	pingPong(n)
}

func flows(b []byte) []byte { return b }

var sink []byte

func escapes(b []byte) { sink = b }

func locksBox(b *box) {
	b.mu.Lock()
	b.mu.Unlock()
}

func joins(ch chan int) {
	for range ch {
	}
}

func spawnsOnly() {
	go func() { time.Now() }()
}
`

func checkGraph(t *testing.T) (*token.FileSet, *Program) {
	t.Helper()
	fset, pkg := checkSource(t, graphSource)
	return fset, NewProgram(fset, []*Package{pkg})
}

func graphFunc(t *testing.T, p *Program, name string) *FuncInfo {
	t.Helper()
	fi := p.FuncByID("fixture/waiver." + name)
	if fi == nil {
		t.Fatalf("function %s not in program", name)
	}
	return fi
}

func TestCallGraphConstruction(t *testing.T) {
	_, prog := checkGraph(t)
	via := graphFunc(t, prog, "viaClock")
	if len(via.Callees) != 1 || via.Callees[0].ID != "fixture/waiver.readClock" {
		t.Errorf("viaClock callees = %v, want [fixture/waiver.readClock]", ids(via.Callees))
	}
	ping := graphFunc(t, prog, "pingPong")
	pong := graphFunc(t, prog, "pongPing")
	if len(ping.Callees) != 1 || ping.Callees[0] != pong {
		t.Errorf("pingPong callees = %v, want [pongPing]", ids(ping.Callees))
	}
	if len(pong.Callees) != 1 || pong.Callees[0] != ping {
		t.Errorf("pongPing callees = %v, want [pingPong]", ids(pong.Callees))
	}
	// Deterministic traversal order: funcs are sorted, and every function
	// in the source shows up exactly once.
	seen := map[string]bool{}
	for _, fi := range prog.Funcs() {
		if seen[fi.ID] {
			t.Errorf("duplicate function %s in Funcs()", fi.ID)
		}
		seen[fi.ID] = true
	}
	if !seen["fixture/waiver.escapes"] || !seen["fixture/waiver.locksBox"] {
		t.Error("Funcs() missing declared functions")
	}
}

func ids(fis []*FuncInfo) []string {
	out := make([]string, len(fis))
	for i, fi := range fis {
		out[i] = fi.ID
	}
	return out
}

func TestSummaryTransitiveFacts(t *testing.T) {
	_, prog := checkGraph(t)
	cases := []struct {
		name  string
		check func(s Summary) bool
		want  string
	}{
		{"readClock", func(s Summary) bool { return s.ReadsClock && s.ClockVia == "time.Now" }, "ReadsClock via time.Now"},
		{"viaClock", func(s Summary) bool { return s.ReadsClock }, "transitive ReadsClock"},
		{"viaRand", func(s Summary) bool { return s.GlobalRand }, "transitive GlobalRand"},
		{"viaSleep", func(s Summary) bool { return s.Blocks }, "transitive Blocks"},
		{"pingPong", func(s Summary) bool { return s.ReadsClock }, "ReadsClock through mutual recursion"},
		{"pongPing", func(s Summary) bool { return s.ReadsClock }, "ReadsClock through mutual recursion"},
		{"flows", func(s Summary) bool {
			return len(s.Params) == 1 && s.Params[0]&ParamFlowsToReturn != 0
		}, "param 0 flows to return"},
		{"escapes", func(s Summary) bool {
			return len(s.Params) == 1 && s.Params[0]&ParamEscapes != 0
		}, "param 0 escapes"},
		{"locksBox", func(s Summary) bool {
			return len(s.Locks) == 1 && s.Locks[0] == "fixture/waiver.box.mu"
		}, "lock class fixture/waiver.box.mu"},
		{"joins", func(s Summary) bool { return s.Joins }, "range over channel joins"},
		{"spawnsOnly", func(s Summary) bool {
			// The goroutine body is not this function's synchronous path:
			// no Blocks/Joins — but its clock read still counts.
			return !s.Blocks && !s.Joins && s.ReadsClock
		}, "goroutine body contributes clock but not concurrency facts"},
	}
	for _, c := range cases {
		s := graphFunc(t, prog, c.name).Summary
		if !c.check(s) {
			t.Errorf("%s: summary %+v does not satisfy: %s", c.name, s, c.want)
		}
	}
}

// TestSummaryFixpointOrderIndependence pins the determinism contract: the
// least fixpoint is the same whatever order packages and functions are
// visited in, so two programs over the same source — one fed the package
// list reversed — must produce byte-identical summaries.
func TestSummaryFixpointOrderIndependence(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkgs, err := Load(fset, root, []string{"./internal/vector/...", "./internal/lsh/...", "./internal/wire/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 2 {
		t.Fatalf("want at least 2 packages, got %d", len(pkgs))
	}
	forward := NewProgram(fset, pkgs)
	reversed := make([]*Package, len(pkgs))
	for i, p := range pkgs {
		reversed[len(pkgs)-1-i] = p
	}
	backward := NewProgram(fset, reversed)

	if len(forward.Funcs()) == 0 {
		t.Fatal("no functions loaded")
	}
	if len(forward.Funcs()) != len(backward.Funcs()) {
		t.Fatalf("function counts differ: %d vs %d", len(forward.Funcs()), len(backward.Funcs()))
	}
	for i, fi := range forward.Funcs() {
		bi := backward.Funcs()[i]
		if fi.ID != bi.ID {
			t.Fatalf("function order differs at %d: %s vs %s", i, fi.ID, bi.ID)
		}
		if !fi.Summary.equal(&bi.Summary) {
			t.Errorf("%s: summaries differ across visit orders:\n  fwd: %+v\n  rev: %+v", fi.ID, fi.Summary, bi.Summary)
		}
	}
}

func TestCallArgsMapsReceiverAndVariadic(t *testing.T) {
	fset, pkg := checkSource(t, `package callargs

type recv struct{ n int }

func (r *recv) method(a int, rest ...string) {}

func variadic(xs ...int) {}

func caller(r *recv) {
	r.method(1, "x", "y")
	variadic(1, 2, 3)
}
`)
	prog := NewProgram(fset, []*Package{pkg})
	caller := prog.FuncByID("fixture/waiver.caller")
	if caller == nil {
		t.Fatal("caller not found")
	}
	var calls []*ast.CallExpr
	ast.Inspect(caller.Decl.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			calls = append(calls, c)
		}
		return true
	})
	if len(calls) != 2 {
		t.Fatalf("found %d calls, want 2", len(calls))
	}

	method := prog.FuncOfCall(pkg.Info, calls[0])
	if method == nil || method.ID != "(fixture/waiver.recv).method" {
		t.Fatalf("method call resolved to %v", method)
	}
	exprs, idx := prog.CallArgs(pkg.Info, calls[0], method)
	// Receiver occupies parameter slot 0; the variadic tail collapses onto
	// the last parameter.
	if len(exprs) != 4 || idx[0] != 0 || idx[1] != 1 || idx[2] != 2 || idx[3] != 2 {
		t.Errorf("method CallArgs idx = %v (%d exprs), want [0 1 2 2]", idx, len(exprs))
	}

	vf := prog.FuncOfCall(pkg.Info, calls[1])
	exprs, idx = prog.CallArgs(pkg.Info, calls[1], vf)
	if len(exprs) != 3 || idx[0] != 0 || idx[1] != 0 || idx[2] != 0 {
		t.Errorf("variadic CallArgs idx = %v (%d exprs), want [0 0 0]", idx, len(exprs))
	}
}

func TestFuncIDStability(t *testing.T) {
	_, prog := checkGraph(t)
	for _, fi := range prog.Funcs() {
		if FuncID(fi.Func) != fi.ID {
			t.Errorf("FuncID(%s.Func) = %q, want %q", fi.ID, FuncID(fi.Func), fi.ID)
		}
	}
}
