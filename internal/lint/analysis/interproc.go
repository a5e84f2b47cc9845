package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural half of the framework: it builds an
// intra-module call graph over the loaded packages and computes a small,
// deterministic summary per function, so analyzers can reason across call
// boundaries instead of stopping at them. The design constraints match the
// loader's: stdlib only, no x/tools, and byte-stable output — the fixpoint
// below visits functions in sorted order and is a least fixpoint over a
// finite boolean/set lattice, so the summaries are independent of package
// load order (pinned by TestSummaryFixpointOrderIndependent).

// ParamFacts is a bitset of facts about one parameter of a function
// (the receiver counts as parameter 0 of a method).
type ParamFacts uint8

const (
	// ParamFlowsToReturn: some return value may alias this parameter's
	// memory (return p, return p.field, return wrap(p), ...).
	ParamFlowsToReturn ParamFacts = 1 << iota

	// ParamEscapes: the parameter may be retained beyond the call — stored
	// into a package-level variable, sent on a channel, stashed into
	// another parameter's object, or handed to an opaque function value.
	ParamEscapes
)

// maxTrackedParams bounds the per-parameter alias bitmasks.
const maxTrackedParams = 32

// maxLockClasses bounds a summary's acquired-lock set; real functions
// acquire one or two classes, so the cap only guards pathological code.
const maxLockClasses = 16

// maxSummaryRounds caps the interprocedural fixpoint. Facts are monotone
// booleans/sets, so the bound doubles as the propagation depth limit: a
// fact can cross at most this many call edges.
const maxSummaryRounds = 40

// Summary is the per-function abstraction analyzers consume. Every field
// is a may-fact: false/empty means "provably not observed", not "safe".
type Summary struct {
	// ReadsClock: the function (or a transitive callee with source in the
	// Program) reads the wall clock (time.Now/Since/Until). ClockVia names
	// the immediate cause ("time.Now" or "via pkg.callee").
	ReadsClock bool
	ClockVia   string

	// GlobalRand: draws from the globally seeded math/rand source.
	GlobalRand bool
	RandVia    string

	// Blocks: executing the function on the caller's goroutine may block —
	// channel send/receive, select without default, sync.WaitGroup.Wait,
	// sync.Cond.Wait, time.Sleep, network or file I/O, or a transitive
	// callee that blocks. Lock acquisitions are tracked separately in
	// Locks, not here.
	Blocks    bool
	BlocksVia string

	// Joins: the function participates in a join/cancel protocol — a
	// channel operation, select, close, WaitGroup.Done, or a context Done
	// call is reachable on the synchronous path. goroleak accepts a
	// spawned body whose Joins is true.
	Joins bool

	// SeedReturn: every return value visibly derives from a seed — a
	// runner.DeriveSeed call, a seed-named identifier, or a callee whose
	// own SeedReturn holds. detrand accepts such calls as seed provenance.
	SeedReturn bool

	// Locks lists the lock classes (see LockClass) the function may
	// acquire on the synchronous path, sorted.
	Locks []string

	// Params holds per-parameter facts, receiver first for methods.
	Params []ParamFacts
}

func (s *Summary) equal(o *Summary) bool {
	if s.ReadsClock != o.ReadsClock || s.ClockVia != o.ClockVia ||
		s.GlobalRand != o.GlobalRand || s.RandVia != o.RandVia ||
		s.Blocks != o.Blocks || s.BlocksVia != o.BlocksVia ||
		s.Joins != o.Joins || s.SeedReturn != o.SeedReturn ||
		len(s.Locks) != len(o.Locks) || len(s.Params) != len(o.Params) {
		return false
	}
	for i := range s.Locks {
		if s.Locks[i] != o.Locks[i] {
			return false
		}
	}
	for i := range s.Params {
		if s.Params[i] != o.Params[i] {
			return false
		}
	}
	return true
}

// FuncInfo is one function with source in the Program.
type FuncInfo struct {
	// ID is the stable key from FuncID; two *types.Func objects for the
	// same function (source vs export data) share it.
	ID      string
	Func    *types.Func
	Decl    *ast.FuncDecl
	Pkg     *Package
	Callees []*FuncInfo
	Summary Summary
}

// ShortName is the ID without the module path prefix, for diagnostics.
func (f *FuncInfo) ShortName() string { return f.ID }

// Program is the whole-module view: every loaded package, the call graph
// between their functions, and the fixpoint summaries.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package

	byID  map[string]*FuncInfo
	funcs []*FuncInfo // deterministic order: package path, then file, then position
}

// NewProgram indexes the packages, builds the intra-module call graph and
// runs the summary fixpoint. pkgs need not be sorted or complete — calls
// into packages without source simply have no summary.
func NewProgram(fset *token.FileSet, pkgs []*Package) *Program {
	sorted := make([]*Package, len(pkgs))
	copy(sorted, pkgs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ImportPath < sorted[j].ImportPath })

	p := &Program{Fset: fset, Pkgs: sorted, byID: make(map[string]*FuncInfo)}
	for _, pkg := range sorted {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				fi := &FuncInfo{ID: FuncID(obj), Func: obj, Decl: fd, Pkg: pkg}
				if _, dup := p.byID[fi.ID]; !dup {
					p.byID[fi.ID] = fi
					p.funcs = append(p.funcs, fi)
				}
			}
		}
	}
	for _, fi := range p.funcs {
		seen := map[*FuncInfo]bool{}
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := p.FuncOfCall(fi.Pkg.Info, call); callee != nil && !seen[callee] {
				seen[callee] = true
				fi.Callees = append(fi.Callees, callee)
			}
			return true
		})
	}
	p.fixpoint()
	return p
}

// Funcs returns every function with source, in deterministic order.
func (p *Program) Funcs() []*FuncInfo { return p.funcs }

// FuncByID returns the function with the given FuncID, or nil.
func (p *Program) FuncByID(id string) *FuncInfo { return p.byID[id] }

// FuncOfCall resolves call to a function with source in the Program:
// a direct call to a declared function or method. Calls through function
// values and interface methods return nil.
func (p *Program) FuncOfCall(info *types.Info, call *ast.CallExpr) *FuncInfo {
	f := StaticCallee(info, call)
	if f == nil {
		return nil
	}
	return p.byID[FuncID(f)]
}

// StaticCallee returns the declared function or method a call invokes,
// or nil for builtins, conversions and function-value calls.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// FuncID is a stable, cross-package key for a function: "pkg.Name" for
// package functions, "(pkg.Type).Name" for methods. The same function
// type-checked from source and re-imported from export data yields
// distinct *types.Func pointers but the same FuncID.
func FuncID(f *types.Func) string {
	f = f.Origin()
	pkgPath := ""
	if f.Pkg() != nil {
		pkgPath = f.Pkg().Path()
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		name := "?"
		if n, ok := t.(*types.Named); ok {
			name = n.Obj().Name()
		}
		return "(" + pkgPath + "." + name + ")." + f.Name()
	}
	return pkgPath + "." + f.Name()
}

// fixpoint recomputes every summary until nothing changes. All facts are
// monotone (bits and set entries are only ever added), so iteration in any
// order converges to the same least fixpoint; sorted order just makes the
// trajectory reproducible too.
func (p *Program) fixpoint() {
	for round := 0; round < maxSummaryRounds; round++ {
		changed := false
		for _, fi := range p.funcs {
			next := computeSummary(p, fi)
			if !next.equal(&fi.Summary) {
				fi.Summary = next
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// paramVars lists the alias-trackable inputs of fi: receiver first, then
// parameters, in declaration order.
func paramVars(f *types.Func) []*types.Var {
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out []*types.Var
	if r := sig.Recv(); r != nil {
		out = append(out, r)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// refLike reports whether a value of type t can carry aliasable memory:
// handing it to someone may share mutable state. A multi-value call's
// tuple is ref-like when any of its results is, so `v, err := f(x)`
// carries whatever f lets flow from x to v.
func refLike(t types.Type) bool {
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if refLike(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if refLike(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return refLike(u.Elem())
	}
	return false
}

// summaryScan computes one function's summary (or, with fi == nil, an
// ad-hoc scan of a body for BodyJoins/CallBlocks-style queries).
type summaryScan struct {
	prog *Program
	info *types.Info
	fi   *FuncInfo

	params    []*types.Var
	paramMask map[types.Object]uint32
	locks     map[string]bool
	sum       Summary
}

func computeSummary(p *Program, fi *FuncInfo) Summary {
	s := &summaryScan{
		prog:      p,
		info:      fi.Pkg.Info,
		fi:        fi,
		params:    paramVars(fi.Func),
		paramMask: map[types.Object]uint32{},
		locks:     map[string]bool{},
	}
	if len(s.params) > maxTrackedParams {
		s.params = s.params[:maxTrackedParams]
	}
	s.sum.Params = make([]ParamFacts, len(s.params))
	for i, v := range s.params {
		if refLike(v.Type()) {
			s.paramMask[v] = 1 << uint(i)
		}
	}
	s.propagateAliases(fi.Decl.Body)
	s.scan(fi.Decl.Body, true)
	s.sum.SeedReturn = s.seedReturn(fi.Decl.Body)
	s.sum.Locks = make([]string, 0, len(s.locks))
	for k := range s.locks {
		s.sum.Locks = append(s.sum.Locks, k)
	}
	sort.Strings(s.sum.Locks)
	if len(s.sum.Locks) > maxLockClasses {
		s.sum.Locks = s.sum.Locks[:maxLockClasses]
	}
	return s.sum
}

func (s *summaryScan) obj(id *ast.Ident) types.Object {
	if o := s.info.Uses[id]; o != nil {
		return o
	}
	return s.info.Defs[id]
}

// propagateAliases grows paramMask to a local fixpoint: locals assigned
// from a parameter-aliasing expression, and locals into whose fields or
// elements such a value is stored, inherit the parameter bits.
func (s *summaryScan) propagateAliases(body *ast.BlockStmt) {
	if len(s.paramMask) == 0 {
		return
	}
	for round := 0; round < 8; round++ {
		changed := false
		taint := func(id *ast.Ident, m uint32) {
			if id == nil || id.Name == "_" || m == 0 {
				return
			}
			obj := s.obj(id)
			if obj == nil {
				return
			}
			if old := s.paramMask[obj]; old|m != old {
				s.paramMask[obj] = old | m
				changed = true
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					var rhs ast.Expr
					switch {
					case len(n.Rhs) == len(n.Lhs):
						rhs = n.Rhs[i]
					case len(n.Rhs) == 1:
						rhs = n.Rhs[0]
					default:
						continue
					}
					m := s.aliasMask(rhs)
					switch l := ast.Unparen(lhs).(type) {
					case *ast.Ident:
						taint(l, m)
					case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
						// Storing an aliasing value into a local container
						// (out.data = p) taints the container, so a later
						// `return out` carries the fact.
						if root := localRootIdent(l); root != nil {
							taint(root, m)
						}
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) {
						taint(name, s.aliasMask(n.Values[i]))
					}
				}
			case *ast.RangeStmt:
				// Ranging over an aliasing container: the value (and for
				// maps the key) may alias the same memory.
				m := s.aliasMask(n.X)
				if id, ok := n.Value.(*ast.Ident); ok {
					taint(id, m)
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
}

// localRootIdent returns the root identifier of an lvalue chain
// (x.a.b[i] -> x) when it is a plain identifier, else nil.
func localRootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// aliasMask returns the set of parameters e's value may alias.
func (s *summaryScan) aliasMask(e ast.Expr) uint32 {
	if e == nil || len(s.paramMask) == 0 {
		return 0
	}
	e = ast.Unparen(e)
	if t := s.info.TypeOf(e); t != nil && !refLike(t) {
		return 0 // plain value: copies, carries no aliases
	}
	switch e := e.(type) {
	case *ast.Ident:
		if obj := s.obj(e); obj != nil {
			return s.paramMask[obj]
		}
	case *ast.SelectorExpr:
		return s.aliasMask(e.X)
	case *ast.IndexExpr:
		return s.aliasMask(e.X)
	case *ast.SliceExpr:
		return s.aliasMask(e.X)
	case *ast.StarExpr:
		return s.aliasMask(e.X)
	case *ast.TypeAssertExpr:
		return s.aliasMask(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return s.aliasMask(e.X)
		}
	case *ast.CompositeLit:
		var m uint32
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			m |= s.aliasMask(el)
		}
		return m
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" {
			if _, isBuiltin := s.obj(id).(*types.Builtin); isBuiltin && len(e.Args) > 0 {
				return s.aliasMask(e.Args[0])
			}
		}
		// Slice conversions keep the backing array.
		if tv, ok := s.info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			if _, isSlice := tv.Type.Underlying().(*types.Slice); isSlice {
				return s.aliasMask(e.Args[0])
			}
			return 0
		}
		// A callee that returns one of its parameters passes the alias
		// through: mask of the call is the union of the masks of the
		// arguments feeding flows-to-return parameters.
		if callee := s.prog.FuncOfCall(s.info, e); callee != nil {
			var m uint32
			exprs, idx := s.prog.CallArgs(s.info, e, callee)
			for i, arg := range exprs {
				pi := idx[i]
				if pi < len(callee.Summary.Params) && callee.Summary.Params[pi]&ParamFlowsToReturn != 0 {
					m |= s.aliasMask(arg)
				}
			}
			return m
		}
	}
	return 0
}

// CallArgs aligns a call's receiver and arguments with callee's parameter
// indices: exprs[i] is an argument expression and idx[i] the index into
// callee's Summary.Params it binds (receiver = 0 for methods; variadic
// arguments all bind the final parameter).
func (p *Program) CallArgs(info *types.Info, call *ast.CallExpr, callee *FuncInfo) (exprs []ast.Expr, idx []int) {
	nparams := 0
	if sig, ok := callee.Func.Type().(*types.Signature); ok {
		nparams = sig.Params().Len()
	}
	base := 0
	if recv := receiverOf(callee.Func); recv != nil {
		base = 1
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if _, isPkg := info.Uses[firstIdent(sel.X)].(*types.PkgName); !isPkg || firstIdent(sel.X) == nil {
				exprs = append(exprs, sel.X)
				idx = append(idx, 0)
			}
		}
	}
	for i, arg := range call.Args {
		pi := i
		if nparams > 0 && pi >= nparams {
			pi = nparams - 1 // variadic tail
		}
		exprs = append(exprs, arg)
		idx = append(idx, base+pi)
	}
	return exprs, idx
}

func receiverOf(f *types.Func) *types.Var {
	if sig, ok := f.Type().(*types.Signature); ok {
		return sig.Recv()
	}
	return nil
}

func firstIdent(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}

// fact recording helpers; "via" strings keep the first cause in source
// order, which the deterministic scan makes reproducible.

func (s *summaryScan) clock(via string) {
	if !s.sum.ReadsClock {
		s.sum.ReadsClock, s.sum.ClockVia = true, via
	}
}

func (s *summaryScan) rand(via string) {
	if !s.sum.GlobalRand {
		s.sum.GlobalRand, s.sum.RandVia = true, via
	}
}

func (s *summaryScan) blocks(via string, syncCtx bool) {
	if syncCtx && !s.sum.Blocks {
		s.sum.Blocks, s.sum.BlocksVia = true, via
	}
}

func (s *summaryScan) joins(syncCtx bool) {
	if syncCtx {
		s.sum.Joins = true
	}
}

func (s *summaryScan) lock(class string, syncCtx bool) {
	if syncCtx && class != "" {
		s.locks[class] = true
	}
}

func (s *summaryScan) escape(m uint32) {
	s.mark(m, ParamEscapes)
}

func (s *summaryScan) mark(m uint32, f ParamFacts) {
	for i := range s.sum.Params {
		if m&(1<<uint(i)) != 0 {
			s.sum.Params[i] |= f
		}
	}
}

// scan walks n recording facts. syncCtx is true while the code is known to
// run synchronously on the function's own goroutine: blocking, joining and
// lock facts apply only there. Spawned goroutine bodies and function
// literals that run at an unknown time still contribute clock/rand facts
// (those violate determinism whenever they run) but not concurrency facts.
func (s *summaryScan) scan(root ast.Node, syncCtx bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			s.scan(n.Call, false)
			return false
		case *ast.FuncLit:
			s.scan(n.Body, false)
			return false
		case *ast.DeferStmt:
			// A deferred call still runs on this goroutine at exit.
			s.scan(n.Call, syncCtx)
			return false
		case *ast.CallExpr:
			s.call(n, syncCtx)
		case *ast.SendStmt:
			s.blocks("channel send", syncCtx)
			s.joins(syncCtx)
			s.escape(s.aliasMask(n.Value))
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				s.blocks("channel receive", syncCtx)
				s.joins(syncCtx)
			}
		case *ast.RangeStmt:
			if t := s.info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					s.blocks("range over channel", syncCtx)
					s.joins(syncCtx)
				}
			}
		case *ast.SelectStmt:
			s.joins(syncCtx)
			hasDefault := false
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				s.blocks("select", syncCtx)
			}
		case *ast.ReturnStmt:
			if syncCtx { // returns inside literals belong to the literal
				for _, res := range n.Results {
					s.mark(s.aliasMask(res), ParamFlowsToReturn)
				}
			}
		case *ast.AssignStmt:
			s.assign(n)
		}
		return true
	})
}

// assign records parameter escape facts for one assignment.
func (s *summaryScan) assign(n *ast.AssignStmt) {
	for i, lhs := range n.Lhs {
		var rhs ast.Expr
		switch {
		case len(n.Rhs) == len(n.Lhs):
			rhs = n.Rhs[i]
		case len(n.Rhs) == 1:
			rhs = n.Rhs[0]
		}
		var m uint32
		if rhs != nil {
			m = s.aliasMask(rhs)
		}
		s.storeThrough(lhs, m)
	}
}

// storeThrough handles a write to lvalue lhs of a value aliasing params m:
// storing it into a package-level variable or another parameter's memory
// publishes it.
func (s *summaryScan) storeThrough(lhs ast.Expr, m uint32) {
	if m == 0 {
		return
	}
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj := s.obj(l); obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			s.escape(m)
		}
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		var base ast.Expr
		switch l := l.(type) {
		case *ast.SelectorExpr:
			base = l.X
		case *ast.IndexExpr:
			base = l.X
		case *ast.StarExpr:
			base = l.X
		}
		if root := localRootIdent(base); root != nil {
			if obj := s.obj(root); obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				s.escape(m) // stored into a package-level object
				return
			}
		}
		if bm := s.aliasMask(base); bm != 0 && bm != m {
			s.escape(m) // stored into another parameter's memory
		}
	}
}

// call records the facts of one call expression.
func (s *summaryScan) call(call *ast.CallExpr, syncCtx bool) {
	info := s.info
	obj := StaticCallee(info, call)
	if obj == nil {
		// close(ch) is a join signal; opaque function values may retain
		// their reference-typed arguments.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, isBuiltin := s.obj(id).(*types.Builtin); isBuiltin && b.Name() == "close" {
				s.joins(syncCtx)
				return
			}
		}
		if funcValueCall(info, call) {
			for _, arg := range call.Args {
				s.escape(s.aliasMask(arg))
			}
		}
		return
	}
	pkgPath := ""
	if obj.Pkg() != nil {
		pkgPath = obj.Pkg().Path()
	}
	name := obj.Name()
	switch pkgPath {
	case "time":
		switch name {
		case "Now", "Since", "Until":
			s.clock("time." + name)
		case "Sleep":
			s.blocks("time.Sleep", syncCtx)
		}
		return
	case "math/rand", "math/rand/v2":
		if receiverOf(obj) == nil {
			switch name {
			case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			default:
				s.rand("rand." + name)
			}
		}
		return
	case "sync":
		recv := receiverTypeName(obj)
		switch {
		case recv == "WaitGroup" && name == "Wait":
			s.blocks("sync.WaitGroup.Wait", syncCtx)
		case recv == "WaitGroup" && name == "Done":
			s.joins(syncCtx)
		case recv == "Cond" && name == "Wait":
			s.blocks("sync.Cond.Wait", syncCtx)
		case (recv == "Mutex" || recv == "RWMutex") && (name == "Lock" || name == "RLock"):
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				s.lock(LockClass(info, s.pkgPath(), sel.X), syncCtx)
			}
		}
		return
	case "context":
		if name == "Done" {
			s.joins(syncCtx)
		}
		return
	}
	if name == "Close" && receiverOf(obj) != nil {
		s.joins(syncCtx) // closing a resource is a shutdown/cancel signal
	}
	if callee := s.prog.FuncByID(FuncID(obj)); callee != nil {
		sum := &callee.Summary
		if sum.ReadsClock {
			s.clock("via " + callee.ID)
		}
		if sum.GlobalRand {
			s.rand("via " + callee.ID)
		}
		if sum.Blocks {
			s.blocks("via "+callee.ID, syncCtx)
		}
		if sum.Joins {
			s.joins(syncCtx)
		}
		for _, lk := range sum.Locks {
			s.lock(lk, syncCtx)
		}
		exprs, idx := s.prog.CallArgs(info, call, callee)
		for i, arg := range exprs {
			pi := idx[i]
			if pi >= len(sum.Params) {
				continue
			}
			if sum.Params[pi]&ParamEscapes != 0 {
				s.escape(s.aliasMask(arg))
			}
		}
		return
	}
	if via, ok := stdlibBlocking(obj); ok {
		s.blocks(via, syncCtx)
	}
}

func (s *summaryScan) pkgPath() string {
	if s.fi != nil {
		return s.fi.Pkg.ImportPath
	}
	return ""
}

// seedReturn reports whether every return statement's every result
// visibly derives from a seed.
func (s *summaryScan) seedReturn(body *ast.BlockStmt) bool {
	sawReturn := false
	ok := true
	var walk func(n ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false // its returns are not ours
			case *ast.ReturnStmt:
				if len(n.Results) == 0 {
					return true
				}
				sawReturn = true
				for _, res := range n.Results {
					if !s.seedExpr(res, 0) {
						ok = false
					}
				}
			}
			return true
		})
	}
	walk(body)
	return sawReturn && ok
}

// seedExpr reports whether e visibly mentions seed provenance: a
// DeriveSeed call, a seed-named identifier, or a call to a function whose
// summary says every return is seed-derived.
func (s *summaryScan) seedExpr(e ast.Expr, depth int) bool {
	if depth > 4 {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if f := StaticCallee(s.info, n); f != nil && f.Name() == "DeriveSeed" {
				found = true
				return false
			}
			if callee := s.prog.FuncOfCall(s.info, n); callee != nil && callee.Summary.SeedReturn {
				found = true
				return false
			}
		case *ast.Ident:
			if strings.Contains(strings.ToLower(n.Name), "seed") {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// funcValueCall reports whether call invokes a func-typed variable (a
// callback parameter, local func value, or func-typed field) whose body
// cannot be resolved here.
func funcValueCall(info *types.Info, call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok {
		return false
	}
	_, isFunc := v.Type().Underlying().(*types.Signature)
	return isFunc
}

func receiverTypeName(f *types.Func) string {
	recv := receiverOf(f)
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// stdlibBlocking classifies calls into packages without source that are
// known to block: network and file I/O, pipes, subprocess waits.
func stdlibBlocking(f *types.Func) (string, bool) {
	pkg := f.Pkg()
	if pkg == nil {
		return "", false
	}
	name := f.Name()
	recv := receiverTypeName(f)
	display := pkg.Name() + "." + name
	if recv != "" {
		display = pkg.Name() + "." + recv + "." + name
	}
	switch pkg.Path() {
	case "net", "net/http", "net/rpc", "net/textproto":
		// Nearly everything here eventually hits the wire or a socket
		// syscall — except the pure accessors and parsers.
		switch name {
		case "String", "Network", "Addr", "LocalAddr", "RemoteAddr", "Error",
			"Timeout", "Temporary", "Unwrap",
			"SetDeadline", "SetReadDeadline", "SetWriteDeadline",
			"JoinHostPort", "SplitHostPort", "ParseIP", "ParseCIDR", "ParseMAC",
			"CIDRMask", "IPv4", "IPv4Mask":
			return "", false
		}
		return display + " (network I/O)", true
	case "os":
		if recv == "File" && name != "Name" && name != "Fd" {
			return display + " (file I/O)", true
		}
		switch name {
		case "Open", "OpenFile", "Create", "CreateTemp", "ReadFile", "WriteFile",
			"ReadDir", "Remove", "RemoveAll", "Rename", "Mkdir", "MkdirAll",
			"MkdirTemp", "Stat", "Lstat", "Truncate", "Chmod", "Chtimes",
			"Symlink", "Link", "Pipe":
			return display + " (file I/O)", true
		}
	case "io":
		// Only the package-level helpers: a call through an io interface
		// method (hash.Hash64's Write, bytes.Reader's Read) resolves to
		// this package too, but the dynamic target is as often an
		// in-memory implementation as a socket.
		if recv != "" {
			return "", false
		}
		switch name {
		case "ReadAll", "Copy", "CopyN", "CopyBuffer", "ReadFull", "ReadAtLeast", "WriteString":
			return display + " (I/O)", true
		}
	case "bufio":
		switch name {
		case "Read", "ReadByte", "ReadBytes", "ReadLine", "ReadRune", "ReadSlice", "ReadString",
			"Write", "WriteByte", "WriteRune", "WriteString", "Flush", "Peek", "Fill", "Scan":
			return display + " (buffered I/O)", true
		}
	case "os/exec":
		switch name {
		case "Run", "Wait", "Output", "CombinedOutput":
			return display + " (subprocess wait)", true
		}
	}
	return "", false
}

// LockClass maps the receiver expression of a Lock/Unlock call to a
// stable lock class key: "pkg.Type.field" for a mutex field, "pkg.var"
// for a package-level mutex, "pkg.Type.lock" for an embedded one. Two
// instances of the same type share a class — the analysis is class-level,
// like every practical static lock-order checker.
func LockClass(info *types.Info, pkgPath string, recv ast.Expr) string {
	recv = ast.Unparen(recv)
	deref := func(t types.Type) types.Type {
		if p, ok := t.(*types.Pointer); ok {
			return p.Elem()
		}
		return t
	}
	switch r := recv.(type) {
	case *ast.SelectorExpr:
		if t := info.TypeOf(r.X); t != nil {
			if n, ok := deref(t).(*types.Named); ok {
				p := pkgPath
				if n.Obj().Pkg() != nil {
					p = n.Obj().Pkg().Path()
				}
				return p + "." + n.Obj().Name() + "." + r.Sel.Name
			}
		}
		return pkgPath + "." + types.ExprString(recv)
	case *ast.Ident:
		obj := info.Uses[r]
		if obj == nil {
			obj = info.Defs[r]
		}
		if obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + r.Name
		}
		if t := info.TypeOf(r); t != nil {
			if n, ok := deref(t).(*types.Named); ok && !(n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync") {
				p := pkgPath
				if n.Obj().Pkg() != nil {
					p = n.Obj().Pkg().Path()
				}
				return p + "." + n.Obj().Name() + ".lock"
			}
		}
		return pkgPath + ".local." + r.Name
	}
	return pkgPath + "." + types.ExprString(recv)
}

// BodyJoins reports whether a join/cancel path — a channel operation,
// select, close, WaitGroup.Done, context Done, or a call to a function
// whose summary joins — is reachable on n's synchronous path. goroleak
// uses it on spawned bodies.
func (p *Program) BodyJoins(info *types.Info, n ast.Node) bool {
	s := &summaryScan{prog: p, info: info, paramMask: map[types.Object]uint32{}, locks: map[string]bool{}}
	s.scan(n, true)
	return s.sum.Joins
}

// CallBlocks reports whether one call expression may block: a known
// blocking stdlib call, or a module function whose summary blocks. Lock
// acquisitions are excluded — lockdiscipline models those itself.
func (p *Program) CallBlocks(info *types.Info, call *ast.CallExpr) (string, bool) {
	obj := StaticCallee(info, call)
	if obj == nil {
		return "", false
	}
	if pkg := obj.Pkg(); pkg != nil {
		switch pkg.Path() {
		case "time":
			if obj.Name() == "Sleep" {
				return "time.Sleep", true
			}
			return "", false
		case "sync":
			recv := receiverTypeName(obj)
			if recv == "WaitGroup" && obj.Name() == "Wait" {
				return "sync.WaitGroup.Wait", true
			}
			if recv == "Cond" && obj.Name() == "Wait" {
				return "sync.Cond.Wait", true
			}
			return "", false
		}
	}
	if callee := p.byID[FuncID(obj)]; callee != nil {
		if callee.Summary.Blocks {
			return "call to " + callee.ID + ", which may block (" + callee.Summary.BlocksVia + ")", true
		}
		return "", false
	}
	return stdlibBlocking(obj)
}
