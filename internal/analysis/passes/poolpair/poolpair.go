// Package poolpair pairs sync.Pool acquisitions with their releases.
//
// PR 6 moved the hot path onto pooled objects — codec scratch buffers,
// OCC overlays, trace-seen maps. A pooled object that misses its
// Put/Release on some path is not a leak the GC forgives cheaply: it
// silently re-allocates on every block and erodes the 0 allocs/op SLO
// the perf CI lane pins. Worse, a *double* release aliases scratch
// space across users; the discipline only works if every acquire has
// exactly one owner responsible for exactly one release.
//
// The pass checks, per function, that every pooled acquisition either:
//
//   - transfers ownership out (returned, stored into a field, global,
//     map/slice element, or passed to another function — including the
//     acquire-helper idiom where a constructor returns the pooled
//     object and its CALLERS carry the obligation), or
//   - is released on every return path: a defer of Release/Recycle/
//     Put, or a release call dominating each return.
//
// Acquisitions are (*sync.Pool).Get calls, calls to same-package
// functions that return a Get result, and the curated cross-package
// acquirers (codec.GetBuffer). The release vocabulary is Release,
// Recycle, and (*sync.Pool).Put. The pass runs in the pooled packages:
// codec, stm, chain, persist, and contract (the execution environment).
package poolpair

import (
	"go/ast"
	"go/types"

	"contractstm/internal/analysis"
)

// Analyzer is the poolpair pass.
var Analyzer = &analysis.Analyzer{
	Name: "poolpair",
	Doc:  "require a Put/Release on every path for each sync.Pool-backed acquisition",
	Run:  run,
}

// pooledPackages are where the pooled-object discipline binds.
var pooledPackages = map[string]bool{
	"codec": true, "stm": true, "chain": true, "persist": true, "contract": true,
}

// crossPackageAcquirers maps fully qualified function names to true:
// cross-package helpers known to hand out pooled objects.
var crossPackageAcquirers = map[string]bool{
	"contractstm/internal/codec.GetBuffer": true,
	// Fixture stand-in so the analysistest corpus can exercise the
	// cross-package path without importing the real codec.
	"codec.GetBuffer": true,
}

// releaseNames are the methods that return an object to its pool.
var releaseNames = map[string]bool{
	"Release": true, "Recycle": true, "Put": true,
}

func run(pass *analysis.Pass) error {
	if !pooledPackages[pass.PkgBase()] {
		return nil
	}
	acq := localAcquirers(pass)
	for _, f := range pass.SourceFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFunc(pass, acq, fn.Body)
				}
			case *ast.FuncLit:
				if fn.Body != nil {
					checkFunc(pass, acq, fn.Body)
				}
				return false
			}
			return true
		})
	}
	return nil
}

// localAcquirers finds this package's functions that return a pooled
// object: any function whose body contains a (*sync.Pool).Get call and
// that has at least one result. Their callers inherit the release
// obligation.
func localAcquirers(pass *analysis.Pass) map[*types.Func]bool {
	out := map[*types.Func]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Type.Results == nil || len(fd.Type.Results.List) == 0 {
				continue
			}
			found := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && isPoolGet(pass.TypesInfo, call) {
					found = true
				}
				return !found
			})
			if !found {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				out[fn] = true
			}
		}
	}
	return out
}

// isPoolGet matches a direct (*sync.Pool).Get call.
func isPoolGet(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Get" {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return true
}

// isAcquire reports whether call yields a pooled object this function
// must account for.
func isAcquire(pass *analysis.Pass, acq map[*types.Func]bool, call *ast.CallExpr) bool {
	if isPoolGet(pass.TypesInfo, call) {
		return true
	}
	var fn *types.Func
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ = pass.TypesInfo.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = pass.TypesInfo.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil {
		return false
	}
	if acq[fn] {
		return true
	}
	if fn.Pkg() != nil && crossPackageAcquirers[fn.Pkg().Path()+"."+fn.Name()] {
		return true
	}
	return false
}

// checkFunc verifies each acquisition bound to a local variable in one
// function body.
func checkFunc(pass *analysis.Pass, acq map[*types.Func]bool, body *ast.BlockStmt) {
	// Find `v := acquire()` / `v = acquire()` bindings at any depth.
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isAcquire(pass, acq, call) {
			return true
		}
		// Type-assertion wrappers (pool.Get().(*T)) appear as the call
		// nested in the assert; handled below via the assert branch.
		if len(as.Lhs) != 1 {
			return true
		}
		v := bindingVar(pass.TypesInfo, as.Lhs[0])
		if v == nil {
			// Bound to a field/index: ownership escapes into the
			// structure, whose lifecycle owns the release.
			return true
		}
		verify(pass, body, as, v, call)
		return true
	})
	// And assert-wrapped bindings: v := pool.Get().(*T).
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
			return true
		}
		ta, ok := as.Rhs[0].(*ast.TypeAssertExpr)
		if !ok {
			return true
		}
		call, ok := ta.X.(*ast.CallExpr)
		if !ok || !isAcquire(pass, acq, call) {
			return true
		}
		v := bindingVar(pass.TypesInfo, as.Lhs[0])
		if v == nil {
			return true
		}
		verify(pass, body, as, v, call)
		return true
	})
}

// bindingVar resolves the left-hand side to a plain local variable, or
// nil when the target is a field, index or global (escape).
func bindingVar(info *types.Info, lhs ast.Expr) *types.Var {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	v, ok := info.ObjectOf(id).(*types.Var)
	if !ok || v.IsField() || v.Parent() == nil || v.Parent() == v.Pkg().Scope() {
		return nil
	}
	return v
}

// verify walks the function body after the acquisition and reports if
// some path reaches a return (or the end of the function) with the
// object neither released nor escaped.
func verify(pass *analysis.Pass, body *ast.BlockStmt, bind *ast.AssignStmt, v *types.Var, acqCall *ast.CallExpr) {
	spine := findSpine(body, bind)
	if spine == nil {
		return
	}
	w := &walker{pass: pass, v: v, bind: bind}
	st := state{}
	var last ast.Stmt = bind
	// Walk forward from the binding: first the remainder of its own
	// block, then — popping outward — the remainder of each enclosing
	// block after the statement that contained it, out to the end of
	// the function body.
	for level := len(spine) - 1; level >= 0; level-- {
		fr := spine[level]
		rest := fr.block.List[fr.idx+1:]
		for _, s := range rest {
			st = w.stmt(s, st)
			last = s
		}
	}
	if w.leaked {
		report(pass, acqCall, v)
		return
	}
	if !st.resolved && !terminates(last) {
		// Fell off the end of the function unresolved.
		report(pass, acqCall, v)
	}
}

// frame is one level of the binding's enclosing-block chain.
type frame struct {
	block *ast.BlockStmt
	idx   int
}

// findSpine returns the chain of blocks from the function body down to
// the statement list directly containing bind, with the index of the
// (possibly transitively) containing statement at each level.
func findSpine(body *ast.BlockStmt, bind ast.Stmt) []frame {
	for i, s := range body.List {
		if s == bind {
			return []frame{{body, i}}
		}
		var sub []frame
		ast.Inspect(s, func(n ast.Node) bool {
			if sub != nil {
				return false
			}
			if b, ok := n.(*ast.BlockStmt); ok {
				if sp := findSpine(b, bind); sp != nil {
					sub = sp
					return false
				}
			}
			return true
		})
		if sub != nil {
			return append([]frame{{body, i}}, sub...)
		}
	}
	return nil
}

// terminates reports whether control cannot fall out of the bottom of
// stmt — enough precision to silence the end-of-function check.
func terminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		if n := len(s.List); n > 0 {
			return terminates(s.List[n-1])
		}
	case *ast.IfStmt:
		if s.Else == nil {
			return false
		}
		thenT := false
		if n := len(s.Body.List); n > 0 {
			thenT = terminates(s.Body.List[n-1])
		}
		return thenT && terminates(s.Else)
	}
	return false
}

func report(pass *analysis.Pass, acqCall *ast.CallExpr, v *types.Var) {
	pass.Reportf(acqCall.Pos(),
		"pooled object %s is not released on every path: add `defer %s.Release()` (or Put/Recycle), or transfer ownership out — a missed release re-allocates on the hot path every block",
		v.Name(), v.Name())
}

// state is the per-path tracking: resolved means the object has been
// released or has escaped on this path.
type state struct {
	resolved bool
}

type walker struct {
	pass *analysis.Pass
	v    *types.Var
	bind *ast.AssignStmt
	// leaked records that some return was reached unresolved.
	leaked bool
}

// block walks a statement list, threading path state.
func (w *walker) block(b *ast.BlockStmt, st state) state {
	for _, s := range b.List {
		st = w.stmt(s, st)
	}
	return st
}

func (w *walker) stmt(s ast.Stmt, st state) state {
	switch s := s.(type) {
	case *ast.DeferStmt:
		if w.isRelease(s.Call) {
			st.resolved = true
		} else if w.mentions(s.Call) {
			// Deferred call consuming v (e.g. defer save(v)): escape.
			st.resolved = true
		}
		return st
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if w.isRelease(call) || w.mentionsCallArgs(call) {
				st.resolved = true
			}
		}
		return st
	case *ast.AssignStmt:
		// v assigned into a field/global/map/slice, or consumed by a
		// call on the RHS: escape. v reassigned: the old object is
		// gone — treat reassignment from another acquire as a fresh
		// binding handled by its own verify.
		for _, rhs := range s.Rhs {
			if w.mentionsExpr(rhs) {
				st.resolved = true
			}
		}
		return st
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if w.mentionsExpr(r) {
				st.resolved = true
			}
		}
		if !st.resolved {
			w.leaked = true
		}
		return st
	case *ast.IfStmt:
		if s.Init != nil {
			st = w.stmt(s.Init, st)
		}
		then := w.block(s.Body, st)
		els := st
		if s.Else != nil {
			els = w.stmt(s.Else, els)
		}
		// Resolved after the if only if resolved on both arms (an arm
		// ending in return doesn't rejoin, but merging with && is the
		// conservative direction either way).
		return state{resolved: then.resolved && els.resolved}
	case *ast.BlockStmt:
		return w.block(s, st)
	case *ast.ForStmt:
		w.block(s.Body, st)
		return st
	case *ast.RangeStmt:
		w.block(s.Body, st)
		return st
	case *ast.SwitchStmt:
		return w.clauses(s.Body, st)
	case *ast.TypeSwitchStmt:
		return w.clauses(s.Body, st)
	case *ast.SelectStmt:
		return w.clauses(s.Body, st)
	case *ast.GoStmt:
		if w.mentions(s.Call) {
			st.resolved = true // handed to a goroutine: its problem now
		}
		return st
	case *ast.SendStmt:
		if w.mentionsExpr(s.Value) {
			st.resolved = true
		}
		return st
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	}
	return st
}

func (w *walker) clauses(body *ast.BlockStmt, st state) state {
	all := true
	any := false
	for _, clause := range body.List {
		var stmts []ast.Stmt
		switch cc := clause.(type) {
		case *ast.CaseClause:
			stmts = cc.Body
		case *ast.CommClause:
			stmts = cc.Body
		default:
			continue
		}
		branch := st
		for _, s := range stmts {
			branch = w.stmt(s, branch)
		}
		all = all && branch.resolved
		any = true
	}
	if !any {
		return st
	}
	return state{resolved: st.resolved || all}
}

// isRelease matches v.Release()/v.Recycle(), pool.Put(v), or
// Release(v)-shaped calls.
func (w *walker) isRelease(call *ast.CallExpr) bool {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && releaseNames[sel.Sel.Name] {
		if w.isV(sel.X) {
			return true
		}
		for _, a := range call.Args {
			if w.isV(a) {
				return true
			}
		}
	}
	if id, ok := call.Fun.(*ast.Ident); ok && releaseNames[id.Name] {
		for _, a := range call.Args {
			if w.isV(a) {
				return true
			}
		}
	}
	return false
}

func (w *walker) isV(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	return w.pass.TypesInfo.ObjectOf(id) == w.v
}

// mentionsCallArgs reports whether v is passed to a (non-release) call:
// ownership transfer.
func (w *walker) mentionsCallArgs(call *ast.CallExpr) bool {
	for _, a := range call.Args {
		if w.mentionsExpr(a) {
			return true
		}
	}
	// A method call ON v that is not a release (e.g. v.Apply()) is not
	// an escape; the object stays owned here.
	return false
}

func (w *walker) mentions(call *ast.CallExpr) bool { return w.mentionsCallArgs(call) }

// mentionsExpr reports whether v appears anywhere in e.
func (w *walker) mentionsExpr(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && w.pass.TypesInfo.ObjectOf(id) == w.v {
			found = true
		}
		return !found
	})
	return found
}
