// Package lockscope enforces the repo's two-tier mutex convention:
// a mutex field or variable named exactly "mu" is a short-scope
// bookkeeping lock and must never be held across engine execution,
// persistence I/O or a blocking channel operation.
//
// The convention comes from the node's mu/execMu split (PR 1): status
// queries must stay responsive while a block mines, so node.mu guards
// only cheap in-memory bookkeeping while execMu — deliberately NOT
// named "mu" — serializes the long world-mutating work. The pass makes
// the naming convention load-bearing: name a lock "mu" and chainvet
// polices its scope; name it anything else (execMu, routeMu) and you
// have declared it a long-hold lock.
//
// Blocking operations are a curated set (see blockingCall):
//
//   - channel sends, receives, range-over-channel, and selects without
//     a default clause ((*sync.Cond).Wait is exempt — it releases the
//     lock it guards; a select WITH default is non-blocking by
//     construction, the event-broker idiom);
//   - exported calls into the execution packages engine, miner and
//     validator — a block execution is never an "instant";
//   - the persist.Log methods that reach an fsync, and the os.File
//     write/sync surface;
//   - time.Sleep, sync.WaitGroup.Wait, and the cooperative scheduler's
//     Thread.Park.
//
// The analysis is intra-procedural and flow-aware per function: Lock()
// opens a window, Unlock() closes it, defer Unlock() keeps it open to
// the end of the function, and every branch of if/switch/select is
// walked with its own copy of the held set. Package persist itself is
// exempt: persist.Log.mu IS the I/O-serialization lock — its whole job
// is to be held across the fsync — and the node-side rule (mirror hot
// fields into atomics rather than call into the Log under mu) is what
// this pass enforces everywhere else, the node's group-commit loop
// included.
package lockscope

import (
	"go/ast"
	"go/types"
	"strings"

	"contractstm/internal/analysis"
)

// Analyzer is the lockscope pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockscope",
	Doc:  "forbid holding a short-scope \"mu\" mutex across execution, I/O or blocking channel ops",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.PkgBase() == "persist" {
		return nil
	}
	for _, f := range pass.SourceFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					newChecker(pass).block(fn.Body, newHeld())
				}
			case *ast.FuncLit:
				if fn.Body != nil {
					newChecker(pass).block(fn.Body, newHeld())
				}
				return false // the literal's own walk covers its body
			}
			return true
		})
	}
	return nil
}

// held is the set of locked "mu" expressions at a program point, keyed
// by the rendered receiver expression ("n.mu", "w.mu", "mu").
type held struct {
	locks map[string]bool
}

func newHeld() *held { return &held{locks: map[string]bool{}} }

func (h *held) clone() *held {
	c := newHeld()
	for k := range h.locks {
		c.locks[k] = true
	}
	return c
}

func (h *held) any() (string, bool) {
	for k := range h.locks {
		return k, true
	}
	return "", false
}

// merge keeps a lock held if it is held on either branch — the pass
// reports may-hold, the conservative direction for a correctness lint.
func (h *held) merge(o *held) {
	for k := range o.locks {
		h.locks[k] = true
	}
}

type checker struct {
	pass     *analysis.Pass
	reported map[ast.Node]bool
}

func newChecker(pass *analysis.Pass) *checker {
	return &checker{pass: pass, reported: map[ast.Node]bool{}}
}

// block walks stmts in order, threading the held set through, and
// returns the set at the end of the block.
func (c *checker) block(b *ast.BlockStmt, h *held) *held {
	for _, stmt := range b.List {
		h = c.stmt(stmt, h)
	}
	return h
}

func (c *checker) stmt(s ast.Stmt, h *held) *held {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if name, ok := c.lockOp(s.X); ok {
			h.locks[name] = true
			return h
		}
		if name, ok := c.unlockOp(s.X); ok {
			delete(h.locks, name)
			return h
		}
		c.expr(s.X, h)
	case *ast.DeferStmt:
		if name, ok := c.unlockOp(s.Call); ok {
			// defer mu.Unlock(): the lock stays held to the end of the
			// function; the window is the whole remaining body.
			_ = name
			return h
		}
		c.expr(s.Call, h)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.expr(e, h)
		}
		for _, e := range s.Lhs {
			c.expr(e, h)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.expr(e, h)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			h = c.stmt(s.Init, h)
		}
		c.expr(s.Cond, h)
		then := c.block(s.Body, h.clone())
		els := h.clone()
		if s.Else != nil {
			els = c.stmt(s.Else, els)
		}
		then.merge(els)
		return then
	case *ast.BlockStmt:
		return c.block(s, h)
	case *ast.ForStmt:
		if s.Init != nil {
			h = c.stmt(s.Init, h)
		}
		if s.Cond != nil {
			c.expr(s.Cond, h)
		}
		body := c.block(s.Body, h.clone())
		h.merge(body)
		return h
	case *ast.RangeStmt:
		// Ranging over a channel blocks on each receive.
		if t := c.pass.TypesInfo.TypeOf(s.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				c.blockingOp(s, h, "range over channel")
			}
		}
		c.expr(s.X, h)
		body := c.block(s.Body, h.clone())
		h.merge(body)
		return h
	case *ast.SendStmt:
		c.blockingOp(s, h, "channel send")
	case *ast.SelectStmt:
		hasDefault := false
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			c.blockingOp(s, h, "select without default")
		}
		out := newHeld()
		for _, clause := range s.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok {
				continue
			}
			branch := h.clone()
			for _, st := range cc.Body {
				branch = c.stmt(st, branch)
			}
			out.merge(branch)
		}
		out.merge(h)
		return out
	case *ast.SwitchStmt:
		if s.Init != nil {
			h = c.stmt(s.Init, h)
		}
		if s.Tag != nil {
			c.expr(s.Tag, h)
		}
		return c.caseClauses(s.Body, h)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			h = c.stmt(s.Init, h)
		}
		return c.caseClauses(s.Body, h)
	case *ast.GoStmt:
		// The goroutine body runs without the caller's locks; its
		// literal is analyzed independently by run.
		for _, arg := range s.Call.Args {
			c.expr(arg, h)
		}
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, h)
	case *ast.IncDecStmt:
		c.expr(s.X, h)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.expr(v, h)
					}
				}
			}
		}
	}
	return h
}

func (c *checker) caseClauses(body *ast.BlockStmt, h *held) *held {
	out := h.clone()
	for _, clause := range body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		branch := h.clone()
		for _, st := range cc.Body {
			branch = c.stmt(st, branch)
		}
		out.merge(branch)
	}
	return out
}

// expr scans an expression for blocking operations while locks are
// held. Function literals are skipped — they run when called, not
// here — except that calling one inline would be caught as a call.
func (c *checker) expr(e ast.Expr, h *held) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				c.blockingOp(n, h, "channel receive")
			}
		case *ast.CallExpr:
			if why, ok := c.blockingCall(n); ok {
				c.blockingOp(n, h, why)
			}
		}
		return true
	})
}

// blockingOp reports one finding if any "mu" is held at the operation.
func (c *checker) blockingOp(n ast.Node, h *held, what string) {
	if c.reported[n] {
		return
	}
	if name, ok := h.any(); ok {
		c.reported[n] = true
		c.pass.Reportf(n.Pos(),
			"%s while holding %s: a mutex named \"mu\" is a short-scope bookkeeping lock and must not be held across execution, I/O or blocking channel ops (split it like node.mu/execMu, or rename it to declare it long-hold)",
			what, name)
	}
}

// lockOp matches `<expr>.mu.Lock()` / `.RLock()` (or a bare local
// `mu.Lock()`), returning the rendered lock expression.
func (c *checker) lockOp(e ast.Expr) (string, bool) {
	return c.muCall(e, "Lock", "RLock")
}

func (c *checker) unlockOp(e ast.Expr) (string, bool) {
	return c.muCall(e, "Unlock", "RUnlock")
}

func (c *checker) muCall(e ast.Expr, names ...string) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	match := false
	for _, n := range names {
		if sel.Sel.Name == n {
			match = true
		}
	}
	if !match {
		return "", false
	}
	// The receiver must be something named exactly "mu" of a sync mutex
	// type: a field selector (n.mu) or a plain identifier.
	recv := sel.X
	var name string
	switch r := recv.(type) {
	case *ast.SelectorExpr:
		if r.Sel.Name != "mu" {
			return "", false
		}
		name = renderExpr(r)
	case *ast.Ident:
		if r.Name != "mu" {
			return "", false
		}
		name = r.Name
	default:
		return "", false
	}
	t := c.pass.TypesInfo.TypeOf(recv)
	if t == nil || !isSyncMutex(t) {
		return "", false
	}
	return name, true
}

// isSyncMutex reports whether t is sync.Mutex or sync.RWMutex
// (possibly behind a pointer).
func isSyncMutex(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// renderExpr prints a selector chain like "n.mu"; unrenderable parts
// collapse to "_".
func renderExpr(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return renderExpr(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return renderExpr(e.X)
	case *ast.StarExpr:
		return renderExpr(e.X)
	}
	return "_"
}

// persistBlocking are the persist.Log methods (and persist.Open) that
// can reach an fsync or otherwise stall on the disk.
var persistBlocking = map[string]bool{
	"Append": true, "AppendGroup": true, "WriteSnapshot": true,
	"InstallSnapshot": true, "EnsureGenesis": true, "SavePool": true,
	"TakePool": true, "Blocks": true, "Close": true, "Open": true,
}

// osFileBlocking is the os.File surface that reaches the disk.
var osFileBlocking = map[string]bool{
	"Sync": true, "Write": true, "WriteString": true, "WriteAt": true,
	"Read": true, "ReadAt": true, "ReadFrom": true, "Create": true,
	"OpenFile": true, "Rename": true, "WriteFile": true, "ReadFile": true,
	"Remove": true, "RemoveAll": true, "Mkdir": true, "MkdirAll": true,
}

// blockingCall classifies a call as blocking per the curated set.
func (c *checker) blockingCall(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	var fn *types.Func
	if ok {
		fn, _ = c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	} else if id, isIdent := call.Fun.(*ast.Ident); isIdent {
		fn, _ = c.pass.TypesInfo.Uses[id].(*types.Func)
	}
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	pkg := fn.Pkg().Path()
	name := fn.Name()
	base := pkg
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	switch base {
	case "engine", "miner", "validator":
		// No std package shares these base names, so base matching is
		// unambiguous — and it lets the analysistest fixtures stand in
		// for the real packages.
		if fn.Exported() {
			return "call into block execution (" + base + "." + name + ")", true
		}
	case "persist":
		if persistBlocking[name] {
			return "persistence I/O (persist." + recvName(fn) + name + ")", true
		}
	}
	switch pkg {
	case "os":
		if osFileBlocking[name] {
			return "file I/O (os." + recvName(fn) + name + ")", true
		}
	case "time":
		if name == "Sleep" {
			return "time.Sleep", true
		}
	case "sync":
		// Cond.Wait is deliberately NOT here: it releases the mutex it
		// guards for the duration of the wait.
		if name == "Wait" && strings.Contains(recvString(fn), "WaitGroup") {
			return "sync.WaitGroup.Wait", true
		}
	}
	// The cooperative scheduler's park point (internal/runtime; the std
	// runtime package exports no Park, so the name is unambiguous).
	if base == "runtime" && name == "Park" {
		return "Thread.Park", true
	}
	return "", false
}

// recvName renders "Type)." for methods, "" for functions — purely for
// readable findings.
func recvName(fn *types.Func) string {
	if s := recvString(fn); s != "" {
		return s + "."
	}
	return ""
}

func recvString(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}
