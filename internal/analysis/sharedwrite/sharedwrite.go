// Package sharedwrite rejects unsynchronized writes to captured
// variables inside internal/parallel worker closures.
//
// The parallel drivers (For, ForGrain, ForBlocks, Workers, …)
// run their closure argument concurrently on many goroutines. A write to
// a variable captured from the enclosing function is therefore a data
// race unless it is one of the three patterns the runtime's contract
// allows:
//
//   - an element store into a captured slice or array (workers own
//     index-disjoint ranges; the race detector polices disjointness),
//   - a sync/atomic operation (those are method calls, not assignments,
//     so they never trip the analyzer), or
//   - a write made while holding a captured sync.Mutex/RWMutex (the
//     analyzer recognizes the lexical Lock…Unlock window inside a block).
//
// Everything else — plain stores to captured scalars, pointers, struct
// fields, map inserts — is reported. The race detector only catches such
// races when a workload happens to interleave them; this makes them a
// build-time error.
package sharedwrite

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// parallelPkg is the import path of the worker-pool runtime whose closure
// arguments this analyzer polices.
const parallelPkg = "repro/internal/parallel"

// Analyzer is the sharedwrite pass.
var Analyzer = &analysis.Analyzer{
	Name: "sharedwrite",
	Doc: "writes to variables captured by internal/parallel worker closures " +
		"must be atomic, per-index slice element stores, or mutex-guarded",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := analysis.CalleeObject(pass.Info, call)
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != parallelPkg {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					checkWorker(pass, lit)
				}
			}
			return true
		})
	}
	return nil
}

// checkWorker walks one worker closure's body, tracking which mutexes are
// lexically held, and reports disallowed writes to captured variables.
func checkWorker(pass *analysis.Pass, lit *ast.FuncLit) {
	w := &walker{pass: pass, lit: lit}
	w.stmts(lit.Body.List, nil)
}

type walker struct {
	pass *analysis.Pass
	lit  *ast.FuncLit
}

// stmts walks a statement list. held is the set of mutex objects locked
// on entry to the list; Lock/Unlock calls update a copy so sibling blocks
// are unaffected.
func (w *walker) stmts(list []ast.Stmt, held []types.Object) {
	held = append([]types.Object(nil), held...)
	for _, s := range list {
		held = w.stmt(s, held)
	}
}

// stmt walks one statement and returns the (possibly extended) set of
// held mutexes for the statements that follow it in the same block.
func (w *walker) stmt(s ast.Stmt, held []types.Object) []types.Object {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if m := w.lockedMutex(s.X, "Lock", "RLock"); m != nil {
			return append(held, m)
		}
		if m := w.lockedMutex(s.X, "Unlock", "RUnlock"); m != nil {
			return removeObj(held, m)
		}
		w.exprs(s.X)
	case *ast.DeferStmt:
		// `defer mu.Unlock()` releases at function exit, not here; the
		// matching Lock already put the mutex into held.
		if w.lockedMutex(s.Call, "Unlock", "RUnlock") == nil {
			w.exprs(s.Call)
		}
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			w.checkWrite(lhs, held)
		}
		w.exprs(s.Rhs...)
	case *ast.IncDecStmt:
		w.checkWrite(s.X, held)
	case *ast.BlockStmt:
		w.stmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		w.exprs(s.Cond)
		w.stmts(s.Body.List, held)
		if s.Else != nil {
			w.stmt(s.Else, held)
		}
	case *ast.ForStmt:
		inner := held
		if s.Init != nil {
			inner = w.stmt(s.Init, inner)
		}
		if s.Cond != nil {
			w.exprs(s.Cond)
		}
		w.stmts(s.Body.List, inner)
		if s.Post != nil {
			w.stmt(s.Post, inner)
		}
	case *ast.RangeStmt:
		if s.Key != nil && s.Tok == token.ASSIGN {
			w.checkWrite(s.Key, held)
		}
		if s.Value != nil && s.Tok == token.ASSIGN {
			w.checkWrite(s.Value, held)
		}
		w.exprs(s.X)
		w.stmts(s.Body.List, held)
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.exprs(s.Tag)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, held)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, held)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmts(cc.Body, held)
			}
		}
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	case *ast.GoStmt:
		w.exprs(s.Call)
	case *ast.ReturnStmt:
		w.exprs(s.Results...)
	case *ast.DeclStmt, *ast.BranchStmt, *ast.EmptyStmt, *ast.SendStmt:
		// Declarations introduce locals (uncaptured by definition); the
		// rest carry no captured-write surface this analyzer models.
	}
	return held
}

// exprs scans expressions for nested function literals (a closure built
// inside the worker still runs on a worker goroutine when called there).
// The mutex window does not propagate: the literal may be invoked long
// after the lock is released, so its body is checked lock-free.
func (w *walker) exprs(exprs ...ast.Expr) {
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if inner, ok := n.(*ast.FuncLit); ok {
				w.stmts(inner.Body.List, nil)
				return false
			}
			return true
		})
	}
}

// lockedMutex reports the sync.Mutex/RWMutex object when e is a call to
// one of the named methods on a mutex-typed receiver, else nil.
func (w *walker) lockedMutex(e ast.Expr, names ...string) types.Object {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	match := false
	for _, name := range names {
		if sel.Sel.Name == name {
			match = true
			break
		}
	}
	if !match {
		return nil
	}
	base, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := w.pass.Info.ObjectOf(base)
	if obj == nil || !isMutexType(obj.Type()) {
		return nil
	}
	return obj
}

func isMutexType(t types.Type) bool {
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

// checkWrite applies the capture rules to one assignment target.
func (w *walker) checkWrite(lhs ast.Expr, held []types.Object) {
	if len(held) > 0 {
		return // mutex-guarded window
	}
	sawIndex := false
	sawMapIndex := false
	sawDeref := false
	e := lhs
walk:
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			if isMap(w.pass.Info.TypeOf(x.X)) {
				sawMapIndex = true
			}
			sawIndex = true
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			sawDeref = true
			e = x.X
		default:
			break walk
		}
	}
	base, ok := e.(*ast.Ident)
	if !ok || base.Name == "_" {
		return
	}
	obj := w.pass.Info.ObjectOf(base)
	if obj == nil || obj.Pos() == 0 {
		return
	}
	// Captured means declared outside the worker literal's extent. The
	// literal's own parameters and locals fall inside it.
	if obj.Pos() >= w.lit.Pos() && obj.Pos() <= w.lit.End() {
		return
	}
	if _, isVar := obj.(*types.Var); !isVar {
		return
	}
	switch {
	case sawMapIndex:
		w.pass.Reportf(lhs.Pos(),
			"write to captured map %s inside a parallel worker: map inserts are never index-disjoint; guard with a mutex or build per-worker maps", base.Name)
	case sawDeref:
		w.pass.Reportf(lhs.Pos(),
			"write through captured pointer %s inside a parallel worker: all workers share the pointee; use sync/atomic or a mutex", base.Name)
	case sawIndex:
		// Per-index element store into a captured slice/array: the
		// runtime's sanctioned pattern (disjointness is the -race suite's
		// job, not a static property).
	default:
		w.pass.Reportf(lhs.Pos(),
			"unsynchronized write to captured variable %s inside a parallel worker: use sync/atomic, a per-index slice store, or a mutex", base.Name)
	}
}

func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func removeObj(objs []types.Object, o types.Object) []types.Object {
	out := objs[:0]
	for _, x := range objs {
		if x != o {
			out = append(out, x)
		}
	}
	return out
}
