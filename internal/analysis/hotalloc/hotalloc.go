// Package hotalloc proves the hot-path allocation discipline: a
// function marked with the //dsd:hotpath directive — an inner-loop
// kernel such as the h-index sweep bodies, the peeling loops, or the
// FISTA iteration — must be allocation-free in steady state, and so
// must everything it transitively calls.
//
// The analyzer works in two passes, reusing the lockorder module-pass
// machinery:
//
//   - pass 1 indexes every function declaration in the loaded set,
//     records whether its body contains an allocating construct, and
//     propagates "may allocate" over resolvable calls to a fixed
//     point, so a kernel calling a helper that calls make is caught
//     two hops away;
//   - pass 2 lexically walks each //dsd:hotpath function and reports
//     every allocating construct and every call whose summary may
//     allocate.
//
// Rejected constructs: make/new, slice and map composite literals
// (and taking the address of any composite literal), append, map
// writes, string conversion and concatenation, interface boxing at
// call sites, variadic calls (the argument slice), capturing function
// literals and method values, go statements, and any call into fmt or
// log. Dynamic calls through function values cannot be proven
// allocation-free and are rejected too; store prebound method values
// in a scratch struct instead.
//
// Escape hatches and trust boundaries:
//
//   - //dsd:alloc-ok <reason>, trailing a statement or standalone on
//     the line above it, waives findings on that line — for amortized
//     allocations like a pooled buffer's first-use growth. The reason
//     is mandatory; a bare directive suppresses nothing. Waived sites
//     are also excluded from the function's summary, so the waiver
//     covers callers.
//   - trustedPkgs (the parallel runtime and the fault injector) are
//     exempt: parallel.For spawns goroutines per region at p > 1,
//     an amortized fan-out cost that vanishes on the p = 1 path the
//     zero-alloc tests measure; the discipline polices per-element
//     allocation, not region setup.
//   - cleanPkgs (math, sync, sync/atomic, ...) are stdlib packages
//     audited as allocation-free for the calls this codebase makes.
//     Any other external call is rejected as unaudited.
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"

	"repro/internal/analysis"
)

var (
	// trustedPkgs are module packages whose calls are exempt from the
	// discipline: the parallel runtime's region fan-out is an amortized
	// cost the p = 1 measurement path never pays, and the fault
	// injector's hooks compile to an atomic load when disarmed.
	trustedPkgs = []string{
		"repro/internal/parallel",
		"repro/internal/faultinject",
	}
	// cleanPkgs are external packages audited as allocation-free for
	// the calls hot paths make into them.
	cleanPkgs = []string{
		"math",
		"math/bits",
		"sync",
		"sync/atomic",
		"unsafe",
		"runtime",
	}
	// bannedPkgs always allocate (formatting machinery) and get a
	// dedicated diagnostic.
	bannedPkgs = []string{"fmt", "log"}
)

// Analyzer is the hotalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "functions marked //dsd:hotpath, and everything they transitively call, " +
		"must be allocation-free — make/new/append, composite literals, map writes, " +
		"string conversion/concat, boxing, closures and fmt/log calls are rejected " +
		"unless a //dsd:alloc-ok <reason> waives the line",
	RunModule: run,
}

// funcInfo is one indexed function declaration plus its transitive
// allocation summary.
type funcInfo struct {
	pkg     *analysis.Package
	decl    *ast.FuncDecl
	reason  string // non-empty when the function may allocate; says why
	callees []*types.Func
}

func run(pass *analysis.ModulePass) error {
	modPkgs := map[string]bool{}
	for _, pkg := range pass.Pkgs {
		modPkgs[pkg.Path] = true
	}

	// Pass 1: index every function declaration with its direct
	// allocation reason (waived sites excluded) and resolvable callees.
	index := map[*types.Func]*funcInfo{}
	var order []*funcInfo // deterministic propagation order
	for _, pkg := range pass.Pkgs {
		if inList(trustedPkgs, pkg.Path) {
			continue
		}
		for _, file := range pkg.Files {
			okLines := analysis.AllocOKLines(pkg.Fset, file)
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &funcInfo{pkg: pkg, decl: fd}
				c := &checker{
					pkg:     pkg,
					modPkgs: modPkgs,
					emit: waiverFilter(pkg, okLines, func(pos token.Pos, msg string) {
						if fi.reason == "" {
							p := pkg.Fset.Position(pos)
							fi.reason = fmt.Sprintf("%s at %s:%d", msg, filepath.Base(p.Filename), p.Line)
						}
					}),
					onModuleCall: func(_ token.Pos, fn *types.Func) {
						fi.callees = append(fi.callees, fn)
					},
				}
				c.walk(fd.Body)
				index[obj] = fi
				order = append(order, fi)
			}
		}
	}

	// Fixed point: a function calling a may-allocate function may
	// allocate. The ordered slice keeps the chosen reason chain
	// deterministic across runs.
	for changed := true; changed; {
		changed = false
		for _, fi := range order {
			if fi.reason != "" {
				continue
			}
			for _, callee := range fi.callees {
				ci, ok := index[callee]
				if !ok || ci.reason == "" {
					continue
				}
				fi.reason = fmt.Sprintf("calls %s, which may allocate (%s)", callee.Name(), ci.reason)
				changed = true
				break
			}
		}
	}

	// Pass 2: report every allocating construct, and every call to a
	// may-allocate function, inside each //dsd:hotpath function.
	for _, pkg := range pass.Pkgs {
		if inList(trustedPkgs, pkg.Path) {
			continue
		}
		for _, file := range pkg.Files {
			okLines := analysis.AllocOKLines(pkg.Fset, file)
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !analysis.IsHotPath(fd) {
					continue
				}
				if fd.Body == nil {
					pass.Reportf(pkg, fd.Pos(), "//dsd:hotpath on a function without a body")
					continue
				}
				name := declName(fd)
				report := waiverFilter(pkg, okLines, func(pos token.Pos, msg string) {
					pass.Reportf(pkg, pos, "hot path %s: %s", name, msg)
				})
				c := &checker{
					pkg:     pkg,
					modPkgs: modPkgs,
					emit:    report,
					onModuleCall: func(pos token.Pos, fn *types.Func) {
						if fi, ok := index[fn]; ok && fi.reason != "" {
							report(pos, fmt.Sprintf("calls %s, which may allocate (%s)", fn.Name(), fi.reason))
						}
					},
				}
				c.walk(fd.Body)
			}
		}
	}
	return nil
}

// declName renders a declaration as "Func" or "Recv.Method".
func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// waiverFilter wraps a diagnostic sink with //dsd:alloc-ok handling: a
// waived line is silenced, a reason-less waiver annotates the finding
// instead of silencing it.
func waiverFilter(pkg *analysis.Package, okLines map[int]analysis.AllocOK, sink func(token.Pos, string)) func(token.Pos, string) {
	return func(pos token.Pos, msg string) {
		if ok, found := okLines[pkg.Fset.Position(pos).Line]; found {
			if ok.Reason != "" {
				return
			}
			msg += " (the //dsd:alloc-ok directive is missing its reason, so it suppresses nothing)"
		}
		sink(pos, msg)
	}
}

func inList(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// checker walks one function body emitting allocating constructs.
// Summary collection and hot-path reporting share it: only the emit
// sink and the module-call hook differ.
type checker struct {
	pkg          *analysis.Package
	modPkgs      map[string]bool
	emit         func(token.Pos, string)
	onModuleCall func(token.Pos, *types.Func)

	callFuns map[ast.Expr]bool // expressions in call-function position
}

func (c *checker) walk(body ast.Node) {
	c.callFuns = map[ast.Expr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			c.callFuns[ast.Unparen(call.Fun)] = true
		}
		return true
	})
	info := c.pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			c.call(n)
		case *ast.CompositeLit:
			if t := info.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					c.emit(n.Pos(), "composite literal allocates a slice")
				case *types.Map:
					c.emit(n.Pos(), "composite literal allocates a map")
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					c.emit(n.Pos(), "taking the address of a composite literal allocates")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(info.TypeOf(n)) && info.Types[n].Value == nil {
				c.emit(n.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(info.TypeOf(n.Lhs[0])) {
				c.emit(n.Pos(), "string concatenation allocates")
			}
			for _, lhs := range n.Lhs {
				c.mapWrite(lhs)
			}
		case *ast.IncDecStmt:
			c.mapWrite(n.X)
		case *ast.GoStmt:
			c.emit(n.Pos(), "go statement allocates a new goroutine")
		case *ast.FuncLit:
			if capt := capturedVar(info, n); capt != "" {
				c.emit(n.Pos(), fmt.Sprintf("function literal captures %s; creating the closure allocates", capt))
			}
		case *ast.SelectorExpr:
			if !c.callFuns[n] {
				if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal {
					c.emit(n.Pos(), "method value binds its receiver and allocates")
				}
			}
		}
		return true
	})
}

func (c *checker) mapWrite(lhs ast.Expr) {
	ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return
	}
	if t := c.pkg.Info.TypeOf(ix.X); t != nil {
		if _, isMap := t.Underlying().(*types.Map); isMap {
			c.emit(lhs.Pos(), "map write may allocate")
		}
	}
}

// call classifies one call expression: conversion, builtin, trusted,
// banned, in-module (delegated to the hook), audited-clean external,
// or unaudited external.
func (c *checker) call(call *ast.CallExpr) {
	info := c.pkg.Info
	if tv, ok := info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() {
		if info.Types[call].Value == nil && len(call.Args) == 1 {
			c.convert(call, tv.Type, info.TypeOf(call.Args[0]))
		}
		return
	}
	obj := analysis.CalleeObject(info, call)
	if b, ok := obj.(*types.Builtin); ok {
		switch b.Name() {
		case "make":
			c.emit(call.Pos(), fmt.Sprintf("makes a %s", types.ExprString(call.Args[0])))
		case "new":
			c.emit(call.Pos(), fmt.Sprintf("calls new(%s)", types.ExprString(call.Args[0])))
		case "append":
			c.emit(call.Pos(), "append may grow its backing array")
		case "print", "println":
			c.emit(call.Pos(), fmt.Sprintf("calls %s, which allocates", b.Name()))
		}
		return
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		c.emit(call.Pos(), "dynamic call through a function value cannot be proven allocation-free")
		return
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return
	}
	path := pkg.Path()
	switch {
	case inList(trustedPkgs, path):
	case inList(bannedPkgs, path):
		c.emit(call.Pos(), fmt.Sprintf("calls %s.%s, which formats and allocates", pkg.Name(), fn.Name()))
	case c.modPkgs[path]:
		c.callArgs(call, fn)
		c.onModuleCall(call.Pos(), fn)
	case inList(cleanPkgs, path):
		c.callArgs(call, fn)
	default:
		c.emit(call.Pos(), fmt.Sprintf("calls %s.%s, which is not audited for allocation-freedom", pkg.Name(), fn.Name()))
	}
}

// callArgs flags interface boxing of arguments and variadic argument
// slices on calls that are otherwise allowed.
func (c *checker) callArgs(call *ast.CallExpr, fn *types.Func) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	info := c.pkg.Info
	fixed := sig.Params().Len()
	if sig.Variadic() {
		fixed--
		if !call.Ellipsis.IsValid() && len(call.Args) > fixed {
			c.emit(call.Pos(), "variadic call allocates its argument slice")
		}
	}
	for i := 0; i < fixed && i < len(call.Args); i++ {
		pt := sig.Params().At(i).Type()
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := info.TypeOf(call.Args[i])
		if at == nil || pointerShaped(at) || info.Types[call.Args[i]].IsNil() {
			continue
		}
		if _, already := at.Underlying().(*types.Interface); already {
			continue
		}
		c.emit(call.Args[i].Pos(), fmt.Sprintf("argument boxes a %s into an interface parameter and allocates", at.String()))
	}
}

// convert flags the allocating conversions: anything-to-string,
// string-to-byte/rune-slice, and boxing into an interface type.
func (c *checker) convert(call *ast.CallExpr, to, from types.Type) {
	if to == nil || from == nil {
		return
	}
	switch tu := to.Underlying().(type) {
	case *types.Basic:
		if tu.Info()&types.IsString != 0 && !isString(from) {
			c.emit(call.Pos(), "conversion to string allocates")
		}
	case *types.Slice:
		if isString(from) {
			c.emit(call.Pos(), "conversion from string to a byte or rune slice allocates")
		}
	case *types.Interface:
		if _, already := from.Underlying().(*types.Interface); !already && !pointerShaped(from) {
			c.emit(call.Pos(), fmt.Sprintf("conversion boxes a %s into an interface and allocates", from.String()))
		}
	}
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// pointerShaped reports whether values of t fit in one pointer word and
// so box into an interface without allocating.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// capturedVar returns the name of one variable the literal captures
// from its enclosing function, or "" for a static (capture-free)
// closure. Package-level variables and struct fields are reached
// through stable storage and do not force a heap closure.
func capturedVar(info *types.Info, lit *ast.FuncLit) string {
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Parent() == nil {
			return true
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = v.Name()
			return false
		}
		return true
	})
	return captured
}
