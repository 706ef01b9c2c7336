// Package registry proves that the repository's hand-kept name
// registries equal their declarations, and that use sites name a
// registered entry.
//
// A name registry is a set of declared names plus a function returning
// a slice literal that lists them. Chaos tests, dashboards, clients and
// the zero-alloc tests iterate the function, so a name it misses is a
// name nothing checks, and a name typed out by hand at a use site can
// silently match nothing. Five registries follow the pattern:
//
//   - probe sites: the Site* constants of internal/faultinject, Sites();
//   - error codes: the Code* constants of internal/server, Codes();
//   - expvar names: the Metric* constants of internal/server and of
//     internal/live, MetricNames() in each;
//   - hot-path kernels: the //dsd:hotpath declarations of any package,
//     HotPaths(), listed as "Func" or "Type.Method" string literals.
//
// For each, every entry must resolve to a declared name and be listed
// once, every declared name must be listed, a package with names must
// declare the registry function, and a registry function with no names
// behind it is stale. Three use-site rules ride along:
//
//   - the first argument of faultinject.Hit/Fire is a registered Site*
//     constant (the faultinject package's own wrappers may forward a
//     parameter);
//   - the first argument of the expvar registrars is a registered
//     Metric* constant;
//   - the code of an apiError literal, keyed or positional, or of a
//     .code assignment is a registered Code* constant, or a copy of
//     another apiError's code.
//
// The analyzer checks structure only. The registered values (distinct,
// snake_case) are checked at run time by TestSitesRegistryDistinct,
// TestErrorCodeRegistry and TestMetricNameRegistry, which iterate the
// registry functions; because this analyzer proves those functions list
// every constant, the runtime tests cover every constant.
package registry

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

const (
	faultPkg  = "repro/internal/faultinject"
	serverPkg = "repro/internal/server"
	livePkg   = "repro/internal/live"
)

// registry is one name registry and the texts of its diagnostics.
type registry struct {
	pkg    string // owning package; "" means any package
	prefix string // declared names are exported constants with this prefix; "" means //dsd:hotpath declarations
	fn     string // the registry function

	noFunc  string // names declared but no registry function
	orphan  string // a registry function but no names declared
	stale   string // an entry that names nothing declared; %s is the entry
	missing string // a declared name the function does not list; %s is the name
}

var (
	sites = &registry{
		pkg: faultPkg, prefix: "Site", fn: "Sites",
		noFunc:  "package declares Site* probe constants but no Sites() registry table",
		orphan:  "Sites() registry in a package with no Site* constants; delete it or declare them",
		stale:   "Sites() lists %s, which is not a registered Site* constant",
		missing: "Sites() is missing %s: chaos coverage driven by the table will never exercise that probe",
	}
	codes = &registry{
		pkg: serverPkg, prefix: "Code", fn: "Codes",
		noFunc:  "package declares Code* constants but no Codes() registry function",
		orphan:  "Codes() registry in a package with no Code* constants; delete it or declare them",
		stale:   "Codes() entry is not a Code* constant: %s",
		missing: "%s is not listed in the Codes() registry",
	}
	serverMetrics = metricNames(serverPkg)
	liveMetrics   = metricNames(livePkg)
	hotPaths      = &registry{
		fn:      "HotPaths",
		noFunc:  "package has //dsd:hotpath kernels but no HotPaths() registry; the zero-alloc tests cannot find them",
		orphan:  "HotPaths() registry in a package with no //dsd:hotpath kernels; delete it or mark the kernels",
		stale:   "HotPaths() lists %s, which is not a //dsd:hotpath-marked function in this package",
		missing: "hot-path kernel %s is not listed in HotPaths(); the zero-alloc tests will not cover it",
	}
	registries = []*registry{sites, codes, serverMetrics, liveMetrics, hotPaths}
)

// metricNames is the expvar-name registry of one package.
func metricNames(pkg string) *registry {
	return &registry{
		pkg: pkg, prefix: "Metric", fn: "MetricNames",
		noFunc:  "package declares Metric* constants but no MetricNames() registry function",
		orphan:  "MetricNames() registry in a package with no Metric* constants; delete it or declare them",
		stale:   "MetricNames() entry is not a registered Metric* constant: %s",
		missing: "%s is not listed in the MetricNames() registry",
	}
}

// registrars are the expvar calls that bind a metric name.
var registrars = map[string]bool{
	"Publish":   true,
	"NewInt":    true,
	"NewFloat":  true,
	"NewMap":    true,
	"NewString": true,
}

// Analyzer is the registry pass.
var Analyzer = &analysis.Analyzer{
	Name: "registry",
	Doc: "the Sites(), Codes(), MetricNames() and HotPaths() registries must list exactly " +
		"their declared names, and probe, expvar and apiError code sites must name a registered constant",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, r := range registries {
		if r.pkg == "" || r.pkg == pass.Pkg.Path() {
			r.check(pass)
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.CompositeLit:
				if isAPIError(pass.Info.TypeOf(n)) {
					checkLiteral(pass, n)
				}
			case *ast.AssignStmt:
				checkAssign(pass, n)
			}
			return true
		})
	}
	return nil
}

// declares reports whether c is one of r's declared names.
func (r *registry) declares(c *types.Const) bool {
	return c != nil && r.prefix != "" && c.Pkg() != nil && c.Pkg().Path() == r.pkg &&
		c.Pkg().Scope().Lookup(c.Name()) == c && strings.HasPrefix(c.Name(), r.prefix)
}

// declared is one name a package declares into a registry.
type declared struct {
	name string
	pos  token.Pos
}

// names returns the package's declared names in source order.
func (r *registry) names(pass *analysis.Pass) []declared {
	var names []declared
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if r.prefix == "" && analysis.IsHotPath(d) {
					names = append(names, declared{declName(d), d.Pos()})
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, id := range vs.Names {
						if c, _ := pass.Info.Defs[id].(*types.Const); r.declares(c) {
							names = append(names, declared{id.Name, id.Pos()})
						}
					}
				}
			}
		}
	}
	return names
}

// check proves the registry function lists exactly the declared names.
func (r *registry) check(pass *analysis.Pass) {
	names := r.names(pass)
	fn, entries := registryFunc(pass, r.fn)
	if fn == nil {
		if len(names) > 0 {
			pass.Reportf(names[0].pos, "%s", r.noFunc)
		}
		return
	}
	if len(names) == 0 {
		pass.Reportf(fn.Pos(), "%s", r.orphan)
		return
	}
	isDeclared := map[string]bool{}
	for _, n := range names {
		isDeclared[n.name] = true
	}
	listed := map[string]bool{}
	for _, e := range entries {
		name, ok := r.entryName(pass, e)
		switch {
		case !ok:
		case !isDeclared[name]:
			pass.Reportf(e.Pos(), r.stale, types.ExprString(e))
		case listed[name]:
			pass.Reportf(e.Pos(), "%s listed twice in %s()", name, r.fn)
		default:
			listed[name] = true
		}
	}
	for _, n := range names {
		if !listed[n.name] {
			pass.Reportf(n.pos, r.missing, n.name)
		}
	}
}

// entryName returns the name a registry entry lists: a constant's name,
// "" for a constant-registry entry that is not a declared constant, or
// the string of a HotPaths() literal. A HotPaths() entry must be a string
// literal; ok is false, with the finding reported, when it is not.
func (r *registry) entryName(pass *analysis.Pass, e ast.Expr) (name string, ok bool) {
	if r.prefix != "" {
		if c := constOf(pass.Info, e); r.declares(c) {
			return c.Name(), true
		}
		return "", true
	}
	if lit, isLit := ast.Unparen(e).(*ast.BasicLit); isLit && lit.Kind == token.STRING {
		if s, err := strconv.Unquote(lit.Value); err == nil {
			return s, true
		}
	}
	pass.Reportf(e.Pos(), "%s() entry must be a literal string naming a //dsd:hotpath function", r.fn)
	return "", false
}

// registryFunc returns the package-level function named fn and the
// elements of the first slice literal in its body, or nil when the
// package declares no such function.
func registryFunc(pass *analysis.Pass, fn string) (*ast.FuncDecl, []ast.Expr) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != fn || fd.Recv != nil || fd.Body == nil {
				continue
			}
			var entries []ast.Expr
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.CompositeLit); ok {
					entries = append(entries, lit.Elts...)
					return false
				}
				return true
			})
			return fd, entries
		}
	}
	return nil, nil
}

// declName renders a declaration as "Func" or "Type.Method", the
// HotPaths() naming convention.
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

// constOf returns the constant e names, or nil.
func constOf(info *types.Info, e ast.Expr) *types.Const {
	var obj types.Object
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = info.ObjectOf(x)
	case *ast.SelectorExpr:
		obj = info.ObjectOf(x.Sel)
	}
	c, _ := obj.(*types.Const)
	return c
}

// describe names a rejected value in a diagnostic.
func describe(info *types.Info, e ast.Expr) string {
	if tv, ok := info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return "the string literal " + tv.Value.String()
	}
	return "an arbitrary expression"
}

// checkCall polices the name argument of faultinject.Hit/Fire and of
// the expvar registrars.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn, ok := analysis.CalleeObject(pass.Info, call).(*types.Func)
	if !ok || fn.Pkg() == nil || len(call.Args) == 0 {
		return
	}
	arg := ast.Unparen(call.Args[0])
	switch path := fn.Pkg().Path(); {
	case path == faultPkg && (fn.Name() == "Hit" || fn.Name() == "Fire"):
		checkProbe(pass, arg)
	case path == "expvar" && registrars[fn.Name()]:
		if c := constOf(pass.Info, arg); !serverMetrics.declares(c) && !liveMetrics.declares(c) {
			pass.Reportf(arg.Pos(),
				"expvar.%s name must be a registered Metric* constant from a metric registry package, not %s",
				fn.Name(), describe(pass.Info, arg))
		}
	}
}

// checkProbe polices one Hit/Fire probe-name argument.
func checkProbe(pass *analysis.Pass, arg ast.Expr) {
	tv, ok := pass.Info.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		// Inside the registry package itself, Hit/Fire wrappers forward
		// their own `site` parameter; that plumbing is not a probe site.
		if id, isIdent := arg.(*ast.Ident); isIdent && pass.Pkg.Path() == faultPkg {
			if _, isVar := pass.Info.ObjectOf(id).(*types.Var); isVar {
				return
			}
		}
		pass.Reportf(arg.Pos(),
			"probe name must be a compile-time string constant from the faultinject registry, not a computed value")
		return
	}
	if !sites.declares(constOf(pass.Info, arg)) {
		pass.Reportf(arg.Pos(),
			"probe name %s is not a registered faultinject.Site* constant; a typo here silently disables the chaos test that arms it",
			tv.Value.ExactString())
	}
}

// isAPIError reports whether t (possibly behind a pointer) is the
// serving tier's structured error type.
func isAPIError(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == serverPkg && obj.Name() == "apiError"
}

// checkAssign polices writes to an apiError's code field.
func checkAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	for i, lhs := range as.Lhs {
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "code" || i >= len(as.Rhs) || !isAPIError(pass.Info.TypeOf(sel.X)) {
			continue
		}
		if !isCode(pass.Info, as.Rhs[i]) {
			pass.Reportf(as.Rhs[i].Pos(),
				"assignment to apiError.code must use a registered Code* constant from %s", serverPkg)
		}
	}
}

// checkLiteral polices one apiError composite literal.
func checkLiteral(pass *analysis.Pass, lit *ast.CompositeLit) {
	code := codeElt(pass.Info, lit)
	if code == nil {
		pass.Reportf(lit.Pos(),
			"apiError literal without a code: every structured error must name a registered Code* constant")
	} else if !isCode(pass.Info, code) {
		pass.Reportf(code.Pos(), "apiError code must be a registered Code* constant from %s, not %s",
			serverPkg, describe(pass.Info, code))
	}
}

// codeElt returns the element of an apiError literal that sets the code
// field, keyed or positional, or nil.
func codeElt(info *types.Info, lit *ast.CompositeLit) ast.Expr {
	st, _ := info.TypeOf(lit).Underlying().(*types.Struct)
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "code" {
				return kv.Value
			}
		} else if st != nil && i < st.NumFields() && st.Field(i).Name() == "code" {
			return elt
		}
	}
	return nil
}

// isCode accepts a registered Code* constant, or forwarding an existing
// error's code (`e.code` where e is itself an apiError), since that value
// already passed this check where it was born.
func isCode(info *types.Info, e ast.Expr) bool {
	if codes.declares(constOf(info, e)) {
		return true
	}
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "code" && isAPIError(info.TypeOf(sel.X))
}
