package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant check. Run inspects a single
// type-checked package and reports findings through the Pass; analyzers
// whose invariant spans packages (a lock acquired in internal/server,
// released by a callee in internal/live) set RunModule instead and see
// the whole loaded package set at once.
type Analyzer struct {
	// Name is the short identifier used in diagnostics and -run filters.
	Name string
	// Doc is a one-paragraph description of the invariant the analyzer
	// encodes (shown by `dsdlint -list`).
	Doc string
	// Run performs the analysis. A returned error is an analyzer failure
	// (a bug or unusable input), not a finding; findings go through
	// Pass.Reportf.
	Run func(*Pass) error
	// RunModule, when non-nil, is invoked once with every loaded package
	// instead of Run being invoked per package. Use it for analyses that
	// need call-graph or summary information across package boundaries.
	// Exactly one of Run and RunModule must be set.
	RunModule func(*ModulePass) error
}

// Pass carries one analyzer's view of one package: the parsed syntax, the
// type-checked package object, and the full types.Info side tables.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one finding: a position, the analyzer that produced it,
// and the message.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic in the conventional file:line:col form
// compilers and editors understand.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ModulePass carries one module-wide analyzer's view of every loaded
// package. Packages loaded together share one token.FileSet, but
// positions are still resolved through the owning package so a pass
// mixing sources from different loads (as the test harness does) reports
// correct locations.
type ModulePass struct {
	Analyzer *Analyzer
	Pkgs     []*Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos, resolved through pkg's file set.
func (p *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies every analyzer to every package and returns the combined
// findings sorted by file, line and column. An analyzer error aborts the
// run: it means the suite itself is broken, which must not be mistaken
// for a clean bill of health.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		mpass := &ModulePass{Analyzer: a, Pkgs: pkgs, diags: &diags}
		if err := a.RunModule(mpass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// CalleeObject resolves the object a call expression invokes: the
// function or method object for plain and selector calls, nil for
// indirect calls through function values or type conversions.
func CalleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.ObjectOf(fun)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		return info.ObjectOf(fun.Sel)
	}
	return nil
}
