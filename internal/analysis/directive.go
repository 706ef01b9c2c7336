package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The dsdlint directive grammar, modeled on the compiler's //go:
// pragmas: a line comment with no space after the slashes, attached to
// the construct it governs.
//
//	//dsd:hotpath
//	    on a function declaration's doc comment: the function is an
//	    inner-loop kernel that must be allocation-free, transitively
//	    (checked by hotalloc) and listed in HotPaths() (registry).
//
//	//dsd:alloc-ok <reason>
//	    trailing a statement, or standalone on the line above it:
//	    waives hotalloc diagnostics on that line. The reason is
//	    mandatory — a bare waiver suppresses nothing.
const (
	// HotPathDirective marks a function declaration as a hot-path kernel.
	HotPathDirective = "//dsd:hotpath"
	// AllocOKDirective waives hotalloc findings on one line, with a reason.
	AllocOKDirective = "//dsd:alloc-ok"
)

// IsHotPath reports whether fd's doc comment carries the
// //dsd:hotpath directive.
func IsHotPath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == HotPathDirective {
			return true
		}
	}
	return false
}

// AllocOK describes one //dsd:alloc-ok directive occurrence.
type AllocOK struct {
	Pos    token.Pos
	Reason string // empty when the mandatory reason is missing
}

// AllocOKLines indexes a file's //dsd:alloc-ok directives by the line
// they waive: the directive's own line (trailing form) and the line
// below it (standalone form). When both forms land on one line the
// trailing directive wins.
func AllocOKLines(fset *token.FileSet, file *ast.File) map[int]AllocOK {
	lines := map[int]AllocOK{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if c.Text != AllocOKDirective && !strings.HasPrefix(c.Text, AllocOKDirective+" ") {
				continue
			}
			ok := AllocOK{
				Pos:    c.Pos(),
				Reason: strings.TrimSpace(strings.TrimPrefix(c.Text, AllocOKDirective)),
			}
			line := fset.Position(c.Pos()).Line
			lines[line] = ok
			if _, taken := lines[line+1]; !taken {
				lines[line+1] = ok
			}
		}
	}
	return lines
}
