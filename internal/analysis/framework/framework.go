// Package framework mirrors the shape of golang.org/x/tools/go/analysis
// using only the standard library, so the repo's custom analyzers can be
// written in the upstream idiom (Analyzer / Pass / Diagnostic) without
// adding a module dependency. The container this repo builds in has no
// network access and an empty module cache, so vendoring x/tools is not
// an option; the subset implemented here is exactly what the three
// menshen analyzers and the `go vet -vettool` driver need. If the
// module ever grows a real x/tools dependency,
// each analyzer ports by changing one import line.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one static check: a name (which doubles as the CLI
// flag that enables it), user-facing documentation, and the Run
// function applied once per package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and is the boolean
	// flag (-Name) that selects it on the menshen-lint command line and
	// through the `go vet -vettool` flag-discovery protocol.
	Name string
	// Doc is the analyzer's user-facing documentation: first line a
	// summary, the rest the precise rule and its escape hatches.
	Doc string
	// Run performs the check on a single type-checked package,
	// reporting findings through pass.Report. The result value is
	// unused by the drivers here but kept for upstream API parity.
	Run func(*Pass) (any, error)
}

// A Pass is one analyzer applied to one type-checked package: the
// syntax trees, the type information, and the diagnostic sink.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps every token.Pos in Files to file/line/column.
	Fset *token.FileSet
	// Files are the package's parsed source files, comments included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo carries the type-checker's results for Files (Types,
	// Defs, Uses, Selections, Implicits, Instances, Scopes).
	TypesInfo *types.Info
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding: a source position and a message. The
// message conventionally ends without punctuation and names the escape
// hatch, if any.
type Diagnostic struct {
	// Pos is where the finding anchors.
	Pos token.Pos
	// Message is the finding text.
	Message string
}

// directivePrefix introduces the repo's magic comments. A directive is
// a comment of the form `//menshen:<name> <args>` — no space after
// `//`, matching the Go convention for tool directives so gofmt leaves
// them alone and godoc hides them.
const directivePrefix = "//menshen:"

// A Directive is one parsed `//menshen:` comment.
type Directive struct {
	// Name is the directive keyword: "hotpath", "allocok",
	// "guarded-by".
	Name string
	// Args is the free text after the keyword — for allocok and
	// guarded-by a mandatory human-readable justification.
	Args string
	// Pos is the position of the comment itself.
	Pos token.Pos
}

// Directives indexes every `//menshen:` comment in a set of files, by
// enclosing function declaration and by source line, so analyzers can
// answer "is this function annotated?" and "is this site excused?".
type Directives struct {
	fset   *token.FileSet
	byFunc map[*ast.FuncDecl][]Directive
	// byLine maps filename -> line -> directives anchored there. A
	// directive applies to its own line and to the line directly below
	// it, so it can sit at the end of the offending line or alone on
	// the line above.
	byLine map[string]map[int][]Directive
}

// ScanDirectives parses every `//menshen:` comment in files, indexing
// them by line and attaching doc-comment directives to their function
// declarations.
func ScanDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{
		fset:   fset,
		byFunc: make(map[*ast.FuncDecl][]Directive),
		byLine: make(map[string]map[int][]Directive),
	}
	for _, file := range files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				name, args, _ := strings.Cut(rest, " ")
				pos := d.fset.Position(c.Slash)
				lines := d.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]Directive)
					d.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], Directive{
					Name: name,
					Args: strings.TrimSpace(args),
					Pos:  c.Slash,
				})
			}
		}
		// Attach doc-comment directives to their function declarations.
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil {
				continue
			}
			for _, c := range fn.Doc.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				name, args, _ := strings.Cut(rest, " ")
				d.byFunc[fn] = append(d.byFunc[fn], Directive{
					Name: name,
					Args: strings.TrimSpace(args),
					Pos:  c.Slash,
				})
			}
		}
	}
	return d
}

// Func returns the named directive from fn's doc comment, if present.
func (d *Directives) Func(fn *ast.FuncDecl, name string) (Directive, bool) {
	for _, dir := range d.byFunc[fn] {
		if dir.Name == name {
			return dir, true
		}
	}
	return Directive{}, false
}

// At reports whether the named directive excuses the source line of
// pos: it matches a directive on the same line, or on the line
// directly above (the standalone-comment form).
func (d *Directives) At(pos token.Pos, name string) (Directive, bool) {
	p := d.fset.Position(pos)
	lines := d.byLine[p.Filename]
	if lines == nil {
		return Directive{}, false
	}
	for _, line := range [2]int{p.Line, p.Line - 1} {
		for _, dir := range lines[line] {
			if dir.Name == name {
				return dir, true
			}
		}
	}
	return Directive{}, false
}

// InTestFile reports whether pos lies in a _test.go file. Several
// analyzers relax their rules for test code, where bounded waits and
// deliberate error discards are idiomatic.
func (d *Directives) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(d.fset.Position(pos).Filename, "_test.go")
}

// WalkStack walks the AST rooted at n in depth-first order, calling f
// with each node and the stack of its ancestors (outermost first, not
// including the node itself). If f returns false the node's children
// are skipped. Analyzers use the stack where a finding depends on
// context — e.g. a method value is fine as a call's Fun but allocates
// a closure anywhere else.
func WalkStack(n ast.Node, f func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(n, func(node ast.Node) bool {
		if node == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !f(node, stack) {
			// Children are skipped; Inspect delivers no closing nil for
			// a node whose visit returned false, so don't push it.
			return false
		}
		stack = append(stack, node)
		return true
	})
}
