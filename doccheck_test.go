package menshen

// The docs-pass guard: every exported identifier in the packages below
// — this facade package among them — must carry a doc
// comment (the revive `exported` rule, implemented with go/ast so the
// check needs no external tooling). CI runs it on every push, so the
// documentation of the concurrency/buffer-ownership invariants cannot
// silently rot as the surface grows.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// docCheckedDirs are the packages held to the every-exported-identifier
// documentation bar.
var docCheckedDirs = []string{
	".",
	"internal/engine",
	"internal/sched",
	"internal/fabric",
	"internal/reconfig",
	"internal/ctrlplane",
	"internal/obs",
	"internal/ingress",
	"internal/faultinject",
	"internal/trafficgen",
	"internal/mmsg",
	"internal/analysis/framework",
	"internal/analysis/analysistest",
	"internal/analysis/driver",
	"internal/analysis/hotpath",
	"internal/analysis/hotpathalloc",
	"internal/analysis/atomicfield",
	"internal/analysis/countederr",
}

// TestExportedDocComments fails for every exported type, function,
// method, constant, variable, struct field, or interface method in the
// checked packages that lacks a doc comment (a grouped declaration's
// comment covers its members, matching revive's exported rule).
func TestExportedDocComments(t *testing.T) {
	for _, dir := range docCheckedDirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			if strings.HasSuffix(pkg.Name, "_test") {
				continue
			}
			for fname, file := range pkg.Files {
				if strings.HasSuffix(fname, "_test.go") {
					continue
				}
				checkFileDocs(t, fset, file)
			}
		}
	}
}

func checkFileDocs(t *testing.T, fset *token.FileSet, file *ast.File) {
	t.Helper()
	report := func(pos token.Pos, what, name string) {
		t.Errorf("%s: exported %s %s has no doc comment", fset.Position(pos), what, name)
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !receiverExported(d) {
				continue
			}
			if d.Doc == nil {
				report(d.Pos(), "function", d.Name.Name)
			}
		case *ast.GenDecl:
			groupDoc := d.Doc != nil
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if !s.Name.IsExported() {
						continue
					}
					if !groupDoc && s.Doc == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
					checkTypeMembers(t, fset, s)
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if !name.IsExported() {
							continue
						}
						if !groupDoc && s.Doc == nil && s.Comment == nil {
							report(name.Pos(), "value", name.Name)
						}
					}
				}
			}
		}
	}
}

// receiverExported reports whether a method's receiver type is
// exported (methods on unexported types are not part of the surface).
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true // plain function
	}
	typ := d.Recv.List[0].Type
	for {
		switch v := typ.(type) {
		case *ast.StarExpr:
			typ = v.X
		case *ast.IndexExpr:
			typ = v.X
		case *ast.Ident:
			return v.IsExported()
		default:
			return true // unusual receiver: err toward checking
		}
	}
}

// checkTypeMembers requires docs on exported struct fields and
// interface methods of an exported type.
func checkTypeMembers(t *testing.T, fset *token.FileSet, s *ast.TypeSpec) {
	t.Helper()
	var fields *ast.FieldList
	what := "struct field"
	switch v := s.Type.(type) {
	case *ast.StructType:
		fields = v.Fields
	case *ast.InterfaceType:
		fields = v.Methods
		what = "interface method"
	default:
		return
	}
	for _, f := range fields.List {
		if f.Doc != nil || f.Comment != nil {
			continue
		}
		for _, name := range f.Names {
			if name.IsExported() {
				t.Errorf("%s: exported %s %s.%s has no doc comment",
					fset.Position(name.Pos()), what, s.Name.Name, name.Name)
			}
		}
	}
}
