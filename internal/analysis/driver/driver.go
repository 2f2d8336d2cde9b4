// Package driver runs framework analyzers as a `go vet -vettool`:
// cmd/go invokes the binary once per package unit and the driver
// speaks cmd/go's unitchecker protocol (unitchecker.go). Since go vet
// feeds the tool the test units too, test files are analyzed as well.
//
// The driver is stdlib-only; see framework's package doc for why
// golang.org/x/tools is not an option here.
package driver

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis/framework"
)

// Main is the vettool entry point; it never returns.
func Main(analyzers []*framework.Analyzer) {
	progname := filepath.Base(os.Args[0])
	log.SetFlags(0)
	log.SetPrefix(progname + ": ")
	args := os.Args[1:]

	// `go vet` version handshake: the go command content-addresses the
	// tool by this line, so the buildID must change whenever the
	// binary does — hash the executable itself.
	if len(args) == 1 && strings.HasPrefix(args[0], "-V=") {
		if args[0] != "-V=full" {
			log.Fatalf("unsupported version flag %s", args[0])
		}
		fmt.Printf("%s version devel buildID=%s\n", progname, selfHash())
		os.Exit(0)
	}

	// `go vet` flag discovery: a JSON list of the flags the tool
	// accepts, which go vet validates user flags against.
	if len(args) == 1 && args[0] == "-flags" {
		printFlags(analyzers)
		os.Exit(0)
	}

	fs := flag.NewFlagSet(progname, flag.ExitOnError)
	enabled := make(map[string]*bool, len(analyzers))
	for _, a := range analyzers {
		enabled[a.Name] = fs.Bool(a.Name, false, firstLine(a.Doc))
	}
	fs.Parse(args)

	// Vet semantics: naming any analyzer flag selects that subset;
	// naming none runs them all.
	var selected []*framework.Analyzer
	for _, a := range analyzers {
		if *enabled[a.Name] {
			selected = append(selected, a)
		}
	}
	if len(selected) == 0 {
		selected = analyzers
	}

	rest := fs.Args()
	if len(rest) != 1 || !strings.HasSuffix(rest[0], ".cfg") {
		log.Fatalf("run under the go command: go vet -vettool=$(which %s) [-analyzer]... [package pattern]...", progname)
	}
	runUnit(rest[0], selected) // exits
}

// selfHash returns a short hex digest of the running executable.
func selfHash() string {
	exe, err := os.Executable()
	if err == nil {
		if f, err := os.Open(exe); err == nil {
			defer f.Close()
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				return fmt.Sprintf("%x", h.Sum(nil)[:12])
			}
		}
	}
	// Degraded fallback: still a valid buildID, just not content-true.
	return "unknown"
}

func printFlags(analyzers []*framework.Analyzer) {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var flags []jsonFlag
	for _, a := range analyzers {
		flags = append(flags, jsonFlag{Name: a.Name, Bool: true, Usage: firstLine(a.Doc)})
	}
	data, err := json.Marshal(flags)
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)
	fmt.Println()
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

// newInfo allocates the full set of type-checker result maps.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// runAnalyzers applies each analyzer to the package and renders the
// combined findings as "file:line:col: message [analyzer]" lines.
func runAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*framework.Analyzer) ([]string, error) {
	type posDiag struct {
		pos  token.Pos
		text string
	}
	var all []posDiag
	for _, a := range analyzers {
		pass := &framework.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report:    nil,
		}
		name := a.Name
		pass.Report = func(d framework.Diagnostic) {
			all = append(all, posDiag{d.Pos, fmt.Sprintf("%s: %s [%s]", fset.Position(d.Pos), d.Message, name)})
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].pos < all[j].pos })
	out := make([]string, len(all))
	for i, d := range all {
		out[i] = d.text
	}
	return out, nil
}
