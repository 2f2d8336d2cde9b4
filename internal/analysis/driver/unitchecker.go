// The `go vet -vettool` half of the driver: cmd/go invokes the tool
// once per package unit with a JSON config file argument, and expects
// diagnostics on stderr, a facts ("vetx") output file, and exit code 1
// when there are findings. The Config schema and the handshake
// (-V=full, -flags) mirror what cmd/go's vet action writes and what
// golang.org/x/tools/go/analysis/unitchecker consumes; this
// implementation speaks the same protocol from the standard library.

package driver

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/analysis/framework"
)

// unitConfig describes one vet unit of work, as written by cmd/go.
// Field names and meaning follow x/tools' unitchecker.Config; fields
// this driver does not consume (module identity, the facts of
// dependency units) are still listed so the JSON round-trips cleanly.
type unitConfig struct {
	ID                        string
	Compiler                  string // gc or gccgo
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ModuleVersion             string
	ImportMap                 map[string]string // source import path -> canonical package path
	PackageFile               map[string]string // canonical package path -> export data file
	Standard                  map[string]bool
	PackageVetx               map[string]string // canonical package path -> dependency facts file
	VetxOnly                  bool              // run only to produce facts for dependents
	VetxOutput                string            // where to write this unit's facts
	SucceedOnTypecheckFailure bool
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

// Import implements types.Importer.
func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// runUnit executes one vet unit and exits: 0 clean, 1 findings, other
// non-zero on operational failure.
func runUnit(cfgFile string, analyzers []*framework.Analyzer) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		log.Fatal(err)
	}
	var cfg unitConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		log.Fatalf("parsing %s: %v", cfgFile, err)
	}

	// None of the menshen analyzers exports facts, so a facts-only
	// invocation (go vet pre-visiting a dependency) has nothing to do
	// beyond producing the (empty) facts file.
	if cfg.VetxOnly {
		writeVetx(&cfg)
		os.Exit(0)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				os.Exit(0)
			}
			log.Fatal(err)
		}
		files = append(files, f)
	}

	compilerImp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("can't resolve import %q", importPath)
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImp.Import(path)
	})

	info := newInfo()
	tconf := types.Config{Importer: imp, GoVersion: cfg.GoVersion}
	pkg, err := tconf.Check(vetSuffix(cfg.ImportPath), fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			os.Exit(0)
		}
		log.Fatalf("type-checking %s: %v", cfg.ImportPath, err)
	}

	diags, err := runAnalyzers(fset, files, pkg, info, analyzers)
	if err != nil {
		log.Fatal(err)
	}
	writeVetx(&cfg)
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
	os.Exit(0)
}

// writeVetx records this unit's (empty) facts file; cmd/go requires
// the file to exist to cache the unit.
func writeVetx(cfg *unitConfig) {
	if cfg.VetxOutput == "" {
		return
	}
	if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
		log.Fatal(err)
	}
}

// vetSuffix strips the " [pkg.test]" decoration go vet appends to
// in-test package variants, so analyzers comparing package paths see
// the plain path: countederr's module scope reads the callee's package
// path, which for a call within the unit is the unit's own.
func vetSuffix(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}
