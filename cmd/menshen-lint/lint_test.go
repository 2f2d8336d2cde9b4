package main_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildLint compiles the lint binary once into a temp dir and returns
// its path.
func buildLint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "menshen-lint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building menshen-lint: %v\n%s", err, out)
	}
	return bin
}

// moduleRoot walks up from the package directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

// TestLintSelfClean is the acceptance gate CI re-runs: the whole repo,
// test units included, must pass all three analyzers under the real
// `go vet -vettool` protocol. A regression in either the analyzers
// (false positive) or the tree (new finding) fails here first.
func TestLintSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and vets the whole module; skipped in -short")
	}
	bin := buildLint(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = moduleRoot(t)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go vet -vettool=menshen-lint ./... reported findings or failed: %v\n%s", err, out)
	}
}

// TestLintFiresAcrossModules proves the suite catches regressions
// outside this module too: a scratch module that depends on this repo
// (via a replace directive, so it works offline) allocates inside a
// //menshen:hotpath function and discards a SubmitBatchOwned error, and
// go vet with the lint binary as its vettool must fail on both.
func TestLintFiresAcrossModules(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the module as a dependency; skipped in -short")
	}
	bin := buildLint(t)
	root := moduleRoot(t)

	scratch := t.TempDir()
	gomod := "module scratch\n\ngo 1.24\n\nrequire repro v0.0.0\n\nreplace repro => " + root + "\n"
	if err := os.WriteFile(filepath.Join(scratch, "go.mod"), []byte(gomod), 0o644); err != nil {
		t.Fatal(err)
	}
	const mainSrc = `package main

import menshen "repro"

//menshen:hotpath
func scratchBuf(n int) []byte {
	return make([]byte, n)
}

func pump(e *menshen.Engine, frames [][]byte) {
	n, _ := e.SubmitBatchOwned(frames)
	_ = n
}

func main() { _ = scratchBuf }
`
	if err := os.WriteFile(filepath.Join(scratch, "main.go"), []byte(mainSrc), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = scratch
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("menshen-lint passed a package with a hot-path make and a dropped SubmitBatchOwned error:\n%s", out)
	}
	for _, wantFinding := range []string{"hotpath: make allocates", "countederr: error assigned to _"} {
		if !strings.Contains(string(out), wantFinding) {
			t.Errorf("lint output missing %q:\n%s", wantFinding, out)
		}
	}
}
