// Fuzz harness for the whole compiler: arbitrary source must never
// panic, and every rejection must be a *SyntaxError or wrap one of the
// checker's sentinels (ErrSemantic, ErrResource, ErrStatic). The seeds
// are the shipped programs; `go test` replays them on every run, and
// `go test -fuzz=FuzzCompile` mutates from them.
package compiler

import (
	"errors"
	"testing"

	"repro/internal/p4progs"
)

func FuzzCompile(f *testing.F) {
	for _, p := range p4progs.All() {
		f.Add(p.Source())
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, err := Compile(src, Options{ModuleID: 1})
		if err == nil {
			return
		}
		var se *SyntaxError
		if !errors.As(err, &se) && !errors.Is(err, ErrSemantic) &&
			!errors.Is(err, ErrResource) && !errors.Is(err, ErrStatic) {
			t.Fatalf("Compile error %q (%T) is neither a SyntaxError nor a checker error", err, err)
		}
	})
}
