package menshen

import (
	"context"
	"testing"

	"repro/internal/compiler"
)

// TestReloadAllocations pins what a live §4.1 reload allocates, per
// module rather than per token, AST node or command: compiling
// NetCache, and one unload plus verified load of it into a running
// 1-worker engine (the BenchmarkReloadLive op, which tenants_noisy_reconfig
// times as reconfig_p50_ms). Each budget is the count reached when it
// was set plus a little headroom; a change that brings back a
// per-token or per-command allocation overshoots it.
func TestReloadAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	src := mustProgram(t, "NetCache")
	t.Run("compile", func(t *testing.T) {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := compiler.Compile(src, compiler.Options{ModuleID: 2}); err != nil {
				t.Fatal(err)
			}
		})
		const budget = 30
		if allocs > budget {
			t.Errorf("compiling NetCache allocates %.0f times, want <= %d", allocs, budget)
		}
	})
	t.Run("unload+load", func(t *testing.T) {
		dev := NewDevice()
		for i, name := range []string{"CALC", "NetCache"} {
			if _, err := dev.LoadModule(mustProgram(t, name), uint16(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		eng, err := dev.NewEngine(EngineConfig{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		ctx := context.Background()
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := eng.UnloadModule(2); err != nil {
				t.Fatal(err)
			}
			_, gen, _, err := eng.LoadModuleVerified(ctx, src, 2, VerifyOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.AwaitQuiesceCtx(ctx, gen); err != nil {
				t.Fatal(err)
			}
		})
		const budget = 42
		if allocs > budget {
			t.Errorf("a live NetCache reload allocates %.0f times, want <= %d", allocs, budget)
		}
	})
}
