package menshen

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/compiler"
)

// TestReloadAllocations pins what a live §4.1 reload allocates, per
// module rather than per token, AST node or command: compiling
// NetCache, one unload plus verified load of it into a running
// 1-worker engine (the BenchmarkReloadLive op, which tenants_noisy_reconfig
// times as reconfig_p50_ms), and one device-only update of CALC (the
// BenchmarkFig10Reconfigure op; the flows256k_* workloads time
// NetCache's as reconfig_p50_ms). Each budget is the count reached when
// it was set plus a little headroom; a change that brings back a
// per-token or per-command allocation overshoots it. A device update's
// bytes are pinned too: a reload runs after the flow install on a heap
// with no free pages left, so every byte it allocates is a fresh page
// to fault in.
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
		const budget = 7
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
		const budget = 19
		if allocs > budget {
			t.Errorf("a live NetCache reload allocates %.0f times, want <= %d", allocs, budget)
		}
	})
	t.Run("device update", func(t *testing.T) {
		dev := NewDevice()
		calc := mustProgram(t, "CALC")
		if _, err := dev.LoadModule(calc, 1); err != nil {
			t.Fatal(err)
		}
		const runs = 100
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		allocs := testing.AllocsPerRun(runs, func() {
			if _, err := dev.UpdateModule(calc, 1); err != nil {
				t.Fatal(err)
			}
		})
		runtime.ReadMemStats(&ms)
		bytes := (ms.TotalAlloc - before) / (runs + 1) // AllocsPerRun adds a warm-up run
		const budget, byteBudget = 13, 3 << 10
		if allocs > budget || bytes > byteBudget {
			t.Errorf("a device update of CALC allocates %.0f times and %d bytes, want <= %d and <= %d", allocs, bytes, budget, byteBudget)
		}
	})
}
