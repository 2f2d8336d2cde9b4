// Stall watchdog and context-aware quiesce regressions: a worker
// wedged inside its OnBatch callback must degrade to a counted,
// reported state — quiesce waiters fail fast with ErrDegraded or their
// context error instead of hanging — and must fully recover once the
// shard moves again. CI runs these twice under -race via the
// 'Chaos|Verify|Watchdog' step.
package engine_test

import (
	"context"
	"errors"
	"testing"
	"time"

	menshen "repro"
	"repro/internal/trafficgen"
)

// stallEngine builds a 2-worker gated engine and wedges one shard
// inside its OnBatch callback on a frame of a single flow, with more of
// that flow's frames pending behind it. The returned release func
// unblocks the callback (idempotent).
func stallEngine(t *testing.T, stallTimeout time.Duration) (*menshen.Engine, func()) {
	t.Helper()
	eng := newGatedEngine(t, newDevice(t, "CALC"), menshen.EngineConfig{Workers: 2, StallTimeout: stallTimeout})
	gen := trafficgen.DefaultGen("CALC", 1, 0, 1, trafficgen.NewPRNG(11))
	eng.hold(t, gen(0))
	for i := 1; i < 8; i++ {
		if n, err := eng.SubmitBatch([][]byte{gen(i)}); err != nil || n != 1 {
			t.Fatalf("submit %d: accepted=%d err=%v", i, n, err)
		}
	}
	return eng.Engine, eng.release
}

// TestWatchdogStalledWorker: the watchdog flags the wedged shard,
// AwaitQuiesceCtx fails fast with ErrDegraded (long before its
// deadline), Stats reports the degraded shard — and everything clears
// once the shard resumes and applies the queued generation.
func TestWatchdogStalledWorker(t *testing.T) {
	eng, release := stallEngine(t, 10*time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	werr := eng.QuiesceCtx(ctx)
	if !errors.Is(werr, menshen.ErrDegraded) {
		t.Fatalf("QuiesceCtx = %v, want ErrDegraded", werr)
	}
	gen := eng.ReconfigGen() // the barrier held back behind the stall
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("degraded bail-out took %v", waited)
	}

	st := eng.Stats()
	if st.DegradedWorkers != 1 || st.DegradedEvents == 0 {
		t.Fatalf("DegradedWorkers=%d DegradedEvents=%d, want 1 and >0", st.DegradedWorkers, st.DegradedEvents)
	}
	stalled := 0
	for _, ws := range st.Workers {
		if ws.Stalled {
			stalled++
			if ws.SinceProgress <= 0 {
				t.Errorf("stalled shard reports SinceProgress = %v", ws.SinceProgress)
			}
		}
	}
	if stalled != 1 {
		t.Fatalf("%d shards flagged stalled, want 1", stalled)
	}

	// Recovery: unblock the callback; the queued generation was never
	// lost and the degraded state clears.
	release()
	quiesce(t, eng, gen)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := eng.Stats(); st.DegradedWorkers == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("degraded state did not clear after recovery")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAwaitQuiesceCtxDeadline: with the watchdog off, a quiesce wait
// behind a wedged shard still honors its context deadline — no caller
// blocks past it — and the awaited operations apply after recovery.
func TestAwaitQuiesceCtxDeadline(t *testing.T) {
	eng, release := stallEngine(t, 0)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := eng.QuiesceCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("QuiesceCtx = %v, want DeadlineExceeded", err)
	}
	gen := eng.ReconfigGen() // the barrier held back behind the stall
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	if err := eng.AwaitQuiesceCtx(ctx2, gen); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("AwaitQuiesceCtx = %v, want DeadlineExceeded", err)
	}

	release()
	quiesce(t, eng, gen)
	for w, ws := range eng.Stats().Workers {
		if ws.ReconfigGen < gen {
			t.Fatalf("worker %d: queued barrier lost across the deadline: applied %d, want %d", w, ws.ReconfigGen, gen)
		}
	}
}

// TestWatchdogIdleEngineNotDegraded: an idle engine with the watchdog
// armed must never flag a shard — no pending work means no stall.
func TestWatchdogIdleEngineNotDegraded(t *testing.T) {
	dev := newDevice(t, "CALC")
	eng, err := dev.NewEngine(menshen.EngineConfig{Workers: 2, StallTimeout: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	time.Sleep(30 * time.Millisecond)
	st := eng.Stats()
	if st.DegradedWorkers != 0 || st.DegradedEvents != 0 {
		t.Fatalf("idle engine degraded: workers=%d events=%d", st.DegradedWorkers, st.DegradedEvents)
	}
}
