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
	"sync"
	"testing"
	"time"

	menshen "repro"
	"repro/internal/trafficgen"
)

// stallEngine builds a 2-worker engine whose OnBatch callback blocks
// every batch on the returned channel, then wedges one shard by
// submitting frames of a single flow. The returned release func
// unblocks the callback (idempotent).
func stallEngine(t *testing.T, stallTimeout time.Duration) (*menshen.Engine, func()) {
	t.Helper()
	dev := newDevice(t, "CALC")
	block := make(chan struct{})
	entered := make(chan struct{})
	var enterOnce sync.Once
	eng, err := dev.NewEngine(menshen.EngineConfig{
		Workers:      2,
		StallTimeout: stallTimeout,
		OnBatch: func(int, uint16, []menshen.EngineResult) {
			enterOnce.Do(func() { close(entered) })
			<-block
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	release := func() { once.Do(func() { close(block) }) }
	t.Cleanup(func() {
		release()
		eng.Close()
	})
	gen := trafficgen.DefaultGen("CALC", 1, 0, 1, trafficgen.NewPRNG(11))
	for i := 0; i < 8; i++ {
		if n, err := eng.SubmitBatch([][]byte{gen(i)}); err != nil || n != 1 {
			t.Fatalf("submit %d: accepted=%d err=%v", i, n, err)
		}
	}
	// Only once the shard is provably wedged inside the callback (with
	// frames still pending behind it) do the stall tests proceed.
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never entered OnBatch")
	}
	return eng, release
}

// TestWatchdogStalledWorker: the watchdog flags the wedged shard,
// AwaitQuiesceCtx fails fast with ErrDegraded (long before its
// deadline), Stats reports the degraded shard — and everything clears
// once the shard resumes and applies the queued generation.
func TestWatchdogStalledWorker(t *testing.T) {
	eng, release := stallEngine(t, 10*time.Millisecond)

	gen, err := eng.ApplyReconfig(keyMaskFrame(t, 1, 3, 0x5A))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	werr := eng.AwaitQuiesceCtx(ctx, gen)
	if !errors.Is(werr, menshen.ErrDegraded) {
		t.Fatalf("AwaitQuiesceCtx = %v, want ErrDegraded", werr)
	}
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
	if err := eng.AwaitQuiesce(gen); err != nil {
		t.Fatal(err)
	}
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

	gen, err := eng.ApplyReconfig(keyMaskFrame(t, 1, 3, 0xA5))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := eng.AwaitQuiesceCtx(ctx, gen); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("AwaitQuiesceCtx = %v, want DeadlineExceeded", err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	if err := eng.QuiesceCtx(ctx2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("QuiesceCtx = %v, want DeadlineExceeded", err)
	}

	release()
	if err := eng.AwaitQuiesce(gen); err != nil {
		t.Fatal(err)
	}
	pipe, err := eng.ShardPipeline(0)
	if err != nil {
		t.Fatal(err)
	}
	if mask, ok := pipe.Stages[3].Mask.Lookup(1); !ok || mask[0] != 0xA5 {
		t.Fatalf("queued reconfig lost across the deadline: ok=%v mask[0]=%#x", ok, mask[0])
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
