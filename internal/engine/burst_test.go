// A verified burst queues one operation per shard and attempt: the
// range of its command stream from the slowest shard's progress on.
// These tests pin the per-shard go-back-N rule that range carries — a
// shard stops at its own first loss at or above its progress, and a
// lost duplicate below it holds nothing back — that a fault plan's seed
// keeps the meaning it had with one operation per command, and that the
// bytes a burst moves through the queues do not grow with its length.
// CI runs them twice under -race via the 'Verif' step.
package engine_test

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/reconfig"
	"repro/internal/tables"
)

// lbFlowCommands returns n distinct Load Balancing flow inserts (module
// 1) for its table stage, and that stage.
func lbFlowCommands(t *testing.T, eng *engine.Engine, n int) (int, []reconfig.Command) {
	t.Helper()
	pipe, err := eng.Pipeline(0)
	if err != nil {
		t.Fatal(err)
	}
	stg, best := -1, 0
	for i, st := range pipe.Stages {
		if c := st.Match.ValidCount(1); c > best {
			stg, best = i, c
		}
	}
	addr, _, ok := pipe.Stages[stg].Match.PartitionOf(1)
	if !ok {
		t.Fatal("Load Balancing has no CAM partition in its table stage")
	}
	cmds := make([]reconfig.Command, n)
	for f := range cmds {
		var key tables.Key
		key[0], key[1], key[2] = byte(f>>16), byte(f>>8), byte(f)
		cmds[f] = core.FlowCommand(stg, core.AppendFlowEntry(nil, &core.FlowEntry{Valid: true, ModID: 1, Addr: uint16(addr), Key: key}))
	}
	return stg, cmds
}

// deliverOnce sends b once and expects the attempt to come up short.
func deliverOnce(t *testing.T, eng *engine.Engine, b engine.Burst) {
	t.Helper()
	gen, _, err := eng.Deliver(context.Background(), 1, b, engine.VerifyOpts{MaxAttempts: 1})
	if !errors.Is(err, engine.ErrVerify) {
		t.Fatalf("one attempt under loss: err = %v, want ErrVerify", err)
	}
	quiesce(t, eng, gen)
}

// TestVerifiedRangeStopsAtMidLoss: one command lost in the middle of the
// range on shard 1 leaves that shard holding exactly the prefix before
// it while shard 0 takes the whole range, and the retry, which re-sends
// the range from the loss on, completes shard 1.
func TestVerifiedRangeStopsAtMidLoss(t *testing.T) {
	const n, lost = 64, 23
	eng := newRawEngine(t, engine.Config{Workers: 2}, "Load Balancing")
	stg, cmds := lbFlowCommands(t, eng, n)
	// Fates are drawn worker-major: shard 0 takes sequence numbers
	// [0, n) of the first attempt, shard 1 [n, 2n).
	eng.SetReconfigFault(faultinject.New(faultinject.Plan{
		StuckAt: []faultinject.Window{{From: n + lost, To: n + lost + 1}},
	}))
	b := eng.NewBurst(cmds)
	deliverOnce(t, eng, b)
	if got := b.Progress(); !slices.Equal(got, []int{n, lost}) {
		t.Fatalf("progress after one attempt = %v, want [%d %d]", got, n, lost)
	}
	held := func(w int) int {
		pipe, err := eng.Pipeline(w)
		if err != nil {
			t.Fatal(err)
		}
		return pipe.Stages[stg].Hash.ModuleEntries(1)
	}
	if h0, h1 := held(0), held(1); h0 != n || h1 != lost {
		t.Fatalf("shards hold %d and %d flows, want %d and %d", h0, h1, n, lost)
	}

	gen, rep, err := eng.Deliver(context.Background(), 1, b, engine.VerifyOpts{MaxAttempts: 1})
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	quiesce(t, eng, gen)
	if !rep.Verified || !slices.Equal(b.Progress(), []int{n, n}) {
		t.Fatalf("retry: report %+v, progress %v, want both shards at %d", rep, b.Progress(), n)
	}
	if h0, h1 := held(0), held(1); h0 != n || h1 != n {
		t.Fatalf("after the retry shards hold %d and %d flows, want %d each", h0, h1, n)
	}
}

// TestVerifiedRangeLostDuplicateHoldsNoShardBack: a retry re-sends from
// the slowest shard's progress, so a faster shard sees commands it
// already holds. Losing one of those duplicates must not stop the
// faster shard short of the commands it still lacks.
func TestVerifiedRangeLostDuplicateHoldsNoShardBack(t *testing.T) {
	const n, lost0, lost1 = 48, 30, 10
	const dup = 20 // below shard 0's progress, at or above shard 1's
	eng := newRawEngine(t, engine.Config{Workers: 2}, "Load Balancing")
	_, cmds := lbFlowCommands(t, eng, n)
	// First attempt: shard 0 draws [0, n), shard 1 [n, 2n). The retry
	// sends [lost1, n): shard 0 draws from 2n on, shard 1 after it.
	retry0 := uint64(2*n) - lost1
	eng.SetReconfigFault(faultinject.New(faultinject.Plan{StuckAt: []faultinject.Window{
		{From: lost0, To: lost0 + 1},
		{From: n + lost1, To: n + lost1 + 1},
		{From: retry0 + dup, To: retry0 + dup + 1},
	}}))
	b := eng.NewBurst(cmds)
	deliverOnce(t, eng, b)
	if got := b.Progress(); !slices.Equal(got, []int{lost0, lost1}) {
		t.Fatalf("progress after one attempt = %v, want [%d %d]", got, lost0, lost1)
	}
	gen, rep, err := eng.Deliver(context.Background(), 1, b, engine.VerifyOpts{MaxAttempts: 1})
	if err != nil {
		t.Fatalf("retry with a lost duplicate on shard 0: %v (progress %v)", err, b.Progress())
	}
	quiesce(t, eng, gen)
	if !rep.Verified || !slices.Equal(b.Progress(), []int{n, n}) {
		t.Fatalf("retry: report %+v, progress %v, want both shards at %d", rep, b.Progress(), n)
	}
}

// TestVerifiedSeedsKeepTheirMeaning: a fault plan's seed sentences the
// same commands as when every command was its own queued operation —
// fates drawn worker-major, then in command order — so a recorded seed
// still reproduces its run. A reference injector with the same plan,
// under the per-command go-back-N rule, predicts each shard's progress
// after every attempt.
func TestVerifiedSeedsKeepTheirMeaning(t *testing.T) {
	const n, workers = 40, 2
	plan := faultinject.Plan{Seed: 7, Drop: 0.5}
	eng := newRawEngine(t, engine.Config{Workers: workers}, "Load Balancing")
	_, cmds := lbFlowCommands(t, eng, n)
	eng.SetReconfigFault(faultinject.New(plan))
	ref := faultinject.New(plan)
	want := make([]int, workers)
	b := eng.NewBurst(cmds)
	for attempt := 1; slices.Min(want) < n; attempt++ {
		lo := slices.Min(want)
		for w := range want {
			for c := lo; c < n; c++ {
				if ref.CommandFate() == faultinject.Deliver && c == want[w] {
					want[w]++
				}
			}
		}
		gen, _, err := eng.Deliver(context.Background(), 1, b, engine.VerifyOpts{MaxAttempts: 1})
		if err != nil && !errors.Is(err, engine.ErrVerify) {
			t.Fatal(err)
		}
		quiesce(t, eng, gen)
		if got := b.Progress(); !slices.Equal(got, want) {
			t.Fatalf("attempt %d: progress %v, reference %v", attempt, got, want)
		}
		if attempt == 1 && slices.Max(want) == n {
			t.Fatalf("seed %d lost nothing on the first attempt; pick a lossier one", plan.Seed)
		}
	}
}

// TestVerifiedBurstQueuesConstantBytes: a burst is one queued operation
// per shard and attempt whatever its length, so delivering 2^14 flow
// commands to a 2-worker engine allocates, besides the caller's
// stream, no more than a small constant above a 1-command burst. The
// flows are installed once first, so the measured bursts rewrite
// entries in place and the tables do not grow.
func TestVerifiedBurstQueuesConstantBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n, slack = 1 << 14, 1 << 10
	eng := newRawEngine(t, engine.Config{Workers: 2}, "Load Balancing")
	_, cmds := lbFlowCommands(t, eng, n)
	ctx := context.Background()
	apply := func(cmds []reconfig.Command) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		gen, _, err := eng.ApplyVerified(ctx, 1, cmds, engine.VerifyOpts{})
		if err != nil {
			t.Fatal(err)
		}
		quiesce(t, eng, gen)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	apply(cmds) // install: the flow tables grow here, not below
	one, all := uint64(1<<62), uint64(1<<62)
	for range 3 { // the least of three: the runtime's own allocations are noise
		one, all = min(one, apply(cmds[:1])), min(all, apply(cmds))
	}
	t.Logf("1-command burst %d B, %d-command burst %d B", one, n, all)
	if all > one+slack {
		t.Errorf("a %d-command burst allocates %d B, a 1-command burst %d B: want at most %d B more",
			n, all, one, slack)
	}
}
