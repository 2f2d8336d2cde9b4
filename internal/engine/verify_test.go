// Verified reconfiguration (§4.1 loss recovery) on the live engine:
// seeded command loss against LoadModuleVerified and
// InsertFlowsVerified, proving convergence with retries under
// sustained loss (checksum parity on every shard and the reference
// device), a typed error on budget exhaustion with the old generation
// still serving — program, flows and stateful memory — and never a
// torn replica. CI runs these twice under -race via the
// 'Chaos|Verif|Watchdog' step.
package engine_test

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	menshen "repro"
	"repro/internal/checker"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/trafficgen"
)

// fastVerify is a test-speed retry budget: generous attempts, tiny
// backoff.
func fastVerify(attempts int) menshen.VerifyOpts {
	return menshen.VerifyOpts{
		MaxAttempts: attempts,
		Backoff:     time.Microsecond,
		MaxBackoff:  20 * time.Microsecond,
	}
}

// shardChecksums returns ModuleChecksum(moduleID) for every shard.
func shardChecksums(t *testing.T, eng *menshen.Engine, moduleID uint16) []uint64 {
	t.Helper()
	out := make([]uint64, eng.Workers())
	for w := range out {
		pipe, err := eng.ShardPipeline(w)
		if err != nil {
			t.Fatal(err)
		}
		out[w] = pipe.ModuleChecksum(moduleID)
	}
	return out
}

// TestLoadModuleVerifiedConvergesUnderLoss is the PR's acceptance
// scenario: with seeded 8% command drop plus 3% corruption on the
// reconfig fan-out, 100 consecutive live reloads must all converge —
// every shard's checksum equal to the reference device's — with
// retries observed and zero torn replicas.
func TestLoadModuleVerifiedConvergesUnderLoss(t *testing.T) {
	dev := newDevice(t, "CALC")
	eng, err := dev.NewEngine(menshen.EngineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	eng.SetReconfigFault(menshen.NewFaultInjector(menshen.FaultPlan{
		Seed:    0xC0FFEE,
		Drop:    0.08,
		Corrupt: 0.03,
	}))

	src := programSource(t, "CALC")
	ctx := context.Background()
	reloads := 100
	if testing.Short() {
		reloads = 10
	}
	totalResent := 0
	for i := 0; i < reloads; i++ {
		_, gen, vrep, err := eng.LoadModuleVerified(ctx, src, 1, fastVerify(32))
		if err != nil {
			t.Fatalf("reload %d: %v (report %+v)", i, err, vrep)
		}
		if !vrep.Verified {
			t.Fatalf("reload %d: report not verified: %+v", i, vrep)
		}
		totalResent += vrep.Resent
		quiesce(t, eng, gen)
		want := dev.Pipeline().ModuleChecksum(1)
		for w, cs := range shardChecksums(t, eng, 1) {
			if cs != want {
				t.Fatalf("reload %d: shard %d checksum %#x != device %#x (torn replica)", i, w, cs, want)
			}
		}
	}
	if totalResent == 0 {
		t.Fatal("no commands were ever re-sent: fault plan did not bite")
	}
	st := eng.Stats()
	if st.ReconfigRetries == 0 || st.CmdFaultsInjected == 0 {
		t.Fatalf("retry telemetry empty: retries=%d faults=%d", st.ReconfigRetries, st.CmdFaultsInjected)
	}
	if st.VerifyFailures != 0 {
		t.Fatalf("VerifyFailures = %d, want 0", st.VerifyFailures)
	}
	if st.ReconfigFailed != 0 {
		t.Fatalf("ReconfigFailed = %d (lost commands must be skipped, not error)", st.ReconfigFailed)
	}
	t.Logf("%d reloads converged, %d commands re-sent, %d retry bursts", reloads, totalResent, st.ReconfigRetries)
}

// TestLoadModuleVerifiedExhaustedRollsBack: with total command loss the
// retry budget runs out; the typed ErrVerify surfaces, nothing is
// committed — every shard and the device keep the old program — and
// the tenant still serves traffic.
func TestLoadModuleVerifiedExhaustedRollsBack(t *testing.T) {
	dev := newDevice(t, "CALC")
	var processed int
	eng, err := dev.NewEngine(menshen.EngineConfig{
		Workers: 4,
		OnBatch: func(_ int, _ uint16, results []menshen.EngineResult) {
			processed += len(results) // serialized: single submitter, Drain between
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	oldDev := dev.Pipeline().ModuleChecksum(1)
	oldShards := shardChecksums(t, eng, 1)

	eng.SetReconfigFault(menshen.NewFaultInjector(menshen.FaultPlan{Seed: 7, Drop: 1.0}))
	_, _, vrep, verr := eng.LoadModuleVerified(context.Background(), programSource(t, "NetCache"), 1, fastVerify(3))
	if !errors.Is(verr, menshen.ErrVerify) {
		t.Fatalf("err = %v, want ErrVerify", verr)
	}
	if vrep.Verified || vrep.Attempts != 3 {
		t.Fatalf("report %+v, want unverified after 3 attempts", vrep)
	}
	eng.SetReconfigFault(nil)
	quiesce(t, eng, 0)

	// The old CALC generation is intact everywhere.
	if cs := dev.Pipeline().ModuleChecksum(1); cs != oldDev {
		t.Fatalf("device checksum %#x != pre-load %#x", cs, oldDev)
	}
	for w, cs := range shardChecksums(t, eng, 1) {
		if cs != oldShards[w] {
			t.Fatalf("shard %d checksum %#x != pre-load %#x (torn replica)", w, cs, oldShards[w])
		}
	}
	st := eng.Stats()
	if st.VerifyFailures != 1 {
		t.Fatalf("VerifyFailures = %d, want 1", st.VerifyFailures)
	}

	// The tenant's traffic still flows.
	gen := trafficgen.DefaultGen("CALC", 1, 0, 1, trafficgen.NewPRNG(11))
	for i := 0; i < 32; i++ {
		if n, err := eng.SubmitBatch([][]byte{gen(i)}); err != nil || n != 1 {
			t.Fatalf("submit %d after the failed load: accepted=%d err=%v", i, n, err)
		}
	}
	eng.Drain()
	if processed != 32 {
		t.Fatalf("processed %d frames after the failed load, want 32", processed)
	}
}

// TestLoadModuleVerifiedHoldsNoFrames: a verified reload stages its
// commands while the old program keeps serving. While a reload of a
// loaded tenant retries against total command loss, the tenant's frames
// keep being processed by the old program before the load returns.
func TestLoadModuleVerifiedHoldsNoFrames(t *testing.T) {
	dev := newDevice(t, "CALC")
	var served atomic.Int64
	eng, err := dev.NewEngine(menshen.EngineConfig{
		Workers: 2,
		OnBatch: func(_ int, _ uint16, results []menshen.EngineResult) {
			for i := range results {
				if !results[i].Dropped {
					served.Add(1)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	oldShards := shardChecksums(t, eng, 1)

	eng.SetReconfigFault(menshen.NewFaultInjector(menshen.FaultPlan{Seed: 3, Drop: 1.0}))
	done := make(chan error, 1)
	go func() {
		opts := menshen.VerifyOpts{MaxAttempts: 3, Backoff: 100 * time.Millisecond, MaxBackoff: 100 * time.Millisecond}
		_, _, _, err := eng.LoadModuleVerified(context.Background(), programSource(t, "NetCache"), 1, opts)
		done <- err
	}()
	gen := trafficgen.DefaultGen("CALC", 1, 0, 1, trafficgen.NewPRNG(11))
	// grew: the served count rose past its reading 20ms in, once the
	// load is under way, in a read taken at least 1ms before the load
	// returned (the select below takes done the moment it is ready).
	// The load sleeps through two 100ms backoffs.
	start, base, grew := time.Now(), int64(-1), false
	for i := 0; ; i++ {
		if _, err := eng.SubmitBatch([][]byte{gen(i)}); err != nil {
			t.Fatal(err)
		}
		n := served.Load()
		select {
		case err := <-done:
			if !errors.Is(err, menshen.ErrVerify) {
				t.Fatalf("err = %v, want ErrVerify", err)
			}
		case <-time.After(time.Millisecond):
			if base < 0 && time.Since(start) > 20*time.Millisecond {
				base = n
			}
			grew = grew || (base >= 0 && n > base)
			continue
		}
		break
	}
	if !grew {
		t.Fatal("the reloading tenant's frames were not served while the load retried")
	}
	eng.Drain()
	for w, cs := range shardChecksums(t, eng, 1) {
		if cs != oldShards[w] {
			t.Fatalf("shard %d checksum %#x != pre-load %#x", w, cs, oldShards[w])
		}
	}
}

// TestLoadModuleVerifiedCtxCancelRollsBack: an already-cancelled
// context aborts the verified load before anything is issued, and
// device and shards keep the old program.
func TestLoadModuleVerifiedCtxCancelRollsBack(t *testing.T) {
	dev := newDevice(t, "CALC")
	eng, err := dev.NewEngine(menshen.EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	oldShards := shardChecksums(t, eng, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, verr := eng.LoadModuleVerified(ctx, programSource(t, "NetCache"), 1, fastVerify(3))
	if !errors.Is(verr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", verr)
	}
	quiesce(t, eng, 0)
	for w, cs := range shardChecksums(t, eng, 1) {
		if cs != oldShards[w] {
			t.Fatalf("shard %d checksum %#x != pre-load %#x", w, cs, oldShards[w])
		}
	}
	if cs := dev.Pipeline().ModuleChecksum(1); cs != oldShards[0] {
		t.Fatalf("device checksum %#x != shards' %#x", cs, oldShards[0])
	}
}

// TestLoadModuleVerifiedCancelledIssuesNothing: a verified load whose
// context is already done delivers no command to any shard. Were the
// burst issued before ctx is looked at, it would still apply, and a
// cancelled load could even succeed when every shard applied it before
// the wait's first check. The module stays absent everywhere.
func TestLoadModuleVerifiedCancelledIssuesNothing(t *testing.T) {
	dev := newDevice(t, "CALC")
	eng, err := dev.NewEngine(menshen.EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const id = 2
	before := eng.Stats().Workers
	devSum := dev.Pipeline().ModuleChecksum(id)
	shardSums := shardChecksums(t, eng, id)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, verr := eng.LoadModuleVerified(ctx, programSource(t, "NetCache"), id, fastVerify(3))
	if !errors.Is(verr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", verr)
	}
	quiesce(t, eng, 0)

	for w, ws := range eng.Stats().Workers {
		if ws.ReconfigDelivered != before[w].ReconfigDelivered {
			t.Errorf("shard %d: ReconfigDelivered %d -> %d after a cancelled load",
				w, before[w].ReconfigDelivered, ws.ReconfigDelivered)
		}
	}
	for w, cs := range shardChecksums(t, eng, id) {
		if cs != shardSums[w] {
			t.Errorf("shard %d: module %d checksum %#x, want the absent module's %#x", w, id, cs, shardSums[w])
		}
	}
	if cs := dev.Pipeline().ModuleChecksum(id); cs != devSum {
		t.Errorf("device: module %d checksum %#x, want the absent module's %#x", id, cs, devSum)
	}
	if err := dev.UnloadModule(id); !errors.Is(err, menshen.ErrNotLoaded) {
		t.Errorf("device UnloadModule(%d) = %v, want ErrNotLoaded", id, err)
	}
}

// TestEngineVerifiedCancelledIssuesNothing is the same property one
// layer down, where the chaos harness calls it: with a done ctx the
// engine's verified load and its burst layer issue no generation at
// all — no burst, no commit.
func TestEngineVerifiedCancelledIssuesNothing(t *testing.T) {
	prog, err := compiler.Compile(programSource(t, "CALC"), compiler.Options{ModuleID: 1})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := checker.NewAllocator(checker.CapacityOf(core.DefaultGeometry()), nil).Admit(prog.Config)
	if err != nil {
		t.Fatal(err)
	}
	cmds, err := prog.Config.Commands(pl)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := eng.LoadModuleVerified(ctx, engine.ModuleSpec{Config: prog.Config, Placement: pl}, cmds, fastVerify(3)); !errors.Is(err, context.Canceled) {
		t.Fatalf("LoadModuleVerified err = %v, want context.Canceled", err)
	}
	if _, rep, err := eng.ApplyVerified(ctx, 1, cmds, fastVerify(3)); !errors.Is(err, context.Canceled) || rep.Attempts != 0 {
		t.Fatalf("ApplyVerified = %+v, %v; want no attempt and context.Canceled", rep, err)
	}
	if gen := eng.ReconfigGen(); gen != 0 {
		t.Errorf("a cancelled verified load issued %d generations, want 0", gen)
	}
}

// TestInsertFlowsVerifiedUnderLoss drives the incremental verified
// path: cuckoo flow installs under 20% command loss must converge with
// re-sends, leaving identical order-independent checksums on every
// shard, and every inserted flow must actually steer.
func TestInsertFlowsVerifiedUnderLoss(t *testing.T) {
	dev := newDevice(t, "Load Balancing")
	stg := lbStage(t, dev)
	addrs := lbActionAddrs(t, dev, stg)

	eng, err := dev.NewEngine(menshen.EngineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	eng.SetReconfigFault(menshen.NewFaultInjector(menshen.FaultPlan{Seed: 99, Drop: 0.2}))

	cp := dev.ControlPlane()
	const flows = 64
	entries := make([]menshen.FlowEntry, flows)
	for f := 0; f < flows; f++ {
		key, err := cp.FlowKeyForFrame(1, stg, trafficgen.FlowScaleFrame(1, f, 0))
		if err != nil {
			t.Fatal(err)
		}
		entries[f] = menshen.FlowEntry{Valid: true, Addr: addrs[f%len(addrs)], Key: key}
	}
	gen, vrep, err := eng.InsertFlowsVerified(context.Background(), 1, stg, entries, fastVerify(64))
	if err != nil {
		t.Fatalf("InsertFlowsVerified: %v (report %+v)", err, vrep)
	}
	if !vrep.Verified || vrep.Attempts < 2 || vrep.Resent == 0 {
		t.Fatalf("report %+v: want verified with retries under 20%% loss", vrep)
	}
	quiesce(t, eng, gen)
	css := shardChecksums(t, eng, 1)
	for w, cs := range css[1:] {
		if cs != css[0] {
			t.Fatalf("shard %d checksum %#x != shard 0 %#x", w+1, cs, css[0])
		}
	}
	// Spot-check the installed flows resolve on every shard.
	for w := 0; w < eng.Workers(); w++ {
		pipe, err := eng.ShardPipeline(w)
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < flows; f += 7 {
			kw := entries[f].Key.Words()
			addr, ok := pipe.Stages[stg].Hash.LookupWords(&kw, 1)
			if !ok || uint16(addr) != entries[f].Addr {
				t.Fatalf("shard %d flow %d: ok=%v addr=%d want %d", w, f, ok, addr, entries[f].Addr)
			}
		}
	}
}

// TestLoadModuleVerifiedFailureKeepsFlowsAndMemory: a reload that
// exhausts its retry budget commits nothing, so every shard keeps the
// tenant's program, all of its verified flow inserts and its stateful
// memory byte for byte.
func TestLoadModuleVerifiedFailureKeepsFlowsAndMemory(t *testing.T) {
	dev := newDevice(t, "Load Balancing")
	stg := lbStage(t, dev)
	addrs := lbActionAddrs(t, dev, stg)
	eng, err := dev.NewEngine(menshen.EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const flows = 64
	entries := make([]menshen.FlowEntry, flows)
	for f := range entries {
		key, err := dev.ControlPlane().FlowKeyForFrame(1, stg, trafficgen.FlowScaleFrame(1, f, 0))
		if err != nil {
			t.Fatal(err)
		}
		entries[f] = menshen.FlowEntry{Valid: true, Addr: addrs[f%len(addrs)], Key: key}
	}
	ctx := context.Background()
	gen, _, err := eng.InsertFlowsVerified(ctx, 1, stg, entries, fastVerify(8))
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, eng, gen)
	// Traffic moves the system-level packet counters in stateful memory.
	for f := 0; f < flows; f++ {
		if _, err := eng.SubmitBatch([][]byte{trafficgen.FlowScaleFrame(1, f, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()

	memory := func(pipe *core.Pipeline) [][]uint64 {
		out := make([][]uint64, len(pipe.Stages))
		pipe.Locked(func() {
			for s := range pipe.Stages {
				out[s] = pipe.Stages[s].Memory.Snapshot()
			}
		})
		return out
	}
	sums := shardChecksums(t, eng, 1)
	mems := make([][][]uint64, eng.Workers())
	for w := range mems {
		pipe, err := eng.ShardPipeline(w)
		if err != nil {
			t.Fatal(err)
		}
		mems[w] = memory(pipe)
	}

	eng.SetReconfigFault(menshen.NewFaultInjector(menshen.FaultPlan{Seed: 5, Drop: 1.0}))
	if _, _, _, err := eng.LoadModuleVerified(ctx, programSource(t, "Load Balancing"), 1, fastVerify(3)); !errors.Is(err, menshen.ErrVerify) {
		t.Fatalf("err = %v, want ErrVerify", err)
	}
	eng.SetReconfigFault(nil)
	quiesce(t, eng, 0)

	for w, cs := range shardChecksums(t, eng, 1) {
		if cs != sums[w] {
			t.Errorf("shard %d checksum %#x != pre-load %#x", w, cs, sums[w])
		}
	}
	for w := range mems {
		pipe, err := eng.ShardPipeline(w)
		if err != nil {
			t.Fatal(err)
		}
		held := 0
		for f := range entries {
			kw := entries[f].Key.Words()
			if addr, ok := pipe.Stages[stg].Hash.LookupWords(&kw, 1); ok && uint16(addr) == entries[f].Addr {
				held++
			}
		}
		if held != flows {
			t.Errorf("shard %d holds %d of %d flows after the failed reload", w, held, flows)
		}
		for s, words := range memory(pipe) {
			if !slices.Equal(words, mems[w][s]) {
				t.Errorf("shard %d stage %d: stateful memory changed by the failed reload", w, s)
			}
		}
	}
}

// TestVerifyErrorMentionsProgress pins the typed error's shape: it
// wraps ErrVerify and reports the slowest shard's confirmed count.
func TestVerifyErrorMentionsProgress(t *testing.T) {
	dev := newDevice(t, "CALC")
	eng, err := dev.NewEngine(menshen.EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.SetReconfigFault(menshen.NewFaultInjector(menshen.FaultPlan{Seed: 1, Drop: 1.0}))
	_, _, _, verr := eng.LoadModuleVerified(context.Background(), programSource(t, "CALC"), 1, fastVerify(2))
	if !errors.Is(verr, menshen.ErrVerify) {
		t.Fatalf("err = %v, want ErrVerify", verr)
	}
	if !strings.Contains(verr.Error(), "confirmed 0 of") {
		t.Fatalf("error %q does not report shard progress", verr)
	}
}
