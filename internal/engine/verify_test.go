// Verified reconfiguration (§4.1 loss recovery) on the live engine:
// seeded command loss against LoadModuleVerified and
// InsertFlowsVerified, proving convergence with retries under
// sustained loss (checksum parity on every shard and the reference
// device), typed-error rollback on budget exhaustion with the old
// generation still serving, and never a torn replica. CI runs these
// twice under -race via the 'Chaos|Verify|Watchdog' step.
package engine_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	menshen "repro"
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
		if err := eng.AwaitQuiesce(gen); err != nil {
			t.Fatal(err)
		}
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
// retry budget runs out; the typed ErrVerify surfaces, every shard and
// the device roll back to the old program, and the tenant still serves
// traffic (the fence was lifted).
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
	if err := eng.Quiesce(); err != nil {
		t.Fatal(err)
	}

	// Rollback parity: the old CALC generation is intact everywhere.
	if cs := dev.Pipeline().ModuleChecksum(1); cs != oldDev {
		t.Fatalf("device checksum %#x != pre-load %#x", cs, oldDev)
	}
	for w, cs := range shardChecksums(t, eng, 1) {
		if cs != oldShards[w] {
			t.Fatalf("shard %d checksum %#x != pre-load %#x (torn rollback)", w, cs, oldShards[w])
		}
	}
	st := eng.Stats()
	if st.VerifyFailures != 1 {
		t.Fatalf("VerifyFailures = %d, want 1", st.VerifyFailures)
	}

	// The fence was lifted: the tenant's traffic still flows.
	gen := trafficgen.DefaultGen("CALC", 1, 0, 1, trafficgen.NewPRNG(11))
	for i := 0; i < 32; i++ {
		if n, err := eng.SubmitBatch([][]byte{gen(i)}); err != nil || n != 1 {
			t.Fatalf("submit %d after rollback: accepted=%d err=%v", i, n, err)
		}
	}
	eng.Drain()
	if processed != 32 {
		t.Fatalf("processed %d frames after rollback, want 32", processed)
	}
}

// TestLoadModuleVerifiedCtxCancelRollsBack: an already-cancelled
// context aborts the verified load immediately; the rollback still
// applies and parity holds.
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
	if err := eng.Quiesce(); err != nil {
		t.Fatal(err)
	}
	for w, cs := range shardChecksums(t, eng, 1) {
		if cs != oldShards[w] {
			t.Fatalf("shard %d checksum %#x != pre-load %#x", w, cs, oldShards[w])
		}
	}
	if cs := dev.Pipeline().ModuleChecksum(1); cs != oldShards[0] {
		t.Fatalf("device checksum %#x != shards' %#x", cs, oldShards[0])
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
	if err := eng.AwaitQuiesce(gen); err != nil {
		t.Fatal(err)
	}
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
			addr, ok := pipe.Stages[stg].Hash.Lookup(entries[f].Key, 1)
			if !ok || uint16(addr) != entries[f].Addr {
				t.Fatalf("shard %d flow %d: ok=%v addr=%d want %d", w, f, ok, addr, entries[f].Addr)
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
