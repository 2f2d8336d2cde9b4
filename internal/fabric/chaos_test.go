// Fabric chaos harness: deterministic per-link fault plans (FaultLink)
// under live traffic, asserting frame conservation — every injected
// frame ends as a delivery or a *counted* drop, never a hang — and the
// -race soak that churns egress weights and live-reloads a tenant over
// a 5% lossy control channel while a data link flaps, proving verified
// reconfiguration converges with retries and post-recovery outputs are
// byte-identical to the synchronous reference walk. CI runs this file
// twice under -race via the 'Chaos|Verify|Watchdog' step.
package fabric

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/reconfig"
)

// TestFabricChaosConservation: a 3-node chain with a noisy first link
// (drop/corrupt/delay/reorder) and a periodically flapping second link
// must account for every injected frame as a delivery or a counted
// drop — the drain terminates (no hang) and the books balance.
func TestFabricChaosConservation(t *testing.T) {
	const frames = 2000
	spec := chainSpec(3, parityVIP, 1, 2)
	traffic := parityTraffic(frames, 1, 2)

	sink := newHostSink()
	f := NewEngineFabric(sink.deliver)
	for _, name := range spec.names {
		sys := spec.nodes[name]
		cfg := NodeConfig{Workers: 2, BatchSize: 8}
		alloc := checker.NewAllocator(checker.CapacityOf(core.DefaultGeometry()), nil)
		for _, id := range spec.loads[name] {
			cfg.Modules = append(cfg.Modules, tenantSpec(t, alloc, sys, id))
		}
		if _, err := f.AddNode(name, sys, cfg); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range spec.links {
		if err := f.Link(l[0].(string), l[1].(uint8), l[2].(string), l[3].(uint8)); err != nil {
			t.Fatal(err)
		}
	}
	noisy, err := f.FaultLink("s0", 1, faultinject.Plan{
		Seed: 42, Drop: 0.10, Corrupt: 0.05, Delay: 0.08, Reorder: 0.10,
	})
	if err != nil {
		t.Fatal(err)
	}
	flappy, err := f.FaultLink("s1", 1, faultinject.Plan{
		Seed: 43, Flap: faultinject.Flap{Period: 40, Down: 8}, Delay: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < frames; i += 64 {
		end := min(i+64, frames)
		if acc, err := f.InjectBatch("s0", 0, traffic[i:end]); err != nil || acc != end-i {
			t.Fatalf("inject: acc=%d err=%v", acc, err)
		}
	}
	f.Drain()
	st := f.Stats()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if got := st.Accounted(); got != frames {
		t.Errorf("conservation broken: %d frames accounted (%d delivered), injected %d", got, st.Delivered, frames)
	}
	if st.Delivered == 0 {
		t.Error("nothing survived the chaos plans — fault rates should leave survivors")
	}
	nc, fc := noisy.Counts(), flappy.Counts()
	if nc.Dropped == 0 || nc.Corrupted == 0 || nc.Delayed == 0 || nc.Reordered == 0 {
		t.Errorf("noisy link missed a fault class: %+v", nc)
	}
	if fc.Dropped == 0 {
		t.Errorf("flap schedule never took the link down: %+v", fc)
	}
	if want := nc.Dropped + fc.Dropped; st.FaultDropped != want {
		t.Errorf("FaultDropped = %d, injectors dropped %d", st.FaultDropped, want)
	}
	lf := st.Nodes["s0"].LinkFaults
	if lf == nil || lf[1] != nc {
		t.Errorf("per-link stats missing or stale: %+v vs %+v", lf, nc)
	}
	if st.Nodes["s2"].FaultDropped != 0 || st.Nodes["s2"].LinkFaults != nil {
		t.Error("terminal node reports faults it cannot have")
	}
}

// TestFabricChaosSoakReconfig is the recovery soak: while traffic
// crosses a chain whose middle link suffers scheduled outages, the
// middle node's tenant 2 is live unloaded and reloaded through the
// verified §4.1 protocol over a 5%-lossy command channel, with egress
// weight churn at the entry node. Everything must converge: reloads
// verified (with observed retries), no degraded shards, conservation
// intact — and a post-recovery traffic batch must be byte-identical,
// per host, to the synchronous reference walk.
func TestFabricChaosSoakReconfig(t *testing.T) {
	const soakFrames = 3000
	const recoveryFrames = 400
	spec := chainSpec(3, parityVIP, 1, 2)

	// Synchronous reference for the post-recovery batch only.
	recovery := parityTraffic(recoveryFrames, 1, 2)
	ref, refDrops := collectRef(t, spec.buildRef(t), "s0", 0, recovery)
	if len(refDrops) != 0 {
		t.Fatalf("setup: reference walk dropped frames: %v", refDrops)
	}

	sink := newHostSink()
	f := NewEngineFabric(sink.deliver)
	var s1Spec engine.ModuleSpec  // tenant 2's spec on s1, reused by the reload loop
	var s1Cmds []reconfig.Command // and its command stream
	for _, name := range spec.names {
		sys := spec.nodes[name]
		cfg := NodeConfig{Workers: 2, BatchSize: 8}
		alloc := checker.NewAllocator(checker.CapacityOf(core.DefaultGeometry()), nil)
		for _, id := range spec.loads[name] {
			ms := tenantSpec(t, alloc, sys, id)
			if name == "s1" && id == 2 {
				s1Spec = ms
				var err error
				if s1Cmds, err = ms.Config.Commands(ms.Placement); err != nil {
					t.Fatal(err)
				}
			}
			cfg.Modules = append(cfg.Modules, ms)
		}
		if _, err := f.AddNode(name, sys, cfg); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range spec.links {
		if err := f.Link(l[0].(string), l[1].(uint8), l[2].(string), l[3].(uint8)); err != nil {
			t.Fatal(err)
		}
	}
	// Scheduled outages on the middle link — three deterministic flaps,
	// healthy again after the last window so the recovery batch crosses
	// clean.
	flap, err := f.FaultLink("s1", 1, faultinject.Plan{Seed: 7, StuckAt: []faultinject.Window{
		{From: 100, To: 400}, {From: 700, To: 1000}, {From: 1300, To: 1500},
	}})
	if err != nil {
		t.Fatal(err)
	}
	const lastWindowEnd = 1500
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	s0, _ := f.Node("s0")
	s1, _ := f.Node("s1")
	// 5% command loss on the middle node's reconfig fan-out.
	s1.Eng.SetReconfigFault(faultinject.New(faultinject.Plan{Seed: 11, Drop: 0.05}))
	vopts := engine.VerifyOpts{MaxAttempts: 64, Backoff: time.Microsecond, MaxBackoff: 20 * time.Microsecond}

	soak := parityTraffic(soakFrames, 1, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // traffic
		defer wg.Done()
		for i := 0; i < soakFrames; i += 32 {
			end := min(i+32, soakFrames)
			if acc, err := f.InjectBatch("s0", 0, soak[i:end]); err != nil || acc != end-i {
				t.Errorf("inject: acc=%d err=%v", acc, err)
				return
			}
		}
	}()
	go func() { // control churn: egress weights + verified unload/reload
		defer wg.Done()
		ctx := context.Background()
		for cycle := 0; cycle < 12; cycle++ {
			if _, err := s0.Eng.SetEgressWeight(2, float64(1+cycle%4)); err != nil {
				t.Errorf("cycle %d: SetEgressWeight: %v", cycle, err)
				return
			}
			if _, err := s1.Eng.UnloadModuleLive(2); err != nil {
				t.Errorf("cycle %d: unload: %v", cycle, err)
				return
			}
			if _, rep, err := s1.Eng.LoadModuleVerified(ctx, s1Spec, s1Cmds, vopts); err != nil || !rep.Verified {
				t.Errorf("cycle %d: verified reload: %v (report %+v)", cycle, err, rep)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	f.Drain()

	// Push the flap schedule past its last outage window with filler
	// traffic so the recovery batch crosses a healthy link.
	filler := 0
	for flap.Counts().Seen < lastWindowEnd {
		acc, err := f.InjectBatch("s0", 0, parityTraffic(64, 1))
		if err != nil {
			t.Fatal(err)
		}
		filler += acc
		f.Drain()
	}

	// The soak itself must balance before the parity phase: every soak
	// and filler frame delivered or counted, nothing wedged.
	soakSt := f.Stats()
	injected := uint64(soakFrames + filler)
	if got := soakSt.Accounted(); got != injected {
		t.Fatalf("soak conservation broken: %d frames accounted (%d delivered), injected %d",
			got, soakSt.Delivered, injected)
	}
	st1 := s1.Eng.Stats()
	if st1.ReconfigRetries == 0 || st1.CmdFaultsInjected == 0 {
		t.Fatalf("lossy control channel never bit: retries=%d faults=%d",
			st1.ReconfigRetries, st1.CmdFaultsInjected)
	}
	if st1.VerifyFailures != 0 {
		t.Fatalf("VerifyFailures = %d (budget of %d should absorb 5%% loss)", st1.VerifyFailures, vopts.MaxAttempts)
	}
	for name, n := range map[string]*EngineNode{"s0": s0, "s1": s1} {
		if ds := n.Eng.Stats().DegradedWorkers; ds != 0 {
			t.Fatalf("node %s: %d degraded workers after soak", name, ds)
		}
	}
	// Replica parity on the churned node: every shard agrees on tenant
	// 2's final configuration.
	var cs0 uint64
	for w := 0; w < 2; w++ {
		pipe, err := s1.Eng.Pipeline(w)
		if err != nil {
			t.Fatal(err)
		}
		if cs := pipe.ModuleChecksum(2); w == 0 {
			cs0 = cs
		} else if cs != cs0 {
			t.Fatalf("s1 shard %d checksum %#x != shard 0 %#x (torn after soak)", w, cs, cs0)
		}
	}

	// Recovery parity: clear the sink, drive the reference batch, and
	// compare per-host frame multisets (workers race on order) with the
	// reference walk's output.
	sink.mu.Lock()
	sink.frames = map[string][][]byte{}
	sink.hops = map[string][]int{}
	sink.mu.Unlock()
	for i := 0; i < recoveryFrames; i += 32 {
		end := min(i+32, recoveryFrames)
		if acc, err := f.InjectBatch("s0", 0, recovery[i:end]); err != nil || acc != end-i {
			t.Fatalf("recovery inject: acc=%d err=%v", acc, err)
		}
	}
	f.Drain()
	quiesce(t, f)
	compareHostSets(t, ref, sink)
}

// compareHostSets asserts the sink saw the same per-host frame
// multiset as the reference — byte parity modulo delivery order, which
// multi-worker nodes do not preserve.
func compareHostSets(t *testing.T, ref map[string][][]byte, sink *hostSink) {
	t.Helper()
	sortFrames := func(fs [][]byte) {
		sort.Slice(fs, func(i, j int) bool { return bytes.Compare(fs[i], fs[j]) < 0 })
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for k, want := range ref {
		got := append([][]byte(nil), sink.frames[k]...)
		want = append([][]byte(nil), want...)
		if len(got) != len(want) {
			t.Errorf("host %s: engine delivered %d frames, reference delivered %d", k, len(got), len(want))
			continue
		}
		sortFrames(got)
		sortFrames(want)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("host %s: frame multiset differs from the reference (first at sorted index %d: %s)",
					k, i, diffByte(got[i], want[i]))
				break
			}
		}
	}
	for k := range sink.frames {
		if _, ok := ref[k]; !ok {
			t.Errorf("host %s: engine delivered %d frames, reference delivered none", k, len(sink.frames[k]))
		}
	}
}

func diffByte(a, b []byte) string {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("byte %d: %#x != %#x", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("length %d != %d", len(a), len(b))
}
