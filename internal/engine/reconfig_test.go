// Live-reconfiguration tests: command fan-out to running shards,
// quiesce barriers, tenant fencing, live module load/unload, the
// Submit-path control frames, and the -race chaos scenario that
// reconfigures one tenant in a tight loop while others sustain traffic.
// CI runs these twice under -race (see .github/workflows/ci.yml).
package engine_test

import (
	"context"
	"sync"
	"testing"

	menshen "repro"
	"repro/internal/p4progs"
	"repro/internal/packet"
	"repro/internal/reconfig"
	"repro/internal/tables"
	"repro/internal/trafficgen"
)

// keyMaskFrame builds a raw reconfiguration frame (Figure 7 wire
// format) writing a uniform key mask for the module in the given stage.
func keyMaskFrame(t *testing.T, moduleID uint16, stg int, fill byte) []byte {
	t.Helper()
	var mask tables.Key
	for i := range mask {
		mask[i] = fill
	}
	frame, err := reconfig.EncodePacket(moduleID, reconfig.Command{
		Resource: reconfig.MakeResourceID(stg, reconfig.KindKeyMask),
		Index:    uint8(moduleID),
		Payload:  mask[:],
	})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func programSource(t *testing.T, name string) string {
	t.Helper()
	p, err := p4progs.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p.Source()
}

func TestReconfigReachesAllShards(t *testing.T) {
	// The acceptance scenario: a reconfiguration applied to a running
	// 4-worker engine must reach every shard, observable through
	// AwaitQuiesceCtx plus per-shard generation counters and checksums.
	dev := newDevice(t, "CALC")
	eng, err := dev.NewEngine(menshen.EngineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const stg = 3
	gen, err := eng.ApplyReconfig(keyMaskFrame(t, 1, stg, 0xA5))
	if err != nil {
		t.Fatal(err)
	}
	if gen == 0 {
		t.Fatal("ApplyReconfig returned generation 0")
	}
	quiesce(t, eng, gen)

	var sum uint64
	for w := 0; w < eng.Workers(); w++ {
		pipe, err := eng.ShardPipeline(w)
		if err != nil {
			t.Fatal(err)
		}
		mask, ok := pipe.Stages[stg].Mask.Lookup(1)
		if !ok || mask[0] != 0xA5 {
			t.Errorf("shard %d: mask not applied (ok=%v mask[0]=%#x)", w, ok, mask[0])
		}
		cs := pipe.ModuleChecksum(1)
		if w == 0 {
			sum = cs
		} else if cs != sum {
			t.Errorf("shard %d: checksum %#x differs from shard 0's %#x", w, cs, sum)
		}
	}

	st := eng.Stats()
	if st.ReconfigIssued != gen {
		t.Errorf("ReconfigIssued = %d, want %d", st.ReconfigIssued, gen)
	}
	if st.ReconfigApplied != uint64(eng.Workers()) {
		t.Errorf("ReconfigApplied = %d, want %d (one command per shard)", st.ReconfigApplied, eng.Workers())
	}
	if st.ReconfigFailed != 0 {
		t.Errorf("ReconfigFailed = %d", st.ReconfigFailed)
	}
	for i, ws := range st.Workers {
		if ws.ReconfigGen != gen {
			t.Errorf("worker %d: ReconfigGen = %d, want %d", i, ws.ReconfigGen, gen)
		}
	}
}

func TestReconfigSubmitFramePath(t *testing.T) {
	// Well-formed reconfiguration frames interleaved into SubmitBatch are
	// diverted to the control plane; malformed ones fall through to the
	// data path where every shard's packet filter drops them.
	dev := newDevice(t, "CALC")
	eng, err := dev.NewEngine(menshen.EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	if n, err := eng.SubmitBatch([][]byte{keyMaskFrame(t, 1, 2, 0x3C)}); err != nil || n != 1 {
		t.Fatalf("SubmitBatch(reconfig frame): accepted=%d err=%v", n, err)
	}
	quiesce(t, eng, 0)
	for w := 0; w < eng.Workers(); w++ {
		pipe, err := eng.ShardPipeline(w)
		if err != nil {
			t.Fatal(err)
		}
		if mask, ok := pipe.Stages[2].Mask.Lookup(1); !ok || mask[0] != 0x3C {
			t.Errorf("shard %d: mask from Submit-path frame not applied", w)
		}
	}
	if st := eng.Stats(); st.ReconfigFrames != 1 {
		t.Errorf("ReconfigFrames = %d, want 1", st.ReconfigFrames)
	}

	// A truncated reconfiguration-port frame is not a valid command:
	// it must be steered as data and dropped by the shard's filter.
	bad, err := packet.NewUDP(1, packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{10, 0, 0, 2},
		0xf1f1, reconfig.ReconfigUDPPort, []byte{1, 2, 3}).Build()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := eng.SubmitBatch([][]byte{bad}); err != nil || n != 1 {
		t.Fatalf("SubmitBatch(malformed reconfig frame): accepted=%d err=%v", n, err)
	}
	eng.Drain()
	st := eng.Stats()
	if st.ReconfigFrames != 1 {
		t.Errorf("malformed frame counted as control frame")
	}
	if got := st.Tenants[1].PipelineDrops; got != 1 {
		t.Errorf("malformed reconfig frame: PipelineDrops = %d, want 1", got)
	}
}

func TestReconfigTenantFence(t *testing.T) {
	// BeginTenantUpdate holds (not drops) the tenant's frames on every
	// shard until EndTenantUpdate, while the update bitmap reports the
	// fence.
	dev := newDevice(t, "CALC")
	eng, err := dev.NewEngine(menshen.EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	gen, err := eng.BeginTenantUpdate(1)
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, eng, gen)
	if st := eng.Stats(); st.Updating&(1<<1) == 0 {
		t.Error("update bitmap bit not set during fence")
	}

	sc := trafficgen.NewScenario(21, trafficgen.TenantLoad{ModuleID: 1, Program: "CALC", Flows: 8})
	frames := sc.NextBatch(nil, 200)
	n, err := eng.SubmitBatch(frames)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(frames) {
		t.Fatalf("fenced tenant: %d/%d accepted (should queue, not drop)", n, len(frames))
	}
	// The fence guarantees none of the queued frames can be processed.
	if st := eng.Stats(); st.Tenants[1].Processed != 0 {
		t.Errorf("fenced tenant processed %d frames", st.Tenants[1].Processed)
	}

	// Reconfigure under the fence, then lift it: held frames flow.
	if _, err := eng.ApplyReconfig(keyMaskFrame(t, 1, 3, 0xFF)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.EndTenantUpdate(1); err != nil {
		t.Fatal(err)
	}
	eng.Drain()
	st := eng.Stats()
	if st.Updating&(1<<1) != 0 {
		t.Error("update bitmap bit still set after EndTenantUpdate")
	}
	if got := st.Tenants[1].Processed + st.Tenants[1].PipelineDrops; got != uint64(n) {
		t.Errorf("after fence lift: processed+dropped = %d, want %d", got, n)
	}
	if st.Tenants[1].Processed == 0 {
		t.Error("no frames processed after fence lift")
	}
}

func TestReconfigLiveLoadUnload(t *testing.T) {
	// Unloading and reloading a module on a live engine takes effect on
	// every shard without recreating the engine.
	dev := newDevice(t, "CALC")
	eng, err := dev.NewEngine(menshen.EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	sc := trafficgen.NewScenario(33, trafficgen.TenantLoad{ModuleID: 1, Program: "CALC", Flows: 8})
	submit := func(n int) int {
		frames := sc.NextBatch(nil, n)
		got, err := eng.SubmitBatch(frames)
		if err != nil {
			t.Fatal(err)
		}
		eng.Drain()
		return got
	}

	submit(100)
	st := eng.Stats()
	if st.Tenants[1].Processed != 100 {
		t.Fatalf("baseline: processed %d/100", st.Tenants[1].Processed)
	}

	gen, err := eng.UnloadModule(1)
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, eng, gen)
	submit(100)
	st = eng.Stats()
	if st.Tenants[1].Processed != 100 {
		t.Errorf("after live unload: processed %d, want still 100", st.Tenants[1].Processed)
	}
	if st.Tenants[1].PipelineDrops != 100 {
		t.Errorf("after live unload: pipeline drops %d, want 100", st.Tenants[1].PipelineDrops)
	}

	_, gen, _, err = eng.LoadModuleVerified(context.Background(), programSource(t, "CALC"), 1, menshen.VerifyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, eng, gen)
	submit(100)
	st = eng.Stats()
	if st.Tenants[1].Processed != 200 {
		t.Errorf("after live reload: processed %d, want 200", st.Tenants[1].Processed)
	}
	if st.ReconfigFailed != 0 {
		t.Errorf("ReconfigFailed = %d", st.ReconfigFailed)
	}
}

func TestReconfigAfterClose(t *testing.T) {
	dev := newDevice(t, "CALC")
	eng, err := dev.NewEngine(menshen.EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := eng.ApplyReconfig(keyMaskFrame(t, 1, 2, 0x55))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// Generations issued before Close are applied before workers exit.
	quiesce(t, eng, gen)
	if _, err := eng.ApplyReconfig(keyMaskFrame(t, 1, 2, 0x66)); err == nil {
		t.Error("ApplyReconfig after Close succeeded")
	}
	if err := eng.AwaitQuiesceCtx(context.Background(), gen+100); err == nil {
		t.Error("AwaitQuiesceCtx(never-issued gen) succeeded")
	}
}

func TestReconfigRaceChaos(t *testing.T) {
	// The chaos scenario: tenant A (1) is reconfigured in a tight loop —
	// raw command frames, fence windows, filter-bitmap toggles — while
	// tenants B (2) and C (3) sustain traffic across 4 workers. B and C
	// must see zero drops beyond backpressure (blocking mode: zero,
	// full stop), and after the final quiesce every shard replica must
	// hold an identical configuration (no torn configs).
	dev := newDevice(t, "CALC", "CALC", "CALC")
	eng, err := dev.NewEngine(menshen.EngineConfig{Workers: 4, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const raceIters = 150
	frameA := keyMaskFrame(t, 1, 3, 0x0F)
	frameB := keyMaskFrame(t, 1, 3, 0xF0)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // reconfigurer: tenant A in a tight loop
		defer wg.Done()
		for i := 0; i < raceIters; i++ {
			f := frameA
			if i%2 == 1 {
				f = frameB
			}
			if i%10 == 0 {
				if _, err := eng.BeginTenantUpdate(1); err != nil {
					t.Error(err)
					return
				}
			}
			gen, err := eng.ApplyReconfig(f)
			if err != nil {
				t.Error(err)
				return
			}
			if i%10 == 9 {
				if _, err := eng.EndTenantUpdate(1); err != nil {
					t.Error(err)
					return
				}
			}
			if i%25 == 0 {
				if _, err := eng.SetTenantUpdating(1, true); err != nil {
					t.Error(err)
					return
				}
				if _, err := eng.SetTenantUpdating(1, false); err != nil {
					t.Error(err)
					return
				}
			}
			if i%16 == 0 {
				// Not quiesce: t.Fatal must not run off the test goroutine.
				ctx, cancel := context.WithTimeout(context.Background(), quiesceTimeout)
				err := eng.AwaitQuiesceCtx(ctx, gen)
				cancel()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}
		// Leave no fence open (Drain would block on held frames).
		if _, err := eng.EndTenantUpdate(1); err != nil {
			t.Error(err)
		}
	}()

	const producers = 2
	const perProducer = 4000
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sc := trafficgen.NewScenario(uint64(100+p),
				trafficgen.TenantLoad{ModuleID: 2, Program: "CALC", Flows: 16},
				trafficgen.TenantLoad{ModuleID: 3, Program: "CALC", Flows: 16},
			)
			var batch [][]byte
			for sent := 0; sent < perProducer; sent += len(batch) {
				n := 64
				if rem := perProducer - sent; n > rem {
					n = rem
				}
				batch = sc.NextBatch(batch[:0], n)
				if _, err := eng.SubmitBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()

	// Final canonical configuration, engine-wide barrier, then drain.
	finalGen, err := eng.ApplyReconfig(frameA)
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, eng, finalGen)
	eng.Drain()

	st := eng.Stats()
	for _, tenant := range []uint16{2, 3} {
		ts := st.Tenants[tenant]
		if ts.Dropped() != 0 {
			t.Errorf("tenant %d dropped %d frames (rate %d, queue %d, pipeline %d) during reconfig churn",
				tenant, ts.Dropped(), ts.RateLimited, ts.QueueFull, ts.PipelineDrops)
		}
		if ts.Processed != ts.Submitted {
			t.Errorf("tenant %d: processed %d != submitted %d", tenant, ts.Processed, ts.Submitted)
		}
		if ts.Submitted != producers*perProducer/2 {
			t.Errorf("tenant %d: submitted %d, want %d", tenant, ts.Submitted, producers*perProducer/2)
		}
	}

	if st.ReconfigFailed != 0 {
		t.Errorf("ReconfigFailed = %d", st.ReconfigFailed)
	}
	wantApplied := uint64((raceIters + 1) * eng.Workers())
	if st.ReconfigApplied != wantApplied {
		t.Errorf("ReconfigApplied = %d, want %d", st.ReconfigApplied, wantApplied)
	}
	for i, ws := range st.Workers {
		if ws.ReconfigGen != st.ReconfigIssued {
			t.Errorf("worker %d: ReconfigGen %d != issued %d after quiesce", i, ws.ReconfigGen, st.ReconfigIssued)
		}
	}

	// Checksum every shard replica: identical configurations, for the
	// churned tenant and the undisturbed ones alike.
	for _, tenant := range []uint16{1, 2, 3} {
		var sum uint64
		for w := 0; w < eng.Workers(); w++ {
			pipe, err := eng.ShardPipeline(w)
			if err != nil {
				t.Fatal(err)
			}
			cs := pipe.ModuleChecksum(tenant)
			if w == 0 {
				sum = cs
			} else if cs != sum {
				t.Errorf("tenant %d: shard %d checksum %#x != shard 0 checksum %#x (torn config)",
					tenant, w, cs, sum)
			}
		}
	}
}
