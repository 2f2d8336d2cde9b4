// Live-reconfiguration tests: command fan-out to running shards,
// quiesce barriers, tenant fencing, live module load/unload,
// reconfiguration frames on the submit paths (dropped as data), and the
// -race chaos scenario that reconfigures one tenant in a tight loop
// while others sustain traffic. CI runs these twice under -race (see
// .github/workflows/ci.yml).
package engine_test

import (
	"context"
	"sync"
	"testing"

	menshen "repro"
	"repro/internal/checker"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/p4progs"
	"repro/internal/packet"
	"repro/internal/reconfig"
	"repro/internal/tables"
	"repro/internal/trafficgen"
)

// keyMaskCmd is the reconfiguration command writing a uniform key mask
// for the module in the given stage.
func keyMaskCmd(moduleID uint16, stg int, fill byte) reconfig.Command {
	var mask tables.Key
	for i := range mask {
		mask[i] = fill
	}
	return reconfig.Command{
		Resource: reconfig.MakeResourceID(stg, reconfig.KindKeyMask),
		Index:    uint8(moduleID),
		Payload:  mask[:],
	}
}

// keyMaskFrame is keyMaskCmd as a raw Figure 7 reconfiguration frame.
func keyMaskFrame(t *testing.T, moduleID uint16, stg int, fill byte) []byte {
	t.Helper()
	frame, err := reconfig.AppendPacket(nil, moduleID, keyMaskCmd(moduleID, stg, fill))
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// newRawEngine starts an internal/engine engine with the named programs
// admitted as modules 1..n — the layer whose ApplyVerified carries a
// single command to every running shard. The engine closes with the
// test.
func newRawEngine(t *testing.T, cfg engine.Config, programs ...string) *engine.Engine {
	t.Helper()
	alloc := checker.NewAllocator(checker.CapacityOf(core.DefaultGeometry()), nil)
	for i, name := range programs {
		prog, err := compiler.Compile(programSource(t, name), compiler.Options{ModuleID: uint16(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		pl, err := alloc.Admit(prog.Config)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Modules = append(cfg.Modules, engine.ModuleSpec{Config: prog.Config, Placement: pl})
	}
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	return eng
}

// applyKeyMask writes a key mask on every shard through the verified
// wire and returns the generation that carried it.
func applyKeyMask(eng *engine.Engine, moduleID uint16, stg int, fill byte) (uint64, error) {
	gen, _, err := eng.ApplyVerified(context.Background(), moduleID,
		[]reconfig.Command{keyMaskCmd(moduleID, stg, fill)}, engine.VerifyOpts{})
	return gen, err
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
	eng := newRawEngine(t, engine.Config{Workers: 4}, "CALC")

	const stg = 3
	gen, err := applyKeyMask(eng, 1, stg, 0xA5)
	if err != nil {
		t.Fatal(err)
	}
	if gen == 0 {
		t.Fatal("ApplyVerified returned generation 0")
	}
	quiesce(t, eng, gen)

	var sum uint64
	for w := 0; w < eng.Workers(); w++ {
		pipe, err := eng.Pipeline(w)
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
	// Every submit entry point is a data path: a well-formed Figure 7
	// key-mask frame submitted through SubmitBatch or SubmitBatchOwned
	// is steered to its VLAN tenant and dropped by the shard's packet
	// filter, configuring nothing; so is a malformed one.
	dev := newDevice(t, "CALC")
	eng, err := dev.NewEngine(menshen.EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const stg = 2
	type shardState struct {
		mask tables.Key
		sum  uint64
	}
	shards := func() []shardState {
		out := make([]shardState, eng.Workers())
		for w := range out {
			pipe, err := eng.ShardPipeline(w)
			if err != nil {
				t.Fatal(err)
			}
			out[w].mask, _ = pipe.Stages[stg].Mask.Lookup(1)
			out[w].sum = pipe.ModuleChecksum(1)
		}
		return out
	}
	before := shards()
	frame := keyMaskFrame(t, 1, stg, 0x3C)
	// A truncated reconfiguration-port frame is not a valid command.
	bad, err := packet.NewUDP(1, packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{10, 0, 0, 2},
		0xf1f1, reconfig.ReconfigUDPPort, []byte{1, 2, 3}).Build()
	if err != nil {
		t.Fatal(err)
	}
	submits := []struct {
		name   string
		submit func() (int, error)
	}{
		{"SubmitBatch", func() (int, error) { return eng.SubmitBatch([][]byte{frame}) }},
		{"SubmitBatchOwned", func() (int, error) {
			buf := eng.Borrow(len(frame))
			copy(buf, frame)
			return eng.SubmitBatchOwned([][]byte{buf[:len(frame)]})
		}},
		{"SubmitBatch(malformed)", func() (int, error) { return eng.SubmitBatch([][]byte{bad}) }},
	}
	for i, s := range submits {
		if n, err := s.submit(); err != nil || n != 1 {
			t.Fatalf("%s(reconfig frame): accepted=%d err=%v", s.name, n, err)
		}
		eng.Drain()
		st := eng.Stats()
		if got := st.Tenants[1].PipelineDrops; got != uint64(i+1) {
			t.Errorf("%s: tenant 1 PipelineDrops = %d, want %d", s.name, got, i+1)
		}
		if st.ReconfigApplied != 0 {
			t.Errorf("%s: ReconfigApplied = %d, want 0", s.name, st.ReconfigApplied)
		}
		for w, got := range shards() {
			if got != before[w] {
				t.Errorf("%s: shard %d key mask %x checksum %#x, want %x %#x", s.name, w, got.mask, got.sum, before[w].mask, before[w].sum)
			}
		}
	}
	var filtered uint64
	for w := 0; w < eng.Workers(); w++ {
		pipe, err := eng.ShardPipeline(w)
		if err != nil {
			t.Fatal(err)
		}
		pipe.Locked(func() { filtered += pipe.Filter.VerdictCount(reconfig.VerdictDropReconfig) })
	}
	if filtered != uint64(len(submits)) {
		t.Errorf("filter dropped %d reconfiguration frames, want %d", filtered, len(submits))
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

	// Tenant 1's drained ledger after each step: the unloaded module's
	// frames are pipeline drops, the reloaded module forwards again.
	fates := func(step string, want [len(engine.TenantFates)]uint64) {
		t.Helper()
		if got := eng.Stats().Tenants[1].Fates(); got != want {
			t.Fatalf("%s: tenant 1 fates %v, want %v", step, got, want)
		}
	}
	submit(100)
	fates("baseline", [...]uint64{0, 0, 0, 0, 100})

	gen, err := eng.UnloadModule(1)
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, eng, gen)
	submit(100)
	fates("after live unload", [...]uint64{0, 0, 100, 0, 100})

	_, gen, _, err = eng.LoadModuleVerified(context.Background(), programSource(t, "CALC"), 1, menshen.VerifyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, eng, gen)
	submit(100)
	fates("after live reload", [...]uint64{0, 0, 100, 0, 200})
	if st := eng.Stats(); st.ReconfigFailed != 0 {
		t.Errorf("ReconfigFailed = %d", st.ReconfigFailed)
	}
}

func TestReconfigAfterClose(t *testing.T) {
	dev := newDevice(t, "CALC")
	eng, err := dev.NewEngine(menshen.EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := eng.UnloadModule(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// Generations issued before Close are applied before workers exit.
	quiesce(t, eng, gen)
	if _, _, _, err := eng.LoadModuleVerified(context.Background(), programSource(t, "CALC"), 1, menshen.VerifyOpts{}); err == nil {
		t.Error("LoadModuleVerified after Close succeeded")
	}
	if err := eng.AwaitQuiesceCtx(context.Background(), gen+100); err == nil {
		t.Error("AwaitQuiesceCtx(never-issued gen) succeeded")
	}
}

func TestReconfigRaceChaos(t *testing.T) {
	// The chaos scenario: tenant A (1) is reconfigured in a tight loop —
	// verified key-mask writes, with an egress weight set and cleared
	// between them — while
	// tenants B (2) and C (3) sustain traffic across 4 workers. B and C
	// must see zero drops beyond backpressure (blocking mode: zero,
	// full stop), and after the final quiesce every shard replica must
	// hold an identical configuration (no torn configs).
	eng := newRawEngine(t, engine.Config{Workers: 4, BatchSize: 16}, "CALC", "CALC", "CALC")

	const raceIters = 150
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // reconfigurer: tenant A in a tight loop
		defer wg.Done()
		for i := 0; i < raceIters; i++ {
			fill := byte(0x0F)
			if i%2 == 1 {
				fill = 0xF0
			}
			if i%10 == 0 {
				if _, err := eng.SetEgressWeight(1, 2); err != nil {
					t.Error(err)
					return
				}
			}
			if _, err := applyKeyMask(eng, 1, 3, fill); err != nil {
				t.Error(err)
				return
			}
			if i%10 == 9 {
				if _, err := eng.SetEgressWeight(1, 0); err != nil {
					t.Error(err)
					return
				}
			}
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
	finalGen, err := applyKeyMask(eng, 1, 3, 0x0F)
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, eng, finalGen)
	eng.Drain()

	st := eng.Stats()
	if err := st.Conserved(); err != nil {
		t.Error(err)
	}
	for _, tenant := range []uint16{2, 3} {
		ts := st.Tenants[tenant]
		if ts.Processed != ts.Submitted {
			t.Errorf("tenant %d lost frames during reconfig churn: fates %v of %d submitted", tenant, ts.Fates(), ts.Submitted)
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
			pipe, err := eng.Pipeline(w)
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
