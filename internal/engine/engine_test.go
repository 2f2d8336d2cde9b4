// Black-box engine tests through the public facade: multi-tenant
// concurrent submission, drain-on-close semantics, backpressure,
// per-tenant rate limiting, and functional parity with Device.Send.
// CI runs this package under -race.
package engine_test

import (
	"sync"
	"sync/atomic"
	"testing"

	menshen "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/p4progs"
	"repro/internal/trafficgen"
)

// newDevice returns a device with the named programs loaded as modules
// 1..n.
func newDevice(t testing.TB, programs ...string) *menshen.Device {
	t.Helper()
	dev := menshen.NewDevice()
	for i, name := range programs {
		p, err := p4progs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dev.LoadModule(p.Source(), uint16(i+1)); err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
	}
	return dev
}

func TestEngineMultiTenantConcurrent(t *testing.T) {
	dev := newDevice(t, "CALC", "NetCache")
	var forwarded atomic.Uint64
	eng, err := dev.NewEngine(menshen.EngineConfig{
		Workers:   4,
		BatchSize: 16,
		OnBatch: func(_ int, _ uint16, results []menshen.EngineResult) {
			for i := range results {
				if !results[i].Dropped {
					forwarded.Add(1)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const producers = 4
	const perProducer = 300
	var wg sync.WaitGroup
	var accepted atomic.Uint64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sc := trafficgen.NewScenario(uint64(p+1),
				trafficgen.TenantLoad{ModuleID: 1, Program: "CALC", Flows: 8},
				trafficgen.TenantLoad{ModuleID: 2, Program: "NetCache", Flows: 8, Weight: 2},
			)
			var batch [][]byte
			for sent := 0; sent < perProducer; sent += len(batch) {
				batch = sc.NextBatch(batch[:0], 50)
				n, err := eng.SubmitBatch(batch)
				if err != nil {
					t.Error(err)
					return
				}
				accepted.Add(uint64(n))
			}
		}(p)
	}
	wg.Wait()
	eng.Drain()

	st := eng.Stats()
	tot := st.Totals()
	want := uint64(producers * perProducer)
	if tot.Submitted != want {
		t.Errorf("Submitted = %d, want %d", tot.Submitted, want)
	}
	if tot.Processed+tot.PipelineDrops != accepted.Load() {
		t.Errorf("Processed+PipelineDrops = %d+%d, want accepted %d",
			tot.Processed, tot.PipelineDrops, accepted.Load())
	}
	if forwarded.Load() != tot.Processed {
		t.Errorf("OnBatch forwarded %d != stats Processed %d", forwarded.Load(), tot.Processed)
	}
	if tot.Processed == 0 {
		t.Error("nothing processed")
	}
	// Per-worker frames must add up too.
	var workerFrames uint64
	for _, ws := range st.Workers {
		workerFrames += ws.Frames
	}
	if workerFrames != accepted.Load() {
		t.Errorf("sum of worker frames = %d, want %d", workerFrames, accepted.Load())
	}
	for _, ws := range st.Workers {
		if ws.Frames > 0 && ws.P50BatchLatency <= 0 {
			t.Errorf("worker with traffic has zero p50 latency")
		}
	}
}

// TestEngineBlockingSubmitLargerThanRing pins the enqueue wakeup fix:
// a blocking (DropOnFull unset) submission of one tenant's run larger
// than the ring must complete — the submitter has to wake the worker
// before waiting for ring space, or both sleep forever.
func TestEngineBlockingSubmitLargerThanRing(t *testing.T) {
	dev := newDevice(t, "CALC")
	eng, err := dev.NewEngine(menshen.EngineConfig{Workers: 1, QueueDepth: 16, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	gen := trafficgen.DefaultGen("CALC", 1, 0, 1, trafficgen.NewPRNG(11))
	frames := make([][]byte, 256) // one flow, one ring, 16x its depth
	for i := range frames {
		frames[i] = gen(i)
	}
	n, err := eng.SubmitBatch(frames)
	if err != nil || n != len(frames) {
		t.Fatalf("SubmitBatch: n=%d err=%v", n, err)
	}
	eng.Drain()
	st := eng.Stats()
	if got := st.Tenants[1].Processed + st.Tenants[1].PipelineDrops; got != uint64(len(frames)) {
		t.Errorf("processed+dropped = %d, want %d", got, len(frames))
	}
}

func TestEngineDrainOnClose(t *testing.T) {
	dev := newDevice(t, "CALC")
	eng, err := dev.NewEngine(menshen.EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sc := trafficgen.NewScenario(7, trafficgen.TenantLoad{ModuleID: 1, Program: "CALC", Flows: 16})
	frames := sc.NextBatch(nil, 2000)
	n, err := eng.SubmitBatch(frames)
	if err != nil {
		t.Fatal(err)
	}
	// Close without Drain: every accepted frame must still be processed.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	tot := eng.Stats().Totals()
	if got := tot.Processed + tot.PipelineDrops; got != uint64(n) {
		t.Errorf("after Close: processed+dropped = %d, want %d accepted", got, n)
	}

	// The engine is now closed: submissions and second Close error.
	if _, err := eng.Submit(frames[0]); err == nil {
		t.Error("Submit after Close succeeded")
	}
	if err := eng.Close(); err == nil {
		t.Error("second Close succeeded")
	}
}

func TestEngineBackpressureDrop(t *testing.T) {
	dev := newDevice(t, "CALC")
	gate := make(chan struct{})
	var once sync.Once
	eng, err := dev.NewEngine(menshen.EngineConfig{
		Workers:    1,
		QueueDepth: 8,
		BatchSize:  4,
		DropOnFull: true,
		// Block the worker on its first batch so the ring fills up.
		OnBatch: func(int, uint16, []menshen.EngineResult) {
			once.Do(func() { <-gate })
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := trafficgen.NewScenario(3, trafficgen.TenantLoad{ModuleID: 1, Program: "CALC", Flows: 1})
	frames := sc.NextBatch(nil, 64)
	accepted, err := eng.SubmitBatch(frames)
	if err != nil {
		t.Fatal(err)
	}
	if accepted == len(frames) {
		t.Errorf("all %d frames accepted despite depth-8 ring and a blocked worker", len(frames))
	}
	close(gate)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	tot := eng.Stats().Totals()
	if tot.QueueFull == 0 {
		t.Error("no QueueFull drops recorded")
	}
	if got := tot.Processed + tot.PipelineDrops; got != uint64(accepted) {
		t.Errorf("processed+dropped = %d, want %d", got, accepted)
	}
}

func TestEngineTenantRateLimit(t *testing.T) {
	dev := newDevice(t, "CALC")
	eng, err := dev.NewEngine(menshen.EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// 10 pps with a 1-packet burst: a burst of 1000 is mostly shed.
	eng.SetTenantLimit(1, 10, 0)
	sc := trafficgen.NewScenario(5, trafficgen.TenantLoad{ModuleID: 1, Program: "CALC"})
	frames := sc.NextBatch(nil, 1000)
	accepted, err := eng.SubmitBatch(frames)
	if err != nil {
		t.Fatal(err)
	}
	eng.Drain()
	tot := eng.Stats().Totals()
	if tot.RateLimited == 0 {
		t.Fatal("no rate-limited drops recorded")
	}
	if tot.RateLimited+uint64(accepted) != uint64(len(frames)) {
		t.Errorf("rate-limited %d + accepted %d != %d submitted", tot.RateLimited, accepted, len(frames))
	}
	if accepted >= len(frames)/2 {
		t.Errorf("limiter accepted %d of %d at 10 pps", accepted, len(frames))
	}
}

func TestEngineParityWithSend(t *testing.T) {
	// One worker, one flow: the engine must produce byte-identical
	// outputs, in order, to the synchronous Device.Send path.
	devA := newDevice(t, "CALC")
	devB := newDevice(t, "CALC")

	const n = 100
	gen := trafficgen.DefaultGen("CALC", 1, 0, 1, trafficgen.NewPRNG(11))
	var want [][]byte
	for i := 0; i < n; i++ {
		res, err := devA.Send(gen(i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Dropped {
			t.Fatalf("frame %d dropped by Send: %s", i, res.Reason)
		}
		want = append(want, append([]byte(nil), res.Output...))
	}

	var got [][]byte
	var mu sync.Mutex
	eng, err := devB.NewEngine(menshen.EngineConfig{
		Workers: 1,
		OnBatch: func(_ int, _ uint16, results []menshen.EngineResult) {
			mu.Lock()
			defer mu.Unlock()
			for i := range results {
				if results[i].Dropped {
					t.Errorf("engine dropped a frame: %v", results[i].Verdict)
					continue
				}
				got = append(got, append([]byte(nil), results[i].Data...))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	gen = trafficgen.DefaultGen("CALC", 1, 0, 1, trafficgen.NewPRNG(11))
	for i := 0; i < n; i++ {
		if ok, err := eng.Submit(gen(i)); err != nil || !ok {
			t.Fatalf("submit %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	if len(got) != len(want) {
		t.Fatalf("engine forwarded %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("output %d differs between engine and Send", i)
		}
	}
}

func TestEngineShardStateConsistency(t *testing.T) {
	// The same flow always lands on the same shard, so a stateful
	// module's per-flow counters stay coherent: the per-shard system
	// packet counters must sum to the tenant's processed total.
	dev := newDevice(t, "CALC")
	eng, err := dev.NewEngine(menshen.EngineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	sc := trafficgen.NewScenario(9, trafficgen.TenantLoad{ModuleID: 1, Program: "CALC", Flows: 32})
	frames := sc.NextBatch(nil, 800)
	if _, err := eng.SubmitBatch(frames); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	tot := eng.Stats().Totals()
	var shardSum uint64
	for w := 0; w < eng.Workers(); w++ {
		pipe, err := eng.ShardPipeline(w)
		if err != nil {
			t.Fatal(err)
		}
		s := pipe.StatsFor(1)
		shardSum += s.Packets.Load()
	}
	if shardSum != tot.Processed {
		t.Errorf("shard packet counters sum to %d, stats say %d", shardSum, tot.Processed)
	}
}

// TestEngineFullRingIsolation pins the hand-off's isolation property
// deterministically: with the worker held inside OnBatch and tenant A's
// ring full, further submissions for A are refused at the ring — no
// frame copied, no pool traffic, exactly the offered count added to
// QueueFull — while tenant B, on the same shard, is accepted in full.
func TestEngineFullRingIsolation(t *testing.T) {
	const depth, flood = 64, 1000
	entered, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	eng, err := newDevice(t, "CALC", "CALC").NewEngine(menshen.EngineConfig{
		Workers:    1,
		QueueDepth: depth,
		BatchSize:  8,
		DropOnFull: true,
		OnBatch: func(int, uint16, []menshen.EngineResult) {
			once.Do(func() { close(entered); <-gate })
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	genA := trafficgen.DefaultGen("CALC", 1, 1500, 4, trafficgen.NewPRNG(41))
	genB := trafficgen.DefaultGen("CALC", 2, 128, 4, trafficgen.NewPRNG(43))
	framesA, framesB := make([][]byte, depth), make([][]byte, 32)
	for i := range framesA {
		framesA[i] = genA(i)
	}
	for i := range framesB {
		framesB[i] = genB(i)
	}

	// One frame parks the worker in the callback; then A's ring takes
	// exactly its depth.
	if ok, err := eng.Submit(framesA[0]); err != nil || !ok {
		t.Fatalf("primer: ok=%v err=%v", ok, err)
	}
	<-entered
	if n, err := eng.SubmitBatch(framesA); err != nil || n != depth {
		t.Fatalf("filling A's ring: accepted %d of %d, err=%v", n, depth, err)
	}

	before := eng.Stats()
	for i := 0; i < flood; i++ {
		if n, err := eng.SubmitBatch(framesA[:32]); err != nil || n != 0 {
			t.Fatalf("flood call %d: accepted %d at a full ring, err=%v", i, n, err)
		}
	}
	after := eng.Stats()
	if after.BytesCopied != before.BytesCopied {
		t.Errorf("refused frames were copied: BytesCopied %d -> %d", before.BytesCopied, after.BytesCopied)
	}
	if after.PoolHits != before.PoolHits || after.PoolMisses != before.PoolMisses {
		t.Errorf("refused frames touched the pool: hits %d -> %d, misses %d -> %d",
			before.PoolHits, after.PoolHits, before.PoolMisses, after.PoolMisses)
	}
	if got := after.Tenants[1].QueueFull - before.Tenants[1].QueueFull; got != flood*32 {
		t.Errorf("QueueFull rose by %d, want exactly the %d offered", got, flood*32)
	}
	if n, err := eng.SubmitBatch(framesB); err != nil || n != len(framesB) {
		t.Errorf("tenant B beside A's full ring: accepted %d of %d, err=%v", n, len(framesB), err)
	}

	close(gate)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	for id, want := range map[uint16]uint64{1: 1 + depth, 2: uint64(len(framesB))} {
		ts := st.Tenants[id]
		if got := ts.Processed + ts.PipelineDrops; got != want {
			t.Errorf("tenant %d: processed+dropped = %d, want the %d accepted", id, got, want)
		}
		if ts.Submitted != ts.Processed+ts.PipelineDrops+ts.QueueFull {
			t.Errorf("tenant %d: submitted %d != processed %d + dropped %d + queue-full %d",
				id, ts.Submitted, ts.Processed, ts.PipelineDrops, ts.QueueFull)
		}
	}
}

// TestNewEngineRejectsDeviceOwnedFields: the shards' geometry, options
// and module set come from the device; a config that names its own is
// refused rather than overwritten.
func TestNewEngineRejectsDeviceOwnedFields(t *testing.T) {
	dev := newDevice(t, "CALC")
	for name, cfg := range map[string]menshen.EngineConfig{
		"Geometry": {Geometry: core.DefaultGeometry()},
		"Options":  {Options: core.Unoptimized()},
		"Modules":  {Modules: []engine.ModuleSpec{{}}},
	} {
		if eng, err := dev.NewEngine(cfg); err == nil {
			eng.Close()
			t.Errorf("NewEngine accepted a config that sets %s", name)
		}
	}
}
