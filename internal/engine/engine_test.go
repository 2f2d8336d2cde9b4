// Black-box engine tests through the public facade: multi-tenant
// concurrent submission, drain-on-close semantics, backpressure,
// per-tenant rate limiting, and functional parity with Device.Send.
// CI runs this package under -race.
package engine_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// quiesceTimeout bounds every barrier wait in these tests, so a wedged
// shard fails its test in seconds rather than at go test's timeout.
const quiesceTimeout = 30 * time.Second

// quiescer is the barrier surface the facade engine and the internal
// engine share.
type quiescer interface {
	QuiesceCtx(ctx context.Context) error
	AwaitQuiesceCtx(ctx context.Context, gen uint64) error
}

// quiesce waits until every shard has applied generation gen — for gen
// 0, a fresh barrier behind everything issued so far — and fails the
// test if that takes longer than quiesceTimeout.
func quiesce(t testing.TB, eng quiescer, gen uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), quiesceTimeout)
	defer cancel()
	var err error
	if gen == 0 {
		err = eng.QuiesceCtx(ctx)
	} else {
		err = eng.AwaitQuiesceCtx(ctx, gen)
	}
	if err != nil {
		t.Fatalf("quiesce generation %d (0 = fresh barrier): %v", gen, err)
	}
}

// gatedEngine is an engine whose delivery callback can hold a worker,
// so a test builds a backlog instead of racing the worker for one.
// hold submits one primer frame and returns once a worker waits inside
// OnBatch; until release, every worker that reaches OnBatch waits there
// and frames submitted meanwhile only queue. hold and release can
// alternate any number of times; release is idempotent and runs at
// cleanup, before the engine closes.
type gatedEngine struct {
	*menshen.Engine
	gate atomic.Pointer[gate]
}

// gate is one hold: entered closes when the first worker waits in it,
// open when it is released.
type gate struct {
	entered, open chan struct{}
	once          sync.Once
}

// newGatedEngine builds dev's engine from cfg, whose own OnBatch (if
// any) runs once the gate lets the worker through.
func newGatedEngine(t testing.TB, dev *menshen.Device, cfg menshen.EngineConfig) *gatedEngine {
	t.Helper()
	g := &gatedEngine{}
	inner := cfg.OnBatch
	cfg.OnBatch = func(w int, tenant uint16, res []menshen.EngineResult) {
		if h := g.gate.Load(); h != nil {
			h.once.Do(func() { close(h.entered) })
			<-h.open
		}
		if inner != nil {
			inner(w, tenant, res)
		}
	}
	eng, err := dev.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.Engine = eng
	t.Cleanup(func() {
		g.release()
		eng.Close()
	})
	return g
}

// hold arms a fresh gate, submits primer (a frame the engine forwards)
// and waits until a worker is inside OnBatch.
func (g *gatedEngine) hold(t testing.TB, primer []byte) {
	t.Helper()
	h := &gate{entered: make(chan struct{}), open: make(chan struct{})}
	g.gate.Store(h)
	if n, err := g.SubmitBatch([][]byte{primer}); err != nil || n != 1 {
		t.Fatalf("primer: accepted=%d err=%v", n, err)
	}
	select {
	case <-h.entered:
	case <-time.After(quiesceTimeout):
		t.Fatal("no worker entered OnBatch")
	}
}

// release opens the current gate, if any.
func (g *gatedEngine) release() {
	if h := g.gate.Swap(nil); h != nil {
		close(h.open)
	}
}

// checkAllAccepted pins a drained tenant that refused nothing: n frames
// submitted, none rate-limited or queue-full, and (Conserved) each of
// them ended in a fate past the ring.
func checkAllAccepted(t testing.TB, st engine.Stats, tenant uint16, n int) {
	t.Helper()
	if ts := st.Tenants[tenant]; ts.Submitted != uint64(n) || ts.RateLimited != 0 || ts.QueueFull != 0 {
		t.Errorf("tenant %d: fates %v of %d submitted, want all %d accepted", tenant, ts.Fates(), ts.Submitted, n)
	}
	if err := st.Conserved(); err != nil {
		t.Error(err)
	}
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
	if tot.Submitted != want || accepted.Load() != want || tot.RateLimited != 0 || tot.QueueFull != 0 {
		t.Errorf("submitted %d, accepted %d (rate-limited %d, queue-full %d), want all %d accepted",
			tot.Submitted, accepted.Load(), tot.RateLimited, tot.QueueFull, want)
	}
	if err := st.Conserved(); err != nil {
		t.Error(err)
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
	checkAllAccepted(t, eng.Stats(), 1, len(frames))
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
	if n != len(frames) {
		t.Fatalf("blocking SubmitBatch accepted %d of %d", n, len(frames))
	}
	checkAllAccepted(t, eng.Stats(), 1, n)

	// The engine is now closed: submissions and second Close error.
	if _, err := eng.SubmitBatch(frames[:1]); err == nil {
		t.Error("SubmitBatch after Close succeeded")
	}
	if err := eng.Close(); err == nil {
		t.Error("second Close succeeded")
	}
}

func TestEngineBackpressureDrop(t *testing.T) {
	eng := newGatedEngine(t, newDevice(t, "CALC"), menshen.EngineConfig{
		Workers:    1,
		QueueDepth: 8,
		BatchSize:  4,
		DropOnFull: true,
	})
	sc := trafficgen.NewScenario(3, trafficgen.TenantLoad{ModuleID: 1, Program: "CALC", Flows: 1})
	frames := sc.NextBatch(nil, 64)
	// Hold the worker on the first frame so the ring fills up.
	eng.hold(t, frames[0])
	frames = frames[1:]
	accepted, err := eng.SubmitBatch(frames)
	if err != nil {
		t.Fatal(err)
	}
	if accepted == len(frames) {
		t.Errorf("all %d frames accepted despite depth-8 ring and a blocked worker", len(frames))
	}
	eng.release()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if tot := st.Totals(); tot.QueueFull != uint64(len(frames)-accepted) {
		t.Errorf("QueueFull = %d, want the %d refused", tot.QueueFull, len(frames)-accepted)
	}
	if err := st.Conserved(); err != nil {
		t.Error(err)
	}
}

func TestEngineTenantRateLimit(t *testing.T) {
	// Tenant 1 is limited, tenant 2 rides the same batches unlimited.
	dev := newDevice(t, "CALC", "CALC")
	eng, err := dev.NewEngine(menshen.EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// 10 pps with a 1-packet burst: tenant 1's share of a burst of 1000
	// is mostly shed.
	eng.SetTenantLimit(1, 10, 0)
	sc := trafficgen.NewScenario(5,
		trafficgen.TenantLoad{ModuleID: 1, Program: "CALC"},
		trafficgen.TenantLoad{ModuleID: 2, Program: "CALC"})
	frames := sc.NextBatch(nil, 1000)
	accepted, err := eng.SubmitBatch(frames)
	if err != nil {
		t.Fatal(err)
	}
	eng.Drain()
	st := eng.Stats()
	limited, free := st.Tenants[1], st.Tenants[2]
	if limited.RateLimited == 0 {
		t.Fatal("no rate-limited drops recorded")
	}
	if refused := uint64(len(frames) - accepted); refused != limited.RateLimited {
		t.Errorf("%d of %d frames refused, but tenant 1 was rate-limited %d", refused, len(frames), limited.RateLimited)
	}
	if limited.Submitted-limited.RateLimited >= limited.Submitted/2 {
		t.Errorf("limiter accepted %d of %d at 10 pps", limited.Submitted-limited.RateLimited, limited.Submitted)
	}
	// The limit is tenant 1's alone: tenant 2 lost nothing.
	if free.Submitted == 0 || free.RateLimited != 0 || free.Processed != free.Submitted {
		t.Errorf("unlimited tenant 2: submitted %d, rate-limited %d, forwarded %d; want all forwarded",
			free.Submitted, free.RateLimited, free.Processed)
	}

	// Zero in both dimensions lifts the limit: tenant 1's next batch is
	// accepted in full.
	eng.SetTenantLimit(1, 0, 0)
	only1 := trafficgen.NewScenario(6, trafficgen.TenantLoad{ModuleID: 1, Program: "CALC"}).NextBatch(nil, 200)
	if n, err := eng.SubmitBatch(only1); err != nil || n != len(only1) {
		t.Fatalf("after lifting the limit: accepted %d of %d (err %v)", n, len(only1), err)
	}
	eng.Drain()
	if got := eng.Stats().Tenants[1].RateLimited; got != limited.RateLimited {
		t.Errorf("rate-limited count moved from %d to %d after the limit was lifted", limited.RateLimited, got)
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
		if n, err := eng.SubmitBatch([][]byte{gen(i)}); err != nil || n != 1 {
			t.Fatalf("submit %d: accepted=%d err=%v", i, n, err)
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
		shardSum += pipe.StatsFor(1).Packets
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
	eng := newGatedEngine(t, newDevice(t, "CALC", "CALC"), menshen.EngineConfig{
		Workers:    1,
		QueueDepth: depth,
		BatchSize:  8,
		DropOnFull: true,
	})
	genA := trafficgen.DefaultGen("CALC", 1, 1500, 4, trafficgen.NewPRNG(41))
	genB := trafficgen.DefaultGen("CALC", 2, 128, 4, trafficgen.NewPRNG(43))
	framesA, framesB := make([][]byte, depth), make([][]byte, 32)
	for i := range framesA {
		framesA[i] = genA(i)
	}
	for i := range framesB {
		framesB[i] = genB(i)
	}

	// One frame holds the worker in the callback; then A's ring takes
	// exactly its depth.
	eng.hold(t, framesA[0])
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

	eng.release()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if err := st.Conserved(); err != nil {
		t.Error(err)
	}
	for id, want := range map[uint16]uint64{1: 1 + depth, 2: uint64(len(framesB))} {
		if ts := st.Tenants[id]; ts.Submitted-ts.QueueFull != want {
			t.Errorf("tenant %d: submitted %d - queue-full %d, want the %d accepted", id, ts.Submitted, ts.QueueFull, want)
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
