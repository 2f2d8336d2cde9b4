package menshen

// TestHotPathZeroAlloc is the single runtime allocation guard for every
// //menshen:hotpath-annotated function. The table below claims each
// annotation key reported by internal/analysis/hotpath.Scan, and the
// annotation-drift subtest fails if an annotated function has no guard
// (or a guard names a function that lost its annotation), so the
// static annotation set — which the hotpathalloc analyzer enforces —
// and the dynamic AllocsPerRun pins cannot drift apart.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/analysis/hotpath"
	"repro/internal/checker"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/ingress"
	"repro/internal/packet"
	"repro/internal/reconfig"
	"repro/internal/sched"
	"repro/internal/stage"
	"repro/internal/sysmod"
	"repro/internal/tables"
	"repro/internal/trafficgen"
)

// hotPathGuard pins the steady-state allocation behavior of the
// annotated functions it covers.
type hotPathGuard struct {
	name string
	// covers lists the hotpath.Scan keys this guard is responsible
	// for. Every annotated function must be claimed by exactly one
	// guard; a guard may claim none when it pins an unannotated
	// steady-state path whose budget the annotations feed into.
	covers []string
	// skipRace marks guards whose measured path has worker goroutines
	// racing the measurement loop (or sync.Pool reuse the detector
	// defeats); they run in the non-race CI pass only.
	skipRace bool
	run      func(t *testing.T)
}

// hotTraffic builds an interleaved two-tenant stream (CALC=1,
// NetCache=2) long enough for pool buffers to be recycled many times.
func hotTraffic(n int) [][]byte {
	calc := trafficgen.DefaultGen("CALC", 1, 0, 8, trafficgen.NewPRNG(3))
	kv := trafficgen.DefaultGen("NetCache", 2, 0, 8, trafficgen.NewPRNG(4))
	frames := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			frames = append(frames, calc(i))
		} else {
			frames = append(frames, kv(i))
		}
	}
	return frames
}

// hotEngine returns a started two-tenant engine with the given config.
func hotEngine(t *testing.T, cfg EngineConfig) *Engine {
	t.Helper()
	dev := NewDevice()
	for i, name := range []string{"CALC", "NetCache"} {
		if _, err := dev.LoadModule(mustProgram(t, name), uint16(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := dev.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

var hotPathGuards = []hotPathGuard{
	{
		name: "cuckoo-lookup",
		covers: []string{
			"internal/tables.(*Cuckoo).BucketLines",
			"internal/tables.(*Cuckoo).LookupWords",
			"internal/tables.(*Cuckoo).LookupWordsBatch",
			"internal/tables.(*FlowTables).LookupWords",
			"internal/tables.(*FlowTables).LookupWordsBatch",
			"internal/tables.(*cuckooState).bucket",
			"internal/tables.slotKWEqual",
		},
		run: func(t *testing.T) {
			ft := tables.NewFlowTables(tables.OverlayDepth)
			c, err := ft.Open(1)
			if err != nil {
				t.Fatal(err)
			}
			keys := make([]tables.Key, 512)
			for i := range keys {
				binary.LittleEndian.PutUint64(keys[i][:8], uint64(i)*0x9e3779b97f4a7c15+1)
				if err := c.Insert(keys[i], i); err != nil {
					t.Fatal(err)
				}
			}
			kws := make([]tables.KeyWords, 64)
			for i := range kws {
				kws[i] = keys[i].Words()
			}
			out := make([]int32, len(kws))
			allocs := testing.AllocsPerRun(100, func() {
				kw := keys[7].Words()
				for _, w := range c.BucketLines(&kw) {
					_ = *w
				}
				if _, ok := c.LookupWords(&kw); !ok {
					t.Fatal("warm LookupWords missed")
				}
				if _, ok := ft.LookupWords(&kw, 1); !ok {
					t.Fatal("warm FlowTables.LookupWords missed")
				}
				if hits := c.LookupWordsBatch(kws, out); hits != len(kws) {
					t.Fatalf("batch lookup hit %d of %d", hits, len(kws))
				}
				if hits := ft.LookupWordsBatch(1, kws, out); hits != len(kws) {
					t.Fatalf("FlowTables batch lookup hit %d of %d", hits, len(kws))
				}
			})
			if allocs != 0 {
				t.Errorf("cuckoo lookups allocate %.1f per cycle; want 0", allocs)
			}
		},
	},
	{
		name: "egress-queue",
		covers: []string{
			"internal/sched.(*EgressQueue).Pop",
			"internal/sched.(*EgressQueue).Push",
			"internal/sched.(*EgressQueue).beats",
			"internal/sched.(*EgressQueue).maxIndex",
			"internal/sched.(*EgressQueue).removeMax",
			"internal/sched.(*EgressQueue).siftUp",
			"internal/sched.(*EgressQueue).siftUpGrand",
			"internal/sched.(*EgressQueue).trickleDown",
		},
		run: func(t *testing.T) {
			q := sched.NewEgressQueue(256)
			_ = q.SetWeight(1, 3)
			_ = q.SetWeight(2, 1)
			frame := make([]byte, 512)
			for i := 0; i < 512; i++ { // warm the maps and fill the heap
				q.Push(uint16(1+i%2), 0, frame, 0)
			}
			allocs := testing.AllocsPerRun(200, func() {
				q.Push(1, 0, frame, 0)
				q.Push(2, 0, frame, 0)
				q.Pop()
				q.Pop()
			})
			if allocs != 0 {
				t.Errorf("egress queue steady state allocates %.1f per cycle; want 0", allocs)
			}
		},
	},
	{
		name: "engine-steady-state",
		covers: []string{
			"internal/engine.(*Engine).submitBatch",
			"internal/engine.(*Pool).get",
			"internal/engine.(*Pool).put",
			"internal/engine.(*Pool).putAll",
			"internal/engine.(*latHist).observe",
			"internal/engine.(*poolStasher).flush",
			"internal/engine.(*poolStasher).get",
			"internal/engine.(*ring).fill",
			"internal/engine.(*ring).len",
			"internal/engine.(*ring).pop",
			"internal/engine.(*ring).publish",
			"internal/engine.(*ring).ready",
			"internal/engine.(*ring).reserve",
			"internal/engine.(*telemetry).tenant",
			"internal/engine.(*worker).batchDone",
			"internal/engine.(*worker).egressDrain",
			"internal/engine.(*worker).egressEnqueue",
			"internal/engine.(*worker).next",
			"internal/engine.(*worker).ringFor",
			"internal/engine.(*worker).run",
			"internal/engine.(*worker).submit",
			"internal/engine.(*worker).wake",
			"internal/engine.fnvAdd",
			"internal/engine.mix64",
			"internal/engine.steer",
		},
		skipRace: true,
		run: func(t *testing.T) {
			eng := hotEngine(t, EngineConfig{
				Workers:       1,
				BatchSize:     16,
				QueueDepth:    4096,
				DropOnFull:    true,
				EgressWeights: map[uint16]float64{1: 3, 2: 1},
				EgressQuantum: 4,
			})
			frames := hotTraffic(512)
			// Warm every pool, ring, scratch, and scheduler map.
			for i := 0; i < 4; i++ {
				if _, err := eng.SubmitBatch(frames); err != nil {
					t.Fatal(err)
				}
				eng.Drain()
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := eng.SubmitBatch(frames); err != nil {
					t.Fatal(err)
				}
				eng.Drain()
			})
			// The worker goroutine races the measurement loop, so allow
			// the occasional stray allocation while still catching any
			// per-frame or per-batch allocation (512 frames/run would
			// show up as hundreds).
			if allocs > 3 {
				t.Errorf("engine steady state allocates %.1f per 512-frame cycle; want ~0", allocs)
			}
		},
	},
	{
		name: "pool-borrow-release",
		covers: []string{
			"internal/engine.(*Engine).Borrow",
			"internal/engine.(*Engine).Release",
		},
		run: func(t *testing.T) {
			eng := hotEngine(t, EngineConfig{Workers: 1})
			eng.Release(eng.Borrow(512)) // warm the size class
			allocs := testing.AllocsPerRun(100, func() {
				eng.Release(eng.Borrow(512))
			})
			if allocs != 0 {
				t.Errorf("warm Borrow/Release allocates %.1f per cycle; want 0", allocs)
			}
		},
	},
	{
		name: "stats-snapshot",
		covers: []string{
			"internal/engine.(*Engine).StatsInto",
			"internal/engine.(*latHist).snapshotInto",
			"internal/engine.(*telemetry).snapshotInto",
		},
		run: func(t *testing.T) {
			eng := hotEngine(t, EngineConfig{Workers: 2})
			frames := hotTraffic(64)
			if _, err := eng.SubmitBatch(frames); err != nil {
				t.Fatal(err)
			}
			eng.Drain()
			var st EngineStats
			eng.StatsInto(&st) // first call builds the map and slices
			allocs := testing.AllocsPerRun(50, func() {
				eng.StatsInto(&st)
			})
			if allocs != 0 {
				t.Errorf("StatsInto allocates %.1f times per snapshot; want 0", allocs)
			}
			if len(st.Tenants) != 2 || len(st.Workers) != 2 {
				t.Errorf("snapshot shape: %d tenants, %d workers; want 2, 2", len(st.Tenants), len(st.Workers))
			}
		},
	},
	{
		// The in-place batched pipeline is the synchronous ancestor of
		// the annotated engine path; its pin predates the annotations
		// and keeps covering the shared stage-execution core.
		name: "process-batch-in-place",
		covers: []string{
			"internal/alu.ExecuteSlots",
			"internal/alu.executeOne",
			"internal/alu.operand",
			"internal/parser.(*Program).Parse",
			"internal/phv.(*PHV).SetWord",
			"internal/phv.(*PHV).Word",
			"internal/stage.(*KeyExtractEntry).ExtractKeyWords",
		},
		run: func(t *testing.T) {
			dev, frames, res := batchFixture(t, 32)
			pipe := dev.Pipeline()
			// Warm up: resolve module views and programs.
			if err := pipe.ProcessBatchInPlace(frames, 0, res); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if err := pipe.ProcessBatchInPlace(frames, 0, res); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("ProcessBatchInPlace allocates %.1f times per batch; want 0", allocs)
			}
		},
	},
	{
		// A warm batch of a module whose every frame faults: its
		// stateful op addresses word 5 of a 1-word segment, so the ALU
		// turns the op into a no-op. The fault must cost the shared
		// worker nothing; a module that only hurts itself must not push
		// garbage onto its neighbours. The table is applied under a
		// predicate, so the guard also runs the key extractor's
		// predicate operands.
		name: "segment-fault-batch",
		covers: []string{
			"internal/stage.(*KeyExtractEntry).predicate",
			"internal/stage.Operand.value",
			"internal/tables.(*SegmentTable).Translate",
		},
		run: func(t *testing.T) {
			dev := NewDevice()
			if _, err := dev.LoadModule(segFaultSrc, 1); err != nil {
				t.Fatal(err)
			}
			frames := make([][]byte, 32)
			for i := range frames {
				frames[i] = trafficgen.KVPacket(1, 1, 5, uint32(i), 0)
			}
			res := make([]core.BatchResult, len(frames))
			pipe := dev.Pipeline()
			if err := pipe.ProcessBatchInPlace(frames, 0, res); err != nil {
				t.Fatal(err)
			}
			if v, err := trafficgen.KVValue(res[3].Data); err != nil || v != 3 {
				t.Fatalf("faulting op wrote its destination: value %d (%v); want 3", v, err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if err := pipe.ProcessBatchInPlace(frames, 0, res); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("a batch of segment-faulting frames allocates %.1f times; want 0", allocs)
			}
		},
	},
	{
		// Warm batches of frames the filter or the module check drops:
		// a runt cut inside its VLAN tag, an untagged frame, a frame to
		// the reconfiguration port, and a VLAN ID past MaxModules. Every
		// kind reaches an engine shard (SubmitBatch checks no length,
		// the socket ingress passes any VLAN ID), so dropping one must
		// cost the worker nothing.
		name: "malformed-frame-batch",
		covers: []string{
			"internal/core.(*Pipeline).checkModule",
			"internal/reconfig.(*Filter).Classify",
			"internal/reconfig.parserVLANID",
		},
		run: func(t *testing.T) {
			dev := NewDevice()
			if _, err := dev.LoadModule(mustProgram(t, "CALC"), 1); err != nil {
				t.Fatal(err)
			}
			tagged := packet.NewUDP(1, packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{10, 0, 0, 2}, 1, 2, make([]byte, 16)).MustBuild()
			cmd := reconfig.Command{Resource: reconfig.MakeResourceID(0, reconfig.KindParser), Payload: []byte{0}}
			toReconfigPort, err := reconfig.AppendPacket(nil, 1, cmd)
			if err != nil {
				t.Fatal(err)
			}
			outOfRange := uint16(core.DefaultGeometry().MaxModules)
			kinds := []struct {
				name    string
				frame   []byte
				verdict reconfig.Verdict
				err     error
			}{
				{"runt", tagged[:packet.EthernetHeaderLen+2], reconfig.VerdictDropNoVLAN, nil},
				{"untagged", append(bytes.Clone(tagged[:12]), tagged[16:]...), reconfig.VerdictDropNoVLAN, nil},
				{"reconfig-port", toReconfigPort, reconfig.VerdictDropReconfig, nil},
				{"vlan-out-of-range", packet.NewUDP(outOfRange, packet.IPv4Addr{}, packet.IPv4Addr{}, 1, 2, nil).MustBuild(), reconfig.VerdictData, core.ErrModuleRange},
			}
			pipe := dev.Pipeline()
			frames := make([][]byte, 32)
			res := make([]core.BatchResult, len(frames))
			for _, k := range kinds {
				for i := range frames {
					frames[i] = k.frame // dropped frames are never written
				}
				if err := pipe.ProcessBatchInPlace(frames, 0, res); err != nil {
					t.Fatal(err)
				}
				if r := &res[0]; !r.Dropped || r.Verdict != k.verdict || !errors.Is(r.Err, k.err) {
					t.Fatalf("%s: dropped %v, verdict %v, err %v; want dropped, %v, %v", k.name, r.Dropped, r.Verdict, r.Err, k.verdict, k.err)
				}
				allocs := testing.AllocsPerRun(100, func() {
					if err := pipe.ProcessBatchInPlace(frames, 0, res); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Errorf("a batch of %d %s frames allocates %.1f times; want 0", len(frames), k.name, allocs)
				}
			}
		},
	},
	{
		// A warm batch whose module resolves flows by hash: Load
		// Balancing with more flow entries than stage.FlowScanThreshold,
		// installed into a running engine's shard through the verified
		// path, processed on that shard's pipeline (its flow cache
		// attached) while the idle worker sleeps. This is the one guard
		// that runs the flow cache and the batch loop's gather step.
		name: "hash-mode-batch",
		covers: []string{
			"internal/stage.(*FlowCache).lookup",
			"internal/stage.(*FlowCache).slotTag",
			"internal/stage.(*FlowCache).store",
			"internal/stage.(*Gather).Touch",
			"internal/stage.(*View).GatherFlow",
			"internal/stage.(*View).flowLines",
		},
		run: func(t *testing.T) {
			fx := newLBFixture(t)
			eng, err := fx.dev.NewEngine(EngineConfig{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { eng.Close() })
			frames := make([][]byte, 2*stage.FlowScanThreshold)
			for i := range frames {
				frames[i] = trafficgen.FlowScaleFrame(1, i, 64)
			}
			if _, _, err := eng.InsertFlowsVerified(context.Background(), 1, fx.stg, fx.flowEntries(t, frames), VerifyOpts{}); err != nil {
				t.Fatal(err)
			}
			pipe, err := eng.eng.Pipeline(0)
			if err != nil {
				t.Fatal(err)
			}
			if v := pipe.Stages[fx.stg].ViewFor(1); !v.HashMode() {
				t.Fatal("Load Balancing's flow stage is not in hash mode")
			}
			res := make([]core.BatchResult, len(frames))
			// Warm up: resolve module views, fill the flow cache.
			if err := pipe.ProcessBatchInPlace(frames, 0, res); err != nil {
				t.Fatal(err)
			}
			for i := range frames {
				if res[i].Dropped || res[i].EgressPort != uint8(1+i%4) {
					t.Fatalf("flow %d: dropped %v, egress port %d; its flow selects port %d", i, res[i].Dropped, res[i].EgressPort, 1+i%4)
				}
			}
			hits0, _ := pipe.FlowCacheStats()
			allocs := testing.AllocsPerRun(100, func() {
				if err := pipe.ProcessBatchInPlace(frames, 0, res); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("hash-mode ProcessBatchInPlace allocates %.1f times per batch; want 0", allocs)
			}
			if hits, _ := pipe.FlowCacheStats(); hits == hits0 {
				t.Error("the flow cache was never hit: the guard did not run the hash-mode match path")
			}
		},
	},
	{
		// A warm inject→hop→hop→deliver cycle across three engines:
		// buffers circulate through the shared pool, hand-offs are
		// pointer moves. The fabric layer itself is unannotated; this
		// pins the composition of the annotated engine paths.
		name:     "fabric-forward",
		skipRace: true,
		run: func(t *testing.T) {
			f := hotChain(t, 3)
			vip := packet.IPv4Addr{10, 9, 9, 9}
			sc := trafficgen.FabricScenario(43, vip, 0, 8, 1)
			frames := sc.NextBatch(nil, 64)
			for i := 0; i < 8; i++ {
				if _, err := f.InjectBatch("s0", 0, frames); err != nil {
					t.Fatal(err)
				}
				f.Drain()
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := f.InjectBatch("s0", 0, frames); err != nil {
					t.Fatal(err)
				}
				f.Drain()
			})
			// Worker goroutines race the measurement loop; allow stray
			// noise while still catching per-frame or per-hop
			// allocation (64 frames x 3 nodes would show as hundreds).
			if allocs > 3 {
				t.Errorf("fabric steady state allocates %.1f per 64-frame cycle; want ~0", allocs)
			}
		},
	},
	{
		// The stream framing codec decoded against a fixed buffer
		// source: header reads, short-frame resync, and payload reads
		// all run from preallocated state.
		name: "ingress-stream-decode",
		covers: []string{
			"internal/ingress.(*StreamDecoder).Next",
			"internal/ingress.cutErr",
		},
		run: func(t *testing.T) {
			frame := make([]byte, 256)
			stream := []byte{0x00, 0x05, 1, 2, 3, 4, 5} // short frame: the scratch resync path
			for i := 0; i < 4; i++ {
				var err error
				if stream, err = ingress.AppendFrame(stream, frame); err != nil {
					t.Fatal(err)
				}
			}
			r := bytes.NewReader(stream)
			dec := ingress.NewStreamDecoder(r)
			pool := &fixedPool{buf: make([]byte, 4096)}
			decodeAll := func() {
				r.Reset(stream)
				dec.Reset(r)
				for {
					f, err := dec.Next(pool)
					switch {
					case err == nil:
						pool.Release(f)
					case errors.Is(err, ingress.ErrShortFrame):
					case err == io.EOF:
						return
					default:
						t.Fatal(err)
					}
				}
			}
			decodeAll() // warm
			allocs := testing.AllocsPerRun(100, decodeAll)
			if allocs != 0 {
				t.Errorf("stream decode allocates %.1f per 5-frame stream; want 0", allocs)
			}
		},
	},
	{
		// A live socket->engine cycle over unixgram (lossless on
		// loopback), burst by burst: the load client's burst send, the
		// kernel copy into the RX loop's borrowed buffers, counted
		// classification, one owned batch submission per burst. The RX
		// goroutine and worker race the measurement, so this pins "no
		// per-frame allocation" rather than a strict zero. RecvOne (the
		// fill where there is no recvmmsg) and submitFrame (TCP's
		// batch-of-one submit) do not run here; the analyzer and the
		// escape check still hold them to their annotation.
		name: "ingress-dgram-rx",
		covers: []string{
			"internal/ingress.(*dgramSource).rxBurst",
			"internal/ingress.classifyBurst",
			"internal/ingress.submitBurst",
			"internal/ingress.submitFrame",
			"internal/mmsg.(*Conn).Recv",
			"internal/mmsg.(*Conn).RecvOne",
			"internal/mmsg.(*Conn).Send",
			"internal/mmsg.(*Conn).recvReady",
			"internal/mmsg.(*Conn).sendReady",
			"internal/mmsg.(*vec).arm",
		},
		skipRace: true,
		run: func(t *testing.T) {
			eng := hotEngine(t, EngineConfig{Workers: 1, BatchSize: 16, QueueDepth: 4096, DropOnFull: true})
			path := filepath.Join(t.TempDir(), "hp.sock")
			src, err := ingress.ListenUnixgram(path, ingress.Config{ReadBuffer: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			ing := ingress.NewListeners(src)
			ing.Start(eng)
			t.Cleanup(func() { _ = ing.Close() })
			client, err := trafficgen.DialLoad("unixgram", path, ingress.Backoff{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = client.Close() })
			frames := hotTraffic(64)
			var is engine.IngressStats // hoisted: &is through the Source interface would escape per call
			received := func() uint64 {
				src.StatsInto(&is)
				return is.Received
			}
			push := func() {
				before := received()
				if _, err := client.SendBatch(frames); err != nil {
					t.Fatal(err)
				}
				for received() < before+uint64(len(frames)) {
					runtime.Gosched()
				}
				eng.Drain()
			}
			for i := 0; i < 4; i++ { // warm pools, rings, scratch
				push()
			}
			allocs := testing.AllocsPerRun(10, push)
			if allocs > 3 {
				t.Errorf("dgram RX allocates %.1f per 64-frame cycle; want ~0", allocs)
			}
		},
	},
}

// fixedPool is an ingress.BufferSource over one reusable buffer, so
// decoder measurements charge the codec rather than buffer management.
type fixedPool struct{ buf []byte }

func (p *fixedPool) Borrow(n int) []byte { return p.buf[:n] }
func (p *fixedPool) Release([]byte)      {}

// segFaultSrc counts into register word kv_h.key of a 1-word register,
// so any frame with key > 0 faults in the segment table.
const segFaultSrc = `
module segfault;
header kv_h { op : 16; key : 16; value : 32; }
register r[1];
parser { extract kv_h at 46; }
action bump() { kv_h.value = r[kv_h.key]++; }
table t { actions = { bump; } size = 1; }
control { if (kv_h.op == 1) { apply(t); } }
`

// hotChainSrc is the passthrough tenant program the fabric guard loads
// on every node of its chain.
const hotChainSrc = `
module pass;
header sr_h { tag : 16; }
parser { extract sr_h at 46; }
action nop_a() { }
table t { actions = { nop_a; } size = 1; }
control { apply(t); }
`

// hotChain builds and starts an n-node engine-fabric chain carrying
// tenant 1 toward the parity vIP, with deliveries counted, not
// retained (a copying sink would charge its own allocations to the
// fabric).
func hotChain(t *testing.T, n int) *fabric.EngineFabric {
	t.Helper()
	vip := packet.IPv4Addr{10, 9, 9, 9}
	f := fabric.NewEngineFabric(func(fabric.Delivery) {})
	names := make([]string, n)
	for i := range names {
		names[i] = "s" + string(rune('0'+i))
		sys := sysmod.NewConfig()
		port := uint8(1)
		if i == n-1 {
			port = 2 // host-terminal
		}
		sys.AddRoute(1, vip, port)
		prog, err := compiler.Compile(hotChainSrc, compiler.Options{ModuleID: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Augment(prog.Config); err != nil {
			t.Fatal(err)
		}
		alloc := checker.NewAllocator(checker.CapacityOf(core.DefaultGeometry()), nil)
		pl, err := alloc.Admit(prog.Config)
		if err != nil {
			t.Fatal(err)
		}
		cfg := fabric.NodeConfig{
			Workers:    1,
			QueueDepth: 4096,
			Modules:    []engine.ModuleSpec{{Config: prog.Config, Placement: pl}},
		}
		if _, err := f.AddNode(names[i], sys, cfg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i++ {
		if err := f.Link(names[i-1], 1, names[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestHotPathZeroAlloc runs the guard table plus the annotation-drift
// check tying it to the //menshen:hotpath annotation set.
func TestHotPathZeroAlloc(t *testing.T) {
	funcs, err := hotpath.Scan(".")
	if err != nil {
		t.Fatalf("scanning hotpath annotations: %v", err)
	}
	t.Run("annotation-drift", func(t *testing.T) {
		claimed := map[string]string{}
		for _, g := range hotPathGuards {
			for _, key := range g.covers {
				if prev, dup := claimed[key]; dup {
					t.Errorf("annotation %s claimed by guards %s and %s", key, prev, g.name)
				}
				claimed[key] = g.name
			}
		}
		scanned := map[string]bool{}
		for _, f := range funcs {
			scanned[f.Key] = true
			if _, ok := claimed[f.Key]; !ok {
				t.Errorf("//menshen:hotpath %s (%s:%d) has no guard: claim it in a hotPathGuards covers list", f.Key, f.File, f.StartLine)
			}
		}
		for key, guard := range claimed {
			if !scanned[key] {
				t.Errorf("guard %s covers %s, but no such //menshen:hotpath annotation exists", guard, key)
			}
		}
	})
	for _, g := range hotPathGuards {
		t.Run(g.name, func(t *testing.T) {
			if g.skipRace && raceEnabled {
				t.Skip("worker goroutines race the measurement loop; alloc pin runs in the non-race pass")
			}
			g.run(t)
		})
	}
}
