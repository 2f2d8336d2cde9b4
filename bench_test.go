package menshen

// Benchmark harness: one benchmark family per table/figure of the
// paper's evaluation. Run everything with
//
//	go test -bench=. -benchmem
//
// The per-iteration work is the real code path of the corresponding
// experiment (compile, configure, process); the rendered figures are
// produced by cmd/menshen-bench and internal/experiments.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/ctrlplane"
	"repro/internal/experiments"
	"repro/internal/netdev"
	"repro/internal/p4progs"
	"repro/internal/reconfig"
	"repro/internal/stage"
	"repro/internal/tables"
	"repro/internal/trafficgen"
)

// BenchmarkFig8Compile measures module compilation across the paper's
// entry sweep (Figure 8: compilation time).
func BenchmarkFig8Compile(b *testing.B) {
	for _, prog := range []string{"CALC", "NetCache", "System-level"} {
		p, err := p4progs.ByName(prog)
		if err != nil {
			b.Fatal(err)
		}
		for _, entries := range experiments.EntrySweep {
			limits := compiler.DefaultLimits()
			if entries > limits.EntriesPerTable {
				limits.EntriesPerTable = entries
			}
			src := p.WithSize(entries)
			b.Run(fmt.Sprintf("%s/%d", prog, entries), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := compiler.Compile(src, compiler.Options{ModuleID: 1, Limits: limits}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig9Configure measures the full load path — compile once, then
// partition + reconfiguration packets down the daisy chain (Figure 9:
// configuration time).
func BenchmarkFig9Configure(b *testing.B) {
	calc, err := p4progs.ByName("CALC")
	if err != nil {
		b.Fatal(err)
	}
	for _, entries := range []int{4, 8, 16} { // bounded by the CAM depth
		limits := compiler.DefaultLimits()
		prog, err := compiler.Compile(calc.WithSize(entries), compiler.Options{ModuleID: 1, Limits: limits})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pipe := core.NewDefault()
				client := ctrlplane.New(pipe)
				pl := core.Placement{
					CAMBase: make([]int, core.NumStages),
					SegBase: make([]uint8, core.NumStages),
				}
				cmds, err := prog.Config.Commands(pl)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := client.LoadModule(prog.Config, pl, cmds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// newLoadedDevice returns a device with CALC loaded as module 1.
func newLoadedDevice(b *testing.B, kind PlatformKind) *Device {
	b.Helper()
	dev := NewDevice(WithPlatform(kind))
	calc, err := p4progs.ByName("CALC")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := dev.LoadModule(calc.Source(), 1); err != nil {
		b.Fatal(err)
	}
	return dev
}

// BenchmarkFig10Reconfigure measures a full live module update (the
// Figure 10 event: unload + admit + reload without touching others).
func BenchmarkFig10Reconfigure(b *testing.B) {
	dev := newLoadedDevice(b, PlatformCorundumOptimized)
	calc, _ := p4progs.ByName("CALC")
	src := calc.Source()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.UpdateModule(src, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReloadLive is the live reload a running engine's tenant sees:
// an idle one-worker engine serving CALC and NetCache, and each op is
// UnloadModule + LoadModuleVerified + AwaitQuiesceCtx of NetCache — the
// device update plus the same commands replayed on the shard, the path
// tenants_noisy_reconfig times as reconfig_p50_ms.
func BenchmarkReloadLive(b *testing.B) {
	dev := newLoadedDevice(b, PlatformCorundumOptimized)
	nc, err := p4progs.ByName("NetCache")
	if err != nil {
		b.Fatal(err)
	}
	src := nc.Source()
	if _, err := dev.LoadModule(src, 2); err != nil {
		b.Fatal(err)
	}
	eng, err := dev.NewEngine(EngineConfig{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.UnloadModule(2); err != nil {
			b.Fatal(err)
		}
		_, gen, _, err := eng.LoadModuleVerified(ctx, src, 2, VerifyOpts{})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.AwaitQuiesceCtx(ctx, gen); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/op")
}

// BenchmarkFig10ReconfigureBesideFlows is the Figure 10 event beside
// another tenant's flow table: each op is one live update of a
// flow-less spare tenant (NetCache) while Load Balancing holds 0 or 2^18
// entries on the cuckoo side of its match stage. Isolation means the
// two cost the same — clearing the spare tenant's entries must not walk
// its neighbour's.
func BenchmarkFig10ReconfigureBesideFlows(b *testing.B) {
	nc, err := p4progs.ByName("NetCache")
	if err != nil {
		b.Fatal(err)
	}
	src := nc.Source()
	for _, flows := range []int{0, 1 << 18} {
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			fx := newLBFixture(b)
			frames := make([][]byte, flows)
			for f := range frames {
				frames[f] = trafficgen.FlowScaleFrame(1, f, 64)
			}
			cp := fx.dev.ControlPlane()
			for _, fe := range fx.flowEntries(b, frames) {
				if err := cp.InsertFlow(1, fx.stg, fe.Key, int(fe.Addr)); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := fx.dev.LoadModule(src, 2); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fx.dev.UpdateModule(src, 2); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if n := fx.dev.Pipeline().Stages[fx.stg].Hash.ModuleEntries(1); n != flows {
				b.Fatalf("Load Balancing holds %d flows after the reloads, want %d", n, flows)
			}
		})
	}
}

// BenchmarkFig11Process measures functional pipeline processing across
// the Figure 11 packet-size sweep on each platform model.
func BenchmarkFig11Process(b *testing.B) {
	platforms := []struct {
		name string
		kind PlatformKind
	}{
		{"NetFPGA", PlatformNetFPGA},
		{"CorundumOpt", PlatformCorundumOptimized},
		{"CorundumUnopt", PlatformCorundumUnoptimized},
	}
	for _, pf := range platforms {
		dev := newLoadedDevice(b, pf.kind)
		for _, size := range []int{64, 256, 1500} {
			frame := trafficgen.CalcPacket(1, trafficgen.CalcAdd, 3, 4, size)
			b.Run(fmt.Sprintf("%s/%dB", pf.name, size), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(size))
				for i := 0; i < b.N; i++ {
					res, err := dev.Send(frame)
					if err != nil {
						b.Fatal(err)
					}
					if res.Dropped {
						b.Fatal("dropped")
					}
				}
			})
		}
	}
}

// BenchmarkLatencyModel evaluates the §5.2 latency model (cheap, but
// keeps the latency numbers in the benchmark report).
func BenchmarkLatencyModel(b *testing.B) {
	for _, p := range netdev.Platforms() {
		b.Run(p.Name, func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += p.LatencyNs(64) + p.LatencyNs(1500)
			}
			_ = sink
		})
	}
}

// BenchmarkTable4FPGA regenerates the FPGA resource table.
func BenchmarkTable4FPGA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Table4()
	}
}

// BenchmarkASICModel regenerates the §5.2 ASIC analysis.
func BenchmarkASICModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.ASIC()
	}
}

// BenchmarkFig12DaisyVsAXIL regenerates the Appendix A comparison.
func BenchmarkFig12DaisyVsAXIL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig12()
	}
}

// BenchmarkStatefulPath measures the NetCache read path: parse, match,
// segment-translated stateful load, deparse.
func BenchmarkStatefulPath(b *testing.B) {
	dev := NewDevice()
	nc, _ := p4progs.ByName("NetCache")
	if _, err := dev.LoadModule(nc.Source(), 1); err != nil {
		b.Fatal(err)
	}
	if _, err := dev.Send(trafficgen.KVPacket(1, trafficgen.KVPut, 5, 42, 0)); err != nil {
		b.Fatal(err)
	}
	frame := trafficgen.KVPacket(1, trafficgen.KVGet, 5, 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.Send(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPacketFilter isolates the filter's classification cost.
func BenchmarkPacketFilter(b *testing.B) {
	dev := newLoadedDevice(b, PlatformCorundumOptimized)
	frame := trafficgen.CalcPacket(9, trafficgen.CalcAdd, 1, 2, 0) // dropped at filter
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.Send(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReconfigPacketCodec measures the wire path of configuration.
func BenchmarkReconfigPacketCodec(b *testing.B) {
	calc, _ := p4progs.ByName("CALC")
	prog, err := compiler.Compile(calc.Source(), compiler.Options{ModuleID: 1})
	if err != nil {
		b.Fatal(err)
	}
	pl := core.Placement{CAMBase: make([]int, core.NumStages), SegBase: make([]uint8, core.NumStages)}
	cmds, err := prog.Config.Commands(pl)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cmd := range cmds {
			if _, err := reconfig.AppendPacket(nil, 1, cmd); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMatchCAMvsCuckoo is the §4.3 ablation: linear-scan CAM lookup
// versus the cuckoo-hash alternative, at CAM depth and at 16x depth.
func BenchmarkMatchCAMvsCuckoo(b *testing.B) {
	for _, depth := range []int{16, 256} {
		cam := tables.NewCAM(depth)
		ck := tables.NewCuckoo(2 * depth) // 2*depth slots, half full once the keys are in
		var keys []tables.Key
		for i := 0; i < depth; i++ {
			var k tables.Key
			k[0], k[1], k[2], k[3] = byte(i>>8), byte(i), byte(i*7), byte(i*13)
			keys = append(keys, k)
			if err := cam.Write(i, tables.CAMEntry{Valid: true, ModID: 1, Key: k, Mask: tables.FullMask()}); err != nil {
				b.Fatal(err)
			}
			if err := ck.Insert(k, i); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("CAM/depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, hit := cam.Lookup(keys[i%depth], 1); !hit {
					b.Fatal("miss")
				}
			}
		})
		b.Run(fmt.Sprintf("Cuckoo/depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kw := keys[i%depth].Words()
				if _, hit := ck.LookupWords(&kw); !hit {
					b.Fatal("miss")
				}
			}
		})
	}
}

// lbFixture is a device with the Load Balancing program loaded as
// module 1, the stage holding its match table, and the action addresses
// of its four to_port actions (ports 1..4, in order).
type lbFixture struct {
	dev   *Device
	stg   int
	addrs [4]uint16
}

// newLBFixture loads Load Balancing and resolves its table stage and
// to_port actions from the program's baseline tuples, without sending a
// frame.
func newLBFixture(tb testing.TB) *lbFixture {
	tb.Helper()
	lb, err := p4progs.ByName("Load Balancing")
	if err != nil {
		tb.Fatal(err)
	}
	fx := &lbFixture{dev: NewDevice(), stg: -1}
	if _, err := fx.dev.LoadModule(lb.Source(), 1); err != nil {
		tb.Fatal(err)
	}
	pipe, cp := fx.dev.Pipeline(), fx.dev.ControlPlane()
	best := 0
	for i := range pipe.Stages {
		if n := pipe.Stages[i].Match.ValidCount(1); n > best {
			fx.stg, best = i, n
		}
	}
	if fx.stg < 0 {
		tb.Fatal("Load Balancing has no match stage")
	}
	for i := range fx.addrs {
		f := trafficgen.FlowPacket(1, [4]byte{10, 0, 1, 1}, [4]byte{10, 0, 0, 10}, uint16(1000+i), 80, 0)
		key, err := cp.FlowKeyForFrame(1, fx.stg, f)
		if err != nil {
			tb.Fatal(err)
		}
		addr, ok := pipe.Stages[fx.stg].Match.Lookup(key, 1)
		if !ok {
			tb.Fatalf("baseline tuple %d missed the CAM", i)
		}
		fx.addrs[i] = uint16(addr)
	}
	return fx
}

// flowEntries derives one flow entry per frame: the frame's match key
// steered to to_port(1 + i%4).
func (fx *lbFixture) flowEntries(tb testing.TB, frames [][]byte) []FlowEntry {
	tb.Helper()
	cp := fx.dev.ControlPlane()
	flows := make([]FlowEntry, len(frames))
	for i, f := range frames {
		key, err := cp.FlowKeyForFrame(1, fx.stg, f)
		if err != nil {
			tb.Fatal(err)
		}
		flows[i] = FlowEntry{Valid: true, ModID: 1, Key: key, Addr: fx.addrs[i%4]}
	}
	return flows
}

// neighbourInsert loads Load Balancing as tenant 2 beside the fixture's
// tenant 1 and returns one tenant-2 command to send per batch: a flow
// insert into its match stage, of one key rewritten in place each time.
func (fx *lbFixture) neighbourInsert(tb testing.TB) func() error {
	tb.Helper()
	lb, err := p4progs.ByName("Load Balancing")
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := fx.dev.LoadModule(lb.Source(), 2); err != nil {
		tb.Fatal(err)
	}
	lo, _, ok := fx.dev.Pipeline().Stages[fx.stg].Match.PartitionOf(2)
	if !ok {
		tb.Fatal("tenant 2 has no CAM partition in the flow stage")
	}
	cp := fx.dev.ControlPlane()
	return func() error { return cp.InsertFlow(2, fx.stg, tables.Key{}, lo) }
}

// TestNeighbourWriteKeepsZipfHitRate: a neighbour's flow install costs
// tenant 1's flow cache nothing. Load Balancing tenant 1 serves the same
// Zipf(1.1) draws over its flows twice, each time from a fresh flow
// cache: alone, then with one tenant-2 flow insert before every
// 32-frame batch. Both runs must hit the cache exactly as often.
func TestNeighbourWriteKeepsZipfHitRate(t *testing.T) {
	const flows, batch, batches = 1 << 12, 32, 256
	fx := newLBFixture(t)
	frames := make([][]byte, flows)
	for f := range frames {
		frames[f] = trafficgen.FlowScaleFrame(1, f, 64)
	}
	cp := fx.dev.ControlPlane()
	for _, fe := range fx.flowEntries(t, frames) {
		if err := cp.InsertFlow(1, fx.stg, fe.Key, int(fe.Addr)); err != nil {
			t.Fatal(err)
		}
	}
	neighbour := fx.neighbourInsert(t)
	pipe := fx.dev.Pipeline()
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, flows-1)
	seq := make([]int, batch*batches)
	for i := range seq {
		seq[i] = int(zipf.Uint64())
	}
	run := func(churn bool) (hits, misses uint64) {
		pipe.SetFlowCache(stage.NewFlowCache(0))
		in := make([][]byte, batch)
		res := make([]core.BatchResult, batch)
		for lo := 0; lo < len(seq); lo += batch {
			if churn {
				if err := neighbour(); err != nil {
					t.Fatal(err)
				}
			}
			ids := seq[lo : lo+batch]
			for k, f := range ids {
				in[k] = frames[f]
			}
			if err := pipe.ProcessBatchInPlace(in, 0, res); err != nil {
				t.Fatal(err)
			}
			for k, f := range ids {
				if res[k].Dropped || res[k].EgressPort != uint8(1+f%4) {
					t.Fatalf("flow %d: dropped %v, port %d; its flow selects port %d", f, res[k].Dropped, res[k].EgressPort, 1+f%4)
				}
			}
		}
		return pipe.FlowCacheStats()
	}
	aloneHits, aloneMisses := run(false)
	hits, misses := run(true)
	if hits != aloneHits || aloneHits == 0 {
		t.Errorf("flow-cache hits/misses: %d/%d with a neighbour command per batch, %d/%d without", hits, misses, aloneHits, aloneMisses)
	}
}

// BenchmarkInsertFlows is the in-process form of the flows256k_*
// workloads' set-up: each op is a fresh device with Load Balancing
// loaded and then 2^18 flows installed; only the installs are timed.
// The device arm keys each flow by FlowKeyForFrame and installs it by
// ctrlplane.InsertFlow as its own reconfiguration packet; it reports
// ns/flow, allocs/flow and its flow table's allocated slots at 32 B
// each, in MiB. The engine arm installs the same flows into a 2-worker
// engine through InsertFlowsVerified, every shard into tables of its
// own; it reports ns/flow and the size of the flow tables, the
// distinct tables' slots summed, in MiB.
func BenchmarkInsertFlows(b *testing.B) {
	const flows = 1 << 18
	frames := make([][]byte, flows)
	for f := range frames {
		frames[f] = trafficgen.FlowScaleFrame(1, f, 64)
	}
	b.Run("device", func(b *testing.B) {
		var ms runtime.MemStats
		var mallocs uint64
		var mib float64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fx := newLBFixture(b)
			cp := fx.dev.ControlPlane()
			runtime.ReadMemStats(&ms)
			mallocs -= ms.Mallocs
			b.StartTimer()
			for f, frame := range frames {
				key, err := cp.FlowKeyForFrame(1, fx.stg, frame)
				if err != nil {
					b.Fatal(err)
				}
				if err := cp.InsertFlow(1, fx.stg, key, int(fx.addrs[f%4])); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			mallocs += ms.Mallocs
			t := fx.dev.Pipeline().Stages[fx.stg].Hash.Table(1)
			if t == nil || t.Used() != flows {
				b.Fatalf("Load Balancing does not hold the %d flows", flows)
			}
			mib = float64(t.Capacity()*32) / (1 << 20)
			b.StartTimer()
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*flows), "ns/flow")
		b.ReportMetric(float64(mallocs)/float64(b.N*flows), "allocs/flow")
		b.ReportMetric(mib, "MiB")
	})
	b.Run("engine/workers=2", func(b *testing.B) {
		var mib float64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fx := newLBFixture(b)
			entries := fx.flowEntries(b, frames)
			eng, err := fx.dev.NewEngine(EngineConfig{Workers: 2})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, _, err := eng.InsertFlowsVerified(context.Background(), 1, fx.stg, entries, VerifyOpts{}); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			distinct := map[*tables.Cuckoo]bool{}
			for w := 0; w < eng.Workers(); w++ {
				pipe, err := eng.ShardPipeline(w)
				if err != nil {
					b.Fatal(err)
				}
				t := pipe.Stages[fx.stg].Hash.Table(1)
				if t == nil || t.Used() != flows {
					b.Fatalf("shard %d does not hold the %d flows", w, flows)
				}
				distinct[t] = true
			}
			mib = 0
			for t := range distinct {
				mib += float64(t.Capacity()*32) / (1 << 20)
			}
			if err := eng.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*flows), "ns/flow")
		b.ReportMetric(mib, "MiB")
	})
}

// BenchmarkProcessBatchFlows is the in-process form of the benchmark's
// flows256k_* workloads: Load Balancing with 2^18 flows on the cuckoo
// side of its match stage and 32-frame batches drawn uniformly or by
// Zipf(1.1) popularity, each with a fresh default flow cache
// (cache=on, as engine workers run) and without one (cache=off). Every
// flow has its own separately allocated 64 B frame, so a batch's frames
// are cold the way received frames are, and the working set (frames,
// cuckoo buckets) is far beyond the flow cache. The neighbour=1 arm runs
// with the cache on and sends one flow insert of a second Load Balancing
// tenant before every batch, the way a neighbour's flow install
// interleaves with traffic on a shard. Arms with a cache also report its
// hit rate.
func BenchmarkProcessBatchFlows(b *testing.B) {
	const flows, batch = 1 << 18, 32
	fx := newLBFixture(b)
	frames := make([][]byte, flows)
	for f := range frames {
		frames[f] = trafficgen.FlowScaleFrame(1, f, 64)
	}
	cp := fx.dev.ControlPlane()
	for _, fe := range fx.flowEntries(b, frames) {
		if err := cp.InsertFlow(1, fx.stg, fe.Key, int(fe.Addr)); err != nil {
			b.Fatal(err)
		}
	}
	neighbour := fx.neighbourInsert(b)
	pipe := fx.dev.Pipeline()

	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(flows) // popular flows scattered, not adjacent in memory
	zipf := rand.NewZipf(rng, 1.1, 1, flows-1)
	draws := map[string]func() int{
		"uniform": func() int { return rng.Intn(flows) },
		"zipf":    func() int { return perm[zipf.Uint64()] },
	}
	for _, name := range []string{"uniform", "zipf"} {
		seq := make([]int, 8*flows)
		for i := range seq {
			seq[i] = draws[name]()
		}
		for _, arm := range []string{"cache=on", "cache=off", "cache=on/neighbour=1"} {
			var fc *stage.FlowCache
			if arm != "cache=off" {
				fc = stage.NewFlowCache(0)
			}
			pipe.SetFlowCache(fc)
			churn := arm == "cache=on/neighbour=1"
			b.Run(name+"/"+arm, func(b *testing.B) {
				in := make([][]byte, batch)
				res := make([]core.BatchResult, batch)
				wrong, pos := 0, 0
				hits0, misses0 := pipe.FlowCacheStats()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if churn {
						if err := neighbour(); err != nil {
							b.Fatal(err)
						}
					}
					if pos+batch > len(seq) {
						pos = 0
					}
					ids := seq[pos : pos+batch]
					pos += batch
					for k, f := range ids {
						in[k] = frames[f]
					}
					if err := pipe.ProcessBatchInPlace(in, 0, res); err != nil {
						b.Fatal(err)
					}
					for k, f := range ids {
						if res[k].Dropped || res[k].EgressPort != uint8(1+f%4) {
							wrong++
						}
					}
				}
				b.StopTimer()
				if wrong > 0 {
					b.Fatalf("%d frames dropped or steered to the wrong port", wrong)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/frame")
				if fc != nil {
					hits, misses := pipe.FlowCacheStats()
					b.ReportMetric(float64(hits-hits0)/float64(hits-hits0+misses-misses0), "hit-rate")
				}
			})
		}
	}
}
