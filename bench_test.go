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
	"fmt"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/ctrlplane"
	"repro/internal/experiments"
	"repro/internal/netdev"
	"repro/internal/p4progs"
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
				if _, err := client.LoadModule(prog.Config, pl); err != nil {
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
			if _, err := reconfigEncode(1, cmd); err != nil {
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
		ck := tables.NewCuckoo(depth) // 2*depth slots
		var keys []tables.Key
		for i := 0; i < depth; i++ {
			var k tables.Key
			k[0], k[1], k[2], k[3] = byte(i>>8), byte(i), byte(i*7), byte(i*13)
			keys = append(keys, k)
			if err := cam.Write(i, tables.CAMEntry{Valid: true, ModID: 1, Key: k, Mask: tables.FullMask()}); err != nil {
				b.Fatal(err)
			}
			if err := ck.Insert(k, 1, i); err != nil {
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
				if _, hit := ck.Lookup(keys[i%depth], 1); !hit {
					b.Fatal("miss")
				}
			}
		})
	}
}
