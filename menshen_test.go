package menshen

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/p4progs"
	"repro/internal/trafficgen"
)

func mustLoad(t *testing.T, d *Device, name string, id uint16) *LoadReport {
	t.Helper()
	prog, err := p4progs.ByName(name)
	if err != nil {
		t.Fatalf("ByName(%s): %v", name, err)
	}
	rep, err := d.LoadModule(prog.Source(), id)
	if err != nil {
		t.Fatalf("LoadModule(%s): %v", name, err)
	}
	return rep
}

func TestCALCEndToEnd(t *testing.T) {
	d := NewDevice()
	rep := mustLoad(t, d, "CALC", 1)
	if rep.Commands == 0 {
		t.Fatal("no reconfiguration commands issued")
	}

	tests := []struct {
		op   uint16
		a, b uint32
		want uint32
	}{
		{trafficgen.CalcAdd, 7, 5, 12},
		{trafficgen.CalcSub, 7, 5, 2},
		{trafficgen.CalcEcho, 99, 5, 99},
		{trafficgen.CalcAdd, 0xffffffff, 1, 0}, // wraparound like hardware
	}
	for _, tc := range tests {
		frame := trafficgen.CalcPacket(1, tc.op, tc.a, tc.b, 0)
		res, err := d.Send(frame)
		if err != nil {
			t.Fatalf("Send: %v", err)
		}
		if res.Dropped {
			t.Fatalf("op=%d dropped: %s", tc.op, res.Reason)
		}
		got, err := trafficgen.CalcResult(res.Output)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("op=%d a=%d b=%d: result %d, want %d", tc.op, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestUnknownOpcodeLeavesResultUntouched(t *testing.T) {
	d := NewDevice()
	mustLoad(t, d, "CALC", 1)
	frame := trafficgen.CalcPacket(1, 0x7777, 3, 4, 0)
	res, err := d.Send(frame)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped {
		t.Fatalf("dropped: %s", res.Reason)
	}
	got, _ := trafficgen.CalcResult(res.Output)
	if got != 0 {
		t.Errorf("unmatched opcode modified result: %d", got)
	}
}

func TestPacketsOfUnloadedModuleDrop(t *testing.T) {
	d := NewDevice()
	mustLoad(t, d, "CALC", 1)
	res, err := d.Send(trafficgen.CalcPacket(2, trafficgen.CalcAdd, 1, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Dropped {
		t.Fatal("packet of unloaded module 2 was not dropped")
	}
}

// TestUnloadReleasesCAMSpan: unloading a module frees its CAM span in
// the pipeline as well as in the allocator, so the next tenant admitted
// into the same addresses can reserve them, and the unloaded module
// leaves no configuration behind.
func TestUnloadReleasesCAMSpan(t *testing.T) {
	d := NewDevice()
	empty := d.Pipeline().ModuleChecksum(3)
	mustLoad(t, d, "CALC", 3)
	if err := d.UnloadModule(3); err != nil {
		t.Fatal(err)
	}
	if got := d.Pipeline().ModuleChecksum(3); got != empty {
		t.Errorf("module 3 checksum %#x after unload, %#x before its load", got, empty)
	}
	mustLoad(t, d, "CALC", 4)
}

// TestUnloadResetsModuleStats: an unload clears a module's traffic
// counters with the rest of its state, so a program loaded into the
// freed ID starts from zero on both of the device's counters.
func TestUnloadResetsModuleStats(t *testing.T) {
	d := NewDevice()
	mustLoad(t, d, "CALC", 1)
	for i := 0; i < 5; i++ {
		if _, err := d.Send(trafficgen.CalcPacket(1, trafficgen.CalcAdd, 1, 2, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if pk, _, _ := d.Stats(1); pk != 5 {
		t.Fatalf("CALC counted %d packets, want 5", pk)
	}
	if err := d.UnloadModule(1); err != nil {
		t.Fatal(err)
	}
	mustLoad(t, d, "NetCache", 1)
	pk, by, dr := d.Stats(1)
	sys, err := d.SystemPacketCount(1)
	if err != nil {
		t.Fatal(err)
	}
	if pk != 0 || by != 0 || dr != 0 || sys != 0 {
		t.Errorf("NetCache in CALC's freed ID: stats %d/%d/%d, system counter %d; want all 0", pk, by, dr, sys)
	}
}

// TestEngineUnloadResetsShardStats: Engine.UnloadModule clears the
// module's traffic counters on every shard, not only its tables.
func TestEngineUnloadResetsShardStats(t *testing.T) {
	d := NewDevice()
	mustLoad(t, d, "CALC", 1)
	eng, err := d.NewEngine(EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	frames := make([][]byte, 64)
	for i := range frames {
		frames[i] = trafficgen.CalcPacket(1, trafficgen.CalcAdd, uint32(i), 2, 0)
	}
	if _, err := eng.SubmitBatch(frames); err != nil {
		t.Fatal(err)
	}
	eng.Drain()
	var packets uint64
	for w := 0; w < eng.Workers(); w++ {
		pipe, err := eng.ShardPipeline(w)
		if err != nil {
			t.Fatal(err)
		}
		packets += pipe.StatsFor(1).Packets
	}
	if packets != uint64(len(frames)) {
		t.Fatalf("shards counted %d packets, want %d", packets, len(frames))
	}
	gen, err := eng.UnloadModule(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AwaitQuiesceCtx(context.Background(), gen); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < eng.Workers(); w++ {
		pipe, err := eng.ShardPipeline(w)
		if err != nil {
			t.Fatal(err)
		}
		if s := pipe.StatsFor(1); s != (core.ModuleStats{}) {
			t.Errorf("shard %d: module 1's counters read %+v after its unload", w, s)
		}
	}
}

func TestSystemPacketCounter(t *testing.T) {
	d := NewDevice()
	mustLoad(t, d, "CALC", 1)
	for i := 0; i < 5; i++ {
		if _, err := d.Send(trafficgen.CalcPacket(1, trafficgen.CalcAdd, 1, 2, 0)); err != nil {
			t.Fatal(err)
		}
	}
	n, err := d.SystemPacketCount(1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("system packet counter = %d, want 5", n)
	}
}

func TestNetCacheGetPut(t *testing.T) {
	d := NewDevice()
	mustLoad(t, d, "NetCache", 3)

	// PUT key=9 value=1234.
	res, err := d.Send(trafficgen.KVPacket(3, trafficgen.KVPut, 9, 1234, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped {
		t.Fatalf("put dropped: %s", res.Reason)
	}

	// GET key=9 returns 1234.
	res, err = d.Send(trafficgen.KVPacket(3, trafficgen.KVGet, 9, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	v, err := trafficgen.KVValue(res.Output)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1234 {
		t.Errorf("GET returned %d, want 1234", v)
	}

	// Register visible through the control plane too.
	rv, err := d.ReadRegister(3, "cache", 9)
	if err != nil {
		t.Fatal(err)
	}
	if rv != 1234 {
		t.Errorf("ReadRegister = %d, want 1234", rv)
	}
}

func TestNetChainSequencer(t *testing.T) {
	d := NewDevice()
	mustLoad(t, d, "NetChain", 4)
	for want := uint64(1); want <= 3; want++ {
		res, err := d.Send(trafficgen.ChainPacket(4, 1, 0))
		if err != nil {
			t.Fatal(err)
		}
		seq, err := trafficgen.ChainSeq(res.Output)
		if err != nil {
			t.Fatal(err)
		}
		if seq != want {
			t.Errorf("sequence = %d, want %d", seq, want)
		}
	}
}

func TestBehaviorIsolationThreeModules(t *testing.T) {
	// §5.1: run CALC, Firewall, and NetCache simultaneously; each module
	// behaves as it would alone.
	solo := NewDevice()
	mustLoad(t, solo, "CALC", 1)
	soloRes, err := solo.Send(trafficgen.CalcPacket(1, trafficgen.CalcAdd, 20, 22, 0))
	if err != nil {
		t.Fatal(err)
	}

	d := NewDevice()
	mustLoad(t, d, "CALC", 1)
	mustLoad(t, d, "Firewall", 2)
	mustLoad(t, d, "NetCache", 3)

	// CALC behaves identically to its solo run.
	res, err := d.Send(trafficgen.CalcPacket(1, trafficgen.CalcAdd, 20, 22, 0))
	if err != nil {
		t.Fatal(err)
	}
	soloV, _ := trafficgen.CalcResult(soloRes.Output)
	multiV, _ := trafficgen.CalcResult(res.Output)
	if soloV != multiV || multiV != 42 {
		t.Errorf("CALC isolation broken: solo %d, multi %d", soloV, multiV)
	}

	// Firewall drops blocked flows, passes others.
	blocked := trafficgen.FlowPacket(2, [4]byte{10, 0, 0, 1}, [4]byte{10, 9, 9, 9}, 1234, 80, 0)
	res, err = d.Send(blocked)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Dropped {
		t.Error("firewall did not drop blocked flow")
	}
	allowed := trafficgen.FlowPacket(2, [4]byte{10, 0, 0, 9}, [4]byte{10, 9, 9, 9}, 1234, 80, 0)
	res, err = d.Send(allowed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped {
		t.Errorf("firewall dropped allowed flow: %s", res.Reason)
	}

	// NetCache state is intact despite other modules' traffic.
	if _, err := d.Send(trafficgen.KVPacket(3, trafficgen.KVPut, 5, 777, 0)); err != nil {
		t.Fatal(err)
	}
	res, err = d.Send(trafficgen.KVPacket(3, trafficgen.KVGet, 5, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := trafficgen.KVValue(res.Output)
	if v != 777 {
		t.Errorf("NetCache value = %d, want 777", v)
	}
}

func TestReconfigureWithoutDisruption(t *testing.T) {
	d := NewDevice()
	mustLoad(t, d, "CALC", 1)
	mustLoad(t, d, "NetCache", 3)

	// Put state into NetCache before the CALC update.
	if _, err := d.Send(trafficgen.KVPacket(3, trafficgen.KVPut, 1, 555, 0)); err != nil {
		t.Fatal(err)
	}

	prog, _ := p4progs.ByName("CALC")
	if _, err := d.UpdateModule(prog.Source(), 1); err != nil {
		t.Fatalf("UpdateModule: %v", err)
	}

	// NetCache unaffected: state survives, traffic flows.
	res, err := d.Send(trafficgen.KVPacket(3, trafficgen.KVGet, 1, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped {
		t.Fatalf("NetCache dropped during CALC update: %s", res.Reason)
	}
	v, _ := trafficgen.KVValue(res.Output)
	if v != 555 {
		t.Errorf("NetCache state lost across CALC update: %d", v)
	}

	// CALC still works after the update.
	res, err = d.Send(trafficgen.CalcPacket(1, trafficgen.CalcAdd, 2, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := trafficgen.CalcResult(res.Output)
	if got != 5 {
		t.Errorf("CALC result after update = %d, want 5", got)
	}
}

// TestUpdateModuleFailedKeepsTenant: an update whose source does not
// compile returns the error and leaves the old program serving — the
// unload it began with is undone, so the tenant's output is unchanged.
func TestUpdateModuleFailedKeepsTenant(t *testing.T) {
	d := NewDevice()
	mustLoad(t, d, "CALC", 1)
	frame := trafficgen.CalcPacket(1, trafficgen.CalcAdd, 20, 22, 0)
	before, err := d.Send(frame)
	if err != nil || before.Dropped {
		t.Fatalf("baseline send: %v, dropped=%v", err, before.Dropped)
	}
	if _, err := d.UpdateModule("garbage", 1); err == nil {
		t.Fatal("UpdateModule with a bad source succeeded")
	}
	after, err := d.Send(frame)
	if err != nil {
		t.Fatal(err)
	}
	if after.Dropped || !bytes.Equal(after.Output, before.Output) {
		t.Fatalf("tenant output changed by a failed update: dropped=%v (%s)", after.Dropped, after.Reason)
	}
	if err := d.UnloadModule(1); err != nil {
		t.Fatalf("UnloadModule after a failed update: %v", err)
	}
}

// TestLoadModuleVerifiedBadSourceKeepsTenant: a verified reload whose
// source does not compile leaves device and shards agreeing on the old
// program, so a later unload reaches both — the device still knows the
// tenant, and every shard drops its configuration.
func TestLoadModuleVerifiedBadSourceKeepsTenant(t *testing.T) {
	d := NewDevice()
	mustLoad(t, d, "CALC", 1)
	eng, err := d.NewEngine(EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	if _, _, _, err := eng.LoadModuleVerified(ctx, "garbage", 1, VerifyOpts{}); err == nil {
		t.Fatal("LoadModuleVerified with a bad source succeeded")
	}
	want := d.Pipeline().ModuleChecksum(1)
	for w := 0; w < eng.Workers(); w++ {
		pipe, err := eng.ShardPipeline(w)
		if err != nil {
			t.Fatal(err)
		}
		if cs := pipe.ModuleChecksum(1); cs != want {
			t.Fatalf("shard %d checksum %#x != device %#x after a failed reload", w, cs, want)
		}
	}
	gen, err := eng.UnloadModule(1)
	if err != nil {
		t.Fatalf("UnloadModule after a failed reload: %v", err)
	}
	if err := eng.AwaitQuiesceCtx(ctx, gen); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < eng.Workers(); w++ {
		pipe, err := eng.ShardPipeline(w)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := pipe.Parser.Table().Lookup(1); ok {
			t.Fatalf("shard %d still holds the tenant's parser entry after unload", w)
		}
	}
}

// TestUpdateModuleFailedKeepsState: an update whose source does not
// compile touches nothing, so the old program's stateful memory
// survives it.
func TestUpdateModuleFailedKeepsState(t *testing.T) {
	d := NewDevice()
	mustLoad(t, d, "NetCache", 3)
	if _, err := d.Send(trafficgen.KVPacket(3, trafficgen.KVPut, 9, 1234, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.UpdateModule("garbage", 3); err == nil {
		t.Fatal("UpdateModule with a bad source succeeded")
	}
	if v, err := d.ReadRegister(3, "cache", 9); err != nil || v != 1234 {
		t.Fatalf("cache[9] = %d, %v after a failed update, want 1234", v, err)
	}
}

// TestConcurrentVerifiedLoadsAreRaceFree: verified loads of two
// tenants from two goroutines share one device and its allocator;
// the facade serializes them, so both land, each shard agrees with the
// device, and the race detector stays quiet.
func TestConcurrentVerifiedLoadsAreRaceFree(t *testing.T) {
	d := NewDevice()
	mustLoad(t, d, "CALC", 1)
	eng, err := d.NewEngine(EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	names := map[uint16]string{2: "CALC", 3: "NetCache"}
	errs := make(chan error, len(names))
	for id, name := range names {
		prog, err := p4progs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			_, _, _, err := eng.LoadModuleVerified(ctx, prog.Source(), id, VerifyOpts{})
			errs <- err
		}()
	}
	for range names {
		if err := <-errs; err != nil {
			t.Fatalf("LoadModuleVerified: %v", err)
		}
	}
	if err := eng.QuiesceCtx(ctx); err != nil {
		t.Fatal(err)
	}
	for id := range names {
		want := d.Pipeline().ModuleChecksum(id)
		for w := 0; w < eng.Workers(); w++ {
			pipe, err := eng.ShardPipeline(w)
			if err != nil {
				t.Fatal(err)
			}
			if cs := pipe.ModuleChecksum(id); cs != want {
				t.Fatalf("module %d: shard %d checksum %#x != device %#x", id, w, cs, want)
			}
		}
	}
}

func TestUpdateBitmapDropsOnlyUpdatingModule(t *testing.T) {
	d := NewDevice()
	mustLoad(t, d, "CALC", 1)
	mustLoad(t, d, "NetChain", 4)

	d.SetUpdating(1, true)
	res, err := d.Send(trafficgen.CalcPacket(1, trafficgen.CalcAdd, 1, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Dropped {
		t.Error("module 1 packet not dropped while updating")
	}
	res, err = d.Send(trafficgen.ChainPacket(4, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped {
		t.Errorf("module 4 packet dropped during module 1 update: %s", res.Reason)
	}
	d.SetUpdating(1, false)
	res, err = d.Send(trafficgen.CalcPacket(1, trafficgen.CalcAdd, 1, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped {
		t.Errorf("module 1 packet dropped after update cleared: %s", res.Reason)
	}
}

func TestAllProgramsCompileAndLoad(t *testing.T) {
	d := NewDevice()
	for i, p := range p4progs.Programs {
		id := uint16(i + 1)
		if _, err := d.LoadModule(p.Source(), id); err != nil {
			t.Errorf("load %s: %v", p.Name, err)
		}
	}
}

func TestRoutingAndMulticast(t *testing.T) {
	d := NewDevice()
	if err := d.AddRoute(5, "10.9.9.9", 7); err != nil {
		t.Fatal(err)
	}
	d.AddMulticastGroup(200, 2, 3, 4)
	prog, _ := p4progs.ByName("Multicast")
	if _, err := d.LoadModule(prog.Source(), 5); err != nil {
		t.Fatal(err)
	}

	// vIP route installed by the system-level module.
	res, err := d.Send(trafficgen.FlowPacket(5, [4]byte{10, 0, 0, 1}, [4]byte{10, 9, 9, 9}, 1, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EgressPorts) != 1 || res.EgressPorts[0] != 7 {
		t.Errorf("vIP route egress = %v, want [7]", res.EgressPorts)
	}

	// Multicast group: dstip 224.0.0.1 -> group 200 -> members 2,3,4.
	res, err = d.Send(trafficgen.FlowPacket(5, [4]byte{10, 0, 0, 1}, [4]byte{224, 0, 0, 1}, 1, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EgressPorts) != 3 {
		t.Errorf("multicast egress = %v, want 3 members", res.EgressPorts)
	}
}

func TestStaticCheckerRejectsVIDModification(t *testing.T) {
	d := NewDevice()
	src := `
module evil;
header vlan_h { tci : 16; }
parser { extract vlan_h at 14; }
action rewrite() { vlan_h.tci = 99; }
table t { key = { vlan_h.tci; } actions = { rewrite; } size = 1; }
control { apply(t); }
`
	_, err := d.LoadModule(src, 1)
	if err == nil {
		t.Fatal("module parsing the VLAN TCI was admitted")
	}
}

func TestStaticCheckerRejectsRecirculation(t *testing.T) {
	d := NewDevice()
	src := `
module spin;
header h_h { f : 16; }
parser { extract h_h at 46; }
action loop() { recirculate(); }
table t { key = { h_h.f; } actions = { loop; } size = 1; }
control { apply(t); }
`
	_, err := d.LoadModule(src, 1)
	if err == nil {
		t.Fatal("recirculating module was admitted")
	}
}

func TestSegmentIsolationBetweenStatefulModules(t *testing.T) {
	// Two NetCache instances: writes through one must not be visible to
	// the other even though they share the same stage's physical memory.
	d := NewDevice()
	prog, _ := p4progs.ByName("NetCache")
	if _, err := d.LoadModule(prog.Source(), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.LoadModule(prog.Source(), 2); err != nil {
		t.Fatal(err)
	}

	if _, err := d.Send(trafficgen.KVPacket(1, trafficgen.KVPut, 0, 111, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Send(trafficgen.KVPacket(2, trafficgen.KVPut, 0, 222, 0)); err != nil {
		t.Fatal(err)
	}

	res, err := d.Send(trafficgen.KVPacket(1, trafficgen.KVGet, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := trafficgen.KVValue(res.Output)
	res, err = d.Send(trafficgen.KVPacket(2, trafficgen.KVGet, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	v2, _ := trafficgen.KVValue(res.Output)
	if v1 != 111 || v2 != 222 {
		t.Errorf("segment isolation broken: module1 sees %d (want 111), module2 sees %d (want 222)", v1, v2)
	}

	// Out-of-range key (>= 64) must fault to a no-op, not read a
	// neighbour's slice.
	res, err = d.Send(trafficgen.KVPacket(1, trafficgen.KVGet, 200, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := trafficgen.KVValue(res.Output)
	if v != 0 {
		t.Errorf("out-of-segment read returned %d, want 0 (fault->noop)", v)
	}
}

func TestModuleNotLoadedErrors(t *testing.T) {
	d := NewDevice()
	if err := d.UnloadModule(9); !errors.Is(err, ErrNotLoaded) {
		t.Errorf("UnloadModule error = %v, want ErrNotLoaded", err)
	}
	if _, err := d.ReadRegister(9, "x", 0); !errors.Is(err, ErrNotLoaded) {
		t.Errorf("ReadRegister error = %v, want ErrNotLoaded", err)
	}
}

const lpmFirewallSrc = `
module lpm_firewall;
header ip_h { srcip : 32; dstip : 32; }
parser { extract ip_h at 30; }
action allow() { }
action deny()  { drop(); }
table acl {
    key     = { ip_h.srcip; }
    actions = { allow; deny; }
    match   = ternary;
    size    = 8;
    entries {
        (0x0a010000/0xffff0000) -> allow;   // 10.1.0.0/16 exempt (higher priority)
        (0x0a000000/0xff000000) -> deny;    // 10.0.0.0/8 blocked
    }
}
control { apply(acl); }
`

func TestTernaryLPMFirewallEndToEnd(t *testing.T) {
	d := NewDevice()
	if _, err := d.LoadModule(lpmFirewallSrc, 1); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		src  [4]byte
		drop bool
	}{
		{[4]byte{10, 2, 3, 4}, true},     // 10/8 -> deny
		{[4]byte{10, 1, 3, 4}, false},    // 10.1/16 exempt: lower address wins
		{[4]byte{192, 168, 0, 1}, false}, // no match -> pass through
	}
	for _, tc := range cases {
		frame := trafficgen.FlowPacket(1, tc.src, [4]byte{10, 9, 9, 9}, 1, 2, 0)
		res, err := d.Send(frame)
		if err != nil {
			t.Fatal(err)
		}
		if res.Dropped != tc.drop {
			t.Errorf("src %v: dropped=%v, want %v (%s)", tc.src, res.Dropped, tc.drop, res.Reason)
		}
	}
}

func TestLoadModuleChainEndToEnd(t *testing.T) {
	// Two chained single-tenant modules: stage A rewrites the source
	// port of dport-80 flows to a mark; stage B counts marked packets.
	classify := `
module classify;
header l4_h { sport : 16; dport : 16; }
parser { extract l4_h at 38; }
action mark() { l4_h.sport = 7777; }
table cls { key = { l4_h.dport; } actions = { mark; } size = 2; entries { (80) -> mark; } }
control { apply(cls); }
`
	count := `
module count;
header l4_h { sport : 16; dport : 16; }
register hits[4];
parser { extract l4_h at 38; }
action bump() { l4_h.dport = hits[0]++; }
table cnt { key = { l4_h.sport; } actions = { bump; } size = 2; entries { (7777) -> bump; } }
control { apply(cnt); }
`
	d := NewDevice()
	rep, err := d.LoadModuleChain([]string{classify, count}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Module.Name != "classify+count" {
		t.Errorf("name = %s", rep.Module.Name)
	}

	// A port-80 flow is marked in the first chained stage and counted in
	// the second.
	for i := 0; i < 3; i++ {
		frame := trafficgen.FlowPacket(2, [4]byte{10, 0, 0, 1}, [4]byte{10, 9, 9, 9}, 1234, 80, 0)
		res, err := d.Send(frame)
		if err != nil {
			t.Fatal(err)
		}
		if res.Dropped {
			t.Fatalf("dropped: %s", res.Reason)
		}
	}
	hits, err := d.ReadRegister(2, "count.hits", 0)
	if err != nil {
		t.Fatal(err)
	}
	if hits != 3 {
		t.Errorf("chained counter = %d, want 3", hits)
	}

	// Non-80 flows pass unmarked and uncounted.
	frame := trafficgen.FlowPacket(2, [4]byte{10, 0, 0, 1}, [4]byte{10, 9, 9, 9}, 1234, 443, 0)
	if _, err := d.Send(frame); err != nil {
		t.Fatal(err)
	}
	hits, _ = d.ReadRegister(2, "count.hits", 0)
	if hits != 3 {
		t.Errorf("unmarked flow counted: %d", hits)
	}
}
