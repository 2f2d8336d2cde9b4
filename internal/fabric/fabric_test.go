package fabric

import (
	"errors"
	"testing"

	"repro/internal/checker"
	"repro/internal/faultinject"
	"repro/internal/packet"
	"repro/internal/sysmod"
	"repro/internal/trafficgen"
)

// passthroughModule forwards its packets untouched (the system module
// does the routing).
const passthroughSrc = `
module pass;
header sr_h { tag : 16; }
parser { extract sr_h at 46; }
action nop_a() { }
table t { actions = { nop_a; } size = 1; }
control { apply(t); }
`

// sendOne injects one frame of the tenant at s0 port 0, drains the
// fabric, and returns its stats.
func sendOne(t *testing.T, f *EngineFabric, tenant uint16, vip packet.IPv4Addr) FabricStats {
	t.Helper()
	frame := trafficgen.FlowPacket(tenant, [4]byte{10, 0, 0, 1}, vip, 1000, 2000, 0)
	if acc, err := f.InjectBatch("s0", 0, [][]byte{frame}); err != nil || acc != 1 {
		t.Fatalf("inject: acc=%d err=%v", acc, err)
	}
	f.Drain()
	return f.Stats()
}

func TestForwardAcrossDevices(t *testing.T) {
	f, sink := chainSpec(2, parityVIP, 1).buildEngine(t, NodeConfig{Workers: 1})
	defer f.Close()
	st := sendOne(t, f, 1, parityVIP)
	if st.Delivered != 1 || st.Forwarded != 1 {
		t.Fatalf("delivered %d, forwarded %d; want 1, 1", st.Delivered, st.Forwarded)
	}
	if hops := sink.hops[hostKey("s1", 2, 1)]; len(hops) != 1 || hops[0] != 1 {
		t.Errorf("host s1/2/t1 saw hop counts %v, want [1]", hops)
	}
}

// TestVIDSurvivesAcrossDevices: §3.4 — a frame keeps its tenant's VID
// on every hop, so each device's tables see the module that sent it.
func TestVIDSurvivesAcrossDevices(t *testing.T) {
	f, sink := chainSpec(3, parityVIP, 1, 2).buildEngine(t, NodeConfig{Workers: 1})
	defer f.Close()
	for _, tenant := range []uint16{1, 2} {
		sendOne(t, f, tenant, parityVIP)
	}
	for _, tenant := range []uint16{1, 2} {
		k := hostKey("s2", 2, tenant)
		if len(sink.frames[k]) != 1 {
			t.Fatalf("host %s got %d frames, want 1", k, len(sink.frames[k]))
		}
		var p packet.Packet
		if err := packet.Decode(sink.frames[k][0], &p); err != nil {
			t.Fatal(err)
		}
		if p.ModuleID() != tenant {
			t.Errorf("tenant %d frame arrived at s2 with VID %d", tenant, p.ModuleID())
		}
	}
}

func TestUnknownModuleDropsAtFirstDevice(t *testing.T) {
	f, _ := chainSpec(2, parityVIP, 1).buildEngine(t, NodeConfig{Workers: 1})
	defer f.Close()
	st := sendOne(t, f, 7, parityVIP)
	if st.Delivered != 0 || st.Forwarded != 0 {
		t.Errorf("delivered %d, forwarded %d; want 0, 0", st.Delivered, st.Forwarded)
	}
	if got := st.Nodes["s0"].Engine.Tenants[7].PipelineDrops; got != 1 {
		t.Errorf("s0 dropped %d frames of tenant 7, want 1", got)
	}
}

// TestRoutingLoopDetectedByControlPlane: the §3.4 check passes a chain
// and refuses a module whose routes send a vIP around a cycle
// (TestEngineFabricLoopTTL loads such a cycle anyway).
func TestRoutingLoopDetectedByControlPlane(t *testing.T) {
	chain, _ := chainSpec(3, parityVIP, 1).buildEngine(t, NodeConfig{Workers: 1})
	defer chain.Close()
	if hops := chain.ModuleRouteGraph(1); len(hops) != 2 {
		t.Errorf("chain route graph = %+v, want two linked hops", hops)
	} else if err := checker.CheckLoopFree(hops); err != nil {
		t.Errorf("chain refused: %v", err)
	}

	// Misconfigure: s0 routes the vip to s1, s1 routes it back to s0.
	loop := NewEngineFabric(nil)
	for _, name := range []string{"s0", "s1"} {
		sys := sysmod.NewConfig()
		sys.AddRoute(1, parityVIP, 1)
		if _, err := loop.AddNode(name, sys, NodeConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := loop.Link("s0", 1, "s1", 0); err != nil {
		t.Fatal(err)
	}
	if err := loop.Link("s1", 1, "s0", 0); err != nil {
		t.Fatal(err)
	}
	if err := checker.CheckLoopFree(loop.ModuleRouteGraph(1)); !errors.Is(err, checker.ErrRouteLoop) {
		t.Fatalf("loop not detected: %v", err)
	}
}

func TestMulticastFansOutAcrossFabric(t *testing.T) {
	vip := packet.IPv4Addr{224, 0, 0, 9}
	s := newSpec()
	s.node("s0").AddRoute(1, vip, 200) // group port
	s.node("s0").AddMulticastGroup(200, []uint8{1, 3})
	s.node("s1").AddRoute(1, vip, 5)
	s.loads["s0"] = []uint16{1}
	s.loads["s1"] = []uint16{1}
	s.link("s0", 1, "s1", 0)
	f, sink := s.buildEngine(t, NodeConfig{Workers: 1})
	defer f.Close()

	// One copy to the local host port 3, one across the link delivered
	// at s1 port 5.
	if st := sendOne(t, f, 1, vip); st.Delivered != 2 {
		t.Fatalf("delivered %d, want 2", st.Delivered)
	}
	for _, k := range []string{hostKey("s0", 3, 1), hostKey("s1", 5, 1)} {
		if n := len(sink.frames[k]); n != 1 {
			t.Errorf("host %s got %d frames, want 1", k, n)
		}
	}
}

func TestFabricErrors(t *testing.T) {
	f := NewEngineFabric(nil)
	if err := f.Link("a", 0, "b", 0); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("link unknown: %v", err)
	}
	if _, err := f.Node("a"); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("node unknown: %v", err)
	}
	if _, err := f.InjectBatch("a", 0, nil); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("inject unknown: %v", err)
	}
	if _, err := f.FaultLink("a", 0, faultinject.Plan{}); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("fault unknown: %v", err)
	}
}
