// Fabric: a tenant's module running across two Menshen switches joined
// by a link — the multi-device setting of §3.3/§3.4. Each switch is a
// concurrent engine and the inter-switch link an owned-buffer hand-off
// between the two engines (a pointer move, with hop counts carried
// out-of-band, never in the frame). The system-level module routes the
// tenant's virtual IP hop by hop, the control plane verifies the route
// graph is loop-free before traffic flows, and the frame's VLAN-carried
// module ID is untouched in flight (the property the static checker's
// no-VID-writes rule protects).
package main

import (
	"fmt"
	"log"
	"sync"

	"repro/internal/checker"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/packet"
	"repro/internal/sysmod"
	"repro/internal/trafficgen"
)

const tenantSrc = `
module telemetry;
header sr_h { tag : 16; }
register seen[1];
parser { extract sr_h at 46; }
action count() { sr_h.tag = seen[0]++; }
table t { actions = { count; } size = 1; }
control { apply(t); }
`

// compileTenant compiles the module for one switch, merging that
// switch's system-module routes into the configuration.
func compileTenant(sys *sysmod.Config, moduleID uint16) (engine.ModuleSpec, error) {
	prog, err := compiler.Compile(tenantSrc, compiler.Options{ModuleID: moduleID})
	if err != nil {
		return engine.ModuleSpec{}, err
	}
	if err := sys.Augment(prog.Config); err != nil {
		return engine.ModuleSpec{}, err
	}
	alloc := checker.NewAllocator(checker.CapacityOf(core.DefaultGeometry()), nil)
	pl, err := alloc.Admit(prog.Config)
	if err != nil {
		return engine.ModuleSpec{}, err
	}
	return engine.ModuleSpec{Config: prog.Config, Placement: pl}, nil
}

func main() {
	vip := packet.IPv4Addr{10, 9, 9, 9}

	// The sink runs on node worker goroutines concurrently — guard it.
	var sinkMu sync.Mutex
	delivered, lastHops := 0, 0
	lastVID := uint16(0)
	ef := fabric.NewEngineFabric(func(d fabric.Delivery) {
		// Frames are only valid during the callback; this sink just
		// counts them and remembers the VID and hop count.
		var p packet.Packet
		err := packet.Decode(d.Frame, &p)
		sinkMu.Lock()
		delivered++
		lastHops = d.Hops
		if err == nil {
			lastVID = p.ModuleID()
		}
		sinkMu.Unlock()
	})

	// s1 forwards the tenant's vIP over its port 1 (the link), s2
	// delivers it to host port 2.
	for _, n := range []struct {
		name string
		port uint8
	}{{"s1", 1}, {"s2", 2}} {
		sys := sysmod.NewConfig()
		sys.AddRoute(1, vip, n.port)
		spec, err := compileTenant(sys, 1)
		if err != nil {
			log.Fatalf("compile for %s: %v", n.name, err)
		}
		if _, err := ef.AddNode(n.name, sys, fabric.NodeConfig{
			Workers: 2,
			Modules: []engine.ModuleSpec{spec},
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("tenant module compiled for %s\n", n.name)
	}
	if err := ef.Link("s1", 1, "s2", 0); err != nil {
		log.Fatal(err)
	}

	// Control-plane loop check before traffic flows (§3.4).
	if err := checker.CheckLoopFree(ef.ModuleRouteGraph(1)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("route graph verified loop-free")
	if err := ef.Start(); err != nil {
		log.Fatal(err)
	}

	sc := trafficgen.FabricScenario(7, vip, 0, 8, 1)
	const total = 10000
	var batch [][]byte
	for sent := 0; sent < total; sent += len(batch) {
		batch = sc.NextBatch(batch[:0], min(256, total-sent))
		if _, err := ef.InjectBatch("s1", 0, batch); err != nil {
			log.Fatal(err)
		}
	}
	ef.Drain()
	st := ef.Stats()
	if err := ef.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("injected %d frames at s1; delivered %d at s2's host port after %d inter-switch hop(s), VID still %d\n",
		total, delivered, lastHops, lastVID)
	fmt.Printf("link hand-offs s1->s2: %d (zero copies per hop), link drops: %d, ttl drops: %d\n",
		st.Forwarded, st.LinkDropped, st.TTLDropped)
	for _, name := range []string{"s1", "s2"} {
		ns := st.Nodes[name]
		fmt.Printf("  %s: %d frames through %d worker shards\n",
			name, ns.Engine.Totals().Processed, len(ns.Engine.Workers))
	}
}
