package fabric

import (
	"fmt"
	"log"
	"sort"
	"sync"

	"repro/internal/checker"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sysmod"
	"repro/internal/trafficgen"
)

// exampleModule forwards its frames untouched; the system-level module
// does the routing.
const exampleModule = `
module pass;
header sr_h { tag : 16; }
parser { extract sr_h at 46; }
action nop_a() { }
table t { actions = { nop_a; } size = 1; }
control { apply(t); }
`

// Example_engineFabric runs tenant 1's traffic across a two-node
// engine-backed fabric: s1 forwards the tenant's virtual IP over the
// inter-node link (an owned-buffer hand-off between the two engines),
// s2 delivers it to the host on port 2 with the VID untouched in
// flight.
func Example_engineFabric() {
	vip := [4]byte{10, 9, 9, 9}

	var mu sync.Mutex
	delivered := map[string]int{}
	fab := NewEngineFabric(func(d Delivery) {
		mu.Lock()
		delivered[fmt.Sprintf("%s port %d tenant %d (%d hop)", d.Device, d.Port, d.Tenant, d.Hops)]++
		mu.Unlock()
	})

	// s1 routes the vIP out port 1 (the link); s2 routes it to host
	// port 2. Each node's module config is augmented with that node's
	// routes before its engine replays it into the worker shards.
	for _, n := range []struct {
		name string
		port uint8
	}{{"s1", 1}, {"s2", 2}} {
		sys := sysmod.NewConfig()
		sys.AddRoute(1, vip, n.port)
		prog, err := compiler.Compile(exampleModule, compiler.Options{ModuleID: 1})
		if err != nil {
			log.Fatal(err)
		}
		if err := sys.Augment(prog.Config); err != nil {
			log.Fatal(err)
		}
		alloc := checker.NewAllocator(checker.CapacityOf(core.DefaultGeometry()), nil)
		pl, err := alloc.Admit(prog.Config)
		if err != nil {
			log.Fatal(err)
		}
		_, err = fab.AddNode(n.name, sys, NodeConfig{
			Workers: 1,
			Modules: []engine.ModuleSpec{{Config: prog.Config, Placement: pl}},
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	if err := fab.Link("s1", 1, "s2", 0); err != nil {
		log.Fatal(err)
	}

	// The §3.4 control-plane check: the tenant's route graph must be
	// loop-free before traffic flows.
	if err := checker.CheckLoopFree(fab.ModuleRouteGraph(1)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("route graph verified loop-free")

	if err := fab.Start(); err != nil {
		log.Fatal(err)
	}
	sc := trafficgen.FabricScenario(1, vip, 0, 4, 1)
	if _, err := fab.InjectBatch("s1", 0, sc.NextBatch(nil, 100)); err != nil {
		log.Fatal(err)
	}
	fab.Drain()
	st := fab.Stats()
	if err := fab.Close(); err != nil {
		log.Fatal(err)
	}

	keys := make([]string, 0, len(delivered))
	for k := range delivered {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("delivered at %s: %d frames\n", k, delivered[k])
	}
	fmt.Printf("hand-offs across the s1->s2 link: %d\n", st.Forwarded)
	// Output:
	// route graph verified loop-free
	// delivered at s2 port 2 tenant 1 (1 hop): 100 frames
	// hand-offs across the s1->s2 link: 100
}
