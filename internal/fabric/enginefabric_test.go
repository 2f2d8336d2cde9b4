// EngineFabric suite: the parity harness driving identical topologies
// and traffic through a synchronous reference walk and the engine-backed
// fabric (byte-identical per-host outputs, matching drop counts), plus
// the loop/TTL, backpressure, multicast, and concurrency behaviors the
// asynchronous execution adds. CI runs this file under -race.
package fabric

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/ctrlplane"
	"repro/internal/engine"
	"repro/internal/packet"
	"repro/internal/sysmod"
	"repro/internal/trafficgen"
)

// tenantSpec compiles the passthrough module for one tenant, augments
// it with the node's system configuration, and admits it with the
// node's allocator (one allocator per node, shared across its tenants,
// so placements do not collide).
func tenantSpec(t testing.TB, alloc *checker.Allocator, sys *sysmod.Config, moduleID uint16) engine.ModuleSpec {
	t.Helper()
	prog, err := compiler.Compile(passthroughSrc, compiler.Options{ModuleID: moduleID})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Augment(prog.Config); err != nil {
		t.Fatal(err)
	}
	pl, err := alloc.Admit(prog.Config)
	if err != nil {
		t.Fatal(err)
	}
	return engine.ModuleSpec{Config: prog.Config, Placement: pl}
}

// fabricSpec describes one topology once, so the reference and engine
// builds cannot drift apart.
type fabricSpec struct {
	nodes map[string]*sysmod.Config // name -> routes/groups
	names []string                  // creation order
	links [][4]any                  // from, egress, to, ingress
	loads map[string][]uint16       // node -> tenants to load
}

// quiesce runs the fabric-wide barrier under a 30 s deadline, so a
// wedged shard fails its test in seconds rather than at go test's
// timeout; the error names the blocking node.
func quiesce(t testing.TB, f *EngineFabric) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.QuiesceCtx(ctx); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
}

func newSpec() *fabricSpec {
	return &fabricSpec{nodes: map[string]*sysmod.Config{}, loads: map[string][]uint16{}}
}

func (s *fabricSpec) node(name string) *sysmod.Config {
	if s.nodes[name] == nil {
		s.nodes[name] = sysmod.NewConfig()
		s.names = append(s.names, name)
	}
	return s.nodes[name]
}

func (s *fabricSpec) link(from string, egress uint8, to string, ingress uint8) {
	s.links = append(s.links, [4]any{from, egress, to, ingress})
}

// refFabric is the parity suites' synchronous reference: one
// core.Pipeline per node over the same topology EngineFabric uses.
type refFabric struct {
	pipes map[string]*core.Pipeline
	tms   map[string]*sysmod.TrafficManager
	topo  topology
}

// errRefTTL is the reference walk's verdict on a forwarding loop.
var errRefTTL = errors.New("reference walk: frame still in flight after MaxHops devices")

// buildRef instantiates the spec as the synchronous reference.
func (s *fabricSpec) buildRef(t *testing.T) *refFabric {
	t.Helper()
	r := &refFabric{pipes: map[string]*core.Pipeline{}, tms: map[string]*sysmod.TrafficManager{}, topo: newTopology()}
	for _, name := range s.names {
		pipe := core.NewDefault()
		r.pipes[name], r.tms[name] = pipe, sysmod.NewTrafficManager(s.nodes[name])
		alloc := checker.NewAllocator(checker.CapacityOf(pipe.Geometry), nil)
		for _, id := range s.loads[name] {
			spec := tenantSpec(t, alloc, s.nodes[name], id)
			cmds, err := spec.Config.Commands(spec.Placement)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ctrlplane.New(pipe).LoadModule(spec.Config, spec.Placement, cmds); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, l := range s.links {
		r.topo.addLink(l[0].(string), l[1].(uint8), l[2].(string), l[3].(uint8))
	}
	return r
}

// walk takes one frame from (entry, ingress) breadth-first through full
// pipelines until every multicast copy reaches a terminal port or is
// dropped, appending deliveries to out (keyed like hostSink) and
// counting drops per device.
func (r *refFabric) walk(entry string, ingress uint8, frame []byte, out map[string][][]byte, drops map[string]int) error {
	type work struct {
		dev     string
		ingress uint8
		frame   []byte
		hops    int
	}
	queue := []work{{entry, ingress, frame, 0}}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		if w.hops >= MaxHops {
			return errRefTTL
		}
		res, _, err := r.pipes[w.dev].Process(w.frame, w.ingress)
		if err != nil {
			return fmt.Errorf("device %s: %w", w.dev, err)
		}
		if res.Dropped {
			drops[w.dev]++
			continue
		}
		for _, port := range r.tms[w.dev].Expand(res.EgressPort) {
			if ep, linked := r.topo.next(w.dev, port); linked {
				queue = append(queue, work{ep.device, ep.ingress, res.Data, w.hops + 1})
			} else {
				k := hostKey(w.dev, port, res.ModuleID)
				out[k] = append(out[k], append([]byte(nil), res.Data...))
			}
		}
	}
	return nil
}

// buildEngine instantiates the spec as a started EngineFabric whose
// deliveries land in the returned sink.
func (s *fabricSpec) buildEngine(t *testing.T, cfg NodeConfig) (*EngineFabric, *hostSink) {
	t.Helper()
	sink := newHostSink()
	return s.buildEngineWith(t, cfg, sink.deliver), sink
}

// buildEngineWith is buildEngine with a caller-chosen delivery sink
// (benchmarks use a count-only sink so the measurement loop does not
// charge the copying collector's allocations to the fabric).
func (s *fabricSpec) buildEngineWith(t testing.TB, cfg NodeConfig, deliver func(Delivery)) *EngineFabric {
	t.Helper()
	f := NewEngineFabric(deliver)
	for _, name := range s.names {
		sys := s.nodes[name]
		nodeCfg := cfg
		geo := nodeCfg.Geometry
		if geo.Stages == 0 {
			geo = core.DefaultGeometry()
		}
		alloc := checker.NewAllocator(checker.CapacityOf(geo), nil)
		for _, id := range s.loads[name] {
			nodeCfg.Modules = append(nodeCfg.Modules, tenantSpec(t, alloc, sys, id))
		}
		if _, err := f.AddNode(name, sys, nodeCfg); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range s.links {
		if err := f.Link(l[0].(string), l[1].(uint8), l[2].(string), l[3].(uint8)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	return f
}

// hostSink collects engine-fabric deliveries per (device, port,
// tenant), copying frames out of the callback window. It is safe for
// concurrent workers.
type hostSink struct {
	mu     sync.Mutex
	frames map[string][][]byte
	hops   map[string][]int
	count  uint64
}

func newHostSink() *hostSink {
	return &hostSink{frames: map[string][][]byte{}, hops: map[string][]int{}}
}

func hostKey(device string, port uint8, tenant uint16) string {
	return fmt.Sprintf("%s/%d/t%d", device, port, tenant)
}

func (h *hostSink) deliver(d Delivery) {
	h.mu.Lock()
	defer h.mu.Unlock()
	k := hostKey(d.Device, d.Port, d.Tenant)
	h.frames[k] = append(h.frames[k], append([]byte(nil), d.Frame...))
	h.hops[k] = append(h.hops[k], d.Hops)
	h.count++
}

// collectRef walks frames one at a time through the reference and
// returns the same per-host map the engine sink produces, plus the
// per-device drop counts.
func collectRef(t *testing.T, r *refFabric, entry string, ingress uint8, frames [][]byte) (map[string][][]byte, map[string]int) {
	t.Helper()
	out := map[string][][]byte{}
	drops := map[string]int{}
	for _, fr := range frames {
		if err := r.walk(entry, ingress, fr, out, drops); err != nil {
			t.Fatal(err)
		}
	}
	return out, drops
}

// compareHosts asserts the engine sink saw byte-identical per-host
// frame sequences to the reference.
func compareHosts(t *testing.T, ref map[string][][]byte, sink *hostSink) {
	t.Helper()
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for k, want := range ref {
		got := sink.frames[k]
		if len(got) != len(want) {
			t.Errorf("host %s: engine delivered %d frames, reference delivered %d", k, len(got), len(want))
			continue
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("host %s frame %d: engine output differs from the reference", k, i)
				break
			}
		}
	}
	for k := range sink.frames {
		if _, ok := ref[k]; !ok {
			t.Errorf("host %s: engine delivered %d frames, reference delivered none", k, len(sink.frames[k]))
		}
	}
}

// chainSpec builds an n-node chain: each node forwards every tenant's
// vIP out port 1 to the next node's port 0; the last node delivers to
// host port 2.
func chainSpec(n int, vip packet.IPv4Addr, tenants ...uint16) *fabricSpec {
	s := newSpec()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("s%d", i)
		sys := s.node(name)
		port := uint8(1)
		if i == n-1 {
			port = 2 // host-terminal
		}
		for _, id := range tenants {
			sys.AddRoute(id, vip, port)
		}
		s.loads[name] = append([]uint16(nil), tenants...)
		if i > 0 {
			s.link(fmt.Sprintf("s%d", i-1), 1, name, 0)
		}
	}
	return s
}

var parityVIP = packet.IPv4Addr{10, 9, 9, 9}

// parityTraffic interleaves several tenants' flow-diverse streams
// toward the parity vIP.
func parityTraffic(n int, tenants ...uint16) [][]byte {
	sc := trafficgen.FabricScenario(99, parityVIP, 0, 4, tenants...)
	return sc.NextBatch(nil, n)
}

// TestEngineFabricParityChain is the acceptance parity scenario: a
// 3-node chain, two tenants, identical traffic through the reference
// and the engine fabric; per-host outputs must be byte-identical, with
// zero drops anywhere on the engine path, and every delivered frame
// must still carry its tenant's VID (§3.4: a VID rewritten in flight
// would hit another module's tables downstream).
func TestEngineFabricParityChain(t *testing.T) {
	const frames = 600
	spec := chainSpec(3, parityVIP, 1, 2)
	traffic := parityTraffic(frames, 1, 2)

	ref, refDrops := collectRef(t, spec.buildRef(t), "s0", 0, traffic)
	if len(refDrops) != 0 {
		t.Fatalf("setup: reference walk dropped frames: %v", refDrops)
	}

	sink := newHostSink()
	ef := spec.buildEngineWith(t, NodeConfig{Workers: 1, BatchSize: 16}, func(d Delivery) {
		var p packet.Packet
		if err := packet.Decode(d.Frame, &p); err != nil || p.ModuleID() != d.Tenant {
			t.Errorf("frame delivered at %s for tenant %d carries VID %d (decode: %v)", d.Device, d.Tenant, p.ModuleID(), err)
		}
		sink.deliver(d)
	})
	for i := 0; i < frames; i += 32 {
		end := min(i+32, frames)
		if acc, err := ef.InjectBatch("s0", 0, traffic[i:end]); err != nil || acc != end-i {
			t.Fatalf("inject: acc=%d err=%v", acc, err)
		}
	}
	ef.Drain()
	st := ef.Stats()
	if err := ef.Close(); err != nil {
		t.Fatal(err)
	}

	compareHosts(t, ref, sink)
	if st.Delivered != frames {
		t.Errorf("Delivered = %d, want %d", st.Delivered, frames)
	}
	if want := uint64(frames * 2); st.Forwarded != want { // two link crossings per frame
		t.Errorf("Forwarded = %d, want %d", st.Forwarded, want)
	}
	if st.LinkDropped != 0 || st.TTLDropped != 0 {
		t.Errorf("unexpected drops: link %d, ttl %d", st.LinkDropped, st.TTLDropped)
	}
	for name, ns := range st.Nodes {
		for id, ts := range ns.Engine.Tenants {
			if ts.PipelineDrops != 0 || ts.QueueFull != 0 {
				t.Errorf("node %s tenant %d: pipeline %d / queue %d drops on a clean chain",
					name, id, ts.PipelineDrops, ts.QueueFull)
			}
		}
	}
	// Per-hop overhead is at most the one entry copy: only the entry
	// node's (copying) InjectBatch adds to BytesCopied; both hops are
	// owned hand-offs that copy nothing.
	if st.Nodes["s0"].Engine.BytesCopied == 0 {
		t.Error("entry node copied nothing — InjectBatch should copy once at the edge")
	}
	for _, name := range []string{"s1", "s2"} {
		if got := st.Nodes[name].Engine.BytesCopied; got != 0 {
			t.Errorf("node %s copied %d bytes — hops must be owned-buffer hand-offs", name, got)
		}
	}
}

// TestEngineFabricParityDrops: frames of a tenant with no module
// loaded drop at the first node in the reference and the engine
// fabric, with matching counts.
func TestEngineFabricParityDrops(t *testing.T) {
	const frames = 120
	spec := chainSpec(2, parityVIP, 1)
	traffic := parityTraffic(frames, 1, 7) // tenant 7 is never loaded

	ref, refDrops := collectRef(t, spec.buildRef(t), "s0", 0, traffic)
	if refDrops["s0"] == 0 {
		t.Fatal("setup: reference walk dropped nothing at s0")
	}

	ef, sink := spec.buildEngine(t, NodeConfig{Workers: 1})
	if _, err := ef.InjectBatch("s0", 0, traffic); err != nil {
		t.Fatal(err)
	}
	ef.Drain()
	st := ef.Stats()
	defer ef.Close()

	compareHosts(t, ref, sink)
	if got := st.Nodes["s0"].Engine.Tenants[7].PipelineDrops; got != uint64(refDrops["s0"]) {
		t.Errorf("engine dropped %d unknown-tenant frames at s0, reference dropped %d", got, refDrops["s0"])
	}
}

// TestEngineFabricParityMulticast: a multicast group fanning out to a
// local host port and a link must deliver the same frames at the same
// hosts as the reference — the replication copy is the only copy a hop
// may cost.
func TestEngineFabricParityMulticast(t *testing.T) {
	const frames = 200
	groupVIP := packet.IPv4Addr{224, 0, 0, 9}
	s := newSpec()
	sys0 := s.node("s0")
	sys0.AddRoute(1, groupVIP, 200)
	sys0.AddMulticastGroup(200, []uint8{3, 1}) // host port 3 + link port 1
	sys1 := s.node("s1")
	sys1.AddRoute(1, groupVIP, 5)
	s.loads["s0"] = []uint16{1}
	s.loads["s1"] = []uint16{1}
	s.link("s0", 1, "s1", 0)

	sc := trafficgen.FabricScenario(7, groupVIP, 0, 4, 1)
	traffic := sc.NextBatch(nil, frames)

	ref, _ := collectRef(t, s.buildRef(t), "s0", 0, traffic)

	ef, sink := s.buildEngine(t, NodeConfig{Workers: 1})
	if _, err := ef.InjectBatch("s0", 0, traffic); err != nil {
		t.Fatal(err)
	}
	ef.Drain()
	st := ef.Stats()
	defer ef.Close()

	compareHosts(t, ref, sink)
	if st.Delivered != 2*frames {
		t.Errorf("Delivered = %d, want %d (one local + one remote copy per frame)", st.Delivered, 2*frames)
	}
}

// TestEngineFabricLoopTTL: a cyclic route the §3.4 check refuses (see
// TestRoutingLoopDetectedByControlPlane) must, when loaded anyway,
// surface on the engine path as counted TTL drops — Drain terminates
// (no hang) and no frame is silently lost — where the reference walk
// reports the loop.
func TestEngineFabricLoopTTL(t *testing.T) {
	const frames = 64
	s := newSpec()
	s.node("s0").AddRoute(1, parityVIP, 1)
	s.node("s1").AddRoute(1, parityVIP, 1)
	s.loads["s0"] = []uint16{1}
	s.loads["s1"] = []uint16{1}
	s.link("s0", 1, "s1", 0)
	s.link("s1", 1, "s0", 0)

	err := s.buildRef(t).walk("s0", 0, parityTraffic(1, 1)[0], map[string][][]byte{}, map[string]int{})
	if !errors.Is(err, errRefTTL) {
		t.Fatalf("reference walk: err = %v, want errRefTTL", err)
	}

	// The engine fabric must neither hang nor lose frames silently.
	ef, sink := s.buildEngine(t, NodeConfig{Workers: 1})
	traffic := parityTraffic(frames, 1)
	if acc, err := ef.InjectBatch("s0", 0, traffic); err != nil || acc != frames {
		t.Fatalf("inject: acc=%d err=%v", acc, err)
	}
	ef.Drain()
	st := ef.Stats()
	if err := ef.Close(); err != nil {
		t.Fatal(err)
	}
	if st.TTLDropped != frames {
		t.Errorf("TTLDropped = %d, want %d", st.TTLDropped, frames)
	}
	if st.Delivered != 0 || sink.count != 0 {
		t.Errorf("loop delivered %d frames (sink %d), want 0", st.Delivered, sink.count)
	}
	// Each frame crosses MaxHops-1 links before the bound fires.
	if want := uint64(frames * (MaxHops - 1)); st.Forwarded != want {
		t.Errorf("Forwarded = %d, want %d", st.Forwarded, want)
	}
}

// TestEngineFabricBackpressureNeverBlocks: with the downstream node's
// worker held in its host delivery and its ring bounded, the upstream
// node must stay fully drainable — inter-node hand-offs shed load
// (drop-and-count) instead of blocking inside the upstream worker's
// egress stage.
func TestEngineFabricBackpressureNeverBlocks(t *testing.T) {
	const frames = 512
	const depth = 64
	spec := chainSpec(2, parityVIP, 1)
	// s1, the chain's last node, is the only one that delivers to the
	// host: its worker waits in its first delivery until open closes.
	entered, open := make(chan struct{}), make(chan struct{})
	var once sync.Once
	// Blocking entry (DropOnFull unset): the edge never sheds, so every
	// drop in this test is a cross-node hand-off shed at s1's full ring.
	ef := spec.buildEngineWith(t, NodeConfig{Workers: 1, QueueDepth: depth}, func(Delivery) {
		once.Do(func() { close(entered) })
		<-open
	})
	defer ef.Close()
	release := sync.OnceFunc(func() { close(open) })
	defer release() // before Close: a held worker never exits

	traffic := parityTraffic(frames, 1)
	if _, err := ef.InjectBatch("s0", 0, traffic[:1]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("s1 never delivered the primer frame")
	}
	if _, err := ef.InjectBatch("s0", 0, traffic[1:]); err != nil {
		t.Fatal(err)
	}
	// Upstream alone must drain: if a hand-off could block on s1's full
	// ring, this would deadlock (and the test would time out).
	s0, _ := ef.Node("s0")
	s0.Eng.Drain()

	st := ef.Stats()
	ns0 := st.Nodes["s0"]
	if ns0.LinkDropped == 0 {
		t.Error("expected link drops while the downstream worker is held")
	}
	if got := ns0.Forwarded + ns0.LinkDropped; got != frames {
		t.Errorf("forwarded %d + link-dropped %d = %d, want %d (conservation)",
			ns0.Forwarded, ns0.LinkDropped, got, frames)
	}

	// Release s1: its queued frames flow, the fabric drains completely.
	release()
	ef.Drain()
	st = ef.Stats()
	if want := st.Nodes["s0"].Forwarded; st.Delivered != want {
		t.Errorf("Delivered = %d, want %d (every accepted hand-off reaches the host)", st.Delivered, want)
	}
}

// TestEngineFabricConcurrentInjection drives multiple producers into
// both ends of a bidirectional chain at once (the -race scenario):
// conservation must hold exactly across all nodes.
func TestEngineFabricConcurrentInjection(t *testing.T) {
	const producers = 4
	const perProducer = 400
	vipA := packet.IPv4Addr{10, 9, 9, 9}
	vipB := packet.IPv4Addr{10, 8, 8, 8}
	s := newSpec()
	// s0 <-> s1: vipA flows s0->s1, vipB flows s1->s0.
	s.node("s0").AddRoute(1, vipA, 1)
	s.node("s0").AddRoute(1, vipB, 2) // host at s0
	s.node("s1").AddRoute(1, vipA, 2) // host at s1
	s.node("s1").AddRoute(1, vipB, 1)
	s.loads["s0"] = []uint16{1}
	s.loads["s1"] = []uint16{1}
	s.link("s0", 1, "s1", 0)
	s.link("s1", 1, "s0", 0)

	ef, sink := s.buildEngine(t, NodeConfig{Workers: 2, BatchSize: 8})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			vip, entry := vipA, "s0"
			if p%2 == 1 {
				vip, entry = vipB, "s1"
			}
			sc := trafficgen.FabricScenario(uint64(p+1), vip, 0, 8, 1)
			var batch [][]byte
			for sent := 0; sent < perProducer; sent += len(batch) {
				batch = sc.NextBatch(batch[:0], min(32, perProducer-sent))
				if _, err := ef.InjectBatch(entry, 0, batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	ef.Drain()
	st := ef.Stats()
	if err := ef.Close(); err != nil {
		t.Fatal(err)
	}
	want := uint64(producers * perProducer)
	if st.Delivered != want || sink.count != want {
		t.Errorf("Delivered = %d (sink %d), want %d", st.Delivered, sink.count, want)
	}
	if st.Forwarded != want {
		t.Errorf("Forwarded = %d, want %d (one crossing per frame)", st.Forwarded, want)
	}
}

// TestEngineFabricTopologyFrozen: mutating a started fabric fails.
func TestEngineFabricTopologyFrozen(t *testing.T) {
	spec := chainSpec(2, parityVIP, 1)
	ef, _ := spec.buildEngine(t, NodeConfig{Workers: 1})
	defer ef.Close()
	if _, err := ef.AddNode("s9", sysmod.NewConfig(), NodeConfig{}); !errors.Is(err, ErrStarted) {
		t.Errorf("AddNode after Start: %v", err)
	}
	if err := ef.Link("s0", 9, "s1", 9); !errors.Is(err, ErrStarted) {
		t.Errorf("Link after Start: %v", err)
	}
	if err := ef.Start(); !errors.Is(err, ErrStarted) {
		t.Errorf("second Start: %v", err)
	}
}

// TestEngineFabricRejectsFabricOwnedFields: forwarding, tracing and the
// shared pool are the fabric's; a node config that brings its own is
// refused rather than overwritten.
func TestEngineFabricRejectsFabricOwnedFields(t *testing.T) {
	ef := NewEngineFabric(nil)
	for name, cfg := range map[string]NodeConfig{
		"OnBatch": {OnBatch: func(int, uint16, []core.BatchResult) {}},
		"OnTrace": {OnTrace: func(engine.TraceHop) {}},
		"Pool":    {Pool: engine.NewPool()},
	} {
		if _, err := ef.AddNode(name, sysmod.NewConfig(), cfg); err == nil {
			t.Errorf("AddNode accepted a config that sets %s", name)
		}
	}
}
