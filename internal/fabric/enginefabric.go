// EngineFabric: the multi-device fabric on the concurrent engine. One
// engine.Engine per node, inter-node links as asynchronous owned-buffer
// hand-offs — a hop is a pointer move through engine.ForwardBatch, with
// the frame's hop count carried out-of-band in BatchResult.Meta, never
// in the frame bytes. Backpressure between nodes is drop-and-count: a
// downstream node's full ring sheds load instead of blocking the
// upstream worker that forwarded to it, so even a cyclic (misrouted)
// fabric cannot deadlock — its frames burn down against the TTL bound
// and surface as counted drops.
package fabric

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/sysmod"
)

// Errors returned by topology calls.
var (
	// ErrUnknownDevice names a node that was never added.
	ErrUnknownDevice = errors.New("fabric: unknown device")
	// ErrStarted is returned by topology mutations after Start.
	ErrStarted = errors.New("fabric: already started")
)

// MaxHops bounds a frame's walk through the fabric: a frame still in
// flight after MaxHops devices is dropped and counted (TTLDropped).
const MaxHops = 16

// Delivery is one frame arriving at a terminal (host-facing) port.
type Delivery struct {
	// Device and Port locate the host-facing port the frame left on.
	Device string
	// Port is the terminal egress port.
	Port uint8
	// Tenant is the frame's module (VLAN) ID.
	Tenant uint16
	// Frame is the delivered frame, valid only for the duration of the
	// Deliver callback (the engine reclaims the buffer afterwards) —
	// copy anything retained.
	Frame []byte
	// Hops counts inter-device link crossings the frame made.
	Hops int
}

// NodeConfig configures one engine-backed fabric node: the engine's own
// Config, zero values taking the engine defaults. Each entry of Modules
// must already be augmented with the node's system-module configuration
// (sysmod.Config.Augment) so the node's virtual-IP routes are installed.
// DropOnFull governs entry injection (InjectBatch) only — inter-node
// hand-offs always tail-drop. TraceEvery samples frames *injected* at
// this node; the mark rides every hand-off, so set it on entry nodes.
// The fabric owns three fields — OnBatch forwards, OnTrace feeds
// EngineFabric.Trace, Pool is the fabric-wide shared pool — and AddNode
// rejects a config that sets one.
type NodeConfig = engine.Config

// metaHopMask masks the hop count out of a frame's out-of-band meta
// word. The bits above it — engine.TraceBit — ride every hand-off
// unchanged, so a frame sampled at its entry node stays sampled across
// the fabric.
const metaHopMask uint64 = 0xff

// EngineNode is one running engine in an EngineFabric.
type EngineNode struct {
	// Name identifies the node in links, stats, and deliveries.
	Name string
	// Sys is the node's system-module configuration.
	Sys *sysmod.Config
	// Eng is the node's engine. It is nil until EngineFabric.Start and
	// remains owned by the fabric (close the fabric, not the engine);
	// use it for per-node live reconfiguration (LoadModuleVerified,
	// SetEgressWeight) — control planes stay per node, and
	// EngineFabric.QuiesceCtx is the fabric-wide barrier over all of them.
	Eng *engine.Engine

	cfg NodeConfig
	fab *EngineFabric
	tm  *sysmod.TrafficManager

	// link is the node's resolved egress table: link[port] is the
	// downstream node (nil for host-terminal ports). Indexed by the
	// pipeline-chosen egress port for O(1) classification in OnBatch.
	link        [256]*EngineNode
	linkIngress [256]uint8

	// scratch is per-worker forwarding state; OnBatch runs on the
	// node's worker goroutines concurrently, one scratch each.
	scratch []fwdScratch

	// fault holds the per-link injectors installed by FaultLink,
	// indexed like link by egress port; faultPorts lists the faulted
	// ports for Stats and drain-time flushes. Both are frozen at Start
	// and read lock-free from worker goroutines.
	fault      [256]*faultinject.Injector
	faultPorts []uint8

	forwarded    atomic.Uint64 // frames accepted by a downstream ring
	linkDropped  atomic.Uint64 // frames shed at a full downstream ring
	ttlDropped   atomic.Uint64 // frames dropped at the MaxHops bound
	delivered    atomic.Uint64 // frames handed to the Deliver sink
	faultDropped atomic.Uint64 // frames consumed by link fault injectors
	fwdRejected  atomic.Uint64 // ForwardBatch calls refused whole (downstream closed)
}

// fwdScratch accumulates one worker's cross-node hand-offs for a batch
// so each downstream engine's submit path is entered once per (link,
// batch) rather than once per frame. Slices are reused across batches;
// steady state allocates nothing.
type fwdScratch struct {
	runs []fwdRun
}

// fwdRun is the accumulated hand-off for one directed link. fault is
// the link's injector (nil on healthy links); it keys the run along
// with (to, ingress) so two egress ports sharing a destination but not
// a fault plan never merge.
type fwdRun struct {
	to      *EngineNode
	ingress uint8
	fault   *faultinject.Injector
	bufs    [][]byte
	metas   []uint64
}

// EngineFabric is the device graph over running engines: build it with
// AddNode/Link, freeze the topology with Start, feed it with
// InjectBatch, and stop it with Close. Deliveries at host-terminal
// ports surface through the Deliver callback; telemetry through Stats.
type EngineFabric struct {
	// Deliver receives every frame that reaches a host-terminal port.
	// It is called from node worker goroutines concurrently and must be
	// safe for that; d.Frame is valid only for the duration of the call
	// (the owning engine reclaims the buffer afterwards). Nil discards
	// deliveries (they are still counted).
	Deliver func(d Delivery)

	// Trace, when set before Start, receives every sampled frame's
	// per-node hop records (see NodeConfig.TraceEvery): each engine a
	// marked frame traverses reports one TraceHop, tagged here with the
	// node's name. Called from node worker goroutines concurrently —
	// an obs.Tracer ring is the intended sink. Nil disables recording
	// (sampling marks still ride the meta word).
	Trace func(node string, h engine.TraceHop)

	mu      sync.Mutex
	nodes   map[string]*EngineNode
	order   []*EngineNode // creation order, for deterministic iteration
	topo    topology
	pool    *engine.Pool
	started bool
	closed  bool

	// activity counts every OnBatch invocation fabric-wide; Drain uses
	// it to detect that a full pass over the nodes moved no frames.
	activity atomic.Uint64
}

// NewEngineFabric returns an empty engine-backed fabric whose
// host-terminal deliveries go to the given sink (nil: count-only). All
// nodes share one buffer pool, so cross-node hand-offs recirculate
// buffers instead of leaking them from one node's pool into another's.
func NewEngineFabric(deliver func(d Delivery)) *EngineFabric {
	return &EngineFabric{
		Deliver: deliver,
		nodes:   make(map[string]*EngineNode),
		topo:    newTopology(),
		pool:    engine.NewPool(),
	}
}

// AddNode registers an engine-backed device. The engine itself is not
// created until Start, so links may still be added.
func (f *EngineFabric) AddNode(name string, sys *sysmod.Config, cfg NodeConfig) (*EngineNode, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.started {
		return nil, ErrStarted
	}
	if _, dup := f.nodes[name]; dup {
		return nil, fmt.Errorf("fabric: duplicate node %q", name)
	}
	if cfg.OnBatch != nil || cfg.OnTrace != nil || cfg.Pool != nil {
		return nil, fmt.Errorf("fabric: node %q: NodeConfig.OnBatch, OnTrace and Pool are set by the fabric", name)
	}
	n := &EngineNode{
		Name: name,
		Sys:  sys,
		cfg:  cfg,
		fab:  f,
		tm:   sysmod.NewTrafficManager(sys),
	}
	f.nodes[name] = n
	f.order = append(f.order, n)
	return n, nil
}

// Link connects (from, egress) to (to, ingress). Links are directed;
// add both directions for a full-duplex cable. The topology is frozen
// at Start.
func (f *EngineFabric) Link(from string, egress uint8, to string, ingress uint8) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.started {
		return ErrStarted
	}
	for _, name := range []string{from, to} {
		if _, ok := f.nodes[name]; !ok {
			return fmt.Errorf("%w: %q", ErrUnknownDevice, name)
		}
	}
	f.topo.addLink(from, egress, to, ingress)
	return nil
}

// FaultLink installs a deterministic fault plan on the directed link
// (from, egress): every frame handed across the link draws its fate
// from the plan — dropped, corrupted (one flipped bit, so the
// downstream packet filter sees real damage), delayed to a later
// flush, or reordered within its batch. The injection point is the
// hand-off boundary, after the upstream pipeline and before the
// downstream ring — exactly where a faulty cable would sit. The link
// must already exist; install before Start (the injector array is read
// lock-free by worker goroutines afterwards). The returned injector
// exposes its running Counts for conservation assertions.
func (f *EngineFabric) FaultLink(from string, egress uint8, plan faultinject.Plan) (*faultinject.Injector, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.started {
		return nil, ErrStarted
	}
	n, ok := f.nodes[from]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDevice, from)
	}
	if _, ok := f.topo.next(from, egress); !ok {
		return nil, fmt.Errorf("fabric: no link at %s egress %d", from, egress)
	}
	if n.fault[egress] == nil {
		n.faultPorts = append(n.faultPorts, egress)
	}
	inj := faultinject.New(plan)
	n.fault[egress] = inj
	return inj, nil
}

// Node returns a registered node.
func (f *EngineFabric) Node(name string) (*EngineNode, error) {
	n, ok := f.nodes[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDevice, name)
	}
	return n, nil
}

// ModuleRouteGraph collects a module's inter-device forwarding graph
// from the nodes' system-module routes and the fabric's links, the
// input to checker.CheckLoopFree (§3.4). Run the check before Start: a
// loop it would have refused degrades, at runtime, into TTL-counted
// drops.
func (f *EngineFabric) ModuleRouteGraph(moduleID uint16) []checker.Hop {
	var hops []checker.Hop
	for _, n := range f.order {
		for _, r := range n.Sys.Routes[moduleID] {
			// An unlinked port delivers locally: the chain ends there.
			if ep, linked := f.topo.next(n.Name, r.Port); linked {
				hops = append(hops, checker.Hop{Dev: n.Name, VIP: r.VIP.Uint32(), Next: ep.device})
			}
		}
	}
	return hops
}

// Start freezes the topology, resolves every node's link table, and
// brings up one engine per node (all sharing the fabric's buffer
// pool). After Start the fabric accepts traffic.
func (f *EngineFabric) Start() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.started {
		return ErrStarted
	}
	// Resolve link tables first: a node's OnBatch may fire as soon as
	// its engine exists, and it reads the table lock-free.
	for _, n := range f.order {
		for port := 0; port < 256; port++ {
			if ep, ok := f.topo.next(n.Name, uint8(port)); ok {
				n.link[port] = f.nodes[ep.device]
				n.linkIngress[port] = ep.ingress
			}
		}
	}
	// Engines come up in creation order. A node's OnBatch forwards into
	// peer engines, so no traffic may enter before Start returns — the
	// InjectBatch is the only door and it is still closed.
	for _, n := range f.order {
		cfg := n.cfg
		cfg.Pool = f.pool
		cfg.OnBatch = n.onBatch
		if f.Trace != nil {
			cfg.OnTrace = func(h engine.TraceHop) { f.Trace(n.Name, h) }
		}
		eng, err := engine.New(cfg)
		if err != nil {
			for _, started := range f.order {
				if started.Eng != nil {
					started.Eng.Close()
				}
			}
			return fmt.Errorf("fabric: node %s: %w", n.Name, err)
		}
		n.Eng = eng
		n.scratch = make([]fwdScratch, eng.Workers())
	}
	f.started = true
	return nil
}

// onBatch classifies one processed batch by egress port: linked ports
// re-submit into the downstream engine (owned hand-off, batched per
// link), host-terminal ports deliver to the fabric sink. It runs on
// the node's worker goroutines and never blocks: downstream rejection
// is counted, not waited out.
func (n *EngineNode) onBatch(wid int, tenant uint16, res []core.BatchResult) {
	f := n.fab
	sc := &n.scratch[wid]
	for i := range res {
		r := &res[i]
		if r.Dropped {
			continue
		}
		if members := n.tm.Members(r.EgressPort); members != nil {
			n.replicate(sc, r, tenant, members, r.Meta)
			continue
		}
		n.classify(sc, r, tenant, r.EgressPort, r.Meta)
	}
	// Flush the accumulated hand-offs, one ForwardBatch per link. A
	// faulted link's batch passes through its injector first: dropped
	// frames go straight back to the shared pool, delayed ones are held
	// for a later flush, and what survives (plus any previously held
	// frames) crosses as usual.
	for ri := range sc.runs {
		run := &sc.runs[ri]
		if len(run.bufs) == 0 {
			continue
		}
		bufs, metas := run.bufs, run.metas
		if run.fault != nil {
			// Count this call's drops where they are released: the
			// injector is shared by the node's workers, so a delta of
			// its Dropped counter would include theirs.
			dropped := uint64(0)
			bufs, metas = run.fault.ApplyBatch(bufs, metas, func(b []byte) {
				dropped++
				n.Eng.Release(b)
			})
			n.faultDropped.Add(dropped)
		}
		acc, err := run.to.Eng.ForwardBatch(bufs, run.ingress, metas)
		// On error (engine closed) acc is 0 and the buffers were
		// reclaimed into the shared pool either way; the shortfall is
		// counted as link drops, and the refusal itself is attributed
		// so a closed downstream is distinguishable from a full ring.
		n.forwarded.Add(uint64(acc))
		n.linkDropped.Add(uint64(len(bufs) - acc))
		if err != nil {
			n.fwdRejected.Add(1)
		}
		// ApplyBatch compacts in place but may grow the backing array
		// when held frames rejoin; keep the grown capacity.
		run.bufs, run.metas = bufs, metas
		clear(run.bufs)
		run.bufs = run.bufs[:0]
		run.metas = run.metas[:0]
	}
	// The activity bump must come AFTER the flush: Drain treats an
	// activity-stable pass as "no frames moved", so a hand-off must be
	// in the downstream ring by the time it becomes visible here — a
	// bump on entry would let a callback that straddles the pass slip
	// frames into an already-drained node unnoticed.
	f.activity.Add(1)
}

// classify routes one forwarded frame out one egress port: across a
// link (taking ownership of the buffer — the hop is a pointer move) or
// to the host sink (lending the buffer for the callback's duration).
// meta is the frame's full out-of-band word: the low byte is the hop
// count, incremented per link; the bits above it (the trace mark) ride
// along unchanged.
func (n *EngineNode) classify(sc *fwdScratch, r *core.BatchResult, tenant uint16, port uint8, meta uint64) {
	hops := int(meta & metaHopMask)
	to := n.link[port]
	if to == nil {
		n.delivered.Add(1)
		if cb := n.fab.Deliver; cb != nil {
			cb(Delivery{Device: n.Name, Port: port, Tenant: tenant, Frame: r.Data, Hops: hops})
		}
		return
	}
	if hops+1 >= MaxHops {
		// The TTL bound: the frame has traversed MaxHops devices, so it
		// is counted and dropped instead of looping forever. The buffer
		// stays with the engine, which reclaims it after the callback.
		n.ttlDropped.Add(1)
		return
	}
	buf := r.Data
	r.Data = nil // ownership-take: the engine must not reclaim it
	sc.add(to, n.linkIngress[port], n.fault[port], buf, meta&^metaHopMask|uint64(hops+1))
}

// replicate fans one frame out to a multicast group's member ports:
// terminal members are delivered first (they only borrow the buffer),
// then the first linked member takes the original buffer and any
// further linked members get pooled copies — replication is the one
// place a fabric hop costs a copy.
func (n *EngineNode) replicate(sc *fwdScratch, r *core.BatchResult, tenant uint16, members []uint8, meta uint64) {
	data := r.Data
	hops := int(meta & metaHopMask)
	for _, port := range members {
		if n.link[port] == nil {
			n.classify(sc, r, tenant, port, meta)
		}
	}
	first := true
	for _, port := range members {
		to := n.link[port]
		if to == nil {
			continue
		}
		if hops+1 >= MaxHops {
			n.ttlDropped.Add(1)
			continue
		}
		buf := data
		if first {
			r.Data = nil // ownership-take of the original
			first = false
		} else {
			buf = to.Eng.Borrow(len(data))
			copy(buf, data)
		}
		sc.add(to, n.linkIngress[port], n.fault[port], buf, meta&^metaHopMask|uint64(hops+1))
	}
}

// add appends one owned buffer to the scratch run for a link, creating
// the run on first use (the only allocation, amortized to zero).
func (sc *fwdScratch) add(to *EngineNode, ingress uint8, fault *faultinject.Injector, buf []byte, meta uint64) {
	for i := range sc.runs {
		run := &sc.runs[i]
		if run.to == to && run.ingress == ingress && run.fault == fault {
			run.bufs = append(run.bufs, buf)
			run.metas = append(run.metas, meta)
			return
		}
	}
	sc.runs = append(sc.runs, fwdRun{
		to:      to,
		ingress: ingress,
		fault:   fault,
		bufs:    [][]byte{buf},
		metas:   []uint64{meta},
	})
}

// InjectBatch pushes a batch of frames into the fabric at (node,
// ingress) and returns how many were accepted. Frames are copied at
// entry (the fabric's one and only copy on a unicast path); with the
// node's DropOnFull unset the call blocks while entry rings are full,
// never dropping at the edge. Reconfiguration frames are NOT diverted
// to any control plane — network ingress is untrusted and each node's
// packet filter drops them on the data path (§3.1).
func (f *EngineFabric) InjectBatch(node string, ingress uint8, frames [][]byte) (int, error) {
	n, err := f.Node(node)
	if err != nil {
		return 0, err
	}
	if n.Eng == nil {
		return 0, fmt.Errorf("fabric: node %q: fabric not started", node)
	}
	return n.Eng.InjectBatch(frames, ingress)
}

// Drain blocks until every frame in the fabric — queued, in a
// pipeline, in an egress scheduler, or in flight between nodes — has
// been processed to delivery or a counted drop. Frames injected
// concurrently with Drain may or may not be covered.
func (f *EngineFabric) Drain() {
	if !f.started {
		return
	}
	for {
		before := f.activity.Load()
		for _, n := range f.order {
			n.Eng.Drain()
		}
		// Frames a link injector is still delaying would otherwise
		// escape the quiescence check (they are in no ring and no
		// pipeline); push them across their links now and, if any
		// moved, run another pass for them.
		if f.flushDelayed() > 0 {
			continue
		}
		// A pass that triggered no OnBatch anywhere moved no frames
		// across links, so every node drained earlier in the pass is
		// still empty: the fabric is quiescent. The TTL bound caps how
		// many passes a frame can force.
		if f.activity.Load() == before {
			return
		}
	}
}

// flushDelayed forwards every frame still held by a link fault
// injector to its downstream node, returning how many frames moved.
// Held frames have already drawn their fate (delay) — they are not
// re-judged on the way out.
func (f *EngineFabric) flushDelayed() int {
	moved := 0
	for _, n := range f.order {
		for _, port := range n.faultPorts {
			bufs, metas := n.fault[port].TakeHeld()
			if len(bufs) == 0 {
				continue
			}
			to := n.link[port]
			acc, err := to.Eng.ForwardBatch(bufs, n.linkIngress[port], metas)
			n.forwarded.Add(uint64(acc))
			n.linkDropped.Add(uint64(len(bufs) - acc))
			if err != nil {
				n.fwdRejected.Add(1)
			}
			moved += len(bufs)
		}
	}
	return moved
}

// QuiesceCtx waits until every node's engine has applied every control
// operation issued so far — the fabric-wide reconfiguration barrier —
// bounded by ctx: it stops early with the context's error once ctx is
// done, or with an engine.ErrDegraded-wrapped error when some node's
// stall watchdog has flagged a shard the barrier would wait on forever. The error names the blocking
// node; operations already issued still apply if the shard recovers.
func (f *EngineFabric) QuiesceCtx(ctx context.Context) error {
	for _, n := range f.order {
		if err := n.Eng.QuiesceCtx(ctx); err != nil {
			return fmt.Errorf("fabric: node %s: %w", n.Name, err)
		}
	}
	return nil
}

// Close drains the fabric and stops every node's engine. It is
// idempotent; concurrent injections race it (they lose, with ErrClosed
// or counted drops).
func (f *EngineFabric) Close() error {
	f.mu.Lock()
	if f.closed || !f.started {
		f.mu.Unlock()
		return engine.ErrClosed
	}
	f.closed = true
	f.mu.Unlock()
	f.Drain()
	var first error
	for _, n := range f.order {
		if err := n.Eng.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NodeStats is one node's slice of FabricStats.
type NodeStats struct {
	// Engine is the node's full engine telemetry snapshot.
	Engine engine.Stats
	// Forwarded counts frames this node handed to downstream rings.
	Forwarded uint64
	// LinkDropped counts frames shed because a downstream ring was
	// full (or the downstream engine closed) — the never-block
	// backpressure policy made visible. The receiver also counts each
	// as RateLimited or QueueFull; Accounted counts it once, here.
	LinkDropped uint64
	// TTLDropped counts frames dropped at the MaxHops bound.
	TTLDropped uint64
	// Delivered counts frames that reached this node's host-terminal
	// ports.
	Delivered uint64
	// FaultDropped counts frames consumed by this node's link fault
	// injectors (FaultLink) — chaos-induced loss, kept separate from
	// the backpressure counter so conservation still balances under
	// injection.
	FaultDropped uint64
	// ForwardRejected counts ForwardBatch calls a downstream engine
	// refused outright (ErrClosed): the frames are already in
	// LinkDropped, this attributes WHY — a closed engine during
	// shutdown, not a full ring.
	ForwardRejected uint64
	// LinkFaults tallies each faulted egress port's injector: what it
	// saw, dropped, corrupted, delayed, and reordered. Only ports with
	// a FaultLink plan appear; nil when the node has none.
	LinkFaults map[uint8]faultinject.Counts
}

// FabricStats aggregates the whole fabric's telemetry.
type FabricStats struct {
	// Nodes maps node name to its per-node stats.
	Nodes map[string]NodeStats
	// Forwarded, LinkDropped, TTLDropped, Delivered, and FaultDropped
	// sum the per-node counters of the same names.
	Forwarded, LinkDropped, TTLDropped, Delivered, FaultDropped uint64
}

// Accounted sums the fabric's fates once: deliveries, fault, link and
// TTL drops, plus every node's pipeline_drop and egress_drop tenant
// fates. After Drain it equals the frames the fabric accepted (a
// multicast replica counts as a frame of its own). A refused hand-off
// is LinkDropped at the sender and also RateLimited or QueueFull at the
// receiver; the ledger counts it once, as LinkDropped.
func (s FabricStats) Accounted() uint64 {
	total := s.Delivered + s.FaultDropped + s.LinkDropped + s.TTLDropped
	for _, ns := range s.Nodes {
		t := ns.Engine.Totals()
		total += t.PipelineDrops + t.EgressDropped
	}
	return total
}

// Stats snapshots every node's engine telemetry plus the fabric's
// cross-node counters.
func (f *EngineFabric) Stats() FabricStats {
	st := FabricStats{Nodes: make(map[string]NodeStats, len(f.order))}
	for _, n := range f.order {
		ns := NodeStats{
			Forwarded:       n.forwarded.Load(),
			LinkDropped:     n.linkDropped.Load(),
			TTLDropped:      n.ttlDropped.Load(),
			Delivered:       n.delivered.Load(),
			FaultDropped:    n.faultDropped.Load(),
			ForwardRejected: n.fwdRejected.Load(),
		}
		if len(n.faultPorts) > 0 {
			ns.LinkFaults = make(map[uint8]faultinject.Counts, len(n.faultPorts))
			for _, port := range n.faultPorts {
				ns.LinkFaults[port] = n.fault[port].Counts()
			}
		}
		if n.Eng != nil {
			ns.Engine = n.Eng.Stats()
		}
		st.Nodes[n.Name] = ns
		st.Forwarded += ns.Forwarded
		st.LinkDropped += ns.LinkDropped
		st.TTLDropped += ns.TTLDropped
		st.Delivered += ns.Delivered
		st.FaultDropped += ns.FaultDropped
	}
	return st
}
