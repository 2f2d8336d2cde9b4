// Command menshen-serve runs the concurrent batched dataplane engine:
// it loads built-in modules onto a device, replays a generated
// multi-tenant workload through the engine's worker shards, and prints
// a throughput/latency report — the software stand-in for offering
// line-rate traffic to the hardware prototype.
//
// Usage:
//
//	menshen-serve                                  # CALC+Firewall+NetCache, 4 workers
//	menshen-serve -modules CALC,NetCache -workers 8 -batch 64 -packets 2000000
//	menshen-serve -rate-pps 500000                 # police each tenant at 500 kpps
//	menshen-serve -live-reconfig 8                 # reload the last tenant 8x mid-run
//	menshen-serve -fabric 3                        # 3-node engine fabric (chain)
//	menshen-serve -fabric 3 -fabric-ring           # cyclic topology: counted TTL drops
//	menshen-serve -chaos -packets 200000           # self-checking fault-injection harness
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	menshen "repro"
	"repro/internal/checker"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/ingress"
	"repro/internal/obs"
	"repro/internal/p4progs"
	"repro/internal/packet"
	"repro/internal/sysmod"
	"repro/internal/trafficgen"
)

// multiFlag is a repeatable string flag (-listen-udp may bind several
// sockets).
type multiFlag []string

// String renders the accumulated values.
func (m *multiFlag) String() string { return strings.Join(*m, ",") }

// Set appends one occurrence.
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	modules := flag.String("modules", "CALC,Firewall,NetCache", "comma-separated Table 3 program names, one tenant each")
	workers := flag.Int("workers", 4, "engine worker shards")
	batch := flag.Int("batch", 32, "frames per pipeline batch")
	queue := flag.Int("queue", 4096, "per-tenant per-worker ring depth")
	packets := flag.Int("packets", 1_000_000, "total frames to generate across tenants")
	size := flag.Int("size", 0, "frame size in bytes (0 = minimal per program)")
	flows := flag.Int("flows", 16, "flows per tenant (spread across shards)")
	platform := flag.String("platform", "corundum", "platform: corundum, corundum-unopt, netfpga")
	ratePPS := flag.Float64("rate-pps", 0, "per-tenant packet rate limit (0 = unlimited)")
	rateBPS := flag.Float64("rate-bps", 0, "per-tenant bit rate limit (0 = unlimited)")
	drop := flag.Bool("drop", false, "tail-drop at full rings instead of blocking the generator")
	seed := flag.Uint64("seed", 42, "workload PRNG seed")
	liveReconfig := flag.Int("live-reconfig", 0,
		"live unload+reload the last tenant this many times mid-run, while other tenants keep flowing")
	progress := flag.Int("progress", 0, "print a progress line every N submitted frames (0 = off)")
	egressWeights := flag.String("egress-weights", "",
		"comma-separated egress WFQ weights, one per -modules entry (e.g. 3,1,1): enables §3.5 egress scheduling and runs the equal-offered-load contention scenario")
	egressQueue := flag.Int("egress-queue", 128, "per-worker egress PIFO bound in frames (push-out)")
	egressQuantum := flag.Int("egress-quantum", 8, "frames delivered per worker service cycle (the modeled TX link)")
	egressQuantumBytes := flag.Int("egress-quantum-bytes", 0,
		"bytes delivered per worker service cycle (0 = frame-denominated only); models the TX link in bytes so mixed frame sizes share fairly by bytes")
	fabricNodes := flag.Int("fabric", 0,
		"run an engine-backed fabric of this many nodes (chain topology) instead of a single engine; each node runs its own engine and inter-node links are owned-buffer hand-offs. -modules is ignored: fabric tenants run passthrough modules routed by the system module's per-tenant virtual IPs")
	fabricTenants := flag.Int("fabric-tenants", 3, "tenants to load on every fabric node")
	fabricRing := flag.Bool("fabric-ring", false,
		"close the fabric chain into a ring with a looping route: the §3.4 check refuses it, and the run demonstrates the TTL bound converting the loop into counted drops")
	mgmtAddr := flag.String("mgmt-addr", "",
		"mount the management HTTP API (GET /metrics, /stats, /traces, /debug/pprof/*; POST /control/*) on this address (e.g. :9090; empty = off)")
	mgmtLinger := flag.Duration("mgmt-linger", 0,
		"keep the engine and management API alive this long after the traffic run, so scrapes and control mutations can land against a live dataplane")
	traceEvery := flag.Int("trace-every", 0,
		"sample every Nth submitted frame into the trace ring (GET /traces); 0 = off")
	chaosMode := flag.Bool("chaos", false,
		"run the self-checking chaos harness: a 3-node fabric with a noisy link, a flapping link, and seeded control-plane command loss, under scheduled weight churn and live verified reloads; exits non-zero if conservation, replica parity, or liveness is violated")
	chaosLoss := flag.Float64("chaos-loss", 0.05,
		"per-command loss probability injected into the middle node's reconfig delivery (-chaos only)")
	chaosEvents := flag.Int("chaos-events", 12,
		"scheduled control-plane events — alternating egress-weight churn and verified reloads (-chaos only)")
	var listenUDP, listenTCP, listenUnix multiFlag
	flag.Var(&listenUDP, "listen-udp",
		"bind a UDP ingress listener on this address (e.g. 127.0.0.1:0); repeatable. In -fabric mode use node=addr (bare addr binds on the entry node s0). Combine with -packets 0 and -mgmt-linger to run as a pure serving daemon")
	flag.Var(&listenTCP, "listen-tcp",
		"bind a TCP ingress listener (length-prefixed stream framing) on this address; repeatable, node=addr in -fabric mode")
	flag.Var(&listenUnix, "listen-unix",
		"bind a Unix-datagram ingress listener at this socket path; repeatable, node=path in -fabric mode")
	flag.Parse()

	if *chaosMode {
		runChaos(chaosRun{
			tenants: *fabricTenants,
			workers: *workers,
			batch:   *batch,
			queue:   *queue,
			packets: *packets,
			size:    *size,
			flows:   *flows,
			seed:    *seed,
			loss:    *chaosLoss,
			events:  *chaosEvents,
		})
		return
	}

	if *fabricNodes > 0 {
		runFabric(fabricRun{
			nodes:      *fabricNodes,
			tenants:    *fabricTenants,
			ring:       *fabricRing,
			workers:    *workers,
			batch:      *batch,
			queue:      *queue,
			packets:    *packets,
			size:       *size,
			flows:      *flows,
			seed:       *seed,
			drop:       *drop,
			mgmtAddr:   *mgmtAddr,
			mgmtLinger: *mgmtLinger,
			traceEvery: *traceEvery,
			udp:        listenUDP,
			tcp:        listenTCP,
			unix:       listenUnix,
		})
		return
	}

	var kind menshen.PlatformKind
	switch *platform {
	case "corundum":
		kind = menshen.PlatformCorundumOptimized
	case "corundum-unopt":
		kind = menshen.PlatformCorundumUnoptimized
	case "netfpga":
		kind = menshen.PlatformNetFPGA
	default:
		fatal(fmt.Errorf("unknown platform %q", *platform))
	}

	dev := menshen.NewDevice(menshen.WithPlatform(kind))
	fmt.Println("device:", dev.Platform())

	names := strings.Split(*modules, ",")
	loads := make([]trafficgen.TenantLoad, 0, len(names))
	sources := make([]string, 0, len(names))
	for i, name := range names {
		name = strings.TrimSpace(name)
		p, err := p4progs.ByName(name)
		if err != nil {
			fatal(err)
		}
		id := uint16(i + 1)
		rep, err := dev.LoadModule(p.Source(), id)
		if err != nil {
			fatal(fmt.Errorf("load %s: %w", p.Name, err))
		}
		fmt.Printf("loaded %-16s as tenant %2d (%3d commands, compile %v)\n",
			p.Name, id, rep.Commands, rep.CompileWall.Round(time.Microsecond))
		loads = append(loads, trafficgen.TenantLoad{
			ModuleID:   id,
			Program:    name,
			FrameBytes: *size,
			Flows:      *flows,
		})
		sources = append(sources, p.Source())
	}

	// -egress-weights turns on the §3.5 contention scenario: every
	// tenant offers the same saturating load, the per-worker egress
	// scheduler arbitrates a TX link of -egress-quantum frames per
	// service cycle, and the delivered shares should land on the
	// configured weights rather than on the (equal) offered load.
	weightByID := map[uint16]float64{}
	if *egressWeights != "" {
		parts := strings.Split(*egressWeights, ",")
		if len(parts) != len(loads) {
			fatal(fmt.Errorf("-egress-weights has %d entries for %d modules", len(parts), len(loads)))
		}
		for i, p := range parts {
			w, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil || w <= 0 {
				fatal(fmt.Errorf("bad egress weight %q", p))
			}
			weightByID[loads[i].ModuleID] = w
		}
	}

	var tracer *obs.Tracer
	engCfg := menshen.EngineConfig{
		Workers:            *workers,
		BatchSize:          *batch,
		QueueDepth:         *queue,
		DropOnFull:         *drop,
		EgressWeights:      weightByID,
		EgressQueueLimit:   *egressQueue,
		EgressQuantum:      *egressQuantum,
		EgressQuantumBytes: *egressQuantumBytes,
	}
	if *traceEvery > 0 {
		tracer = obs.NewTracer(4096)
		engCfg.TraceEvery = *traceEvery
		engCfg.OnTrace = tracer.Hook("")
	}
	eng, err := dev.NewEngine(engCfg)
	if err != nil {
		fatal(err)
	}
	var mgmtLn net.Listener
	if *mgmtAddr != "" {
		srv := obs.NewServer(tracer, obs.Ops{
			LoadModule: func(source string, id uint16) (uint64, error) {
				_, gen, err := eng.LoadModule(source, id)
				return gen, err
			},
			UnloadModule:    eng.UnloadModule,
			SetEgressWeight: eng.SetEgressWeight,
			SetTenantLimit: func(tenant uint16, pps, bps float64) (uint64, error) {
				eng.SetTenantLimit(tenant, pps, bps)
				return eng.ReconfigGen(), nil
			},
			// Only the Ctx-capable closure is wired: the obs server
			// prefers it, and the bare variant would hand an HTTP
			// handler an unbounded wait (ctxquiesce enforces this).
			AwaitQuiesceCtx: eng.AwaitQuiesceCtx,
		}, obs.Source{StatsInto: eng.StatsInto})
		mgmtLn = startMgmt(*mgmtAddr, srv)
	}
	if *ratePPS > 0 || *rateBPS > 0 {
		for _, l := range loads {
			eng.SetTenantLimit(l.ModuleID, *ratePPS, *rateBPS)
		}
	}

	fmt.Printf("engine: %d workers, batch %d, queue %d\n", eng.Workers(), *batch, *queue)

	// Socket ingress: every -listen-* flag becomes a Source feeding this
	// engine through the borrowed-buffer path, alongside (or instead of)
	// the in-process generator below.
	var ing *ingress.Listeners
	if len(listenUDP)+len(listenTCP)+len(listenUnix) > 0 {
		byNode, err := buildIngress(listenUDP, listenTCP, listenUnix, "")
		if err != nil {
			fatal(err)
		}
		ing = byNode[""]
		for _, src := range ing.Sources() {
			fmt.Printf("ingress: %s listening on %s\n", src.Transport(), src.Addr())
		}
		ing.Start(eng)
		eng.RegisterIngress(ing.Fill)
	}

	// The mid-run reconfiguration scenario: at -live-reconfig evenly
	// spaced points in the stream, unload the last tenant from the
	// running shards and replay its full command stream back in, while
	// every other tenant's traffic keeps flowing. The tenant's own
	// frames submitted during the gap drop as "no module loaded" —
	// reported per tenant below.
	reconfigAt := -1
	if *liveReconfig > 0 {
		reconfigAt = *packets / (*liveReconfig + 1)
		if reconfigAt == 0 {
			reconfigAt = 1 // more reloads than packets: one per frame
		}
	}
	reconfigID := loads[len(loads)-1].ModuleID
	reconfigSrc := sources[len(sources)-1]
	reconfigsDone := 0
	var lastGen uint64

	var sc *trafficgen.Scenario
	if len(weightByID) > 0 {
		sc = trafficgen.ContentionScenario(*seed, *size, loads...)
	} else {
		sc = trafficgen.NewScenario(*seed, loads...)
	}
	var frames [][]byte
	// One snapshot reused across every poll: StatsInto refills its map
	// and slices in place, so the serve loop's telemetry reads allocate
	// nothing after the first.
	var st menshen.EngineStats
	nextProgress := *progress
	start := time.Now()
	for sent := 0; sent < *packets; {
		n := *batch * eng.Workers()
		if rem := *packets - sent; n > rem {
			n = rem
		}
		frames = sc.NextBatch(frames[:0], n)
		if _, err := eng.SubmitBatch(frames); err != nil {
			fatal(err)
		}
		sent += n
		if *progress > 0 && sent >= nextProgress {
			nextProgress += *progress
			eng.StatsInto(&st)
			tot := st.Totals()
			fmt.Printf("progress: %9d submitted  %9d forwarded  %7d dropped  pool hit %.3f  %.2f Mpps\n",
				sent, tot.Processed, tot.Dropped(), st.PoolHitRate(),
				float64(tot.Processed)/time.Since(start).Seconds()/1e6)
		}
		for reconfigAt > 0 && reconfigsDone < *liveReconfig && sent >= (reconfigsDone+1)*reconfigAt {
			if _, err := eng.UnloadModule(reconfigID); err != nil {
				fatal(fmt.Errorf("live unload tenant %d: %w", reconfigID, err))
			}
			_, gen, err := eng.LoadModule(reconfigSrc, reconfigID)
			if err != nil {
				fatal(fmt.Errorf("live reload tenant %d: %w", reconfigID, err))
			}
			lastGen = gen
			reconfigsDone++
		}
	}
	eng.Drain()
	if lastGen > 0 {
		// Bounded wait: a wedged shard turns into a reported failure,
		// not a hung process.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := eng.AwaitQuiesceCtx(ctx, lastGen)
		cancel()
		if err != nil {
			fatal(fmt.Errorf("await quiesce of generation %d: %w", lastGen, err))
		}
	}
	wall := time.Since(start)
	eng.StatsInto(&st)

	if reconfigsDone > 0 {
		fmt.Printf("\n--- live reconfiguration ---\n")
		fmt.Printf("tenant %d reloaded %d times mid-run: %d generations issued, %d commands applied, %d failed\n",
			reconfigID, reconfigsDone, st.ReconfigIssued, st.ReconfigApplied, st.ReconfigFailed)
		allEqual := true
		var sum uint64
		for w := 0; w < eng.Workers(); w++ {
			pipe, err := eng.ShardPipeline(w)
			if err != nil {
				fatal(err)
			}
			cs := pipe.ModuleChecksum(reconfigID)
			if w == 0 {
				sum = cs
			} else if cs != sum {
				allEqual = false
			}
			fmt.Printf("worker %2d: generation %d, config checksum %#016x\n",
				w, st.Workers[w].ReconfigGen, cs)
		}
		if allEqual {
			fmt.Printf("all %d shard replicas hold identical configuration after quiesce\n", eng.Workers())
		} else {
			fmt.Printf("WARNING: shard replicas diverge after quiesce\n")
		}
	}

	// Linger keeps the engine and management API alive past the traffic
	// run: scrapes see a live dataplane and control mutations still ride
	// the fenced queue. The final report below re-snapshots afterwards
	// so linger-era mutations (e.g. a POSTed egress weight) show up.
	if mgmtLn != nil && *mgmtLinger > 0 {
		fmt.Printf("mgmt: lingering %v (engine live; ctrl-c to stop early)\n", *mgmtLinger)
		time.Sleep(*mgmtLinger)
		eng.StatsInto(&st)
	}
	if ing != nil {
		// Stop the sockets before the engine: Serve loops return, queued
		// ingress frames drain through the workers, and the final report
		// below sees settled counters on both sides of the conservation
		// identity.
		if err := ing.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "menshen-serve: ingress:", err)
		}
		eng.Drain()
		eng.StatsInto(&st)
	}
	if mgmtLn != nil {
		_ = mgmtLn.Close()
	}

	if err := eng.Close(); err != nil {
		fatal(err)
	}

	if tracer != nil {
		fmt.Printf("\n--- tracing ---\n")
		fmt.Printf("sampled 1-in-%d: %d hops recorded (GET /traces serves the most recent)\n",
			*traceEvery, tracer.Total())
	}

	fmt.Printf("\n--- tenants ---\n")
	for _, id := range st.TenantIDs() {
		ts := st.Tenants[id]
		fmt.Printf("tenant %2d: submitted %9d  forwarded %9d  dropped %7d (rate %d, queue %d, pipeline %d)  %7.2f MB\n",
			id, ts.Submitted, ts.Processed, ts.Dropped(),
			ts.RateLimited, ts.QueueFull, ts.PipelineDrops,
			float64(ts.Bytes)/1e6)
	}

	fmt.Printf("\n--- workers ---\n")
	for i, ws := range st.Workers {
		fmt.Printf("worker %2d: %9d frames in %8d batches (avg %5.1f/batch)  p50 %8v  p99 %8v  busy %v\n",
			i, ws.Frames, ws.Batches, ws.AvgBatch(),
			ws.P50BatchLatency, ws.P99BatchLatency, ws.Busy.Round(time.Millisecond))
	}

	if len(weightByID) > 0 {
		fmt.Printf("\n--- egress scheduling (§3.5) ---\n")
		var weightSum float64
		for _, w := range weightByID {
			weightSum += w
		}
		for _, id := range st.TenantIDs() {
			ts := st.Tenants[id]
			fmt.Printf("tenant %2d: weight %4.1f  queued %9d  shed %9d  delivered %9d  share %.3f (weight share %.3f)\n",
				id, weightByID[id], ts.EgressQueued, ts.EgressDropped, ts.EgressDelivered,
				st.EgressShare(id), weightByID[id]/weightSum)
		}
	}

	if len(st.Ingress) > 0 {
		fmt.Printf("\n--- ingress ---\n")
		for _, is := range st.Ingress {
			fmt.Printf("%-8s %-24s received %9d (%7.2f MB) in %9d reads  submitted %9d  rejected %6d  short %5d  oversize %5d  decode-err %3d  conns %3d (retries %d, resets %d)\n",
				is.Transport, is.Listen, is.Received, float64(is.ReceivedBytes)/1e6, is.Reads,
				is.Submitted, is.SubmitRejected, is.ShortDropped, is.OversizeDropped,
				is.DecodeErrors, is.ConnsAccepted, is.AcceptRetries, is.ConnResets)
		}
	}

	fmt.Printf("\n--- zero-copy ---\n")
	fmt.Printf("buffer pool: %d hits, %d misses (hit rate %.3f); ingress bytes copied: %.2f MB\n",
		st.PoolHits, st.PoolMisses, st.PoolHitRate(), float64(st.BytesCopied)/1e6)

	tot := st.Totals()
	pps := float64(tot.Processed) / wall.Seconds()
	fmt.Printf("\n--- totals ---\n")
	fmt.Printf("%d frames in %v: %.2f Mpps, %.2f Gbit/s payload\n",
		tot.Processed, wall.Round(time.Millisecond), pps/1e6,
		float64(tot.Bytes)*8/wall.Seconds()/1e9)
	fmt.Printf("modeled hardware line: %.1f Gbit/s at %d-byte frames (%s)\n",
		dev.ThroughputGbps(frameSizeOrDefault(*size)), frameSizeOrDefault(*size), dev.Platform())
}

// fabricPassthrough is the tenant module every fabric node runs: it
// forwards frames untouched and lets the system-level module's
// per-tenant virtual-IP routes (§3.3) steer them across the fabric.
const fabricPassthrough = `
module pass;
header sr_h { tag : 16; }
parser { extract sr_h at 46; }
action nop_a() { }
table t { actions = { nop_a; } size = 1; }
control { apply(t); }
`

// fabricRun carries the -fabric mode's parameters.
type fabricRun struct {
	nodes, tenants        int
	ring                  bool
	workers, batch, queue int
	packets, size, flows  int
	seed                  uint64
	drop                  bool
	mgmtAddr              string
	mgmtLinger            time.Duration
	traceEvery            int
	udp, tcp, unix        []string
}

// splitNodeAddr splits a -listen-* value into its fabric node and
// address halves ("s1=:9000" → "s1", ":9000"); a bare address targets
// defNode.
func splitNodeAddr(spec, defNode string) (node, addr string) {
	if i := strings.IndexByte(spec, '='); i >= 0 {
		return spec[:i], spec[i+1:]
	}
	return defNode, spec
}

// buildIngress turns the -listen-* flag sets into per-node listener
// aggregates. defNode names the fabric entry node for bare addresses;
// it is "" in single-engine mode, where node= prefixes are rejected.
func buildIngress(udp, tcp, unix []string, defNode string) (map[string]*ingress.Listeners, error) {
	// A 4 MiB kernel receive buffer on datagram sockets rides out load
	// bursts in the kernel queue instead of dropping them there, where
	// no counter of ours would see the loss.
	cfg := ingress.Config{ReadBuffer: 4 << 20}
	byNode := map[string]*ingress.Listeners{}
	add := func(spec string, mk func(addr string) (ingress.Source, error)) error {
		node, addr := splitNodeAddr(spec, defNode)
		if defNode == "" && node != "" {
			return fmt.Errorf("node-qualified listener %q needs -fabric mode", spec)
		}
		src, err := mk(addr)
		if err != nil {
			return err
		}
		l := byNode[node]
		if l == nil {
			l = ingress.NewListeners()
			byNode[node] = l
		}
		l.Add(src)
		return nil
	}
	for _, s := range udp {
		if err := add(s, func(a string) (ingress.Source, error) { return ingress.ListenUDP(a, cfg) }); err != nil {
			return nil, err
		}
	}
	for _, s := range tcp {
		if err := add(s, func(a string) (ingress.Source, error) { return ingress.ListenTCP(a, cfg) }); err != nil {
			return nil, err
		}
	}
	for _, s := range unix {
		if err := add(s, func(a string) (ingress.Source, error) { return ingress.ListenUnixgram(a, cfg) }); err != nil {
			return nil, err
		}
	}
	return byNode, nil
}

// startMgmt mounts the management API on addr and serves it from a
// background goroutine, printing the bound address (which the smoke
// test parses) and returning the listener so the caller can close it.
func startMgmt(addr string, srv *obs.Server) net.Listener {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("mgmt: listening on http://%s\n", ln.Addr())
	go func() { _ = http.Serve(ln, srv.Handler()) }()
	return ln
}

// runFabric drives a multi-node engine fabric: a chain (or ring) of
// engine-backed nodes, every tenant's vIP routed hop by hop to a host
// port on the last node, traffic injected at the first node, and a
// per-node/per-tenant report at the end.
func runFabric(r fabricRun) {
	vip := packet.IPv4Addr{10, 9, 9, 9}
	ids := make([]uint16, r.tenants)
	for i := range ids {
		ids[i] = uint16(i + 1)
	}

	fab := fabric.NewEngineFabric(nil) // deliveries are counted, not retained
	var tracer *obs.Tracer
	if r.traceEvery > 0 {
		tracer = obs.NewTracer(4096)
		fab.Trace = tracer.Record
	}
	for i := 0; i < r.nodes; i++ {
		name := fmt.Sprintf("s%d", i)
		sys := sysmod.NewConfig()
		port := uint8(1) // forward along the chain
		if i == r.nodes-1 && !r.ring {
			port = 2 // host-terminal on the last node
		}
		for _, id := range ids {
			sys.AddRoute(id, vip, port)
		}
		alloc := checker.NewAllocator(checker.CapacityOf(core.DefaultGeometry()), nil)
		specs := make([]engine.ModuleSpec, 0, len(ids))
		for _, id := range ids {
			prog, err := compiler.Compile(fabricPassthrough, compiler.Options{ModuleID: id})
			if err != nil {
				fatal(err)
			}
			if err := sys.Augment(prog.Config); err != nil {
				fatal(err)
			}
			pl, err := alloc.Admit(prog.Config)
			if err != nil {
				fatal(err)
			}
			specs = append(specs, engine.ModuleSpec{Config: prog.Config, Placement: pl})
		}
		nodeTraceEvery := 0
		if i == 0 {
			// Sampling happens once, at the fabric's entry node; the mark
			// then rides the out-of-band meta across every hop.
			nodeTraceEvery = r.traceEvery
		}
		if _, err := fab.AddNode(name, sys, fabric.NodeConfig{
			Workers:    r.workers,
			QueueDepth: r.queue,
			BatchSize:  r.batch,
			DropOnFull: r.drop,
			Modules:    specs,
			TraceEvery: nodeTraceEvery,
		}); err != nil {
			fatal(err)
		}
		if i > 0 {
			if err := fab.Link(fmt.Sprintf("s%d", i-1), 1, name, 0); err != nil {
				fatal(err)
			}
		}
	}
	if r.ring {
		if err := fab.Link(fmt.Sprintf("s%d", r.nodes-1), 1, "s0", 0); err != nil {
			fatal(err)
		}
	}
	topo := "chain"
	if r.ring {
		topo = "ring"
	}
	fmt.Printf("fabric: %d nodes (%s), %d tenants, %d workers/node\n", r.nodes, topo, r.tenants, r.workers)

	// The §3.4 control-plane check runs before traffic: a chain passes,
	// a looping ring is refused (and the run then demonstrates the TTL
	// bound degrading the loop into counted drops, not a hang).
	var hops []checker.Hop
	for _, h := range fab.ModuleRouteGraph(ids[0]) {
		hops = append(hops, checker.Hop{Dev: h.Dev, VIP: h.VIP, Next: h.Next})
	}
	if err := checker.CheckLoopFree(hops); err != nil {
		fmt.Printf("control plane: %v (loading anyway to exercise the TTL bound)\n", err)
	} else {
		fmt.Println("control plane: route graph verified loop-free")
	}

	if err := fab.Start(); err != nil {
		fatal(err)
	}
	var mgmtLn net.Listener
	if r.mgmtAddr != "" {
		sources := make([]obs.Source, 0, r.nodes)
		for i := 0; i < r.nodes; i++ {
			name := fmt.Sprintf("s%d", i)
			n, err := fab.Node(name)
			if err != nil {
				fatal(err)
			}
			sources = append(sources, obs.Source{Node: name, StatsInto: n.Eng.StatsInto})
		}
		// Mutations target the entry node's control plane; the other
		// nodes' engines are reachable the same way if needed.
		entry, err := fab.Node("s0")
		if err != nil {
			fatal(err)
		}
		srv := obs.NewServer(tracer, obs.Ops{
			UnloadModule:    entry.Eng.UnloadModuleLive,
			SetEgressWeight: entry.Eng.SetEgressWeight,
			SetTenantLimit: func(tenant uint16, pps, bps float64) (uint64, error) {
				entry.Eng.SetTenantLimit(tenant, pps, bps)
				return entry.Eng.ReconfigGen(), nil
			},
			// Ctx-capable closure only; see the single-engine wiring.
			AwaitQuiesceCtx: entry.Eng.AwaitQuiesceCtx,
		}, sources...)
		mgmtLn = startMgmt(r.mgmtAddr, srv)
	}
	// Per-node socket ingress: a node=addr -listen-* flag binds on that
	// node's engine; a bare address binds on the entry node s0.
	ings, err := buildIngress(r.udp, r.tcp, r.unix, "s0")
	if err != nil {
		fatal(err)
	}
	for nodeName, ing := range ings {
		n, err := fab.Node(nodeName)
		if err != nil {
			fatal(fmt.Errorf("-listen flag targets unknown fabric node: %w", err))
		}
		for _, src := range ing.Sources() {
			fmt.Printf("ingress: %s listening on %s (node %s)\n", src.Transport(), src.Addr(), nodeName)
		}
		ing.Start(n.Eng)
		n.Eng.RegisterIngress(ing.Fill)
	}
	sc := trafficgen.FabricScenario(r.seed, vip, r.size, r.flows, ids...)
	var frames [][]byte
	start := time.Now()
	for sent := 0; sent < r.packets; {
		n := r.batch * r.workers
		if rem := r.packets - sent; n > rem {
			n = rem
		}
		frames = sc.NextBatch(frames[:0], n)
		if _, err := fab.InjectBatch("s0", 0, frames); err != nil {
			fatal(err)
		}
		sent += n
	}
	fab.Drain()
	wall := time.Since(start)
	if mgmtLn != nil && r.mgmtLinger > 0 {
		fmt.Printf("mgmt: lingering %v (fabric live; ctrl-c to stop early)\n", r.mgmtLinger)
		time.Sleep(r.mgmtLinger)
	}
	if mgmtLn != nil {
		_ = mgmtLn.Close()
	}
	for _, ing := range ings {
		if err := ing.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "menshen-serve: ingress:", err)
		}
	}
	if len(ings) > 0 {
		fab.Drain() // settle socket-injected frames before the snapshot
	}
	st := fab.Stats()
	if err := fab.Close(); err != nil {
		fatal(err)
	}
	if tracer != nil {
		fmt.Printf("traced hops recorded: %d (sampled 1-in-%d at s0, one hop per node traversed)\n",
			tracer.Total(), r.traceEvery)
	}

	fmt.Printf("\n--- nodes ---\n")
	for i := 0; i < r.nodes; i++ {
		name := fmt.Sprintf("s%d", i)
		ns := st.Nodes[name]
		fmt.Printf("node %s: forwarded %9d  link-dropped %7d  ttl-dropped %7d  delivered %9d\n",
			name, ns.Forwarded, ns.LinkDropped, ns.TTLDropped, ns.Delivered)
		for _, id := range ns.Engine.TenantIDs() {
			ts := ns.Engine.Tenants[id]
			fmt.Printf("  tenant %2d: in %9d  forwarded %9d  dropped %7d (queue %d, pipeline %d)\n",
				id, ts.Submitted, ts.Processed, ts.Dropped(), ts.QueueFull, ts.PipelineDrops)
		}
		for _, is := range ns.Engine.Ingress {
			fmt.Printf("  ingress %s %s: received %d  submitted %d  rejected %d  short %d  oversize %d  decode-err %d  resets %d\n",
				is.Transport, is.Listen, is.Received, is.Submitted, is.SubmitRejected,
				is.ShortDropped, is.OversizeDropped, is.DecodeErrors, is.ConnResets)
		}
	}

	fmt.Printf("\n--- fabric totals ---\n")
	fmt.Printf("injected %d frames in %v\n", r.packets, wall.Round(time.Millisecond))
	fmt.Printf("hand-offs %d, delivered %d, link drops %d, ttl drops %d\n",
		st.Forwarded, st.Delivered, st.LinkDropped, st.TTLDropped)
	fmt.Printf("%.2f Mpps end to end (per injected frame, %d pipelines deep)\n",
		float64(r.packets)/wall.Seconds()/1e6, r.nodes)
}

func frameSizeOrDefault(size int) int {
	if size <= 0 {
		return 64
	}
	return size
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "menshen-serve:", err)
	os.Exit(1)
}
