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
//	menshen-serve -packets 0 -mgmt-linger 60s -listen-udp :9800   # serving daemon
//	menshen-serve -fabric 3                        # 3-node engine fabric (chain)
//	menshen-serve -fabric 3 -fabric-ring           # cyclic topology: counted TTL drops
//	menshen-serve -chaos -packets 200000           # self-checking fault-injection harness
//
// A flag the selected mode has no use for is refused, not ignored.
// Ctrl-C ends a run (or its -mgmt-linger) early; the report still prints.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
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

// The generated workload's fixed shape. Frames are the minimal size
// each program accepts; the modeled hardware line is quoted at 64 B.
const (
	seed           = 42 // workload PRNG seed
	flowsPerTenant = 16 // flows per tenant, spread across shards
	modeledFrame   = 64
)

// chainTenants are the tenants every fabric and chaos node runs, routed
// by the system module's per-tenant virtual IP chainVIP.
var (
	chainTenants = []uint16{1, 2, 3}
	chainVIP     = packet.IPv4Addr{10, 9, 9, 9}
)

var platforms = map[string]menshen.PlatformKind{
	"corundum":       menshen.PlatformCorundumOptimized,
	"corundum-unopt": menshen.PlatformCorundumUnoptimized,
	"netfpga":        menshen.PlatformNetFPGA,
}

// ignoredBy names, per mode, the flags that mode has no use for.
var ignoredBy = map[string][]string{
	"the single-engine mode": {"fabric-ring"},
	"-fabric":                {"modules", "platform", "rate-pps", "live-reconfig", "egress-weights", "egress-quantum", "egress-quantum-bytes"},
	"-chaos": {"modules", "platform", "rate-pps", "live-reconfig", "egress-weights", "egress-quantum", "egress-quantum-bytes",
		"fabric", "fabric-ring", "drop", "trace-every", "mgmt-addr", "mgmt-linger", "listen-udp", "listen-tcp", "listen-unix"},
}

// serveConfig is one parsed command line.
type serveConfig struct {
	modules                           []string
	platform                          menshen.PlatformKind
	workers, batch, queue, packets    int
	ratePPS                           float64
	drop                              bool
	liveReconfig                      int
	egressWeights                     []float64 // one per module; nil = egress scheduling off
	egressQuantum, egressQuantumBytes int
	fabric                            int
	fabricRing, chaos                 bool
	mgmtAddr                          string
	mgmtLinger                        time.Duration
	traceEvery                        int
	listenUDP, listenTCP, listenUnix  []string // repeatable; node=addr in -fabric mode
}

// parseFlags parses a command line (without the program name) and
// checks it against the mode it selects.
func parseFlags(args []string) (serveConfig, error) {
	var c serveConfig
	fs := flag.NewFlagSet("menshen-serve", flag.ContinueOnError)
	modules := fs.String("modules", "CALC,Firewall,NetCache", "comma-separated Table 3 program names, one tenant each")
	platform := fs.String("platform", "corundum", "platform: corundum, corundum-unopt, netfpga")
	weights := fs.String("egress-weights", "",
		"comma-separated egress WFQ weights, one per -modules entry (e.g. 3,1,1): enables §3.5 egress scheduling and runs the equal-offered-load contention scenario")
	fs.IntVar(&c.workers, "workers", 4, "engine worker shards (per node with -fabric and -chaos)")
	fs.IntVar(&c.batch, "batch", 32, "frames per pipeline batch")
	fs.IntVar(&c.queue, "queue", 4096, "per-tenant per-worker ring depth")
	fs.IntVar(&c.packets, "packets", 1_000_000, "total frames to generate across tenants")
	fs.Float64Var(&c.ratePPS, "rate-pps", 0, "per-tenant packet rate limit (0 = unlimited)")
	fs.BoolVar(&c.drop, "drop", false, "tail-drop at full rings instead of blocking the generator")
	fs.IntVar(&c.liveReconfig, "live-reconfig", 0,
		"live unload+reload the last tenant this many times mid-run, while other tenants keep flowing")
	fs.IntVar(&c.egressQuantum, "egress-quantum", 8, "frames delivered per worker service cycle (the modeled TX link)")
	fs.IntVar(&c.egressQuantumBytes, "egress-quantum-bytes", 0,
		"bytes delivered per worker service cycle (0 = frame-denominated only); models the TX link in bytes so mixed frame sizes share fairly by bytes")
	fs.IntVar(&c.fabric, "fabric", 0,
		"run an engine-backed fabric of this many nodes (chain topology) instead of a single engine; each node runs its own engine and inter-node links are owned-buffer hand-offs. Fabric tenants run passthrough modules routed by the system module's per-tenant virtual IPs")
	fs.BoolVar(&c.fabricRing, "fabric-ring", false,
		"close the fabric chain into a ring with a looping route: the §3.4 check refuses it, and the run demonstrates the TTL bound converting the loop into counted drops")
	fs.StringVar(&c.mgmtAddr, "mgmt-addr", "",
		"mount the management HTTP API (GET /metrics, /stats, /traces, /debug/pprof/*; POST /control/*) on this address (e.g. :9090; empty = off)")
	fs.DurationVar(&c.mgmtLinger, "mgmt-linger", 0,
		"keep the dataplane (and the management API, if mounted) alive this long after the traffic run, so sockets keep serving and scrapes and control mutations land against a live dataplane")
	fs.IntVar(&c.traceEvery, "trace-every", 0,
		"sample every Nth submitted frame into the trace ring (GET /traces); 0 = off")
	fs.BoolVar(&c.chaos, "chaos", false,
		"run the self-checking chaos harness: a 3-node fabric with a noisy link, a flapping link, and seeded control-plane command loss, under scheduled weight churn and live verified reloads; exits non-zero if conservation, replica parity, or liveness is violated")
	repeat := func(dst *[]string) func(string) error {
		return func(v string) error { *dst = append(*dst, v); return nil }
	}
	fs.Func("listen-udp",
		"bind a UDP ingress listener on this address (e.g. 127.0.0.1:0); repeatable. In -fabric mode use node=addr (bare addr binds on the entry node s0). Combine with -packets 0 and -mgmt-linger to run as a pure serving daemon",
		repeat(&c.listenUDP))
	fs.Func("listen-tcp",
		"bind a TCP ingress listener (length-prefixed stream framing) on this address; repeatable, node=addr in -fabric mode",
		repeat(&c.listenTCP))
	fs.Func("listen-unix",
		"bind a Unix-datagram ingress listener at this socket path; repeatable, node=path in -fabric mode",
		repeat(&c.listenUnix))
	if err := fs.Parse(args); err != nil {
		return c, err // the flag set has printed it, with the usage
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if c.workers < 1 || c.batch < 1 {
		return c, errors.New("-workers and -batch must be at least 1")
	}

	mode := c.mode()
	var conflict error
	fs.Visit(func(f *flag.Flag) {
		if conflict == nil && slices.Contains(ignoredBy[mode], f.Name) {
			conflict = fmt.Errorf("flag -%s is not used by %s", f.Name, mode)
		}
	})
	if conflict != nil {
		return c, conflict
	}

	var ok bool
	if c.platform, ok = platforms[*platform]; !ok {
		return c, fmt.Errorf("unknown platform %q", *platform)
	}
	for _, name := range strings.Split(*modules, ",") {
		c.modules = append(c.modules, strings.TrimSpace(name))
	}
	if *weights != "" {
		parts := strings.Split(*weights, ",")
		if len(parts) != len(c.modules) {
			return c, fmt.Errorf("-egress-weights has %d entries for %d modules", len(parts), len(c.modules))
		}
		for _, p := range parts {
			w, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil || w <= 0 {
				return c, fmt.Errorf("bad egress weight %q", p)
			}
			c.egressWeights = append(c.egressWeights, w)
		}
	}
	return c, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return // -h: the flag set has printed the usage
	}
	if err == nil {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		err = run(ctx, cfg, os.Stdout)
		stop()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "menshen-serve:", err)
		os.Exit(1)
	}
}

// mode names the run mode c selects.
func (c serveConfig) mode() string {
	switch {
	case c.chaos:
		return "-chaos"
	case c.fabric > 0:
		return "-fabric"
	}
	return "the single-engine mode"
}

// run executes one parsed command line, writing its report to out. A
// canceled ctx stops the traffic run and any linger early; the report
// still prints.
func run(ctx context.Context, cfg serveConfig, out io.Writer) error {
	switch cfg.mode() {
	case "-chaos":
		return runChaos(ctx, cfg, out)
	case "-fabric":
		return runFabric(ctx, cfg, out)
	}
	return runEngine(ctx, cfg, out)
}

// runEngine drives the single-engine mode: modules loaded on one
// device, the generated workload submitted to its engine (with any
// socket ingress alongside), and a per-tenant/per-worker report.
func runEngine(ctx context.Context, cfg serveConfig, out io.Writer) error {
	dev := menshen.NewDevice(menshen.WithPlatform(cfg.platform))
	fmt.Fprintln(out, "device:", dev.Platform())

	// -egress-weights turns on the §3.5 contention scenario: every
	// tenant offers the same saturating load, the per-worker egress
	// scheduler arbitrates a TX link of -egress-quantum frames per
	// service cycle, and the delivered shares should land on the
	// configured weights rather than on the (equal) offered load.
	weightByID := map[uint16]float64{}
	loads := make([]trafficgen.TenantLoad, 0, len(cfg.modules))
	var lastSource string
	for i, name := range cfg.modules {
		p, err := p4progs.ByName(name)
		if err != nil {
			return err
		}
		id := uint16(i + 1)
		rep, err := dev.LoadModule(p.Source(), id)
		if err != nil {
			return fmt.Errorf("load %s: %w", p.Name, err)
		}
		fmt.Fprintf(out, "loaded %-16s as tenant %2d (%3d commands, compile %v)\n",
			p.Name, id, rep.Commands, rep.CompileWall.Round(time.Microsecond))
		loads = append(loads, trafficgen.TenantLoad{ModuleID: id, Program: name, Flows: flowsPerTenant})
		lastSource = p.Source()
		if cfg.egressWeights != nil {
			weightByID[id] = cfg.egressWeights[i]
		}
	}

	var tracer *obs.Tracer
	engCfg := menshen.EngineConfig{
		Workers:            cfg.workers,
		BatchSize:          cfg.batch,
		QueueDepth:         cfg.queue,
		DropOnFull:         cfg.drop,
		EgressWeights:      weightByID,
		EgressQuantum:      cfg.egressQuantum,
		EgressQuantumBytes: cfg.egressQuantumBytes,
	}
	if cfg.traceEvery > 0 {
		tracer = obs.NewTracer(4096)
		engCfg.TraceEvery = cfg.traceEvery
		engCfg.OnTrace = tracer.Hook("")
	}
	eng, err := dev.NewEngine(engCfg)
	if err != nil {
		return err
	}
	defer func() { _ = eng.Close() }() // error paths; the report path closes it itself
	if cfg.ratePPS > 0 {
		for _, l := range loads {
			eng.SetTenantLimit(l.ModuleID, cfg.ratePPS, 0)
		}
	}
	fmt.Fprintf(out, "engine: %d workers, batch %d, queue %d\n", eng.Workers(), cfg.batch, cfg.queue)
	// Socket ingress feeds this engine through the borrowed-buffer path,
	// alongside (or instead of) the in-process generator below.
	detach, err := attach(cfg, obs.NewServer(tracer, obs.Ops{
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
	}, obs.Source{StatsInto: eng.StatsInto}), "", func(node string) (ingressEngine, error) {
		if node != "" {
			return nil, fmt.Errorf("node-qualified listener %s=… needs -fabric mode", node)
		}
		return eng, nil
	}, out)
	if err != nil {
		return err
	}
	defer detach()

	// The mid-run reconfiguration scenario: at -live-reconfig evenly
	// spaced points in the stream, unload the last tenant from the
	// running shards and replay its full command stream back in, while
	// every other tenant's traffic keeps flowing. The tenant's own
	// frames submitted during the gap drop as "no module loaded" —
	// reported per tenant below.
	reconfigEvery := max(cfg.packets/(cfg.liveReconfig+1), 1) // more reloads than packets: one per frame
	reconfigID := loads[len(loads)-1].ModuleID
	reconfigs := 0
	var lastGen uint64

	var sc *trafficgen.Scenario
	if len(weightByID) > 0 {
		sc = trafficgen.ContentionScenario(seed, 0, loads...)
	} else {
		sc = trafficgen.NewScenario(seed, loads...)
	}
	start := time.Now()
	if _, err := drive(ctx, cfg, sc, eng.SubmitBatch, func(_, sent int) error {
		for reconfigs < cfg.liveReconfig && sent >= (reconfigs+1)*reconfigEvery {
			if _, err := eng.UnloadModule(reconfigID); err != nil {
				return fmt.Errorf("live unload tenant %d: %w", reconfigID, err)
			}
			_, gen, err := eng.LoadModule(lastSource, reconfigID)
			if err != nil {
				return fmt.Errorf("live reload tenant %d: %w", reconfigID, err)
			}
			lastGen = gen
			reconfigs++
		}
		return nil
	}); err != nil {
		return err
	}
	eng.Drain()
	if lastGen > 0 {
		// Bounded wait: a wedged shard turns into a reported failure,
		// not a hung process.
		qctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 30*time.Second)
		err := eng.AwaitQuiesceCtx(qctx, lastGen)
		cancel()
		if err != nil {
			return fmt.Errorf("await quiesce of generation %d: %w", lastGen, err)
		}
	}
	wall := time.Since(start)
	var st menshen.EngineStats

	if reconfigs > 0 {
		eng.StatsInto(&st)
		fmt.Fprintf(out, "\n--- live reconfiguration ---\n")
		fmt.Fprintf(out, "tenant %d reloaded %d times mid-run: %d generations issued, %d commands applied, %d failed\n",
			reconfigID, reconfigs, st.ReconfigIssued, st.ReconfigApplied, st.ReconfigFailed)
		sums := map[uint64]bool{}
		for w := 0; w < eng.Workers(); w++ {
			pipe, err := eng.ShardPipeline(w)
			if err != nil {
				return err
			}
			cs := pipe.ModuleChecksum(reconfigID)
			sums[cs] = true
			fmt.Fprintf(out, "worker %2d: generation %d, config checksum %#016x\n",
				w, st.Workers[w].ReconfigGen, cs)
		}
		if len(sums) == 1 {
			fmt.Fprintf(out, "all %d shard replicas hold identical configuration after quiesce\n", eng.Workers())
		} else {
			fmt.Fprintf(out, "WARNING: shard replicas diverge after quiesce\n")
		}
	}

	// The sockets stop before the final snapshot, so the report sees
	// settled ingress counters and any linger-era mutations.
	linger(ctx, cfg.mgmtLinger, "engine", out)
	detach()
	eng.Drain()
	eng.StatsInto(&st)
	if err := eng.Close(); err != nil {
		return err
	}

	if tracer != nil {
		fmt.Fprintf(out, "\n--- tracing ---\n")
		fmt.Fprintf(out, "sampled 1-in-%d: %d hops recorded (GET /traces serves the most recent)\n",
			cfg.traceEvery, tracer.Total())
	}

	fmt.Fprintf(out, "\n--- tenants ---\n")
	for _, id := range st.TenantIDs() {
		ts := st.Tenants[id]
		fmt.Fprintf(out, "tenant %2d: submitted %9d  forwarded %9d  dropped %7d (rate %d, queue %d, pipeline %d)  %7.2f MB\n",
			id, ts.Submitted, ts.Processed, ts.Dropped(),
			ts.RateLimited, ts.QueueFull, ts.PipelineDrops,
			float64(ts.Bytes)/1e6)
	}

	fmt.Fprintf(out, "\n--- workers ---\n")
	for i, ws := range st.Workers {
		fmt.Fprintf(out, "worker %2d: %9d frames in %8d batches (avg %5.1f/batch)  p50 %8v  p99 %8v  busy %v\n",
			i, ws.Frames, ws.Batches, ws.AvgBatch(),
			ws.P50BatchLatency, ws.P99BatchLatency, ws.Busy.Round(time.Millisecond))
	}

	if len(weightByID) > 0 {
		fmt.Fprintf(out, "\n--- egress scheduling (§3.5) ---\n")
		var weightSum float64
		for _, w := range weightByID {
			weightSum += w
		}
		for _, id := range st.TenantIDs() {
			ts := st.Tenants[id]
			fmt.Fprintf(out, "tenant %2d: weight %4.1f  queued %9d  shed %9d  delivered %9d  share %.3f (weight share %.3f)\n",
				id, weightByID[id], ts.EgressQueued, ts.EgressDropped, ts.EgressDelivered,
				st.EgressShare(id), weightByID[id]/weightSum)
		}
	}

	if len(st.Ingress) > 0 {
		fmt.Fprintf(out, "\n--- ingress ---\n")
		for _, is := range st.Ingress {
			fmt.Fprintf(out, "%-8s %-24s received %9d (%7.2f MB) in %9d reads  submitted %9d  rejected %6d  short %5d  oversize %5d  decode-err %3d  conns %3d (retries %d, resets %d)\n",
				is.Transport, is.Listen, is.Received, float64(is.ReceivedBytes)/1e6, is.Reads,
				is.Submitted, is.SubmitRejected, is.ShortDropped, is.OversizeDropped,
				is.DecodeErrors, is.ConnsAccepted, is.AcceptRetries, is.ConnResets)
		}
	}

	fmt.Fprintf(out, "\n--- zero-copy ---\n")
	fmt.Fprintf(out, "buffer pool: %d hits, %d misses (hit rate %.3f); ingress bytes copied: %.2f MB\n",
		st.PoolHits, st.PoolMisses, st.PoolHitRate(), float64(st.BytesCopied)/1e6)

	tot := st.Totals()
	pps := float64(tot.Processed) / wall.Seconds()
	fmt.Fprintf(out, "\n--- totals ---\n")
	fmt.Fprintf(out, "%d frames in %v: %.2f Mpps, %.2f Gbit/s payload\n",
		tot.Processed, wall.Round(time.Millisecond), pps/1e6,
		float64(tot.Bytes)*8/wall.Seconds()/1e9)
	fmt.Fprintf(out, "modeled hardware line: %.1f Gbit/s at %d-byte frames (%s)\n",
		dev.ThroughputGbps(modeledFrame), modeledFrame, dev.Platform())
	return nil
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

// buildChain adds and links nodes s0..s(n-1), each running the
// passthrough module for every chainTenants ID with chainVIP routed
// along the chain (back to s0 when ring is set). base is every node's
// engine config; only the entry node keeps its TraceEvery: the mark
// rides the out-of-band meta across every hop. It returns the nodes
// (engines exist once fab starts) and their module specs, in
// chainTenants order.
func buildChain(fab *fabric.EngineFabric, n int, ring bool, base fabric.NodeConfig) ([]*fabric.EngineNode, [][]engine.ModuleSpec, error) {
	nodes := make([]*fabric.EngineNode, n)
	specs := make([][]engine.ModuleSpec, n)
	for i := range nodes {
		sys := sysmod.NewConfig()
		port := uint8(1) // forward along the chain
		if i == n-1 && !ring {
			port = 2 // host-terminal on the last node
		}
		for _, id := range chainTenants {
			sys.AddRoute(id, chainVIP, port)
		}
		alloc := checker.NewAllocator(checker.CapacityOf(core.DefaultGeometry()), nil)
		for _, id := range chainTenants {
			prog, err := compiler.Compile(fabricPassthrough, compiler.Options{ModuleID: id})
			if err != nil {
				return nil, nil, err
			}
			if err := sys.Augment(prog.Config); err != nil {
				return nil, nil, err
			}
			pl, err := alloc.Admit(prog.Config)
			if err != nil {
				return nil, nil, err
			}
			specs[i] = append(specs[i], engine.ModuleSpec{Config: prog.Config, Placement: pl})
		}
		nc := base
		nc.Modules = specs[i]
		if i > 0 {
			nc.TraceEvery = 0
		}
		var err error
		if nodes[i], err = fab.AddNode(fmt.Sprintf("s%d", i), sys, nc); err != nil {
			return nil, nil, err
		}
	}
	for i, node := range nodes {
		if next := (i + 1) % n; next != 0 || ring {
			if err := fab.Link(node.Name, 1, nodes[next].Name, 0); err != nil {
				return nil, nil, err
			}
		}
	}
	return nodes, specs, nil
}

// drive is every mode's traffic loop: it offers cfg.packets frames from
// sc to submit, batch×workers at a time, until all are in or ctx ends.
// between(b, sent) runs ahead of batch b and once after the last one —
// the mid-run control events hook in there. It returns how many frames
// went in.
func drive(ctx context.Context, cfg serveConfig, sc *trafficgen.Scenario, submit func([][]byte) (int, error), between func(b, sent int) error) (int, error) {
	var frames [][]byte
	for b, sent := 0, 0; ; b++ {
		if err := between(b, sent); err != nil || sent >= cfg.packets || ctx.Err() != nil {
			return sent, err
		}
		n := min(cfg.batch*cfg.workers, cfg.packets-sent)
		frames = sc.NextBatch(frames[:0], n)
		if _, err := submit(frames); err != nil {
			return sent, err
		}
		sent += n
	}
}

// injectEntry drives the fabric workload into the entry node s0.
func injectEntry(ctx context.Context, fab *fabric.EngineFabric, cfg serveConfig, between func(b, sent int) error) (int, error) {
	sc := trafficgen.FabricScenario(seed, chainVIP, 0, flowsPerTenant, chainTenants...)
	return drive(ctx, cfg, sc, func(f [][]byte) (int, error) { return fab.InjectBatch("s0", 0, f) }, between)
}

// runFabric drives a multi-node engine fabric: a chain (or ring) of
// engine-backed nodes, every tenant's vIP routed hop by hop to a host
// port on the last node, traffic injected at the first node, and a
// per-node/per-tenant report at the end.
func runFabric(ctx context.Context, cfg serveConfig, out io.Writer) error {
	fab := fabric.NewEngineFabric(nil) // deliveries are counted, not retained
	var tracer *obs.Tracer
	if cfg.traceEvery > 0 {
		tracer = obs.NewTracer(4096)
		fab.Trace = tracer.Record
	}
	nodes, _, err := buildChain(fab, cfg.fabric, cfg.fabricRing, fabric.NodeConfig{
		Workers:    cfg.workers,
		QueueDepth: cfg.queue,
		BatchSize:  cfg.batch,
		DropOnFull: cfg.drop,
		TraceEvery: cfg.traceEvery,
	})
	if err != nil {
		return err
	}
	topo := "chain"
	if cfg.fabricRing {
		topo = "ring"
	}
	fmt.Fprintf(out, "fabric: %d nodes (%s), %d tenants, %d workers/node\n", cfg.fabric, topo, len(chainTenants), cfg.workers)

	// The §3.4 control-plane check runs before traffic: a chain passes,
	// a looping ring is refused (and the run then demonstrates the TTL
	// bound degrading the loop into counted drops, not a hang).
	var hops []checker.Hop
	for _, h := range fab.ModuleRouteGraph(chainTenants[0]) {
		hops = append(hops, checker.Hop{Dev: h.Dev, VIP: h.VIP, Next: h.Next})
	}
	if err := checker.CheckLoopFree(hops); err != nil {
		fmt.Fprintf(out, "control plane: %v (loading anyway to exercise the TTL bound)\n", err)
	} else {
		fmt.Fprintln(out, "control plane: route graph verified loop-free")
	}

	if err := fab.Start(); err != nil {
		return err
	}
	defer func() { _ = fab.Close() }() // error paths; the report path closes it itself
	sources := make([]obs.Source, 0, len(nodes))
	for _, n := range nodes {
		sources = append(sources, obs.Source{Node: n.Name, StatsInto: n.Eng.StatsInto})
	}
	// Mutations target the entry node's control plane; the other nodes'
	// engines are reachable the same way if needed.
	entry := nodes[0].Eng
	// Per-node socket ingress: a node=addr -listen-* flag binds on that
	// node's engine; a bare address binds on the entry node s0.
	detach, err := attach(cfg, obs.NewServer(tracer, obs.Ops{
		UnloadModule:    entry.UnloadModuleLive,
		SetEgressWeight: entry.SetEgressWeight,
		SetTenantLimit: func(tenant uint16, pps, bps float64) (uint64, error) {
			entry.SetTenantLimit(tenant, pps, bps)
			return entry.ReconfigGen(), nil
		},
		// Ctx-capable closure only; see the single-engine wiring.
		AwaitQuiesceCtx: entry.AwaitQuiesceCtx,
	}, sources...), "s0", func(node string) (ingressEngine, error) {
		n, err := fab.Node(node)
		if err != nil {
			return nil, fmt.Errorf("-listen flag targets unknown fabric node: %w", err)
		}
		return n.Eng, nil
	}, out)
	if err != nil {
		return err
	}
	defer detach()

	start := time.Now()
	injected, err := injectEntry(ctx, fab, cfg, func(int, int) error { return nil })
	if err != nil {
		return err
	}
	fab.Drain()
	wall := time.Since(start)
	linger(ctx, cfg.mgmtLinger, "fabric", out)
	detach()
	fab.Drain() // settle socket-injected frames before the snapshot
	st := fab.Stats()
	if err := fab.Close(); err != nil {
		return err
	}
	if tracer != nil {
		fmt.Fprintf(out, "traced hops recorded: %d (sampled 1-in-%d at s0, one hop per node traversed)\n",
			tracer.Total(), cfg.traceEvery)
	}

	fmt.Fprintf(out, "\n--- nodes ---\n")
	for _, n := range nodes {
		ns := st.Nodes[n.Name]
		fmt.Fprintf(out, "node %s: forwarded %9d  link-dropped %7d  ttl-dropped %7d  delivered %9d\n",
			n.Name, ns.Forwarded, ns.LinkDropped, ns.TTLDropped, ns.Delivered)
		for _, id := range ns.Engine.TenantIDs() {
			ts := ns.Engine.Tenants[id]
			fmt.Fprintf(out, "  tenant %2d: in %9d  forwarded %9d  dropped %7d (queue %d, pipeline %d)\n",
				id, ts.Submitted, ts.Processed, ts.Dropped(), ts.QueueFull, ts.PipelineDrops)
		}
		for _, is := range ns.Engine.Ingress {
			fmt.Fprintf(out, "  ingress %s %s: received %d  submitted %d  rejected %d  short %d  oversize %d  decode-err %d  resets %d\n",
				is.Transport, is.Listen, is.Received, is.Submitted, is.SubmitRejected,
				is.ShortDropped, is.OversizeDropped, is.DecodeErrors, is.ConnResets)
		}
	}

	fmt.Fprintf(out, "\n--- fabric totals ---\n")
	fmt.Fprintf(out, "injected %d frames in %v\n", injected, wall.Round(time.Millisecond))
	fmt.Fprintf(out, "hand-offs %d, delivered %d, link drops %d, ttl drops %d\n",
		st.Forwarded, st.Delivered, st.LinkDropped, st.TTLDropped)
	fmt.Fprintf(out, "%.2f Mpps end to end (per injected frame, %d pipelines deep)\n",
		float64(injected)/wall.Seconds()/1e6, cfg.fabric)
	return nil
}

// ingressEngine is what a -listen-* source feeds: the facade engine in
// single-engine mode, a node's engine in -fabric mode.
type ingressEngine interface {
	ingress.Sink
	RegisterIngress(fill func([]engine.IngressStats) []engine.IngressStats)
}

// attach mounts the management API (when -mgmt-addr is set) and binds
// every -listen-* socket on the engine engineOf names for its node=addr
// prefix (defNode for a bare address), printing each bound address —
// the smoke tests parse them. detach closes all of it, reporting close
// and serve errors to out; it may be called more than once.
func attach(cfg serveConfig, srv *obs.Server, defNode string, engineOf func(node string) (ingressEngine, error), out io.Writer) (detach func(), err error) {
	var closers []func() error
	detach = func() {
		for _, c := range closers {
			if err := c(); err != nil {
				fmt.Fprintln(out, "detach:", err)
			}
		}
		closers = nil
	}
	defer func() {
		if err != nil {
			detach()
		}
	}()
	if cfg.mgmtAddr != "" {
		ln, err := net.Listen("tcp", cfg.mgmtAddr)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "mgmt: listening on http://%s\n", ln.Addr())
		hs := &http.Server{Handler: srv.Handler()}
		served := make(chan struct{})
		go func() {
			defer close(served)
			_ = hs.Serve(ln) // returns ErrServerClosed once closed
		}()
		closers = append(closers, func() error {
			err := hs.Close()
			<-served
			return err
		})
	}
	// A 4 MiB kernel receive buffer on datagram sockets rides out load
	// bursts in the kernel queue instead of dropping them there, where
	// no counter of ours would see the loss.
	icfg := ingress.Config{ReadBuffer: 4 << 20}
	for _, kind := range []struct {
		specs  []string
		listen func(addr string) (ingress.Source, error)
	}{
		{cfg.listenUDP, func(a string) (ingress.Source, error) { return ingress.ListenUDP(a, icfg) }},
		{cfg.listenTCP, func(a string) (ingress.Source, error) { return ingress.ListenTCP(a, icfg) }},
		{cfg.listenUnix, func(a string) (ingress.Source, error) { return ingress.ListenUnixgram(a, icfg) }},
	} {
		for _, spec := range kind.specs {
			node, addr, where := defNode, spec, ""
			if i := strings.IndexByte(spec, '='); i >= 0 {
				node, addr = spec[:i], spec[i+1:]
			}
			if node != "" {
				where = " (node " + node + ")"
			}
			eng, err := engineOf(node)
			if err != nil {
				return nil, err
			}
			src, err := kind.listen(addr)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(out, "ingress: %s listening on %s%s\n", src.Transport(), src.Addr(), where)
			l := ingress.NewListeners(src)
			l.Start(eng)
			eng.RegisterIngress(l.Fill)
			closers = append(closers, l.Close)
		}
	}
	return detach, nil
}

// linger keeps the dataplane — its sockets, and the management API if
// mounted — alive for d after the traffic run, or until ctx ends.
func linger(ctx context.Context, d time.Duration, what string, out io.Writer) {
	if d <= 0 {
		return
	}
	fmt.Fprintf(out, "linger: %v (%s live; ctrl-c to stop early)\n", d, what)
	select {
	case <-ctx.Done():
	case <-time.After(d): // an unfired timer is collected once unreferenced (Go 1.23+)
	}
}
