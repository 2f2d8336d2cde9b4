package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	menshen "repro"
	"repro/internal/ingress"
	"repro/internal/trafficgen"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	window   time.Duration // measured window
	warmup   time.Duration // fixed warm-up before it
	trace    bool          // per-layer (traced) run
	out      string        // optional JSON sidecar path
	// Tests shrink the next three; the command line cannot, so two outputs
	// under one workload name are always comparable. 0 = the default.
	flows   int  // exact-match flows in the flows256k_* workloads (flowCount)
	setups  int  // timed set-ups per run
	reloads int  // reloads after the window of the run-to-completion workloads
	corrupt bool // test hook: expect wrong CALC results
}

// reloadCount is how many reloads the run-to-completion workloads make
// after their window.
func (c *config) reloadCount(def int) int {
	if c.reloads > 0 {
		return c.reloads
	}
	return def
}

// flowCount is how many exact-match flows the flows256k_* workloads
// install.
func (c *config) flowCount() int {
	if c.flows > 0 {
		return c.flows
	}
	return 262144
}

// workload is one named set of inputs.
type workload struct {
	name string
	why  string // one line, mirrored in BENCHMARK.json
	// busyThreads is how many threads the workload keeps runnable; more
	// than nproc means its numbers are flagged oversubscribed.
	busyThreads int
	link        string
	// run executes one full pass (set-ups, warm-up, window, teardown,
	// ledger); tr is nil for the untraced pass.
	run func(cfg *config, tr *tracer) (*pass, error)
	// layers measures the workload-specific per-layer metrics.
	layers func(cfg *config, ls *layerSet) error
}

const inProcess = "none (in-process calls)"

var workloads = []workload{
	{
		name:        "calc64_sat",
		why:         "CALC, 64 B frames, closed-loop saturation of one worker: the engine hand-off (steer, copy, ring, wake) dominates",
		busyThreads: 2, link: inProcess,
		run: runCalcSat, layers: layersCalc,
	},
	{
		name:        "calc64_paced",
		why:         "same frames open-loop at 200 kpps in bursts of 8: worker wake-up and adaptive batching dominate latency",
		busyThreads: 2, link: inProcess,
		run: runCalcPaced, layers: layersCalc,
	},
	{
		name:        "flows256k_zipf_rtc",
		why:         "Load Balancing, 262144 cuckoo flows, Zipf(1.1) popularity, run to completion: flow cache mostly hits",
		busyThreads: 1, link: inProcess,
		run: func(c *config, t *tracer) (*pass, error) { return runFlows(c, t, true) }, layers: layersFlowsZipf,
	},
	{
		name:        "flows256k_uniform_rtc",
		why:         "same tables, uniform flow choice: working set 4x the flow cache, so the match layer runs its miss path",
		busyThreads: 1, link: inProcess,
		run: func(c *config, t *tracer) (*pass, error) { return runFlows(c, t, false) }, layers: layersFlowsUniform,
	},
	{
		name:        "tenants_noisy_reconfig",
		why:         "paced victim beside a flat-out aggressor and a tenant reloaded every 250 ms: the paper's isolation claim",
		busyThreads: 2, link: inProcess,
		run: runTenants, layers: layersTenants,
	},
	{
		name:        "unix64_wire",
		why:         "unixgram socket in, counting sink out, closed loop: syscall-per-frame RX dominates; host loopback, not a link",
		busyThreads: 3, link: "host loopback (unixgram socket), not a link",
		run: runWire, layers: layersWire,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// pass is what one execution of a workload measured.
type pass struct {
	setupS     []float64
	smp        *sampler
	slices     [][]uint32 // latency samples per slice of the window
	reconfigMs []float64
	ledger     []ledgerLine
	problems   []string
	notes      []string

	// Window-edge snapshots, used by the per-layer pass.
	st0, st1     menshen.EngineStats
	proc0, proc1 procSnap
	lateFrac     float64
	extra        map[string]float64 // workload-specific layer inputs
	// peakRSSMiB is VmHWM read when the system under test is done, before
	// the benchmark sorts its own samples (which would otherwise be the
	// peak on the paced workloads).
	peakRSSMiB float64
}

func (p *pass) problem(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// goodputMpps is delivered frames per wall second: the median rate of
// the window's 100 ms intervals, and how many there were.
func (p *pass) goodputMpps() (mpps float64, intervals int) {
	perSecond, n := intervalMedian(p.smp.nanos, p.smp.counts)
	return perSecond / 1e6, n
}

// calcPool pre-generates CALC frames for one tenant, flow-diverse and
// seeded. Its length is a multiple of every burst size used, so a frame
// always sits at the same position within its burst.
func calcPool(seed uint64, id uint16, frameBytes int) [][]byte {
	gen := trafficgen.DefaultGen("CALC", id, frameBytes, 64, trafficgen.NewPRNG(seed))
	pool := make([][]byte, 1024)
	for i := range pool {
		pool[i] = gen(i)
	}
	return pool
}

// timedSetups runs build the configured number of times and keeps the
// last result. Earlier builds are torn down and collected so that
// repeating the set-up (to report its median) does not inflate peak
// RSS; heavy set-ups (tens of MiB of tables) also hand the freed memory
// back to the OS, light ones do not (they would only time the page
// faults of getting it back).
func timedSetups[T any](cfg *config, def int, heavy bool, p *pass, build func() (T, error), teardown func(T)) (T, error) {
	n := cfg.setups
	if n <= 0 {
		n = def
	}
	if cfg.trace {
		n = 1
	}
	var last T
	for i := 0; i < n; i++ {
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, err
		}
		p.setupS = append(p.setupS, time.Since(start).Seconds())
		last = v
		if i < n-1 {
			teardown(v)
			runtime.GC()
			if heavy {
				debug.FreeOSMemory()
			}
		}
	}
	return last, nil
}

// --- engine-fed workloads -----------------------------------------------

// engineRun is the part shared by the engine-fed passes: timed set-ups,
// the reload goroutine, window-edge snapshots, drain, ledger.
type engineRun struct {
	tr  *tracer
	p   *pass
	rig *engineRig
	smp *sampler
	// rc unloads and reloads the spare tenant every reconfigEvery from
	// before the warm-up to the end of the window; the reloads that start
	// inside the window are reconfig_p50_ms.
	rc *reconfigurer
	// setUpAgain is the second round of timed set-ups, made when the run
	// is over.
	setUpAgain func() error
}

// setupsPerRound is how many times an engine workload is set up, and
// timed, in each of its two rounds: before the warm-up and after the
// engine under test is closed, some 17 s later. The host's cores switch
// between two speeds 27 % apart every few seconds (README "Noise"), and a
// round lasts 25 ms: one round alone reads whichever speed it met.
const setupsPerRound = 51

// startEngineRun sets the system up (timed) and prepares the window.
func startEngineRun(cfg *config, tr *tracer, mods []rigModule, ecfg menshen.EngineConfig, samplesPerSecond int, prime [][]byte, attach func(*engineRig) error) (*engineRun, error) {
	now := monoClock()
	p := &pass{extra: map[string]float64{}}
	sc := newSinkConfig(cfg.window, samplesPerSecond)
	sc.corrupt = cfg.corrupt
	sc.spans = tr.thread("worker")
	build := func(sc *sinkConfig) func() (*engineRig, error) {
		return func() (*engineRig, error) {
			rig, err := buildEngineRig(mods, ecfg, now, sc)
			if err != nil {
				return nil, err
			}
			if attach != nil {
				if err := attach(rig); err != nil {
					return nil, err
				}
				return rig, nil // the attach hook primes through its own front door
			}
			return rig, rig.prime(prime)
		}
	}
	teardown := func(r *engineRig) {
		if r.detach != nil {
			r.detach()
		}
		_ = r.eng.Close()
	}
	rig, err := timedSetups(cfg, setupsPerRound, false, p, build(sc), teardown)
	if err != nil {
		return nil, err
	}
	// Start the run from a collected heap, so that how much set-up
	// garbage happens to be lying around does not decide peak RSS.
	runtime.GC()
	er := &engineRun{tr: tr, p: p, rig: rig}
	er.setUpAgain = func() error {
		// Same stamp ring, nothing recorded: these rigs only prime and close.
		last, err := timedSetups(cfg, setupsPerRound, false, p, build(&sinkConfig{st: sc.st}), teardown)
		if err == nil {
			teardown(last)
		}
		return err
	}
	er.rc = rig.startReconfig(tenantReload, "NetCache", reconfigEvery, tr.thread("control"))
	er.smp = newSampler(now(), cfg.warmup, cfg.window)
	er.smp.onStart = func(t int64) {
		if rig.sink.rec != nil {
			rig.sink.rec.start(t)
		}
		rig.eng.StatsInto(&p.st0)
		p.proc0 = snapProc()
	}
	er.smp.onEnd = func(int64) {
		rig.eng.StatsInto(&p.st1)
		p.proc1 = snapProc()
	}
	p.smp = er.smp
	return er, nil
}

// finish stops the reload goroutine, drains, closes the ledger and the
// engine, and makes the second round of timed set-ups.
func (er *engineRun) finish(offered map[uint16]uint64, names map[uint16]string, gated uint16) *pass {
	p, rig := er.p, er.rig
	ms, errs := er.rc.finish(er.smp.nanos[0], er.smp.t1)
	p.reconfigMs = ms
	for _, err := range errs {
		p.problem("live reconfiguration failed: %v", err)
	}
	rig.eng.Drain()
	st := rig.eng.Stats()
	for _, id := range []uint16{tenantMain, tenantNoisy, tenantReload} {
		name, ok := names[id]
		if !ok {
			continue
		}
		l := rig.tenantLedger(name, id, offered[id], id == gated, &st)
		if id == gated && l.lost() > 0 {
			// Say when the frames went missing: warm-up, window, or drain.
			q0, q1 := p.st0.Tenants[id].QueueFull, p.st1.Tenants[id].QueueFull
			p.notes = append(p.notes, fmt.Sprintf("%s queue-full drops: %d before the window, %d inside it, %d after it",
				name, q0, q1-q0, st.Tenants[id].QueueFull-q1))
		}
		p.ledger = append(p.ledger, l)
	}
	if st.ReconfigFailed != 0 || st.VerifyFailures != 0 {
		p.problem("engine reports %d failed control operations, %d verify failures", st.ReconfigFailed, st.VerifyFailures)
	}
	p.extra["reconfig_retries"] = float64(st.ReconfigRetries)
	p.extra["reconfig_failed"] = float64(st.ReconfigFailed + st.VerifyFailures)
	if rig.sink.rec != nil {
		p.slices = rig.sink.rec.slices
	}
	if err := rig.eng.Close(); err != nil {
		p.problem("closing engine: %v", err)
	}
	p.peakRSSMiB = peakRSSMiB()
	if err := er.setUpAgain(); err != nil {
		p.problem("second round of set-ups: %v", err)
	}
	return p
}

var reloadModule = rigModule{id: tenantReload, program: "NetCache"}

// calcMods is the module set of the three CALC workloads.
func calcMods() []rigModule {
	return []rigModule{{id: tenantMain, program: "CALC", calc: true, stamped: true}, reloadModule}
}

// Frames kept in flight by the closed-loop generators: half the ring
// for calc64_sat; for unix64_wire fewer than the kernel queues on a
// unixgram socket (net.unix.max_dgram_qlen, 512 by default), so the
// sender never sleeps in write().
const (
	satWindow  = queueDepth / 2
	wireWindow = 256
)

// runCalcSat: closed loop with 2048 frames in flight, SubmitBatch(32) at
// a time. One frame per batch is stamped; its latency is submit call →
// delivery, i.e. the round trip a caller sees at saturation.
func runCalcSat(cfg *config, tr *tracer) (*pass, error) {
	pool := calcPool(cfg.seed, tenantMain, 64)
	// One stamped frame per batch: 160000 samples a second cover 5 Mpps
	// without the sample slices growing (and moving peak_rss_mb) mid-run.
	er, err := startEngineRun(cfg, tr, calcMods(), menshen.EngineConfig{Workers: 1}, 160000, pool[:batchSize], nil)
	if err != nil {
		return nil, err
	}
	offered := saturate(er, pool, satWindow, er.rig.eng.SubmitBatch, "engine.SubmitBatch")
	offered += batchSize // the priming batch
	return er.finish(map[uint16]uint64{tenantMain: offered}, map[uint16]string{tenantMain: "calc", tenantReload: "reload"}, tenantMain), nil
}

// saturate is the closed-loop generator shared by calc64_sat and
// unix64_wire: it keeps window frames in flight — handing over the next
// batch of 32 as soon as the sink has seen enough of the earlier ones —
// so the worker never runs dry and the generator never parks inside the
// system. (Letting SubmitBatch block on a full ring instead makes
// throughput depend on how slowly the parked generator happens to be
// woken: 1.3 to 3.0 Mpps from one run to the next on the reference box.)
// While the window is full the generator sleeps a few tens of
// microseconds at a time (2048 frames are half a millisecond of work for
// the worker, so it cannot run dry). Sleeping, not spinning or yielding,
// is what gives the reload goroutine a CPU: a goroutine made runnable
// beside a worker that never blocks otherwise waits for the 10 ms
// preemption tick, and reconfig_p50_ms then measures the Go scheduler.
func saturate(er *engineRun, pool [][]byte, window uint64, send func([][]byte) (int, error), spanName string) (offered uint64) {
	rig, smp := er.rig, er.smp
	sp := er.tr.thread("generator")
	base := rig.sink.total.Load()
	for i := 0; ; i += batchSize {
		if i == len(pool) {
			i = 0
		}
		delivered := rig.sink.total.Load()
		now := rig.now()
		if !smp.tick(now, delivered) {
			break
		}
		for stalled := rig.now(); offered-(delivered-base) >= window; delivered = rig.sink.total.Load() {
			time.Sleep(20 * time.Microsecond)
			if rig.now()-stalled > int64(5*time.Second) {
				er.p.problem("%s: %d frames in flight made no progress for 5 s", spanName, offered-(delivered-base))
				return offered
			}
		}
		batch := pool[i : i+batchSize]
		mark(batch[0], rig.sink.st.next(rig.now()))
		sp.sample()
		id := sp.begin(spanName, -1)
		n, err := send(batch)
		sp.end(id, n)
		offered += uint64(len(batch))
		if err != nil {
			er.p.problem("%s: %v", spanName, err)
			break
		}
	}
	return offered
}

// runCalcPaced: open loop at 200 kpps in bursts of 8; every frame is
// stamped and timed from its burst's due time.
func runCalcPaced(cfg *config, tr *tracer) (*pass, error) {
	const ratePPS, burst = 200000, 8
	pool := calcPool(cfg.seed, tenantMain, 64)
	er, err := startEngineRun(cfg, tr, calcMods(), menshen.EngineConfig{Workers: 1}, ratePPS, pool[:batchSize], nil)
	if err != nil {
		return nil, err
	}
	rig, smp := er.rig, er.smp
	sp := er.tr.thread("generator")
	pc := newPacer(rig.now(), ratePPS, burst)
	offered := uint64(batchSize)
	for i := 0; ; i += burst {
		if i == len(pool) {
			i = 0
		}
		sp.sample()
		id := sp.begin("loadgen.spin", -1)
		due := pc.spin(rig.now)
		sp.end(id, 0)
		if !smp.tick(rig.now(), rig.sink.total.Load()) {
			break
		}
		batch := pool[i : i+burst]
		seq := rig.sink.st.next(due)
		for _, f := range batch {
			mark(f, seq)
		}
		id = sp.begin("engine.SubmitBatch", -1)
		n, err := rig.eng.SubmitBatch(batch)
		sp.end(id, n)
		pc.fired(rig.now())
		offered += burst
		if err != nil {
			er.p.problem("SubmitBatch: %v", err)
			break
		}
	}
	er.p.lateFrac = pc.lateFrac()
	er.p.extra["max_late_us"] = float64(pc.maxLate) / 1e3
	return er.finish(map[uint16]uint64{tenantMain: offered}, map[uint16]string{tenantMain: "calc", tenantReload: "reload"}, tenantMain), nil
}

// tenantsTraffic pre-generates the three tenants' frames of
// tenants_noisy_reconfig: victim CALC at 128 B, aggressor Firewall at
// 1500 B (none of its flows matches a deny rule), reload tenant NetCache
// at 64 B.
func tenantsTraffic(seed uint64) (victim, noisy, reload [][]byte) {
	victim = calcPool(seed, tenantMain, 128)
	noisyGen := trafficgen.DefaultGen("Firewall", tenantNoisy, 1500, 64, trafficgen.NewPRNG(seed+1))
	reloadGen := trafficgen.DefaultGen("NetCache", tenantReload, 64, 8, trafficgen.NewPRNG(seed+2))
	noisy = make([][]byte, 256)
	for i := range noisy {
		noisy[i] = noisyGen(i)
	}
	reload = make([][]byte, 64)
	for i := range reload {
		reload[i] = reloadGen(i)
	}
	return victim, noisy, reload
}

// tenantsMods and tenantsWeights are the module set and egress weights
// (V:A:R = 2:1:1) of tenants_noisy_reconfig.
func tenantsMods() []rigModule {
	return []rigModule{
		{id: tenantMain, program: "CALC", calc: true, stamped: true},
		{id: tenantNoisy, program: "Firewall"},
		reloadModule,
	}
}

func tenantsWeights() map[uint16]float64 {
	return map[uint16]float64{tenantMain: 2, tenantNoisy: 1, tenantReload: 1}
}

// runTenants: one generator goroutine offers the victim (CALC, 128 B)
// at 100 kpps in bursts of 8, floods the aggressor (Firewall, 1500 B)
// between victim bursts, and trickles the reload tenant (NetCache),
// which the control goroutine unloads and reloads every 250 ms. Only
// the victim's numbers are gated.
func runTenants(cfg *config, tr *tracer) (*pass, error) {
	const ratePPS, burst = 100000, 8
	// The aggressor stops this long before the victim's due time: about
	// one 32 x 1500 B submit, so a flood call rarely overruns it.
	const floodGuard = 12 * time.Microsecond
	const trickleEvery = 8 // victim bursts per reload-tenant frame

	victim, noisy, reload := tenantsTraffic(cfg.seed)
	ecfg := menshen.EngineConfig{Workers: 1, DropOnFull: true, EgressWeights: tenantsWeights()}
	er, err := startEngineRun(cfg, tr, tenantsMods(), ecfg, ratePPS, victim[:batchSize], nil)
	if err != nil {
		return nil, err
	}
	rig, smp := er.rig, er.smp
	sp := er.tr.thread("generator")
	pc := newPacer(rig.now(), ratePPS, burst)
	offered := map[uint16]uint64{tenantMain: batchSize}
	vs := &rig.sink.tenants[tenantMain]
	for i, j, k, bursts := 0, 0, 0, 0; ; i += burst {
		if i == len(victim) {
			i = 0
		}
		sp.sample()
		for rig.now() < pc.due()-int64(floodGuard) {
			id := sp.begin("engine.SubmitBatch.aggressor", -1)
			n, err := rig.eng.SubmitBatch(noisy[j : j+batchSize])
			sp.end(id, n)
			offered[tenantNoisy] += batchSize
			if j += batchSize; j == len(noisy) {
				j = 0
			}
			if err != nil {
				er.p.problem("aggressor SubmitBatch: %v", err)
				break
			}
		}
		due := pc.spin(rig.now)
		if !smp.tick(rig.now(), vs.delivered.Load()) {
			break
		}
		// The victim never has more frames outstanding than its ring holds.
		// On the reference box the host takes a vCPU away for 50-350 ms
		// about once in ten runs; 4096 slots are 41 ms of 100 kpps. Such a
		// stall must show as victim latency and generator lateness (both
		// timed from the due time), not as the victim "losing" frames to a
		// ring that the engine was never given the chance to drain.
		for t0 := rig.now(); offered[tenantMain]-vs.delivered.Load() > queueDepth-2*burst; {
			if rig.now()-t0 > int64(5*time.Second) {
				er.p.problem("victim: %d frames outstanding made no progress for 5 s", offered[tenantMain]-vs.delivered.Load())
				return er.finish(offered, map[uint16]string{tenantMain: "victim", tenantNoisy: "aggressor", tenantReload: "reload"}, tenantMain), nil
			}
		}
		batch := victim[i : i+burst]
		seq := rig.sink.st.next(due)
		for _, f := range batch {
			mark(f, seq)
		}
		id := sp.begin("engine.SubmitBatch.victim", -1)
		n, err := rig.eng.SubmitBatch(batch)
		sp.end(id, n)
		pc.fired(rig.now())
		offered[tenantMain] += burst
		if err != nil {
			er.p.problem("victim SubmitBatch: %v", err)
			break
		}
		// Once per victim period the generator offers its CPU to the control
		// goroutine. Both CPUs are busy for the whole run (this loop and the
		// worker, which the aggressor keeps saturated), so without the
		// yield a reload step made runnable waits for the Go scheduler's
		// 10 ms preemption tick and reconfig_p50_ms measures that tick.
		// With it the reload takes its CPU time from the generator, which
		// shows as generator lateness.
		runtime.Gosched()
		if bursts++; bursts%trickleEvery == 0 {
			if _, err := rig.eng.SubmitBatch(reload[k : k+1]); err != nil {
				er.p.problem("reload-tenant SubmitBatch: %v", err)
				break
			}
			offered[tenantReload]++
			if k++; k == len(reload) {
				k = 0
			}
		}
	}
	er.p.lateFrac = pc.lateFrac()
	er.p.extra["max_late_us"] = float64(pc.maxLate) / 1e3
	names := map[uint16]string{tenantMain: "victim", tenantNoisy: "aggressor", tenantReload: "reload"}
	return er.finish(offered, names, tenantMain), nil
}

// runWire: LoadClient over a unixgram socket → ingress RX loop → engine
// → counting sink. The kernel blocks the sender at a full receive
// queue, so the loop is closed and loss is exactly zero.
func runWire(cfg *config, tr *tracer) (*pass, error) {
	pool := calcPool(cfg.seed, tenantMain, 64)
	var wire *wireEnd // the front door of the rig built last
	attach := func(rig *engineRig) error {
		w, err := attachWire(rig, pool[:batchSize])
		wire = w
		return err
	}
	er, err := startEngineRun(cfg, tr, calcMods(), menshen.EngineConfig{Workers: 1}, 20000, nil, attach)
	if err != nil {
		return nil, err
	}
	offered := saturate(er, pool, wireWindow, wire.client.SendBatch, "trafficgen.SendBatch")
	offered += batchSize
	// Everything sent must come out of the socket before the listener
	// goes away; then the ledger can be closed exactly.
	sent := wire.client.Sent()
	deadline := time.Now().Add(10 * time.Second)
	for wire.stats().Received < sent && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	is, clientDropped := wire.stats(), wire.client.Dropped()
	wire.close()
	// Behind the socket the engine is offered what ingress received; the
	// gated line is then widened to the frames the generator offered, with
	// the socket-side drop classes added.
	p := er.finish(map[uint16]uint64{tenantMain: is.Received}, map[uint16]string{tenantMain: "calc", tenantReload: "reload"}, tenantMain)
	l := &p.ledger[0]
	if l.Closed {
		l.Offered = offered
		l.Drops["client_dropped"] = clientDropped
		l.Drops["ingress_short"] = is.ShortDropped
		l.Drops["ingress_oversize"] = is.OversizeDropped
		l.Drops["socket_lost"] = sent - min(sent, is.Received+is.ShortDropped+is.OversizeDropped)
		l.close()
	}
	if is.Received != is.Submitted+is.SubmitRejected {
		p.problem("ingress received %d != submitted %d + rejected %d", is.Received, is.Submitted, is.SubmitRejected)
	}
	p.extra["ingress_received"] = float64(is.Received)
	p.extra["ingress_dropped"] = float64(is.ShortDropped + is.OversizeDropped + is.SubmitRejected)
	return p, nil
}

// wireEnd is the socket front door of unix64_wire.
type wireEnd struct {
	src    ingress.Source
	lis    *ingress.Listeners
	client *trafficgen.LoadClient
}

// attachWire binds the unixgram listener inside the build directory of
// the checkout (a short relative path: socket paths are limited to 108
// bytes), starts the RX loop into the engine, dials the load client, and
// sends the priming batch through it.
func attachWire(rig *engineRig, prime [][]byte) (*wireEnd, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	path := fmt.Sprintf(".bench_build/wire-%d.sock", os.Getpid())
	_ = os.Remove(path)
	src, err := ingress.ListenUnixgram(path, ingress.Config{ReadBuffer: 1 << 20})
	if err != nil {
		return nil, err
	}
	w := &wireEnd{src: src, lis: ingress.NewListeners(src)}
	rig.eng.RegisterIngress(w.lis.Fill)
	w.lis.Start(rig.eng)
	rig.detach = w.close
	w.client, err = trafficgen.DialLoad("unixgram", path, ingress.Backoff{})
	if err != nil {
		w.close()
		return nil, err
	}
	if _, err := w.client.SendBatch(prime); err != nil {
		w.close()
		return nil, err
	}
	deadline := time.Now().Add(5 * time.Second)
	for rig.sink.total.Load() < uint64(len(prime)) {
		if time.Now().After(deadline) {
			w.close()
			return nil, fmt.Errorf("priming batch did not come through the socket")
		}
		time.Sleep(50 * time.Microsecond)
	}
	return w, nil
}

func (w *wireEnd) stats() menshen.IngressStats {
	var is menshen.IngressStats
	w.src.StatsInto(&is)
	return is
}

// close stops the RX goroutine (Listeners.Close waits for it) and the
// client. Idempotent.
func (w *wireEnd) close() {
	if w.client != nil {
		_ = w.client.Close()
	}
	_ = w.lis.Close()
}
