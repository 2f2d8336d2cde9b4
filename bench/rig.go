package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	menshen "repro"
	"repro/internal/p4progs"
	"repro/internal/trafficgen"
)

// Engine settings shared by every engine-fed workload (ISSUE "load
// sizing"): one worker, batches of 32, rings of 4096.
const (
	batchSize  = 32
	queueDepth = 4096
	// sampleEvery is the goodput sampling interval.
	sampleEvery = 100 * time.Millisecond
	// latencySlice is the slice length for the per-slice p99.
	latencySlice = 5 * time.Second
	// reconfigEvery is the cadence of live reconfigurations in the engine
	// workloads, from before the warm-up to the end of the window. A reload
	// takes well under a millisecond, so the control goroutine mostly
	// sleeps, and a 100 ms latency slice or goodput interval loses at most
	// that millisecond to it.
	reconfigEvery = 250 * time.Millisecond
)

// Tenant IDs. The reload tenant exists in every workload so
// reconfig_p50_ms is defined everywhere; only tenants_noisy_reconfig
// sends it traffic.
const (
	tenantMain   uint16 = 1 // CALC / Load Balancing / the victim
	tenantNoisy  uint16 = 2 // Firewall aggressor
	tenantReload uint16 = 3 // NetCache, unloaded and reloaded live
)

func mustSource(name string) string {
	p, err := p4progs.ByName(name)
	if err != nil {
		panic(err) // program names are constants of this file set
	}
	return p.Source()
}

// --- stamps -----------------------------------------------------------

// stampBytes is the size of the sample stamp kept in a frame's trailing
// padding, outside every module's deparse window.
const stampBytes = 4

// stamper hands out sequence numbers for timed frames and remembers
// when each was due. The stamp in the frame is only the sequence
// number; the due time stays on this side, so the frame carries nothing
// the program could be said to have been told.
type stamper struct {
	due [1 << 16]atomic.Int64 // ring; far deeper than any in-flight window here
	seq uint32
}

// next reserves a stamp for frames due at dueNs.
func (s *stamper) next(dueNs int64) uint32 {
	s.seq++
	if s.seq == 0 { // 0 means "not stamped"
		s.seq = 1
	}
	s.due[s.seq&(1<<16-1)].Store(dueNs)
	return s.seq
}

// mark writes a stamp into the frame's last four bytes.
func mark(frame []byte, seq uint32) {
	binary.BigEndian.PutUint32(frame[len(frame)-stampBytes:], seq)
}

// lookup returns the due time of a delivered frame's stamp.
func (s *stamper) lookup(frame []byte) (dueNs int64, ok bool) {
	seq := binary.BigEndian.Uint32(frame[len(frame)-stampBytes:])
	if seq == 0 {
		return 0, false
	}
	return s.due[seq&(1<<16-1)].Load(), true
}

// --- latency recorder --------------------------------------------------

// latRecorder bins latency samples into latencySlice slices of the
// measured window. add is called from one goroutine only (the single
// worker, or the run-to-completion loop); start may come from another.
type latRecorder struct {
	t0     atomic.Int64 // window start on the run clock; 0 = not measuring yet
	slices [][]uint32   // nanoseconds, saturating
}

func newLatRecorder(window time.Duration, perSecond int) *latRecorder {
	n := int((window + latencySlice - 1) / latencySlice)
	r := &latRecorder{slices: make([][]uint32, n)}
	for i := range r.slices {
		r.slices[i] = make([]uint32, 0, int(latencySlice/time.Second)*(perSecond+perSecond/4))
	}
	return r
}

func (r *latRecorder) start(t0 int64) { r.t0.Store(t0) }

func (r *latRecorder) add(now, latNs int64) {
	t0 := r.t0.Load()
	if t0 == 0 || now < t0 {
		return
	}
	i := int((now - t0) / int64(latencySlice))
	if i >= len(r.slices) {
		return
	}
	if latNs < 0 {
		latNs = 0
	}
	if latNs > 1<<32-1 {
		latNs = 1<<32 - 1
	}
	r.slices[i] = append(r.slices[i], uint32(latNs))
}

// sinkConfig is the benchmark-side equipment of a sink, allocated once
// per pass and installed before the engine starts (the worker reads it
// without further synchronisation).
type sinkConfig struct {
	st      *stamper
	rec     *latRecorder
	spans   *spanBuf // traced pass only
	corrupt bool     // test hook, see sink.corrupt
}

func newSinkConfig(window time.Duration, samplesPerSecond int) *sinkConfig {
	return &sinkConfig{st: &stamper{}, rec: newLatRecorder(window, samplesPerSecond)}
}

// --- goodput sampler ----------------------------------------------------

// sampler is driven by the generating loop itself (no extra thread): it
// turns "now" and the delivered-frame count into warm-up / window
// bookkeeping and 100 ms interval samples.
type sampler struct {
	t0, t1  int64 // measured window on the run clock
	next    int64
	nanos   []int64
	counts  []uint64
	started bool
	ended   bool
	onStart func(now int64) // window opens
	onEnd   func(now int64) // window closes
}

func newSampler(start int64, warmup, window time.Duration) *sampler {
	t0 := start + int64(warmup)
	return &sampler{t0: t0, t1: t0 + int64(window), next: t0,
		nanos:  make([]int64, 0, int(window/sampleEvery)+2),
		counts: make([]uint64, 0, int(window/sampleEvery)+2)}
}

// tick reports whether the run should go on; delivered is the
// sink-observed frame count so far.
func (s *sampler) tick(now int64, delivered uint64) bool {
	if s.ended {
		return false
	}
	if now < s.next {
		return true
	}
	if !s.started {
		s.started = true
		if s.onStart != nil {
			s.onStart(now)
		}
	}
	s.nanos = append(s.nanos, now)
	s.counts = append(s.counts, delivered)
	s.next += int64(sampleEvery)
	if s.next <= now { // a stall skipped intervals; do not sample them late
		s.next = now + int64(sampleEvery)
	}
	if now < s.t1 {
		return true
	}
	s.ended = true
	if s.onEnd != nil {
		s.onEnd(now)
	}
	return false
}

// window is the measured span actually covered by samples, ns, and the
// frames delivered in it.
func (s *sampler) window() (ns int64, frames uint64) {
	if len(s.nanos) < 2 {
		return 0, 0
	}
	last := len(s.nanos) - 1
	return s.nanos[last] - s.nanos[0], s.counts[last] - s.counts[0]
}

// --- sink ---------------------------------------------------------------

// tenantSink is what the counting sink knows about one tenant.
type tenantSink struct {
	calc      bool // verify CALC results
	stamped   bool // frames carry latency stamps
	delivered atomic.Uint64
	wrong     atomic.Uint64
}

// sink is the engine's OnBatch: it counts, checks contents, and times
// stamped frames. It runs on worker goroutines.
type sink struct {
	now     clock
	st      *stamper
	rec     *latRecorder // nil when more than one worker runs
	tenants [8]tenantSink
	total   atomic.Uint64 // forwarded frames over all tenants
	spans   *spanBuf      // traced pass only; single worker
	// corrupt makes the CALC expectation wrong on purpose; it exists so a
	// test can prove a bad output fails the run.
	corrupt bool
}

func (s *sink) onBatch(_ int, tenant uint16, res []menshen.EngineResult) {
	ts := &s.tenants[tenant&7]
	id := int32(-1)
	if s.spans.sample() {
		id = s.spans.begin("sink.OnBatch", -1)
	}
	var now int64
	var n, wrong uint64
	for i := range res {
		r := &res[i]
		if r.Dropped { // counted by the engine as a pipeline drop
			continue
		}
		d := r.Data
		n++
		if ts.calc && !calcOK(d, s.corrupt) {
			wrong++
		}
		if ts.stamped && s.rec != nil {
			if due, ok := s.st.lookup(d); ok {
				if now == 0 {
					now = s.now()
				}
				s.rec.add(now, now-due)
			}
		}
	}
	ts.delivered.Add(n)
	if wrong > 0 {
		ts.wrong.Add(wrong)
	}
	s.total.Add(n)
	s.spans.end(id, len(res))
}

// calcOK recomputes a processed CALC frame's result from the operands
// it still carries and compares it with what the module wrote.
func calcOK(d []byte, corrupt bool) bool {
	const off = 46 // packet.StandardHeaderLen: the CALC header follows Eth+VLAN+IPv4+UDP
	if len(d) < off+14 {
		return false
	}
	op := binary.BigEndian.Uint16(d[off:])
	a := binary.BigEndian.Uint32(d[off+2:])
	b := binary.BigEndian.Uint32(d[off+6:])
	var want uint32
	switch op {
	case trafficgen.CalcAdd:
		want = a + b
	case trafficgen.CalcSub:
		want = a - b
	case trafficgen.CalcEcho:
		want = a
	default:
		return false
	}
	if corrupt {
		want++
	}
	got, err := trafficgen.CalcResult(d)
	return err == nil && got == want
}

// --- engine rig -----------------------------------------------------------

// rigModule is one module to load.
type rigModule struct {
	id      uint16
	program string // Table 3 name
	calc    bool
	stamped bool
}

// engineRig is a device, a running engine on it, and the counting sink.
type engineRig struct {
	dev  *menshen.Device
	eng  *menshen.Engine
	sink *sink
	now  clock
	// detach tears down whatever feeds the engine from outside (the
	// socket front door of unix64_wire); nil otherwise.
	detach func()
}

// buildEngineRig is the system set-up timed by setup_s: device build,
// module compile + load, engine start.
//
// sc is the benchmark's own bookkeeping (nil to time nothing); it is
// handed in so that allocating it — half a megabyte of stamp ring,
// megabytes of samples — is not billed to the system's set-up time.
func buildEngineRig(mods []rigModule, ecfg menshen.EngineConfig, now clock, sc *sinkConfig) (*engineRig, error) {
	dev := menshen.NewDevice(menshen.WithPlatform(menshen.PlatformCorundumOptimized))
	sk := &sink{now: now}
	if sc != nil {
		sk.st, sk.rec, sk.spans, sk.corrupt = sc.st, sc.rec, sc.spans, sc.corrupt
	}
	for _, m := range mods {
		if _, err := dev.LoadModule(mustSource(m.program), m.id); err != nil {
			return nil, fmt.Errorf("loading %s as module %d: %w", m.program, m.id, err)
		}
		sk.tenants[m.id&7].calc = m.calc
		sk.tenants[m.id&7].stamped = m.stamped
	}
	ecfg.BatchSize = batchSize
	if ecfg.QueueDepth == 0 {
		ecfg.QueueDepth = queueDepth
	}
	ecfg.OnBatch = sk.onBatch
	eng, err := dev.NewEngine(ecfg)
	if err != nil {
		return nil, fmt.Errorf("starting engine: %w", err)
	}
	return &engineRig{dev: dev, eng: eng, sink: sk, now: now}, nil
}

// prime pushes one batch through and waits for it: the end of set-up is
// the first delivered frame.
func (r *engineRig) prime(frames [][]byte) error {
	n, err := r.eng.SubmitBatch(frames)
	if err != nil {
		return err
	}
	if n != len(frames) {
		return fmt.Errorf("priming batch: %d of %d frames accepted", n, len(frames))
	}
	r.eng.Drain()
	if got := r.sink.total.Load(); got == 0 {
		return fmt.Errorf("priming batch: nothing delivered")
	}
	return nil
}

// reconfigurer reloads one tenant on a timer while traffic flows.
type reconfigurer struct {
	mu     sync.Mutex
	starts []int64   // run-clock start of each operation
	ms     []float64 // wall time of each operation
	errs   []error
	stop   chan struct{}
	done   chan struct{}
}

// startReconfig launches the mostly-sleeping control goroutine: at
// every tick it unloads the tenant and loads it back through the
// verified (§4.1) path, timing the pair up to the point every shard has
// applied it.
func (r *engineRig) startReconfig(id uint16, program string, every time.Duration, sp *spanBuf) *reconfigurer {
	rc := &reconfigurer{stop: make(chan struct{}), done: make(chan struct{})}
	src := mustSource(program)
	go func() {
		defer close(rc.done)
		tk := time.NewTicker(every)
		defer tk.Stop()
		for {
			select {
			case <-rc.stop:
				return
			case <-tk.C:
			}
			start := r.now()
			sp.always()
			op := sp.begin("engine.reconfig", -1)
			err := r.reloadOnce(id, src, sp, op)
			sp.end(op, 0)
			end := r.now()
			rc.mu.Lock()
			rc.starts = append(rc.starts, start)
			rc.ms = append(rc.ms, float64(end-start)/1e6)
			if err != nil {
				rc.errs = append(rc.errs, err)
			}
			rc.mu.Unlock()
		}
	}()
	return rc
}

// reloadOnce is one live unload + verified load, waited to quiescence.
func (r *engineRig) reloadOnce(id uint16, src string, sp *spanBuf, parent int32) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s := sp.begin("engine.UnloadModule", parent)
	_, err := r.eng.UnloadModule(id)
	sp.end(s, 0)
	if err != nil {
		return fmt.Errorf("unload: %w", err)
	}
	s = sp.begin("engine.LoadModuleVerified", parent)
	_, gen, _, err := r.eng.LoadModuleVerified(ctx, src, id, menshen.VerifyOpts{})
	sp.end(s, 0)
	if err != nil {
		return fmt.Errorf("verified load: %w", err)
	}
	s = sp.begin("engine.AwaitQuiesce", parent)
	err = r.eng.AwaitQuiesceCtx(ctx, gen)
	sp.end(s, 0)
	return err
}

// finish stops the control goroutine, waits for it, and returns the
// operations that started inside [t0, t1).
func (rc *reconfigurer) finish(t0, t1 int64) (ms []float64, errs []error) {
	close(rc.stop)
	<-rc.done
	for i, s := range rc.starts {
		if s >= t0 && s < t1 {
			ms = append(ms, rc.ms[i])
		}
	}
	return ms, rc.errs
}

// tenantLedger closes one tenant's account from the engine's counters
// and the sink's observations. offered is what the generator handed to
// the engine (or, behind a socket, what ingress handed to it).
func (r *engineRig) tenantLedger(name string, id uint16, offered uint64, gated bool, st *menshen.EngineStats) ledgerLine {
	ts := st.Tenants[id]
	sk := &r.sink.tenants[id&7]
	l := ledgerLine{
		Tenant:    name,
		Offered:   offered,
		Delivered: sk.delivered.Load(),
		Discarded: ts.PipelineDrops,
		Drops: map[string]uint64{
			"rate_limited": ts.RateLimited,
			"queue_full":   ts.QueueFull,
			"egress":       ts.EgressDropped,
		},
		Wrong: sk.wrong.Load(),
		Gated: gated,
	}
	l.close()
	if l.Closed && ts.Submitted != offered {
		l.Closed = false
		l.Detail = fmt.Sprintf("engine counted %d submitted frames, generator offered %d", ts.Submitted, offered)
	}
	return l
}

// --- process-level snapshots ------------------------------------------------

// procSnap is the process-wide state read at window edges.
type procSnap struct {
	cpuNs     int64 // user+system CPU time
	mallocs   uint64
	gcPauseNs uint64
	readCalls uint64 // syscr from /proc/self/io; 0 when unreadable
	ioOK      bool
}

func snapProc() procSnap {
	var p procSnap
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpuNs = ru.Utime.Nano() + ru.Stime.Nano()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.mallocs = ms.Mallocs
	p.gcPauseNs = ms.PauseTotalNs
	p.readCalls, p.ioOK = procField("/proc/self/io", "syscr:")
	return p
}

// procField reads one "key value[ unit]" line of a /proc file.
func procField(path, key string) (uint64, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0, false
			}
			v, err := strconv.ParseUint(f[0], 10, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// peakRSSMiB is VmHWM, the process's high-water resident set.
func peakRSSMiB() float64 {
	kb, ok := procField("/proc/self/status", "VmHWM:")
	if !ok {
		return 0
	}
	return float64(kb) / 1024
}
