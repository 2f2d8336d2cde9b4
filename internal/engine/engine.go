// Engine lifecycle, configuration, and the submit paths. The package
// contract — buffer ownership, lifetime, the control queue — is
// documented in doc.go.
package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ctrlplane"
	"repro/internal/faultinject"
	"repro/internal/reconfig"
	"repro/internal/sched"
	"repro/internal/stage"
)

// Errors surfaced by the engine.
var (
	// ErrClosed is returned by operations on a closed engine.
	ErrClosed = errors.New("engine: closed")
)

// Defaults for Config zero values.
const (
	DefaultWorkers    = 4
	DefaultQueueDepth = 1024
	DefaultBatchSize  = 32
)

// TraceBit flags a sampled frame in the out-of-band meta word
// (BatchResult.Meta). It is the highest of the 56 carried meta bits,
// well clear of the low byte the fabric uses for hop counts, and is
// preserved across ForwardBatch hand-offs — so a frame sampled at its
// entry engine stays sampled at every downstream engine. The trace
// mark never touches the frame bytes.
const TraceBit uint64 = 1 << 55

// TraceHop is one sampled frame's record of service by a worker
// shard, delivered to Config.OnTrace right after pipeline processing.
// The value is self-contained; retaining it is safe.
type TraceHop struct {
	// Worker is the servicing shard's ID.
	Worker int
	// Tenant is the frame's tenant (module) ID.
	Tenant uint16
	// QueueDepth is the shard's remaining RX backlog (frames still
	// queued across its rings) when the frame's batch was taken — the
	// congestion the frame saw at this hop.
	QueueDepth int
	// Meta is the frame's full out-of-band word (TraceBit set; on a
	// fabric path the low byte is the hop count).
	Meta uint64
	// Dropped reports whether the pipeline discarded the frame.
	Dropped bool
	// UnixNano is the wall-clock time the hop was recorded.
	UnixNano int64
}

// ModuleSpec is one module to install into every worker's pipeline
// replica: the compiled configuration plus the placement the resource
// checker admitted it at.
type ModuleSpec struct {
	// Config is the module's compiled configuration.
	Config *core.ModuleConfig
	// Placement is the admitted resource placement.
	Placement core.Placement
}

// Config parameterizes an Engine. It is declared once: the facade's
// EngineConfig and the fabric's NodeConfig are aliases of it, and each
// fills the fields it owns (the device: Geometry, Options, Modules; the
// fabric: OnBatch, OnTrace, Pool) and rejects a config that sets them.
type Config struct {
	// Workers is the number of pipeline shards (default 4).
	Workers int
	// QueueDepth bounds each per-tenant, per-worker RX ring in frames
	// (default 1024).
	QueueDepth int
	// BatchSize is the maximum frames a worker moves through its
	// pipeline per batch (default 32).
	BatchSize int
	// DropOnFull selects the backpressure policy when a tenant's ring is
	// full: true tail-drops the frame (counted per tenant), false blocks
	// the submitter until the worker catches up.
	DropOnFull bool
	// Geometry configures each worker's pipeline replica; use the
	// device's value so shards match the loaded hardware model.
	Geometry core.Geometry
	// Options configures each replica's platform options, like Geometry.
	Options core.Options
	// Modules are replayed into every worker shard at creation.
	Modules []ModuleSpec
	// OnBatch, when set, observes every processed batch on the worker
	// goroutine. Results (including their Data buffers) are only valid
	// for the duration of the callback — copy anything retained.
	// Exception (the ownership-take contract): the callback may keep a
	// *forwarded* result's buffer by setting results[i].Data to nil
	// before returning; the engine then skips recycling that buffer
	// and the callback owns it — typically to hand it to another
	// engine via ForwardBatch, making a fabric hop a pointer move.
	//
	// With egress scheduling active (see EgressWeights) OnBatch instead
	// observes frames as the egress scheduler drains them: in weighted
	// fair rank order, forwarded frames only (pipeline drops are
	// counted in Stats but not delivered), still grouped into per-tenant
	// runs and still under the same buffer-lifetime and ownership-take
	// rules.
	OnBatch func(workerID int, tenant uint16, results []core.BatchResult)

	// EgressWeights enables §3.5 egress scheduling: processed frames
	// pass through a per-worker WFQ+PIFO stage before delivery, so
	// inter-tenant output bandwidth follows these weights regardless of
	// offered load. Tenants absent from the map are scheduled at weight
	// 1. Leave nil (and never call SetEgressWeight) to bypass the stage
	// entirely — the zero-overhead default.
	EgressWeights map[uint16]float64
	// EgressQuantum caps how many frames a worker delivers per service
	// cycle (default BatchSize, i.e. one batch out per batch in —
	// effectively work-conserving). Set it below BatchSize to model a
	// TX link slower than the pipeline: the egress queue then backs up
	// and the weighted shares become visible in the delivered stream.
	EgressQuantum int
	// EgressQuantumBytes, when > 0, additionally bounds each service
	// cycle's delivered bytes — the TX link modeled in its natural unit.
	// With mixed frame sizes a frame-denominated quantum makes the
	// modeled link speed up whenever small frames are at the head of the
	// queue; a byte quantum keeps the link's capacity constant, so fair
	// shares drain by bytes, not frames. At least one frame is always
	// delivered per cycle, and EgressQuantum still caps the frame count.
	EgressQuantumBytes int

	// TraceEvery, when > 0, samples one in every TraceEvery frames
	// entering through the local submit paths (SubmitBatch, its owned
	// form, and InjectBatch): the sampled frame's
	// out-of-band meta word gets TraceBit, which rides to OnTrace and
	// OnBatch and survives ForwardBatch hand-offs. Frames arriving via
	// ForwardBatch are never re-sampled — their metas (including any
	// upstream trace mark) are the sender's. 0 disables sampling;
	// sampling without OnTrace (or vice versa) is allowed, e.g. an
	// entry node samples while only downstream nodes record.
	TraceEvery int
	// OnTrace, when set, observes every processed frame whose meta
	// carries TraceBit, on the worker goroutine right after pipeline
	// processing (before any egress scheduling — the hop timestamp is
	// service time, not delivery time). It must be fast and must not
	// block; with sampling off or no marked frames it costs one
	// predicted branch per batch.
	OnTrace func(TraceHop)

	// Pool, when set, replaces the engine's private buffer pool —
	// normally with a NewPool instance shared by several engines, so
	// that owned buffers handed between them (ForwardBatch) keep
	// circulating through one freelist. Leave nil for a private pool.
	Pool *Pool

	// StallTimeout, when > 0, arms the per-worker watchdog: a shard
	// that has pending work (queued frames, control operations, or an
	// in-flight batch) but makes no progress for this long is marked
	// stalled, flipping the engine into a counted Degraded state —
	// AwaitQuiesceCtx waiters blocked behind the shard fail fast with
	// ErrDegraded instead of hanging, and Stats reports the shard in
	// DegradedWorkers until it moves again. 0 disables the watchdog
	// (the zero-overhead default: no extra goroutine, no clock reads).
	StallTimeout time.Duration
}

// Engine is a running dataplane: create with New, feed with SubmitBatch
// (or another entry point of doc.go's table), snapshot telemetry with Stats, stop with Close.
type Engine struct {
	cfg     Config
	workers []*worker
	tel     *telemetry
	limiter *sched.RateLimiter
	start   time.Time
	ctrl    control // live-reconfiguration control plane (reconfig.go)

	mu      sync.Mutex  // guards lifecycle state and control-op fan-out
	closed  atomic.Bool // stored under mu; the submit paths load it without
	scratch sync.Pool   // *submitScratch

	// cmdFault, when set, sentences every fanned-out reconfiguration
	// command per shard (SetReconfigFault) — the lossy control wire
	// the verified paths recover from.
	cmdFault atomic.Pointer[faultinject.Injector]

	// watchStop stops the stall watchdog goroutine (nil when
	// Config.StallTimeout is 0 and no watchdog runs).
	watchStop chan struct{}

	// traceCtr is the global frame ordinal behind TraceEvery sampling:
	// one atomic add per submit call claims the batch's ordinal range,
	// and the frames landing on a multiple of TraceEvery get TraceBit.
	traceCtr atomic.Uint64

	// pool recycles frame buffers across batches: SubmitBatch copies into
	// it, owned submitters borrow from it, and workers release buffers back to
	// it once a batch's results have been delivered. It is private
	// unless Config.Pool supplied a shared one.
	pool *Pool

	// ingressFills holds the registered ingress snapshot fillers
	// (RegisterIngress), behind an atomic pointer so StatsInto reads
	// them lock-free on its polling hot path.
	ingressFills atomic.Pointer[[]func([]IngressStats) []IngressStats]
}

// New builds the worker shards, replays the module set into each
// replica pipeline, and starts the worker goroutines.
func New(cfg Config) (*Engine, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	if cfg.Geometry.Stages == 0 {
		cfg.Geometry = core.DefaultGeometry()
	}
	if cfg.Options.NumParsers == 0 {
		cfg.Options = core.Optimized()
	}
	if cfg.EgressQuantum <= 0 {
		cfg.EgressQuantum = cfg.BatchSize
	}
	pool := cfg.Pool
	if pool == nil {
		pool = NewPool()
	}
	e := &Engine{
		cfg:     cfg,
		tel:     newTelemetry(),
		limiter: sched.NewRateLimiter(),
		start:   time.Now(),
		pool:    pool,
	}
	// Base retention: in-flight batches and submitter stashes. Each
	// per-tenant ring a worker creates grows the limit by its depth
	// (worker.addRing), so the pool always covers a complete
	// drain-and-refill cycle of the whole engine.
	e.pool.grow(cfg.Workers*4*cfg.BatchSize + 2*poolStash)
	e.ctrl.qcond = sync.NewCond(&e.ctrl.qmu)
	streams := make([][]reconfig.Command, len(cfg.Modules)) // each module encoded once for every shard
	for j, m := range cfg.Modules {
		var err error
		if streams[j], err = m.Config.Commands(m.Placement); err != nil {
			return nil, fmt.Errorf("engine: module %d: %w", m.Config.ModuleID, err)
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		pipe := core.New(cfg.Geometry, cfg.Options)
		client := ctrlplane.New(pipe)
		for j, m := range cfg.Modules {
			if _, err := client.LoadModule(m.Config, m.Placement, streams[j]); err != nil {
				return nil, fmt.Errorf("engine: worker %d: replaying module %d: %w", i, m.Config.ModuleID, err)
			}
		}
		// A default-size exact-match cache per worker, in front of
		// hash-mode match resolution; modules below
		// stage.FlowScanThreshold flow entries never consult it.
		pipe.SetFlowCache(stage.NewFlowCache(0))
		w := newWorker(i, e, pipe)
		if len(cfg.EgressWeights) > 0 {
			w.ensureEgress()
			for tenant, weight := range cfg.EgressWeights {
				if err := w.egress.SetWeight(tenant, weight); err != nil {
					return nil, fmt.Errorf("engine: tenant %d: %w", tenant, err)
				}
			}
		}
		e.workers = append(e.workers, w)
	}
	for _, w := range e.workers {
		go w.run()
	}
	if cfg.StallTimeout > 0 {
		e.watchStop = make(chan struct{})
		go e.watchdog(e.watchStop)
	}
	return e, nil
}

// SetReconfigFault installs (or, with nil, removes) a fault injector
// on the control-plane fan-out: every reconfiguration command issued
// to a shard is first sentenced by the injector, and a Drop or Corrupt
// sentence means that shard never applies the command — the in-process
// analogue of a reconfiguration packet lost on the wire. The verified
// paths (ApplyVerified, LoadModuleVerified), the only ones that carry
// commands to running shards, detect and re-send such losses; each one
// is counted in Stats.CmdFaultsInjected.
func (e *Engine) SetReconfigFault(inj *faultinject.Injector) { e.cmdFault.Store(inj) }

// Workers returns the number of shards.
func (e *Engine) Workers() int { return len(e.workers) }

// SetTenantLimit installs a per-tenant token-bucket allowance enforced
// at submission (§5's edge rate limiters). Zero disables a dimension.
func (e *Engine) SetTenantLimit(tenant uint16, pps, bps float64) {
	e.limiter.SetLimit(tenant, sched.ModuleLimit{PPS: pps, BPS: bps})
	e.tel.hasLimits.Store(true)
}

// Borrow returns an n-byte buffer from the engine's pool for use with
// SubmitBatchOwned. Release returns one without submitting it. Buffers
// are size-classed; steady-state Borrow/submit cycles allocate nothing.
//
//menshen:hotpath
func (e *Engine) Borrow(n int) []byte { return e.pool.get(n) }

// Release returns a borrowed buffer to the pool without submitting it.
//
//menshen:hotpath
func (e *Engine) Release(buf []byte) { e.pool.put(buf) }

// submitScratch groups a submitted batch by destination worker so each
// same-tenant run reserves its ring slots with one CAS instead of one
// per frame. Pooled to keep the submit path allocation-free.
type submitScratch struct {
	frames  [][][]byte // per worker
	tenants [][]uint16 // per worker, parallel to frames
	aux     [][]uint64 // per worker, parallel to frames: packed (meta<<8 | ingress)
	stash   poolStasher
}

func (e *Engine) getScratch() *submitScratch {
	if s, ok := e.scratch.Get().(*submitScratch); ok {
		return s
	}
	return &submitScratch{
		frames:  make([][][]byte, len(e.workers)),
		tenants: make([][]uint16, len(e.workers)),
		aux:     make([][]uint64, len(e.workers)),
		stash:   poolStasher{class: -1},
	}
}

// SubmitBatch steers each frame to its shard and enqueues it on the
// frame tenant's ring, returning how many frames were accepted; a
// refused frame was rate-limited or tail-dropped (counted in Stats),
// and a closed engine returns ErrClosed. With DropOnFull unset it
// blocks while a tenant's ring is full. Each accepted frame is copied
// into an engine-owned pooled buffer, so the caller keeps ownership of
// (and may immediately reuse) its own buffers — the copy is the one
// and only copy on the frame's whole path; the pipeline then deparses
// it in place. Like every submit entry point it is a data path: a
// reconfiguration frame (UDP port 0xf1f2, Figure 7) is steered to its
// VLAN tenant and dropped by the shard's packet filter (§3.1), counted
// in PipelineDrops — configuration reaches running shards only through
// the verified control calls. It is safe to call concurrently from any
// number of producers; a single frame is a batch of one.
func (e *Engine) SubmitBatch(frames [][]byte) (int, error) {
	return e.submitBatch(frames, submitOpts{})
}

// SubmitBatchOwned is SubmitBatch without the ingress copy: the engine
// takes ownership of every frame buffer itself — the true zero-copy
// path. The caller must not read or write a buffer after the call,
// whether its frame was accepted or not (a rejected frame's buffer is
// reclaimed into the engine pool immediately). Borrow is the intended
// source of such buffers; together they make the steady-state path
// copy- and allocation-free end to end. The processed bytes are
// deparsed directly into the submitted buffer and surface as
// BatchResult.Data in OnBatch.
func (e *Engine) SubmitBatchOwned(frames [][]byte) (int, error) {
	return e.submitBatch(frames, submitOpts{owned: true})
}

// InjectBatch is SubmitBatch for frames arriving over the network at a
// device port: each frame is processed as if it entered the device on
// the given ingress port. The fabric injects entry traffic here.
func (e *Engine) InjectBatch(frames [][]byte, ingress uint8) (int, error) {
	return e.submitBatch(frames, submitOpts{ingress: ingress})
}

// ForwardBatch is the cross-engine hand-off: the owned, never-blocking
// submission path a fabric node uses to pass frames to the
// next node. The engine takes ownership of every buffer (accepted or
// not — a hop is a pointer move, see SubmitBatchOwned for the buffer
// contract), attaches metas[i] as frames[i]'s out-of-band metadata
// word (delivered as BatchResult.Meta; nil metas means all zero — the
// fabric carries hop counts here, never in the frame; only the low 56
// bits are carried, see BatchResult.Meta), processes each frame as
// entering on the given ingress port, and tail-drops at full rings
// regardless of DropOnFull: a downstream engine that cannot keep up
// sheds load (counted per tenant as QueueFull) instead of blocking
// the upstream worker that called it — the property that keeps a
// cyclic fabric deadlock-free. A non-nil metas must be at least as
// long as frames.
func (e *Engine) ForwardBatch(frames [][]byte, ingress uint8, metas []uint64) (int, error) {
	return e.submitBatch(frames, submitOpts{ingress: ingress, metas: metas, owned: true, noBlock: true})
}

// submitOpts selects the behavior of one submitBatch call; the
// exported Submit*/Inject*/Forward* wrappers are fixed combinations.
type submitOpts struct {
	ingress uint8    // ingress port each frame is processed on
	metas   []uint64 // per-frame out-of-band words (nil = all zero)
	owned   bool     // engine takes buffer ownership (no ingress copy)
	noBlock bool     // never block on full rings, even with DropOnFull unset
}

//menshen:hotpath
func (e *Engine) submitBatch(frames [][]byte, o submitOpts) (int, error) {
	if o.metas != nil && len(o.metas) < len(frames) {
		// Reject the parallel-slice misuse up front, before any buffer
		// changes hands (nothing was accepted, so owned buffers stay
		// with the caller contract-wise — reclaim them like the closed
		// path does).
		if o.owned {
			for _, f := range frames {
				e.pool.put(f)
			}
		}
		return 0, fmt.Errorf("engine: metas slice too short: %d metas for %d frames", len(o.metas), len(frames)) //menshen:allocok cold caller-bug path, never taken in steady state
	}
	if e.closed.Load() {
		if o.owned {
			for _, f := range frames {
				e.pool.put(f)
			}
		}
		return 0, ErrClosed
	}
	sc := e.getScratch()
	var tc *tenantCounters
	lastTenant := -1
	run := uint64(0) // Submitted frames of the current tenant run
	hasLimits := e.tel.hasLimits.Load()
	var now float64
	if hasLimits {
		now = time.Since(e.start).Seconds() // one clock read per call, not per frame
	}
	// Trace sampling: claim this call's frame-ordinal range with one
	// atomic add; the frames whose global ordinal lands on a multiple
	// of TraceEvery get TraceBit in their out-of-band word. Forwarded
	// frames (explicit metas — a fabric hand-off) keep the sender's
	// marks and are never re-sampled.
	var traceEvery, traceOrigin uint64
	if te := e.cfg.TraceEvery; te > 0 && o.metas == nil {
		traceEvery = uint64(te)
		traceOrigin = e.traceCtr.Add(uint64(len(frames))) - uint64(len(frames))
	}
	for fi, f := range frames {
		wid, tenant := steer(f, len(e.workers))
		if int(tenant) != lastTenant {
			if run > 0 {
				tc.Submitted.Add(run)
				run = 0
			}
			tc = e.tel.tenant(tenant)
			lastTenant = int(tenant)
		}
		run++
		if hasLimits && !e.limiter.Allow(tenant, len(f), now) {
			tc.RateLimited.Add(1)
			if o.owned {
				e.pool.put(f)
			}
			continue
		}
		aux := uint64(o.ingress)
		if o.metas != nil {
			aux |= o.metas[fi] << 8
		}
		if traceEvery != 0 && (traceOrigin+uint64(fi))%traceEvery == 0 {
			aux |= TraceBit << 8
		}
		// The scratch slices come from a sync.Pool and keep their grown
		// capacity across submits, so these appends stop allocating once
		// the first few batches have sized them. Nothing is copied yet:
		// a frame gets a pooled buffer only once it has a ring slot.
		sc.frames[wid] = append(sc.frames[wid], f)        //menshen:allocok amortized: pooled scratch keeps its capacity
		sc.tenants[wid] = append(sc.tenants[wid], tenant) //menshen:allocok amortized: pooled scratch keeps its capacity
		sc.aux[wid] = append(sc.aux[wid], aux)            //menshen:allocok amortized: pooled scratch keeps its capacity
	}
	if run > 0 {
		tc.Submitted.Add(run)
	}
	accepted := 0
	copied := 0 // ingress bytes copied into pooled buffers
	drop := e.cfg.DropOnFull || o.noBlock
	for wid := range sc.frames {
		if len(sc.frames[wid]) == 0 {
			continue
		}
		n, c := e.workers[wid].submit(sc.frames[wid], sc.tenants[wid], sc.aux[wid], &sc.stash, o.owned, drop)
		accepted += n
		copied += c
		clear(sc.frames[wid]) // the parked scratch must not pin the caller's frames
		sc.frames[wid] = sc.frames[wid][:0]
		sc.tenants[wid] = sc.tenants[wid][:0]
		sc.aux[wid] = sc.aux[wid][:0]
	}
	if copied > 0 {
		e.tel.bytesCopied.Add(uint64(copied))
	}
	// Flush the stash before parking the scratch: sync.Pool may drop
	// the scratch at any time (it does so aggressively under the race
	// detector), and buffers parked in a dropped stash would leak out
	// of circulation and show up as pool misses.
	sc.stash.flush(e.pool)
	e.scratch.Put(sc)
	return accepted, nil
}

// Drain blocks until every queued frame has been processed. Frames
// submitted concurrently with Drain may or may not be covered.
func (e *Engine) Drain() {
	for _, w := range e.workers {
		w.drain()
	}
}

// Close drains every ring, stops the workers, and marks the engine
// closed; subsequent submissions return ErrClosed (one that raced past
// the check is refused at the sealed ring and counted QueueFull). Close
// is idempotent (second and later calls return ErrClosed).
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		return ErrClosed
	}
	e.closed.Store(true)
	e.mu.Unlock()
	if e.watchStop != nil {
		close(e.watchStop)
	}
	for _, w := range e.workers {
		w.close()
	}
	for _, w := range e.workers {
		<-w.done
	}
	e.noteWorkersDone()
	return nil
}

// Stats snapshots the engine's telemetry.
func (e *Engine) Stats() Stats {
	var st Stats
	e.StatsInto(&st)
	return st
}

// StatsInto snapshots the engine's telemetry into st, reusing st's
// tenant map and worker slice across calls: a caller polling stats in a
// loop holds one snapshot and pays no per-poll allocations.
//
// RegisterIngress adds an ingress telemetry filler: every StatsInto
// call invokes fill to append one IngressStats per transport onto
// Stats.Ingress (append-style, so a polling caller's slice is reused
// and the poll stays allocation-free once warm). fill must be safe to
// call from any goroutine and must only append. Typical wiring is an
// ingress.Listeners' Fill method. Fillers cannot be removed — a
// closed source keeps reporting its final counters, which is what a
// conservation audit wants.
func (e *Engine) RegisterIngress(fill func([]IngressStats) []IngressStats) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var fills []func([]IngressStats) []IngressStats
	if p := e.ingressFills.Load(); p != nil {
		fills = append(fills, *p...)
	}
	fills = append(fills, fill)
	e.ingressFills.Store(&fills)
}

//menshen:hotpath
func (e *Engine) StatsInto(st *Stats) {
	e.tel.snapshotInto(st, e.workers, time.Since(e.start))
	st.Ingress = st.Ingress[:0]
	if fills := e.ingressFills.Load(); fills != nil {
		for _, fill := range *fills {
			st.Ingress = fill(st.Ingress)
		}
	}
	st.ReconfigIssued = e.ctrl.tagger.Current()
	st.PoolHits = e.pool.hits.Load()
	st.PoolMisses = e.pool.misses.Load()
	st.BytesCopied = e.tel.bytesCopied.Load()
	st.ReconfigRetries = e.tel.reconfigRetries.Load()
	st.VerifyFailures = e.tel.verifyFailures.Load()
	st.CmdFaultsInjected = e.tel.cmdFaults.Load()
	st.DegradedEvents = e.tel.degradedEvents.Load()
	st.DegradedWorkers = 0
	for _, w := range e.workers {
		if w.stalled.Load() {
			st.DegradedWorkers++
		}
	}
}

// Pipeline exposes a worker shard's pipeline (for tests and advanced
// inspection of per-shard state).
func (e *Engine) Pipeline(workerID int) (*core.Pipeline, error) {
	if workerID < 0 || workerID >= len(e.workers) {
		return nil, fmt.Errorf("engine: worker %d out of range [0,%d)", workerID, len(e.workers))
	}
	return e.workers[workerID].pipe, nil
}
