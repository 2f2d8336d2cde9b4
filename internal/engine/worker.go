// Worker shard: one pipeline replica fed by per-tenant RX rings (ring.go).
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

// worker owns one pipeline replica and the rings that feed it. The
// hand-off state is split by who writes it (doc.go, "Hand-off"):
// producers touch only ring tails and the doorbell; everything the
// service loop decides with is either owned by the worker goroutine or
// an atomic it alone stores.
type worker struct {
	id   int
	eng  *Engine
	pipe *core.Pipeline
	done chan struct{}

	// rings is the current snapshot of this shard's per-tenant rings.
	rings atomic.Pointer[ringSet]
	// parked is set by the worker just before it sleeps on bell and
	// cleared by whoever wakes it; producers ring only when it is set.
	parked atomic.Bool
	bell   chan struct{} // capacity 1: one token per park
	// closing asks the worker to seal its rings, drain them and exit.
	closing atomic.Bool
	// opsQueued counts control operations issued but not yet applied.
	opsQueued atomic.Int64

	// The blocking slow path: a submitter waiting for ring space (only
	// with DropOnFull unset) or a Drain caller registers in waiters and
	// sleeps on space; the worker takes spaceMu to broadcast only when
	// waiters is non-zero.
	spaceMu sync.Mutex
	space   *sync.Cond
	waiters atomic.Int32

	// mu guards the two other slow paths: the control-operation queue
	// and ring creation. No submitter takes it for a ring that exists,
	// and the worker takes it only on a control pass.
	mu  sync.Mutex
	ops []shardOp // issued, not yet applied (see reconfig.go)

	// genApplied is the shard's applied reconfiguration generation.
	genApplied atomic.Uint64

	// cmdSeen is the shard's §4.1 delivered-command counter — the
	// per-replica mirror of reconfig.DaisyChain.Counter(): it counts
	// reconfiguration commands that reached this shard (an injected
	// loss never increments it), which is what the verified paths poll
	// to detect shortfall.
	cmdSeen atomic.Uint64

	// Everything above is read by submitters on every call and written
	// rarely; everything below is written by the worker every batch.
	_ [64]byte

	// busy covers a batch from pop to delivery; egBacklog mirrors the
	// egress queue depth. Worker-stored, read lock-free by Drain, Stats
	// and the watchdog.
	busy      atomic.Bool
	egBacklog atomic.Int64

	// Watchdog state (watchdog.go): progress is bumped by the worker
	// loop at every service point (ops drained, batch completed,
	// egress pass); the watchdog samples it, flags the shard stalled
	// when it has pending work but the counter stops, and maintains
	// lastProgressNano for WorkerStats.SinceProgress.
	progress         atomic.Uint64
	stalled          atomic.Bool
	lastProgressNano atomic.Int64

	// Worker goroutine only from here on. rr is the round-robin cursor
	// into the ring order; sealed records that shutdown sealed the rings.
	// batch/aux are the popped frames and their packed out-of-band
	// words; ports is the unpacked per-frame ingress, filled only when
	// some aux word is nonzero.
	rr     int
	sealed bool
	batch  [][]byte
	aux    []uint64
	ports  []uint8
	res    []core.BatchResult
	stats  workerCounters

	// Egress scheduling (§3.5): when egress is non-nil, processed
	// frames pass through a per-worker WFQ+PIFO stage between the
	// pipeline and OnBatch delivery. Frames in the queue outlive their
	// batch: their pooled buffers are reclaimed when they are delivered
	// (or displaced), not at the batch boundary.
	egress *sched.EgressQueue
	egRun  []core.BatchResult // drain delivery scratch (one tenant run)
}

func newWorker(id int, e *Engine, pipe *core.Pipeline) *worker {
	w := &worker{
		id:    id,
		eng:   e,
		pipe:  pipe,
		done:  make(chan struct{}),
		bell:  make(chan struct{}, 1),
		batch: make([][]byte, e.cfg.BatchSize),
		aux:   make([]uint64, e.cfg.BatchSize),
		ports: make([]uint8, e.cfg.BatchSize),
		res:   make([]core.BatchResult, e.cfg.BatchSize),
	}
	w.rings.Store(&ringSet{})
	w.space = sync.NewCond(&w.spaceMu)
	return w
}

// ringFor returns the tenant's ring on this shard: one atomic load and
// a map read once it exists. nil means the shard is closing and the
// tenant never had one.
//
//menshen:hotpath
func (w *worker) ringFor(tenant uint16) *ring {
	if r := w.rings.Load().byTenant[tenant]; r != nil {
		return r
	}
	return w.addRing(tenant)
}

// addRing is the locked slow path behind ringFor: a tenant's first
// frame on this shard builds its ring and publishes a new snapshot.
func (w *worker) addRing(tenant uint16) *ring {
	w.mu.Lock()
	defer w.mu.Unlock()
	set := w.rings.Load()
	if r := set.byTenant[tenant]; r != nil {
		return r
	}
	if w.closing.Load() {
		return nil // the worker seals the rings it knows of; this one would never be drained
	}
	r := newRing(tenant, w.eng.cfg.QueueDepth)
	w.rings.Store(set.with(r))
	// Every ring adds its depth to the worst-case in-flight buffer
	// set; let the pool retain that many more.
	w.eng.pool.grow(w.eng.cfg.QueueDepth)
	return r
}

// submit hands one SubmitBatch call's frames for this shard to their
// tenants' rings and returns how many were accepted and how many
// ingress bytes that took copying. Each same-tenant run is reserve →
// copy → publish: a frame gets a pooled buffer only once it has a
// slot, so a refused run costs the refusal and one counter add. With
// drop unset a full ring blocks until the worker frees room. Owned
// buffers that are refused (ring full, or shard closing) go back to
// the pool; either way the frames count as queue-full drops.
//
//menshen:hotpath
func (w *worker) submit(frames [][]byte, tenants []uint16, aux []uint64, stash *poolStasher, owned, drop bool) (accepted, copied int) {
	left := len(frames) // frames not yet placed or refused: the stash's refill hint
	for i := 0; i < len(frames); {
		tenant := tenants[i]
		j := i + 1
		for j < len(frames) && tenants[j] == tenant {
			j++
		}
		run, runAux := frames[i:j], aux[i:j]
		i = j
		r := w.ringFor(tenant)
		for r != nil && len(run) > 0 {
			first, k, sealed := r.reserve(len(run))
			if k == 0 {
				if sealed || drop {
					break
				}
				w.awaitSpace(r)
				continue
			}
			for x, f := range run[:k] {
				buf := f
				if !owned {
					buf = stash.get(w.eng.pool, len(f), left)
					copy(buf, f)
					copied += len(f)
				}
				r.fill(first, x, buf, runAux[x])
				left--
			}
			r.publish(first, k)
			// Ring the bell before a blocking run goes back for more
			// room: the worker must know about the frames just published
			// or a run larger than the ring waits on a worker that sleeps.
			w.wake()
			accepted += k
			run, runAux = run[k:], runAux[k:]
		}
		if len(run) > 0 {
			left -= len(run)
			w.eng.tel.tenant(tenant).QueueFull.Add(uint64(len(run)))
			if owned {
				w.eng.pool.putAll(run)
			}
		}
	}
	return accepted, copied
}

// wake rings the doorbell if the worker is parked. The CAS makes one
// caller per park the ringer, so the one-token bell never blocks it.
//
//menshen:hotpath
func (w *worker) wake() {
	if w.parked.Load() && w.parked.CompareAndSwap(true, false) {
		select {
		case w.bell <- struct{}{}:
		default:
		}
	}
}

// park sleeps until the doorbell rings — unless, after announcing the
// park, there turns out to be something to do. The announce-then-check
// here pairs with publish-then-check in submit/enqueueOps/close: both
// sides use sequentially consistent atomics, so at least one of them
// sees the other's store.
func (w *worker) park(closing bool) {
	w.parked.Store(true)
	if w.opsQueued.Load() != 0 || w.closing.Load() != closing || w.anyReady() {
		// If a producer's CAS beat this store it also left a token, which
		// the next park swallows as one spurious wake.
		w.parked.Store(false)
		return
	}
	<-w.bell
}

// anyReady reports whether some ring has a published frame.
func (w *worker) anyReady() bool {
	for _, r := range w.rings.Load().order {
		if r.ready() {
			return true
		}
	}
	return false
}

// awaitSpace blocks a submitter until r has room or is sealed.
func (w *worker) awaitSpace(r *ring) {
	w.spaceMu.Lock()
	w.waiters.Add(1)
	for r.full() {
		w.space.Wait()
	}
	w.waiters.Add(-1)
	w.spaceMu.Unlock()
}

// signalSpace wakes blocked submitters and Drain callers to re-check.
func (w *worker) signalSpace() {
	w.spaceMu.Lock()
	w.space.Broadcast()
	w.spaceMu.Unlock()
}

// next scans the rings round robin from the cursor: it returns the
// first ring with a published frame (advancing the cursor past it) and
// the backlog across all rings.
//
//menshen:hotpath
func (w *worker) next(set *ringSet) (pick *ring, pending int) {
	n, start := len(set.order), w.rr
	for i := 0; i < n; i++ {
		at := start + i
		if at >= n {
			at -= n
		}
		r := set.order[at]
		pending += r.len()
		if pick == nil && r.ready() {
			pick, w.rr = r, at+1
		}
	}
	return pick, pending
}

// run is the worker loop: apply any queued control operations (the
// batch-boundary reconfiguration point), service the next tenant's ring
// for up to one batch, push the batch through the pipeline shard, record
// telemetry, repeat; park when no ring has a published frame. On close
// it seals the rings, applies the remaining control operations and
// drains every ring before exiting, so drain-on-close covers every
// accepted frame.
//
//menshen:hotpath
func (w *worker) run() {
	defer close(w.done)
	for {
		// closing is read before the operation count: Close stops the
		// control plane first, so a worker that sees closing set also
		// sees every operation that will ever be queued.
		closing := w.closing.Load()
		if w.opsQueued.Load() != 0 {
			// Batch boundary: apply every queued control operation in
			// issue order, then publish the shard's new generation.
			gen := w.drainOps()
			w.progress.Add(1)
			w.eng.noteApplied(w, gen)
			// noteApplied readied the goroutine waiting on this
			// generation, and Go put it in this P's runnext slot. This
			// loop no longer blocks on anything while there are frames to
			// serve, so without a yield that goroutine would sit there
			// until sysmon preempts the worker (10 ms) and every
			// reconfiguration under load would take that long. Once per
			// control pass, never per batch.
			runtime.Gosched()
			continue
		}
		set := w.rings.Load()
		if closing && !w.sealed {
			// No ring is created once closing is set (addRing), so this
			// snapshot is final. A producer that reserved before the seal
			// still publishes, and the exit check below waits for it.
			for _, r := range set.order {
				r.seal()
			}
			w.sealed = true
			w.signalSpace() // blocked submitters: give up
		}
		r, pending := w.next(set)
		if r == nil {
			if w.egress != nil && w.egress.Len() > 0 {
				// No runnable RX work but scheduled frames are queued:
				// keep the TX side moving, one quantum per pass, until
				// the backlog is flushed (in rank order).
				w.egressDrain()
				w.batchDone()
				continue
			}
			if closing && pending == 0 {
				return
			}
			// Nothing published: at most slots reserved but not yet
			// filled (their producer rings when it is done).
			w.park(closing)
			continue
		}
		// busy is raised before the pop frees the slots, so Drain never
		// sees an empty ring and an idle worker with a batch in flight.
		w.busy.Store(true)
		// The batch is whatever the tenant has published, up to BatchSize:
		// a trickle is served a frame at a time, a backlog in full batches.
		n := r.pop(w.batch, w.aux)
		if w.waiters.Load() != 0 {
			w.signalSpace() // ring space freed
		}
		batch := w.batch[:n]
		depth := pending - n // remaining backlog, recorded on traced hops
		var ctx uint64
		for _, a := range w.aux[:n] {
			ctx |= a
		}
		tenant := r.tenant

		// Sample batch service time 1-in-8: clock reads are expensive
		// relative to a batch, and the latency distribution does not
		// need every observation.
		batches := w.stats.Batches.Add(1)
		sample := batches&7 == 0 || batches <= 8
		var start time.Time
		if sample {
			start = time.Now()
		}
		// Zero-copy: the pipeline deparses directly into the ring
		// buffers (all engine-owned), so res[i].Data aliases
		// batch[i]; both are reclaimed together after delivery.
		// Frames carrying out-of-band context (fabric hand-offs) take
		// the per-frame-ingress variant; everything else keeps the
		// scalar fast path.
		res := w.res[:n]
		var err error
		if ctx != 0 {
			for i := 0; i < n; i++ {
				w.ports[i] = uint8(w.aux[i])
			}
			err = w.pipe.ProcessBatchInPlacePorts(batch, w.ports[:n], res)
		} else {
			err = w.pipe.ProcessBatchInPlace(batch, 0, res)
		}
		if sample {
			elapsed := time.Since(start)
			w.stats.Sampled.Add(1)
			w.stats.BusyNs.Add(uint64(elapsed.Nanoseconds()))
			w.stats.latency.observe(elapsed.Nanoseconds())
		}
		w.stats.Frames.Add(uint64(n))
		tc := w.eng.tel.tenant(tenant)
		var processed, bytes, drops uint64
		if err != nil {
			// The whole batch failed before processing (result slice
			// misuse — impossible here, but account it as dropped).
			drops = uint64(n)
		} else {
			for i := range res {
				res[i].Meta = w.aux[i] >> 8 // surface the out-of-band word
				if res[i].Dropped {
					drops++
				} else {
					processed++
					bytes += uint64(len(res[i].Data))
				}
			}
		}
		tc.Processed.Add(processed)
		tc.Bytes.Add(bytes)
		tc.PipelineDrops.Add(drops)
		if onTrace := w.eng.cfg.OnTrace; onTrace != nil && err == nil {
			// Sampled frame tracing: the whole block is skipped unless a
			// trace sink is configured, and within it only frames whose
			// out-of-band word carries TraceBit pay for a clock read.
			for i := range res {
				if res[i].Meta&TraceBit == 0 {
					continue
				}
				onTrace(TraceHop{
					Worker:     w.id,
					Tenant:     tenant,
					QueueDepth: depth,
					Meta:       res[i].Meta,
					Dropped:    res[i].Dropped,
					UnixNano:   time.Now().UnixNano(),
				})
			}
		}
		if w.egress != nil && err == nil {
			// Egress scheduling: forwarded frames enter the per-worker
			// WFQ+PIFO instead of being delivered batch-order; one
			// quantum drains (in rank order) per service cycle. Queued
			// frames keep their buffers past the batch boundary —
			// reclaimed on delivery or displacement, not here.
			w.egressEnqueue(tenant, tc, batch, res)
			w.egressDrain()
		} else {
			if cb := w.eng.cfg.OnBatch; cb != nil && err == nil {
				cb(w.id, tenant, res)
				// Ownership-take contract: a callback that set a
				// forwarded result's Data to nil kept the buffer (it
				// handed it to another engine); skip reclaiming it.
				// Dropped results had nil Data all along — their ring
				// buffers still go back to the pool.
				for i := range res {
					if !res[i].Dropped && res[i].Data == nil {
						batch[i] = nil
					}
				}
			}
			// Results were delivered (or the frames dropped): recycle the
			// batch's buffers. This is the "result valid until the
			// callback returns" lifetime boundary — res[i].Data aliases
			// these buffers, which the pool may hand to the next batch.
			w.eng.pool.putAll(batch)
		}
		w.batchDone()
	}
}

// batchDone closes a service cycle: publish the egress backlog, drop
// busy, count progress, and wake Drain callers if there are any.
//
//menshen:hotpath
func (w *worker) batchDone() {
	if w.egress != nil {
		w.egBacklog.Store(int64(w.egress.Len()))
	}
	w.busy.Store(false)
	w.progress.Add(1)
	if w.waiters.Load() != 0 {
		w.signalSpace()
	}
}

// ensureEgress lazily creates the worker's egress scheduler (engine
// construction, or the worker goroutine applying a weight op). The
// egress PIFO holds four batches. The bound uses push-out, not tail
// drop: overflow discards the worst-ranked queued frame, which is what
// keeps the queue's composition — and the drained shares — at the
// configured weights under overload. Queued egress frames extend the
// engine's worst-case in-flight buffer set, so the pool's retention
// grows by the queue bound.
func (w *worker) ensureEgress() {
	if w.egress != nil {
		return
	}
	limit := 4 * w.eng.cfg.BatchSize
	w.egress = sched.NewEgressQueue(limit)
	w.egRun = make([]core.BatchResult, 0, w.eng.cfg.EgressQuantum)
	w.eng.pool.grow(limit)
}

// egressEnqueue pushes one processed batch's forwarded frames into the
// egress scheduler. Pipeline-dropped frames recycle immediately; a
// frame the queue rejects (full, worst-ranked) or displaces (push-out)
// is counted as an egress drop for its tenant and its buffer reclaimed.
// res[i].Data aliases batch[i] (the in-place contract), so the item's
// Data doubles as the pooled buffer.
//
//menshen:hotpath
func (w *worker) egressEnqueue(tenant uint16, tc *tenantCounters, batch [][]byte, res []core.BatchResult) {
	var queued, rejected uint64
	for i := range res {
		if res[i].Dropped {
			w.eng.pool.put(batch[i])
			continue
		}
		ev, hasEv, ok := w.egress.Push(tenant, res[i].EgressPort, res[i].Data, res[i].Meta)
		if !ok {
			rejected++
			w.eng.pool.put(batch[i])
			continue
		}
		queued++
		if hasEv {
			w.eng.tel.tenant(ev.Tenant).EgressDropped.Add(1)
			w.eng.pool.put(ev.Data)
		}
	}
	tc.EgressQueued.Add(queued)
	if rejected > 0 {
		tc.EgressDropped.Add(rejected)
	}
}

// egressDrain delivers up to one quantum of scheduled frames in rank
// order, grouping consecutive same-tenant frames into one OnBatch call
// (the callback's signature is per-tenant, like the batch path).
// Buffers are reclaimed after each run's callback returns — the same
// lifetime rule (and ownership-take contract) as unscheduled delivery.
// The quantum is denominated in frames (EgressQuantum) and, when
// EgressQuantumBytes is set, additionally in bytes, so a modeled TX
// link's capacity stays constant across mixed frame sizes; at least
// one frame is delivered per cycle.
//
//menshen:hotpath
func (w *worker) egressDrain() {
	var runTenant uint16
	flush := func() {
		if len(w.egRun) == 0 {
			return
		}
		tc := w.eng.tel.tenant(runTenant)
		var bytes uint64
		for i := range w.egRun {
			bytes += uint64(len(w.egRun[i].Data))
		}
		tc.EgressDelivered.Add(uint64(len(w.egRun)))
		tc.EgressBytes.Add(bytes)
		if cb := w.eng.cfg.OnBatch; cb != nil {
			cb(w.id, runTenant, w.egRun)
		}
		for i := range w.egRun {
			if d := w.egRun[i].Data; d != nil { // nil: callback took ownership
				w.eng.pool.put(d)
			}
			w.egRun[i].Data = nil
		}
		w.egRun = w.egRun[:0]
	}
	byteBudget := w.eng.cfg.EgressQuantumBytes
	drained := 0
	for n := 0; n < w.eng.cfg.EgressQuantum; n++ {
		it, ok := w.egress.Pop()
		if !ok {
			break
		}
		if len(w.egRun) > 0 && it.Tenant != runTenant {
			flush()
		}
		runTenant = it.Tenant
		//menshen:allocok bounded: at most EgressQuantum items per drain, the slice's constructed capacity
		w.egRun = append(w.egRun, core.BatchResult{
			Data:       it.Data,
			ModuleID:   it.Tenant,
			EgressPort: it.Port,
			Meta:       it.Meta,
		})
		drained += len(it.Data)
		if byteBudget > 0 && drained >= byteBudget {
			break
		}
	}
	flush()
}

// pending is the frame count queued in the shard's rings.
func (w *worker) pending() int {
	n := 0
	for _, r := range w.rings.Load().order {
		n += r.len()
	}
	return n
}

// drain blocks until this worker has no queued, in-flight, or
// egress-scheduled frames. The order of the three reads mirrors the
// order the worker writes them in (busy up, pop, backlog, busy down).
func (w *worker) drain() {
	w.spaceMu.Lock()
	w.waiters.Add(1)
	for w.pending() > 0 || w.busy.Load() || w.egBacklog.Load() > 0 {
		w.space.Wait()
	}
	w.waiters.Add(-1)
	w.spaceMu.Unlock()
}

// close asks the worker to seal and drain its rings and exit. mu orders
// the flag against ring creation: a ring exists before closing is set
// or is never created.
func (w *worker) close() {
	w.mu.Lock()
	w.closing.Store(true)
	w.mu.Unlock()
	w.wake()
}
