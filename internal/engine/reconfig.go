// Engine-level control plane: live reconfiguration of running worker
// shards. Where engine creation replays a module set into each replica
// once, this path replays daisy-chain command streams into every
// *running* shard — the paper's headline scenario of reconfiguring one
// tenant while the pipeline carries other tenants' traffic. Commands
// enter only through the verified calls (verify.go); no submit path
// carries them — a reconfiguration frame submitted as traffic is
// dropped by the shard's packet filter (§3.1).
//
// Mechanism: every control operation (a range of a verified burst's
// command stream, a load's commit, an unload, an egress weight) is tagged
// with a monotonically increasing generation (reconfig.Tagger) and
// appended, in issue order, to a per-shard operation queue. Each worker
// drains its queue at batch boundaries — between two pipeline batches —
// so a shard never observes a half-applied operation mid-batch, and
// applies operations in exactly the order they were issued. A worker
// that has applied generation g has applied every operation tagged ≤ g;
// AwaitQuiesceCtx blocks until all shards reach g, which is the
// engine-wide barrier the tests and the serve CLI assert on.
//
// Make before break: a load stages its commands on every shard and
// commits them in one opCommit, which lands whole in one drainOps turn
// like an unload, so neither holds the tenant's frames (verify.go).
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/reconfig"
)

// ErrGenNotIssued is returned by AwaitQuiesceCtx for a generation no
// control operation has been tagged with yet.
var ErrGenNotIssued = errors.New("engine: reconfiguration generation not issued")

// ErrDegraded is returned by AwaitQuiesceCtx and QuiesceCtx when the
// awaited generation is blocked behind a shard the watchdog has marked
// stalled: the generation will still apply if the shard ever moves
// again (queued control operations are never lost), but the caller
// gets an answer now instead of hanging on a stuck worker. Only
// possible with Config.StallTimeout set.
var ErrDegraded = errors.New("engine: degraded (stalled worker shard)")

// opKind enumerates the shard-level control operations.
type opKind uint8

const (
	// opApply delivers a range of a verified burst's command stream:
	// applied to the shard pipeline, or, when the burst is a staged
	// load, only counted (the commands wait in the load's stream).
	opApply opKind = iota
	// opCommit swaps a staged load in: unload any program under the ID,
	// reserve the new program's CAM address ranges, apply the load's
	// stream.
	opCommit
	// opUnload clears a module from the shard pipeline.
	opUnload
	// opEgressWeight sets (weight > 0) or clears (weight == 0) a
	// tenant's egress WFQ weight on the shard, creating the shard's
	// egress scheduler on first use. Applied at batch boundaries like
	// every other control operation, so a weight change never lands
	// mid-batch.
	opEgressWeight
	// opBarrier does nothing except advance the shard's applied
	// generation (an empty operation still quiesces).
	opBarrier
)

// shardOp is one queued control operation for one worker shard.
type shardOp struct {
	gen    uint64
	kind   opKind
	tenant uint16
	weight float64     // opEgressWeight: the new weight (0 clears)
	spec   *ModuleSpec // opCommit (read-only, shared across shards)

	// An opApply sends [lo, hi) of burst's stream (an opCommit commits
	// burst, a staged load). The shard applies [progress, stop), stop
	// being its first command lost at or above its progress, else hi:
	// it skips a retry's duplicates and, go-back-N, a loss's successors.
	burst        *burstState
	lo, hi, stop uint32
}

// control is the engine-wide reconfiguration state.
type control struct {
	tagger reconfig.Tagger

	// qmu/qcond implement AwaitQuiesceCtx: workers broadcast after
	// advancing their applied generation; Close broadcasts once all
	// workers have exited.
	qmu   sync.Mutex
	qcond *sync.Cond
	done  bool // all workers exited
}

// issue tags one operation sequence with a fresh generation and fans it
// out to every worker's queue; an empty sequence still quiesces, as one
// barrier. Each shard gets its own copy (enqueueOps appends by value).
//
// inj is the fault plan of the modeled control wire, nil for a lossless
// one and for sequences that are engine-local bookkeeping (commits,
// unloads, weights). With a plan, each command of an opApply's range is
// sentenced afresh per shard, worker-major then in command order as when
// each command was its own operation, so a seed keeps its meaning. A
// shard stops at its first lost command at or above its progress (a lost
// duplicate below it must not hold it back); that progress is stable, as
// deliver issues a burst's next range only once the last has quiesced.
// Corruption is detected-and-discarded at the shard (the wire format
// rides UDP with a checksum; a damaged command never applies), so to
// the counter poll it is indistinguishable from loss — which is exactly
// the §4.1 recovery model.
//
// The engine lifecycle lock makes the fan-out atomic with respect to
// Close: an issued generation is always applied by every worker before
// it exits.
func (e *Engine) issue(inj *faultinject.Injector, ops ...shardOp) (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return 0, ErrClosed
	}
	gen := e.ctrl.tagger.Next()
	if len(ops) == 0 {
		ops = []shardOp{{kind: opBarrier}}
	}
	for i := range ops {
		ops[i].gen = gen
	}
	for _, w := range e.workers {
		for i := range ops {
			if op := &ops[i]; op.kind == opApply {
				op.stop = op.hi
				from := op.burst.progress[w.id].Load()
				for c := op.lo; inj != nil && c < op.hi; c++ {
					if inj.CommandFate() != faultinject.Deliver {
						e.tel.cmdFaults.Add(1)
						if c >= from && c < op.stop {
							op.stop = c
						}
					}
				}
			}
		}
		w.enqueueOps(ops)
	}
	return gen, nil
}

// UnloadModuleLive clears a module from every running shard (tables,
// parser/deparser entries, and stateful segments zeroed). Each shard
// applies the unload in one drainOps turn, between two batches, so a
// frame of the tenant sees the module whole or not at all. Scheduler
// state tied to the tenant is pruned too — its egress weight and
// virtual-finish time on every shard, and its ingress
// rate-limit buckets at the engine edge — so a later re-load starts
// from a clean slate instead of inheriting a stale virtual finish time
// or a drained bucket from the tenant's previous life.
func (e *Engine) UnloadModuleLive(moduleID uint16) (uint64, error) {
	gen, err := e.issue(nil,
		shardOp{kind: opUnload, tenant: moduleID},
		shardOp{kind: opEgressWeight, tenant: moduleID, weight: 0})
	if err == nil {
		e.limiter.ClearLimit(moduleID)
	}
	return gen, err
}

// SetEgressWeight configures a tenant's §3.5 egress WFQ weight on
// every running worker shard, through the same generation-tagged
// control queue as module reconfiguration: each shard applies it at a
// batch boundary, and AwaitQuiesceCtx on the returned generation
// guarantees every shard schedules with the new weight. A weight of 0
// clears the tenant (back to the implicit weight of 1, with its
// virtual-finish state pruned). The first weight ever set switches the
// engine's delivery path into egress-scheduling mode (see
// Config.EgressWeights for the semantics).
func (e *Engine) SetEgressWeight(tenant uint16, weight float64) (uint64, error) {
	if weight < 0 || math.IsInf(weight, 0) || math.IsNaN(weight) {
		return 0, fmt.Errorf("engine: egress weight must be non-negative and finite, got %v", weight)
	}
	return e.issue(nil, shardOp{kind: opEgressWeight, tenant: tenant, weight: weight})
}

// QuiesceCtx issues an empty barrier operation and waits under the
// context until every shard has applied it (and therefore everything
// issued before it). It returns the context's error if ctx is done
// first (the barrier still applies eventually — queued operations are
// never lost) and ErrDegraded if the barrier is blocked behind a
// stalled shard.
func (e *Engine) QuiesceCtx(ctx context.Context) error {
	gen, err := e.issue(nil)
	if err != nil {
		return err
	}
	return e.AwaitQuiesceCtx(ctx, gen)
}

// ReconfigGen returns the most recently issued generation.
func (e *Engine) ReconfigGen() uint64 { return e.ctrl.tagger.Current() }

// AwaitQuiesceCtx blocks until every worker shard has applied the given
// generation — i.e. every control operation issued up to and including
// it has reached every replica — or ctx is done. It returns
// ErrGenNotIssued for a generation beyond the last issued one, ErrClosed
// if the engine closed before the generation was reached (generations
// issued before Close always complete: workers drain their operation
// queues before exiting), the context's error as soon as ctx is done,
// and ErrDegraded when the generation is blocked behind a shard the
// watchdog has marked stalled (see Config.StallTimeout) — in the last
// two cases without waiting out the stall. A generation abandoned this
// way still applies if the blocking shard ever moves again: control
// operations are queued, never lost.
func (e *Engine) AwaitQuiesceCtx(ctx context.Context, gen uint64) error {
	if gen > e.ctrl.tagger.Current() {
		return fmt.Errorf("%w: %d (last issued %d)", ErrGenNotIssued, gen, e.ctrl.tagger.Current())
	}
	if e.minAppliedGen() >= gen { // reached: no wait, whatever ctx says
		return nil
	}
	c := &e.ctrl
	// Wake the cond when the context fires: Wait cannot select on a
	// channel, so the cancellation is delivered as a broadcast and
	// re-checked in the loop like every other wake condition. A context
	// that can never fire needs no callback.
	if ctx.Done() != nil {
		defer context.AfterFunc(ctx, func() {
			c.qmu.Lock()
			c.qcond.Broadcast()
			c.qmu.Unlock()
		})()
	}
	c.qmu.Lock()
	defer c.qmu.Unlock()
	// A stalled flag alone is not grounds to bail: the shard may have
	// just resumed, with the watchdog's clearing tick still pending. The
	// waiter confirms the stall across one watchdog tick (the watchdog
	// broadcasts every tick while any shard is flagged): only a shard
	// still flagged with its progress counter frozen since the last wake
	// is a confirmed stall.
	stalledW, stalledP := -1, uint64(0)
	for e.minAppliedGen() < gen {
		if c.done {
			return ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if w := e.stalledBehind(gen); w >= 0 {
			p := e.workers[w].progress.Load()
			if w == stalledW && p == stalledP {
				return fmt.Errorf("%w: worker %d stalled before applying generation %d", ErrDegraded, w, gen)
			}
			stalledW, stalledP = w, p
		} else {
			stalledW = -1
		}
		c.qcond.Wait()
	}
	return nil
}

// stalledBehind returns the ID of a stalled worker whose applied
// generation is still short of gen, or -1. Such a worker blocks the
// barrier indefinitely, so waiters bail out with ErrDegraded.
func (e *Engine) stalledBehind(gen uint64) int {
	for _, w := range e.workers {
		if w.stalled.Load() && w.genApplied.Load() < gen {
			return w.id
		}
	}
	return -1
}

// minAppliedGen is the slowest shard's applied generation.
func (e *Engine) minAppliedGen() uint64 {
	min := e.workers[0].genApplied.Load()
	for _, w := range e.workers[1:] {
		if g := w.genApplied.Load(); g < min {
			min = g
		}
	}
	return min
}

// noteApplied records a worker's progress and wakes quiesce waiters.
func (e *Engine) noteApplied(w *worker, gen uint64) {
	w.genApplied.Store(gen)
	e.ctrl.qmu.Lock()
	e.ctrl.qcond.Broadcast()
	e.ctrl.qmu.Unlock()
}

// noteWorkersDone unblocks quiesce waiters after the last worker exits.
func (e *Engine) noteWorkersDone() {
	e.ctrl.qmu.Lock()
	e.ctrl.done = true
	e.ctrl.qcond.Broadcast()
	e.ctrl.qmu.Unlock()
}

// enqueueOps appends control operations to this worker's queue and
// wakes the worker loop.
func (w *worker) enqueueOps(ops []shardOp) {
	w.mu.Lock()
	w.ops = append(w.ops, ops...)
	w.opsQueued.Add(int64(len(ops))) // under mu: the count never runs ahead of the slice
	w.mu.Unlock()
	w.wake()
}

// drainOps applies the queued control operations in issue order and
// returns the last one's generation. The worker loop calls it at a
// batch boundary. It holds w.mu throughout, as it empties the queue's
// array for reuse once done. Every pipeline write takes the pipeline's
// batch lock over tables this shard alone owns; run between batches on
// the worker's own goroutine, it never waits on it. opsQueued drops
// only once the operations are applied: until then the watchdog counts
// them as pending work.
func (w *worker) drainOps() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	ops := w.ops
	for i := range ops {
		op := &ops[i]
		var err error
		switch op.kind {
		case opApply:
			// [progress, stop): the commands from stop on never reached
			// the shard, so its delivered counter falls short for the
			// poll; an Apply error, whose command did arrive, ends the
			// range too. A staged burst's range is only counted.
			b := op.burst
			from := b.progress[w.id].Load()
			to := op.stop
			if !b.staged {
				for to = from; to < op.stop; to++ {
					if err = w.apply(b.cmds[to]); err != nil {
						w.cmdSeen.Add(1)
						break
					}
				}
			}
			w.cmdSeen.Add(uint64(to - from))
			b.progress[w.id].Store(to)
		case opCommit:
			// Only a shard that holds a program under the ID unloads it:
			// a first load (or one after an unload) skips the stage
			// sweeps and the view flush of an unload with nothing to do.
			if w.pipe.HoldsModule(op.tenant) {
				err = w.pipe.UnloadModule(op.tenant)
			}
			if err == nil {
				err = w.pipe.Partition(op.spec.Config, op.spec.Placement)
			}
			for i := 0; err == nil && i < len(op.burst.cmds); i++ {
				if w.apply(op.burst.cmds[i]) != nil {
					w.stats.ReconfigFailed.Add(1)
				}
			}
		case opUnload:
			err = w.pipe.UnloadModule(op.tenant)
		case opEgressWeight:
			if op.weight > 0 {
				w.ensureEgress()
				err = w.egress.SetWeight(op.tenant, op.weight)
			} else if w.egress != nil {
				w.egress.ClearTenant(op.tenant)
			}
		case opBarrier:
		}
		if err != nil {
			w.stats.ReconfigFailed.Add(1)
		}
	}
	gen := ops[len(ops)-1].gen
	w.opsQueued.Add(-int64(len(ops)))
	clear(ops) // the next issue reuses the array: retain no spec or burst
	w.ops = ops[:0]
	return gen
}

// apply applies one command to the shard pipeline, counting it in
// ReconfigApplied when it succeeds.
func (w *worker) apply(cmd reconfig.Command) error {
	err := w.pipe.Apply(cmd)
	if err == nil {
		w.stats.ReconfigApplied.Add(1)
	}
	return err
}
