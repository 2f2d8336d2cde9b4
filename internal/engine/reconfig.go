// Engine-level control plane: live reconfiguration of running worker
// shards. Where engine creation replays a module set into each replica
// once, this path replays daisy-chain command streams into every
// *running* shard — the paper's headline scenario of reconfiguring one
// tenant while the pipeline carries other tenants' traffic.
//
// Mechanism: every control operation (a command batch, a module load or
// unload, a tenant fence) is tagged with a monotonically increasing
// generation (reconfig.Tagger) and appended, in issue order, to a
// per-shard operation queue. Each worker drains its queue at batch
// boundaries — between two ProcessBatch calls — so a shard never
// observes a half-applied operation mid-batch, and applies operations
// in exactly the order they were issued. A worker that has applied
// generation g has applied every operation tagged ≤ g; AwaitQuiesce(g)
// blocks until all shards reach g, which is the engine-wide barrier the
// tests and the serve CLI assert on.
//
// Fencing: a tenant whose configuration spans multiple control calls
// can be paused — its queued frames are held (not dropped) and its
// rings are skipped by the round-robin service — so no frame of that
// tenant is processed against a partially updated configuration, while
// every other tenant keeps flowing. This is the queue-level analogue of
// the packet filter's per-module update bitmap (§4.1), which remains
// available per shard via SetTenantUpdating for the paper's
// drop-during-update semantics.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/reconfig"
)

// ErrGenNotIssued is returned by AwaitQuiesce for a generation no
// control operation has been tagged with yet.
var ErrGenNotIssued = errors.New("engine: reconfiguration generation not issued")

// ErrDegraded is returned by AwaitQuiesce/AwaitQuiesceCtx when the
// awaited generation is blocked behind a shard the watchdog has marked
// stalled: the generation will still apply if the shard ever moves
// again (queued control operations are never lost), but the caller
// gets an answer now instead of hanging on a stuck worker. Only
// possible with Config.StallTimeout set.
var ErrDegraded = errors.New("engine: degraded (stalled worker shard)")

// opKind enumerates the shard-level control operations.
type opKind uint8

const (
	// opApply applies one reconfiguration command to the shard pipeline.
	opApply opKind = iota
	// opPartition reserves a module's CAM address ranges.
	opPartition
	// opUnload clears a module from the shard pipeline.
	opUnload
	// opPause fences a tenant: queued frames are held, the tenant's
	// rings are skipped, other tenants keep flowing.
	opPause
	// opResume lifts a tenant's fence.
	opResume
	// opUpdating sets or clears the shard packet filter's update bit for
	// a tenant (the §4.1 drop-during-update semantics).
	opUpdating
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
	flag   bool    // opUpdating: set (true) or clear (false)
	weight float64 // opEgressWeight: the new weight (0 clears)
	cmd    reconfig.Command
	spec   *ModuleSpec // opPartition (read-only, shared across shards)

	// Verified-burst fields (verify.go). burst, when non-nil, makes
	// this opApply part of a go-back-N verified burst: seq is the
	// command's position in the burst, and the shard applies it only
	// when it is the next in-order command (earlier = duplicate from a
	// retry, later = a predecessor was lost; both are skipped), so the
	// shard's burst progress is always a contiguous prefix length —
	// the property that makes "re-send the missing suffix" correct.
	burst *burstState
	seq   uint32
	// lost marks a command the fault injector sentenced to loss or
	// corruption for this shard: the op still rides the queue (the
	// generation must advance regardless), but the shard never sees
	// the command and its delivered counter never increments.
	lost bool
}

// control is the engine-wide reconfiguration state.
type control struct {
	tagger reconfig.Tagger
	// updating is the engine-level per-tenant update bitmap: bit
	// (tenant & 31) is set while the tenant is fenced by a
	// BeginTenantUpdate / EndTenantUpdate window.
	updating atomic.Uint32

	// qmu/qcond implement AwaitQuiesce: workers broadcast after
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
// one and for sequences that are engine-local bookkeeping (fences,
// rollbacks). With a plan, every opApply is sentenced afresh per shard,
// so one command can meet different fates on different replicas.
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
		if inj != nil {
			for i := range ops {
				if ops[i].kind != opApply {
					continue
				}
				if ops[i].lost = inj.CommandFate() != faultinject.Deliver; ops[i].lost {
					e.tel.cmdFaults.Add(1)
				}
			}
		}
		w.enqueueOps(ops)
	}
	return gen, nil
}

// applyOps is one opApply per command, the wire form of a burst.
func applyOps(ops []shardOp, moduleID uint16, cmds []reconfig.Command) []shardOp {
	for _, c := range cmds {
		ops = append(ops, shardOp{kind: opApply, tenant: moduleID, cmd: c})
	}
	return ops
}

// ApplyReconfig replays a daisy-chain command batch into every running
// worker shard. It returns immediately with the operation's generation;
// each shard applies the commands, in order and atomically with respect
// to its own batches, at its next batch boundary. Use AwaitQuiesce to
// wait for every shard. Frames already queued when the commands are
// issued may be processed against the old configuration (the commands
// overtake them at the batch boundary); fence the tenant first if that
// matters. With a fault plan installed (SetReconfigFault) losses are
// counted, not recovered — this is the unverified path; use
// ApplyVerified to survive them.
func (e *Engine) ApplyReconfig(moduleID uint16, cmds ...reconfig.Command) (uint64, error) {
	return e.issue(e.cmdFault.Load(), applyOps(make([]shardOp, 0, len(cmds)), moduleID, cmds)...)
}

// ApplyReconfigFrame decodes one raw reconfiguration frame (Figure 7
// wire format) and fans its command out to every shard. This is the
// engine's trusted control interface — the software analogue of the
// PCIe path reconfiguration packets arrive on; reconfiguration-port
// frames arriving through the data path of each shard pipeline are
// still dropped by its packet filter.
func (e *Engine) ApplyReconfigFrame(frame []byte) (uint64, error) {
	moduleID, cmd, err := reconfig.DecodePacket(frame)
	if err != nil {
		return 0, err
	}
	// The decoded payload aliases the caller's frame buffer, but shards
	// read it later, at their own batch boundaries — copy it so the
	// caller gets its buffer back when this returns, like any other
	// control call.
	cmd.Payload = append([]byte(nil), cmd.Payload...)
	return e.ApplyReconfig(moduleID, cmd)
}

// LoadModuleLive installs a module into every running shard: one fenced
// operation covering the tenant pause, the CAM partition reservation,
// the full §4.1 command stream, and the resume. Shards apply the whole
// sequence at a batch boundary, so no frame of the module is ever
// processed against a partial configuration; other tenants' frames keep
// flowing throughout.
//
// LoadModuleLive assumes lossless delivery: with a fault plan installed
// (SetReconfigFault) individual commands can be lost per shard and the
// load lands torn — counted, not recovered. Use LoadModuleVerified on
// a lossy control wire.
func (e *Engine) LoadModuleLive(spec ModuleSpec) (uint64, error) {
	cmds, err := spec.Config.Commands(spec.Placement)
	if err != nil {
		return 0, err
	}
	id := spec.Config.ModuleID
	sp := &spec
	ops := make([]shardOp, 0, len(cmds)+3)
	ops = append(ops,
		shardOp{kind: opPause, tenant: id},
		shardOp{kind: opPartition, tenant: id, spec: sp})
	ops = append(applyOps(ops, id, cmds), shardOp{kind: opResume, tenant: id})
	inj := e.cmdFault.Load()
	gen, err := e.issue(inj, ops...)
	if err == nil && inj == nil {
		// Lossless delivery: once queued, every shard applies the full
		// stream — record the spec as the module's rollback target.
		e.setLastGood(id, sp)
	}
	return gen, err
}

// UnloadModuleLive clears a module from every running shard (tables,
// parser/deparser entries, and stateful segments zeroed), fenced the
// same way as LoadModuleLive. Scheduler state tied to the tenant is
// pruned too — its egress weight and virtual-finish time on every
// shard, and its ingress rate limit (buckets and drop counter) at the
// engine edge — so a later re-load starts from a clean slate instead
// of inheriting a stale virtual finish time or a drained bucket from
// the tenant's previous life.
func (e *Engine) UnloadModuleLive(moduleID uint16) (uint64, error) {
	gen, err := e.issue(nil,
		shardOp{kind: opPause, tenant: moduleID},
		shardOp{kind: opUnload, tenant: moduleID},
		shardOp{kind: opEgressWeight, tenant: moduleID, weight: 0},
		shardOp{kind: opResume, tenant: moduleID})
	if err == nil {
		e.limiter.ClearLimit(moduleID)
		e.clearLastGood(moduleID)
	}
	return gen, err
}

// SetEgressWeight configures a tenant's §3.5 egress WFQ weight on
// every running worker shard, through the same generation-tagged
// control queue as module reconfiguration: each shard applies it at a
// batch boundary, and AwaitQuiesce on the returned generation
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

// BeginTenantUpdate fences a tenant across every shard: once the
// returned generation quiesces, no frame of the tenant is processed
// until EndTenantUpdate, while submissions keep queueing (subject to
// ring backpressure) and every other tenant keeps flowing. Use it to
// make a multi-call reconfiguration sequence atomic with respect to the
// tenant's traffic. Note that Drain blocks on fenced frames, so end the
// update before draining.
func (e *Engine) BeginTenantUpdate(tenant uint16) (uint64, error) {
	gen, err := e.issue(nil, shardOp{kind: opPause, tenant: tenant})
	if err == nil {
		e.ctrl.updating.Or(1 << (tenant & 31))
	}
	return gen, err
}

// EndTenantUpdate lifts a tenant's fence; held frames become
// serviceable again at each shard's next batch boundary.
func (e *Engine) EndTenantUpdate(tenant uint16) (uint64, error) {
	gen, err := e.issue(nil, shardOp{kind: opResume, tenant: tenant})
	if err == nil {
		e.ctrl.updating.And(^(uint32(1) << (tenant & 31)))
	}
	return gen, err
}

// SetTenantUpdating sets or clears the packet filter update bit for a
// tenant on every shard — the paper's drop-during-update semantics
// (frames of the tenant are discarded, not held, while the bit is set).
func (e *Engine) SetTenantUpdating(tenant uint16, updating bool) (uint64, error) {
	return e.issue(nil, shardOp{kind: opUpdating, tenant: tenant, flag: updating})
}

// Quiesce issues an empty barrier operation and waits until every shard
// has applied it (and therefore everything issued before it).
func (e *Engine) Quiesce() error {
	return e.QuiesceCtx(context.Background())
}

// QuiesceCtx is Quiesce with a deadline: it issues the barrier and
// waits under the context, returning the context's error if it expires
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

// AwaitQuiesce blocks until every worker shard has applied the given
// generation — i.e. every control operation issued up to and including
// it has reached every replica. It returns ErrGenNotIssued for a
// generation beyond the last issued one, and ErrClosed if the engine
// closed before the generation was reached (generations issued before
// Close always complete: workers drain their operation queues before
// exiting).
func (e *Engine) AwaitQuiesce(gen uint64) error {
	return e.AwaitQuiesceCtx(context.Background(), gen)
}

// AwaitQuiesceCtx is AwaitQuiesce with a deadline: it additionally
// returns the context's error as soon as ctx is done, and ErrDegraded
// when the generation is blocked behind a shard the watchdog has
// marked stalled (see Config.StallTimeout) — in both cases without
// waiting out the stall. A generation abandoned this way still applies
// if the blocking shard ever moves again: control operations are
// queued, never lost.
func (e *Engine) AwaitQuiesceCtx(ctx context.Context, gen uint64) error {
	if gen > e.ctrl.tagger.Current() {
		return fmt.Errorf("%w: %d (last issued %d)", ErrGenNotIssued, gen, e.ctrl.tagger.Current())
	}
	c := &e.ctrl
	// Wake the cond when the context fires: Wait cannot select on a
	// channel, so the cancellation is delivered as a broadcast and
	// re-checked in the loop like every other wake condition.
	stop := context.AfterFunc(ctx, func() {
		c.qmu.Lock()
		c.qcond.Broadcast()
		c.qmu.Unlock()
	})
	defer stop()
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
// batch boundary and holds w.mu throughout, so a fence and the creation
// of the fenced tenant's ring cannot interleave; pipeline writes use
// the tables' own copy-on-write synchronization. opsQueued drops only
// once the operations are applied: until then the watchdog counts them
// as pending work.
func (w *worker) drainOps() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	ops := w.ops
	w.ops = nil
	rings := w.rings.Load().byTenant
	for i := range ops {
		op := &ops[i]
		var err error
		switch op.kind {
		case opApply:
			if op.lost {
				// Injected loss: the command never reached this shard.
				// The generation still advances (the op rode the
				// queue), but the delivered counter does not — the
				// shortfall the verified paths poll for.
				break
			}
			if b := op.burst; b != nil {
				cur := b.progress[w.id].Load()
				if op.seq != cur {
					// Go-back-N: seq < cur is a duplicate from a retry
					// burst (already applied — skip, idempotence by
					// sequence number); seq > cur means a predecessor
					// was lost and this command is discarded so the
					// shard's progress stays a contiguous prefix.
					break
				}
				w.cmdSeen.Add(1)
				if err = w.pipe.Apply(op.cmd); err == nil {
					w.stats.ReconfigApplied.Add(1)
					b.progress[w.id].Store(cur + 1)
				}
				break
			}
			w.cmdSeen.Add(1)
			if err = w.pipe.Apply(op.cmd); err == nil {
				w.stats.ReconfigApplied.Add(1)
			}
		case opPartition:
			err = w.pipe.Partition(op.spec.Config, op.spec.Placement)
		case opUnload:
			err = w.pipe.UnloadModule(op.tenant)
		case opPause:
			w.fenced[op.tenant] = true
			if r := rings[op.tenant]; r != nil {
				r.paused.Store(true)
			}
		case opResume:
			delete(w.fenced, op.tenant)
			if r := rings[op.tenant]; r != nil {
				r.paused.Store(false)
			}
		case opUpdating:
			w.pipe.Filter.SetUpdating(op.tenant, op.flag)
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
	w.opsQueued.Add(-int64(len(ops)))
	return ops[len(ops)-1].gen
}
