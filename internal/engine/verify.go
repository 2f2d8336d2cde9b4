// Verified reconfiguration: the §4.1 loss-recovery protocol, and the
// one retry loop in the tree. The device-level control plane
// (ctrlplane.LoadModule) pushes commands once down a lossless
// in-process daisy chain and checks the counter; the live multi-shard
// path is where commands get lost, because each worker replica is its
// own delivery target under the engine's faultinject plan. A verified
// burst tags every command with a sequence number and a shared
// progress tracker; each shard applies commands strictly in order
// (go-back-N: duplicates from retries are skipped by sequence number,
// successors of a lost command are discarded), so a shard's progress is
// always a contiguous prefix of the burst and the issuer can re-send
// just the missing suffix — with capped exponential backoff and a
// bounded retry budget, after which the typed ErrVerify surfaces and a
// verified load rolls back to the last-known-good configuration instead
// of leaving a torn replica.
package engine

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/reconfig"
)

// ErrVerify is the counter-mismatch error: a verified reconfiguration
// exhausted its retry budget with commands still undelivered on some
// shard. It aliases ctrlplane.ErrVerify — the engine's live path and
// the device's load path fail the §4.1 verification with the same
// sentinel, so callers match either with one errors.Is.
var ErrVerify = ctrlplane.ErrVerify

// maxAttempts is the default §4.1 retry budget, in bursts.
const maxAttempts = 8

// VerifyOpts tunes a verified reconfiguration; zero values take the
// defaults (8 bursts, 50µs initial backoff capped at 5ms).
type VerifyOpts struct {
	// MaxAttempts bounds the total bursts sent, first try included
	// (default 8).
	MaxAttempts int
	// Backoff is the wait before the first retry burst; it doubles per
	// retry (default 50µs).
	Backoff time.Duration
	// MaxBackoff caps the doubling (default 5ms).
	MaxBackoff time.Duration
}

func (o VerifyOpts) withDefaults() VerifyOpts {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = maxAttempts
	}
	if o.Backoff <= 0 {
		o.Backoff = 50 * time.Microsecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Millisecond
	}
	return o
}

// VerifyReport describes how a verified reconfiguration went.
type VerifyReport struct {
	// Commands is the burst length (per shard).
	Commands int
	// Attempts counts bursts sent, the first try included.
	Attempts int
	// Resent counts commands re-sent across retry bursts, summed over
	// retries (the re-sent suffix starts at the slowest shard's
	// progress, so shards that were ahead skip the overlap as
	// duplicates).
	Resent int
	// Verified reports whether every shard confirmed the full burst.
	Verified bool
}

// burstState is one verified burst's shared progress tracker:
// progress[w] is worker w's contiguously applied command count, only
// ever written by that worker and polled by the issuer after each
// quiesce.
type burstState struct {
	progress []atomic.Uint32
}

// min is the slowest shard's progress — the §4.1 counter poll.
func (b *burstState) min() int {
	lo := b.progress[0].Load()
	for i := range b.progress[1:] {
		if p := b.progress[i+1].Load(); p < lo {
			lo = p
		}
	}
	return int(lo)
}

// ApplyVerified replays a command burst into every running shard and
// does not return success until every shard has confirmed applying all
// of it: after each burst it waits for quiesce, polls the per-shard
// burst progress (the engine mirror of reconfig.DaisyChain.Counter()),
// and re-sends the missing suffix with capped exponential backoff up
// to opts.MaxAttempts bursts. On exhaustion it returns a typed error
// wrapping ErrVerify; the commands delivered so far remain applied (a
// contiguous prefix on every shard — never an out-of-order subset).
// Unlike LoadModuleVerified it does not fence the tenant or roll back:
// it is the §4.1 delivery layer, for bursts that are safe to apply
// incrementally (flow inserts, entry updates); wrap it in a fence or
// use LoadModuleVerified when partial visibility matters. Context
// cancellation aborts before every burst and while waiting (an issued
// burst still applies eventually; queued operations are never lost),
// so a call with a done ctx issues nothing.
func (e *Engine) ApplyVerified(ctx context.Context, moduleID uint16, cmds []reconfig.Command, opts VerifyOpts) (uint64, VerifyReport, error) {
	opts = opts.withDefaults()
	rep := VerifyReport{Commands: len(cmds)}
	if len(cmds) == 0 {
		rep.Verified = true
		return 0, rep, nil
	}
	b := &burstState{progress: make([]atomic.Uint32, len(e.workers))}
	backoff := opts.Backoff
	lo := 0 // slowest shard's confirmed progress; re-sends start here
	var gen uint64
	for {
		// A done ctx stops the next burst before it is issued: once
		// issued it would still apply, and a shard that applied it
		// before the wait looked at ctx would make a cancelled call
		// succeed.
		if err := ctx.Err(); err != nil {
			return gen, rep, err
		}
		rep.Attempts++
		if rep.Attempts > 1 {
			rep.Resent += len(cmds) - lo
			e.tel.reconfigRetries.Add(1)
		}
		ops := applyOps(make([]shardOp, 0, len(cmds)-lo), moduleID, cmds[lo:])
		for i := range ops {
			ops[i].burst, ops[i].seq = b, uint32(lo+i)
		}
		var err error
		if gen, err = e.issue(e.cmdFault.Load(), ops...); err != nil {
			return gen, rep, err
		}
		if err := e.AwaitQuiesceCtx(ctx, gen); err != nil {
			return gen, rep, err
		}
		if lo = b.min(); lo == len(cmds) {
			rep.Verified = true
			return gen, rep, nil
		}
		if rep.Attempts >= opts.MaxAttempts {
			e.tel.verifyFailures.Add(1)
			return gen, rep, fmt.Errorf("engine: module %d: %w: %d attempts, slowest shard confirmed %d of %d commands",
				moduleID, ErrVerify, rep.Attempts, lo, len(cmds))
		}
		if err := sleepCtx(ctx, backoff); err != nil {
			return gen, rep, err
		}
		if backoff *= 2; backoff > opts.MaxBackoff {
			backoff = opts.MaxBackoff
		}
	}
}

// LoadModuleVerified is the one way a module enters running shards:
// the tenant is fenced for the whole procedure, the command stream is
// delivered through ApplyVerified (counter poll, suffix re-send,
// backoff), and only a fully confirmed load commits.
// If the retry budget runs out — or ctx expires — the engine rolls the
// shards back to the last-known-good configuration of the module (or
// to unloaded, for a first load) through the loss-exempt local path
// and lifts the fence, so the old generation keeps serving and no
// shard is ever left torn; the typed error (wrapping ErrVerify, or the
// context error) reports the failure. On success the new spec becomes
// the module's rollback target. A ctx already done on entry issues
// nothing.
func (e *Engine) LoadModuleVerified(ctx context.Context, spec ModuleSpec, opts VerifyOpts) (uint64, VerifyReport, error) {
	cmds, err := spec.Config.Commands(spec.Placement)
	if err != nil {
		return 0, VerifyReport{}, err
	}
	id := spec.Config.ModuleID
	sp := &spec
	old := e.lastGoodSpec(id)
	// Fence and prepare: pause the tenant, clear any previous
	// configuration, reserve the partition. These are engine-local
	// bookkeeping, not wire-delivered commands — the modeled lossy
	// channel carries the daisy-chain command stream — so they are
	// issued without the fault plan.
	prep := []shardOp{{kind: opPause, tenant: id}}
	if old != nil {
		prep = append(prep, shardOp{kind: opUnload, tenant: id})
	}
	prep = append(prep, shardOp{kind: opPartition, tenant: id, spec: sp})
	if err := ctx.Err(); err != nil {
		return 0, VerifyReport{}, err // nothing issued, nothing to roll back
	}
	if _, err := e.issue(nil, prep...); err != nil {
		return 0, VerifyReport{}, err
	}
	gen, rep, verr := e.ApplyVerified(ctx, id, cmds, opts)
	if verr == nil {
		if gen, err = e.issue(nil, shardOp{kind: opResume, tenant: id}); err != nil {
			return gen, rep, err
		}
		e.setLastGood(id, sp)
		return gen, rep, nil
	}
	// Verification failed: restore the pre-load state on every shard —
	// drop the partial configuration, re-apply the last-known-good one
	// from the engine's own copy (local state restoration, not wire
	// traffic), resume the tenant. The rollback ops are queued behind
	// everything the failed load issued, so ordering alone guarantees
	// no shard ends torn, even if the caller's ctx is already dead.
	rgen, rerr := e.rollback(id, old)
	if rerr == nil {
		gen = rgen
		// Best-effort confirmation; with an expired ctx the rollback
		// still applies (queued operations are never lost).
		if werr := e.AwaitQuiesceCtx(ctx, rgen); werr != nil && ctx.Err() == nil {
			return gen, rep, fmt.Errorf("awaiting rollback: %w (load failed with %w)", werr, verr)
		}
	}
	return gen, rep, verr
}

// rollback queues the restore sequence for one tenant: unload the
// partial configuration and, when a last-known-good spec exists,
// re-partition and re-apply it, then lift the fence.
func (e *Engine) rollback(id uint16, old *ModuleSpec) (uint64, error) {
	var oldCmds []reconfig.Command
	if old != nil {
		var err error
		if oldCmds, err = old.Config.Commands(old.Placement); err != nil {
			return 0, err
		}
	}
	ops := make([]shardOp, 0, len(oldCmds)+3)
	ops = append(ops, shardOp{kind: opUnload, tenant: id})
	if old != nil {
		ops = append(ops, shardOp{kind: opPartition, tenant: id, spec: old})
		ops = applyOps(ops, id, oldCmds)
	}
	return e.issue(nil, append(ops, shardOp{kind: opResume, tenant: id})...)
}

// lastGoodSpec returns the module's current rollback target, nil when
// the module has never completed a load.
func (e *Engine) lastGoodSpec(id uint16) *ModuleSpec {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastGood[id]
}

// setLastGood records a fully confirmed spec as the rollback target.
func (e *Engine) setLastGood(id uint16, sp *ModuleSpec) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.lastGood[id] = sp
}

// clearLastGood forgets a module's rollback target (unload).
func (e *Engine) clearLastGood(id uint16) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.lastGood, id)
}

// sleepCtx sleeps d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
