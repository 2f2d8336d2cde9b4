// Verified reconfiguration: the §4.1 loss-recovery protocol, and the
// one retry loop in the tree. The device-level control plane
// (ctrlplane.LoadModule) pushes commands once down a lossless
// in-process daisy chain and checks the counter; the live multi-shard
// path is where commands get lost, because each worker replica is its
// own delivery target under the engine's faultinject plan. Like §4.1's
// one stream under one counter, a verified burst owns one command stream
// and a shared progress tracker, and each attempt queues one operation
// per shard: the stream's range from the slowest shard's progress on.
// A shard applies it strictly in order (go-back-N: a retry's duplicates
// are skipped, successors of a lost command discarded), so its progress
// is always a contiguous prefix and the issuer re-sends just the missing
// suffix — with capped exponential backoff and a bounded retry budget,
// after which the typed ErrVerify surfaces. A verified load stages its
// stream and commits only once every shard holds all of it, so a failed
// load never leaves a torn replica.
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

// burstState is one verified burst: cmds, its one command stream, which
// each attempt sends a range of and the shards only read, and progress,
// where progress[w] is worker w's contiguously delivered command count,
// written only by that worker and polled by the issuer after each
// quiesce. A staged burst is a module load: a worker only counts its
// range, and the load's opCommit applies all of cmds on every shard.
type burstState struct {
	progress []atomic.Uint32
	cmds     []reconfig.Command
	staged   bool
}

// min is the slowest shard's progress — the §4.1 counter poll.
func (b *burstState) min() int {
	lo := b.progress[0].Load()
	for i := range b.progress {
		lo = min(lo, b.progress[i].Load())
	}
	return int(lo)
}

// ApplyVerified replays a command burst into every running shard and
// does not return success until every shard has confirmed applying all
// of it (see deliver). On exhaustion it returns a typed error wrapping
// ErrVerify; the commands delivered so far remain applied (a
// contiguous prefix on every shard — never an out-of-order subset).
// It is the §4.1 delivery layer for bursts that are safe to apply
// incrementally (flow inserts, entry updates); a module load, where
// partial visibility matters, goes through LoadModuleVerified.
func (e *Engine) ApplyVerified(ctx context.Context, moduleID uint16, cmds []reconfig.Command, opts VerifyOpts) (uint64, VerifyReport, error) {
	return e.deliver(ctx, moduleID, opts, &burstState{progress: make([]atomic.Uint32, len(e.workers)), cmds: cmds})
}

// deliver is the §4.1 loop: it sends the burst's stream to every shard
// as one operation, waits for quiesce, polls the per-shard progress
// (the engine mirror of reconfig.DaisyChain.Counter()), and re-sends the
// missing suffix, again as one operation, with capped exponential
// backoff up to opts.MaxAttempts bursts, after which it returns a typed
// error wrapping ErrVerify. Context cancellation aborts before every
// burst and while waiting (an issued burst still reaches the shards
// eventually; queued operations are never lost), so a call with a done
// ctx issues nothing.
func (e *Engine) deliver(ctx context.Context, moduleID uint16, opts VerifyOpts, b *burstState) (uint64, VerifyReport, error) {
	opts = opts.withDefaults()
	n := len(b.cmds)
	rep := VerifyReport{Commands: n}
	if n == 0 {
		rep.Verified = true
		return 0, rep, nil
	}
	backoff := opts.Backoff
	lo := b.min() // slowest shard's confirmed progress; every send starts here
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
			rep.Resent += n - lo
			e.tel.reconfigRetries.Add(1)
		}
		op := shardOp{kind: opApply, tenant: moduleID, burst: b, lo: uint32(lo), hi: uint32(n)}
		var err error
		if gen, err = e.issue(e.cmdFault.Load(), op); err != nil {
			return gen, rep, err
		}
		if err := e.AwaitQuiesceCtx(ctx, gen); err != nil {
			return gen, rep, err
		}
		if lo = b.min(); lo == n {
			rep.Verified = true
			return gen, rep, nil
		}
		if rep.Attempts >= opts.MaxAttempts {
			e.tel.verifyFailures.Add(1)
			return gen, rep, fmt.Errorf("engine: module %d: %w: %d attempts, slowest shard confirmed %d of %d commands",
				moduleID, ErrVerify, rep.Attempts, lo, n)
		}
		select {
		case <-ctx.Done():
			return gen, rep, ctx.Err()
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > opts.MaxBackoff {
			backoff = opts.MaxBackoff
		}
	}
}

// LoadModuleVerified is the one way a module enters running shards,
// make before break: cmds, the module's command stream
// (spec.Config.Commands(spec.Placement), encoded once by the caller and
// only read here), is delivered through the §4.1 loop and held for the
// commit while the old program keeps serving, and only once every shard
// has confirmed all of it does one opCommit — unload any old program,
// partition, apply the stream — land on each shard at a batch boundary;
// it returns once every shard has applied it. A load that exhausts its
// retry budget (ErrVerify) or whose ctx ends during delivery commits
// nothing, so there is nothing to roll back and no frame held; a ctx
// done on entry issues nothing. Once the report says Verified the
// commit stands: a ctx or stall that cuts the wait short is returned,
// and the commit still applies at the returned generation. A staged
// command that fails at commit counts in ReconfigFailed; a compiled
// program cannot produce one, as the device applies the same stream.
func (e *Engine) LoadModuleVerified(ctx context.Context, spec ModuleSpec, cmds []reconfig.Command, opts VerifyOpts) (uint64, VerifyReport, error) {
	b := &burstState{progress: make([]atomic.Uint32, len(e.workers)), cmds: cmds, staged: true}
	id := spec.Config.ModuleID
	gen, rep, err := e.deliver(ctx, id, opts, b)
	if err != nil {
		return gen, rep, err
	}
	if gen, err = e.issue(nil, shardOp{kind: opCommit, tenant: id, spec: &spec, burst: b}); err != nil {
		return gen, rep, err
	}
	return gen, rep, e.AwaitQuiesceCtx(ctx, gen)
}
