package menshen

// Fault injection and verified reconfiguration facade: the reliability
// layer over the Engine's live control plane. A FaultPlan models a
// lossy control channel (drop/corrupt/delay/reorder, stuck-at windows,
// link flaps) deterministically from a seed; SetReconfigFault installs
// it on the engine's command fan-out, and the *Verified methods run the
// paper's §4.1 recovery protocol over it — per-shard applied-command
// counters polled after each burst, missing-suffix re-send with capped
// exponential backoff, and a bounded retry budget after which the load
// rolls back to the last-known-good configuration (typed ErrVerify)
// instead of leaving any shard torn.

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/reconfig"
)

// FaultPlan declares a deterministic fault model for one injection
// point; see faultinject.Plan. The zero plan is lossless.
type FaultPlan = faultinject.Plan

// FaultWindow is a [From,To) stuck-at interval in a FaultPlan, counted
// in frames/commands seen.
type FaultWindow = faultinject.Window

// FaultFlap is a periodic link-down schedule in a FaultPlan.
type FaultFlap = faultinject.Flap

// FaultCounts tallies what an injector did, for conservation
// assertions (Seen == delivered + Dropped, with Corrupted and Delayed
// sub-classified).
type FaultCounts = faultinject.Counts

// FaultInjector executes one FaultPlan deterministically. One injector
// guards one injection point (one fabric link, or one engine's
// reconfig delivery); share them only if a shared fault stream is
// intended.
type FaultInjector = faultinject.Injector

// NewFaultInjector compiles a FaultPlan into an injector.
func NewFaultInjector(plan FaultPlan) *FaultInjector { return faultinject.New(plan) }

// ErrVerify is returned (wrapped) when a verified reconfiguration
// exhausts its retry budget with commands still unconfirmed on some
// shard. It is the same sentinel the device-level control plane uses
// for §4.1 counter mismatches, so one errors.Is covers both paths.
var ErrVerify = engine.ErrVerify

// ErrDegraded is returned (wrapped) by context-aware quiesce waits
// when a stalled worker shard — flagged by the EngineConfig.StallTimeout
// watchdog — can never apply the awaited generation.
var ErrDegraded = engine.ErrDegraded

// VerifyOpts tunes a verified reconfiguration's retry budget and
// backoff; the zero value takes the defaults.
type VerifyOpts = engine.VerifyOpts

// VerifyReport describes how a verified reconfiguration went: bursts
// sent, commands re-sent, and whether every shard confirmed.
type VerifyReport = engine.VerifyReport

// SetReconfigFault installs (or, with nil, removes) a fault injector
// on the engine's live reconfiguration fan-out: every command fanned
// out to a worker shard by a verified load or flow insert draws a fate
// from the plan, and non-delivered commands never reach the shard. The
// *Verified methods, the only wire into running shards, recover the
// losses; Stats CmdFaultsInjected counts them.
func (e *Engine) SetReconfigFault(inj *FaultInjector) { e.eng.SetReconfigFault(inj) }

// InsertFlowsVerified installs a batch of exact-match flow entries for
// one module into the given stage of every running worker shard
// (entries with Valid false are deletions), through the §4.1 verified
// delivery protocol: the flow commands are burst to every shard, each
// shard's applied-command counter is polled after quiesce, and missing
// suffixes are re-sent with backoff until every shard confirms or the
// retry budget runs out (typed error wrapping ErrVerify; the delivered
// prefix stays applied — never an out-of-order subset). Flow inserts
// are safe to apply incrementally, so no tenant fence is taken. Each
// flow steers packets to one of the module's existing actions (the
// §4.3 cuckoo path); derive keys with ControlPlane().FlowKeyForFrame.
func (e *Engine) InsertFlowsVerified(ctx context.Context, moduleID uint16, stg int, flows []FlowEntry, opts VerifyOpts) (uint64, VerifyReport, error) {
	cmds := make([]reconfig.Command, len(flows))
	for i, f := range flows {
		f.ModID = moduleID
		cmds[i] = core.FlowCommand(stg, f)
	}
	return e.eng.ApplyVerified(ctx, moduleID, cmds, opts)
}

// LoadModuleVerified is how a module enters a running engine: the
// source is compiled and installed on the backing device (replacing
// any loaded program under the same ID), and then replayed into every
// running shard through the verified §4.1 protocol — fenced for the
// whole procedure, counter-polled, re-sent with backoff. Only a fully
// confirmed load commits. If the retry
// budget runs out or ctx expires, the shards roll back to the module's
// last-known-good configuration, the device is restored to match, and
// the typed error (wrapping ErrVerify, or the context error) reports
// the failure — the old generation keeps serving and no replica is
// ever torn. A ctx already done on entry touches nothing.
func (e *Engine) LoadModuleVerified(ctx context.Context, source string, moduleID uint16, opts VerifyOpts) (*LoadReport, uint64, VerifyReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, VerifyReport{}, err // neither device nor shards touched
	}
	old := e.dev.modules[moduleID]
	var rep *LoadReport
	var err error
	if old != nil {
		rep, err = e.dev.UpdateModule(source, moduleID)
	} else {
		rep, err = e.dev.LoadModule(source, moduleID)
	}
	if err != nil {
		return nil, 0, VerifyReport{}, err
	}
	m := e.dev.modules[moduleID]
	gen, vrep, verr := e.eng.LoadModuleVerified(ctx,
		engine.ModuleSpec{Config: m.program.Config, Placement: m.placement}, opts)
	if verr != nil {
		// The shards rolled back to the last-known-good configuration;
		// put the device back in agreement with them.
		_ = e.dev.UnloadModule(moduleID)
		if old != nil {
			if rerr := e.dev.restoreModule(old); rerr != nil {
				return nil, gen, vrep, fmt.Errorf("restoring device module after failed load: %w (load failed with %w)", rerr, verr)
			}
		}
		return nil, gen, vrep, verr
	}
	return rep, gen, vrep, nil
}
