package menshen

// Fault injection and verified reconfiguration facade: the reliability
// layer over the Engine's live control plane. A FaultPlan models a
// lossy control channel (drop/corrupt/delay/reorder, stuck-at windows,
// link flaps) deterministically from a seed; SetReconfigFault installs
// it on the engine's command fan-out, and the *Verified methods run the
// paper's §4.1 recovery protocol over it — per-shard applied-command
// counters polled after each burst, missing-suffix re-send with capped
// exponential backoff, and a bounded retry budget after which the typed
// ErrVerify surfaces. A verified load stages its commands on every
// shard and commits only once all of them hold the whole stream, so a
// failed load leaves nothing to roll back and no shard torn.

import (
	"context"

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
// are safe to apply incrementally, so nothing holds the tenant. Each
// flow steers packets to one of the module's existing actions (the
// §4.3 cuckoo path); derive keys with ControlPlane().FlowKeyForFrame.
func (e *Engine) InsertFlowsVerified(ctx context.Context, moduleID uint16, stg int, flows []FlowEntry, opts VerifyOpts) (uint64, VerifyReport, error) {
	// Two allocations for the whole stream: the commands, and one arena
	// every payload is cut from.
	cmds := make([]reconfig.Command, len(flows))
	arena := make([]byte, 0, len(flows)*core.FlowEntryBytes)
	for i, f := range flows {
		f.ModID = moduleID
		n := len(arena)
		arena = core.AppendFlowEntry(arena, &f)
		cmds[i] = core.FlowCommand(stg, arena[n:len(arena):len(arena)])
	}
	return e.eng.ApplyVerified(ctx, moduleID, cmds, opts)
}

// LoadModuleVerified is how a module enters a running engine, make
// before break: the source is compiled, placed and encoded into one
// command stream without touching the device; that stream is staged on
// every shard through the verified §4.1 protocol while any old program
// keeps serving, and only then committed — on the shards (see
// engine.LoadModuleVerified), then pushed on the device — replacing any
// program loaded under the same ID. A bad source, an
// exhausted retry budget (ErrVerify) or a ctx that ends before every
// shard holds the stream commits nothing: device and shards keep the
// old program, its flows and its stateful memory. Once the report says
// Verified, device and shards both commit. Loads and unloads through
// the engine are serialized.
func (e *Engine) LoadModuleVerified(ctx context.Context, source string, moduleID uint16, opts VerifyOpts) (*LoadReport, uint64, VerifyReport, error) {
	e.ctl.Lock()
	defer e.ctl.Unlock()
	rep, err := e.dev.prepare(source, moduleID, false)
	if err != nil {
		return nil, 0, VerifyReport{}, err
	}
	m := rep.Module
	gen, vrep, err := e.eng.LoadModuleVerified(ctx,
		engine.ModuleSpec{Config: m.program.Config, Placement: m.placement}, rep.cmds, opts)
	if vrep.Verified { // the shards' commit is issued: the device follows
		var cerr error
		if rep, cerr = e.dev.commit(rep); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, gen, vrep, err
	}
	return rep, gen, vrep, nil
}
