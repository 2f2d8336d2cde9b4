package menshen

// Engine facade: the concurrent batched dataplane over a Device. Where
// Device.Send pushes one frame synchronously, an Engine shards the
// loaded module set across N worker pipelines, steers flows to shards
// RSS-style, and moves frames in batches with per-tenant queueing and
// rate enforcement — the path to the paper's 100 Gbit/s-class operating
// point in software:
//
//	dev := menshen.NewDevice()
//	dev.LoadModule(src, 1)
//	eng, err := dev.NewEngine(menshen.EngineConfig{Workers: 4})
//	eng.SubmitBatch(frames)
//	eng.Drain()
//	st := eng.Stats()
//	eng.Close()

import (
	"context"
	"errors"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
)

// EngineResult is the per-frame outcome delivered to OnBatch. Data
// buffers are recycled after the callback returns.
type EngineResult = core.BatchResult

// EngineStats is a telemetry snapshot; see Engine.Stats.
type EngineStats = engine.Stats

// IngressStats is one ingress transport's counter snapshot; sources
// registered with Engine.RegisterIngress append these to
// EngineStats.Ingress.
type IngressStats = engine.IngressStats

// EngineConfig configures Device.NewEngine. It is the engine's own
// configuration, declared once in internal/engine. The device owns
// three of its fields — Geometry, Options and Modules come from the
// loaded hardware model — and NewEngine rejects a config that sets one.
type EngineConfig = engine.Config

// TraceHop is one sampled frame's per-hop trace record; see
// EngineConfig.TraceEvery.
type TraceHop = engine.TraceHop

// Engine is a running concurrent dataplane created by Device.NewEngine.
type Engine struct {
	eng *engine.Engine
	dev *Device
	ctl sync.Mutex // serializes LoadModuleVerified and UnloadModule over dev
}

// NewEngine snapshots the device's loaded modules into a concurrent
// batched engine: every worker shard replays the modules' configuration
// into its own pipeline replica (same geometry, same platform options,
// same placements). To reconfigure a *running* engine, use the engine's
// own LoadModuleVerified/InsertFlowsVerified/UnloadModule — modules
// loaded or updated directly on the Device afterwards are not reflected
// in running shards, and reconfiguration frames submitted as traffic are
// dropped by the shards' packet filters. A cfg that sets Geometry, Options or Modules itself is
// rejected: shards that disagree with the device are never built.
func (d *Device) NewEngine(cfg EngineConfig) (*Engine, error) {
	if cfg.Geometry != (core.Geometry{}) || cfg.Options != (core.Options{}) || cfg.Modules != nil {
		return nil, errors.New("menshen: EngineConfig.Geometry, Options and Modules are set from the device")
	}
	cfg.Geometry, cfg.Options = d.pipe.Geometry, d.pipe.Options
	for _, id := range d.alloc.Loaded() {
		m := d.modules[id]
		cfg.Modules = append(cfg.Modules, engine.ModuleSpec{Config: m.program.Config, Placement: m.placement})
	}
	e, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{eng: e, dev: d}, nil
}

// Workers returns the number of pipeline shards.
func (e *Engine) Workers() int { return e.eng.Workers() }

// SubmitBatch steers and enqueues a batch of frames, returning how many
// were accepted; a refused frame was rate-limited or tail-dropped. Each
// frame is copied into an engine-owned pooled buffer (the only copy on
// its whole path — the pipeline deparses in place), so the caller keeps
// its own buffers and may reuse them immediately. Safe for concurrent
// producers; a single frame is a batch of one. For copy-free submission
// see SubmitBatchOwned.
func (e *Engine) SubmitBatch(frames [][]byte) (int, error) { return e.eng.SubmitBatch(frames) }

// SubmitBatchOwned is the zero-copy submit: the engine takes ownership
// of every buffer itself — accepted or not — and deparses each processed
// frame directly into it. The caller must not touch the buffers after
// the call. Use Borrow to obtain recycled buffers; a steady-state
// Borrow/SubmitBatchOwned cycle copies and allocates nothing.
func (e *Engine) SubmitBatchOwned(frames [][]byte) (int, error) {
	return e.eng.SubmitBatchOwned(frames)
}

// Borrow returns an n-byte buffer from the engine's size-classed pool
// for use with SubmitBatchOwned.
func (e *Engine) Borrow(n int) []byte { return e.eng.Borrow(n) }

// Release returns a borrowed buffer to the pool without submitting it.
func (e *Engine) Release(buf []byte) { e.eng.Release(buf) }

// Drain blocks until all queued frames are processed.
func (e *Engine) Drain() { e.eng.Drain() }

// Close drains and stops the engine; later submissions return an error.
func (e *Engine) Close() error { return e.eng.Close() }

// Stats snapshots per-tenant and per-worker telemetry.
func (e *Engine) Stats() EngineStats { return e.eng.Stats() }

// StatsInto snapshots telemetry into st, reusing its map and slices so
// a polling loop pays no per-snapshot allocations.
func (e *Engine) StatsInto(st *EngineStats) { e.eng.StatsInto(st) }

// RegisterIngress adds an ingress telemetry filler appended to every
// snapshot's Ingress slice — wire an ingress.Listeners' Fill here so
// socket-side counters surface through Stats and /metrics.
func (e *Engine) RegisterIngress(fill func([]IngressStats) []IngressStats) {
	e.eng.RegisterIngress(fill)
}

// SetTenantLimit installs a per-tenant token-bucket allowance (packets
// and bits per second; zero disables a dimension) enforced at submit.
func (e *Engine) SetTenantLimit(tenant uint16, pps, bps float64) {
	e.eng.SetTenantLimit(tenant, pps, bps)
}

// ShardPipeline exposes one worker shard's pipeline for tests and
// advanced inspection of per-shard state.
func (e *Engine) ShardPipeline(workerID int) (*core.Pipeline, error) {
	return e.eng.Pipeline(workerID)
}

// --- Live reconfiguration (the running-engine control plane) ---
//
// Every method below reconfigures the engine while it carries traffic:
// the operation is tagged with a generation, fanned out to each worker
// shard's control queue, and applied at batch boundaries, so other
// tenants' frames keep flowing throughout (§4.1's no-disruption
// property, engine-wide). Methods return the operation's generation;
// pass it to AwaitQuiesceCtx to wait until every shard has applied it.
// Modules and flow sets enter running shards only through the verified
// §4.1 paths, LoadModuleVerified and InsertFlowsVerified.

// AwaitQuiesceCtx blocks until every worker shard has applied the given
// reconfiguration generation (and therefore every operation issued
// before it), bounded by ctx: it returns ctx.Err() when the context
// expires first, and an ErrDegraded-wrapped error as soon as the stall
// watchdog flags a shard that can never reach the generation — so no
// caller blocks forever behind a wedged worker. The awaited operations
// remain queued and still apply if the shard recovers.
func (e *Engine) AwaitQuiesceCtx(ctx context.Context, gen uint64) error {
	return e.eng.AwaitQuiesceCtx(ctx, gen)
}

// QuiesceCtx waits, bounded by ctx, until every shard has applied
// every operation issued so far.
func (e *Engine) QuiesceCtx(ctx context.Context) error { return e.eng.QuiesceCtx(ctx) }

// ReconfigGen returns the most recently issued reconfiguration
// generation.
func (e *Engine) ReconfigGen() uint64 { return e.eng.ReconfigGen() }

// UnloadModule removes a module from the backing device and clears it
// from every running worker shard (tables and stateful segments zeroed),
// without disturbing other tenants. The live fan-out only fails when
// the engine is closed — its shards are terminal then, so the device
// unload stands.
func (e *Engine) UnloadModule(moduleID uint16) (uint64, error) {
	e.ctl.Lock()
	defer e.ctl.Unlock()
	if err := e.dev.UnloadModule(moduleID); err != nil {
		return 0, err
	}
	return e.eng.UnloadModuleLive(moduleID)
}

// FlowEntry is one exact-match flow rule for InsertFlowsVerified: a
// match key resolving to an already-installed VLIW action address. See
// core.FlowEntry.
type FlowEntry = core.FlowEntry

// SetEgressWeight configures a tenant's §3.5 egress WFQ weight live,
// through the same generation-tagged control queue as module
// reconfiguration: every shard applies it at a batch boundary, and
// AwaitQuiesceCtx on the returned generation guarantees it is in force
// engine-wide. Weight 0 clears the tenant back to the implicit weight
// of 1 and prunes its virtual-finish state. The first weight ever set
// switches delivery into egress-scheduling mode (see
// EngineConfig.EgressWeights).
func (e *Engine) SetEgressWeight(tenant uint16, weight float64) (uint64, error) {
	return e.eng.SetEgressWeight(tenant, weight)
}
