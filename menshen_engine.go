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
	"errors"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/reconfig"
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
}

// NewEngine snapshots the device's loaded modules into a concurrent
// batched engine: every worker shard replays the modules' configuration
// into its own pipeline replica (same geometry, same platform options,
// same placements). To reconfigure a *running* engine, use the engine's
// own LoadModule/UnloadModule/ApplyReconfig — modules loaded or updated
// directly on the Device afterwards are not reflected in running
// shards. A cfg that sets Geometry, Options or Modules itself is
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
// pass it to AwaitQuiesce to wait until every shard has applied it.

// ApplyReconfig injects one raw reconfiguration frame (the Figure 7
// wire format, built by the control software) into the running engine.
// Equivalently, reconfiguration frames may be interleaved with data
// frames in SubmitBatch: well-formed ones are diverted to the
// control plane, and malformed ones fall through to the data path where
// the shard packet filters drop them.
func (e *Engine) ApplyReconfig(frame []byte) (uint64, error) {
	return e.eng.ApplyReconfigFrame(frame)
}

// AwaitQuiesce blocks until every worker shard has applied the given
// reconfiguration generation (and therefore every operation issued
// before it).
func (e *Engine) AwaitQuiesce(gen uint64) error { return e.eng.AwaitQuiesce(gen) }

// Quiesce waits until every shard has applied every operation issued so
// far.
func (e *Engine) Quiesce() error { return e.eng.Quiesce() }

// ReconfigGen returns the most recently issued reconfiguration
// generation.
func (e *Engine) ReconfigGen() uint64 { return e.eng.ReconfigGen() }

// LoadModule compiles, admits, and loads a module onto the backing
// device, then replays its configuration live into every running worker
// shard as one fenced operation. Other tenants keep processing frames
// throughout. If the live fan-out fails (in practice: the engine was
// closed concurrently), the device load is rolled back so device and
// shards stay in agreement.
func (e *Engine) LoadModule(source string, moduleID uint16) (*LoadReport, uint64, error) {
	rep, err := e.dev.LoadModule(source, moduleID)
	if err != nil {
		return nil, 0, err
	}
	m := e.dev.modules[moduleID]
	gen, err := e.eng.LoadModuleLive(engine.ModuleSpec{Config: m.program.Config, Placement: m.placement})
	if err != nil {
		_ = e.dev.UnloadModule(moduleID) // keep device and shards in agreement
		return nil, 0, err
	}
	return rep, gen, nil
}

// UnloadModule removes a module from the backing device and clears it
// from every running worker shard (tables and stateful segments zeroed),
// without disturbing other tenants. The live fan-out only fails when
// the engine is closed — its shards are terminal then, so the device
// unload is not rolled back.
func (e *Engine) UnloadModule(moduleID uint16) (uint64, error) {
	if err := e.dev.UnloadModule(moduleID); err != nil {
		return 0, err
	}
	return e.eng.UnloadModuleLive(moduleID)
}

// BeginTenantUpdate fences one tenant across every shard: after the
// returned generation quiesces, none of the tenant's frames are
// processed (they are held in their rings, not dropped) until
// EndTenantUpdate, while all other tenants keep flowing. Use it to make
// a multi-step reconfiguration atomic with respect to the tenant's
// traffic. Drain blocks on held frames, so always end the update.
func (e *Engine) BeginTenantUpdate(tenant uint16) (uint64, error) {
	return e.eng.BeginTenantUpdate(tenant)
}

// EndTenantUpdate lifts a tenant's fence.
func (e *Engine) EndTenantUpdate(tenant uint16) (uint64, error) {
	return e.eng.EndTenantUpdate(tenant)
}

// SetTenantUpdating sets or clears the packet-filter update bit for the
// tenant on every shard — the paper's drop-during-update semantics, as
// opposed to the hold semantics of BeginTenantUpdate.
func (e *Engine) SetTenantUpdating(tenant uint16, updating bool) (uint64, error) {
	return e.eng.SetTenantUpdating(tenant, updating)
}

// FlowEntry is one exact-match flow rule for InsertFlows: a match key
// resolving to an already-installed VLIW action address. See
// core.FlowEntry.
type FlowEntry = core.FlowEntry

// InsertFlows installs a batch of exact-match flow entries for one
// module into the given stage of every running worker shard, through
// the generation-tagged control queue (entries with Valid false are
// deletions). Flow entries scale the module's exact-match depth far
// beyond the CAM — the §4.3 cuckoo path — without consuming CAM
// entries: each flow steers packets to one of the module's existing
// actions. Returns the operation's generation; AwaitQuiesce on it
// guarantees the flows are live on every shard. Derive keys for live
// traffic with Device.ControlPlane().FlowKeyForFrame.
func (e *Engine) InsertFlows(moduleID uint16, stg int, flows []FlowEntry) (uint64, error) {
	cmds := make([]reconfig.Command, len(flows))
	for i, f := range flows {
		f.ModID = moduleID
		cmds[i] = core.FlowCommand(stg, f)
	}
	return e.eng.ApplyReconfig(moduleID, cmds...)
}

// SetEgressWeight configures a tenant's §3.5 egress WFQ weight live,
// through the same generation-tagged control queue as module
// reconfiguration: every shard applies it at a batch boundary, and
// AwaitQuiesce on the returned generation guarantees it is in force
// engine-wide. Weight 0 clears the tenant back to the implicit weight
// of 1 and prunes its virtual-finish state. The first weight ever set
// switches delivery into egress-scheduling mode (see
// EngineConfig.EgressWeights).
func (e *Engine) SetEgressWeight(tenant uint16, weight float64) (uint64, error) {
	return e.eng.SetEgressWeight(tenant, weight)
}
