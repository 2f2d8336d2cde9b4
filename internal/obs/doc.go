// Package obs is the ops plane over the engine dataplane: a
// hand-rolled Prometheus text-exposition exporter, a management
// HTTP/JSON API, and a sampled frame-trace ring — the layer an
// operator of a running multi-tenant dataplane watches and steers it
// through, without ever touching the hot path.
//
// The package is dependency-free (standard library only; no
// client_golang) and is fed exclusively by the engine's alloc-free
// polling surface:
//
//   - Metrics. An Exporter snapshots one or more engines with
//     Engine.StatsInto — which reuses the receiver's map and slices,
//     so a scraper polling at 10 Hz costs the dataplane no
//     allocations — and renders per-tenant counters (the fate
//     ledger, its forwarded fate a gauge; egress bytes+frames),
//     per-worker gauges (batch target, ring occupancy),
//     reconfiguration generations, pool hit rates, and each worker's
//     log2 batch-latency histogram as
//     cumulative Prometheus buckets. Exporter.Collect itself appends
//     into a retained buffer: a warm scrape allocates nothing either.
//     Multiple sources (fabric nodes) render into one family set,
//     distinguished by a node label.
//
//   - Management API. Server mounts GET /metrics, GET /stats (the
//     full engine.Stats snapshot as JSON), GET /traces, and
//     GET /debug/pprof/*, plus POST endpoints for live mutation:
//     module load/unload, egress weights, and rate limits. Every
//     mutation rides the engine's generation-tagged control queue
//     (see internal/engine/reconfig.go) and returns its
//     generation, so a caller can AwaitQuiesceCtx (or pass "wait": true
//     to block until every shard has applied it). A module load is
//     verified (§4.1) and replaces a program already loaded under the
//     id: it answers only once every shard has confirmed and committed
//     it or it has failed and committed nothing, so "wait" is moot
//     there.
//
//   - Tracing. Tracer is a fixed-capacity overwrite ring of TraceHop
//     records. Sampling is 1-in-N at the entry engine
//     (engine.Config.TraceEvery): the sampled frame's out-of-band
//     meta word gets engine.TraceBit — never a frame byte — and every
//     engine the frame traverses reports a hop (node, worker, tenant,
//     queue depth, timestamp) through engine.Config.OnTrace or
//     fabric.EngineFabric.Trace.
//
// Everything here stays off the hot path: the exporter polls, the
// trace ring records only marked frames, and the engine keeps its
// 0 allocs/op steady state while being scraped (pinned by the
// engine-level AllocsPerRun test).
package obs
