// Package sched implements the traffic-management mechanisms the paper
// delegates to the edges of the pipeline:
//
//   - Per-module token-bucket rate limiters (§5: "hardware rate limiters
//     can be used to limit each module's packet/bit rate" when the
//     minimum-size or no-recirculation assumptions are violated).
//   - A PIFO (push-in first-out) scheduler (§3.5: "Proposals like PIFO
//     can be used here, by assigning PIFO ranks to different modules to
//     realize a desired inter-module bandwidth-sharing policy"), with a
//     start-time-fair-queueing rank policy for weighted sharing of the
//     output link: EgressQueue, built for an engine worker's TX loop —
//     single-owner, lock-free, allocation-free, and bounded by push-out
//     rather than tail drop.
//
// Rate limiters operate on a simulated clock supplied by the caller
// (seconds), so experiments are deterministic.
//
// # Accounting invariants
//
// The §3.5 fairness guarantee — delivered inter-tenant bandwidth
// follows the configured weights regardless of offered load — holds
// only if virtual time is charged for exactly the frames that occupy
// the queue. Three rules pin that down (each has a regression test):
//
//   - Only accepted frames charge: a frame rejected at a full queue
//     advances no virtual-finish time, so a tenant hitting the bound is
//     not penalized on frames it never sent.
//   - Evicted frames refund exactly: per-tenant ranks are
//     nondecreasing and the push-out victim is the global worst, so
//     the victim is always its tenant's most recently accepted frame
//     and rolling lastFinish back to the evicted rank is an exact
//     undo.
//   - Unload prunes: ClearTenant / ClearLimit drop a module's
//     virtual-finish and bucket state, so a re-loaded tenant
//     starts from a clean slate instead of inheriting its previous
//     life's penalty (or windfall).
//
// # Push-out, not tail drop
//
// EgressQueue bounds its PIFO by discarding the worst-ranked *queued*
// frame when a better-ranked frame arrives at a full queue. Tail drop
// would let an over-share tenant's backlog squat in the queue and
// convert the bound into first-come-first-served; push-out keeps the
// queue's composition — and with it the drained output — at the
// configured weights under overload.
package sched
