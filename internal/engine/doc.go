// Package engine is the concurrent, batched dataplane runtime: the
// software path from "one synchronous Send at a time" to the paper's
// 100 Gbit/s-class operating point. It follows the standard line-rate
// software dataplane recipe (cf. NDN-DPDK): RSS-style flow steering
// fans frames out to N worker shards, each worker owns a replica of the
// pipeline configuration and services lock-free per-tenant RX rings in
// round robin, and frames move through the pipeline in batches so
// table-configuration reads and telemetry are amortized across the
// batch. The frame path itself is the one core.Pipeline has — Device.Send
// is a batch of one through it — so what the engine adds, and what its
// parity suites against Device test, is concurrency: steering, the
// hand-off, reconfiguration interleaved with traffic.
//
// # Sharding model
//
// Every worker holds its own core.Pipeline replica, configured
// identically at engine creation by replaying each module's
// reconfiguration commands (the same §4.1 procedure the control plane
// uses). Steering is deterministic per flow, so per-flow state lands on
// a consistent shard — the same contract a multi-queue NIC's RSS gives
// per-core software dataplanes. Per-module stateful memory is therefore
// sharded per worker; cross-flow aggregate state (e.g. a NetCache
// counter) is per-shard, exactly as per-core state is in DPDK-class
// systems.
//
// # Isolation
//
// Tenants keep their Menshen guarantees inside each pipeline replica
// (§3.1's packet filter, space-partitioned tables, and per-module
// stateful segments), and the engine adds edge enforcement: per-tenant
// token buckets (internal/sched) at submission, per-tenant rings so one
// tenant's burst cannot occupy another tenant's queue space, and
// round-robin service so a backlogged tenant cannot starve others on
// the same shard. With egress weights configured, §3.5 inter-tenant
// output sharing is enforced on each worker's TX side as well (see
// "Egress" below).
//
// # Hand-off
//
// Between SubmitBatch and the worker sits one bounded lock-free
// multi-producer/single-consumer ring per tenant per worker (ring.go) —
// the NDN-DPDK layering: input side → ring → run-to-completion worker.
// submitBatch is reserve → copy → publish; the worker pops, processes,
// delivers. Neither takes a lock the other can hold. A pop takes what
// the tenant has published, up to BatchSize, and that is the whole
// batch-sizing rule: a trickle is served a frame at a time, a backlog
// in full batches.
//
// Who owns what:
//
//   - tail (next position to reserve) belongs to the producers: one CAS
//     claims a run of slots. A full ring is detected there, from tail
//     and head alone, and counted (QueueFull) without a copy, a pool
//     buffer, or a write to anything the worker reads.
//   - slot contents are the reserving producer's until it publishes the
//     run (one atomic store in the run's first slot), the worker's after.
//   - head (next position to pop), the round-robin cursor and the
//     egress queue belong to the worker goroutine.
//     head is an atomic only so producers can read how much room there is.
//   - the fence set lives in the rings (ring.paused), stored only by the
//     worker's control pass; worker.mu guards the copy that rings created
//     later inherit, the control-operation queue, and ring creation — the
//     slow paths. The tenant → ring lookup is a load of an immutable
//     snapshot.
//   - the doorbell (worker.parked + a one-token channel) is rung by a
//     producer, the control plane or Close, and only when parked is set;
//     blocking submitters and Drain callers register in worker.waiters
//     and the worker signals them only when that is non-zero.
//
// Why publish/park cannot lose a wake-up: the producer stores the run,
// then loads parked; the worker stores parked, then loads the run
// (park → anyReady). Go's atomics are sequentially consistent, so in
// the single order of those four operations one of the loads follows
// the other side's store: either the producer sees parked and rings, or
// the worker sees the run and does not sleep. The same store-then-load
// pairing covers control operations (opsQueued), Close (closing) and
// the waiters count against head/busy. Close cannot strand a frame
// either: the worker seals each tail before its last look, so a
// reservation either precedes the seal and is waited for, or fails.
//
// Why a ring per tenant and not one shared ring with a demultiplexer
// behind it: admission is where isolation is decided. A shared ring
// that a flat-out tenant keeps full rejects the paced tenant's frames
// at the door, and no scheduling behind the door can bring them back.
// With its own ring a tenant's admission depends on its own occupancy
// alone, and a rejected aggressor batch costs two loads and a counter.
//
// # Submit entry points
//
// Four exported fronts over the one submitBatch; a single frame is a
// batch of one. Each row is a distinct caller with distinct semantics:
//
//	entry point       buffer  reconfig frames       full ring          caller
//	SubmitBatch       copy    trusted (diverted)    blocks*            local host, CLI, bench
//	SubmitBatchOwned  owned   trusted (diverted)    blocks*            socket ingress
//	InjectBatch       copy    untrusted (filtered)  blocks*            fabric entry
//	ForwardBatch      owned   untrusted (filtered)  never blocks       fabric hop
//
//	* unless Config.DropOnFull, which tail-drops instead
//
// "Owned" means the engine takes the buffer, accepted or not; Borrow
// and Release are its pool. "Trusted" means a well-formed
// reconfiguration frame goes to the control plane (§3.1's host path);
// an untrusted port leaves it on the data path for the packet filter.
//
// # Buffer ownership and lifetime
//
// These are the invariants the zero-copy path rests on; every queued
// buffer obeys them.
//
//   - Every buffer on a ring is engine-owned: either a pooled copy of
//     a caller's frame (SubmitBatch/InjectBatch — the one copy on the
//     frame's whole path) or a buffer the caller relinquished
//     (SubmitBatchOwned/ForwardBatch, with Borrow as the
//     intended source). Exclusive ownership is what makes in-place
//     deparsing sound: nothing else may read or write the bytes while
//     a batch runs.
//   - The "valid until the callback returns" rule: OnBatch results —
//     including Data, which aliases the ring buffer — are valid only
//     for the duration of the callback. When it returns, the batch's
//     buffers go back to the pool and will back future frames.
//   - The ownership-take exception: a callback may keep a forwarded
//     result's buffer by setting results[i].Data to nil before
//     returning; the engine then skips recycling it. This is the
//     cross-engine hand-off primitive — a fabric hop moves a buffer
//     from one engine to the next (ForwardBatch) without a copy.
//   - Per-frame context (the fabric's hop count and ingress port)
//     travels out-of-band in BatchResult.Meta and the ring slots' aux
//     words, never in the frame bytes, so the wire format stays
//     exactly the paper's (§3.3: the frame on an inter-device link is
//     just the tenant's frame, VID intact).
//
// # Control queue: generations and fences (§4.1)
//
// Live reconfiguration fans generation-tagged control operations out
// to per-shard queues, drained in issue order at batch boundaries —
// a shard never observes a half-applied operation mid-batch. A shard
// that has applied generation g has applied every operation tagged
// ≤ g; AwaitQuiesce(g) is the engine-wide barrier. Tenant fences hold
// (BeginTenantUpdate: frames queued, not dropped) or drop
// (SetTenantUpdating: the §4.1 filter update bitmap) one tenant's
// traffic while every other tenant keeps flowing. See reconfig.go for
// the full model.
//
// # Egress (§3.5)
//
// With weights configured, each worker ranks processed frames with
// tenant-weighted start-time fair queueing and drains them in rank
// order through a bounded push-out PIFO (sched.EgressQueue): overflow
// discards the worst-ranked queued frame, not the arrival, which is
// what holds delivered shares at the weights under overload. Scheduled
// delivery obeys the same buffer-lifetime and ownership-take rules;
// queued frames' buffers outlive their batch and are reclaimed on
// delivery or displacement.
package engine
