// Package fabric wires multiple Menshen devices into a small network,
// the setting several of the paper's arguments live in: a tenant's
// module can be "spread across multiple programmable devices" (§3.4 —
// the reason modules must not rewrite their VID), virtual IPs are
// scoped per tenant across the fabric (§3.3), and the control plane
// checks that a module's routing tables are loop-free across devices
// before loading them (§3.4).
//
// The fabric is a directed port graph: (device, egress port) either
// ends at a host or enters another device at some ingress port.
// EngineFabric runs it as a concurrent dataplane: one engine.Engine per
// node, fed in batches; a node's egress stage classifies processed
// frames by egress port and re-submits linked-port frames into the
// downstream node's engine, host-terminal frames to the Deliver sink.
// The package's parity tests hold it to byte-identical per-host outputs
// against a synchronous reference walk that takes each frame (and its
// multicast copies) breadth-first through full per-device pipelines.
//
// # Invariants of the engine-backed fabric
//
//   - A hop is a pointer move. Inter-node links are owned-buffer
//     hand-offs: the upstream node takes the buffer out of its engine
//     (the OnBatch ownership-take contract) and ForwardBatch gives it
//     to the downstream engine. All nodes share one buffer pool, so
//     handed-off buffers recirculate instead of draining one node's
//     pool into another's. The only per-frame copies in the whole
//     fabric are the one entry copy at InjectBatch and one copy per
//     extra multicast replica.
//   - Hop counts ride out-of-band. The TTL that bounds a frame's walk
//     (MaxHops) is carried next to the buffer in BatchResult.Meta,
//     never written into the frame: the bytes on a link are exactly
//     the tenant's frame, VID intact (§3.3/§3.4). A frame that
//     reaches the bound is dropped and counted (TTLDropped), so even a
//     routing loop the §3.4 check would have refused degrades into
//     accounted loss, not a hang.
//   - Inter-node backpressure never blocks. A downstream node's full
//     ring sheds the hand-off (drop-and-count, LinkDropped +
//     downstream QueueFull, which FabricStats.Accounted counts once)
//     instead of blocking the upstream worker inside its OnBatch;
//     combined with the TTL bound this keeps any topology — including
//     cyclic ones — deadlock-free. Only the
//     fabric's edge (InjectBatch with DropOnFull unset) may block, and
//     that blocks the injecting caller, never a worker.
//   - Network ingress is untrusted. Neither InjectBatch nor the
//     cross-node hand-off diverts reconfiguration frames to a control
//     plane; they ride the data path, where each node's packet filter
//     drops them (§3.1 secure reconfiguration). Control planes remain
//     per node (EngineNode.Eng), with EngineFabric.QuiesceCtx as the
//     fabric-wide barrier.
package fabric
