// Package ingress is the engine's frame-source abstraction: the seam
// where real traffic — sockets today, shared-memory rings tomorrow —
// enters the dataplane through the zero-copy borrowed-buffer path.
//
// # Sources and sinks
//
// A Source is a socket that produces frames: ListenUDP, ListenTCP or
// ListenUnixgram. A Sink is anything
// that consumes them through the engine's owned-buffer contract —
// *engine.Engine and the root facade's *menshen.Engine both satisfy
// it. A datagram Source's RX loop runs borrow N → fill → classify →
// SubmitBatchOwned, a burst at a time: it keeps N (32) pool buffers on
// loan, one syscall (recvmmsg on linux/amd64 and linux/arm64, one Read
// — a burst of one — elsewhere; internal/mmsg hides which) lets the
// kernel copy every queued datagram into them, and the in-range frames
// of the burst go to the engine in one call. The fill returns what is
// queued and parks only on an empty socket, so a burst never waits to
// fill and a trickle still sees one frame per read. The stream Source
// runs Borrow → read → SubmitBatchOwned per frame, a batch of one.
// Either way the kernel's
// copy is the only copy: from there to the wire the engine never
// copies the frame again. The Listeners aggregate owns the serve
// goroutines and surfaces every source's counters through
// Engine.RegisterIngress.
//
// # Ownership and lifetime of RX buffers
//
// The RX loop borrows buffers from the sink's pool, fills them from the
// socket, and hands them to SubmitBatchOwned. From that call on a
// buffer belongs to the engine — accepted or not (a rejected frame's
// buffer is reclaimed into the pool immediately). A stream frame that
// never reaches SubmitBatchOwned is Released back by the source.
// The datagram loop holds a standing borrow instead: each round tops
// its burst back up to N buffers; a buffer the fill left empty, or
// filled with a short or oversize datagram, simply stays on loan for
// the next round, and whatever is on loan when Serve returns is
// Released then. Either way every borrowed buffer has exactly one owner
// at all times and the steady state allocates nothing.
//
// Socket ingress is untrusted: SubmitBatchOwned is a data path like
// every engine submit entry point, so a reconfiguration frame (UDP port
// 0xf1f2, Figure 7) arriving on a socket is steered to its VLAN tenant
// and dropped by the shard's packet filter (§3.1), counted in the
// tenant's PipelineDrops. Configuration reaches a running engine only
// through its verified control calls.
//
// # Counted, never silent
//
// Every frame read off a transport ends in exactly one fate of the
// engine's ingress ledger (engine.IngressStats.Fates): submitted or
// rejected by the engine (together, Received), or dropped unsubmitted
// as short or oversize. Beside the ledger, a stream framing violation
// counts DecodeErrors and a stream cut mid-frame ConnResets. Loss
// degrades into counters, never into blocking or silence, so a drained
// engine's Stats.Conserved (and /metrics'
// menshen_ingress_frames_total{fate}) states exact conservation:
// client-sent == the fates' sum. Reads is not a fate: RX syscalls that
// returned something, so Received / Reads is the burst size.
//
// # Backoff contract
//
// Transient failures retry under one capped exponential schedule,
// Backoff: delay Base<<attempt clamped to Max, reset on success. The
// TCP accept loop retries transient accept errors under DefaultBackoff
// (counted as AcceptRetries) and gives up after acceptRetries (8)
// consecutive failures; trafficgen's LoadClient redials under the
// Backoff it was dialed with. A flapped listener costs bounded,
// decaying retry work — never a spin, never a hang.
//
// # Frame bounds
//
// Socket input is checked against two constants: a frame shorter than
// DefaultMinFrame (Ethernet + 802.1Q: it cannot name a tenant) is
// ShortDropped, one longer than DefaultMaxFrame (2047: the read buffer
// with its overrun byte is one 2 KiB pool class) is OversizeDropped on
// a datagram socket and a framing violation on a stream.
package ingress
