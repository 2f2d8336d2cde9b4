// Package ingress is the engine's frame-source abstraction: the seam
// where real traffic — sockets today, shared-memory rings tomorrow —
// enters the dataplane through the zero-copy borrowed-buffer path.
//
// # Sources and sinks
//
// A Source is anything that produces frames: ListenUDP, ListenTCP,
// ListenUnixgram, or trafficgen's scenario adapter. A Sink is anything
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
// Frames submitted this way ride the engine's *trusted* submit path:
// like in-process SubmitBatch, a well-formed reconfiguration frame (UDP
// port 0xf1f2, Figure 7) is diverted to the control plane. An ingress
// socket is therefore the PCIe-host analogue, not an untrusted device
// port — deployments fronting untrusted peers must filter
// reconfiguration frames upstream or use the Inject/Forward paths.
//
// # Counted, never silent
//
// Every byte read off a transport lands in exactly one counter fate
// (engine.IngressStats): well-formed frames are Received and then
// either Submitted or SubmitRejected; malformed input is ShortDropped,
// OversizeDropped, or DecodeErrors; a stream cut mid-frame is a
// ConnResets. Loss degrades into counters, never into blocking or
// silence — so integration tests (and operators reading /metrics) can
// assert exact conservation: client-sent == delivered + every counted
// drop class. Reads is the one counter that is not a fate: datagram RX
// syscalls that returned something, so Received / Reads is the burst
// size the socket actually delivered.
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
