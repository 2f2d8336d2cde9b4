// Core ingress contracts: the Sink and Source interfaces, the shared
// counter block and capped-backoff schedule, the per-frame submit
// helpers on the RX hot path, and the Listeners aggregate that owns
// serve goroutines. Package semantics — ownership, counter fates, the
// backoff contract — are documented in doc.go.
package ingress

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/packet"
)

// BufferSource provides pool buffers for decoded frames. It is the
// read-side half of Sink, split out so the pure stream decoder can be
// driven (and fuzzed) without a running engine.
type BufferSource interface {
	// Borrow returns a buffer of at least n bytes from the pool.
	Borrow(n int) []byte
	// Release returns a borrowed buffer without submitting it.
	Release(buf []byte)
}

// Sink is where a Source delivers frames: the engine's owned-buffer
// submit surface. *engine.Engine and the facade *menshen.Engine both
// satisfy it. Every buffer passed to SubmitBatchOwned must have come
// from Borrow, and belongs to the sink afterwards whether or not the
// frame was accepted.
type Sink interface {
	BufferSource
	// SubmitBatchOwned hands borrowed buffers to the engine and returns
	// how many frames were accepted; a refused frame was rate-limited
	// or ring-full (counted per tenant) and its buffer reclaimed.
	SubmitBatchOwned(frames [][]byte) (int, error)
}

// Source is one frame producer, a socket transport. Sources are
// single-use: Serve once, then Close.
type Source interface {
	// Transport names the transport kind ("udp", "tcp" or "unixgram").
	Transport() string
	// Addr is the bound listen address (after a ":0" bind it carries
	// the kernel-chosen port).
	Addr() string
	// Serve runs the RX loop, borrowing sink buffers and submitting
	// frames until the context is canceled, Close is called, or the
	// sink is closed. A clean shutdown returns nil.
	Serve(ctx context.Context, sink Sink) error
	// StatsInto writes the source's counter snapshot.
	StatsInto(st *engine.IngressStats)
	// Close unblocks Serve and releases the socket. It is idempotent
	// and safe to call concurrently with Serve.
	Close() error
}

// DefaultBackoff is the schedule the TCP accept loop retries under, and
// the one a zero Backoff adopts: 1ms doubling to a 100ms cap.
var DefaultBackoff = Backoff{Base: time.Millisecond, Max: 100 * time.Millisecond}

// acceptRetries bounds consecutive transient accept failures before the
// TCP serve loop gives up.
const acceptRetries = 8

// Backoff is the capped exponential retry schedule of the ingress
// plane (doc.go, "Backoff contract"). The zero value adopts
// DefaultBackoff's fields.
type Backoff struct {
	// Base is the first retry's delay.
	Base time.Duration
	// Max caps the delay growth.
	Max time.Duration
}

// Delay returns the wait before retry attempt (0-based): Base<<attempt
// clamped to Max, overflow-safe for any attempt.
func (b Backoff) Delay(attempt int) time.Duration {
	base, max := b.Base, b.Max
	if base <= 0 {
		base = DefaultBackoff.Base
	}
	if max <= 0 {
		max = DefaultBackoff.Max
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d <<= 1
	}
	if d > max {
		d = max
	}
	return d
}

// Frame-size bounds every transport checks socket input against.
const (
	// DefaultMinFrame is the smallest frame a transport accepts:
	// Ethernet + 802.1Q, the prefix that carries the tenant VLAN —
	// anything shorter cannot be attributed to a tenant.
	DefaultMinFrame = packet.EthernetHeaderLen + packet.VLANTagLen
	// DefaultMaxFrame is the largest accepted frame. 2047 keeps the
	// datagram read buffer (DefaultMaxFrame+1, for overrun detection)
	// exactly one 2KiB pool class.
	DefaultMaxFrame = 2047
	// MaxFrameLimit is the longest frame the length-prefixed stream
	// framing can carry: its length field is 16 bits.
	MaxFrameLimit = 65535
)

// Config parameterizes a socket transport. The zero value is ready to
// use.
type Config struct {
	// ReadBuffer, when > 0, sets the socket's kernel receive buffer
	// (SO_RCVBUF) — the knob that keeps a bursty UDP sender's frames
	// queued in the kernel instead of silently dropped there.
	ReadBuffer int
	// Fault, when set on a TCP source, sentences every received frame:
	// a Drop sentence resets the connection — deterministic, seeded
	// connection chaos for the redial tests.
	Fault *faultinject.Injector
}

// counters is the shared per-source atomic counter block behind
// engine.IngressStats.
type counters struct {
	reads         atomic.Uint64
	received      atomic.Uint64
	receivedBytes atomic.Uint64
	submitted     atomic.Uint64
	rejected      atomic.Uint64
	short         atomic.Uint64
	oversize      atomic.Uint64
	decodeErrors  atomic.Uint64
	connsAccepted atomic.Uint64
	acceptRetries atomic.Uint64
	connResets    atomic.Uint64
}

// snapshotInto writes the counter block into an exported snapshot.
func (c *counters) snapshotInto(st *engine.IngressStats, transport, addr string) {
	st.Transport = transport
	st.Listen = addr
	st.Reads = c.reads.Load()
	st.Received = c.received.Load()
	st.ReceivedBytes = c.receivedBytes.Load()
	st.Submitted = c.submitted.Load()
	st.SubmitRejected = c.rejected.Load()
	st.ShortDropped = c.short.Load()
	st.OversizeDropped = c.oversize.Load()
	st.DecodeErrors = c.decodeErrors.Load()
	st.ConnsAccepted = c.connsAccepted.Load()
	st.AcceptRetries = c.acceptRetries.Load()
	st.ConnResets = c.connResets.Load()
}

// submitFrame hands one well-formed frame to the sink as a batch of one
// and files its fate: Submitted on acceptance, SubmitRejected on a
// counted refusal. one is the caller's reusable one-slot batch, so the
// call allocates nothing. A non-nil error (the sink is closed) ends the
// RX loop; the buffer is the sink's in every case.
//
//menshen:hotpath
func submitFrame(sink Sink, c *counters, one *[1][]byte, frame []byte) error {
	c.received.Add(1)
	c.receivedBytes.Add(uint64(len(frame)))
	one[0] = frame
	n, err := sink.SubmitBatchOwned(one[:])
	one[0] = nil // the engine owns it now
	if err != nil {
		return err
	}
	if n == 1 {
		c.submitted.Add(1)
	} else {
		c.rejected.Add(1)
	}
	return nil
}

// Listeners aggregates a set of sources feeding one sink: it owns one
// serve goroutine per source, records terminal serve errors, and
// exposes every source's counters as one engine ingress filler.
type Listeners struct {
	mu      sync.Mutex
	sources []Source
	errs    []error
	started bool
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// NewListeners builds an aggregate over the given sources.
func NewListeners(sources ...Source) *Listeners {
	return &Listeners{sources: append([]Source(nil), sources...), errs: make([]error, len(sources))}
}

// Start launches one serve goroutine per source, all feeding sink.
// Terminal serve errors are recorded (Err) — a source dying never
// takes the process or its siblings with it.
func (l *Listeners) Start(sink Sink) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.started {
		panic("ingress: Start called twice")
	}
	l.started = true
	ctx, cancel := context.WithCancel(context.Background())
	l.cancel = cancel
	for i, src := range l.sources {
		i, src := i, src
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			if err := src.Serve(ctx, sink); err != nil && !errors.Is(err, net.ErrClosed) && !errors.Is(err, context.Canceled) {
				l.mu.Lock()
				l.errs[i] = err
				l.mu.Unlock()
			}
		}()
	}
}

// Err returns the first terminal serve error recorded so far, or nil.
func (l *Listeners) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, err := range l.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Fill appends one IngressStats per source — the filler to register
// with Engine.RegisterIngress. Safe from any goroutine, including
// after Close (final counters keep reporting).
func (l *Listeners) Fill(st []engine.IngressStats) []engine.IngressStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, src := range l.sources {
		var one engine.IngressStats
		src.StatsInto(&one)
		st = append(st, one)
	}
	return st
}

// Close stops every source, waits for the serve goroutines to finish,
// and returns the first close or terminal serve error. Idempotent.
func (l *Listeners) Close() error {
	l.mu.Lock()
	if l.cancel != nil {
		l.cancel()
	}
	sources := append([]Source(nil), l.sources...)
	l.mu.Unlock()
	var first error
	for _, src := range sources {
		if err := src.Close(); err != nil && first == nil {
			first = err
		}
	}
	l.wg.Wait()
	if first == nil {
		first = l.Err()
	}
	return first
}
