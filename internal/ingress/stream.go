// Stream transport: TCP with a 2-byte big-endian length-prefixed
// framing codec. The decoder is a standalone type (StreamDecoder) so
// the codec can be unit-tested and fuzzed without sockets; the
// TCPSource wraps it with an accept loop (capped-backoff retry on
// transient errors), per-connection RX goroutines, and optional
// seeded connection resets for chaos tests.
package ingress

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/faultinject"
)

// headerLen is the size of the length prefix on the wire.
const headerLen = 2

// ErrShortFrame reports a stream frame whose declared length was valid
// but below the transport's minimum. The decoder consumed the payload
// — the stream stays in sync — and the caller counts the frame as
// ShortDropped and continues.
var ErrShortFrame = errors.New("ingress: frame shorter than the transport minimum")

// FramingError is an unrecoverable stream-framing violation: a length
// prefix of zero or beyond the transport maximum. After one the byte
// stream cannot be re-synchronized, so the connection must be closed
// (counted as DecodeErrors).
type FramingError struct {
	// Length is the declared frame length.
	Length int
	// Max is the transport's maximum accepted frame length.
	Max int
}

// Error describes the violation.
func (e *FramingError) Error() string {
	return fmt.Sprintf("ingress: framing violation: declared length %d outside [1, %d]", e.Length, e.Max)
}

// AppendFrame appends the stream encoding of frame — a 2-byte
// big-endian length prefix, then the payload — to dst and returns it.
// It fails on frames the codec cannot carry (empty, or longer than
// MaxFrameLimit).
func AppendFrame(dst, frame []byte) ([]byte, error) {
	if len(frame) == 0 || len(frame) > MaxFrameLimit {
		return dst, fmt.Errorf("ingress: cannot encode %d-byte frame (valid: 1..%d)", len(frame), MaxFrameLimit)
	}
	dst = append(dst, byte(len(frame)>>8), byte(len(frame)))
	return append(dst, frame...), nil
}

// StreamDecoder incrementally decodes length-prefixed frames from a
// byte stream, handling frames split across arbitrary read boundaries.
// It is pure: no sockets, no counters — the TCP RX loop, the framing
// unit tests, and FuzzTCPFraming all drive the same code.
type StreamDecoder struct {
	r   io.Reader
	hdr [headerLen]byte
	// scratch swallows a valid-length frame below the minimum, keeping
	// the stream in sync without allocating.
	scratch [DefaultMinFrame]byte
}

// NewStreamDecoder returns a decoder over r accepting frame lengths in
// [DefaultMinFrame, DefaultMaxFrame].
func NewStreamDecoder(r io.Reader) *StreamDecoder {
	return &StreamDecoder{r: r}
}

// Reset points the decoder at a new stream, reusing its state — the
// alloc-free way to decode successive connections.
func (d *StreamDecoder) Reset(r io.Reader) { d.r = r }

// Next decodes one frame into a buffer borrowed from bufs and returns
// it sized to the frame. Outcomes:
//
//   - (frame, nil): one well-formed frame; the caller owns the buffer.
//   - (nil, ErrShortFrame): valid length below the minimum; payload consumed,
//     stream still in sync — count and continue.
//   - (nil, *FramingError): zero or oversize length; the stream is
//     unrecoverable — count DecodeErrors and close it.
//   - (nil, io.EOF): clean end between frames.
//   - (nil, io.ErrUnexpectedEOF): the stream was cut mid-frame.
//   - (nil, other): the reader failed.
//
// It never panics and never blocks beyond the underlying reader.
//
//menshen:hotpath
func (d *StreamDecoder) Next(bufs BufferSource) ([]byte, error) {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		return nil, err // io.ReadFull: EOF only at a frame boundary, else ErrUnexpectedEOF
	}
	n := int(binary.BigEndian.Uint16(d.hdr[:]))
	if n == 0 || n > DefaultMaxFrame {
		return nil, &FramingError{Length: n, Max: DefaultMaxFrame} //menshen:allocok terminal per-connection error, never on the steady path
	}
	if n < DefaultMinFrame {
		// Consume the short payload from scratch so the stream stays
		// framed; the caller counts the drop and keeps reading.
		if _, err := io.ReadFull(d.r, d.scratch[:n]); err != nil {
			return nil, cutErr(err)
		}
		return nil, ErrShortFrame
	}
	buf := bufs.Borrow(n)
	if _, err := io.ReadFull(d.r, buf[:n]); err != nil {
		bufs.Release(buf)
		return nil, cutErr(err)
	}
	return buf[:n], nil
}

// cutErr normalizes a read error inside a frame: an EOF there is a
// mid-frame cut, not a clean close.
//
//menshen:hotpath
func cutErr(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// TCPSource accepts stream connections and runs one decoding RX loop
// per connection.
type TCPSource struct {
	ln   *net.TCPListener
	addr string
	cfg  Config
	ctr  counters

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup // per-connection RX goroutines
}

// ListenTCP binds a TCP listen socket and returns it as a frame
// source. Each accepted connection carries length-prefixed frames
// (AppendFrame's encoding); TCP's own delivery guarantees make the
// transport lossless per surviving connection, and a connection that
// dies mid-frame is counted (ConnResets), never silent.
func ListenTCP(addr string, cfg Config) (*TCPSource, error) {
	taddr, err := net.ResolveTCPAddr("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ingress: resolve tcp %s: %w", addr, err)
	}
	ln, err := net.ListenTCP("tcp", taddr)
	if err != nil {
		return nil, fmt.Errorf("ingress: listen tcp %s: %w", addr, err)
	}
	return &TCPSource{
		ln:    ln,
		addr:  ln.Addr().String(),
		cfg:   cfg,
		conns: make(map[net.Conn]struct{}),
	}, nil
}

// Transport names the transport kind.
func (s *TCPSource) Transport() string { return "tcp" }

// Addr is the bound listen address (kernel-chosen port resolved).
func (s *TCPSource) Addr() string { return s.addr }

// StatsInto writes the source's counter snapshot.
func (s *TCPSource) StatsInto(st *engine.IngressStats) {
	s.ctr.snapshotInto(st, "tcp", s.addr)
}

// Close stops the accept loop, closes every live connection, and waits
// for the RX goroutines — no goroutine outlives the source.
func (s *TCPSource) Close() error {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	if errors.Is(err, net.ErrClosed) {
		err = nil
	}
	s.wg.Wait()
	return err
}

// track registers a live connection, refusing it when the source is
// already closing (the race between Accept and Close).
func (s *TCPSource) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *TCPSource) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Serve accepts connections until the listener closes, retrying
// transient accept failures under the capped-backoff schedule (counted
// as AcceptRetries) and giving up after acceptRetries consecutive
// failures. Each connection is served on its own goroutine;
// Serve returns only after all of them have finished.
func (s *TCPSource) Serve(ctx context.Context, sink Sink) error {
	stop := context.AfterFunc(ctx, func() { _ = s.Close() })
	defer stop()
	defer s.wg.Wait()
	attempt := 0
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			if attempt >= acceptRetries {
				return fmt.Errorf("ingress: tcp accept on %s: %w", s.addr, err)
			}
			s.ctr.acceptRetries.Add(1)
			time.Sleep(DefaultBackoff.Delay(attempt))
			attempt++
			continue
		}
		attempt = 0
		if !s.track(conn) {
			_ = conn.Close()
			return nil
		}
		s.ctr.connsAccepted.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			s.serveConn(conn, sink)
		}()
	}
}

// serveConn decodes and submits one connection's frames until the
// stream ends, always filing the ending in a counter: a clean close is
// free, a framing violation is DecodeErrors, anything that cuts the
// stream mid-flight is ConnResets.
func (s *TCPSource) serveConn(conn net.Conn, sink Sink) {
	defer func() { _ = conn.Close() }()
	dec := NewStreamDecoder(conn)
	one := new([1][]byte) // the per-frame batch of one, reused for the connection
	var framing *FramingError
	for {
		frame, err := dec.Next(sink)
		switch {
		case err == nil:
		case errors.Is(err, ErrShortFrame):
			s.ctr.short.Add(1)
			continue
		case errors.As(err, &framing):
			s.ctr.decodeErrors.Add(1)
			return
		case errors.Is(err, io.EOF), errors.Is(err, net.ErrClosed):
			return // clean close (sender finished, or Close tore us down)
		default:
			s.ctr.connResets.Add(1) // mid-frame cut or transport error
			return
		}
		if inj := s.cfg.Fault; inj != nil && inj.CommandFate() != faultinject.Deliver {
			// Seeded chaos: this connection is sentenced to reset. The
			// frame in hand dies with it — counted, not delivered.
			sink.Release(frame)
			s.ctr.connResets.Add(1)
			return
		}
		if err := submitFrame(sink, &s.ctr, one, frame); err != nil {
			return // sink closed; accept loop will drain the same way
		}
	}
}
