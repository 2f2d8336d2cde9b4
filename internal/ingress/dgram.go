// Datagram transports: UDP and Unix-datagram sources sharing one RX
// loop. One datagram is one frame. The loop moves frames a burst at a
// time — borrow N buffers, let one mmsg.Conn.Recv fill as many as the
// socket has queued, classify, submit the in-range ones with one
// SubmitBatchOwned — so the kernel→buffer copy is the whole per-frame
// cost and the syscall and the worker wake-up are paid per burst. Recv
// is one recvmmsg where the platform has it and one address-free Read
// (a burst of one) elsewhere; the loop is the same code either way.
package ingress

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"

	"repro/internal/engine"
	"repro/internal/mmsg"
)

// burstSize is how many datagrams one fill may return, and so how many
// buffers the RX loop keeps on loan from the sink: the engine's default
// batch (32 x 2 KiB of standing borrow per source).
const burstSize = mmsg.Max

// dgramSource is the shared UDP/unixgram source: a packet socket whose
// every datagram is exactly one frame.
type dgramSource struct {
	transport string
	addr      string
	conn      net.Conn
	ctr       counters
	path      string // unix socket file to remove on Close ("" for UDP)

	// fill reads queued datagrams into the burst's buffers and returns
	// how many it read, blocking only while the socket is empty:
	// mmsg.Conn.Recv, or RecvOne when the parity test swaps it in.
	fill func(bufs [][]byte, sizes []int) (int, error)
}

// newDgramSource wraps a bound packet socket as a frame source.
func newDgramSource(transport, addr, path string, conn net.Conn) (*dgramSource, error) {
	mc, err := mmsg.New(conn)
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("ingress: %s %s: %w", transport, addr, err)
	}
	return &dgramSource{transport: transport, addr: addr, conn: conn, path: path, fill: mc.Recv}, nil
}

// ListenUDP binds a UDP listen socket (e.g. "127.0.0.1:0", ":9000")
// and returns it as a frame source. Datagrams longer than
// DefaultMaxFrame are dropped as OversizeDropped; UDP is lossy upstream
// of the socket, so exact conservation additionally needs a
// cfg.ReadBuffer sized to the sender's burst (or a paced sender).
func ListenUDP(addr string, cfg Config) (Source, error) {
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("ingress: resolve udp %s: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", uaddr)
	if err != nil {
		return nil, fmt.Errorf("ingress: listen udp %s: %w", addr, err)
	}
	if cfg.ReadBuffer > 0 {
		if err := conn.SetReadBuffer(cfg.ReadBuffer); err != nil {
			_ = conn.Close()
			return nil, fmt.Errorf("ingress: set udp read buffer: %w", err)
		}
	}
	return newDgramSource("udp", conn.LocalAddr().String(), "", conn)
}

// ListenUnixgram binds a Unix-datagram socket at path and returns it
// as a frame source. Unlike UDP the kernel blocks a local sender when
// the receive queue is full, so the transport is lossless end to end —
// the deterministic loopback used by the conservation tests. The
// socket file is removed on Close.
func ListenUnixgram(path string, cfg Config) (Source, error) {
	conn, err := net.ListenUnixgram("unixgram", &net.UnixAddr{Name: path, Net: "unixgram"})
	if err != nil {
		return nil, fmt.Errorf("ingress: listen unixgram %s: %w", path, err)
	}
	if cfg.ReadBuffer > 0 {
		if err := conn.SetReadBuffer(cfg.ReadBuffer); err != nil {
			_ = conn.Close()
			return nil, fmt.Errorf("ingress: set unixgram read buffer: %w", err)
		}
	}
	return newDgramSource("unixgram", path, path, conn)
}

// Transport names the transport kind.
func (s *dgramSource) Transport() string { return s.transport }

// Addr is the bound address (kernel-chosen port resolved).
func (s *dgramSource) Addr() string { return s.addr }

// StatsInto writes the source's counter snapshot.
func (s *dgramSource) StatsInto(st *engine.IngressStats) {
	s.ctr.snapshotInto(st, s.transport, s.addr)
}

// Close unblocks Serve and releases the socket (and socket file).
func (s *dgramSource) Close() error {
	err := s.conn.Close()
	if errors.Is(err, net.ErrClosed) {
		err = nil
	}
	if s.path != "" {
		_ = os.Remove(s.path)
	}
	return err
}

// burst is the RX loop's standing state: the buffers on loan from the
// sink that the next fill reads into (nil = handed on, borrow afresh),
// the datagram sizes the last fill reported, and the in-range frames
// gathered for one SubmitBatchOwned.
type burst struct {
	bufs   [burstSize][]byte
	sizes  [burstSize]int
	frames [burstSize][]byte
}

// Serve moves bursts of datagrams from the socket into the sink until
// the socket or sink closes, then returns the buffers still on loan.
func (s *dgramSource) Serve(ctx context.Context, sink Sink) error {
	stop := context.AfterFunc(ctx, func() { _ = s.Close() })
	defer stop()
	b := new(burst)
	defer func() {
		for _, buf := range b.bufs {
			if buf != nil {
				sink.Release(buf)
			}
		}
	}()
	for {
		if err := s.rxBurst(sink, b); err != nil {
			if errors.Is(err, net.ErrClosed) || errors.Is(err, engine.ErrClosed) {
				return nil // clean shutdown: socket closed (Close/ctx) or engine gone
			}
			return err
		}
	}
}

// rxBurst is one round of the RX loop: top the burst up to burstSize
// borrowed buffers, fill as many as the socket has queued, and pass
// them through the counted delivery path. Buffers ask for
// DefaultMaxFrame+1 bytes so an oversize datagram is detectable (it
// fills the extra byte) instead of silently truncated. Buffers the fill
// left empty stay on loan for the next round.
//
//menshen:hotpath
func (s *dgramSource) rxBurst(sink Sink, b *burst) error {
	for i := range b.bufs {
		if b.bufs[i] == nil {
			b.bufs[i] = sink.Borrow(DefaultMaxFrame + 1)
		}
	}
	n, err := s.fill(b.bufs[:], b.sizes[:])
	if err != nil {
		return err
	}
	s.ctr.reads.Add(1)
	return submitBurst(sink, &s.ctr, b, classifyBurst(&s.ctr, b, n))
}

// classifyBurst files the first n datagrams of a filled burst: short
// and oversize ones are counted and their buffers stay on loan for the
// next fill; in-range ones move, in arrival order, to b.frames. It
// returns how many frames it gathered.
//
//menshen:hotpath
func classifyBurst(c *counters, b *burst, n int) int {
	k := 0
	var short, oversize, bytes uint64
	for i := 0; i < n; i++ {
		switch size := b.sizes[i]; {
		case size < DefaultMinFrame:
			short++
		case size > DefaultMaxFrame:
			oversize++
		default:
			b.frames[k] = b.bufs[i][:size]
			b.bufs[i] = nil
			bytes += uint64(size)
			k++
		}
	}
	if short > 0 {
		c.short.Add(short)
	}
	if oversize > 0 {
		c.oversize.Add(oversize)
	}
	c.received.Add(uint64(k))
	c.receivedBytes.Add(bytes)
	return k
}

// submitBurst hands the k gathered frames to the sink in one call and
// files their fates: Submitted for the accepted, SubmitRejected for the
// counted refusals. A non-nil error (the sink is closed) ends the RX
// loop; the buffers are the sink's in every case.
//
//menshen:hotpath
func submitBurst(sink Sink, c *counters, b *burst, k int) error {
	if k == 0 {
		return nil
	}
	acc, err := sink.SubmitBatchOwned(b.frames[:k])
	clear(b.frames[:k]) // the engine owns them now
	c.submitted.Add(uint64(acc))
	c.rejected.Add(uint64(k - acc))
	return err
}
