// Ingress-facing trafficgen: the LoadClient, a socket-driving load
// generator that pushes scenario frames at a live ingress listener —
// the MoonGen-over-a-real-NIC role in the loopback test battery.
package trafficgen

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/ingress"
	"repro/internal/mmsg"
)

// LoadClient drives frames at an ingress listener over a real socket:
// "udp", "unixgram" (one datagram per frame) or "tcp" (length-prefixed
// stream framing, ingress.AppendFrame's encoding). A dead connection
// is redialed under the capped-backoff schedule; frames that die with
// a connection are counted (Dropped), never retransmitted — the
// client-side half of the counted in-flight-loss contract, since a
// retransmit could double-count a frame the server already drained.
type LoadClient struct {
	network, addr string
	conn          net.Conn
	mc            *mmsg.Conn // burst sender over conn; nil on streams
	bo            ingress.Backoff
	wbuf          []byte

	// RedialAttempts bounds consecutive failed dials per redial before
	// SendBatch gives up (default 12).
	RedialAttempts int

	sent      atomic.Uint64
	sentBytes atomic.Uint64
	dropped   atomic.Uint64
	redials   atomic.Uint64
}

// DialLoad connects a load client to addr over network ("udp", "tcp",
// or "unixgram") with the given redial backoff (zero = defaults).
func DialLoad(network, addr string, bo ingress.Backoff) (*LoadClient, error) {
	c := &LoadClient{network: network, addr: addr, bo: bo, RedialAttempts: 12}
	if err := c.dial(); err != nil {
		return nil, fmt.Errorf("trafficgen: dial %s %s: %w", network, addr, err)
	}
	return c, nil
}

// dial opens the client's socket, replacing any earlier one.
func (c *LoadClient) dial() error {
	conn, err := net.Dial(c.network, c.addr)
	if err != nil {
		return err
	}
	var mc *mmsg.Conn
	if !c.stream() {
		if mc, err = mmsg.New(conn); err != nil {
			_ = conn.Close()
			return err
		}
	}
	c.conn, c.mc = conn, mc
	return nil
}

// stream reports whether the transport needs length-prefix framing.
func (c *LoadClient) stream() bool { return c.network == "tcp" }

// SendBatch writes the frames to the listener and returns how many
// were durably written. A frame whose write fails is counted in
// Dropped while the client redials and moves on; the error return is
// non-nil only when the client gave up entirely (redial budget
// exhausted, or an unencodable frame) — counted-fate semantics, like
// the engine's submit paths.
func (c *LoadClient) SendBatch(frames [][]byte) (int, error) {
	if !c.stream() {
		return c.sendDgrams(frames)
	}
	sent := 0
	for _, f := range frames {
		var err error
		c.wbuf, err = ingress.AppendFrame(c.wbuf[:0], f)
		if err != nil {
			c.dropped.Add(1)
			return sent, err
		}
		if err := c.sendOne(c.wbuf, false); err != nil {
			return sent, err
		}
		sent++
	}
	return sent, nil
}

// sendDgrams writes the frames one datagram each, a burst per syscall
// where the platform has sendmmsg. A full socket parks the sender and
// resumes where the burst stopped; a frame whose send fails outright
// takes the single-frame path (redial, one retry, else Dropped), then
// the rest of the batch goes on in bursts over the fresh socket.
func (c *LoadClient) sendDgrams(frames [][]byte) (int, error) {
	sent := 0
	for sent < len(frames) {
		n, err := c.mc.Send(frames[sent:])
		var bytes uint64
		for _, f := range frames[sent : sent+n] {
			bytes += uint64(len(f))
		}
		c.sent.Add(uint64(n))
		c.sentBytes.Add(bytes)
		sent += n
		if err != nil {
			if err := c.sendOne(frames[sent], true); err != nil {
				return sent, err
			}
			sent++
		}
	}
	return sent, nil
}

// sendOne writes one wire payload, redialing on failure. Datagram
// payloads are retried once on the fresh socket (no partial-write
// hazard); stream payloads are not retransmitted — the in-flight frame
// is counted as Dropped and the server counts the cut as a ConnReset.
func (c *LoadClient) sendOne(payload []byte, retry bool) error {
	_, err := c.conn.Write(payload)
	if err == nil {
		c.sent.Add(1)
		c.sentBytes.Add(uint64(len(payload)))
		return nil
	}
	if rerr := c.redial(); rerr != nil {
		c.dropped.Add(1)
		return rerr
	}
	if retry {
		if _, err := c.conn.Write(payload); err == nil {
			c.sent.Add(1)
			c.sentBytes.Add(uint64(len(payload)))
			return nil
		}
	}
	c.dropped.Add(1)
	return nil
}

// redial replaces a dead connection, sleeping the capped-backoff
// schedule between attempts.
func (c *LoadClient) redial() error {
	_ = c.conn.Close()
	var lastErr error
	for attempt := 0; attempt < c.RedialAttempts; attempt++ {
		time.Sleep(c.bo.Delay(attempt))
		err := c.dial()
		if err == nil {
			c.redials.Add(1)
			return nil
		}
		lastErr = err
	}
	return fmt.Errorf("trafficgen: redial %s %s after %d attempts: %w", c.network, c.addr, c.RedialAttempts, lastErr)
}

// Sent counts frames durably written to a connection.
func (c *LoadClient) Sent() uint64 { return c.sent.Load() }

// Dropped counts frames abandoned to a dying connection (in-flight
// loss, never retransmitted on streams).
func (c *LoadClient) Dropped() uint64 { return c.dropped.Load() }

// Redials counts successful reconnections.
func (c *LoadClient) Redials() uint64 { return c.redials.Load() }

// Close releases the socket.
func (c *LoadClient) Close() error { return c.conn.Close() }
