//go:build !(linux && (amd64 || arm64))

package mmsg

import "net"

// mmsgState is empty where the platform has no mmsg syscalls.
type mmsgState struct{}

// New wraps a datagram socket.
func New(conn net.Conn) (*Conn, error) { return &Conn{conn: conn}, nil }

// Recv reads one datagram into bufs[0]: see RecvOne.
func (c *Conn) Recv(bufs [][]byte, sizes []int) (int, error) { return c.RecvOne(bufs, sizes) }

// Send writes frames[0] as one datagram — a burst of one; callers loop.
// It returns 1, or 0 and the error that kept frames[0] from being sent.
func (c *Conn) Send(frames [][]byte) (int, error) {
	if _, err := c.conn.Write(frames[0]); err != nil {
		return 0, err
	}
	return 1, nil
}
