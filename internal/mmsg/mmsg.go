// Package mmsg moves bursts of datagrams over one socket: where the
// kernel has recvmmsg(2)/sendmmsg(2) — linux on amd64 and arm64 — a
// whole burst costs one syscall, elsewhere a burst is one datagram
// moved by net.Conn.Read/Write. It is the only place in the tree that
// knows the difference: the ingress RX loop and the load client call
// Recv and Send and are the same code on every platform. The unsafe
// syscall plumbing lives in mmsg_linux.go; the portable receive below
// is untagged so linux can run both (the ingress parity test does).
package mmsg

import "net"

// Max is the most datagrams one Recv or Send call moves: the engine's
// default batch. It also sizes the header arrays a Conn carries, so it
// is a constant, not a parameter.
const Max = 32

// Conn is one datagram socket (UDP or unixgram) seen as a mover of
// bursts. A Conn is not safe for concurrent Recv calls, nor for
// concurrent Send calls; one Recv beside one Send is fine.
type Conn struct {
	conn net.Conn
	mm   mmsgState // zero-size where the platform has no mmsg syscalls
}

// RecvOne is the portable Recv: one Read into bufs[0], so a burst of
// exactly one datagram. Like Recv it blocks only while the socket is
// empty. The address-free Read path allocates nothing per datagram.
//
//menshen:hotpath
func (c *Conn) RecvOne(bufs [][]byte, sizes []int) (int, error) {
	n, err := c.conn.Read(bufs[0])
	if err != nil {
		return 0, err
	}
	sizes[0] = n
	return 1, nil
}
