//go:build linux && (amd64 || arm64)

package mmsg

import (
	"fmt"
	"net"
	"os"
	"syscall"
	"unsafe"
)

// mmsghdr is struct mmsghdr of <sys/socket.h> as 64-bit linux lays it
// out: one message header plus the byte count the kernel moved for it.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// vec is one direction's standing syscall argument: Max message
// headers, each describing one buffer through its own iovec, and the
// state the RawConn callback hands back. The callback is built once —
// a closure made per call would allocate per burst.
type vec struct {
	hdrs  [Max]mmsghdr
	iovs  [Max]syscall.Iovec
	ready func(fd uintptr) bool
	armed int           // headers that describe a buffer this call
	done  int           // datagrams moved so far this call
	errno syscall.Errno // the error that ended the call, if any
}

// mmsgState is what a Conn carries on platforms with the mmsg syscalls.
type mmsgState struct {
	rc     syscall.RawConn
	rx, tx vec
}

// New wraps a datagram socket. The Conn holds pointers into itself, so
// it is only ever handled by reference.
func New(conn net.Conn) (*Conn, error) {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil, fmt.Errorf("mmsg: %T has no raw socket access", conn)
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil, fmt.Errorf("mmsg: raw socket access: %w", err)
	}
	c := &Conn{conn: conn}
	c.mm.rc = rc
	c.mm.rx.ready, c.mm.tx.ready = c.recvReady, c.sendReady
	for _, v := range []*vec{&c.mm.rx, &c.mm.tx} {
		for i := range v.hdrs {
			v.hdrs[i].hdr.Iov = &v.iovs[i]
			v.hdrs[i].hdr.Iovlen = 1
		}
	}
	return c, nil
}

// arm points the first min(len(bufs), Max) headers at bufs.
//
//menshen:hotpath
func (v *vec) arm(bufs [][]byte) {
	n := min(len(bufs), Max)
	for i := 0; i < n; i++ {
		v.iovs[i].Base = unsafe.SliceData(bufs[i])
		v.iovs[i].Len = uint64(len(bufs[i]))
	}
	v.armed, v.done, v.errno = n, 0, 0
}

// Recv reads the datagrams queued on the socket, at most
// min(len(bufs), Max) of them, datagram i into bufs[i] with its length
// in sizes[i] (a longer datagram is cut to len(bufs[i]), so a buffer
// one byte larger than the largest legal frame makes oversize visible).
// It returns how many it read — whatever was queued, never waiting for
// more — and parks in the netpoller only while the socket is empty, so
// a trickle costs one call per datagram and no added latency.
//
//menshen:hotpath
func (c *Conn) Recv(bufs [][]byte, sizes []int) (int, error) {
	v := &c.mm.rx
	v.arm(bufs)
	if err := c.mm.rc.Read(v.ready); err != nil {
		return 0, err
	}
	if v.errno != 0 {
		return 0, os.NewSyscallError("recvmmsg", v.errno) //menshen:allocok terminal socket error, never on the steady path
	}
	for i := 0; i < v.done; i++ {
		sizes[i] = int(v.hdrs[i].len)
	}
	return v.done, nil
}

// recvReady is Recv's RawConn.Read callback: one recvmmsg; false sends
// the goroutine to the netpoller until the socket is readable.
//
//menshen:hotpath
func (c *Conn) recvReady(fd uintptr) bool {
	v := &c.mm.rx
	for {
		n, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd, uintptr(unsafe.Pointer(&v.hdrs[0])), uintptr(v.armed), syscall.MSG_DONTWAIT, 0, 0)
		switch e {
		case 0:
			v.done = int(n)
			return true
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			v.errno = e
			return true
		}
	}
}

// Send writes frames in order, one datagram each, at most Max of them,
// and returns how many it wrote: at least one unless err is non-nil,
// and then frames[n] is the one that could not be sent. A full socket
// is not an error: the kernel takes what fits (a partial sendmmsg), the
// call parks until the socket is writable and resumes where it stopped.
//
//menshen:hotpath
func (c *Conn) Send(frames [][]byte) (int, error) {
	v := &c.mm.tx
	v.arm(frames)
	if err := c.mm.rc.Write(v.ready); err != nil {
		return v.done, err
	}
	if v.errno != 0 {
		return v.done, os.NewSyscallError("sendmmsg", v.errno) //menshen:allocok dead-peer path, followed by a redial
	}
	return v.done, nil
}

// sendReady is Send's RawConn.Write callback: sendmmsg over the
// headers not yet sent, until all are or the socket is full.
//
//menshen:hotpath
func (c *Conn) sendReady(fd uintptr) bool {
	v := &c.mm.tx
	for v.done < v.armed {
		n, _, e := syscall.Syscall6(sysSendmmsg, fd, uintptr(unsafe.Pointer(&v.hdrs[v.done])), uintptr(v.armed-v.done), syscall.MSG_DONTWAIT, 0, 0)
		switch e {
		case 0:
			v.done += int(n)
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			v.errno = e
			return true
		}
	}
	return true
}
