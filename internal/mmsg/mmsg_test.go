package mmsg

import (
	"bytes"
	"errors"
	"net"
	"path/filepath"
	"testing"
)

// pair returns the two ends of a unixgram loopback as burst movers.
func pair(t *testing.T) (tx, rx *Conn) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.sock")
	ln, err := net.ListenUnixgram("unixgram", &net.UnixAddr{Name: path, Net: "unixgram"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	c, err := net.Dial("unixgram", path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	if tx, err = New(c); err != nil {
		t.Fatal(err)
	}
	if rx, err = New(ln); err != nil {
		t.Fatal(err)
	}
	return tx, rx
}

// TestSendRecvRoundTrip moves more frames than one call may carry and
// more than the socket queues, through both receive forms: every frame
// arrives once, in order, with its length; a datagram longer than its
// buffer is cut to the buffer, which is how callers see oversize.
func TestSendRecvRoundTrip(t *testing.T) {
	for _, form := range []string{"Recv", "RecvOne"} {
		t.Run(form, func(t *testing.T) {
			tx, rx := pair(t)
			recv := rx.Recv
			if form == "RecvOne" {
				recv = rx.RecvOne
			}
			const total = 3*Max + 5
			frames := make([][]byte, total)
			for i := range frames {
				frames[i] = bytes.Repeat([]byte{byte(i)}, 20+i)
			}
			frames[7] = bytes.Repeat([]byte{7}, 300) // longer than the 256-byte buffers below

			sendErr := make(chan error, 1)
			go func() {
				for sent := 0; sent < total; {
					n, err := tx.Send(frames[sent:])
					if err != nil {
						sendErr <- err
						return
					}
					if n < 1 || n > Max {
						t.Errorf("Send moved %d frames, want 1..%d", n, Max)
					}
					sent += n
				}
				sendErr <- nil
			}()

			bufs := make([][]byte, Max+8) // more than Max: the excess must be left alone
			for i := range bufs {
				bufs[i] = make([]byte, 256)
			}
			sizes := make([]int, len(bufs))
			for got := 0; got < total; {
				n, err := recv(bufs, sizes)
				if err != nil {
					t.Fatal(err)
				}
				if n < 1 || n > Max {
					t.Fatalf("%s returned %d datagrams, want 1..%d", form, n, Max)
				}
				for i := 0; i < n; i++ {
					want := frames[got+i]
					if len(want) > 256 {
						want = want[:256]
					}
					if !bytes.Equal(bufs[i][:sizes[i]], want) {
						t.Fatalf("datagram %d: %d bytes, want frame of %d", got+i, sizes[i], len(want))
					}
				}
				got += n
			}
			if err := <-sendErr; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestClosedSocket: both directions report a closed socket as
// net.ErrClosed — what the RX loop's clean-shutdown check matches.
func TestClosedSocket(t *testing.T) {
	tx, rx := pair(t)
	_ = tx.conn.Close()
	_ = rx.conn.Close()
	if _, err := rx.Recv([][]byte{make([]byte, 64)}, make([]int, 1)); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Recv on a closed socket: %v, want net.ErrClosed", err)
	}
	if _, err := tx.Send([][]byte{make([]byte, 64)}); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Send on a closed socket: %v, want net.ErrClosed", err)
	}
}
