package trafficgen

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/ingress"
)

// listenUnixgramAt binds a bare unixgram socket — a listener the test
// reads by hand, so it can be as slow or as short-lived as it likes.
func listenUnixgramAt(t *testing.T, path string) *net.UnixConn {
	t.Helper()
	ln, err := net.ListenUnixgram("unixgram", &net.UnixAddr{Name: path, Net: "unixgram"})
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// seqFrames builds n distinguishable CALC frames of varying sizes.
func seqFrames(n int) [][]byte {
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = CalcPacket(1, CalcAdd, uint32(i), 7, 64+i%200)
	}
	return frames
}

// TestLoadClientSendBatchSlowReader offers one 1000-frame batch to a
// listener that reads in fits and starts: the kernel queue fills, the
// burst send goes partial, the sender parks and resumes. Every frame
// must arrive exactly once and in order, all of them counted Sent.
func TestLoadClientSendBatchSlowReader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "slow.sock")
	ln := listenUnixgramAt(t, path)
	defer ln.Close()
	const total = 1000
	frames := seqFrames(total)

	read := make(chan error, 1)
	go func() {
		buf := make([]byte, 4096)
		for i := 0; i < total; i++ {
			if i%7 == 0 {
				time.Sleep(100 * time.Microsecond) // lag behind the sender on purpose
			}
			_ = ln.SetReadDeadline(time.Now().Add(10 * time.Second))
			n, err := ln.Read(buf)
			if err != nil {
				read <- fmt.Errorf("datagram %d: %w", i, err)
				return
			}
			if !bytes.Equal(buf[:n], frames[i]) {
				read <- fmt.Errorf("datagram %d is not frame %d (%d bytes, want %d)", i, i, n, len(frames[i]))
				return
			}
		}
		// A duplicate would be queued behind the last frame.
		_ = ln.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		if n, err := ln.Read(buf); err == nil {
			read <- fmt.Errorf("%d-byte datagram after the last frame", n)
			return
		}
		read <- nil
	}()

	client, err := DialLoad("unixgram", path, ingress.Backoff{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	n, err := client.SendBatch(frames)
	if err != nil || n != total {
		t.Fatalf("SendBatch = %d, %v; want %d, nil", n, err, total)
	}
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	if client.Sent() != total || client.Dropped() != 0 || client.Redials() != 0 {
		t.Errorf("sent %d dropped %d redials %d, want %d/0/0", client.Sent(), client.Dropped(), client.Redials(), total)
	}
}

// TestLoadClientSendBatchListenerFlap tears the listener down in the
// middle of one batch and binds a new one at the same path: the frame
// whose send hit the dead socket takes the redial path, the rest of the
// batch goes on over the fresh socket, and every offered frame is
// either Sent or Dropped.
func TestLoadClientSendBatchListenerFlap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flap.sock")
	ln := listenUnixgramAt(t, path)
	const total = 1000
	frames := seqFrames(total)

	// The reader takes 100 datagrams, kills the socket under the sender
	// (which is parked on the full queue or inside its next burst),
	// leaves a downtime window, rebinds, and then reads until the sender
	// is done and the new socket has been empty for a while.
	type tally struct {
		n   int
		err error
	}
	read := make(chan tally, 1)
	senderDone := make(chan struct{})
	go func() {
		buf := make([]byte, 4096)
		got := 0
		for ; got < 100; got++ {
			if _, err := ln.Read(buf); err != nil {
				read <- tally{got, err}
				return
			}
		}
		_ = ln.Close()
		_ = os.Remove(path)
		time.Sleep(5 * time.Millisecond)
		ln2, err := net.ListenUnixgram("unixgram", &net.UnixAddr{Name: path, Net: "unixgram"})
		if err != nil {
			read <- tally{got, err}
			return
		}
		defer ln2.Close()
		for {
			_ = ln2.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
			if _, err := ln2.Read(buf); err == nil {
				got++
				continue
			}
			select {
			case <-senderDone:
				read <- tally{got, nil}
				return
			default:
			}
		}
	}()

	client, err := DialLoad("unixgram", path, ingress.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	client.RedialAttempts = 5000 // the downtime window must never exhaust it
	defer client.Close()
	n, err := client.SendBatch(frames)
	if err != nil || n != total {
		t.Fatalf("SendBatch = %d, %v; want %d, nil", n, err, total)
	}
	close(senderDone)
	got := <-read
	if got.err != nil {
		t.Fatalf("reader: %v", got.err)
	}
	if client.Redials() == 0 {
		t.Error("the listener died mid-batch and the client never redialed")
	}
	if client.Sent()+client.Dropped() != total {
		t.Errorf("client ledger: sent %d + dropped %d != %d offered", client.Sent(), client.Dropped(), total)
	}
	// In-flight loss is allowed (frames queued in the socket that died),
	// an excess is not.
	if uint64(got.n) > client.Sent() {
		t.Errorf("listeners read %d datagrams, client only sent %d", got.n, client.Sent())
	}
}
