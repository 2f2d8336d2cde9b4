// Unit and fuzz coverage for the length-prefixed stream framing codec:
// round trips across arbitrary read boundaries, every typed decode
// outcome, and FuzzTCPFraming's invariants — a decoder over hostile
// bytes always terminates with a typed error, never panics or stalls,
// and never leaks a borrowed buffer.
package ingress_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/ingress"
)

// testPool is a BufferSource that tracks the borrow/release balance so
// tests can assert no buffer leaks.
type testPool struct {
	borrows, releases int
}

func (p *testPool) Borrow(n int) []byte { p.borrows++; return make([]byte, n) }
func (p *testPool) Release([]byte)      { p.releases++ }

// chunkReader yields its bytes at most chunk at a time, forcing frames
// to split across read boundaries.
type chunkReader struct {
	data  []byte
	chunk int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := r.chunk
	if n < 1 {
		n = 1
	}
	if n > len(r.data) {
		n = len(r.data)
	}
	if n > len(p) {
		n = len(p)
	}
	n = copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

func TestAppendFrameRoundTrip(t *testing.T) {
	frames := [][]byte{
		bytes.Repeat([]byte{0x11}, ingress.DefaultMinFrame),
		bytes.Repeat([]byte{0x22}, 100),
		bytes.Repeat([]byte{0x33}, ingress.DefaultMaxFrame),
	}
	var stream []byte
	for _, f := range frames {
		var err error
		stream, err = ingress.AppendFrame(stream, f)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Every chunking must decode to the identical frame sequence.
	for _, chunk := range []int{1, 2, 3, 7, 64, len(stream)} {
		pool := &testPool{}
		dec := ingress.NewStreamDecoder(&chunkReader{data: stream, chunk: chunk})
		for i, want := range frames {
			got, err := dec.Next(pool)
			if err != nil {
				t.Fatalf("chunk %d frame %d: %v", chunk, i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("chunk %d frame %d: decoded %d bytes, want %d", chunk, i, len(got), len(want))
			}
			pool.Release(got)
		}
		if _, err := dec.Next(pool); err != io.EOF {
			t.Fatalf("chunk %d: trailing Next = %v, want io.EOF", chunk, err)
		}
		if pool.borrows != len(frames) || pool.releases != len(frames) {
			t.Fatalf("chunk %d: %d borrows, %d releases", chunk, pool.borrows, pool.releases)
		}
	}
}

func TestAppendFrameRejectsUnencodable(t *testing.T) {
	if _, err := ingress.AppendFrame(nil, nil); err == nil {
		t.Error("empty frame encoded")
	}
	if _, err := ingress.AppendFrame(nil, make([]byte, ingress.MaxFrameLimit+1)); err == nil {
		t.Error("oversize frame encoded")
	}
}

func TestStreamDecoderShortFrameKeepsSync(t *testing.T) {
	valid := bytes.Repeat([]byte{0xab}, ingress.DefaultMinFrame)
	stream := []byte{0x00, 0x05, 1, 2, 3, 4, 5} // valid length, below min
	stream, _ = ingress.AppendFrame(stream, valid)
	pool := &testPool{}
	dec := ingress.NewStreamDecoder(bytes.NewReader(stream))
	if _, err := dec.Next(pool); !errors.Is(err, ingress.ErrShortFrame) {
		t.Fatalf("short frame: %v, want ErrShortFrame", err)
	}
	got, err := dec.Next(pool)
	if err != nil || !bytes.Equal(got, valid) {
		t.Fatalf("frame after short: %v (len %d); stream lost sync", err, len(got))
	}
	if pool.borrows != 1 {
		t.Fatalf("short frame borrowed a buffer (%d borrows)", pool.borrows)
	}
}

func TestStreamDecoderFramingErrors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stream []byte
		length int
	}{
		{"zero-length", []byte{0x00, 0x00}, 0},
		{"beyond-max", []byte{0xff, 0xff, 0x01}, 0xffff},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dec := ingress.NewStreamDecoder(bytes.NewReader(tc.stream))
			_, err := dec.Next(&testPool{})
			var fe *ingress.FramingError
			if !errors.As(err, &fe) {
				t.Fatalf("Next = %v, want *FramingError", err)
			}
			if fe.Length != tc.length || fe.Max != ingress.DefaultMaxFrame {
				t.Fatalf("FramingError{%d, %d}, want {%d, %d}", fe.Length, fe.Max, tc.length, ingress.DefaultMaxFrame)
			}
			if fe.Error() == "" {
				t.Error("empty error string")
			}
		})
	}
}

func TestStreamDecoderMidFrameCut(t *testing.T) {
	pool := &testPool{}
	// Cut inside the header.
	dec := ingress.NewStreamDecoder(bytes.NewReader([]byte{0x00}))
	if _, err := dec.Next(pool); err != io.ErrUnexpectedEOF {
		t.Fatalf("header cut: %v, want ErrUnexpectedEOF", err)
	}
	// Cut inside the payload: the borrowed buffer must come back.
	dec.Reset(bytes.NewReader([]byte{0x00, 0x64, 1, 2, 3}))
	if _, err := dec.Next(pool); err != io.ErrUnexpectedEOF {
		t.Fatalf("payload cut: %v, want ErrUnexpectedEOF", err)
	}
	if pool.borrows != pool.releases {
		t.Fatalf("cut leaked a buffer: %d borrows, %d releases", pool.borrows, pool.releases)
	}
}

// FuzzTCPFraming drives the stream decoder over arbitrary bytes split
// at arbitrary read boundaries. Whatever the input: decoding terminates
// within a byte-budget bound (no stall), every outcome is one of the
// documented typed results (no panic, no mystery error), and the
// borrow/release ledger balances (no leaked pool buffer).
func FuzzTCPFraming(f *testing.F) {
	valid, err := ingress.AppendFrame(nil, bytes.Repeat([]byte{0xab}, ingress.DefaultMinFrame))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(append([]byte{}, valid...), valid...), uint8(1)) // two clean frames, byte-at-a-time
	f.Add(valid, uint8(0))                                        // whole-stream reads
	f.Add([]byte{0x00, 0x00}, uint8(2))                           // zero-length framing violation
	f.Add([]byte{0xff, 0xff, 0x01, 0x02}, uint8(3))               // length beyond max
	f.Add([]byte{0x00, 0x05, 1, 2, 3, 4, 5, 0x00}, uint8(1))      // short frame, then a cut header
	f.Add(valid[:len(valid)-3], uint8(4))                         // cut mid-payload
	f.Fuzz(func(t *testing.T, stream []byte, chunk uint8) {
		pool := &testPool{}
		dec := ingress.NewStreamDecoder(&chunkReader{data: stream, chunk: int(chunk)})
		frames := 0
		// Every continued iteration consumes >= 3 stream bytes (2-byte
		// header plus a short frame's >=1-byte payload, or a full
		// payload); anything past the bound is a stall.
		for iter := 0; ; iter++ {
			if iter > len(stream)/3+2 {
				t.Fatalf("decoder stalled: %d iterations over %d bytes", iter, len(stream))
			}
			frame, err := dec.Next(pool)
			var fe *ingress.FramingError
			switch {
			case err == nil:
				if len(frame) < ingress.DefaultMinFrame || len(frame) > ingress.DefaultMaxFrame {
					t.Fatalf("decoded %d-byte frame outside [%d, %d]", len(frame), ingress.DefaultMinFrame, ingress.DefaultMaxFrame)
				}
				frames++
				pool.Release(frame)
				continue
			case errors.Is(err, ingress.ErrShortFrame):
				continue // counted drop; stream stays framed
			case errors.As(err, &fe):
			case err == io.EOF, err == io.ErrUnexpectedEOF:
			default:
				t.Fatalf("undocumented decode outcome: %v", err)
			}
			break
		}
		if pool.borrows != pool.releases {
			t.Fatalf("buffer leak: %d borrows, %d releases", pool.borrows, pool.releases)
		}
	})
}
