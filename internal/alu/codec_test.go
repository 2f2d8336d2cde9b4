package alu

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// refPutBits writes the low n bits of v into buf starting at bit offset
// off (MSB-first within the buffer): the bit-serial reference the
// word-wide Action.AppendEncode must match.
func refPutBits(buf []byte, off, n int, v uint64) {
	for i := 0; i < n; i++ {
		bit := v >> (n - 1 - i) & 1
		idx := off + i
		if bit != 0 {
			buf[idx/8] |= 0x80 >> (idx % 8)
		} else {
			buf[idx/8] &^= 0x80 >> (idx % 8)
		}
	}
}

// refGetBits reads n bits from buf starting at bit offset off
// (MSB-first): the bit-serial reference for DecodeAction.
func refGetBits(buf []byte, off, n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		idx := off + i
		v <<= 1
		if buf[idx/8]&(0x80>>(idx%8)) != 0 {
			v |= 1
		}
	}
	return v
}

func refEncode(a *Action) []byte {
	out := make([]byte, ActionBytes)
	for i, in := range a {
		refPutBits(out, i*InstrBits, InstrBits, uint64(in.Encode()))
	}
	return out
}

func refDecode(b []byte) Action {
	var a Action
	for i := range a {
		a[i] = DecodeInstr(uint32(refGetBits(b, i*InstrBits, InstrBits)))
	}
	return a
}

// checkActionCodec holds the word-wide codec to the bit-serial
// reference on one wire image.
func checkActionCodec(t *testing.T, data []byte) {
	t.Helper()
	got, err := DecodeAction(data)
	if len(data) < ActionBytes {
		if err == nil {
			t.Fatalf("DecodeAction accepted %d bytes", len(data))
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if want := refDecode(data); got != want {
		t.Fatalf("DecodeAction(% x)\n = %v\nwant %v", data, got, want)
	}
	if enc, want := got.AppendEncode(nil), refEncode(&got); !bytes.Equal(enc, want) {
		t.Fatalf("Encode(%v)\n = % x\nwant % x", got, enc, want)
	}
}

func TestActionCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	buf := make([]byte, ActionBytes+3)
	for i := 0; i < 5000; i++ {
		for j := range buf {
			buf[j] = byte(rng.Uint32())
		}
		checkActionCodec(t, buf[:ActionBytes+i%4])
	}
}

// FuzzActionCodec is TestActionCodecMatchesReference under the fuzzer;
// testdata/fuzz/FuzzActionCodec holds its seed corpus (all zeros, all
// ones, alternating bits both ways, and a random image with trailing
// bytes).
func FuzzActionCodec(f *testing.F) {
	f.Fuzz(checkActionCodec)
}

// TestActionTableWriteCostsOneEntry pins in-place writes: a Set stores
// the one entry (action plus slot list) and allocates nothing whatever
// the depth, and neither does a Clear or the read path.
func TestActionTableWriteCostsOneEntry(t *testing.T) {
	var a Action
	a[0] = Instr{Op: OpSet, A: NoOperand, Imm: 1}
	a[7] = Instr{Op: OpAdd, A: 1, B: 2}
	for _, depth := range []int{16, 4096} {
		tbl := NewTable(depth)
		if n := testing.AllocsPerRun(100, func() { _ = tbl.Set(depth/2, a) }); n != 0 {
			t.Errorf("depth %d: Set allocates %.1f times, want 0", depth, n)
		}
		if n := testing.AllocsPerRun(100, func() { _ = tbl.Clear(depth - 1) }); n != 0 {
			t.Errorf("depth %d: Clear allocates %.1f times, want 0", depth, n)
		}
		var sink int
		if n := testing.AllocsPerRun(100, func() {
			got, _ := tbl.Lookup(depth / 2)
			_, slots, _ := tbl.Ref(depth / 2)
			sink += int(got[7].B) + len(slots)
		}); n != 0 {
			t.Errorf("depth %d: Lookup+Ref allocate %.1f times, want 0", depth, n)
		}
		if sink == 0 {
			t.Fatal("reads saw no entry")
		}
	}
}
