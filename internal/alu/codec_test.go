package alu

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
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

// TestActionTableWriteCostsOneEntry pins per-entry publication: a Set
// allocates the new entry alone whatever the depth, and the read path
// allocates nothing.
func TestActionTableWriteCostsOneEntry(t *testing.T) {
	var a Action
	a[0] = Instr{Op: OpSet, A: NoOperand, Imm: 1}
	a[7] = Instr{Op: OpAdd, A: 1, B: 2}
	for _, depth := range []int{16, 4096} {
		tbl := NewTable(depth)
		if n := testing.AllocsPerRun(100, func() { _ = tbl.Set(depth/2, a) }); n != 1 {
			t.Errorf("depth %d: Set allocates %.1f times, want 1", depth, n)
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

// TestActionTableConcurrentWholeEntries races readers against one writer
// that alternates two whole actions at one address and sets and clears
// its neighbour: every read sees one written action whole, with its own
// slot list, or an invalid entry, never a mix.
func TestActionTableConcurrentWholeEntries(t *testing.T) {
	const addr, writes = 5, 20000
	fill := func(op Op, imm uint16, slots ...int) Action {
		var a Action
		for _, s := range slots {
			a[s] = Instr{Op: op, A: NoOperand, Imm: imm}
		}
		return a
	}
	one, two := fill(OpSet, 1, 0, 3, 9), fill(OpAddi, 2, 1, 4, 10, 20)
	nb := fill(OpSet, 3, 2)
	tbl := NewTable(16)
	if err := tbl.Set(addr, one); err != nil {
		t.Fatal(err)
	}
	whole := func(a *Action, slots []uint8, want ...Action) bool {
		for _, w := range want {
			if *a != w {
				continue
			}
			n := 0
			for s := range w {
				if w[s].Op != OpNop {
					if n >= len(slots) || slots[n] != uint8(s) {
						return false
					}
					n++
				}
			}
			return n == len(slots)
		}
		return false
	}
	var done atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				if a, slots, ok := tbl.Ref(addr); !ok || !whole(a, slots, one, two) {
					errs <- fmt.Sprintf("Ref(%d) saw a torn or missing entry (ok=%v, slots %v)", addr, ok, slots)
					return
				}
				if a, ok := tbl.Lookup(addr + 1); ok && a != nb {
					errs <- fmt.Sprintf("Lookup(%d) saw a torn entry %v", addr+1, a)
					return
				}
				reads.Add(1)
			}
		}()
	}
	for i := 0; (i < writes || reads.Load() < writes) && len(errs) == 0; i++ {
		if i%2 == 0 {
			_ = tbl.Set(addr, two)
			_ = tbl.Set(addr+1, nb)
		} else {
			_ = tbl.Set(addr, one)
			_ = tbl.Clear(addr + 1)
		}
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
