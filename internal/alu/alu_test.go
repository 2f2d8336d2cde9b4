package alu

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/phv"
	"repro/internal/tables"
)

func env(t *testing.T) (*Env, *phv.PHV) {
	t.Helper()
	p := &phv.PHV{}
	seg := tables.NewSegmentTable(4)
	if err := seg.Set(0, tables.Segment{Base: 0, Range: 32}); err != nil {
		t.Fatal(err)
	}
	return &Env{
		PHV:      p,
		Memory:   tables.NewStatefulMemory(64),
		Segments: seg,
		ModIdx:   0,
	}, p
}

func TestInstrEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Instr{
		{Op: OpNop},
		{Op: OpAdd, A: 3, B: 17},
		{Op: OpSub, A: 24, B: 0},
		{Op: OpAddi, A: 9, Imm: 0xffff},
		{Op: OpSet, A: NoOperand, Imm: 1234},
		{Op: OpLoad, A: 2, Imm: 77},
		{Op: OpStore, A: NoOperand, Imm: 3},
		{Op: OpLoadd, A: 1, Imm: 0},
		{Op: OpPort, A: 24, Imm: 9},
		{Op: OpDiscard, A: 24},
	}
	for _, in := range cases {
		got := DecodeInstr(in.Encode())
		if got != in {
			t.Errorf("round trip %v -> %v", in, got)
		}
	}
}

func TestInstrEncodeFitsIn25Bits(t *testing.T) {
	in := Instr{Op: OpLoadd, A: 0x1f, Imm: 0xffff}
	if v := in.Encode(); v>>InstrBits != 0 {
		t.Errorf("encoding %#x exceeds 25 bits", v)
	}
}

func TestActionEncodeDecodeRoundTrip(t *testing.T) {
	var a Action
	a[0] = Instr{Op: OpAdd, A: 1, B: 2}
	a[10] = Instr{Op: OpSet, A: NoOperand, Imm: 0xabcd}
	a[24] = Instr{Op: OpPort, A: 24, Imm: 3}
	enc := a.AppendEncode(nil)
	if len(enc) != ActionBytes {
		t.Fatalf("encoded length %d, want %d", len(enc), ActionBytes)
	}
	back, err := DecodeAction(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back != a {
		t.Error("action round trip mismatch")
	}
}

func TestDecodeActionShortBuffer(t *testing.T) {
	if _, err := DecodeAction(make([]byte, ActionBytes-1)); err == nil {
		t.Error("short buffer should fail")
	}
}

func TestValidateRejectsBadSlots(t *testing.T) {
	if err := (Instr{Op: OpAdd, A: 26, B: 0}).Validate(); err == nil {
		t.Error("slot 26 should be invalid")
	}
	if err := (Instr{Op: OpAdd, A: NoOperand, B: NoOperand}).Validate(); err != nil {
		t.Errorf("NoOperand should be valid: %v", err)
	}
	var a Action
	a[5] = Instr{Op: Op(15), A: 0}
	if err := a.Validate(); err == nil {
		t.Error("invalid opcode should fail action validation")
	}
}

func TestExecuteAddSub(t *testing.T) {
	e, p := env(t)
	p.MustSet(phv.Ref{Type: phv.Type4B, Index: 0}, 30) // slot 8
	p.MustSet(phv.Ref{Type: phv.Type4B, Index: 1}, 12) // slot 9
	var a Action
	a[10] = Instr{Op: OpAdd, A: 8, B: 9} // c4[2] = 42
	a[11] = Instr{Op: OpSub, A: 8, B: 9} // c4[3] = 18
	if _, err := Execute(&a, e); err != nil {
		t.Fatal(err)
	}
	if v := p.MustGet(phv.Ref{Type: phv.Type4B, Index: 2}); v != 42 {
		t.Errorf("add = %d", v)
	}
	if v := p.MustGet(phv.Ref{Type: phv.Type4B, Index: 3}); v != 18 {
		t.Errorf("sub = %d", v)
	}
}

func TestExecuteParallelSemantics(t *testing.T) {
	// All ALUs read the PRE-action PHV: a swap must work in one action.
	e, p := env(t)
	x := phv.Ref{Type: phv.Type2B, Index: 0} // slot 0
	y := phv.Ref{Type: phv.Type2B, Index: 1} // slot 1
	p.MustSet(x, 5)
	p.MustSet(y, 7)
	var a Action
	a[0] = Instr{Op: OpAddi, A: 1, Imm: 0} // x = y
	a[1] = Instr{Op: OpAddi, A: 0, Imm: 0} // y = x
	if _, err := Execute(&a, e); err != nil {
		t.Fatal(err)
	}
	if p.MustGet(x) != 7 || p.MustGet(y) != 5 {
		t.Errorf("swap failed: x=%d y=%d", p.MustGet(x), p.MustGet(y))
	}
}

func TestExecuteImmediate(t *testing.T) {
	e, p := env(t)
	var a Action
	a[0] = Instr{Op: OpSet, A: NoOperand, Imm: 999}
	a[1] = Instr{Op: OpAddi, A: 0, Imm: 1} // reads pre-action value 0
	a[2] = Instr{Op: OpSubi, A: 0, Imm: 1}
	if _, err := Execute(&a, e); err != nil {
		t.Fatal(err)
	}
	if v := p.MustGet(phv.Ref{Type: phv.Type2B, Index: 0}); v != 999 {
		t.Errorf("set = %d", v)
	}
	if v := p.MustGet(phv.Ref{Type: phv.Type2B, Index: 1}); v != 1 {
		t.Errorf("addi = %d", v)
	}
	// subi 0-1 wraps within the 2-byte container.
	if v := p.MustGet(phv.Ref{Type: phv.Type2B, Index: 2}); v != 0xffff {
		t.Errorf("subi wrap = %#x", v)
	}
}

func TestExecuteMemoryOps(t *testing.T) {
	e, p := env(t)
	// store: mem[seg(0+3)] = value of c2[0].
	p.MustSet(phv.Ref{Type: phv.Type2B, Index: 0}, 77)
	var st Action
	st[0] = Instr{Op: OpStore, A: NoOperand, Imm: 3}
	memOps, err := Execute(&st, e)
	if err != nil || memOps != 1 {
		t.Fatalf("store: ops=%d err=%v", memOps, err)
	}
	if v, _ := e.Memory.Load(3); v != 77 {
		t.Errorf("mem[3] = %d", v)
	}

	// load into c2[1].
	var ld Action
	ld[1] = Instr{Op: OpLoad, A: NoOperand, Imm: 3}
	if _, err := Execute(&ld, e); err != nil {
		t.Fatal(err)
	}
	if v := p.MustGet(phv.Ref{Type: phv.Type2B, Index: 1}); v != 77 {
		t.Errorf("load = %d", v)
	}

	// loadd increments and returns.
	var ladd Action
	ladd[2] = Instr{Op: OpLoadd, A: NoOperand, Imm: 3}
	if _, err := Execute(&ladd, e); err != nil {
		t.Fatal(err)
	}
	if v := p.MustGet(phv.Ref{Type: phv.Type2B, Index: 2}); v != 78 {
		t.Errorf("loadd = %d", v)
	}
}

func TestExecuteIndexedAddress(t *testing.T) {
	e, p := env(t)
	p.MustSet(phv.Ref{Type: phv.Type2B, Index: 0}, 5) // address operand
	if err := e.Memory.Store(10, 1234); err != nil {
		t.Fatal(err)
	}
	var a Action
	a[1] = Instr{Op: OpLoad, A: 0, Imm: 5} // addr = 5 + 5 = 10
	if _, err := Execute(&a, e); err != nil {
		t.Fatal(err)
	}
	if v := p.MustGet(phv.Ref{Type: phv.Type2B, Index: 1}); v != 1234 {
		t.Errorf("indexed load = %d", v)
	}
}

func TestExecuteSegmentFaultIsNoop(t *testing.T) {
	e, p := env(t) // segment range 32
	p.MustSet(phv.Ref{Type: phv.Type2B, Index: 1}, 0x5555)
	var a Action
	a[1] = Instr{Op: OpLoad, A: NoOperand, Imm: 200} // out of range
	memOps, err := Execute(&a, e)
	if err != nil {
		t.Fatalf("fault must not error: %v", err)
	}
	if memOps != 0 {
		t.Errorf("faulting op counted as memOp")
	}
	if v := p.MustGet(phv.Ref{Type: phv.Type2B, Index: 1}); v != 0x5555 {
		t.Errorf("faulting load modified dest: %#x", v)
	}
}

func TestExecuteNoSegmentModule(t *testing.T) {
	e, _ := env(t)
	e.ModIdx = 2 // no segment installed
	var a Action
	a[0] = Instr{Op: OpLoadd, A: NoOperand, Imm: 0}
	if _, err := Execute(&a, e); err != nil {
		t.Fatalf("missing segment must be a safe no-op: %v", err)
	}
	if v, _ := e.Memory.Load(0); v != 0 {
		t.Error("no-segment module reached stateful memory")
	}
}

func TestExecutePortAndDiscard(t *testing.T) {
	e, p := env(t)
	var a Action
	a[24] = Instr{Op: OpPort, A: 24, Imm: 6}
	if _, err := Execute(&a, e); err != nil {
		t.Fatal(err)
	}
	if p.Egress() != 6 {
		t.Errorf("egress = %d", p.Egress())
	}
	var d Action
	d[24] = Instr{Op: OpDiscard, A: 24}
	if _, err := Execute(&d, e); err != nil {
		t.Fatal(err)
	}
	if !p.Discarded() {
		t.Error("discard flag not set")
	}
}

func TestExecuteRejectsArithmeticOnMetadata(t *testing.T) {
	e, _ := env(t)
	var a Action
	a[24] = Instr{Op: OpAddi, A: 0, Imm: 1}
	if _, err := Execute(&a, e); err == nil {
		t.Error("arithmetic on metadata slot should fail")
	}
}

func TestTableSetLookupClear(t *testing.T) {
	tbl := NewTable(4)
	var a Action
	a[0] = Instr{Op: OpSet, A: NoOperand, Imm: 1}
	if err := tbl.Set(2, a); err != nil {
		t.Fatal(err)
	}
	got, ok := tbl.Lookup(2)
	if !ok || got != a {
		t.Error("Lookup after Set failed")
	}
	if _, ok := tbl.Lookup(1); ok {
		t.Error("unset address should miss")
	}
	if err := tbl.Clear(2); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Lookup(2); ok {
		t.Error("cleared address should miss")
	}
	if err := tbl.Set(9, a); !errors.Is(err, tables.ErrIndexRange) {
		t.Errorf("out-of-range Set: %v", err)
	}
}

func TestOpStringCoverage(t *testing.T) {
	for op := OpNop; op < opMax; op++ {
		if op.String() == "" {
			t.Errorf("op %d has empty string", op)
		}
	}
}

// Property: instruction encode/decode round-trips for all field values.
func TestQuickInstrRoundTrip(t *testing.T) {
	f := func(op, a, b uint8, imm uint16) bool {
		in := Instr{Op: Op(op % uint8(opMax)), A: a & 0x1f, B: b & 0x1f, Imm: imm}
		if in.Op.TwoOperand() {
			in.Imm = 0
		} else {
			in.B = 0
		}
		return DecodeInstr(in.Encode()) == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: action encoding round-trips.
func TestQuickActionRoundTrip(t *testing.T) {
	f := func(slots [25]uint32) bool {
		var a Action
		for i, raw := range slots {
			in := DecodeInstr(raw & (1<<InstrBits - 1))
			if !in.Op.Valid() {
				in = Instr{}
			}
			a[i] = in
		}
		back, err := DecodeAction(a.AppendEncode(nil))
		return err == nil && back == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: add then sub with the same operand restores the original
// container value (mod container width).
func TestQuickAddSubInverse(t *testing.T) {
	f := func(x, y uint16) bool {
		e := &Env{PHV: &phv.PHV{}}
		p := e.PHV
		p.MustSet(phv.Ref{Type: phv.Type2B, Index: 0}, uint64(x))
		var add Action
		add[0] = Instr{Op: OpAddi, A: 0, Imm: y}
		if _, err := Execute(&add, e); err != nil {
			return false
		}
		var sub Action
		sub[0] = Instr{Op: OpSubi, A: 0, Imm: y}
		if _, err := Execute(&sub, e); err != nil {
			return false
		}
		return p.MustGet(phv.Ref{Type: phv.Type2B, Index: 0}) == uint64(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The kernel's own check: ExecuteSlots (and the Execute oracle, which
// shares its kernel) against refExecute, a reference interpreter written
// literally over phv.RefForALU and the containers' big-endian bytes.

// refEnv is the reference interpreter's view of the stage: a plain copy
// of stateful memory (nil: the module has none) and the module's segment.
type refEnv struct {
	mem    []uint64
	seg    tables.Segment
	hasSeg bool
	seen   map[string]bool // features exercised; nil when not tracked
}

func (e *refEnv) saw(feature string) {
	if e.seen != nil {
		e.seen[feature] = true
	}
}

// refExecute runs slots of a over p in order, every operand read from
// the PHV as it was before the action, reporting what it exercised.
func refExecute(a *Action, slots []uint8, p *phv.PHV, e *refEnv) (memOps int, err error) {
	in := *p
	written := map[uint8]bool{}
	get := func(s uint8) (uint64, error) {
		if s == NoOperand {
			e.saw("no-operand")
			return 0, nil
		}
		r, err := phv.RefForALU(int(s))
		if err != nil {
			return 0, err
		}
		if r.Type == phv.TypeMeta {
			e.saw("meta-operand")
			return 0, errors.New("metadata operand")
		}
		if written[s] {
			e.saw("read-before-write")
		}
		b, _ := in.Bytes(r)
		var v uint64
		for _, x := range b {
			v = v<<8 | uint64(x)
		}
		return v, nil
	}
	for _, s := range slots {
		dest, err := phv.RefForALU(int(s))
		if err != nil {
			return memOps, err
		}
		instr := a[s]
		if dest.Type == phv.TypeMeta && instr.Op != OpPort && instr.Op != OpDiscard && instr.Op != OpNop {
			e.saw("meta-dest")
			return memOps, errors.New("metadata destination")
		}
		put := func(v uint64) {
			b, _ := p.Bytes(dest)
			if len(b) == phv.Size6B && v>>48 != 0 {
				e.saw("wrap-48")
			}
			e.saw("write-" + dest.Type.String())
			for i := len(b) - 1; i >= 0; i-- {
				b[i] = byte(v)
				v >>= 8
			}
			written[s] = true
		}
		imm := uint64(instr.Imm)
		switch instr.Op {
		case OpAdd, OpSub:
			x, err := get(instr.A)
			if err != nil {
				return memOps, err
			}
			y, err := get(instr.B)
			if err != nil {
				return memOps, err
			}
			if instr.Op == OpAdd {
				put(x + y)
			} else {
				put(x - y)
			}
		case OpAddi, OpSubi:
			x, err := get(instr.A)
			if err != nil {
				return memOps, err
			}
			if instr.Op == OpAddi {
				put(x + imm)
			} else {
				put(x - imm)
			}
		case OpSet:
			put(imm)
		case OpLoad, OpStore, OpLoadd:
			if e.mem == nil {
				return memOps, ErrNoSegment
			}
			x, err := get(instr.A)
			if err != nil {
				return memOps, err
			}
			addr := x + imm
			if !e.hasSeg || addr >= uint64(e.seg.Range) {
				e.saw("mem-outside-segment")
				break
			}
			e.saw("mem-inside-segment")
			memOps++
			phys := uint64(e.seg.Base) + addr
			if phys >= uint64(len(e.mem)) {
				break
			}
			switch instr.Op {
			case OpLoad:
				put(e.mem[phys])
			case OpStore:
				b, _ := in.Bytes(dest)
				var v uint64
				for _, x := range b {
					v = v<<8 | uint64(x)
				}
				e.mem[phys] = v
			default:
				e.mem[phys]++
				put(e.mem[phys])
			}
		case OpPort:
			p.Meta[phv.MetaOffDstPort] = byte(instr.Imm)
		case OpDiscard:
			p.Meta[phv.MetaOffDiscard] = 1
		default:
			return memOps, errors.New("invalid opcode")
		}
		e.saw("op-" + instr.Op.String())
	}
	return memOps, nil
}

// aluCase is one differential case decoded from fuzz bytes.
type aluCase struct {
	action Action
	slots  []uint8
	pre    phv.PHV
	seg    tables.Segment
	hasSeg bool
	noMem  bool
}

// decodeALUCase reads a case from data, zero-extended: segment base,
// segment range, flags, instruction count, five bytes per instruction
// (slot, opcode, operand A, two immediate bytes whose low five bits
// double as operand B), then the PHV's container bytes. The slot list
// is Table.Set's: each written slot once, in order, nops left out;
// slot byte values map so that 25 is the one out-of-range slot, and
// opcodes so that Op(11) is the one invalid opcode.
func decodeALUCase(data []byte) aluCase {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var c aluCase
	c.seg = tables.Segment{Base: next() % aluMemWords, Range: next() % (aluMemWords + 4)}
	flags := next()
	c.hasSeg, c.noMem = flags&1 == 0, flags&6 == 6
	listed := map[uint8]bool{}
	for n := next() % 7; n > 0; n-- {
		slot, op, a := next()%32, Op(next()%12), next()%32
		hi, lo := next(), next()
		if slot > 25 {
			slot -= 8
		}
		imm := uint16(lo)
		if hi&0x80 != 0 {
			imm |= uint16(hi) << 8
		}
		if op == OpNop || listed[slot] {
			continue
		}
		listed[slot] = true
		c.slots = append(c.slots, slot)
		if int(slot) < phv.NumContainers {
			c.action[slot] = Instr{Op: op, A: a, B: lo % 32, Imm: imm}
		}
	}
	for i := range c.pre.C2 {
		c.pre.C2[i] = [phv.Size2B]byte{next(), next()}
	}
	for i := range c.pre.C4 {
		c.pre.C4[i] = [phv.Size4B]byte{next(), next(), next(), next()}
	}
	for i := range c.pre.C6 {
		c.pre.C6[i] = [phv.Size6B]byte{next(), next(), next(), next(), next(), next()}
	}
	return c
}

const aluMemWords = 16

// checkALUCase runs c through ExecuteSlots and refExecute and reports
// any difference in PHV bytes, memory words, memOps or erroring.
func checkALUCase(t *testing.T, c aluCase, seen map[string]bool) {
	t.Helper()
	seg := tables.NewSegmentTable(4)
	if c.hasSeg {
		if err := seg.Set(1, c.seg); err != nil {
			t.Fatal(err)
		}
	}
	mem := tables.NewStatefulMemory(aluMemWords)
	ref := &refEnv{seg: c.seg, hasSeg: c.hasSeg, seen: seen}
	for i := 0; i < aluMemWords; i++ {
		if err := mem.Store(uint64(i), uint64(i)*0x0101_0101_0101); err != nil {
			t.Fatal(err)
		}
	}
	env := &Env{PHV: new(phv.PHV), Memory: mem, Segments: seg, ModIdx: 1}
	if c.noMem {
		env.Memory = nil
	} else {
		ref.mem = mem.Snapshot()
	}
	*env.PHV = c.pre
	want := c.pre
	gotOps, gotErr := ExecuteSlots(&c.action, c.slots, env)
	wantOps, wantErr := refExecute(&c.action, c.slots, &want, ref)
	if (gotErr != nil) != (wantErr != nil) || gotOps != wantOps {
		t.Fatalf("slots %v of %v: ExecuteSlots = (%d, %v), reference = (%d, %v)", c.slots, c.action, gotOps, gotErr, wantOps, wantErr)
	}
	if *env.PHV != want {
		t.Fatalf("slots %v of %v: PHV\n got %+v\nwant %+v", c.slots, c.action, *env.PHV, want)
	}
	if !c.noMem {
		if got := mem.Snapshot(); !slices.Equal(got, ref.mem) {
			t.Fatalf("slots %v of %v: memory\n got %v\nwant %v", c.slots, c.action, got, ref.mem)
		}
	}
}

// TestExecuteSlotsMatchesReference runs random actions through both
// interpreters and checks that the cases covered every opcode, every
// container width, 48-bit wrap-around, NoOperand, both metadata errors,
// multi-slot read-before-write and memory ops inside and outside the
// segment.
func TestExecuteSlotsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	seen := map[string]bool{}
	buf := make([]byte, 4+6*5+96)
	for i := 0; i < 20000; i++ {
		for j := range buf {
			buf[j] = byte(rng.Uint32())
		}
		checkALUCase(t, decodeALUCase(buf), seen)
	}
	want := []string{"no-operand", "meta-operand", "meta-dest", "read-before-write", "wrap-48",
		"write-2B", "write-4B", "write-6B", "mem-inside-segment", "mem-outside-segment"}
	for op := OpAdd; op < opMax; op++ {
		want = append(want, "op-"+op.String())
	}
	for _, f := range want {
		if !seen[f] {
			t.Errorf("no random case exercised %s", f)
		}
	}
}

// FuzzExecuteSlots is TestExecuteSlotsMatchesReference under the
// fuzzer; testdata/fuzz/FuzzExecuteSlots holds its seed corpus.
func FuzzExecuteSlots(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkALUCase(t, decodeALUCase(data), nil)
	})
}
