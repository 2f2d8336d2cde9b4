// Package alu implements Menshen's action engine: the 25 parallel ALUs
// controlled by one very-large-instruction-word (VLIW) action, the 25-bit
// per-ALU instruction encodings of Figure 7, and the VLIW action table.
//
// There is one ALU per PHV container; each ALU's output is hard-wired to
// its own container, so only the operand side needs a crossbar (§3.1).
// ExecuteSlots is the one word-width kernel that serves traffic;
// Execute is the literal oracle the stage tests compare it against, and
// a test-only byte-wise reference interpreter checks the kernel itself.
package alu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/phv"
	"repro/internal/tables"
)

// Op is a 4-bit ALU opcode (Table 2 of the paper).
type Op uint8

// Supported operations. Nop leaves the container unchanged.
const (
	OpNop     Op = iota
	OpAdd        // dest = A + B (containers)
	OpSub        // dest = A - B (containers)
	OpAddi       // dest = A + imm
	OpSubi       // dest = A - imm
	OpSet        // dest = imm
	OpLoad       // dest = mem[seg(A + imm)]
	OpStore      // mem[seg(A + imm)] = dest
	OpLoadd      // v = mem[seg(A + imm)] + 1; store back; dest = v
	OpPort       // set destination port metadata to imm
	OpDiscard    // mark packet for discard
	opMax
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpNop:
		return "nop"
	case OpAdd:
		return "add"
	case OpSub:
		return "sub"
	case OpAddi:
		return "addi"
	case OpSubi:
		return "subi"
	case OpSet:
		return "set"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpLoadd:
		return "loadd"
	case OpPort:
		return "port"
	case OpDiscard:
		return "discard"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o < opMax }

// TwoOperand reports whether the opcode uses format (1) of Figure 7
// (two container operands) rather than format (2) (container + immediate).
func (o Op) TwoOperand() bool { return o == OpAdd || o == OpSub }

// Instr is one 25-bit ALU action. Format (1), two PHV operands:
// opcode[4] containerA[5] containerB[5] reserved[11]. Format (2), one PHV
// operand plus immediate: opcode[4] containerA[5] imm[16].
type Instr struct {
	Op  Op
	A   uint8  // ALU-slot index of operand A (0-24)
	B   uint8  // ALU-slot index of operand B (format 1 only)
	Imm uint16 // immediate value (format 2 only)
}

// InstrBits is the on-wire width of one instruction.
const InstrBits = 25

// NoOperand is the reserved 5-bit operand-slot value meaning "constant
// zero": slots 25-30 are unused by the 25 containers, and 31 gives
// address computations and copies a zero source without consuming a
// container.
const NoOperand = 0x1f

// Encode packs the instruction into its 25-bit representation (returned in
// the low bits of a uint32).
func (in Instr) Encode() uint32 {
	v := uint32(in.Op&0x0f) << 21
	v |= uint32(in.A&0x1f) << 16
	if in.Op.TwoOperand() {
		v |= uint32(in.B&0x1f) << 11
	} else {
		v |= uint32(in.Imm)
	}
	return v
}

// DecodeInstr unpacks a 25-bit instruction.
func DecodeInstr(v uint32) Instr {
	op := Op(v >> 21 & 0x0f)
	in := Instr{Op: op, A: uint8(v >> 16 & 0x1f)}
	if op.TwoOperand() {
		in.B = uint8(v >> 11 & 0x1f)
	} else {
		in.Imm = uint16(v & 0xffff)
	}
	return in
}

// Validate checks that operand slots are in range (a slot is valid when it
// names a container or is the NoOperand zero source).
func (in Instr) Validate() error {
	if !in.Op.Valid() {
		return fmt.Errorf("alu: invalid opcode %d", in.Op)
	}
	if int(in.A) >= phv.NumContainers && in.A != NoOperand {
		return fmt.Errorf("alu: operand A slot %d out of range", in.A)
	}
	if in.Op.TwoOperand() && int(in.B) >= phv.NumContainers && in.B != NoOperand {
		return fmt.Errorf("alu: operand B slot %d out of range", in.B)
	}
	return nil
}

// String implements fmt.Stringer.
func (in Instr) String() string {
	switch {
	case in.Op == OpNop:
		return "nop"
	case in.Op == OpDiscard:
		return "discard"
	case in.Op == OpPort:
		return fmt.Sprintf("port %d", in.Imm)
	case in.Op.TwoOperand():
		return fmt.Sprintf("%s c%d, c%d", in.Op, in.A, in.B)
	default:
		return fmt.Sprintf("%s c%d, #%d", in.Op, in.A, in.Imm)
	}
}

// Action is one VLIW action-table entry: one instruction per ALU/container,
// 25 x 25 = 625 bits on the wire.
type Action [phv.NumContainers]Instr

// ActionBits is the on-wire width of a VLIW action.
const ActionBits = phv.NumContainers * InstrBits // 625

// ActionBytes is ActionBits rounded up to whole bytes.
const ActionBytes = (ActionBits + 7) / 8 // 79

// AppendEncode appends the action's ActionBytes-byte wire form to dst
// (instructions in slot order, big-endian bit packing). The
// instructions stream through a 64-bit accumulator that is flushed 32
// bits at a time.
func (a *Action) AppendEncode(dst []byte) []byte {
	dst = slices.Grow(dst, ActionBytes)
	out := dst[len(dst) : len(dst)+ActionBytes]
	var acc uint64 // the low n bits are pending
	n, o := 0, 0
	for i := range a {
		acc = acc<<InstrBits | uint64(a[i].Encode())
		if n += InstrBits; n >= 32 {
			n -= 32
			binary.BigEndian.PutUint32(out[o:], uint32(acc>>n))
			o += 4
		}
	}
	// The last n bits fill the tail bytes MSB-first; the pad bits stay 0.
	for acc <<= 64 - n; o < len(out); o++ {
		out[o] = byte(acc >> 56)
		acc <<= 8
	}
	return dst[:len(dst)+ActionBytes]
}

// DecodeAction unpacks an action from its wire format, refilling a
// 64-bit accumulator 32 bits at a time.
func DecodeAction(b []byte) (Action, error) {
	var a Action
	if len(b) < ActionBytes {
		return a, fmt.Errorf("alu: action needs %d bytes, have %d", ActionBytes, len(b))
	}
	var buf [ActionBytes + 1]byte // whole 32-bit refills cover the tail
	copy(buf[:], b)
	var acc uint64 // the low n bits are pending
	n, o := 0, 0
	for i := range a {
		if n < InstrBits {
			acc = acc<<32 | uint64(binary.BigEndian.Uint32(buf[o:]))
			n += 32
			o += 4
		}
		n -= InstrBits
		a[i] = DecodeInstr(uint32(acc>>n) & (1<<InstrBits - 1))
	}
	return a, nil
}

// Validate checks every instruction in the action.
func (a *Action) Validate() error {
	for i, in := range a {
		if err := in.Validate(); err != nil {
			return fmt.Errorf("slot %d: %w", i, err)
		}
	}
	return nil
}

// Table is the per-stage VLIW action table: CAM lookup results index it.
// Like the match table it is space-partitioned across modules, but since
// the CAM address is the action address the CAM's partitioning covers it.
// Its addresses live in a tables.Overlay, written in place: a write
// stores the one entry (the action plus its slot list) and allocates
// nothing, and the per-packet read path — including the zero-copy Ref
// used by the batched engine — reads the slot directly. Like the
// overlay, the table does no locking of its own; the pipeline that holds
// it orders every read and write under its batch lock.
type Table struct {
	entries *tables.Overlay[tableEntry]
}

// tableEntry is one action plus its precomputed non-nop instruction
// slots (so the per-packet path skips the scan over all 25 VLIW
// lanes), held inline so an entry is one overlay slot.
type tableEntry struct {
	action Action
	slots  [phv.NumContainers]uint8
	nslots uint8
}

// NewTable returns an action table with the given depth (the prototype
// uses tables.CAMDepth = 16).
func NewTable(depth int) *Table {
	return &Table{entries: tables.NewOverlay[tableEntry](depth)}
}

// Depth returns the number of action slots.
func (t *Table) Depth() int { return t.entries.Depth() }

// Set installs the action at addr.
func (t *Table) Set(addr int, a Action) error {
	if err := a.Validate(); err != nil {
		return err
	}
	e := tableEntry{action: a}
	for slot := range a {
		if a[slot].Op != OpNop {
			e.slots[e.nslots] = uint8(slot)
			e.nslots++
		}
	}
	return t.entries.Set(addr, e)
}

// Clear invalidates the action at addr.
func (t *Table) Clear(addr int) error { return t.entries.Clear(addr) }

// Lookup returns the action at addr.
func (t *Table) Lookup(addr int) (Action, bool) {
	if e, ok := t.entries.Ref(addr); ok {
		return e.action, true
	}
	return Action{}, false
}

// Ref returns a pointer to the action at addr plus its precompiled
// non-nop slot list, skipping the copy of the wide (625-bit) VLIW entry
// on the per-packet path. The pointees are the table's own slot,
// rewritten in place by the next Set or Clear at addr, and must be
// treated as read-only.
func (t *Table) Ref(addr int) (*Action, []uint8, bool) {
	e, ok := t.entries.Ref(addr)
	if !ok {
		return nil, nil, false
	}
	return &e.action, e.slots[:e.nslots:e.nslots], true
}

// ErrNoSegment is returned when a memory-op executes for a module with no
// stateful-memory segment.
var ErrNoSegment = errors.New("alu: module has no stateful memory segment")

// Env is the execution environment for one VLIW action: the PHV being
// processed, the stage's stateful memory, its segment table, and the
// module's overlay index (for segment lookup).
type Env struct {
	PHV      *phv.PHV
	Memory   *tables.StatefulMemory
	Segments *tables.SegmentTable
	ModIdx   int
}

// errMetaOperand rejects the metadata container as an integer operand.
var errMetaOperand = errors.New("alu: metadata container is not a valid operand")

const metaSlot = phv.NumContainers - 1 // the metadata container's ALU slot

// Execute is the reference oracle behind stage.Process (see there):
// ExecuteSlots without the precompiled slot list or the single-writer
// shortcut — it walks all 25 slots and always snapshots the PHV. Nothing
// serves traffic through it.
func Execute(a *Action, env *Env) (memOps int, err error) {
	in := *env.PHV // snapshot: all operands read pre-action values
	for slot := range a {
		if a[slot].Op == OpNop {
			continue
		}
		if err := executeOne(a, slot, &in, env, &memOps); err != nil {
			return memOps, err
		}
	}
	return memOps, nil
}

// ExecuteSlots runs one VLIW action, visiting only its non-nop slots
// (the list Table.Ref precompiles), with operands and results moved at
// container width (phv.Word/SetWord). Every ALU reads the PHV as it was
// before the action and the results are committed together, mirroring
// the hardware where all 25 ALUs consume the same input vector in
// parallel; a single-instruction action skips the snapshot, since with
// one writer there is no read-after-write hazard to guard against.
// Memory-op faults (segment violations) turn the individual operation
// into a no-op costing no allocation, so a misconfigured or malicious
// module can neither touch state outside its segment nor burden its
// worker. The returned count is the number of stateful-memory
// operations performed (used by cycle accounting).
//
//menshen:hotpath
func ExecuteSlots(a *Action, slots []uint8, env *Env) (memOps int, err error) {
	switch len(slots) {
	case 0:
		return 0, nil
	case 1:
		err = executeOne(a, int(slots[0]), env.PHV, env, &memOps)
		return memOps, err
	}
	in := *env.PHV // snapshot: all operands read pre-action values
	for _, s := range slots {
		if err := executeOne(a, int(s), &in, env, &memOps); err != nil {
			return memOps, err
		}
	}
	return memOps, nil
}

// operand resolves an operand slot against the pre-action PHV in: a
// container's word, zero for NoOperand, an error for the metadata slot
// and the unused slots 25-30.
//
//menshen:hotpath
func operand(in *phv.PHV, s uint8) (uint64, error) {
	switch {
	case s < metaSlot:
		return in.Word(int(s)), nil
	case s == NoOperand:
		return 0, nil
	case s == metaSlot:
		return 0, errMetaOperand
	}
	return 0, fmt.Errorf("%w: ALU slot %d", phv.ErrBadRef, s) //menshen:allocok only an action that skipped Action.Validate names slots 25-30
}

// executeOne runs the instruction in ALU slot slot of a, reading
// operands from in and writing the slot's own container in env.PHV.
//
//menshen:hotpath
func executeOne(a *Action, slot int, in *phv.PHV, env *Env, memOps *int) error {
	if slot > metaSlot {
		return fmt.Errorf("%w: ALU slot %d", phv.ErrBadRef, slot) //menshen:allocok only a hand-built slot list reaches it; Table.Ref's lists hold slots 0-24
	}
	// The metadata container has no integer ALU datapath; only the
	// platform ops (port, discard) may target it.
	if op := a[slot].Op; slot == metaSlot && op != OpPort && op != OpDiscard && op != OpNop {
		return fmt.Errorf("alu: slot %d (metadata) cannot execute %v", slot, op) //menshen:allocok only a hand-written action reaches it: the compiler gives the metadata slot port and discard alone
	}
	instr := &a[slot]

	switch instr.Op {
	case OpAdd, OpSub, OpAddi, OpSubi:
		av, err := operand(in, instr.A)
		if err != nil {
			return err
		}
		bv := uint64(instr.Imm)
		if instr.Op.TwoOperand() {
			if bv, err = operand(in, instr.B); err != nil {
				return err
			}
		}
		if instr.Op == OpSub || instr.Op == OpSubi {
			bv = -bv
		}
		env.PHV.SetWord(slot, av+bv)
		return nil

	case OpSet:
		env.PHV.SetWord(slot, uint64(instr.Imm))
		return nil

	case OpLoad, OpStore, OpLoadd:
		if env.Memory == nil || env.Segments == nil {
			return ErrNoSegment
		}
		av, err := operand(in, instr.A)
		if err != nil {
			return err
		}
		phys, terr := env.Segments.Translate(env.ModIdx, av+uint64(instr.Imm))
		if terr != nil {
			// Segment fault: the op becomes a no-op. Isolation beats
			// completeness here — the module only hurts itself.
			return nil
		}
		*memOps++
		switch instr.Op {
		case OpLoad:
			if v, lerr := env.Memory.Load(phys); lerr == nil {
				env.PHV.SetWord(slot, v)
			}
		case OpStore:
			_ = env.Memory.Store(phys, in.Word(slot))
		default: // OpLoadd
			if v, lerr := env.Memory.LoadAddStore(phys); lerr == nil {
				env.PHV.SetWord(slot, v)
			}
		}
		return nil

	case OpPort:
		env.PHV.SetEgress(uint8(instr.Imm))
		return nil

	case OpDiscard:
		env.PHV.Discard()
		return nil
	}
	return fmt.Errorf("alu: slot %d: invalid opcode %d", slot, instr.Op) //menshen:allocok only an action that skipped Action.Validate reaches it
}
