// Package alu implements Menshen's action engine: the 25 parallel ALUs
// controlled by one very-large-instruction-word (VLIW) action, the 25-bit
// per-ALU instruction encodings of Figure 7, and the VLIW action table.
//
// There is one ALU per PHV container; each ALU's output is hard-wired to
// its own container, so only the operand side needs a crossbar (§3.1).
package alu

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

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

// UsesMemory reports whether the opcode accesses stateful memory.
func (o Op) UsesMemory() bool { return o == OpLoad || o == OpStore || o == OpLoadd }

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

// Encode packs the action into ActionBytes bytes (instructions in slot
// order, big-endian bit packing).
func (a *Action) Encode() []byte {
	out := make([]byte, ActionBytes)
	bit := 0
	for _, in := range a {
		putBits(out, bit, InstrBits, uint64(in.Encode()))
		bit += InstrBits
	}
	return out
}

// DecodeAction unpacks an action from its wire format.
func DecodeAction(b []byte) (Action, error) {
	var a Action
	if len(b) < ActionBytes {
		return a, fmt.Errorf("alu: action needs %d bytes, have %d", ActionBytes, len(b))
	}
	bit := 0
	for i := range a {
		a[i] = DecodeInstr(uint32(getBits(b, bit, InstrBits)))
		bit += InstrBits
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

// putBits writes the low n bits of v into buf starting at bit offset off
// (MSB-first within the buffer).
func putBits(buf []byte, off, n int, v uint64) {
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

// getBits reads n bits from buf starting at bit offset off (MSB-first).
func getBits(buf []byte, off, n int) uint64 {
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

// Table is the per-stage VLIW action table: CAM lookup results index it.
// Like the match table it is space-partitioned across modules, but since
// the CAM address is the action address the CAM's partitioning covers it.
// Entries are published as copy-on-write snapshots (like
// tables.Overlay), so the per-packet read path — including the
// zero-copy Ref used by the batched engine — is safe against a
// concurrent daisy-chain writer without locks.
type Table struct {
	mu      sync.Mutex // serializes writers
	entries atomic.Pointer[[]tableEntry]
}

// tableEntry is one action plus its precomputed non-nop instruction
// slots (so the per-packet path skips the scan over all 25 VLIW
// lanes).
type tableEntry struct {
	action Action
	valid  bool
	slots  []uint8
}

// NewTable returns an action table with the given depth (the prototype
// uses tables.CAMDepth = 16).
func NewTable(depth int) *Table {
	t := &Table{}
	entries := make([]tableEntry, depth)
	t.entries.Store(&entries)
	return t
}

// Depth returns the number of action slots.
func (t *Table) Depth() int { return len(*t.entries.Load()) }

// mutate copies the current snapshot, installs e at addr, and
// publishes the copy.
func (t *Table) mutate(addr int, e tableEntry) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := *t.entries.Load()
	if addr < 0 || addr >= len(cur) {
		return fmt.Errorf("%w: action address %d (depth %d)", tables.ErrIndexRange, addr, len(cur))
	}
	next := make([]tableEntry, len(cur))
	copy(next, cur)
	next[addr] = e
	t.entries.Store(&next)
	return nil
}

// Set installs the action at addr.
func (t *Table) Set(addr int, a Action) error {
	if err := a.Validate(); err != nil {
		return err
	}
	var slots []uint8
	for slot := range a {
		if a[slot].Op != OpNop {
			slots = append(slots, uint8(slot))
		}
	}
	return t.mutate(addr, tableEntry{action: a, valid: true, slots: slots})
}

// Clear invalidates the action at addr.
func (t *Table) Clear(addr int) error {
	return t.mutate(addr, tableEntry{})
}

// Lookup returns the action at addr.
func (t *Table) Lookup(addr int) (Action, bool) {
	entries := *t.entries.Load()
	if addr < 0 || addr >= len(entries) || !entries[addr].valid {
		return Action{}, false
	}
	return entries[addr].action, true
}

// Ref returns a pointer to the action at addr plus its precompiled
// non-nop slot list, skipping the copy of the wide (625-bit) VLIW entry
// on the per-packet path. The pointees live in an immutable snapshot
// and must be treated as read-only.
func (t *Table) Ref(addr int) (*Action, []uint8, bool) {
	entries := *t.entries.Load()
	if addr < 0 || addr >= len(entries) || !entries[addr].valid {
		return nil, nil, false
	}
	return &entries[addr].action, entries[addr].slots, true
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

// Execute is the reference oracle behind stage.Process (see there):
// ExecuteSlots without the precompiled slot list or the single-writer
// shortcut — it walks all 25 slots and always snapshots the PHV. Nothing
// serves traffic through it.
func Execute(a *Action, env *Env) (memOps int, err error) {
	in := *env.PHV // snapshot: all operands read pre-action values
	for slot := range a {
		instr := a[slot]
		if instr.Op == OpNop {
			continue
		}
		destRef, rerr := phv.RefForALU(slot)
		if rerr != nil {
			return memOps, rerr
		}
		if ferr := executeOne(slot, instr, destRef, &in, env, &memOps); ferr != nil {
			return memOps, ferr
		}
	}
	return memOps, nil
}

// ExecuteSlots runs one VLIW action, visiting only its non-nop slots
// (the list Table.Ref precompiles). Every ALU reads the PHV as it was
// before the action and the results are committed together, mirroring
// the hardware where all 25 ALUs consume the same input vector in
// parallel; a single-instruction action skips the snapshot, since with
// one writer there is no read-after-write hazard to guard against.
// Memory-op faults (segment violations) turn the individual operation
// into a no-op, so a misconfigured or malicious module can never touch
// state outside its segment. The returned count is the number of
// stateful-memory operations performed (used by cycle accounting).
func ExecuteSlots(a *Action, slots []uint8, env *Env) (memOps int, err error) {
	switch len(slots) {
	case 0:
		return 0, nil
	case 1:
		slot := int(slots[0])
		destRef, rerr := phv.RefForALU(slot)
		if rerr != nil {
			return 0, rerr
		}
		err = executeOne(slot, a[slot], destRef, env.PHV, env, &memOps)
		return memOps, err
	}
	in := *env.PHV // snapshot: all operands read pre-action values
	for _, s := range slots {
		slot := int(s)
		destRef, rerr := phv.RefForALU(slot)
		if rerr != nil {
			return memOps, rerr
		}
		if ferr := executeOne(slot, a[slot], destRef, &in, env, &memOps); ferr != nil {
			return memOps, ferr
		}
	}
	return memOps, nil
}

func executeOne(slot int, instr Instr, destRef phv.Ref, in *phv.PHV, env *Env, memOps *int) error {
	// The metadata container has no integer ALU datapath; only the
	// platform ops (port, discard) may target it.
	if destRef.Type == phv.TypeMeta && instr.Op != OpPort && instr.Op != OpDiscard && instr.Op != OpNop {
		return fmt.Errorf("alu: slot %d (metadata) cannot execute %v", slot, instr.Op)
	}

	operand := func(s uint8) (uint64, error) {
		if s == NoOperand {
			return 0, nil
		}
		r, err := phv.RefForALU(int(s))
		if err != nil {
			return 0, err
		}
		if r.Type == phv.TypeMeta {
			return 0, fmt.Errorf("alu: metadata container is not a valid operand")
		}
		return in.Get(r)
	}

	switch instr.Op {
	case OpAdd, OpSub:
		av, err := operand(instr.A)
		if err != nil {
			return err
		}
		bv, err := operand(instr.B)
		if err != nil {
			return err
		}
		v := av + bv
		if instr.Op == OpSub {
			v = av - bv
		}
		return env.PHV.Set(destRef, v)

	case OpAddi, OpSubi:
		av, err := operand(instr.A)
		if err != nil {
			return err
		}
		v := av + uint64(instr.Imm)
		if instr.Op == OpSubi {
			v = av - uint64(instr.Imm)
		}
		return env.PHV.Set(destRef, v)

	case OpSet:
		return env.PHV.Set(destRef, uint64(instr.Imm))

	case OpLoad, OpStore, OpLoadd:
		if env.Memory == nil || env.Segments == nil {
			return ErrNoSegment
		}
		av, err := operand(instr.A)
		if err != nil {
			return err
		}
		local := av + uint64(instr.Imm)
		phys, terr := env.Segments.Translate(env.ModIdx, local)
		if terr != nil {
			// Segment fault: the op becomes a no-op. Isolation beats
			// completeness here — the module only hurts itself.
			return nil
		}
		*memOps++
		switch instr.Op {
		case OpLoad:
			v, lerr := env.Memory.Load(phys)
			if lerr != nil {
				return nil
			}
			return env.PHV.Set(destRef, v)
		case OpStore:
			cur, gerr := in.Get(destRef)
			if gerr != nil {
				return gerr
			}
			if serr := env.Memory.Store(phys, cur); serr != nil {
				return nil
			}
			return nil
		default: // OpLoadd
			v, lerr := env.Memory.LoadAddStore(phys)
			if lerr != nil {
				return nil
			}
			return env.PHV.Set(destRef, v)
		}

	case OpPort:
		env.PHV.SetEgress(uint8(instr.Imm))
		return nil

	case OpDiscard:
		env.PHV.Discard()
		return nil
	}
	return fmt.Errorf("alu: slot %d: invalid opcode %d", slot, instr.Op)
}
