// Package parser implements Menshen's programmable parser and deparser.
//
// Parsing is driven by a table lookup (§3.1, Figure 3): the packet's
// module ID (VLAN ID) indexes a parser table whose entries hold up to ten
// 16-bit parse actions, each specifying where in the first 128 bytes of
// the packet to extract a field and which PHV container receives it. The
// deparser uses a table of identical format to write modified containers
// back into the packet at the same offsets.
package parser

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/packet"
	"repro/internal/phv"
	"repro/internal/tables"
)

// Geometry from §4.1 / Table 5.
const (
	// ActionsPerEntry is the number of parse actions per module: at most
	// ten containers can be parsed out.
	ActionsPerEntry = 10
	// ActionBits is the width of one parse action.
	ActionBits = 16
	// EntryBits is the width of one parser-table entry (160 bits).
	EntryBits = ActionsPerEntry * ActionBits
	// EntryBytes is EntryBits in bytes.
	EntryBytes = EntryBits / 8
	// Window is the parseable prefix of the packet.
	Window = packet.HeaderWindow
)

// Errors.
var (
	ErrNoConfig  = errors.New("parser: no parser configuration for module")
	ErrBadAction = errors.New("parser: invalid parse action")
	ErrTooLong   = errors.New("parser: packet length exceeds 16-bit metadata field")
)

// Action is one 16-bit parse action. Wire layout, MSB first:
// reserved[3] offset[7] containerType[2] containerIndex[3] valid[1].
type Action struct {
	Offset uint8 // byte offset from the head of the packet (0-127)
	Dest   phv.Ref
	Valid  bool
}

// Encode packs the action into its 16-bit wire form.
func (a Action) Encode() uint16 {
	var v uint16
	v |= uint16(a.Offset&0x7f) << 6
	v |= uint16(a.Dest.Type&0x03) << 4
	v |= uint16(a.Dest.Index&0x07) << 1
	if a.Valid {
		v |= 1
	}
	return v
}

// DecodeAction unpacks a 16-bit parse action.
func DecodeAction(v uint16) Action {
	return Action{
		Offset: uint8(v >> 6 & 0x7f),
		Dest:   phv.Ref{Type: phv.ContainerType(v >> 4 & 0x03), Index: uint8(v >> 1 & 0x07)},
		Valid:  v&1 != 0,
	}
}

// Validate checks the action's ranges: the destination must be a data
// container (metadata is pipeline-owned) and the extracted bytes must lie
// inside the 128-byte window.
func (a Action) Validate() error {
	if !a.Valid {
		return nil
	}
	if a.Dest.Type == phv.TypeMeta {
		return fmt.Errorf("%w: cannot parse into metadata container", ErrBadAction)
	}
	if !a.Dest.Valid() {
		return fmt.Errorf("%w: destination %v", ErrBadAction, a.Dest)
	}
	if int(a.Offset)+a.Dest.Type.Width() > Window {
		return fmt.Errorf("%w: extraction [%d,%d) exceeds %d-byte window",
			ErrBadAction, a.Offset, int(a.Offset)+a.Dest.Type.Width(), Window)
	}
	return nil
}

// Entry is one parser-table entry: the parse actions for one module.
type Entry struct {
	Actions [ActionsPerEntry]Action
}

// AppendEncode appends the entry's 160-bit (20-byte) wire form to dst.
func (e *Entry) AppendEncode(dst []byte) []byte {
	for _, a := range e.Actions {
		dst = binary.BigEndian.AppendUint16(dst, a.Encode())
	}
	return dst
}

// DecodeEntry unpacks a parser-table entry.
func DecodeEntry(b []byte) (Entry, error) {
	var e Entry
	if len(b) < EntryBytes {
		return e, fmt.Errorf("parser: entry needs %d bytes, have %d", EntryBytes, len(b))
	}
	for i := range e.Actions {
		e.Actions[i] = DecodeAction(uint16(b[2*i])<<8 | uint16(b[2*i+1]))
	}
	return e, nil
}

// Validate checks every action in the entry and rejects duplicate
// destination containers (two extractions into one container would race
// in hardware).
func (e Entry) Validate() error {
	seen := map[phv.Ref]bool{}
	for i, a := range e.Actions {
		if err := a.Validate(); err != nil {
			return fmt.Errorf("action %d: %w", i, err)
		}
		if a.Valid {
			if seen[a.Dest] {
				return fmt.Errorf("%w: action %d duplicates destination %v", ErrBadAction, i, a.Dest)
			}
			seen[a.Dest] = true
		}
	}
	return nil
}

// ValidActions returns the number of valid actions in the entry.
func (e Entry) ValidActions() int {
	n := 0
	for _, a := range e.Actions {
		if a.Valid {
			n++
		}
	}
	return n
}

// Parser is the programmable parser: an overlay table of per-module parse
// entries. It also owns VLAN-ID extraction, which happens before the
// table lookup (Figure 3).
type Parser struct {
	table *tables.Overlay[Entry]
}

// New returns a parser with the given overlay depth (tables.OverlayDepth
// for the paper's geometry).
func New(depth int) *Parser {
	return &Parser{table: tables.NewOverlay[Entry](depth)}
}

// Table exposes the underlying overlay for reconfiguration.
func (p *Parser) Table() *tables.Overlay[Entry] { return p.table }

// Set installs the parse entry for a module index.
func (p *Parser) Set(idx int, e Entry) error {
	if err := e.Validate(); err != nil {
		return err
	}
	return p.table.Set(idx, e)
}

// Parse runs the module's parse entry over one frame: EntryRef, Compile
// and Program.Parse in one call, for callers that have not resolved the
// entry ahead of time. The pipeline compiles once per configuration
// generation and calls Program.Parse directly.
func (p *Parser) Parse(data []byte, modIdx int, v *phv.PHV) error {
	entry, ok := p.table.Ref(modIdx)
	if !ok {
		return fmt.Errorf("%w: index %d", ErrNoConfig, modIdx)
	}
	prog := entry.Compile()
	return prog.Parse(data, v)
}

// EntryRef returns the module's installed parse entry (the overlay's
// own slot, so read-only), for callers that resolve and Compile it once.
func (p *Parser) EntryRef(modIdx int) (*Entry, bool) { return p.table.Ref(modIdx) }

// copyWindow copies len(dst) bytes from data[off:] into dst, zero-filling
// past the end of data.
func copyWindow(dst, data []byte, off int) {
	for i := range dst {
		if off+i < len(data) {
			dst[i] = data[off+i]
		} else {
			dst[i] = 0
		}
	}
}

// Program is an Entry compiled to its valid actions with the container
// references pre-resolved: a frame runs only the configured
// extractions/writebacks and pays no per-action validity or range
// checks. Its steps live in a fixed array, so Compile allocates nothing.
// A Program is immutable after Compile and safe for concurrent use.
type Program struct {
	steps [ActionsPerEntry]progStep
	n     uint8 // steps in use
}

// progStep is one compiled parse/deparse action. Entries are validated
// at installation (Entry.Validate), so typ/idx are in range and typ is
// never TypeMeta.
type progStep struct {
	off uint8
	typ phv.ContainerType
	idx uint8
}

// Compile flattens the entry's valid actions into a Program.
func (e *Entry) Compile() Program {
	var pr Program
	for _, a := range e.Actions {
		if !a.Valid {
			continue
		}
		pr.steps[pr.n] = progStep{off: a.Offset, typ: a.Dest.Type, idx: a.Dest.Index}
		pr.n++
	}
	return pr
}

// container returns the referenced container's backing bytes. The step
// was validated at installation, so no range checks are repeated here.
func (st *progStep) container(v *phv.PHV) []byte {
	switch st.typ {
	case phv.Type2B:
		return v.C2[st.idx][:]
	case phv.Type4B:
		return v.C4[st.idx][:]
	case phv.Type6B:
		return v.C6[st.idx][:]
	}
	return v.Meta[:]
}

// Parse fills v from one frame. It first zeroes the whole PHV — every
// container and the metadata, not only the ones this module parses — so
// nothing a previous frame (of any module) left in v can leak into this
// one; that zeroing is the parser's share of the isolation guarantee.
// It then records the frame length as platform metadata (a frame longer
// than the 16-bit field is rejected) and copies each configured
// [offset, offset+width) window of data into its container, as one
// fixed-width move. Bytes past the end of a short frame read as zero, as
// a hardware byte-shifter would produce; Parse never reads outside data.
//
//menshen:hotpath
func (pr *Program) Parse(data []byte, v *phv.PHV) error {
	v.Zero()
	if len(data) > 0xffff {
		return ErrTooLong
	}
	v.SetPacketLen(uint16(len(data)))
	for _, st := range pr.steps[:pr.n] {
		off := int(st.off)
		switch {
		case off+st.typ.Width() > len(data):
			copyWindow(st.container(v), data, off)
		case st.typ == phv.Type2B:
			v.C2[st.idx] = [phv.Size2B]byte(data[off:])
		case st.typ == phv.Type4B:
			v.C4[st.idx] = [phv.Size4B]byte(data[off:])
		default:
			v.C6[st.idx] = [phv.Size6B]byte(data[off:])
		}
	}
	return nil
}

// Deparse writes each configured container back into data at its
// offset, in place, updating only the portions of the packet the
// pipeline may have modified (§4.1). A write that would run past the end
// of data is truncated to the bytes that fit; one that starts past the
// end is skipped.
//
// Aliasing guarantee: Deparse only ever writes bytes of data inside the
// configured [offset, offset+width) windows and reads exclusively from
// the PHV (never from data) — so data may alias the very frame the PHV
// was parsed from. This is what makes the engine's zero-copy mode sound:
// deparsing into the submitted buffer is byte-identical to deparsing
// into a fresh copy of it.
func (pr *Program) Deparse(data []byte, v *phv.PHV) {
	for _, st := range pr.steps[:pr.n] {
		src := st.container(v)
		off := int(st.off)
		n := len(src)
		if off >= len(data) {
			continue
		}
		if off+n > len(data) {
			n = len(data) - off
		}
		copy(data[off:off+n], src[:n])
	}
}

// Deparser writes modified PHV containers back into the packet. Its table
// format is identical to the parser's and is likewise indexed by module ID
// (§3.1: "The format of the deparser table is identical to the parser
// table").
type Deparser struct {
	table *tables.Overlay[Entry]
}

// NewDeparser returns a deparser with the given overlay depth.
func NewDeparser(depth int) *Deparser {
	return &Deparser{table: tables.NewOverlay[Entry](depth)}
}

// Table exposes the underlying overlay for reconfiguration.
func (d *Deparser) Table() *tables.Overlay[Entry] { return d.table }

// Set installs the deparse entry for a module index.
func (d *Deparser) Set(idx int, e Entry) error {
	if err := e.Validate(); err != nil {
		return err
	}
	return d.table.Set(idx, e)
}

// EntryRef returns the module's installed deparse entry (the overlay's
// own slot, so read-only), for callers that resolve and Compile it once.
func (d *Deparser) EntryRef(modIdx int) (*Entry, bool) { return d.table.Ref(modIdx) }
