// Package tables implements the memory structures of the Menshen pipeline:
//
//   - Overlay: a small SRAM array indexed by module ID, the hardware
//     primitive Menshen adds for sharing one resource (parser, key
//     extractor, key mask, segment table, deparser) across modules (§3).
//   - CAM: the per-stage match table (exact match, with the ternary mode
//     of Appendix B), whose entries carry the module ID appended to the
//     key so one module's packets can never match another's rules.
//   - Cuckoo: the §4.3 exact-match alternative to the CAM. The CAM is
//     shallow (16 entries per stage) and supports ternary masks with
//     lowest-address priority; the cuckoo table is deep (it grows to
//     millions of entries) but exact-match only. A stage pairs them:
//     ternary and compiled rules live in the CAM, high-cardinality flow
//     entries live in the cuckoo side, and flow entries take precedence
//     on lookup. The CAM matches the module ID along with the key; the
//     cuckoo side (FlowTables) holds one table per module instead.
//   - SegmentTable: per-module base/range translation for stateful memory.
//   - StatefulMemory: the per-stage persistent state RAM.
//
// Geometry defaults follow Table 5 of the paper: overlay depth 32 (the
// maximum number of modules), CAM depth 16 per stage, 193-bit keys plus a
// 12-bit module ID for a 205-bit CAM width.
package tables

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Geometry constants from Table 5.
const (
	// OverlayDepth is the number of per-module entries in each isolation
	// primitive, bounding the number of simultaneously loaded modules.
	OverlayDepth = 32
	// CAMDepth is the number of match entries per stage in the prototype.
	CAMDepth = 16
	// KeyBytes is the byte length of a padded lookup key: 24 bytes of
	// container data plus one predicate bit, stored as 25 bytes (193 bits).
	KeyBytes = 25
	// KeyBits is the number of meaningful key bits (24*8 + 1).
	KeyBits = 193
	// ModuleIDBits is the width of the module identifier (VLAN ID).
	ModuleIDBits = 12
	// MaxModuleID is the largest representable module ID.
	MaxModuleID = 1<<ModuleIDBits - 1
	// CAMWidthBits is the full match width: key plus module ID.
	CAMWidthBits = KeyBits + ModuleIDBits // 205
	// MemoryWords is the number of stateful-memory words per stage. The
	// segment table's 8-bit base and range fields address at most 256.
	MemoryWords = 256
)

// Errors shared by the table types.
var (
	ErrIndexRange = errors.New("tables: index out of range")
	ErrNoEntry    = errors.New("tables: no entry")
	ErrSegFault   = errors.New("tables: address outside module segment")
	ErrCAMFull    = errors.New("tables: CAM has no free entry in module partition")
)

// Key is a fixed-width padded lookup key (24 bytes of extracted container
// data plus the predicate bit in the final byte's low bit).
type Key [KeyBytes]byte

// WithPredicate returns a copy of k with the 193rd bit set to p.
func (k Key) WithPredicate(p bool) Key {
	if p {
		k[KeyBytes-1] |= 0x01
	} else {
		k[KeyBytes-1] &^= 0x01
	}
	return k
}

// Predicate reports the 193rd key bit.
func (k Key) Predicate() bool { return k[KeyBytes-1]&0x01 != 0 }

// Masked returns k with every bit outside mask cleared. The 25-byte key
// is combined as three 8-byte words plus a tail byte so the per-packet
// path stays branch-light.
func (k Key) Masked(mask Key) Key {
	var out Key
	binary.LittleEndian.PutUint64(out[0:], binary.LittleEndian.Uint64(k[0:])&binary.LittleEndian.Uint64(mask[0:]))
	binary.LittleEndian.PutUint64(out[8:], binary.LittleEndian.Uint64(k[8:])&binary.LittleEndian.Uint64(mask[8:]))
	binary.LittleEndian.PutUint64(out[16:], binary.LittleEndian.Uint64(k[16:])&binary.LittleEndian.Uint64(mask[16:]))
	out[24] = k[24] & mask[24]
	return out
}

// KeyWords is a Key packed as four machine words for the word-wise hot
// path: words 0-2 are little-endian loads of bytes 0-23 and word 3 holds
// the tail byte (predicate bit included). Packing the 205-bit compare
// into register-width operations is the software stand-in for the CAM's
// single-cycle parallel compare, without moving the 25-byte key around.
type KeyWords [4]uint64

// Words packs the key into its word form. Taking the receiver by
// pointer keeps the per-packet path free of 25-byte copies.
func (k *Key) Words() KeyWords {
	return KeyWords{
		binary.LittleEndian.Uint64(k[0:]),
		binary.LittleEndian.Uint64(k[8:]),
		binary.LittleEndian.Uint64(k[16:]),
		uint64(k[24]),
	}
}

// MatchWords precompiles the entry into the (mask, want) word pair of
// the fused compare: a key k matches the entry under the module key
// mask moduleMask exactly when k.Words()[i] & mask[i] == want[i] for
// every word. This folds the per-packet key masking (Key.Masked) and
// the per-entry ternary compare (Matches) into one AND+compare per
// word:
//
//	(k & mMask ^ e.Key) & e.Mask == 0
//	⇔ (k & (mMask & e.Mask)) == (e.Key & e.Mask)   when tested word-wise
//
// (entry key bits outside mMask make want ⊄ mask, which correctly can
// never match — identical to the unfused compare). Pass hasMask=false
// when the module installs no key mask. The module ID does not
// participate: callers pre-filter entries by module.
func (e *CAMEntry) MatchWords(moduleMask *Key, hasMask bool) (mask, want KeyWords) {
	kw := e.Key.Words()
	mw := e.Mask.Words()
	for i := range want {
		want[i] = kw[i] & mw[i]
		mask[i] = mw[i]
	}
	if hasMask {
		mm := moduleMask.Words()
		for i := range mask {
			mask[i] &= mm[i]
		}
	}
	return mask, want
}

// FullMask is the all-ones key mask.
func FullMask() Key {
	var m Key
	for i := range m {
		m[i] = 0xff
	}
	return m
}

// Overlay is a per-module configuration array: Menshen's core isolation
// primitive for shared resources. Depth bounds the number of modules; an
// entry must be explicitly valid to be used. The slots are plain memory
// written in place: a write stores the one entry and a clear zeroes it,
// so rewriting one module's entry costs that entry alone, allocates
// nothing and never touches its neighbours'. The table does no locking
// of its own: the pipeline that holds it reads and writes it only under
// its batch lock, so a write lands between batches, never under a
// reader — the software analogue of the daisy chain updating an SRAM
// row while Menshen's packet filter holds the module's packets back.
type Overlay[T any] struct {
	slots []T
	valid []bool
}

// NewOverlay returns an overlay table with the given depth (use
// OverlayDepth for the paper's geometry).
func NewOverlay[T any](depth int) *Overlay[T] {
	return &Overlay[T]{slots: make([]T, depth), valid: make([]bool, depth)}
}

// Depth returns the number of entry slots.
func (o *Overlay[T]) Depth() int { return len(o.slots) }

// Lookup returns the configuration for the given module index.
func (o *Overlay[T]) Lookup(idx int) (T, bool) {
	if p, ok := o.Ref(idx); ok {
		return *p, true
	}
	var zero T
	return zero, false
}

// Ref returns a pointer to the entry's slot, so batched fast paths skip
// copying wide entries per packet. The slot is rewritten in place by the
// next Set or Clear at idx: callers must treat it as read-only and hold
// the lock that orders them against writers.
func (o *Overlay[T]) Ref(idx int) (*T, bool) {
	if idx < 0 || idx >= len(o.slots) || !o.valid[idx] {
		return nil, false
	}
	return &o.slots[idx], true
}

// Set installs a configuration at the given module index.
func (o *Overlay[T]) Set(idx int, v T) error { return o.store(idx, v, true) }

// Clear invalidates the entry at idx.
func (o *Overlay[T]) Clear(idx int) error {
	var zero T
	return o.store(idx, zero, false)
}

func (o *Overlay[T]) store(idx int, v T, valid bool) error {
	if idx < 0 || idx >= len(o.slots) {
		return fmt.Errorf("%w: entry %d (depth %d)", ErrIndexRange, idx, len(o.slots))
	}
	o.slots[idx], o.valid[idx] = v, valid
	return nil
}

// ValidCount returns the number of installed entries.
func (o *Overlay[T]) ValidCount() int {
	n := 0
	for _, ok := range o.valid {
		if ok {
			n++
		}
	}
	return n
}

// CAMEntry is one match entry: a key, the owning module's ID (appended to
// the key per §3.1 so lookups are isolated between modules), and an
// optional ternary mask (Appendix B). A nil-mask entry matches exactly.
type CAMEntry struct {
	Valid bool
	ModID uint16
	Key   Key
	// Mask selects which key bits participate in the match. FullMask()
	// gives exact-match behaviour. The module ID is always matched exactly.
	Mask Key
}

// Matches reports whether the entry matches the (key, modID) pair. The
// 205-bit compare runs as three 8-byte words plus a tail byte, the
// software equivalent of the CAM's single-cycle parallel compare.
func (e *CAMEntry) Matches(key Key, modID uint16) bool {
	if !e.Valid || e.ModID != modID&MaxModuleID {
		return false
	}
	if (binary.LittleEndian.Uint64(key[0:])^binary.LittleEndian.Uint64(e.Key[0:]))&binary.LittleEndian.Uint64(e.Mask[0:]) != 0 {
		return false
	}
	if (binary.LittleEndian.Uint64(key[8:])^binary.LittleEndian.Uint64(e.Key[8:]))&binary.LittleEndian.Uint64(e.Mask[8:]) != 0 {
		return false
	}
	if (binary.LittleEndian.Uint64(key[16:])^binary.LittleEndian.Uint64(e.Key[16:]))&binary.LittleEndian.Uint64(e.Mask[16:]) != 0 {
		return false
	}
	return (key[24]^e.Key[24])&e.Mask[24] == 0
}

// CAM models the Xilinx CAM block used for the per-stage match table. The
// lookup result is the entry address, which indexes the VLIW action table.
// For ternary matches the lowest address wins (the priority convention of
// the Xilinx IP, Appendix B). Addresses are allocated to modules in
// contiguous chunks so one module's rule updates never disturb another's.
// Like Overlay, the entry array is plain memory written in place — a
// write stores one entry, an unload zeroes the module's own — and the
// CAM does no locking of its own: the pipeline that holds it reads and
// writes it only under its batch lock, so Lookup's scan never meets a
// write.
type CAM struct {
	entries []CAMEntry
	// partition[mod] is the half-open address range owned by module mod.
	partition map[uint16][2]int
}

// NewCAM returns a CAM with the given depth (use CAMDepth for the paper's
// per-stage geometry).
func NewCAM(depth int) *CAM {
	return &CAM{entries: make([]CAMEntry, depth), partition: make(map[uint16][2]int)}
}

// Depth returns the number of entry addresses.
func (c *CAM) Depth() int { return len(c.entries) }

// Partition assigns the half-open address range [lo, hi) to module modID.
// Ranges of distinct modules must not overlap; Partition enforces this so
// that space partitioning of match entries is airtight.
func (c *CAM) Partition(modID uint16, lo, hi int) error {
	if lo < 0 || hi > c.Depth() || lo > hi {
		return fmt.Errorf("%w: CAM partition [%d,%d) depth %d", ErrIndexRange, lo, hi, c.Depth())
	}
	for other, r := range c.partition {
		if other == modID {
			continue
		}
		if lo < r[1] && r[0] < hi {
			return fmt.Errorf("tables: CAM partition [%d,%d) for module %d overlaps module %d's [%d,%d)",
				lo, hi, modID, other, r[0], r[1])
		}
	}
	c.partition[modID] = [2]int{lo, hi}
	return nil
}

// PartitionOf returns the address range owned by modID.
func (c *CAM) PartitionOf(modID uint16) (lo, hi int, ok bool) {
	r, ok := c.partition[modID]
	return r[0], r[1], ok
}

// Write installs an entry at an absolute address. The address must lie in
// the owning module's partition when one is configured. The entry's
// module ID is stored masked to its 12-bit wire width so stored and
// looked-up IDs always compare in the same domain.
func (c *CAM) Write(addr int, e CAMEntry) error {
	e.ModID &= MaxModuleID
	if addr < 0 || addr >= len(c.entries) {
		return fmt.Errorf("%w: CAM address %d (depth %d)", ErrIndexRange, addr, len(c.entries))
	}
	if r, ok := c.partition[e.ModID]; ok && e.Valid && (addr < r[0] || addr >= r[1]) {
		return fmt.Errorf("%w: CAM address %d outside module %d partition [%d,%d)",
			ErrIndexRange, addr, e.ModID, r[0], r[1])
	}
	c.entries[addr] = e
	return nil
}

// FreeAddr returns the first free address within the module's partition
// (or anywhere, if no partition is configured), or -1 when there is none.
func (c *CAM) FreeAddr(modID uint16) int {
	lo, hi := 0, len(c.entries)
	if r, ok := c.partition[modID]; ok {
		lo, hi = r[0], r[1]
	}
	for addr := lo; addr < hi; addr++ {
		if !c.entries[addr].Valid {
			return addr
		}
	}
	return -1
}

// Insert places the entry at FreeAddr and returns the address. The
// entry's module ID is stored masked to its 12-bit wire width, like
// Write.
func (c *CAM) Insert(e CAMEntry) (int, error) {
	e.ModID &= MaxModuleID
	addr := c.FreeAddr(e.ModID)
	if addr < 0 {
		return 0, fmt.Errorf("%w: module %d", ErrCAMFull, e.ModID)
	}
	e.Valid = true
	c.entries[addr] = e
	return addr, nil
}

// Entries returns the entry array for batched lookups. It is the CAM's
// own memory, rewritten in place by later writes: callers must not
// modify it and must hold the lock that orders them against writers.
func (c *CAM) Entries() []CAMEntry { return c.entries }

// Lookup matches (key, modID) against the CAM and returns the lowest
// matching address.
func (c *CAM) Lookup(key Key, modID uint16) (int, bool) {
	for addr := range c.entries {
		if c.entries[addr].Matches(key, modID) {
			return addr, true
		}
	}
	return 0, false
}

// ClearModule invalidates every entry owned by modID and releases its
// partition, so the address range can be reserved by another module.
// Entries of other modules are untouched — the no-disruption property
// for match tables — and the module's own are zeroed in place.
func (c *CAM) ClearModule(modID uint16) int {
	modID &= MaxModuleID
	delete(c.partition, modID)
	n := 0
	for i := range c.entries {
		if e := &c.entries[i]; e.Valid && e.ModID == modID {
			*e = CAMEntry{}
			n++
		}
	}
	return n
}

// Entry returns a copy of the entry at addr.
func (c *CAM) Entry(addr int) (CAMEntry, error) {
	if addr < 0 || addr >= len(c.entries) {
		return CAMEntry{}, fmt.Errorf("%w: CAM address %d", ErrIndexRange, addr)
	}
	return c.entries[addr], nil
}

// ValidCount returns the number of installed entries, optionally filtered
// by module (pass modID < 0 for all modules). A non-negative modID is
// masked to its 12-bit wire width, matching Write's storage domain.
func (c *CAM) ValidCount(modID int) int {
	if modID >= 0 {
		modID &= MaxModuleID
	}
	n := 0
	for i := range c.entries {
		e := &c.entries[i]
		if e.Valid && (modID < 0 || int(e.ModID) == modID) {
			n++
		}
	}
	return n
}

// Segment is one segment-table entry: the base address and word count of a
// module's slice of stateful memory. Both fields are one byte on the wire
// (§4.1: "each entry in the segment table is a 2-byte number").
type Segment struct {
	Base  uint8
	Range uint8
}

// SegmentTable translates module-local stateful-memory addresses to
// physical addresses, giving each module its own address space (§3.1).
// Menshen implements this in hardware, unlike NetVRM's P4-level page
// table, so stage 1's stateful memory remains usable for packet processing.
// It is an overlay of segments, one per module index.
type SegmentTable struct {
	*Overlay[Segment]
}

// NewSegmentTable returns a segment table with the given depth.
func NewSegmentTable(depth int) *SegmentTable {
	return &SegmentTable{NewOverlay[Segment](depth)}
}

// Translate converts a module-local address to a physical address,
// faulting if the module has no segment or the address exceeds its range.
// A faulting access must not touch another module's state; callers treat
// the error as a per-packet no-op or drop. The errors are bare sentinels,
// so a module whose every frame faults costs its worker no allocation.
//
//menshen:hotpath
func (s *SegmentTable) Translate(idx int, addr uint64) (uint64, error) {
	seg, ok := s.Lookup(idx)
	if !ok {
		return 0, ErrNoEntry
	}
	if addr >= uint64(seg.Range) {
		return 0, ErrSegFault
	}
	return uint64(seg.Base) + addr, nil
}

// StatefulMemory is a stage's persistent state RAM. All access is by
// physical address; isolation comes from the SegmentTable in front of it.
// Its words are plain memory, owned like the stage's other tables by the
// pipeline that holds the stage: the packet path and the control plane's
// counter reads both reach them under that pipeline's batch lock.
type StatefulMemory struct {
	words []uint64
}

// NewStatefulMemory returns a memory with n words (use MemoryWords for the
// paper's per-stage geometry).
func NewStatefulMemory(n int) *StatefulMemory {
	return &StatefulMemory{words: make([]uint64, n)}
}

// Size returns the number of words.
func (m *StatefulMemory) Size() int { return len(m.words) }

// Load reads the word at phys.
func (m *StatefulMemory) Load(phys uint64) (uint64, error) {
	if phys >= uint64(len(m.words)) {
		return 0, fmt.Errorf("%w: physical address %d (size %d)", ErrIndexRange, phys, len(m.words))
	}
	return m.words[phys], nil
}

// Store writes the word at phys.
func (m *StatefulMemory) Store(phys uint64, v uint64) error {
	if phys >= uint64(len(m.words)) {
		return fmt.Errorf("%w: physical address %d (size %d)", ErrIndexRange, phys, len(m.words))
	}
	m.words[phys] = v
	return nil
}

// LoadAddStore implements the loadd ALU operation: load, add one, store
// back, and return the new value — the read-modify-write used for counters.
func (m *StatefulMemory) LoadAddStore(phys uint64) (uint64, error) {
	if phys >= uint64(len(m.words)) {
		return 0, fmt.Errorf("%w: physical address %d (size %d)", ErrIndexRange, phys, len(m.words))
	}
	m.words[phys]++
	return m.words[phys], nil
}

// ZeroRange clears words [base, base+n), used when a module is unloaded so
// its successor cannot observe stale state.
func (m *StatefulMemory) ZeroRange(base, n uint64) error {
	if base+n > uint64(len(m.words)) {
		return fmt.Errorf("%w: zero range [%d,%d) size %d", ErrIndexRange, base, base+n, len(m.words))
	}
	clear(m.words[base : base+n])
	return nil
}

// Snapshot returns a copy of all words (for tests and stats).
func (m *StatefulMemory) Snapshot() []uint64 { return slices.Clone(m.words) }
