// Package phv implements Menshen's packet header vector (PHV): the fixed
// set of containers that carries parsed packet fields and per-packet
// metadata through the match-action pipeline.
//
// The layout follows the paper (§4.1, Table 5): 8 containers each of 2, 4,
// and 6 bytes, plus a 32-byte platform-metadata container, for a total of
// 3*8+1 = 25 containers and 128 bytes. The PHV is zeroed for every incoming
// packet so that no container contents can leak from one module to another.
package phv

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Container geometry, from Table 5 of the paper.
const (
	NumPerType    = 8  // containers per size class
	Size2B        = 2  // bytes in a 2-byte container
	Size4B        = 4  // bytes in a 4-byte container
	Size6B        = 6  // bytes in a 6-byte container
	MetaSize      = 32 // bytes of platform-specific metadata
	NumContainers = 3*NumPerType + 1
	TotalBytes    = NumPerType*(Size2B+Size4B+Size6B) + MetaSize // 128
)

// ContainerType selects one of the PHV size classes.
type ContainerType uint8

// Container size classes. The two-bit on-wire encoding in parser actions
// uses these values directly.
const (
	Type2B ContainerType = iota
	Type4B
	Type6B
	TypeMeta // the single metadata container; index must be 0
)

// Width returns the container width in bytes for the type.
func (t ContainerType) Width() int {
	switch t {
	case Type2B:
		return Size2B
	case Type4B:
		return Size4B
	case Type6B:
		return Size6B
	case TypeMeta:
		return MetaSize
	}
	return 0
}

// String implements fmt.Stringer.
func (t ContainerType) String() string {
	switch t {
	case Type2B:
		return "2B"
	case Type4B:
		return "4B"
	case Type6B:
		return "6B"
	case TypeMeta:
		return "meta"
	}
	return fmt.Sprintf("ContainerType(%d)", uint8(t))
}

// Ref names a single container: a size class and an index within it.
type Ref struct {
	Type  ContainerType
	Index uint8
}

// String implements fmt.Stringer.
func (r Ref) String() string { return fmt.Sprintf("%s[%d]", r.Type, r.Index) }

// Valid reports whether the reference addresses an existing container.
func (r Ref) Valid() bool {
	if r.Type == TypeMeta {
		return r.Index == 0
	}
	return r.Type <= Type6B && int(r.Index) < NumPerType
}

// ErrBadRef is returned when a container reference is out of range.
var ErrBadRef = errors.New("phv: invalid container reference")

// Metadata byte offsets within the 32-byte metadata container. The first
// bytes mirror the platform-specific fields the paper inserts on NetFPGA
// (discard flag, source port, destination port, packet length) plus the
// one-hot packet-buffer tag used by the multi-deparser optimization (§3.2).
const (
	MetaOffDiscard   = 0  // 1 byte: nonzero means drop the packet
	MetaOffSrcPort   = 1  // 1 byte: ingress port
	MetaOffDstPort   = 2  // 1 byte: egress port
	MetaOffPktLen    = 4  // 2 bytes: packet length (big endian)
	MetaOffBufferTag = 6  // 1 byte: one-hot packet buffer tag (0-3)
	MetaOffQueueLen  = 8  // 2 bytes: queue length sample from traffic manager
	MetaOffEnqueueTS = 10 // 4 bytes: time of enqueue (cycles)
	MetaOffQDelay    = 14 // 2 bytes: queueing delay after dequeue
	MetaOffLinkUtil  = 16 // 2 bytes: link utilization in 1/1000ths
	MetaOffScratch   = 18 // remaining bytes: temporary headers for computation
)

// PHV is one packet header vector. The zero value is ready to use.
//
// All fields are fixed-size arrays so a PHV can be reused across packets
// with no per-packet allocation (the decode-into-preallocated-value idiom).
type PHV struct {
	C2   [NumPerType][Size2B]byte
	C4   [NumPerType][Size4B]byte
	C6   [NumPerType][Size6B]byte
	Meta [MetaSize]byte

	// ModuleID is the 12-bit module identifier (VLAN ID) that travels with
	// the PHV. In the optimized design (§3.2) the module ID is sent ahead
	// of the PHV to mask SRAM read latency; functionally it is part of the
	// vector.
	ModuleID uint16
}

// Zero clears every container and the module ID. Menshen zeroes the PHV
// for each incoming packet to prevent cross-module information leaks.
func (p *PHV) Zero() {
	*p = PHV{}
}

// Bytes returns the backing bytes of the referenced container. The returned
// slice aliases the PHV; writes through it modify the container.
func (p *PHV) Bytes(r Ref) ([]byte, error) {
	if !r.Valid() {
		return nil, fmt.Errorf("%w: %v", ErrBadRef, r)
	}
	switch r.Type {
	case Type2B:
		return p.C2[r.Index][:], nil
	case Type4B:
		return p.C4[r.Index][:], nil
	case Type6B:
		return p.C6[r.Index][:], nil
	default:
		return p.Meta[:], nil
	}
}

// Get returns the container value as a big-endian unsigned integer.
// Metadata containers are wider than 8 bytes and cannot be read this way;
// use Bytes instead.
func (p *PHV) Get(r Ref) (uint64, error) {
	if r.Type == TypeMeta {
		return 0, fmt.Errorf("%w: metadata container has no integer value", ErrBadRef)
	}
	if !r.Valid() {
		return 0, fmt.Errorf("%w: %v", ErrBadRef, r)
	}
	return p.Word(int(r.Type)*NumPerType + int(r.Index)), nil
}

// Set stores v into the container in big-endian order, truncating to the
// container width (mirroring hardware wrap-around on overflow).
func (p *PHV) Set(r Ref, v uint64) error {
	if r.Type == TypeMeta {
		return fmt.Errorf("%w: metadata container has no integer value", ErrBadRef)
	}
	if !r.Valid() {
		return fmt.Errorf("%w: %v", ErrBadRef, r)
	}
	p.SetWord(int(r.Type)*NumPerType+int(r.Index), v)
	return nil
}

// Word returns the value of the container in ALU slot slot (0-23; the
// metadata slot has none, and callers resolve slots first): one
// big-endian load at the container's width, a 6-byte container as 2+4.
//
//menshen:hotpath
func (p *PHV) Word(slot int) uint64 {
	switch {
	case slot < NumPerType:
		return uint64(binary.BigEndian.Uint16(p.C2[slot][:]))
	case slot < 2*NumPerType:
		return uint64(binary.BigEndian.Uint32(p.C4[slot-NumPerType][:]))
	}
	c := &p.C6[slot-2*NumPerType]
	return uint64(binary.BigEndian.Uint16(c[:]))<<32 | uint64(binary.BigEndian.Uint32(c[2:]))
}

// SetWord stores v into the container in ALU slot slot (0-23) in
// big-endian order, truncating like the hardware's wrap-around.
//
//menshen:hotpath
func (p *PHV) SetWord(slot int, v uint64) {
	switch {
	case slot < NumPerType:
		binary.BigEndian.PutUint16(p.C2[slot][:], uint16(v))
	case slot < 2*NumPerType:
		binary.BigEndian.PutUint32(p.C4[slot-NumPerType][:], uint32(v))
	default:
		c := &p.C6[slot-2*NumPerType]
		binary.BigEndian.PutUint16(c[:], uint16(v>>32))
		binary.BigEndian.PutUint32(c[2:], uint32(v))
	}
}

// MustGet is Get for references known to be valid; it panics otherwise.
// It is intended for configuration that has already been validated.
func (p *PHV) MustGet(r Ref) uint64 {
	v, err := p.Get(r)
	if err != nil {
		panic(err)
	}
	return v
}

// MustSet is Set for references known to be valid; it panics otherwise.
func (p *PHV) MustSet(r Ref, v uint64) {
	if err := p.Set(r, v); err != nil {
		panic(err)
	}
}

// Discard marks the packet for discard in platform metadata.
func (p *PHV) Discard() { p.Meta[MetaOffDiscard] = 1 }

// Discarded reports whether the packet is marked for discard.
func (p *PHV) Discarded() bool { return p.Meta[MetaOffDiscard] != 0 }

// SetEgress records the destination port in platform metadata.
func (p *PHV) SetEgress(port uint8) { p.Meta[MetaOffDstPort] = port }

// Egress returns the destination port from platform metadata.
func (p *PHV) Egress() uint8 { return p.Meta[MetaOffDstPort] }

// SetIngress records the source port in platform metadata.
func (p *PHV) SetIngress(port uint8) { p.Meta[MetaOffSrcPort] = port }

// Ingress returns the source port from platform metadata.
func (p *PHV) Ingress() uint8 { return p.Meta[MetaOffSrcPort] }

// SetPacketLen records the packet length in platform metadata.
func (p *PHV) SetPacketLen(n uint16) {
	p.Meta[MetaOffPktLen] = byte(n >> 8)
	p.Meta[MetaOffPktLen+1] = byte(n)
}

// PacketLen returns the packet length from platform metadata.
func (p *PHV) PacketLen() uint16 {
	return uint16(p.Meta[MetaOffPktLen])<<8 | uint16(p.Meta[MetaOffPktLen+1])
}

// SetBufferTag stores the one-hot packet-buffer tag (§3.2). Buffer numbers
// are 0-3; the stored byte is 1<<n.
func (p *PHV) SetBufferTag(n uint8) { p.Meta[MetaOffBufferTag] = 1 << (n & 3) }

// BufferTag returns the packet-buffer number encoded in the one-hot tag.
func (p *PHV) BufferTag() uint8 {
	t := p.Meta[MetaOffBufferTag]
	for i := uint8(0); i < 4; i++ {
		if t&(1<<i) != 0 {
			return i
		}
	}
	return 0
}

// Clone returns a deep copy of the PHV.
func (p *PHV) Clone() *PHV {
	q := *p
	return &q
}

// Equal reports whether two PHVs have identical container contents and
// module IDs.
func (p *PHV) Equal(q *PHV) bool {
	return *p == *q
}

// AllRefs returns references to every container, in PHV order (2B block,
// 4B block, 6B block, metadata). Useful for exhaustive tests and for the
// VLIW engine, which has one ALU per container.
func AllRefs() []Ref {
	refs := make([]Ref, 0, NumContainers)
	for i := 0; i < NumPerType; i++ {
		refs = append(refs, Ref{Type2B, uint8(i)})
	}
	for i := 0; i < NumPerType; i++ {
		refs = append(refs, Ref{Type4B, uint8(i)})
	}
	for i := 0; i < NumPerType; i++ {
		refs = append(refs, Ref{Type6B, uint8(i)})
	}
	refs = append(refs, Ref{TypeMeta, 0})
	return refs
}

// ALUIndex maps a container reference to its ALU slot (0-24). The VLIW
// action table has one 25-bit action per slot (§4.1). Slot order matches
// AllRefs.
func ALUIndex(r Ref) (int, error) {
	if !r.Valid() {
		return 0, fmt.Errorf("%w: %v", ErrBadRef, r)
	}
	switch r.Type {
	case Type2B:
		return int(r.Index), nil
	case Type4B:
		return NumPerType + int(r.Index), nil
	case Type6B:
		return 2*NumPerType + int(r.Index), nil
	default:
		return 3 * NumPerType, nil
	}
}

// RefForALU is the inverse of ALUIndex.
func RefForALU(slot int) (Ref, error) {
	if slot < 0 || slot >= NumContainers {
		return Ref{}, fmt.Errorf("%w: ALU slot %d", ErrBadRef, slot)
	}
	switch {
	case slot < NumPerType:
		return Ref{Type2B, uint8(slot)}, nil
	case slot < 2*NumPerType:
		return Ref{Type4B, uint8(slot - NumPerType)}, nil
	case slot < 3*NumPerType:
		return Ref{Type6B, uint8(slot - 2*NumPerType)}, nil
	default:
		return Ref{TypeMeta, 0}, nil
	}
}
