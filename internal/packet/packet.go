// Package packet provides encoding and decoding for the packet formats the
// Menshen pipeline handles: Ethernet with an 802.1Q VLAN tag (which carries
// the 12-bit module ID), IPv4, UDP, and TCP.
//
// Decoding follows the gopacket "DecodingLayer" idiom: layers decode into
// preallocated values with no per-packet allocation, and the decoded
// structures borrow from (do not copy) the input buffer where possible.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Well-known sizes and constants.
const (
	EthernetHeaderLen = 14
	VLANTagLen        = 4
	IPv4HeaderLen     = 20 // without options
	UDPHeaderLen      = 8
	TCPHeaderLen      = 20 // without options

	// EtherTypeVLAN is the 802.1Q TPID.
	EtherTypeVLAN = 0x8100
	// EtherTypeIPv4 is the IPv4 ethertype.
	EtherTypeIPv4 = 0x0800

	// ProtoUDP and ProtoTCP are IPv4 protocol numbers.
	ProtoUDP = 17
	ProtoTCP = 6

	// HeaderWindow is the number of bytes from the head of the packet the
	// Menshen parser and deparser may touch (§4.1).
	HeaderWindow = 128

	// MinSize is the classic Ethernet minimum frame size the paper assumes
	// for its line-rate guarantee (§5).
	MinSize = 64
	// MaxSize is the MTU-sized frame used in the evaluation.
	MaxSize = 1500

	// StandardHeaderLen is Ethernet+VLAN+IPv4+UDP: the headers common to
	// all modules (§4.1). Module-specific headers follow at this offset.
	StandardHeaderLen = EthernetHeaderLen + VLANTagLen + IPv4HeaderLen + UDPHeaderLen // 46
)

// Decode errors.
var (
	ErrTooShort = errors.New("packet: buffer too short")
	ErrNoVLAN   = errors.New("packet: frame has no 802.1Q VLAN tag")
	ErrNotIPv4  = errors.New("packet: not an IPv4 packet")
	ErrProto    = errors.New("packet: unexpected transport protocol")
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String implements fmt.Stringer.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IPv4Addr is a 32-bit IPv4 address in network byte order.
type IPv4Addr [4]byte

// String implements fmt.Stringer.
func (a IPv4Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// Uint32 returns the address as a big-endian integer.
func (a IPv4Addr) Uint32() uint32 { return binary.BigEndian.Uint32(a[:]) }

// AddrFromUint32 builds an IPv4Addr from a big-endian integer.
func AddrFromUint32(v uint32) IPv4Addr {
	var a IPv4Addr
	binary.BigEndian.PutUint32(a[:], v)
	return a
}

// Ethernet is a decoded Ethernet header (always VLAN-tagged in Menshen's
// data path; untagged frames are rejected by the packet filter).
type Ethernet struct {
	Dst       MAC
	Src       MAC
	TPID      uint16 // 0x8100 when VLAN-tagged
	PCP       uint8  // 3-bit priority code point
	VLANID    uint16 // 12-bit VLAN ID = Menshen module ID
	EtherType uint16 // inner ethertype
}

// VLAN tag field offsets within a tagged frame.
const (
	offTPID      = 12
	offTCI       = 14
	offEtherType = 16
)

// Exported offsets of the standard Ethernet+802.1Q+IPv4+UDP header
// stack within a tagged frame, for per-frame fast paths (packet filter,
// engine steering, traffic generation) that read fields directly
// instead of paying for a full Decode. They are the single source of
// truth for the frame layout.
const (
	OffTPID      = offTPID
	OffTCI       = offTCI
	OffEtherType = offEtherType
	OffIPv4      = EthernetHeaderLen + VLANTagLen
	OffIPProto   = OffIPv4 + 9
	OffIPSrc     = OffIPv4 + 12
	OffIPDst     = OffIPv4 + 16
	OffUDP       = OffIPv4 + IPv4HeaderLen
	OffUDPDst    = OffUDP + 2
)

// DecodeEthernet parses the Ethernet+VLAN headers from data. It does not
// allocate. Untagged frames return ErrNoVLAN with the outer ethertype
// still reported in e.EtherType.
func DecodeEthernet(data []byte, e *Ethernet) error {
	if len(data) < EthernetHeaderLen {
		return fmt.Errorf("%w: ethernet needs %d bytes, have %d", ErrTooShort, EthernetHeaderLen, len(data))
	}
	copy(e.Dst[:], data[0:6])
	copy(e.Src[:], data[6:12])
	outer := binary.BigEndian.Uint16(data[offTPID:])
	if outer != EtherTypeVLAN {
		e.TPID = 0
		e.VLANID = 0
		e.EtherType = outer
		return ErrNoVLAN
	}
	if len(data) < EthernetHeaderLen+VLANTagLen {
		return fmt.Errorf("%w: vlan tag needs %d bytes, have %d", ErrTooShort, EthernetHeaderLen+VLANTagLen, len(data))
	}
	e.TPID = outer
	tci := binary.BigEndian.Uint16(data[offTCI:])
	e.PCP = uint8(tci >> 13)
	e.VLANID = tci & 0x0fff
	e.EtherType = binary.BigEndian.Uint16(data[offEtherType:])
	return nil
}

// Serialize writes the Ethernet+VLAN headers into b, which must have room
// for EthernetHeaderLen+VLANTagLen bytes. It returns the number of bytes
// written.
func (e *Ethernet) Serialize(b []byte) (int, error) {
	need := EthernetHeaderLen + VLANTagLen
	if len(b) < need {
		return 0, fmt.Errorf("%w: serialize ethernet needs %d bytes, have %d", ErrTooShort, need, len(b))
	}
	copy(b[0:6], e.Dst[:])
	copy(b[6:12], e.Src[:])
	binary.BigEndian.PutUint16(b[offTPID:], EtherTypeVLAN)
	tci := uint16(e.PCP)<<13 | e.VLANID&0x0fff
	binary.BigEndian.PutUint16(b[offTCI:], tci)
	binary.BigEndian.PutUint16(b[offEtherType:], e.EtherType)
	return need, nil
}

// IPv4 is a decoded IPv4 header (options are not modeled; IHL is fixed at 5,
// matching the fixed-offset parsing the Menshen prototype performs).
type IPv4 struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	Flags    uint8 // 3 bits
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16
	Src      IPv4Addr
	Dst      IPv4Addr
}

// DecodeIPv4 parses an IPv4 header from data (which must begin at the IP
// header). It does not verify the checksum; use (*IPv4).VerifyChecksum.
func DecodeIPv4(data []byte, ip *IPv4) error {
	if len(data) < IPv4HeaderLen {
		return fmt.Errorf("%w: ipv4 needs %d bytes, have %d", ErrTooShort, IPv4HeaderLen, len(data))
	}
	if data[0]>>4 != 4 {
		return fmt.Errorf("%w: version %d", ErrNotIPv4, data[0]>>4)
	}
	ip.TOS = data[1]
	ip.TotalLen = binary.BigEndian.Uint16(data[2:])
	ip.ID = binary.BigEndian.Uint16(data[4:])
	ff := binary.BigEndian.Uint16(data[6:])
	ip.Flags = uint8(ff >> 13)
	ip.FragOff = ff & 0x1fff
	ip.TTL = data[8]
	ip.Protocol = data[9]
	ip.Checksum = binary.BigEndian.Uint16(data[10:])
	copy(ip.Src[:], data[12:16])
	copy(ip.Dst[:], data[16:20])
	return nil
}

// Serialize writes the IPv4 header into b and fills in the checksum.
func (ip *IPv4) Serialize(b []byte) (int, error) {
	if len(b) < IPv4HeaderLen {
		return 0, fmt.Errorf("%w: serialize ipv4 needs %d bytes, have %d", ErrTooShort, IPv4HeaderLen, len(b))
	}
	b[0] = 4<<4 | 5 // version 4, IHL 5
	b[1] = ip.TOS
	binary.BigEndian.PutUint16(b[2:], ip.TotalLen)
	binary.BigEndian.PutUint16(b[4:], ip.ID)
	binary.BigEndian.PutUint16(b[6:], uint16(ip.Flags)<<13|ip.FragOff&0x1fff)
	b[8] = ip.TTL
	b[9] = ip.Protocol
	b[10], b[11] = 0, 0
	copy(b[12:16], ip.Src[:])
	copy(b[16:20], ip.Dst[:])
	sum := Checksum(b[:IPv4HeaderLen])
	binary.BigEndian.PutUint16(b[10:], sum)
	ip.Checksum = sum
	return IPv4HeaderLen, nil
}

// VerifyChecksum recomputes the header checksum over raw (the 20 header
// bytes) and reports whether it is consistent.
func (ip *IPv4) VerifyChecksum(raw []byte) bool {
	if len(raw) < IPv4HeaderLen {
		return false
	}
	return Checksum(raw[:IPv4HeaderLen]) == 0 || foldedSumIsZero(raw[:IPv4HeaderLen])
}

func foldedSumIsZero(b []byte) bool {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return uint16(sum) == 0xffff
}

// Checksum computes the RFC 1071 internet checksum of b (with the checksum
// field included as-is; zero it before computing a fresh checksum).
func Checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// UDP is a decoded UDP header.
type UDP struct {
	SrcPort  uint16
	DstPort  uint16
	Length   uint16
	Checksum uint16
}

// DecodeUDP parses a UDP header from data.
func DecodeUDP(data []byte, u *UDP) error {
	if len(data) < UDPHeaderLen {
		return fmt.Errorf("%w: udp needs %d bytes, have %d", ErrTooShort, UDPHeaderLen, len(data))
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:])
	u.DstPort = binary.BigEndian.Uint16(data[2:])
	u.Length = binary.BigEndian.Uint16(data[4:])
	u.Checksum = binary.BigEndian.Uint16(data[6:])
	return nil
}

// Serialize writes the UDP header into b. The checksum is left as stored
// (Menshen's prototype does not recompute transport checksums; a checksum
// of zero is legal for UDP over IPv4).
func (u *UDP) Serialize(b []byte) (int, error) {
	if len(b) < UDPHeaderLen {
		return 0, fmt.Errorf("%w: serialize udp needs %d bytes, have %d", ErrTooShort, UDPHeaderLen, len(b))
	}
	binary.BigEndian.PutUint16(b[0:], u.SrcPort)
	binary.BigEndian.PutUint16(b[2:], u.DstPort)
	binary.BigEndian.PutUint16(b[4:], u.Length)
	binary.BigEndian.PutUint16(b[6:], u.Checksum)
	return UDPHeaderLen, nil
}

// TCP is a decoded TCP header (no options).
type TCP struct {
	SrcPort  uint16
	DstPort  uint16
	Seq      uint32
	Ack      uint32
	DataOff  uint8 // in 32-bit words
	Flags    uint8
	Window   uint16
	Checksum uint16
	Urgent   uint16
}

// TCP flag bits.
const (
	TCPFin = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
	TCPUrg
)

// DecodeTCP parses a TCP header from data.
func DecodeTCP(data []byte, t *TCP) error {
	if len(data) < TCPHeaderLen {
		return fmt.Errorf("%w: tcp needs %d bytes, have %d", ErrTooShort, TCPHeaderLen, len(data))
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:])
	t.DstPort = binary.BigEndian.Uint16(data[2:])
	t.Seq = binary.BigEndian.Uint32(data[4:])
	t.Ack = binary.BigEndian.Uint32(data[8:])
	t.DataOff = data[12] >> 4
	t.Flags = data[13]
	t.Window = binary.BigEndian.Uint16(data[14:])
	t.Checksum = binary.BigEndian.Uint16(data[16:])
	t.Urgent = binary.BigEndian.Uint16(data[18:])
	return nil
}

// Serialize writes the TCP header into b.
func (t *TCP) Serialize(b []byte) (int, error) {
	if len(b) < TCPHeaderLen {
		return 0, fmt.Errorf("%w: serialize tcp needs %d bytes, have %d", ErrTooShort, TCPHeaderLen, len(b))
	}
	binary.BigEndian.PutUint16(b[0:], t.SrcPort)
	binary.BigEndian.PutUint16(b[2:], t.DstPort)
	binary.BigEndian.PutUint32(b[4:], t.Seq)
	binary.BigEndian.PutUint32(b[8:], t.Ack)
	b[12] = 5 << 4
	b[13] = t.Flags
	binary.BigEndian.PutUint16(b[14:], t.Window)
	binary.BigEndian.PutUint16(b[16:], t.Checksum)
	binary.BigEndian.PutUint16(b[18:], t.Urgent)
	return TCPHeaderLen, nil
}

// Packet is a fully decoded VLAN-tagged UDP or TCP packet, the common case
// in the Menshen data path. The Raw field aliases the original buffer
// (NoCopy idiom); Payload aliases the transport payload within Raw.
type Packet struct {
	Eth     Ethernet
	IP      IPv4
	UDP     UDP
	TCP     TCP
	IsTCP   bool
	Raw     []byte
	Payload []byte
}

// Decode parses data as Ethernet+VLAN+IPv4+{UDP|TCP} into p without
// allocating. The input buffer is aliased, not copied.
func Decode(data []byte, p *Packet) error {
	p.Raw = data
	p.Payload = nil
	if err := DecodeEthernet(data, &p.Eth); err != nil {
		return err
	}
	if p.Eth.EtherType != EtherTypeIPv4 {
		return fmt.Errorf("%w: ethertype %#04x", ErrNotIPv4, p.Eth.EtherType)
	}
	ipOff := EthernetHeaderLen + VLANTagLen
	if err := DecodeIPv4(data[ipOff:], &p.IP); err != nil {
		return err
	}
	l4Off := ipOff + IPv4HeaderLen
	switch p.IP.Protocol {
	case ProtoUDP:
		p.IsTCP = false
		if err := DecodeUDP(data[l4Off:], &p.UDP); err != nil {
			return err
		}
		p.Payload = data[l4Off+UDPHeaderLen:]
	case ProtoTCP:
		p.IsTCP = true
		if err := DecodeTCP(data[l4Off:], &p.TCP); err != nil {
			return err
		}
		p.Payload = data[l4Off+TCPHeaderLen:]
	default:
		return fmt.Errorf("%w: protocol %d", ErrProto, p.IP.Protocol)
	}
	return nil
}

// ModuleID returns the module identifier carried in the VLAN ID.
func (p *Packet) ModuleID() uint16 { return p.Eth.VLANID }

// Builder constructs packets for the Menshen data path. It is primarily
// used by tests, the traffic generators, and the examples.
type Builder struct {
	Eth     Ethernet
	IP      IPv4
	UDP     UDP
	TCP     TCP
	IsTCP   bool
	Payload []byte
	// Size pads (or reports an error if it would truncate) the final frame
	// to this many bytes when nonzero.
	Size int
}

// NewUDP returns a Builder for a VLAN-tagged IPv4/UDP frame addressed with
// the given module ID.
func NewUDP(moduleID uint16, src, dst IPv4Addr, srcPort, dstPort uint16, payload []byte) *Builder {
	return &Builder{
		Eth: Ethernet{
			Dst:       MAC{0x02, 0, 0, 0, 0, 2},
			Src:       MAC{0x02, 0, 0, 0, 0, 1},
			VLANID:    moduleID & 0x0fff,
			EtherType: EtherTypeIPv4,
		},
		IP: IPv4{
			TTL:      64,
			Protocol: ProtoUDP,
			Src:      src,
			Dst:      dst,
		},
		UDP:     UDP{SrcPort: srcPort, DstPort: dstPort},
		Payload: payload,
	}
}

// NewTCP returns a Builder for a VLAN-tagged IPv4/TCP frame.
func NewTCP(moduleID uint16, src, dst IPv4Addr, srcPort, dstPort uint16, payload []byte) *Builder {
	b := NewUDP(moduleID, src, dst, srcPort, dstPort, payload)
	b.IsTCP = true
	b.IP.Protocol = ProtoTCP
	b.TCP = TCP{SrcPort: srcPort, DstPort: dstPort, DataOff: 5, Flags: TCPAck, Window: 65535}
	return b
}

// Build serializes the frame into a new buffer (of Size bytes, if set).
func (b *Builder) Build() ([]byte, error) {
	n := b.headerLen() + len(b.Payload)
	if b.Size != 0 && b.Size < n {
		return nil, fmt.Errorf("packet: frame needs %d bytes but Size is %d", n, b.Size)
	}
	buf := make([]byte, max(n, b.Size))
	if err := b.BuildInto(buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// headerLen is the frame's Ethernet+VLAN+IPv4+L4 header length.
func (b *Builder) headerLen() int {
	if b.IsTCP {
		return StandardHeaderLen - UDPHeaderLen + TCPHeaderLen
	}
	return StandardHeaderLen
}

// BuildInto serializes the frame into buf, which is the whole frame:
// the IPv4 and UDP lengths come from len(buf), Payload is copied after
// the headers, and bytes past it are left as they are. A caller that
// has written its payload in place leaves Payload nil, so the frame is
// its one buffer. Size is ignored.
func (b *Builder) BuildInto(buf []byte) error {
	hdr := b.headerLen()
	if len(buf) < hdr+len(b.Payload) {
		return fmt.Errorf("packet: frame needs %d bytes but the buffer has %d", hdr+len(b.Payload), len(buf))
	}
	off, err := b.Eth.Serialize(buf)
	if err != nil {
		return err
	}
	b.IP.TotalLen = uint16(len(buf) - off)
	if _, err := b.IP.Serialize(buf[off:]); err != nil {
		return err
	}
	l4 := buf[off+IPv4HeaderLen:]
	if b.IsTCP {
		_, err = b.TCP.Serialize(l4)
	} else {
		b.UDP.Length = uint16(len(l4))
		_, err = b.UDP.Serialize(l4)
	}
	copy(buf[hdr:], b.Payload)
	return err
}

// MustBuild is Build but panics on error; for tests and fixed fixtures.
func (b *Builder) MustBuild() []byte {
	buf, err := b.Build()
	if err != nil {
		panic(err)
	}
	return buf
}
