// Package reconfig implements Menshen's secure reconfiguration path: the
// reconfiguration packet format of Figure 7, the daisy chain that carries
// configuration commands past each pipeline element, and the packet filter
// with its software-visible registers (reconfiguration packet counter and
// module-under-update bitmap).
//
// Security model (§3.1): data packets are untrusted; only the Menshen
// software may reconfigure the pipeline. Reconfiguration packets are
// identified by a dedicated UDP destination port and are only accepted
// from the control-plane interface (PCIe in the prototype), never from
// the data path.
package reconfig

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/packet"
)

// ReconfigUDPPort is the predefined UDP destination port (0xf1f2, §4.1)
// that marks reconfiguration packets.
const ReconfigUDPPort = 0xf1f2

// Kind identifies which hardware resource a reconfiguration packet
// targets.
type Kind uint8

// Resource kinds. Parser and Deparser are stageless; the rest live in a
// numbered stage.
const (
	KindParser Kind = iota + 1
	KindDeparser
	KindKeyExtract
	KindKeyMask
	KindCAM
	KindVLIW
	KindSegment
	// KindHash targets the stage's cuckoo exact-match table (§4.3). The
	// payload carries the full flow entry — valid flag, module ID,
	// action address, and key — because hash entries have no stable
	// small address for the command's 8-bit index field.
	KindHash
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindParser:
		return "parser"
	case KindDeparser:
		return "deparser"
	case KindKeyExtract:
		return "key-extractor"
	case KindKeyMask:
		return "key-mask"
	case KindCAM:
		return "cam"
	case KindVLIW:
		return "vliw-action"
	case KindSegment:
		return "segment"
	case KindHash:
		return "hash-flow"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Stageless reports whether the resource kind lives outside the stages.
func (k Kind) Stageless() bool { return k == KindParser || k == KindDeparser }

// ResourceID is the 12-bit resource identifier: a 4-bit stage number in
// the high nibble and the resource kind in the low byte. It indicates
// "which hardware resource within which stage should be updated (e.g.,
// key extractor table in stage 3)" (§4.1).
type ResourceID uint16

// MakeResourceID builds a resource ID. Stage is ignored for stageless
// kinds.
func MakeResourceID(stg int, kind Kind) ResourceID {
	if kind.Stageless() {
		stg = 0
	}
	return ResourceID(uint16(stg&0xf)<<8 | uint16(kind))
}

// Stage returns the stage number encoded in the ID.
func (r ResourceID) Stage() int { return int(r >> 8 & 0xf) }

// Kind returns the resource kind encoded in the ID.
func (r ResourceID) Kind() Kind { return Kind(r & 0xff) }

// String implements fmt.Stringer.
func (r ResourceID) String() string {
	if r.Kind().Stageless() {
		return r.Kind().String()
	}
	return fmt.Sprintf("stage%d/%s", r.Stage(), r.Kind())
}

// Command is one decoded reconfiguration command: write Payload into entry
// Index of resource Resource.
type Command struct {
	// Resource names the table the command writes.
	Resource ResourceID
	// Index is the entry within that table (a module ID for per-module
	// tables, an address for CAM and VLIW entries).
	Index uint8
	// Payload is the entry's encoded contents.
	Payload []byte
}

// Wire layout of the UDP payload (Figure 7): ResourceID+reserved packs
// into 2 bytes, then a 1-byte index, then 15 bytes of padding, then the
// entry payload.
const (
	payloadHeaderLen = 2 + 1 + 15
)

// Errors.
var (
	ErrNotReconfig = errors.New("reconfig: not a reconfiguration packet")
	ErrShort       = errors.New("reconfig: truncated reconfiguration payload")
)

// AppendPacket appends a full reconfiguration frame to dst: the
// standard Ethernet/VLAN/IPv4/UDP headers (VLAN ID carries the module
// being configured, informationally) followed by the command payload,
// every byte written in place, so a caller that pushes a stream of
// commands can reuse one buffer for all of their frames.
func AppendPacket(dst []byte, moduleID uint16, cmd Command) ([]byte, error) {
	n := packet.StandardHeaderLen + payloadHeaderLen + len(cmd.Payload)
	dst = slices.Grow(dst, n)
	frame := dst[len(dst) : len(dst)+n]
	body := frame[packet.StandardHeaderLen:]
	binary.BigEndian.PutUint16(body[0:], uint16(cmd.Resource)<<4) // 12 bits + 4 reserved
	body[2] = cmd.Index
	clear(body[3:payloadHeaderLen]) // padding
	copy(body[payloadHeaderLen:], cmd.Payload)
	b := packet.NewUDP(moduleID, packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{10, 0, 0, 2},
		0xf1f1, ReconfigUDPPort, nil)
	if err := b.BuildInto(frame); err != nil {
		return dst, err
	}
	return dst[:len(dst)+n], nil
}

// DecodePacket parses a frame as a reconfiguration packet. It returns
// ErrNotReconfig if the frame is not UDP to the reconfiguration port.
func DecodePacket(data []byte) (moduleID uint16, cmd Command, err error) {
	var p packet.Packet
	if derr := packet.Decode(data, &p); derr != nil {
		return 0, cmd, fmt.Errorf("%w: %v", ErrNotReconfig, derr)
	}
	if p.IsTCP || p.UDP.DstPort != ReconfigUDPPort {
		return 0, cmd, ErrNotReconfig
	}
	body := p.Payload
	if len(body) < payloadHeaderLen {
		return 0, cmd, fmt.Errorf("%w: %d bytes", ErrShort, len(body))
	}
	cmd.Resource = ResourceID(binary.BigEndian.Uint16(body[0:]) >> 4)
	cmd.Index = body[2]
	cmd.Payload = body[payloadHeaderLen:]
	return p.ModuleID(), cmd, nil
}

// IsReconfigFrame reports whether the frame is addressed to the
// reconfiguration UDP port — the packet filter's combinational check.
func IsReconfigFrame(data []byte) bool {
	// Equivalent to a full packet.Decode followed by the UDP port check,
	// but with direct header reads — this runs per frame in the filter.
	if len(data) < packet.StandardHeaderLen {
		return false
	}
	return binary.BigEndian.Uint16(data[packet.OffTPID:]) == packet.EtherTypeVLAN &&
		binary.BigEndian.Uint16(data[packet.OffEtherType:]) == packet.EtherTypeIPv4 &&
		data[packet.OffIPv4]>>4 == 4 &&
		data[packet.OffIPProto] == packet.ProtoUDP &&
		binary.BigEndian.Uint16(data[packet.OffUDPDst:]) == ReconfigUDPPort
}

// Sink applies decoded configuration commands to pipeline resources. The
// pipeline implements this; the daisy chain calls it for each command as
// the command "passes" the target element.
type Sink interface {
	// Apply writes one command into the element it addresses.
	Apply(cmd Command) error
}

// Tagger issues monotonically increasing generation numbers for
// control-plane operations that are fanned out to multiple pipeline
// replicas. A generation orders one reconfiguration operation (a command
// batch, a module load, an unload) relative to the batches of data frames
// each replica processes: a replica that has applied generation g has
// applied every operation tagged ≤ g, so "all replicas at generation g"
// is a quiesce point for the whole fan-out.
type Tagger struct {
	gen atomic.Uint64
}

// Next reserves and returns the next generation number (starting at 1).
func (t *Tagger) Next() uint64 { return t.gen.Add(1) }

// Current returns the most recently issued generation (0 before any).
func (t *Tagger) Current() uint64 { return t.gen.Load() }

// DaisyChain models the separate configuration pipeline of §3.1. Commands
// are applied strictly in order and the reconfiguration packet counter is
// incremented for each packet that traverses the chain, whether or not it
// applied cleanly, matching the hardware counter the software polls. The
// in-process chain loses nothing; loss and its recovery are modelled on
// the engine's live path (faultinject plans under engine.ApplyVerified).
type DaisyChain struct {
	sink    Sink
	counter atomic.Uint32
}

// NewDaisyChain returns a chain feeding the given sink.
func NewDaisyChain(sink Sink) *DaisyChain {
	return &DaisyChain{sink: sink}
}

// Push decodes one reconfiguration frame and applies its command.
func (d *DaisyChain) Push(frame []byte) error {
	_, cmd, err := DecodePacket(frame)
	if err != nil {
		return err
	}
	d.counter.Add(1)
	return d.sink.Apply(cmd)
}

// Counter returns the reconfiguration packet counter register.
func (d *DaisyChain) Counter() uint32 { return d.counter.Load() }

// Verdict classifies a data-path frame at the packet filter.
type Verdict uint8

// Filter verdicts.
const (
	// VerdictData admits the frame to the pipeline.
	VerdictData Verdict = iota
	// VerdictDropNoVLAN drops frames without an 802.1Q tag (§3.1).
	VerdictDropNoVLAN
	// VerdictDropReconfig drops reconfiguration-port frames arriving from
	// the untrusted data path (§3.1, secure reconfiguration).
	VerdictDropReconfig
	// VerdictDropUpdating drops frames of a module whose bit is set in the
	// update bitmap, so in-flight packets never see partial configurations
	// (§4.1).
	VerdictDropUpdating
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictData:
		return "data"
	case VerdictDropNoVLAN:
		return "drop-no-vlan"
	case VerdictDropReconfig:
		return "drop-reconfig-from-data-path"
	case VerdictDropUpdating:
		return "drop-module-updating"
	}
	return fmt.Sprintf("Verdict(%d)", uint8(v))
}

// Filter is the Menshen packet filter: it separates reconfiguration
// packets from data packets, enforces the VLAN-tag requirement, applies
// the update bitmap, and assigns round-robin packet-buffer tags and
// parser numbers for the multi-parser optimization (§3.2).
//
// Its two software-visible registers — the 32-bit update bitmap and the
// reconfiguration packet counter (owned by the daisy chain) — are accessed
// by the control plane over AXI-Lite in the prototype, so the bitmap is
// atomic. The round-robin position and the verdict counters are plain
// fields: the pipeline that owns the filter classifies and reads them
// under its batch lock.
type Filter struct {
	bitmap atomic.Uint32

	// admitted counts the frames given VerdictData; buffer tags and
	// parser numbers are both derived from it.
	admitted uint32

	// Per-verdict counters for observability.
	counts [4]uint64
}

// NewFilter returns a packet filter with an empty update bitmap.
func NewFilter() *Filter { return &Filter{} }

// SetUpdating sets or clears a module's bit in the update bitmap. While
// set, the module's data packets are dropped so none are processed by a
// partially written configuration.
func (f *Filter) SetUpdating(moduleID uint16, updating bool) {
	bit := uint32(1) << (moduleID & 31)
	for {
		old := f.bitmap.Load()
		var next uint32
		if updating {
			next = old | bit
		} else {
			next = old &^ bit
		}
		if f.bitmap.CompareAndSwap(old, next) {
			return
		}
	}
}

// Bitmap returns the update bitmap register.
func (f *Filter) Bitmap() uint32 { return f.bitmap.Load() }

// ClassifyResult is the filter's output for one frame.
type ClassifyResult struct {
	Verdict   Verdict // the filter's decision
	ModuleID  uint16  // the frame's VLAN ID, zero if the tag was not read
	BufferTag uint8   // packet buffer 0-3 (§3.2)
	ParserNum uint8   // which of the parallel parsers receives the frame
}

// Classify is the packet filter's decision for one data-path frame.
// The checks run in this order and the first that applies is the
// verdict:
//
//   - a frame addressed to the reconfiguration UDP port is dropped
//     (VerdictDropReconfig): configuration is only accepted from the
//     control-plane interface, never from the data path;
//   - a frame without an 802.1Q tag is dropped (VerdictDropNoVLAN);
//   - a frame whose module's bit is set in the update bitmap is dropped
//     (VerdictDropUpdating), so no frame sees a half-written
//     configuration;
//   - anything else is admitted (VerdictData).
//
// Only admitted frames consume a round-robin position: the n-th
// admitted frame since the filter was created gets packet buffer n mod
// 4 and parser n mod numParsers (numParsers is the platform's
// parallel-parser count, 2 in the optimized design; below 1 counts as
// 1). Dropped frames carry zero tags and a zero module ID
// unless the VLAN tag was read.
//
//menshen:hotpath
func (f *Filter) Classify(data []byte, numParsers int) ClassifyResult {
	var res ClassifyResult
	if IsReconfigFrame(data) {
		res.Verdict = VerdictDropReconfig
		f.counts[VerdictDropReconfig]++
		return res
	}
	vid, err := parserVLANID(data)
	if err != nil {
		res.Verdict = VerdictDropNoVLAN
		f.counts[VerdictDropNoVLAN]++
		return res
	}
	res.ModuleID = vid
	if f.bitmap.Load()&(1<<(vid&31)) != 0 {
		res.Verdict = VerdictDropUpdating
		f.counts[VerdictDropUpdating]++
		return res
	}
	res.Verdict = VerdictData
	seq := f.admitted
	f.admitted++
	res.BufferTag = uint8(seq) & 3
	if numParsers < 1 {
		numParsers = 1
	}
	res.ParserNum = uint8(seq % uint32(numParsers))
	f.counts[VerdictData]++
	return res
}

// VerdictCount returns how many frames received the verdict.
func (f *Filter) VerdictCount(v Verdict) uint64 {
	if int(v) >= len(f.counts) {
		return 0
	}
	return f.counts[v]
}

// parserVLANID reads a frame's VLAN ID, the module ID of §3.1. Its
// errors are bare sentinels, so a malformed frame costs the filter no
// allocation.
//
//menshen:hotpath
func parserVLANID(data []byte) (uint16, error) {
	// Direct reads of TPID and TCI: this runs per frame in the filter
	// and needs neither the MAC fields nor the inner ethertype.
	if len(data) < packet.EthernetHeaderLen+packet.VLANTagLen {
		return 0, packet.ErrTooShort
	}
	if binary.BigEndian.Uint16(data[packet.OffTPID:]) != packet.EtherTypeVLAN {
		return 0, packet.ErrNoVLAN
	}
	return binary.BigEndian.Uint16(data[packet.OffTCI:]) & 0x0fff, nil
}
