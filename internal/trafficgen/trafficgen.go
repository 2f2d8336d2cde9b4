// Package trafficgen generates the evaluation workloads: per-module
// packet streams (CALC requests, firewall flows, key-value operations,
// …), fixed-rate multi-module mixes for the reconfiguration experiment
// (Figure 10), and packet-size sweeps for the throughput curves
// (Figure 11). It stands in for the paper's MoonGen and Spirent setups.
package trafficgen

import (
	"encoding/binary"
	"fmt"

	"repro/internal/packet"
)

// PRNG is a small deterministic xorshift64* generator so workloads are
// reproducible across runs without seeding global state.
type PRNG struct{ s uint64 }

// NewPRNG seeds a generator (zero seeds are remapped).
func NewPRNG(seed uint64) *PRNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &PRNG{s: seed}
}

// Next returns the next 64-bit value.
func (p *PRNG) Next() uint64 {
	p.s ^= p.s >> 12
	p.s ^= p.s << 25
	p.s ^= p.s >> 27
	return p.s * 0x2545f4914f6cdd1d
}

// Intn returns a value in [0, n).
func (p *PRNG) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(p.Next() % uint64(n))
}

// Sizes used in the paper's sweeps.
var (
	// NetFPGASizes is the Figure 11a x-axis.
	NetFPGASizes = []int{64, 96, 128, 256, 512}
	// CorundumSizes is the Figure 11b/c/d x-axis.
	CorundumSizes = []int{70, 128, 256, 512, 768, 1024, 1500}
)

// CalcOp values understood by the CALC module.
const (
	CalcAdd  = 1
	CalcSub  = 2
	CalcEcho = 3
)

// CalcPacket builds one CALC request (op, a, b at offset 46) padded to
// size bytes (0 = minimal).
func CalcPacket(moduleID uint16, op uint16, a, b uint32, size int) []byte {
	payload := make([]byte, 14)
	binary.BigEndian.PutUint16(payload[0:], op)
	binary.BigEndian.PutUint32(payload[2:], a)
	binary.BigEndian.PutUint32(payload[6:], b)
	bld := packet.NewUDP(moduleID,
		packet.IPv4Addr{10, 0, byte(moduleID), 1}, packet.IPv4Addr{10, 0, byte(moduleID), 2},
		4000, 5000, payload)
	bld.Size = size
	return bld.MustBuild()
}

// CalcResult extracts the result field from a processed CALC packet.
func CalcResult(frame []byte) (uint32, error) {
	off := packet.StandardHeaderLen + 10
	if len(frame) < off+4 {
		return 0, fmt.Errorf("trafficgen: frame too short for CALC result")
	}
	return binary.BigEndian.Uint32(frame[off:]), nil
}

// KVOp values understood by the NetCache module.
const (
	KVGet = 1
	KVPut = 2
)

// KVPacket builds one NetCache request (op, key, value at offset 46).
func KVPacket(moduleID uint16, op, key uint16, value uint32, size int) []byte {
	payload := make([]byte, 8)
	binary.BigEndian.PutUint16(payload[0:], op)
	binary.BigEndian.PutUint16(payload[2:], key)
	binary.BigEndian.PutUint32(payload[4:], value)
	bld := packet.NewUDP(moduleID,
		packet.IPv4Addr{10, 1, byte(moduleID), 1}, packet.IPv4Addr{10, 1, byte(moduleID), 2},
		4001, 5001, payload)
	bld.Size = size
	return bld.MustBuild()
}

// KVValue extracts the value field from a processed NetCache packet.
func KVValue(frame []byte) (uint32, error) {
	off := packet.StandardHeaderLen + 4
	if len(frame) < off+4 {
		return 0, fmt.Errorf("trafficgen: frame too short for KV value")
	}
	return binary.BigEndian.Uint32(frame[off:]), nil
}

// ChainPacket builds one NetChain request (op, seq at offset 46).
func ChainPacket(moduleID uint16, op uint16, size int) []byte {
	payload := make([]byte, 8)
	binary.BigEndian.PutUint16(payload[0:], op)
	bld := packet.NewUDP(moduleID,
		packet.IPv4Addr{10, 2, byte(moduleID), 1}, packet.IPv4Addr{10, 2, byte(moduleID), 2},
		4002, 5002, payload)
	bld.Size = size
	return bld.MustBuild()
}

// ChainSeq extracts the 48-bit sequence number from a NetChain packet.
func ChainSeq(frame []byte) (uint64, error) {
	off := packet.StandardHeaderLen + 2
	if len(frame) < off+6 {
		return 0, fmt.Errorf("trafficgen: frame too short for chain seq")
	}
	var v uint64
	for i := 0; i < 6; i++ {
		v = v<<8 | uint64(frame[off+i])
	}
	return v, nil
}

// SRPacket builds one Source-Routing packet with the given hop label.
func SRPacket(moduleID uint16, hop uint16, size int) []byte {
	payload := make([]byte, 4)
	binary.BigEndian.PutUint16(payload[0:], hop)
	bld := packet.NewUDP(moduleID,
		packet.IPv4Addr{10, 3, byte(moduleID), 1}, packet.IPv4Addr{10, 3, byte(moduleID), 2},
		4003, 5003, payload)
	bld.Size = size
	return bld.MustBuild()
}

// FlowPacket builds a UDP packet with the given 4-tuple (for Firewall,
// Load Balancing, QoS, Multicast).
func FlowPacket(moduleID uint16, src, dst packet.IPv4Addr, sport, dport uint16, size int) []byte {
	bld := packet.NewUDP(moduleID, src, dst, sport, dport, nil)
	bld.Size = size
	return bld.MustBuild()
}

// FlowScaleTuple maps a flow ordinal onto the distinct (destination IP,
// source port) pair its frames carry in the flow-scale workload — the
// two fields the Load Balancing program keys on. The source port holds
// the low 16 bits and the third destination-IP octet the next 8, so up
// to 2^24 flows stay pairwise distinct.
func FlowScaleTuple(flow int) (dst packet.IPv4Addr, sport uint16) {
	return packet.IPv4Addr{10, 77, byte(flow >> 16), 10}, uint16(flow)
}

// FlowScaleFrame builds the representative frame of one flow in the
// flow-scale workload (every frame of flow f is identical, so this
// also serves as the install-time key source for FlowKeyForFrame).
func FlowScaleFrame(moduleID uint16, flow, frameBytes int) []byte {
	dst, sport := FlowScaleTuple(flow)
	return FlowPacket(moduleID, packet.IPv4Addr{10, 0, byte(moduleID), 1}, dst, sport, 80, frameBytes)
}

// Stream is a fixed-rate packet source for one module: the netmap/
// tcpreplay role in the Figure 10 experiment.
type Stream struct {
	// ModuleID identifies the module the stream belongs to.
	ModuleID uint16
	// RateGbps is the offered load.
	RateGbps float64
	// FrameBytes is the frame size.
	FrameBytes int
	// Gen builds the i-th frame.
	Gen func(i int) []byte
}

// PPS is the stream's offered packet rate.
func (s Stream) PPS() float64 {
	return s.RateGbps * 1e9 / (float64(s.FrameBytes) * 8)
}

// Mix is a set of concurrent streams sharing one link, scheduled by
// deficit round robin over a simulated timeline.
type Mix struct {
	Streams []Stream
}

// Slot is one scheduled transmission.
type Slot struct {
	StreamIdx int
	Time      float64 // seconds since start
	Frame     []byte
}

// Schedule emits the interleaved transmission sequence for a duration.
// Streams transmit proportionally to their offered rates, mimicking
// packets of three modules interleaving on one ingress link (§5.1).
func (m Mix) Schedule(duration float64) []Slot {
	type state struct {
		interval float64 // seconds between frames
		next     float64
		count    int
	}
	states := make([]state, len(m.Streams))
	total := 0
	for i, s := range m.Streams {
		pps := s.PPS()
		if pps <= 0 {
			states[i] = state{next: duration + 1}
			continue
		}
		states[i] = state{interval: 1 / pps}
		total += int(pps * duration)
	}
	slots := make([]Slot, 0, total)
	for {
		best, bestT := -1, duration
		for i := range states {
			if states[i].next < bestT {
				best, bestT = i, states[i].next
			}
		}
		if best < 0 {
			break
		}
		st := &states[best]
		slots = append(slots, Slot{
			StreamIdx: best,
			Time:      st.next,
			Frame:     m.Streams[best].Gen(st.count),
		})
		st.count++
		st.next += st.interval
	}
	return slots
}
