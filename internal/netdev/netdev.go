// Package netdev models the two hardware platforms Menshen was prototyped
// on — the NetFPGA SUME switch (256-bit AXI-Stream at 156.25 MHz) and the
// Corundum NIC (512-bit AXI-Stream at 250 MHz) — plus the unoptimized
// Corundum variant used in Figure 11c.
//
// The functional pipeline (internal/core) is platform-independent; this
// package turns packet sizes and pipeline options into cycle counts,
// latencies, and throughput curves. The model is structural — per-element
// cycle charges plus bus-word transfer counts — with constants calibrated
// once against the paper's published end-to-end numbers (§5.2: 79/106
// cycles at 64 B, the 960/516 ns MTU latencies, 100 Gbit/s at 256 B
// optimized, 80 Gbit/s at MTU unoptimized). Everything else (the full
// Figure 11 curves) is then produced by the model, not hard-coded.
package netdev

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/packet"
)

// InterFrameOverhead is the per-packet layer-1 overhead on Ethernet:
// 7-byte preamble, 1-byte SFD, 12-byte inter-frame gap.
const InterFrameOverhead = 20

// Platform is one hardware platform model.
type Platform struct {
	// Name identifies the platform in reports.
	Name string
	// BusBits is the AXI-Stream data width.
	BusBits int
	// ClockMHz is the pipeline clock.
	ClockMHz float64
	// LineRateGbps is the physical port rate.
	LineRateGbps float64
	// Opts are the §3.2 pipeline options in effect.
	Opts core.Options

	// fixedCycles is the empty-pipe traversal latency for a minimum-size
	// packet: packet filter, parser, five stages, deparser.
	fixedCycles int
	// payloadFactor scales bus words into extra traversal cycles (the
	// store-and-forward contribution of the packet buffer and deparser).
	payloadFactor float64
	// stageInterval is the per-stage PHV issue interval: 2 cycles with
	// deep pipelining (CAM lookup and action-RAM read sub-elements), 4
	// without (§3.2).
	stageInterval int
	// deparserFixed is the per-packet deparser occupancy beyond payload
	// transfer; deparsing is the most expensive element (§3.2).
	deparserFixed int
	// perPktFloor is the per-packet issue floor of the slowest
	// non-divisible element (the match-action CAM in the prototype).
	perPktFloor int
	// loopbackNs is the fixed off-pipeline time in the full-rate latency
	// test (PCIe/MAC loopback path of the Corundum setup).
	loopbackNs float64
	// menshenElements is the number of elements that read per-module
	// overlay configuration; without the §3.2 latency-masking
	// optimization each charges one extra cycle versus baseline RMT.
	menshenElements int
}

// NetFPGA returns the NetFPGA SUME switch platform (optimized design).
func NetFPGA() Platform {
	return Platform{
		Name:            "NetFPGA",
		BusBits:         256,
		ClockMHz:        156.25,
		LineRateGbps:    10,
		Opts:            core.Optimized(),
		fixedCycles:     79,
		payloadFactor:   1.5,
		stageInterval:   2,
		deparserFixed:   6,
		perPktFloor:     4,
		loopbackNs:      0,
		menshenElements: 8,
	}
}

// CorundumOptimized returns the Corundum NIC platform with the §3.2
// optimizations (2 parsers, 4 deparsers, deep pipelining, RAM-latency
// masking).
func CorundumOptimized() Platform {
	return Platform{
		Name:            "Corundum (optimized)",
		BusBits:         512,
		ClockMHz:        250,
		LineRateGbps:    100,
		Opts:            core.Optimized(),
		fixedCycles:     106,
		payloadFactor:   1.0,
		stageInterval:   2,
		deparserFixed:   6,
		perPktFloor:     4,
		loopbackNs:      600,
		menshenElements: 8,
	}
}

// CorundumUnoptimized returns the §3.1 base design on Corundum: one
// parser, one deparser, no deep pipelining, no latency masking
// (Figure 11c).
func CorundumUnoptimized() Platform {
	p := CorundumOptimized()
	p.Name = "Corundum (unoptimized)"
	p.Opts = core.Unoptimized()
	p.stageInterval = 4
	p.deparserFixed = 14
	// Without RAM-latency masking each overlay read adds a cycle of
	// traversal latency.
	p.fixedCycles += p.menshenElements
	return p
}

// Platforms returns all modeled platforms.
func Platforms() []Platform {
	return []Platform{NetFPGA(), CorundumOptimized(), CorundumUnoptimized()}
}

// Words returns the number of bus words a frame occupies.
func (p Platform) Words(frameBytes int) int {
	busBytes := p.BusBits / 8
	return (frameBytes + busBytes - 1) / busBytes
}

// LatencyCycles returns the pipeline traversal latency in clock cycles
// for a frame of the given size ("the number of clock cycles needed to
// process a packet in the pipeline depends on packet size", §5.2).
// fixedCycles is the minimum-size (64 B) latency; larger frames add
// payloadFactor cycles per additional bus word.
func (p Platform) LatencyCycles(frameBytes int) int {
	extra := p.Words(frameBytes) - p.Words(packet.MinSize)
	if extra < 0 {
		extra = 0
	}
	return p.fixedCycles + int(math.Ceil(p.payloadFactor*float64(extra)))
}

// LatencyNs converts LatencyCycles to nanoseconds.
func (p Platform) LatencyNs(frameBytes int) float64 {
	return float64(p.LatencyCycles(frameBytes)) * 1000 / p.ClockMHz
}

// BottleneckCycles returns the per-packet occupancy of the slowest
// pipeline element, which sets the packet rate.
func (p Platform) BottleneckCycles(frameBytes int) float64 {
	words := float64(p.Words(frameBytes))
	headerWords := float64(p.Words(min(frameBytes, packet.HeaderWindow)))

	parsers := float64(max(p.Opts.NumParsers, 1))
	deparsers := float64(max(p.Opts.NumDeparsers, 1))

	busy := words // ingress bus
	if v := headerWords * 2 / parsers; v > busy {
		busy = v
	}
	if v := float64(p.stageInterval); v > busy {
		busy = v
	}
	if v := (words + float64(p.deparserFixed)) / deparsers; v > busy {
		busy = v
	}
	if v := float64(p.perPktFloor); v > busy {
		busy = v
	}
	return busy
}

// PPS returns the pipeline's packet-per-second capacity at a frame size.
func (p Platform) PPS(frameBytes int) float64 {
	return p.ClockMHz * 1e6 / p.BottleneckCycles(frameBytes)
}

// LinePPS returns the physical port's packet rate limit (layer 1,
// including preamble and inter-frame gap).
func (p Platform) LinePPS(frameBytes int) float64 {
	return p.LineRateGbps * 1e9 / (float64(frameBytes+InterFrameOverhead) * 8)
}

// Throughput is one point of a Figure 11 curve.
type Throughput struct {
	FrameBytes int
	// L1Gbps counts preamble and inter-frame gap (what the tester's
	// "Layer 1 Throughput" series reports).
	L1Gbps float64
	// L2Gbps counts frame bytes only.
	L2Gbps float64
	// Mpps is the achieved packet rate in millions.
	Mpps float64
}

// ThroughputAt returns the achieved throughput at a frame size: the
// pipeline's capacity capped by the line rate.
func (p Platform) ThroughputAt(frameBytes int) Throughput {
	pps := p.PPS(frameBytes)
	if line := p.LinePPS(frameBytes); pps > line {
		pps = line
	}
	return Throughput{
		FrameBytes: frameBytes,
		L1Gbps:     pps * float64(frameBytes+InterFrameOverhead) * 8 / 1e9,
		L2Gbps:     pps * float64(frameBytes) * 8 / 1e9,
		Mpps:       pps / 1e6,
	}
}

// FullRateLatencyUs models the sampled packet latency at full offered
// load (Figure 11d): pipeline traversal plus the fixed loopback path plus
// one frame's serialization ahead in the queue.
func (p Platform) FullRateLatencyUs(frameBytes int) float64 {
	serNs := float64(frameBytes) * 8 / p.LineRateGbps
	return (p.LatencyNs(frameBytes) + p.loopbackNs + serNs) / 1000
}

// String implements fmt.Stringer.
func (p Platform) String() string {
	return fmt.Sprintf("%s (%d-bit @ %.2f MHz, %g Gbit/s)", p.Name, p.BusBits, p.ClockMHz, p.LineRateGbps)
}
