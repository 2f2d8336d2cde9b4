// Package fpga models the FPGA resource accounting of Table 4: slice
// LUTs and Block RAMs for the 5-stage Menshen pipeline on the NetFPGA
// SUME (xc7vx690t) and Alveo U250 boards, compared with the NetFPGA
// reference switch, the Corundum NIC, and the baseline RMT design.
//
// Like internal/asic the estimator is structural: the SRL-based Xilinx
// CAM dominates LUTs, small overlay tables each occupy (at least) one
// Block RAM regardless of depth — which is why Menshen and RMT report
// identical BRAM counts in Table 4 — and the Menshen LUT delta comes
// from the 12 extra CAM key bits and module-ID plumbing.
package fpga

import (
	"repro/internal/alu"
	"repro/internal/parser"
	"repro/internal/stage"
	"repro/internal/tables"
)

// Usage is one design's resource consumption.
type Usage struct {
	Design string
	LUTs   int
	BRAMs  float64
}

// Published Table 4 rows, for comparison against the model.
var Published = []struct {
	Design string
	LUTs   int
	BRAMs  float64
}{
	{"NetFPGA reference switch", 42325, 245.5},
	{"RMT on NetFPGA", 200573, 641},
	{"Menshen on NetFPGA", 200733, 641},
	{"Corundum", 61463, 349},
	{"RMT on Corundum", 235686, 316},
	{"Menshen on Corundum", 235903, 316},
}

// Structural constants.
const (
	// lutPerCAMBit is the SRL16-based CAM cost per (width x depth) bit
	// (Xilinx XAPP1151 style).
	lutPerCAMBit = 0.83
	// lutPerALUBit is the per-bit cost of a multi-function ALU datapath.
	lutPerALUBit = 2.1
	// crossbarLUTs is the 25-input operand crossbar per stage.
	crossbarLUTs = 14200
	// parserNetLUTs / deparserNetLUTs are the extraction/write-back
	// networks over the 128-byte window.
	parserNetLUTs   = 5200
	deparserNetLUTs = 8800
	// filterLUTs is the packet filter.
	filterLUTs = 450
	// moduleIDPlumbingLUTs is the per-element cost of carrying and
	// decoding the module ID (Menshen only).
	moduleIDPlumbingLUTs = 8
	// bram36Bits is one BRAM36 capacity.
	bram36Bits = 36864
)

// Config describes a pipeline build for estimation.
type Config struct {
	Menshen   bool // false = baseline RMT (single module)
	Stages    int
	Parsers   int
	Deparsers int
	BusBits   int
	// BaseLUTs/BaseBRAMs are the host platform's infrastructure (MACs,
	// DMA, AXI interconnect) from the published reference rows.
	BaseLUTs  int
	BaseBRAMs float64
}

// NetFPGAConfig returns the NetFPGA build (reference-switch base).
func NetFPGAConfig(menshen bool) Config {
	return Config{
		Menshen: menshen, Stages: 5, Parsers: 2, Deparsers: 4,
		BusBits: 256, BaseLUTs: 42325, BaseBRAMs: 245.5,
	}
}

// CorundumConfig returns the Corundum build. The RMT integration replaces
// part of the NIC datapath, which is why its BRAM count is below the
// plain NIC's in Table 4; the base here is the post-integration
// infrastructure share.
func CorundumConfig(menshen bool) Config {
	return Config{
		Menshen: menshen, Stages: 5, Parsers: 2, Deparsers: 4,
		BusBits: 512, BaseLUTs: 55000, BaseBRAMs: 180,
	}
}

// camWidth returns the match width: Menshen appends the module ID.
func (c Config) camWidth() int {
	if c.Menshen {
		return tables.CAMWidthBits
	}
	return tables.KeyBits
}

// stageLUTs estimates one stage.
func (c Config) stageLUTs() int {
	cam := int(float64(c.camWidth()*tables.CAMDepth) * lutPerCAMBit)
	alus := int(25 * 48 * lutPerALUBit)
	luts := cam + alus + crossbarLUTs
	if c.Menshen {
		luts += moduleIDPlumbingLUTs
	}
	return luts
}

// stageBRAMs estimates one stage: VLIW action RAM, stateful memory, and
// the three overlay tables. Each logical memory takes at least one
// BRAM36 — identical for depth 1 (RMT) and depth 32 (Menshen), which is
// how Menshen's BRAM count stays flat in Table 4.
func (c Config) stageBRAMs() float64 {
	brams := func(bits int) float64 {
		n := (bits + bram36Bits - 1) / bram36Bits
		if n < 1 {
			n = 1
		}
		return float64(n)
	}
	depth := 1
	if c.Menshen {
		depth = tables.OverlayDepth
	}
	total := brams(alu.ActionBits * tables.CAMDepth) // VLIW table
	total += brams(tables.MemoryWords * 64)          // stateful memory
	total += brams(stage.EntryBits * depth)          // key extractor
	total += brams(tables.KeyBits * depth)           // key mask
	total += brams(16 * depth)                       // segment table
	total += 2                                       // inter-stage FIFOs
	return total
}

// elementBRAMs is parser/deparser table plus streaming FIFOs.
func (c Config) elementBRAMs() float64 {
	depth := 1
	if c.Menshen {
		depth = tables.OverlayDepth
	}
	n := float64((parser.EntryBits*depth + bram36Bits - 1) / bram36Bits)
	return n + 2
}

// Estimate returns the modeled resource usage for the build.
func (c Config) Estimate() Usage {
	name := "RMT"
	if c.Menshen {
		name = "Menshen"
	}

	luts := c.BaseLUTs
	luts += c.Parsers * parserNetLUTs
	luts += c.Deparsers * deparserNetLUTs
	luts += c.Stages * c.stageLUTs()
	if c.Menshen {
		luts += filterLUTs
		luts += (c.Parsers + c.Deparsers) * moduleIDPlumbingLUTs
	}

	brams := c.BaseBRAMs
	brams += float64(c.Parsers) * c.elementBRAMs()
	brams += float64(c.Deparsers) * c.elementBRAMs()
	brams += float64(c.Stages) * c.stageBRAMs()
	brams += 4 * 16 // packet buffers: 4 x 16 BRAM36

	return Usage{Design: name, LUTs: luts, BRAMs: brams}
}

// Delta reports the Menshen-over-RMT increment for a platform config
// builder, the headline "Menshen is lightweight" numbers.
func Delta(build func(bool) Config) (lutPct float64, bramDelta float64) {
	rmt := build(false).Estimate()
	men := build(true).Estimate()
	return float64(men.LUTs-rmt.LUTs) / float64(rmt.LUTs) * 100, men.BRAMs - rmt.BRAMs
}
