// Package ctrlplane implements Menshen's software-to-hardware interface:
// the P4Runtime-like API the Menshen software uses to install and update
// module configurations, fetch statistics, and drive the secure
// reconfiguration procedure of §4.1 (bitmap set → reconfiguration packets
// down the daisy chain → counter poll → bitmap clear).
//
// Because the pipeline here is in-process, every interaction completes
// immediately; a CostModel accounts the time the same interaction takes
// on the FPGA prototype (PCIe AXI-Lite register access and per-packet
// daisy-chain delivery), which is what the Figure 9 and Figure 12
// experiments report.
package ctrlplane

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/alu"
	"repro/internal/core"
	"repro/internal/phv"
	"repro/internal/reconfig"
	"repro/internal/tables"
)

// Errors.
var (
	ErrVerify  = errors.New("ctrlplane: reconfiguration packet counter mismatch")
	ErrNoSpace = errors.New("ctrlplane: no free CAM address for rule")
)

// CostModel holds the calibrated per-operation costs of the prototype's
// control path. Defaults reproduce the magnitudes of Figure 9 (per-entry
// configuration cost dominated by the software-to-hardware interface) and
// Figure 12 (a single AXI-Lite write carries 32 bits, so wide entries
// need many writes, while the daisy chain delivers a whole entry per
// packet).
type CostModel struct {
	// AXILWrite is the cost of one 32-bit AXI-Lite write over PCIe.
	AXILWrite time.Duration
	// AXILRead is the cost of one AXI-Lite register read.
	AXILRead time.Duration
	// DaisyPacket is the cost of injecting one reconfiguration packet and
	// having it traverse the daisy chain.
	DaisyPacket time.Duration
	// SoftwarePerEntry is the software-side cost (the Python interface in
	// the prototype) of preparing and emitting one entry.
	SoftwarePerEntry time.Duration
	// TofinoPerEntry is the measured per-entry cost of the Tofino run-time
	// API used as the comparison point in Figure 9.
	TofinoPerEntry time.Duration
}

// DefaultCostModel returns costs calibrated to the paper's figures.
func DefaultCostModel() CostModel {
	return CostModel{
		AXILWrite:        4 * time.Microsecond,
		AXILRead:         4 * time.Microsecond,
		DaisyPacket:      2 * time.Microsecond,
		SoftwarePerEntry: 290 * time.Microsecond,
		TofinoPerEntry:   620 * time.Microsecond,
	}
}

// Client is a control-plane session against one pipeline.
type Client struct {
	pipe *core.Pipeline
	cost CostModel

	// UseWirePackets, when true, routes every command through the full
	// reconfiguration-packet encode/decode path rather than the in-process
	// fast path; the daisy chain sees byte-identical traffic to hardware.
	UseWirePackets bool
}

// New returns a client for the pipeline with the default cost model.
func New(p *core.Pipeline) *Client {
	return &Client{pipe: p, cost: DefaultCostModel(), UseWirePackets: true}
}

// CostModel returns the active cost model.
func (c *Client) CostModel() CostModel { return c.cost }

// MaxLoadAttempts bounds the §4.1 retry loop: if reconfiguration packets
// are dropped, the whole procedure restarts (with the module's data
// packets still dropped) until the counter verifies or the bound is hit.
const MaxLoadAttempts = 8

// Report describes one completed control-plane operation: how many
// commands were issued and the modeled hardware time it would take on the
// FPGA prototype.
type Report struct {
	Commands int
	// Attempts is how many times the procedure ran (>1 when
	// reconfiguration packets were lost and the counter check failed).
	Attempts int
	// HardwareTime is the modeled prototype time: AXI-Lite register
	// traffic plus daisy-chain packet delivery plus software overhead.
	HardwareTime time.Duration
	// AXILOnlyTime is the modeled time for the alternative all-AXI-Lite
	// configuration path of Appendix A (no daisy chain).
	AXILOnlyTime time.Duration
	// Wall is the measured in-process duration.
	Wall time.Duration
}

// axilWritesFor returns how many 32-bit AXI-Lite writes Appendix A's
// alternative design needs for one command payload.
func axilWritesFor(payload []byte) int {
	bits := len(payload) * 8
	return (bits + 31) / 32
}

// push delivers one command to the daisy chain, optionally via the wire
// format.
func (c *Client) push(moduleID uint16, cmd reconfig.Command) error {
	if c.UseWirePackets {
		frame, err := reconfig.EncodePacket(moduleID, cmd)
		if err != nil {
			return err
		}
		return c.pipe.Chain.Push(frame)
	}
	return c.pipe.Chain.PushCommand(cmd)
}

// LoadModule runs the full secure reconfiguration procedure for a module:
//
//  1. read the reconfiguration packet counter,
//  2. set the module's bit in the update bitmap (its data packets drop),
//  3. send every configuration entry as a reconfiguration packet,
//  4. poll the counter to verify all packets arrived (retrying the whole
//     procedure if any were lost),
//  5. clear the bitmap bit.
//
// Other modules process packets throughout — the no-disruption property.
func (c *Client) LoadModule(m *core.ModuleConfig, pl core.Placement) (Report, error) {
	start := time.Now()
	var rep Report

	cmds, err := m.Commands(pl)
	if err != nil {
		return rep, err
	}
	if err := c.pipe.Partition(m, pl); err != nil {
		return rep, err
	}

	c.pipe.Filter.SetUpdating(m.ModuleID, true)        // AXI-L write
	defer c.pipe.Filter.SetUpdating(m.ModuleID, false) // AXI-L write
	axilOps := 2

	// §4.1: if reconfiguration packets are dropped before they reach the
	// pipeline, the counter does not advance by the expected amount and
	// the entire procedure restarts, with the module's packets still
	// being dropped until reconfiguration succeeds.
	verified := false
	for attempt := 1; attempt <= MaxLoadAttempts; attempt++ {
		rep.Attempts = attempt
		before := c.pipe.Chain.Counter() // AXI-L read
		axilOps++
		for _, cmd := range cmds {
			if err := c.push(m.ModuleID, cmd); err != nil {
				return rep, fmt.Errorf("command %v[%d]: %w", cmd.Resource, cmd.Index, err)
			}
			rep.AXILOnlyTime += time.Duration(axilWritesFor(cmd.Payload)) * c.cost.AXILWrite
		}
		after := c.pipe.Chain.Counter() // AXI-L poll
		axilOps++
		rep.Commands += len(cmds)
		if after-before == uint32(len(cmds)) {
			verified = true
			break
		}
	}
	if !verified {
		return rep, fmt.Errorf("%w: %d attempts of %d packets each", ErrVerify, rep.Attempts, len(cmds))
	}

	rep.HardwareTime = time.Duration(rep.Commands)*(c.cost.DaisyPacket+c.cost.SoftwarePerEntry) +
		time.Duration(axilOps)*c.cost.AXILRead
	rep.AXILOnlyTime += time.Duration(rep.Commands)*c.cost.SoftwarePerEntry +
		time.Duration(axilOps)*c.cost.AXILRead
	rep.Wall = time.Since(start)
	return rep, nil
}

// UnloadModule clears a module from the pipeline.
func (c *Client) UnloadModule(moduleID uint16) error {
	return c.pipe.UnloadModule(moduleID)
}

// InsertRule installs one match-action rule at runtime (the P4Runtime-like
// "modify table entries" path): the entry goes to the first free CAM
// address in the module's stage partition, followed by its VLIW action.
func (c *Client) InsertRule(moduleID uint16, stg int, r core.Rule) (addr int, rep Report, err error) {
	start := time.Now()
	if stg < 0 || stg >= len(c.pipe.Stages) {
		return 0, rep, fmt.Errorf("ctrlplane: stage %d out of range", stg)
	}
	cam := c.pipe.Stages[stg].Match
	lo, hi, ok := cam.PartitionOf(moduleID)
	if !ok {
		lo, hi = 0, cam.Depth()
	}
	addr = -1
	for a := lo; a < hi; a++ {
		if e, eerr := cam.Entry(a); eerr == nil && !e.Valid {
			addr = a
			break
		}
	}
	if addr < 0 {
		return 0, rep, fmt.Errorf("%w: module %d stage %d", ErrNoSpace, moduleID, stg)
	}
	cmds := []reconfig.Command{
		{
			Resource: reconfig.MakeResourceID(stg, reconfig.KindCAM),
			Index:    uint8(addr),
			Payload: core.EncodeCAMEntry(tables.CAMEntry{
				Valid: true, ModID: moduleID, Key: r.Key, Mask: r.Mask,
			}),
		},
		{
			Resource: reconfig.MakeResourceID(stg, reconfig.KindVLIW),
			Index:    uint8(addr),
			Payload:  r.Action.Encode(),
		},
	}
	for _, cmd := range cmds {
		if err := c.push(moduleID, cmd); err != nil {
			return 0, rep, err
		}
		rep.AXILOnlyTime += time.Duration(axilWritesFor(cmd.Payload)) * c.cost.AXILWrite
	}
	rep.Commands = len(cmds)
	rep.HardwareTime = time.Duration(len(cmds)) * (c.cost.DaisyPacket + c.cost.SoftwarePerEntry)
	rep.AXILOnlyTime += time.Duration(len(cmds)) * c.cost.SoftwarePerEntry
	rep.Wall = time.Since(start)
	return addr, rep, nil
}

// DeleteRule invalidates the CAM entry and action at an address.
func (c *Client) DeleteRule(moduleID uint16, stg, addr int) error {
	if stg < 0 || stg >= len(c.pipe.Stages) {
		return fmt.Errorf("ctrlplane: stage %d out of range", stg)
	}
	e, err := c.pipe.Stages[stg].Match.Entry(addr)
	if err != nil {
		return err
	}
	if !e.Valid || e.ModID != moduleID {
		return fmt.Errorf("ctrlplane: address %d not owned by module %d", addr, moduleID)
	}
	empty := reconfig.Command{
		Resource: reconfig.MakeResourceID(stg, reconfig.KindCAM),
		Index:    uint8(addr),
		Payload:  core.EncodeCAMEntry(tables.CAMEntry{}),
	}
	if err := c.push(moduleID, empty); err != nil {
		return err
	}
	return c.pipe.Stages[stg].Actions.Clear(addr)
}

// InsertFlow installs one exact-match flow entry on the cuckoo side of
// a stage's match table: key → existing VLIW action address. Flows ride
// the same reconfiguration path as rules (wire packets included), but
// consume no CAM depth — this is the high-cardinality per-flow
// counterpart of InsertRule.
func (c *Client) InsertFlow(moduleID uint16, stg int, key tables.Key, addr int) error {
	if stg < 0 || stg >= len(c.pipe.Stages) {
		return fmt.Errorf("ctrlplane: stage %d out of range", stg)
	}
	if addr < 0 || addr > int(^uint16(0)) {
		return fmt.Errorf("ctrlplane: flow action address %d out of range", addr)
	}
	return c.push(moduleID, core.FlowCommand(stg, core.FlowEntry{
		Valid: true, ModID: moduleID, Addr: uint16(addr), Key: key,
	}))
}

// FlowKeyForFrame derives the match key a representative frame of a
// flow produces in the given stage: the frame is parsed with the
// module's parser entry and run through the stage's key extractor and
// key mask. The result is what InsertFlow should install to match that
// flow. The extraction reflects the PHV as parsed — if an earlier stage
// rewrites the fields this stage keys on, derive the key from a frame
// captured after those rewrites instead.
func (c *Client) FlowKeyForFrame(moduleID uint16, stg int, frame []byte) (tables.Key, error) {
	var key tables.Key
	if stg < 0 || stg >= len(c.pipe.Stages) {
		return key, fmt.Errorf("ctrlplane: stage %d out of range", stg)
	}
	idx := int(moduleID) & tables.MaxModuleID
	pe, ok := c.pipe.Parser.EntryRef(idx)
	if !ok {
		return key, fmt.Errorf("ctrlplane: module %d has no parser entry", moduleID)
	}
	var v phv.PHV
	prog := pe.Compile()
	if err := prog.Parse(frame, &v); err != nil {
		return key, err
	}
	v.ModuleID = moduleID
	st := c.pipe.Stages[stg]
	entry, ok := st.Extract.Lookup(idx)
	if !ok {
		return key, fmt.Errorf("ctrlplane: module %d has no key extractor in stage %d", moduleID, stg)
	}
	key, err := entry.ExtractKey(&v)
	if err != nil {
		return key, err
	}
	if mask, ok := st.Mask.Lookup(idx); ok {
		key = key.Masked(mask)
	}
	return key, nil
}

// ReadCounter reads a stateful-memory word in a module's segment (the
// "gather statistics" path).
func (c *Client) ReadCounter(moduleID uint16, stg int, localAddr uint64) (uint64, error) {
	if stg < 0 || stg >= len(c.pipe.Stages) {
		return 0, fmt.Errorf("ctrlplane: stage %d out of range", stg)
	}
	st := c.pipe.Stages[stg]
	phys, err := st.Segments.Translate(int(moduleID), localAddr)
	if err != nil {
		return 0, err
	}
	return st.Memory.Load(phys)
}

// Stats returns the pipeline's per-module traffic counters.
func (c *Client) Stats(moduleID uint16) (packets, bytes, drops uint64) {
	s := c.pipe.StatsFor(moduleID)
	return s.Packets.Load(), s.Bytes.Load(), s.Drops.Load()
}

// VLIWEntryBytes and CAMEntryBytes expose wire sizes for the Appendix A
// comparison (Figure 12): a VLIW action entry is 625 bits -> 20 AXI-Lite
// writes, a CAM entry 205 bits -> 7 writes.
const (
	VLIWEntryBytes  = alu.ActionBytes
	CAMEntryWrites  = 7  // ceil(205/32), from the paper
	VLIWEntryWrites = 20 // ceil(625/32), from the paper
)
