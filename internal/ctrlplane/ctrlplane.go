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
	"sync"
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

// Client is a control-plane session against one pipeline, safe for
// concurrent use: mu serializes its writes, which share the one daisy
// chain, the packet counter a load polls, the free CAM addresses, and
// the client's two encode buffers. Every write encodes its entries
// into payload and each packet into frame, so a warm client's rule and
// flow writes allocate nothing.
type Client struct {
	mu             sync.Mutex
	pipe           *core.Pipeline
	cost           CostModel
	frame, payload []byte
}

// New returns a client for the pipeline with the default cost model.
func New(p *core.Pipeline) *Client {
	return &Client{pipe: p, cost: DefaultCostModel()}
}

// Report describes one completed control-plane operation: how many
// commands were issued and the modeled hardware time it would take on the
// FPGA prototype.
type Report struct {
	// Commands counts the reconfiguration packets the operation sent.
	Commands int
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

// push encodes one command as a reconfiguration packet into the
// client's frame and sends it down the daisy chain, so the chain sees
// byte-identical traffic to hardware. Every push of every write reuses
// that one frame, under mu: the chain decodes each payload into its
// own values and keeps no reference.
func (c *Client) push(moduleID uint16, cmd reconfig.Command) error {
	var err error
	if c.frame, err = reconfig.AppendPacket(c.frame[:0], moduleID, cmd); err != nil {
		return err
	}
	return c.pipe.Chain.Push(c.frame)
}

// LoadModule runs the secure reconfiguration procedure for a module:
//
//  1. read the reconfiguration packet counter,
//  2. set the module's bit in the update bitmap (its data packets drop),
//  3. send every configuration entry as a reconfiguration packet,
//  4. poll the counter to verify all packets arrived,
//  5. clear the bitmap bit.
//
// cmds is the module's command stream, m.Commands(pl), encoded once by
// the caller; LoadModule only reads it. A counter shortfall fails the
// load with ErrVerify; the bitmap bit is cleared on every exit. The
// in-process daisy chain loses nothing, so the device makes one pass;
// re-sending after loss is the live path's job (engine.ApplyVerified).
// Other modules process packets throughout — the no-disruption
// property.
func (c *Client) LoadModule(m *core.ModuleConfig, pl core.Placement, cmds []reconfig.Command) (Report, error) {
	start := time.Now()
	var rep Report
	c.mu.Lock()
	defer c.mu.Unlock()

	if err := c.pipe.Partition(m, pl); err != nil {
		return rep, err
	}

	c.pipe.Filter.SetUpdating(m.ModuleID, true)        // AXI-L write
	defer c.pipe.Filter.SetUpdating(m.ModuleID, false) // AXI-L write
	before := c.pipe.Chain.Counter()                   // AXI-L read
	for _, cmd := range cmds {
		if err := c.push(m.ModuleID, cmd); err != nil {
			return rep, fmt.Errorf("command %v[%d]: %w", cmd.Resource, cmd.Index, err)
		}
		rep.AXILOnlyTime += time.Duration(axilWritesFor(cmd.Payload)) * c.cost.AXILWrite
	}
	rep.Commands = len(cmds)
	if got := c.pipe.Chain.Counter() - before; got != uint32(len(cmds)) { // AXI-L poll
		return rep, fmt.Errorf("%w: counter advanced %d for %d packets", ErrVerify, got, len(cmds))
	}

	const axilOps = 4 // the two bitmap writes, the counter read and the poll
	rep.HardwareTime = time.Duration(rep.Commands)*(c.cost.DaisyPacket+c.cost.SoftwarePerEntry) +
		time.Duration(axilOps)*c.cost.AXILRead
	rep.AXILOnlyTime += time.Duration(rep.Commands)*c.cost.SoftwarePerEntry +
		time.Duration(axilOps)*c.cost.AXILRead
	rep.Wall = time.Since(start)
	return rep, nil
}

// UnloadModule clears a module from the pipeline.
func (c *Client) UnloadModule(moduleID uint16) error {
	c.mu.Lock()
	defer c.mu.Unlock()
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
	c.mu.Lock() // from the free-address search to the last push
	defer c.mu.Unlock()
	c.pipe.Locked(func() { addr = c.pipe.Stages[stg].Match.FreeAddr(moduleID) })
	if addr < 0 {
		return 0, rep, fmt.Errorf("%w: module %d stage %d", ErrNoSpace, moduleID, stg)
	}
	c.payload = core.AppendCAMEntry(c.payload[:0], &tables.CAMEntry{
		Valid: true, ModID: moduleID, Key: r.Key, Mask: r.Mask,
	})
	n := len(c.payload)
	c.payload = r.Action.AppendEncode(c.payload)
	cmds := [...]reconfig.Command{
		{Resource: reconfig.MakeResourceID(stg, reconfig.KindCAM), Index: uint8(addr), Payload: c.payload[:n]},
		{Resource: reconfig.MakeResourceID(stg, reconfig.KindVLIW), Index: uint8(addr), Payload: c.payload[n:]},
	}
	for _, cmd := range cmds {
		if err = c.push(moduleID, cmd); err != nil {
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
	st := c.pipe.Stages[stg]
	var e tables.CAMEntry
	var err error
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pipe.Locked(func() { e, err = st.Match.Entry(addr) })
	if err != nil {
		return err
	}
	if !e.Valid || e.ModID != moduleID {
		return fmt.Errorf("ctrlplane: address %d not owned by module %d", addr, moduleID)
	}
	c.payload = core.AppendCAMEntry(c.payload[:0], &tables.CAMEntry{})
	empty := reconfig.Command{
		Resource: reconfig.MakeResourceID(stg, reconfig.KindCAM),
		Index:    uint8(addr),
		Payload:  c.payload,
	}
	if err := c.push(moduleID, empty); err != nil {
		return err
	}
	c.pipe.Locked(func() { err = st.Actions.Clear(addr) })
	return err
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
	c.mu.Lock()
	defer c.mu.Unlock()
	c.payload = core.AppendFlowEntry(c.payload[:0], &core.FlowEntry{
		Valid: true, ModID: moduleID, Addr: uint16(addr), Key: key,
	})
	return c.push(moduleID, core.FlowCommand(stg, c.payload))
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
	st := c.pipe.Stages[stg]
	var err error
	c.pipe.Locked(func() {
		var v phv.PHV
		if err = c.pipe.Parser.Parse(frame, idx, &v); err != nil {
			err = fmt.Errorf("ctrlplane: module %d: %w", moduleID, err)
			return
		}
		v.ModuleID = moduleID
		entry, ok := st.Extract.Lookup(idx)
		if !ok {
			err = fmt.Errorf("ctrlplane: module %d has no key extractor in stage %d", moduleID, stg)
			return
		}
		if key, err = entry.ExtractKey(&v); err == nil {
			if mask, ok := st.Mask.Lookup(idx); ok {
				key = key.Masked(mask)
			}
		}
	})
	return key, err
}

// ReadCounter reads a stateful-memory word in a module's segment (the
// "gather statistics" path).
func (c *Client) ReadCounter(moduleID uint16, stg int, localAddr uint64) (uint64, error) {
	if stg < 0 || stg >= len(c.pipe.Stages) {
		return 0, fmt.Errorf("ctrlplane: stage %d out of range", stg)
	}
	st := c.pipe.Stages[stg]
	var v, phys uint64
	var err error
	c.pipe.Locked(func() {
		if phys, err = st.Segments.Translate(int(moduleID), localAddr); err == nil {
			v, err = st.Memory.Load(phys)
		}
	})
	if err != nil {
		return 0, fmt.Errorf("ctrlplane: module %d stage %d address %d: %w", moduleID, stg, localAddr, err)
	}
	return v, nil
}

// Stats returns the pipeline's per-module traffic counters.
func (c *Client) Stats(moduleID uint16) (packets, bytes, drops uint64) {
	s := c.pipe.StatsFor(moduleID)
	return s.Packets, s.Bytes, s.Drops
}

// VLIWEntryBytes and CAMEntryBytes expose wire sizes for the Appendix A
// comparison (Figure 12): a VLIW action entry is 625 bits -> 20 AXI-Lite
// writes, a CAM entry 205 bits -> 7 writes.
const (
	VLIWEntryBytes  = alu.ActionBytes
	CAMEntryWrites  = 7  // ceil(205/32), from the paper
	VLIWEntryWrites = 20 // ceil(625/32), from the paper
)
