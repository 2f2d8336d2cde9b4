// Module configuration bundles: the compiled artifact the Menshen
// software loads into the pipeline. The compiler backend produces a
// ModuleConfig; the control plane turns it into the reconfiguration
// command stream that travels the daisy chain.
package core

import (
	"fmt"
	"slices"

	"repro/internal/alu"
	"repro/internal/parser"
	"repro/internal/reconfig"
	"repro/internal/stage"
	"repro/internal/tables"
)

// Rule is one match-action pair: a (possibly masked) key and the VLIW
// action executed on a hit.
type Rule struct {
	Key    tables.Key
	Mask   tables.Key // FullMask for exact matching
	Action alu.Action
}

// StageConfig is a module's configuration for one stage.
type StageConfig struct {
	// Used marks the stage as active for this module; when false the
	// remaining fields are ignored and the stage passes the module's
	// packets through.
	Used bool
	// Extract selects the key containers and predicate.
	Extract stage.KeyExtractEntry
	// Mask selects the meaningful key bits.
	Mask tables.Key
	// Rules are installed into the module's CAM partition in order;
	// rule i lands at partition base + i.
	Rules []Rule
	// ReservedSlots extends the module's CAM partition beyond its
	// compile-time rules, leaving room for run-time inserts (ternary
	// tables reserve instead of generating filler entries, Appendix B).
	ReservedSlots int
	// SegmentWords, when nonzero, requests that many words of stateful
	// memory in this stage.
	SegmentWords uint8
}

// PartitionSize is the CAM address span the stage configuration needs.
func (sc *StageConfig) PartitionSize() int { return len(sc.Rules) + sc.ReservedSlots }

// ModuleConfig is the complete compiled configuration for one module.
type ModuleConfig struct {
	// ModuleID is the VLAN ID the module's packets carry.
	ModuleID uint16
	// Name is the module's source-level name (diagnostics only).
	Name string
	// Parser and Deparser are the module's overlay entries.
	Parser   parser.Entry
	Deparser parser.Entry
	// Stages holds per-stage configuration, indexed by stage number.
	Stages []StageConfig
}

// ResourceDemand summarizes what the module asks of the pipeline; the
// resource checker compares it against the operator's sharing policy.
type ResourceDemand struct {
	ParserActions int // parse actions used (≤ 10)
	StagesUsed    int
	CAMEntries    int // total across stages
	MaxStageCAM   int // largest per-stage rule count
	MemoryWords   int // total stateful words across stages
}

// Demand computes the module's resource demand.
func (m *ModuleConfig) Demand() ResourceDemand {
	var d ResourceDemand
	d.ParserActions = m.Parser.ValidActions()
	for _, sc := range m.Stages {
		if !sc.Used {
			continue
		}
		d.StagesUsed++
		d.CAMEntries += sc.PartitionSize()
		if sc.PartitionSize() > d.MaxStageCAM {
			d.MaxStageCAM = sc.PartitionSize()
		}
		d.MemoryWords += int(sc.SegmentWords)
	}
	return d
}

// Placement records where the pipeline's space-partitioned resources were
// allocated for a module: per-stage CAM address ranges and stateful-memory
// segments. The resource checker produces it at admission time.
type Placement struct {
	// CAMBase[s] is the first CAM address of the module's partition in
	// stage s; the partition size is len(Stages[s].Rules).
	CAMBase []int
	// SegBase[s] is the module's stateful-memory base in stage s.
	SegBase []uint8
}

// Commands flattens the module configuration into the ordered
// reconfiguration command stream that the control plane sends down the
// daisy chain. Every table entry becomes exactly one command, matching
// the one-entry-per-reconfiguration-packet format of Figure 7. It is a
// load's one encoding: the stream is sized in advance, its payloads are
// cut from one backing array, and the engine's shards and the device
// consume the same stream read-only.
func (m *ModuleConfig) Commands(pl Placement) ([]reconfig.Command, error) {
	cmds, _, err := m.AppendCommands(nil, nil, pl)
	return cmds, err
}

// AppendCommands appends the module's command stream to cmds and its
// payloads to buf, growing each once to fit, and returns both. A caller
// that pushes the stream and keeps nothing of it passes the previous
// stream's cmds[:0] and buf[:0], so a reload encodes into storage it
// already has. On error cmds and buf are returned as passed.
func (m *ModuleConfig) AppendCommands(cmds []reconfig.Command, buf []byte, pl Placement) ([]reconfig.Command, []byte, error) {
	if len(pl.CAMBase) < len(m.Stages) || len(pl.SegBase) < len(m.Stages) {
		return cmds, buf, fmt.Errorf("core: placement covers %d/%d stages, module %q needs %d",
			len(pl.CAMBase), len(pl.SegBase), m.Name, len(m.Stages))
	}
	n, size := 2, 2*parser.EntryBytes
	for s := range m.Stages {
		sc := &m.Stages[s]
		if !sc.Used {
			continue
		}
		n += 2 + 2*len(sc.Rules)
		size += keyExtractBytes + tables.KeyBytes + len(sc.Rules)*(camEntryBytes+alu.ActionBytes)
		if sc.SegmentWords > 0 {
			n++
			size += segmentBytes
		}
		if len(sc.Rules) > 0 && pl.CAMBase[s]+len(sc.Rules) > 0x100 {
			return cmds, buf, fmt.Errorf("core: CAM address %d exceeds 8-bit reconfiguration index",
				max(pl.CAMBase[s], 0x100))
		}
	}
	cmds = slices.Grow(cmds, n)
	buf = slices.Grow(buf, size)
	idx := uint8(m.ModuleID)
	// add appends a command whose payload is what buf gained since start.
	add := func(res reconfig.ResourceID, index uint8, start int) {
		cmds = append(cmds, reconfig.Command{Resource: res, Index: index, Payload: buf[start:len(buf):len(buf)]})
	}
	start := len(buf)
	buf = m.Parser.AppendEncode(buf)
	add(reconfig.MakeResourceID(0, reconfig.KindParser), idx, start)
	start = len(buf)
	buf = m.Deparser.AppendEncode(buf)
	add(reconfig.MakeResourceID(0, reconfig.KindDeparser), idx, start)
	for s := range m.Stages {
		sc := &m.Stages[s]
		if !sc.Used {
			continue
		}
		start = len(buf)
		buf = AppendKeyExtract(buf, sc.Extract)
		add(reconfig.MakeResourceID(s, reconfig.KindKeyExtract), idx, start)
		start = len(buf)
		buf = append(buf, sc.Mask[:]...)
		add(reconfig.MakeResourceID(s, reconfig.KindKeyMask), idx, start)
		if sc.SegmentWords > 0 {
			start = len(buf)
			buf = append(buf, pl.SegBase[s], sc.SegmentWords)
			add(reconfig.MakeResourceID(s, reconfig.KindSegment), idx, start)
		}
		e := tables.CAMEntry{Valid: true, ModID: m.ModuleID}
		for i := range sc.Rules {
			r := &sc.Rules[i]
			addr := uint8(pl.CAMBase[s] + i)
			e.Key, e.Mask = r.Key, r.Mask
			start = len(buf)
			buf = AppendCAMEntry(buf, &e)
			add(reconfig.MakeResourceID(s, reconfig.KindCAM), addr, start)
			start = len(buf)
			buf = r.Action.AppendEncode(buf)
			add(reconfig.MakeResourceID(s, reconfig.KindVLIW), addr, start)
		}
	}
	return cmds, buf, nil
}

// Partition reserves the module's CAM address ranges in the pipeline so
// the space-partitioning invariant is hardware-enforced before any entry
// is written. It holds the batch lock, like Apply.
func (p *Pipeline) Partition(m *ModuleConfig, pl Placement) error {
	if err := p.checkModule(m.ModuleID); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stamp(m.ModuleID)
	for s, sc := range m.Stages {
		if !sc.Used || sc.PartitionSize() == 0 {
			continue
		}
		lo := pl.CAMBase[s]
		hi := lo + sc.PartitionSize()
		if err := p.Stages[s].Match.Partition(m.ModuleID, lo, hi); err != nil {
			return fmt.Errorf("stage %d: %w", s, err)
		}
	}
	return nil
}
