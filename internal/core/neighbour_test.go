package core

import (
	"encoding/binary"
	"testing"

	"repro/internal/alu"
	"repro/internal/parser"
	"repro/internal/phv"
	"repro/internal/reconfig"
	"repro/internal/stage"
	"repro/internal/tables"
)

// neighbourTenant is a two-stage module. Stage 1 matches the 2-byte
// field at offset 46: four CAM rules steer 0xff00+i to port 1+i, and
// the flows the fixture installs steer field v to port 1+v%4, enough
// of them for hash mode. Stage 2 counts every frame in a one-word
// stateful segment.
func neighbourTenant(id uint16) *ModuleConfig {
	m := minimalModule(id, 0, alu.Action{})
	m.Stages[1].Rules = nil
	for i := uint16(0); i < 4; i++ {
		m.Stages[1].Rules = append(m.Stages[1].Rules, Rule{Key: mustKeyWith(0xff00 + i), Mask: m.Stages[1].Mask, Action: portAction(1 + i)})
	}
	var count alu.Action
	count[1] = alu.Instr{Op: alu.OpLoadd, A: alu.NoOperand}
	m.Stages[2] = StageConfig{Used: true, Rules: []Rule{{Action: count}}, SegmentWords: 1}
	return m
}

func portAction(port uint16) alu.Action {
	var a alu.Action
	a[24] = alu.Instr{Op: alu.OpPort, Imm: port}
	return a
}

// neighbourPlacement places tenant id's CAM rules at 4(id-1) in stage 1
// and id-1 in stage 2, and its stateful word at id-1.
func neighbourPlacement(id uint16) Placement {
	pl := defaultPlacement()
	pl.CAMBase[1], pl.CAMBase[2], pl.SegBase[2] = 4*int(id-1), int(id-1), uint8(id-1)
	return pl
}

// neighbourFlows is the number of flows each tenant installs in stage 1.
const neighbourFlows = 2 * stage.FlowScanThreshold

func flowCmd(mod, v uint16, addr int) reconfig.Command {
	return FlowCommand(1, AppendFlowEntry(nil, &FlowEntry{Valid: true, ModID: mod, Addr: uint16(addr), Key: mustKeyWith(v)}))
}

// commandOf returns the command of the given kind and stage in m's
// stream at pl.
func commandOf(t *testing.T, m *ModuleConfig, pl Placement, kind reconfig.Kind, stg int) reconfig.Command {
	t.Helper()
	cmds, err := m.Commands(pl)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cmds {
		if c.Resource.Kind() == kind && (kind.Stageless() || c.Resource.Stage() == stg) {
			return c
		}
	}
	t.Fatalf("no %v command in stage %d", kind, stg)
	return reconfig.Command{}
}

// parserCommand is a parser or deparser command for module 1 whose
// entry moves the 2-byte field to offset off.
func parserCommand(kind reconfig.Kind, off uint8) reconfig.Command {
	var e parser.Entry
	e.Actions[0] = parser.Action{Offset: off, Dest: phv.Ref{Type: phv.Type2B, Index: 0}, Valid: true}
	return reconfig.Command{Resource: reconfig.MakeResourceID(0, kind), Index: 1, Payload: e.AppendEncode(nil)}
}

// TestNeighbourWriteLeavesViewsAndFlowCache: a write re-resolves only
// the module whose views copy what it wrote. Tenants 1 and 2 run the
// same hash-mode module side by side with a flow cache. For each
// write, tenant 1's warm batch (its flows, its CAM rule 0xff00, and a
// key that misses) runs after the write and the row checks:
//   - a write by tenant 2, of any kind, leaves tenant 1's views at
//     their resolved stamp, and every frame of the batch still hits the
//     flow cache with its old outcome;
//   - a write by tenant 1 of a kind its views copy re-resolves them, and
//     the next frame sees the change;
//   - a VLIW or segment rewrite by tenant 1 takes effect on the next
//     frame with no re-resolution (the view reads both in place).
func TestNeighbourWriteLeavesViewsAndFlowCache(t *testing.T) {
	m1, m2 := neighbourTenant(1), neighbourTenant(2)
	pl1, pl2 := neighbourPlacement(1), neighbourPlacement(2)
	fields := []uint16{0xff00, 0xfe00} // CAM rule 0 (port 1); no rule or flow (port 0)
	for v := uint16(1); v <= neighbourFlows; v++ {
		fields = append(fields, v)
	}
	// wantPort is tenant 1's egress port for field v before any write.
	wantPort := func(v uint16) uint8 {
		switch v {
		case 0xff00:
			return 1
		case 0xfe00:
			return 0
		}
		return uint8(1 + v%4)
	}
	apply := func(cmd reconfig.Command) func(p *Pipeline) error {
		return func(p *Pipeline) error { return p.Apply(cmd) }
	}
	emptyEntry := func(addr uint8) reconfig.Command {
		return reconfig.Command{Resource: reconfig.MakeResourceID(1, reconfig.KindCAM), Index: addr, Payload: AppendCAMEntry(nil, &tables.CAMEntry{})}
	}
	ports := func(want func(v uint16) uint8) func(t *testing.T, p *Pipeline, res []BatchResult) {
		return func(t *testing.T, p *Pipeline, res []BatchResult) {
			for i, v := range fields {
				if r := &res[i]; r.Dropped || r.EgressPort != want(v) {
					t.Errorf("field %#x: dropped %v, port %d; want port %d", v, r.Dropped, r.EgressPort, want(v))
				}
			}
		}
	}
	portAfter := func(field uint16, port uint8) func(t *testing.T, p *Pipeline, res []BatchResult) {
		return ports(func(v uint16) uint8 {
			if v == field {
				return port
			}
			return wantPort(v)
		})
	}
	mask1 := commandOf(t, m1, pl1, reconfig.KindKeyMask, 1)
	lowByte := mustKeyWith(0x00ff) // flows (fields 1..32) still match; rule 0xff00 can no longer
	mask1.Payload = lowByte[:]
	extract1 := commandOf(t, m1, pl1, reconfig.KindKeyExtract, 1)
	extract1.Payload = AppendKeyExtract(nil, stage.KeyExtractEntry{C2: [2]uint8{1, 0}}) // an empty container: every key misses
	cam1 := commandOf(t, m1, pl1, reconfig.KindCAM, 1)
	cam1.Payload = AppendCAMEntry(nil, &tables.CAMEntry{Valid: true, ModID: 1, Key: mustKeyWith(0xff09), Mask: m1.Stages[1].Mask})
	vliw1 := commandOf(t, m1, pl1, reconfig.KindVLIW, 1)
	vliw1.Index = 1 // the action behind port 2
	port9 := portAction(9)
	vliw1.Payload = port9.AppendEncode(nil)
	seg1 := commandOf(t, m1, pl1, reconfig.KindSegment, 2)
	seg1.Payload = []byte{8, 1}

	rows := []struct {
		name     string
		writer   uint16 // the tenant whose configuration the write changes
		write    func(p *Pipeline) error
		resolves bool                                               // tenant 1's views re-resolve
		check    func(t *testing.T, p *Pipeline, res []BatchResult) // tenant 1's batch after the write; nil: unchanged, all cache hits
	}{
		{name: "parser", writer: 2, write: apply(commandOf(t, m2, pl2, reconfig.KindParser, 0))},
		{name: "deparser", writer: 2, write: apply(commandOf(t, m2, pl2, reconfig.KindDeparser, 0))},
		{name: "key-extract", writer: 2, write: apply(commandOf(t, m2, pl2, reconfig.KindKeyExtract, 1))},
		{name: "key-mask", writer: 2, write: apply(commandOf(t, m2, pl2, reconfig.KindKeyMask, 1))},
		{name: "cam", writer: 2, write: apply(commandOf(t, m2, pl2, reconfig.KindCAM, 1))},
		{name: "vliw", writer: 2, write: apply(commandOf(t, m2, pl2, reconfig.KindVLIW, 1))},
		{name: "segment", writer: 2, write: apply(commandOf(t, m2, pl2, reconfig.KindSegment, 2))},
		{name: "insert-flow", writer: 2, write: apply(flowCmd(2, 0xfe00, 4))},
		{name: "delete-rule", writer: 2, write: apply(emptyEntry(4))},
		{name: "partition", writer: 2, write: func(p *Pipeline) error { return p.Partition(m2, pl2) }},
		{name: "unload", writer: 2, write: func(p *Pipeline) error { return p.UnloadModule(2) }},

		{name: "parser", writer: 1, write: apply(parserCommand(reconfig.KindParser, 38)), resolves: true,
			// The field is now the UDP source port, 1, on every frame.
			check: ports(func(uint16) uint8 { return 2 })},
		{name: "deparser", writer: 1, write: apply(parserCommand(reconfig.KindDeparser, 44)), resolves: true,
			check: func(t *testing.T, p *Pipeline, res []BatchResult) {
				for i, v := range fields {
					if got := binary.BigEndian.Uint16(res[i].Data[44:]); got != v {
						t.Errorf("field %#x deparsed as %#x at offset 44", v, got)
					}
				}
			}},
		{name: "key-extract", writer: 1, write: apply(extract1), resolves: true, check: ports(func(uint16) uint8 { return 0 })},
		{name: "key-mask", writer: 1, write: apply(mask1), resolves: true, check: portAfter(0xff00, 0)},
		{name: "cam", writer: 1, write: apply(cam1), resolves: true, check: portAfter(0xff00, 0)},
		{name: "insert-flow", writer: 1, write: apply(flowCmd(1, 0xfe00, 2)), resolves: true, check: portAfter(0xfe00, 3)},
		{name: "delete-rule", writer: 1, write: apply(emptyEntry(0)), resolves: true, check: portAfter(0xff00, 0)},
		{name: "partition", writer: 1, write: func(p *Pipeline) error { return p.Partition(m1, pl1) }, resolves: true,
			check: ports(wantPort)},
		{name: "unload", writer: 1, write: func(p *Pipeline) error { return p.UnloadModule(1) }, resolves: true,
			check: func(t *testing.T, p *Pipeline, res []BatchResult) {
				for i, v := range fields {
					if !res[i].Dropped {
						t.Errorf("field %#x forwarded after its module's unload", v)
					}
				}
			}},

		{name: "vliw", writer: 1, write: apply(vliw1), check: ports(func(v uint16) uint8 {
			if wantPort(v) == 2 {
				return 9
			}
			return wantPort(v)
		})},
		{name: "segment", writer: 1, write: apply(seg1), check: func(t *testing.T, p *Pipeline, res []BatchResult) {
			if got, _ := p.Stages[2].Memory.Load(8); got != uint64(len(fields)) {
				t.Errorf("the counter's new word reads %d after one batch, want %d", got, len(fields))
			}
		}},
	}
	for _, row := range rows {
		name := row.name + "/neighbour"
		if row.writer == 1 {
			name = row.name + "/own"
		}
		t.Run(name, func(t *testing.T) {
			p := NewDefault()
			p.SetFlowCache(stage.NewFlowCache(0))
			for _, id := range []uint16{1, 2} {
				loadDirect(t, p, neighbourTenant(id), neighbourPlacement(id))
				for v := uint16(1); v <= neighbourFlows; v++ {
					if err := p.Apply(flowCmd(id, v, 4*int(id-1)+int(v%4))); err != nil {
						t.Fatal(err)
					}
				}
			}
			res := make([]BatchResult, len(fields))
			batch := func() {
				frames := make([][]byte, len(fields))
				for i, v := range fields {
					frames[i] = dataFrame(1, v)
				}
				if err := p.ProcessBatchInPlace(frames, 0, res); err != nil {
					t.Fatal(err)
				}
			}
			batch() // resolve tenant 1's views and fill its slots
			ports(wantPort)(t, p, res)
			if !p.batchViews[1].views[1].HashMode() {
				t.Fatal("tenant 1's stage 1 is not in hash mode")
			}
			gen := p.batchViews[1].gen
			hits, misses := p.FlowCacheStats()
			if err := row.write(p); err != nil {
				t.Fatal(err)
			}
			batch()
			if resolved := p.batchViews[1].gen != gen; resolved != row.resolves {
				t.Errorf("tenant 1's views re-resolved: %v, want %v", resolved, row.resolves)
			}
			if row.check != nil {
				row.check(t, p, res)
				return
			}
			ports(wantPort)(t, p, res)
			h, m := p.FlowCacheStats()
			if h-hits != uint64(len(fields)) || m != misses {
				t.Errorf("tenant 1's batch: %d flow-cache hits and %d misses, want %d and 0", h-hits, m-misses, len(fields))
			}
		})
	}
}
