package core_test

import (
	"bytes"
	"testing"

	"repro/internal/alu"
	"repro/internal/core"
	"repro/internal/ctrlplane"
	"repro/internal/packet"
	"repro/internal/parser"
	"repro/internal/phv"
	"repro/internal/reconfig"
	"repro/internal/stage"
	"repro/internal/sysmod"
	"repro/internal/tables"
)

// lockModule is a one-stage module: the 2-byte field at offset 46 is
// parsed into C2[0], keys stage 1's match, and the deparser writes C2[0]
// back. A frame carrying 7 hits the module's one rule, whose action
// sets C2[0] to mark, sends the frame to port, and, when the module has
// a segment, counts the hit in its word 0.
func lockModule(id, mark uint16, port uint8, segWords uint8) *core.ModuleConfig {
	var pe parser.Entry
	pe.Actions[0] = parser.Action{Offset: 46, Dest: phv.Ref{Type: phv.Type2B, Index: 0}, Valid: true}
	var mask, key tables.Key
	mask[20], mask[21] = 0xff, 0xff
	key[21] = 7
	var act alu.Action
	act[0] = alu.Instr{Op: alu.OpSet, A: alu.NoOperand, Imm: mark}
	act[24] = alu.Instr{Op: alu.OpPort, Imm: uint16(port)}
	if segWords > 0 {
		act[1] = alu.Instr{Op: alu.OpLoadd, A: alu.NoOperand}
	}
	m := &core.ModuleConfig{ModuleID: id, Name: "lock", Parser: pe, Deparser: pe, Stages: make([]core.StageConfig, core.NumStages)}
	m.Stages[1] = core.StageConfig{
		Used:         true,
		Extract:      stage.KeyExtractEntry{},
		Mask:         mask,
		Rules:        []core.Rule{{Key: key, Mask: mask, Action: act}},
		SegmentWords: segWords,
	}
	return m
}

func lockFrame(vid, field uint16) []byte {
	return packet.NewUDP(vid, packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{10, 0, 0, 2},
		1, 2, []byte{byte(field >> 8), byte(field)}).MustBuild()
}

// TestConfigWritesTakeTheBatchLock checks the lock discipline of the
// pipeline's state — configuration tables, stateful memory and traffic
// counters — which is plain memory guarded by the batch lock. Module 1
// is unloaded and reloaded over and over down the daisy chain — parser,
// deparser, key-extract, key-mask, segment, CAM and VLIW commands —
// with its rule deleted after every other load, while the control plane
// derives its flow keys and reads its stateful counter, its traffic
// stats, the system packet counter and the filter's verdict counts.
// Beside them run in-place batches that mix module 1 and module 2
// frames, and Process calls of module 2 frames. Module 2's output never
// changes. Under -race a read or write outside the lock is reported.
func TestConfigWritesTakeTheBatchLock(t *testing.T) {
	const reloads = 200
	p := core.NewDefault()
	client := ctrlplane.New(p)
	m1, m2 := lockModule(1, 0x1111, 1, 4), lockModule(2, 0x2222, 2, 0)
	pl1 := core.Placement{CAMBase: make([]int, core.NumStages), SegBase: make([]uint8, core.NumStages)}
	pl2 := core.Placement{CAMBase: make([]int, core.NumStages), SegBase: make([]uint8, core.NumStages)}
	pl2.CAMBase[1] = 1
	cmds1, err := m1.Commands(pl1)
	if err != nil {
		t.Fatal(err)
	}
	for _, ld := range []struct {
		m  *core.ModuleConfig
		pl core.Placement
	}{{m1, pl1}, {m2, pl2}} {
		cmds, err := ld.m.Commands(ld.pl)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.LoadModule(ld.m, ld.pl, cmds); err != nil {
			t.Fatal(err)
		}
	}
	in1, in2 := lockFrame(1, 7), lockFrame(2, 7)
	want, _, err := p.Process(in2, 0)
	if err != nil || want.Dropped || want.EgressPort != 2 || bytes.Equal(want.Data, in2) {
		t.Fatalf("module 2 before the reloads: %+v, %v", want, err)
	}

	done := make(chan struct{})
	ctrlDone := make(chan struct{})
	go func() {
		defer close(done)
		for i := range reloads {
			if err := client.UnloadModule(1); err != nil {
				t.Error(err)
				return
			}
			if _, err := client.LoadModule(m1, pl1, cmds1); err != nil {
				t.Error(err)
				return
			}
			// A deletion pushes a command too, so it runs here: a push
			// during LoadModule would break its counter check.
			if i%2 == 0 {
				if err := client.DeleteRule(1, 1, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	go func() {
		defer close(ctrlDone)
		for {
			select {
			case <-done:
				return
			default:
			}
			// Module 1 may be unloaded at either call: their errors
			// are expected.
			_, _ = client.FlowKeyForFrame(1, 1, in1)
			_, _ = client.ReadCounter(1, 1, 0)
			_, _, _ = client.Stats(1)
			_, _ = sysmod.PacketCount(p, 1)
			p.Locked(func() { _ = p.Filter.VerdictCount(reconfig.VerdictData) })
		}
	}()

	defer func() { <-done; <-ctrlDone }()
	frames := make([][]byte, 8)
	res := make([]core.BatchResult, len(frames))
	for i, running := 0, true; running || i < 50; i++ {
		select {
		case <-done:
			running = false
		default:
		}
		for f := range frames {
			if f%2 == 0 {
				frames[f] = append(frames[f][:0], in1...)
			} else {
				frames[f] = append(frames[f][:0], in2...)
			}
		}
		if err := p.ProcessBatchInPlace(frames, 0, res); err != nil {
			t.Fatal(err)
		}
		for f := 1; f < len(frames); f += 2 {
			if r := &res[f]; r.Dropped || r.EgressPort != want.EgressPort || !bytes.Equal(r.Data, want.Data) {
				t.Fatalf("batch %d: module 2 frame dropped %v, port %d, data changed %v",
					i, r.Dropped, r.EgressPort, !bytes.Equal(r.Data, want.Data))
			}
		}
		out, _, err := p.Process(in2, 0)
		if err != nil || out.Dropped || out.EgressPort != want.EgressPort || !bytes.Equal(out.Data, want.Data) {
			t.Fatalf("Process %d: module 2 frame dropped %v, port %d, data changed %v (%v)",
				i, out.Dropped, out.EgressPort, !bytes.Equal(out.Data, want.Data), err)
		}
	}
}
