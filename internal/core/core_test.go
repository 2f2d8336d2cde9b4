package core

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"

	"repro/internal/alu"
	"repro/internal/packet"
	"repro/internal/parser"
	"repro/internal/phv"
	"repro/internal/reconfig"
	"repro/internal/stage"
	"repro/internal/tables"
)

// minimalModule builds a hand-rolled single-stage module: parse a 2-byte
// field at offset 46 into C2[0], match value `key`, run `act`.
func minimalModule(id uint16, key uint16, act alu.Action) *ModuleConfig {
	var pe parser.Entry
	pe.Actions[0] = parser.Action{Offset: 46, Dest: phv.Ref{Type: phv.Type2B, Index: 0}, Valid: true}

	var mask tables.Key
	mask[20], mask[21] = 0xff, 0xff
	var k tables.Key
	k[20], k[21] = byte(key>>8), byte(key)

	m := &ModuleConfig{
		ModuleID: id,
		Name:     "minimal",
		Parser:   pe,
		Deparser: pe,
		Stages:   make([]StageConfig, NumStages),
	}
	m.Stages[1] = StageConfig{
		Used:    true,
		Extract: stage.KeyExtractEntry{},
		Mask:    mask,
		Rules:   []Rule{{Key: k, Mask: mask, Action: act}},
	}
	return m
}

func setC2(slot int, imm uint16) alu.Action {
	var a alu.Action
	a[slot] = alu.Instr{Op: alu.OpSet, A: alu.NoOperand, Imm: imm}
	return a
}

func defaultPlacement() Placement {
	return Placement{CAMBase: make([]int, NumStages), SegBase: make([]uint8, NumStages)}
}

// loadDirect installs a module via the daisy chain wire path.
func loadDirect(t *testing.T, p *Pipeline, m *ModuleConfig, pl Placement) {
	t.Helper()
	if err := p.Partition(m, pl); err != nil {
		t.Fatal(err)
	}
	cmds, err := m.Commands(pl)
	if err != nil {
		t.Fatal(err)
	}
	for _, cmd := range cmds {
		frame, err := reconfig.EncodePacket(m.ModuleID, cmd)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Chain.Push(frame); err != nil {
			t.Fatalf("push %v[%d]: %v", cmd.Resource, cmd.Index, err)
		}
	}
}

func dataFrame(vid uint16, field uint16) []byte {
	payload := []byte{byte(field >> 8), byte(field)}
	return packet.NewUDP(vid, packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{10, 0, 0, 2},
		1, 2, payload).MustBuild()
}

func TestPipelineProcessesViaWireConfig(t *testing.T) {
	p := NewDefault()
	loadDirect(t, p, minimalModule(1, 0xabcd, setC2(1, 42)), defaultPlacement())

	out, tr, err := p.Process(dataFrame(1, 0xabcd), 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dropped {
		t.Fatalf("dropped: %v", out.Verdict)
	}
	if got := out.PHV.MustGet(phv.Ref{Type: phv.Type2B, Index: 1}); got != 42 {
		t.Errorf("action result = %d", got)
	}
	if tr.FrameBytes != 48 || tr.ActiveStages != 1 || tr.CAMHits != 1 {
		t.Errorf("trace = %+v", tr)
	}
}

func TestPipelineDeparserWritesBack(t *testing.T) {
	p := NewDefault()
	// Action overwrites the parsed field; the deparser must write it back
	// into the output frame at offset 46.
	loadDirect(t, p, minimalModule(1, 0x0005, setC2(0, 0x9999)), defaultPlacement())
	out, _, err := p.Process(dataFrame(1, 5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Data[46] != 0x99 || out.Data[47] != 0x99 {
		t.Errorf("output bytes = %x", out.Data[46:48])
	}
}

func TestPipelineInputBufferUntouched(t *testing.T) {
	p := NewDefault()
	loadDirect(t, p, minimalModule(1, 0x0005, setC2(0, 0x9999)), defaultPlacement())
	in := dataFrame(1, 5)
	orig := append([]byte(nil), in...)
	out, _, err := p.Process(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != orig[i] {
			t.Fatal("Process mutated the input frame")
		}
	}
	if &out.Data[0] == &in[0] {
		t.Fatal("output aliases input; expected packet-buffer copy")
	}
}

func TestPipelineDropsModuleDiscard(t *testing.T) {
	p := NewDefault()
	var act alu.Action
	act[24] = alu.Instr{Op: alu.OpDiscard, A: 24}
	loadDirect(t, p, minimalModule(1, 1, act), defaultPlacement())
	out, _, err := p.Process(dataFrame(1, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Dropped || !out.DiscardedByModule {
		t.Errorf("out = %+v", out)
	}
	if p.StatsFor(1).Drops.Load() != 1 {
		t.Error("drop not counted")
	}
}

func TestPipelineUnknownModuleDrops(t *testing.T) {
	p := NewDefault()
	out, _, err := p.Process(dataFrame(9, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Dropped {
		t.Error("frame of unconfigured module must drop")
	}
}

func TestPipelineModuleIDRangeChecked(t *testing.T) {
	p := NewDefault()
	_, _, err := p.Process(dataFrame(40, 1), 0) // > 31
	if !errors.Is(err, ErrModuleRange) {
		t.Errorf("err = %v", err)
	}
}

func TestApplyRejectsBadCommands(t *testing.T) {
	p := NewDefault()
	bad := []reconfig.Command{
		{Resource: reconfig.MakeResourceID(9, reconfig.KindCAM), Index: 0, Payload: make([]byte, 64)},
		{Resource: reconfig.MakeResourceID(0, reconfig.KindCAM), Index: 0, Payload: []byte{1}},
		{Resource: reconfig.MakeResourceID(0, reconfig.KindVLIW), Index: 0, Payload: []byte{1}},
		{Resource: reconfig.MakeResourceID(0, reconfig.KindSegment), Index: 0, Payload: []byte{1}},
		{Resource: reconfig.ResourceID(0x99), Index: 0, Payload: []byte{1, 2, 3, 4}},
	}
	for _, cmd := range bad {
		if err := p.Apply(cmd); err == nil {
			t.Errorf("command %v accepted", cmd.Resource)
		}
	}
}

func TestEncodeDecodeCAMEntryRoundTrip(t *testing.T) {
	e := tables.CAMEntry{Valid: true, ModID: 12}
	e.Key[0], e.Key[24] = 0xaa, 0x01
	e.Mask = tables.FullMask()
	b := EncodeCAMEntry(e)
	got, err := DecodeCAMEntry(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestEncodeDecodeKeyExtractRoundTrip(t *testing.T) {
	e := stage.KeyExtractEntry{
		C6: [2]uint8{1, 2}, C4: [2]uint8{3, 4}, C2: [2]uint8{5, 6},
		PredOp: stage.PredLe,
		PredA:  stage.Operand{IsContainer: true, Slot: 3},
		PredB:  stage.Operand{Imm: 9},
	}
	got, err := DecodeKeyExtract(EncodeKeyExtract(e))
	if err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestUnloadModuleClearsAndOthersSurvive(t *testing.T) {
	p := NewDefault()
	pl1 := defaultPlacement()
	loadDirect(t, p, minimalModule(1, 7, setC2(1, 11)), pl1)
	pl2 := defaultPlacement()
	pl2.CAMBase[1] = 1
	loadDirect(t, p, minimalModule(2, 7, setC2(1, 22)), pl2)

	if err := p.UnloadModule(1); err != nil {
		t.Fatal(err)
	}
	out, _, err := p.Process(dataFrame(1, 7), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Dropped {
		t.Error("unloaded module still processes packets")
	}
	out, _, err = p.Process(dataFrame(2, 7), 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dropped {
		t.Errorf("module 2 broken by module 1 unload: %v", out.Verdict)
	}
}

func TestPartitionOverlapRejected(t *testing.T) {
	p := NewDefault()
	m1 := minimalModule(1, 7, setC2(1, 1))
	if err := p.Partition(m1, defaultPlacement()); err != nil {
		t.Fatal(err)
	}
	m2 := minimalModule(2, 8, setC2(1, 2))
	if err := p.Partition(m2, defaultPlacement()); err == nil {
		t.Error("overlapping CAM partition accepted")
	}
}

func TestModuleStatsCount(t *testing.T) {
	p := NewDefault()
	loadDirect(t, p, minimalModule(1, 7, setC2(1, 1)), defaultPlacement())
	for i := 0; i < 3; i++ {
		if _, _, err := p.Process(dataFrame(1, 7), 0); err != nil {
			t.Fatal(err)
		}
	}
	s := p.StatsFor(1)
	if s.Packets.Load() != 3 {
		t.Errorf("packets = %d", s.Packets.Load())
	}
	if s.Bytes.Load() != 3*48 {
		t.Errorf("bytes = %d", s.Bytes.Load())
	}
}

func TestRMTGeometrySingleModule(t *testing.T) {
	p := NewRMT(Unoptimized())
	if p.Geometry.MaxModules != 1 {
		t.Errorf("RMT MaxModules = %d", p.Geometry.MaxModules)
	}
	loadDirect(t, p, minimalModule(0, 3, setC2(1, 5)), defaultPlacement())
	out, _, err := p.Process(dataFrame(0, 3), 0)
	if err != nil || out.Dropped {
		t.Fatalf("RMT processing failed: %v %v", err, out)
	}
	// A second module does not fit.
	if _, _, err := p.Process(dataFrame(1, 3), 0); !errors.Is(err, ErrModuleRange) {
		t.Errorf("module 1 on RMT: %v", err)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Unoptimized()
	if o.NumParsers != 1 || o.NumDeparsers != 1 || o.DeepPipelining || o.MaskRAMLatency {
		t.Errorf("Unoptimized = %+v", o)
	}
	o = Optimized()
	if o.NumParsers != 2 || o.NumDeparsers != 4 || !o.DeepPipelining || !o.MaskRAMLatency {
		t.Errorf("Optimized = %+v", o)
	}
}

func TestSegmentConfiguredViaCommands(t *testing.T) {
	p := NewDefault()
	m := minimalModule(1, 1, func() alu.Action {
		var a alu.Action
		a[1] = alu.Instr{Op: alu.OpLoadd, A: alu.NoOperand, Imm: 0}
		return a
	}())
	m.Stages[1].SegmentWords = 4
	pl := defaultPlacement()
	pl.SegBase[1] = 8
	loadDirect(t, p, m, pl)

	if _, _, err := p.Process(dataFrame(1, 1), 0); err != nil {
		t.Fatal(err)
	}
	// Counter lives at physical 8 (base) + 0.
	if v, _ := p.Stages[1].Memory.Load(8); v != 1 {
		t.Errorf("counter at base = %d", v)
	}
}

func TestRoundRobinBufferAndParserAssignment(t *testing.T) {
	p := NewDefault() // 2 parsers, 4 deparsers
	loadDirect(t, p, minimalModule(1, 7, setC2(1, 1)), defaultPlacement())
	var bufs, parsers []uint8
	for i := 0; i < 8; i++ {
		out, _, err := p.Process(dataFrame(1, 7), 0)
		if err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, out.BufferTag)
		parsers = append(parsers, out.ParserNum)
	}
	for i := range bufs {
		if bufs[i] != uint8(i%4) {
			t.Fatalf("buffer tags not round robin over 4: %v", bufs)
		}
		if parsers[i] != uint8(i%2) {
			t.Fatalf("parser numbers not round robin over 2: %v", parsers)
		}
	}
	// The PHV metadata carries the one-hot buffer tag for the last stage
	// (§3.2).
	out, _, _ := p.Process(dataFrame(1, 7), 0)
	if out.PHV.BufferTag() != out.BufferTag {
		t.Errorf("PHV tag %d != output tag %d", out.PHV.BufferTag(), out.BufferTag)
	}
}

func TestTraceAccounting(t *testing.T) {
	p := NewDefault()
	m := minimalModule(1, 7, func() alu.Action {
		var a alu.Action
		a[1] = alu.Instr{Op: alu.OpLoadd, A: alu.NoOperand, Imm: 0}
		return a
	}())
	m.Stages[1].SegmentWords = 2
	// A second active stage that misses.
	m.Stages[2] = m.Stages[1]
	m.Stages[2].SegmentWords = 0
	m.Stages[2].Rules = []Rule{{Key: mustKeyWith(0x99), Mask: m.Stages[1].Mask, Action: setC2(2, 9)}}
	pl := defaultPlacement()
	loadDirect(t, p, m, pl)

	out, tr, err := p.Process(dataFrame(1, 7), 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dropped {
		t.Fatalf("dropped: %v", out.Verdict)
	}
	if tr.ParsedFields != 1 {
		t.Errorf("ParsedFields = %d", tr.ParsedFields)
	}
	if tr.ActiveStages != 2 {
		t.Errorf("ActiveStages = %d", tr.ActiveStages)
	}
	if tr.CAMHits != 1 { // stage 1 hits (key 7), stage 2 misses (wants 0x99)
		t.Errorf("CAMHits = %d", tr.CAMHits)
	}
	if tr.MemOps != 1 {
		t.Errorf("MemOps = %d", tr.MemOps)
	}
}

func mustKeyWith(v uint16) tables.Key {
	var k tables.Key
	k[20], k[21] = byte(v>>8), byte(v)
	return k
}

func TestReconfigDuringTrafficIsRaceFree(t *testing.T) {
	// Concurrent data traffic and daisy-chain reconfiguration: memory
	// safety under -race, and module 2 never misbehaves while module 1 is
	// rewritten in a loop.
	p := NewDefault()
	loadDirect(t, p, minimalModule(1, 7, setC2(1, 11)), defaultPlacement())
	pl2 := defaultPlacement()
	pl2.CAMBase[1] = 1
	loadDirect(t, p, minimalModule(2, 7, setC2(1, 22)), pl2)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			cmd := reconfig.Command{
				Resource: reconfig.MakeResourceID(1, reconfig.KindVLIW),
				Index:    0,
				Payload: func() []byte {
					a := setC2(1, uint16(i))
					return a.Encode()
				}(),
			}
			frame, err := reconfig.EncodePacket(1, cmd)
			if err != nil {
				t.Error(err)
				return
			}
			if err := p.Chain.Push(frame); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		out, _, err := p.Process(dataFrame(2, 7), 0)
		if err != nil {
			t.Fatal(err)
		}
		if v := out.PHV.MustGet(phv.Ref{Type: phv.Type2B, Index: 1}); v != 22 {
			t.Fatalf("module 2 observed module 1's update: %d", v)
		}
	}
	<-done
}

// TestProcessInterleavedWithProcessBatch runs one frame sequence twice —
// every frame through Process, then the same frames alternating between
// Process and ProcessBatchInPlace runs on a second pipeline — and
// requires the two pipelines to end in the same state: the two share
// the filter's round-robin position, its verdict counters and the module
// stats, so how the frames were grouped must not be observable.
func TestProcessInterleavedWithProcessBatch(t *testing.T) {
	var discard alu.Action
	discard[24] = alu.Instr{Op: alu.OpDiscard, A: 24}
	build := func() *Pipeline {
		p := NewDefault()
		loadDirect(t, p, minimalModule(1, 7, setC2(0, 0x9999)), defaultPlacement())
		pl2 := defaultPlacement()
		pl2.CAMBase[1] = 1
		loadDirect(t, p, minimalModule(2, 7, discard), pl2)
		return p
	}
	reconfigFrame, err := reconfig.EncodePacket(1, reconfig.Command{
		Resource: reconfig.MakeResourceID(0, reconfig.KindParser), Payload: make([]byte, parser.EntryBytes)})
	if err != nil {
		t.Fatal(err)
	}
	untagged := make([]byte, 64)
	var frames [][]byte
	for i := 0; i < 4; i++ {
		frames = append(frames,
			dataFrame(1, 7),  // forwarded, rewritten
			dataFrame(2, 7),  // discarded by module 2's action
			reconfigFrame,    // dropped at the filter, no round-robin slot
			dataFrame(1, 8),  // forwarded on a miss
			dataFrame(9, 7),  // admitted, no such module
			untagged,         // dropped at the filter
			dataFrame(40, 7), // admitted, module ID out of range
		)
	}
	// The second half of the sequence runs with module 2's update bit set.
	phases := [][][]byte{frames[:14], frames[14:]}

	// seen is what either method reports about a frame; the round-robin
	// tags are only visible through Process (tagged).
	type seen struct {
		verdict                    reconfig.Verdict
		dropped, discarded, failed bool
		data                       string
		tagged                     bool
		buffer, parser             uint8
	}
	viaProcess := func(p *Pipeline, f []byte) seen {
		out, _, err := p.Process(f, 0)
		return seen{out.Verdict, out.Dropped, out.DiscardedByModule, err != nil, hex.EncodeToString(out.Data),
			true, out.BufferTag, out.ParserNum}
	}

	ref := build()
	var want []seen
	for ph, fs := range phases {
		ref.Filter.SetUpdating(2, ph == 1)
		for _, f := range fs {
			want = append(want, viaProcess(ref, f))
		}
	}

	// Mixed: one frame through Process, then a run of 1..4 through
	// ProcessBatchInPlace, and so on.
	mixed := build()
	var got []seen
	res := make([]BatchResult, 4)
	for ph, fs := range phases {
		mixed.Filter.SetUpdating(2, ph == 1)
		for run := 1; len(fs) > 0; run = run%4 + 1 {
			got = append(got, viaProcess(mixed, fs[0]))
			n := min(run, len(fs)-1)
			batch := make([][]byte, n) // in-place: the batch gets its own copies
			for i, f := range fs[1 : 1+n] {
				batch[i] = bytes.Clone(f)
			}
			if err := mixed.ProcessBatchInPlace(batch, 0, res); err != nil {
				t.Fatal(err)
			}
			for _, r := range res[:n] {
				got = append(got, seen{verdict: r.Verdict, dropped: r.Dropped, discarded: r.DiscardedByModule,
					failed: r.Err != nil, data: hex.EncodeToString(r.Data)})
			}
			fs = fs[1+n:]
		}
	}
	for i, w := range want {
		if !got[i].tagged {
			w.tagged, w.buffer, w.parser = false, 0, 0
		}
		if got[i] != w {
			t.Errorf("frame %d: mixed run %+v, all-Process run %+v", i, got[i], w)
		}
	}

	for v := reconfig.VerdictData; v <= reconfig.VerdictControl; v++ {
		if g, w := mixed.Filter.VerdictCount(v), ref.Filter.VerdictCount(v); g != w {
			t.Errorf("verdict %v counted %d times, %d in the all-Process run", v, g, w)
		}
	}
	for _, id := range []uint16{1, 2, 9} {
		g, w := mixed.StatsFor(id), ref.StatsFor(id)
		if g.Packets.Load() != w.Packets.Load() || g.Bytes.Load() != w.Bytes.Load() || g.Drops.Load() != w.Drops.Load() {
			t.Errorf("module %d stats: packets/bytes/drops %d/%d/%d, all-Process run %d/%d/%d", id,
				g.Packets.Load(), g.Bytes.Load(), g.Drops.Load(),
				w.Packets.Load(), w.Bytes.Load(), w.Drops.Load())
		}
	}
	if w := ref.StatsFor(1); w.Packets.Load() != 8 || ref.StatsFor(2).Drops.Load() != 4 {
		t.Errorf("reference run: module 1 forwarded %d (want 8), module 2 dropped %d (want 4: 2 discards + 2 while updating)",
			w.Packets.Load(), ref.StatsFor(2).Drops.Load())
	}
}
