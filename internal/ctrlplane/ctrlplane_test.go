package ctrlplane

import (
	"errors"
	"testing"

	"repro/internal/alu"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/parser"
	"repro/internal/phv"
	"repro/internal/stage"
	"repro/internal/tables"
)

func testModule(id uint16, nRules int) *core.ModuleConfig {
	var pe parser.Entry
	pe.Actions[0] = parser.Action{Offset: 46, Dest: phv.Ref{Type: phv.Type2B, Index: 0}, Valid: true}
	var mask tables.Key
	mask[20], mask[21] = 0xff, 0xff
	m := &core.ModuleConfig{
		ModuleID: id, Name: "t", Parser: pe, Deparser: pe,
		Stages: make([]core.StageConfig, core.NumStages),
	}
	rules := make([]core.Rule, nRules)
	for i := range rules {
		var k tables.Key
		k[20], k[21] = byte(i>>8), byte(i)
		var a alu.Action
		a[1] = alu.Instr{Op: alu.OpSet, A: alu.NoOperand, Imm: uint16(i)}
		rules[i] = core.Rule{Key: k, Mask: mask, Action: a}
	}
	m.Stages[1] = core.StageConfig{
		Used: true, Extract: stage.KeyExtractEntry{}, Mask: mask,
		Rules: rules, SegmentWords: 4,
	}
	return m
}

// load encodes m's command stream at pl and loads it.
func load(c *Client, m *core.ModuleConfig, pl core.Placement) (Report, error) {
	cmds, err := m.Commands(pl)
	if err != nil {
		return Report{}, err
	}
	return c.LoadModule(m, pl, cmds)
}

func placement() core.Placement {
	return core.Placement{CAMBase: make([]int, core.NumStages), SegBase: make([]uint8, core.NumStages)}
}

func frame(vid, field uint16) []byte {
	return packet.NewUDP(vid, packet.IPv4Addr{}, packet.IPv4Addr{}, 1, 2,
		[]byte{byte(field >> 8), byte(field)}).MustBuild()
}

func TestLoadModuleInstallsEverything(t *testing.T) {
	p := core.NewDefault()
	c := New(p)
	rep, err := load(c, testModule(1, 3), placement())
	if err != nil {
		t.Fatal(err)
	}
	// parser+deparser+keyext+mask+segment + 3x(cam+vliw) = 11 commands.
	if rep.Commands != 11 {
		t.Errorf("commands = %d, want 11", rep.Commands)
	}
	if rep.HardwareTime <= 0 || rep.AXILOnlyTime <= rep.HardwareTime {
		t.Errorf("times: hw=%v axil=%v (daisy chain must beat AXI-L)", rep.HardwareTime, rep.AXILOnlyTime)
	}
	out, _, err := p.Process(frame(1, 2), 0)
	if err != nil || out.Dropped {
		t.Fatalf("processing after load: %v %+v", err, out)
	}
	if got := out.PHV.MustGet(phv.Ref{Type: phv.Type2B, Index: 1}); got != 2 {
		t.Errorf("rule action result = %d", got)
	}
}

func TestLoadModuleBitmapClearedAfter(t *testing.T) {
	p := core.NewDefault()
	c := New(p)
	if _, err := load(c, testModule(1, 1), placement()); err != nil {
		t.Fatal(err)
	}
	if p.Filter.Bitmap() != 0 {
		t.Errorf("bitmap = %#x after load", p.Filter.Bitmap())
	}

	// A failed load clears the bit too: stage 1's key extractor carries
	// a predicate opcode the pipeline rejects.
	bad := testModule(2, 1)
	bad.Stages[1].Extract = stage.KeyExtractEntry{PredOp: 15}
	pl := placement()
	pl.CAMBase[1] = 1
	pl.SegBase[1] = 4
	if _, err := load(c, bad, pl); err == nil {
		t.Fatal("load with a rejected command succeeded")
	}
	if p.Filter.Bitmap() != 0 {
		t.Errorf("bitmap = %#x after failed load", p.Filter.Bitmap())
	}
}

func TestInsertAndDeleteRule(t *testing.T) {
	p := core.NewDefault()
	c := New(p)
	if _, err := load(c, testModule(1, 2), placement()); err != nil {
		t.Fatal(err)
	}
	// Partition is [0,2); no free slot inside -> ErrNoSpace.
	var k tables.Key
	k[20], k[21] = 0x7f, 0x7f
	var act alu.Action
	act[1] = alu.Instr{Op: alu.OpSet, A: alu.NoOperand, Imm: 0x7f}
	rule := core.Rule{Key: k, Mask: tables.FullMask(), Action: act}
	if _, _, err := c.InsertRule(1, 1, rule); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("expected ErrNoSpace, got %v", err)
	}
	// Delete one, insert fits.
	if err := c.DeleteRule(1, 1, 0); err != nil {
		t.Fatal(err)
	}
	addr, rep, err := c.InsertRule(1, 1, rule)
	if err != nil {
		t.Fatal(err)
	}
	if addr != 0 || rep.Commands != 2 {
		t.Errorf("addr=%d commands=%d", addr, rep.Commands)
	}
}

func TestDeleteRuleOwnershipChecked(t *testing.T) {
	p := core.NewDefault()
	c := New(p)
	if _, err := load(c, testModule(1, 1), placement()); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteRule(2, 1, 0); err == nil {
		t.Error("module 2 deleted module 1's rule")
	}
	if err := c.DeleteRule(1, 9, 0); err == nil {
		t.Error("bad stage accepted")
	}
}

func TestReadCounter(t *testing.T) {
	p := core.NewDefault()
	c := New(p)
	if _, err := load(c, testModule(1, 1), placement()); err != nil {
		t.Fatal(err)
	}
	if err := p.Stages[1].Memory.Store(2, 99); err != nil {
		t.Fatal(err)
	}
	v, err := c.ReadCounter(1, 1, 2)
	if err != nil || v != 99 {
		t.Errorf("ReadCounter = %d, %v", v, err)
	}
	if _, err := c.ReadCounter(1, 1, 100); err == nil {
		t.Error("out-of-segment read allowed")
	}
}

func TestAXILWritesMatchPaperArithmetic(t *testing.T) {
	// Appendix A: one VLIW entry needs ceil(625/32)=20 writes, one CAM
	// entry ceil(205/32)=7.
	if VLIWEntryWrites != 20 || CAMEntryWrites != 7 {
		t.Errorf("writes = %d,%d", VLIWEntryWrites, CAMEntryWrites)
	}
	if n := axilWritesFor(make([]byte, alu.ActionBytes)); n != 20 {
		t.Errorf("axilWritesFor(VLIW) = %d", n)
	}
}

func TestSweepTimesScaleWithEntries(t *testing.T) {
	p := core.NewDefault()
	c := New(p)
	small, err := load(c, testModule(1, 2), placement())
	if err != nil {
		t.Fatal(err)
	}
	pl := placement()
	pl.CAMBase[1] = 2
	pl.SegBase[1] = 4
	big, err := load(c, testModule(2, 10), pl)
	if err != nil {
		t.Fatal(err)
	}
	if big.HardwareTime <= small.HardwareTime {
		t.Error("configuration time should grow with entry count")
	}
}

func TestUnloadViaClient(t *testing.T) {
	p := core.NewDefault()
	c := New(p)
	if _, err := load(c, testModule(1, 1), placement()); err != nil {
		t.Fatal(err)
	}
	if err := c.UnloadModule(1); err != nil {
		t.Fatal(err)
	}
	out, _, err := p.Process(frame(1, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Dropped {
		t.Error("unloaded module still forwards")
	}
}

func TestStats(t *testing.T) {
	p := core.NewDefault()
	c := New(p)
	if _, err := load(c, testModule(1, 1), placement()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Process(frame(1, 0), 0); err != nil {
		t.Fatal(err)
	}
	pk, by, dr := c.Stats(1)
	if pk != 1 || by == 0 || dr != 0 {
		t.Errorf("stats = %d,%d,%d", pk, by, dr)
	}
}

// A lossless load is a single pass: the chain counter advances by
// exactly the commands the report says were sent.
func TestLoadModuleSingleAttemptWhenLossless(t *testing.T) {
	p := core.NewDefault()
	c := New(p)
	before := p.Chain.Counter()
	rep, err := load(c, testModule(1, 3), placement())
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Chain.Counter() - before; got != uint32(rep.Commands) {
		t.Errorf("counter advanced %d, report says %d commands", got, rep.Commands)
	}
}

// The device makes one pass, so a load the pipeline refuses gives up on
// that first attempt: it stops at the rejected command and resends
// nothing.
func TestLoadModuleGivesUpAfterMaxAttempts(t *testing.T) {
	p := core.NewDefault()
	c := New(p)
	bad := testModule(1, 1)
	bad.Stages[1].Extract = stage.KeyExtractEntry{PredOp: 15}
	cmds, err := bad.Commands(placement())
	if err != nil {
		t.Fatal(err)
	}
	before := p.Chain.Counter()
	if _, err := load(c, bad, placement()); err == nil {
		t.Fatal("load with a rejected command succeeded")
	}
	if sent := p.Chain.Counter() - before; sent >= uint32(len(cmds)) {
		t.Errorf("chain saw %d packets for a %d-command load that failed part way", sent, len(cmds))
	}
}
