package ctrlplane

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/parser"
	"repro/internal/phv"
	"repro/internal/reconfig"
	"repro/internal/tables"
)

// TestFlowInstallAllocations pins the control path's per-flow cost:
// deriving a flow's key allocates nothing, and re-installing an
// existing key allocates only the reconfiguration frame the daisy chain
// decodes.
func TestFlowInstallAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	p := core.NewDefault()
	c := New(p)
	if _, err := load(c, testModule(1, 3), placement()); err != nil {
		t.Fatal(err)
	}
	const stg = 1
	f := frame(1, 2)
	key, err := c.FlowKeyForFrame(1, stg, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InsertFlow(1, stg, key, 2); err != nil {
		t.Fatal(err)
	}
	pe, ok := p.Parser.EntryRef(1)
	if !ok {
		t.Fatal("module 1 has no parser entry")
	}
	var sink parser.Program
	for _, tc := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"Entry.Compile", 0, func() { sink = pe.Compile() }},
		{"FlowKeyForFrame", 0, func() {
			if _, err := c.FlowKeyForFrame(1, stg, f); err != nil {
				t.Fatal(err)
			}
		}},
		{"InsertFlow of an existing key", 1, func() {
			if err := c.InsertFlow(1, stg, key, 2); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(100, tc.fn); got > tc.max {
			t.Errorf("%s: %v allocations per call, want <= %v", tc.name, got, tc.max)
		}
	}
	_ = sink
	if n := p.Stages[stg].Hash.ModuleEntries(1); n != 1 {
		t.Fatalf("module 1 holds %d flows after re-installs of one key, want 1", n)
	}
}

// TestEncodePacketGolden pins the reconfiguration frame's bytes: a flow,
// a CAM and a parser command encode to exactly the frame a separately
// built Figure 7 body wrapped by packet.Builder.Build produces, into a
// fresh buffer and into a reused one full of stale bytes (the device
// push reuses one buffer for a whole stream).
func TestEncodePacketGolden(t *testing.T) {
	var key tables.Key
	for i := range key {
		key[i] = byte(3*i + 1)
	}
	var pe parser.Entry
	pe.Actions[0] = parser.Action{Offset: 46, Dest: phv.Ref{Type: phv.Type4B, Index: 1}, Valid: true}
	for _, tc := range []struct {
		name string
		mod  uint16
		cmd  reconfig.Command
	}{
		{"flow", 7, core.FlowCommand(2, core.FlowEntry{Valid: true, ModID: 7, Addr: 0x123, Key: key})},
		{"cam", 4095, reconfig.Command{
			Resource: reconfig.MakeResourceID(3, reconfig.KindCAM),
			Index:    9,
			Payload:  core.AppendCAMEntry(nil, &tables.CAMEntry{Valid: true, ModID: 4095, Key: key, Mask: tables.FullMask()}),
		}},
		{"parser", 1, reconfig.Command{
			Resource: reconfig.MakeResourceID(0, reconfig.KindParser),
			Index:    1,
			Payload:  pe.AppendEncode(nil),
		}},
	} {
		// Figure 7's payload header: resource ID, index, 15 bytes of padding.
		body := make([]byte, 18+len(tc.cmd.Payload))
		binary.BigEndian.PutUint16(body, uint16(tc.cmd.Resource)<<4)
		body[2] = tc.cmd.Index
		copy(body[18:], tc.cmd.Payload)
		want := packet.NewUDP(tc.mod,
			packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{10, 0, 0, 2},
			0xf1f1, reconfig.ReconfigUDPPort, body).MustBuild()
		got, err := reconfig.AppendPacket(nil, tc.mod, tc.cmd)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: AppendPacket =\n% x\nwant\n% x", tc.name, got, want)
		}
		reused, err := reconfig.AppendPacket(bytes.Repeat([]byte{0xaa}, 256)[:0], tc.mod, tc.cmd)
		if err != nil || !bytes.Equal(reused, want) {
			t.Errorf("%s: AppendPacket into a reused buffer =\n% x\nwant\n% x", tc.name, reused, want)
		}
	}
}
