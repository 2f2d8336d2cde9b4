package ctrlplane

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/parser"
	"repro/internal/phv"
	"repro/internal/reconfig"
	"repro/internal/tables"
)

// TestFlowInstallAllocations pins the control path's per-write cost on
// a warm client: deriving a flow's key, re-installing an existing key,
// and deleting and re-inserting a rule allocate nothing, because every
// write encodes into the client's one payload buffer and one frame.
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
		{"InsertFlow of an existing key", 0, func() {
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

	// A rule write needs a free address and a delete a valid one, so the
	// two alternate, each measured on its own. Round 0 warms the client's
	// buffers to a rule's size.
	var ms runtime.MemStats
	mallocs := func(fn func() error) uint64 {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		return ms.Mallocs - before
	}
	var del, ins uint64
	for i := 0; i <= 100; i++ {
		if i == 1 {
			del, ins = 0, 0
		}
		del += mallocs(func() error { return c.DeleteRule(1, stg, 0) })
		ins += mallocs(func() error {
			addr, _, err := c.InsertRule(1, stg, rule(i))
			if err == nil && addr != 0 {
				t.Fatalf("InsertRule took address %d, want the freed 0", addr)
			}
			return err
		})
	}
	// Averaged per call like testing.AllocsPerRun, so an allocation of
	// another goroutine during the loop does not count.
	if del/100 != 0 || ins/100 != 0 {
		t.Errorf("DeleteRule and InsertRule allocate %d and %d times per call, want 0", del/100, ins/100)
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
		{"flow", 7, core.FlowCommand(2, core.AppendFlowEntry(nil, &core.FlowEntry{Valid: true, ModID: 7, Addr: 0x123, Key: key}))},
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
