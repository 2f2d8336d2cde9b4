package parser

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/phv"
	"repro/internal/tables"
)

func TestActionEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Action{
		{},
		{Offset: 46, Dest: phv.Ref{Type: phv.Type2B, Index: 3}, Valid: true},
		{Offset: 127, Dest: phv.Ref{Type: phv.Type6B, Index: 7}, Valid: true},
		{Offset: 0, Dest: phv.Ref{Type: phv.Type4B, Index: 0}, Valid: false},
	}
	for _, a := range cases {
		got := DecodeAction(a.Encode())
		if got != a {
			t.Errorf("round trip %+v -> %+v", a, got)
		}
	}
}

func TestActionEncodeFitsIn16Bits(t *testing.T) {
	a := Action{Offset: 0x7f, Dest: phv.Ref{Type: phv.Type6B, Index: 7}, Valid: true}
	_ = a.Encode() // uint16 by construction; check field packing instead
	d := DecodeAction(a.Encode())
	if d.Offset != 0x7f || d.Dest.Index != 7 {
		t.Errorf("packing lost bits: %+v", d)
	}
}

func TestActionValidate(t *testing.T) {
	good := Action{Offset: 46, Dest: phv.Ref{Type: phv.Type4B, Index: 1}, Valid: true}
	if err := good.Validate(); err != nil {
		t.Errorf("good action: %v", err)
	}
	meta := Action{Offset: 0, Dest: phv.Ref{Type: phv.TypeMeta, Index: 0}, Valid: true}
	if err := meta.Validate(); err == nil {
		t.Error("metadata destination should be rejected")
	}
	over := Action{Offset: 125, Dest: phv.Ref{Type: phv.Type6B, Index: 0}, Valid: true}
	if err := over.Validate(); err == nil {
		t.Error("extraction past the 128-byte window should be rejected")
	}
	invalid := Action{}
	if err := invalid.Validate(); err != nil {
		t.Errorf("invalid action is a no-op and always fine: %v", err)
	}
}

func TestEntryRoundTripAndWidth(t *testing.T) {
	var e Entry
	e.Actions[0] = Action{Offset: 46, Dest: phv.Ref{Type: phv.Type2B, Index: 0}, Valid: true}
	e.Actions[9] = Action{Offset: 100, Dest: phv.Ref{Type: phv.Type6B, Index: 2}, Valid: true}
	enc := e.AppendEncode(nil)
	if len(enc) != EntryBytes {
		t.Fatalf("entry bytes = %d, want %d (160 bits)", len(enc), EntryBytes)
	}
	back, err := DecodeEntry(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back != e {
		t.Error("entry round trip mismatch")
	}
	if _, err := DecodeEntry(enc[:10]); err == nil {
		t.Error("short entry should fail")
	}
}

func TestEntryValidateDuplicateDest(t *testing.T) {
	var e Entry
	e.Actions[0] = Action{Offset: 20, Dest: phv.Ref{Type: phv.Type2B, Index: 0}, Valid: true}
	e.Actions[1] = Action{Offset: 30, Dest: phv.Ref{Type: phv.Type2B, Index: 0}, Valid: true}
	if err := e.Validate(); err == nil {
		t.Error("duplicate destination container should be rejected")
	}
}

func TestParseFillsContainers(t *testing.T) {
	p := New(tables.OverlayDepth)
	var e Entry
	e.Actions[0] = Action{Offset: 46, Dest: phv.Ref{Type: phv.Type2B, Index: 0}, Valid: true}
	e.Actions[1] = Action{Offset: 48, Dest: phv.Ref{Type: phv.Type4B, Index: 1}, Valid: true}
	if err := p.Set(3, e); err != nil {
		t.Fatal(err)
	}

	payload := []byte{0xaa, 0xbb, 0x11, 0x22, 0x33, 0x44}
	frame := packet.NewUDP(3, packet.IPv4Addr{}, packet.IPv4Addr{}, 1, 2, payload).MustBuild()

	var v phv.PHV
	if err := p.Parse(frame, 3, &v); err != nil {
		t.Fatal(err)
	}
	if got := v.MustGet(phv.Ref{Type: phv.Type2B, Index: 0}); got != 0xaabb {
		t.Errorf("2B extract = %#x", got)
	}
	if got := v.MustGet(phv.Ref{Type: phv.Type4B, Index: 1}); got != 0x11223344 {
		t.Errorf("4B extract = %#x", got)
	}
	if v.PacketLen() != uint16(len(frame)) {
		t.Errorf("PacketLen = %d, want %d", v.PacketLen(), len(frame))
	}
}

func TestParseZeroesPHVFirst(t *testing.T) {
	p := New(4)
	if err := p.Set(0, Entry{}); err != nil {
		t.Fatal(err)
	}
	var v phv.PHV
	v.MustSet(phv.Ref{Type: phv.Type6B, Index: 3}, 0xdeadbeef)
	v.ModuleID = 31
	frame := packet.NewUDP(0, packet.IPv4Addr{}, packet.IPv4Addr{}, 1, 2, nil).MustBuild()
	if err := p.Parse(frame, 0, &v); err != nil {
		t.Fatal(err)
	}
	if v.MustGet(phv.Ref{Type: phv.Type6B, Index: 3}) != 0 {
		t.Error("stale container contents survived Parse (isolation leak)")
	}
}

func TestParseShortPacketZeroFills(t *testing.T) {
	p := New(4)
	var e Entry
	e.Actions[0] = Action{Offset: 60, Dest: phv.Ref{Type: phv.Type6B, Index: 0}, Valid: true}
	if err := p.Set(0, e); err != nil {
		t.Fatal(err)
	}
	frame := packet.NewUDP(0, packet.IPv4Addr{}, packet.IPv4Addr{}, 1, 2, []byte{0xff}).MustBuild()
	// frame is 47 bytes; extraction at 60 reads past the end.
	var v phv.PHV
	if err := p.Parse(frame, 0, &v); err != nil {
		t.Fatal(err)
	}
	if v.MustGet(phv.Ref{Type: phv.Type6B, Index: 0}) != 0 {
		t.Error("reads past packet end must be zero")
	}
}

// TestParseWindowAtFrameEnd covers the three ways a window meets the
// end of the frame: ending exactly at it (copied whole), straddling it
// (the tail zero-filled) and starting past it (all zero).
func TestParseWindowAtFrameEnd(t *testing.T) {
	frame := packet.NewUDP(0, packet.IPv4Addr{}, packet.IPv4Addr{}, 1, 2, []byte{0xa1, 0xb2, 0xc3, 0xd4, 0xe5, 0xf6}).MustBuild()
	n := len(frame) // 52: the payload is the last six bytes
	for _, c := range []struct {
		name string
		off  int
		want uint64
	}{
		{"ends at len", n - 6, 0xa1b2c3d4e5f6},
		{"straddles len", n - 4, 0xc3d4e5f60000},
		{"starts at len", n, 0},
		{"starts past len", n + 3, 0},
	} {
		p := New(4)
		var e Entry
		e.Actions[0] = Action{Offset: uint8(c.off), Dest: phv.Ref{Type: phv.Type6B, Index: 2}, Valid: true}
		if err := p.Set(0, e); err != nil {
			t.Fatal(err)
		}
		var v phv.PHV
		if err := p.Parse(frame, 0, &v); err != nil {
			t.Fatal(err)
		}
		if got := v.MustGet(phv.Ref{Type: phv.Type6B, Index: 2}); got != c.want {
			t.Errorf("%s (offset %d of %d): container = %#x, want %#x", c.name, c.off, n, got, c.want)
		}
	}
}

func TestParseNoConfig(t *testing.T) {
	p := New(4)
	var v phv.PHV
	frame := packet.NewUDP(0, packet.IPv4Addr{}, packet.IPv4Addr{}, 1, 2, nil).MustBuild()
	if err := p.Parse(frame, 2, &v); !errors.Is(err, ErrNoConfig) {
		t.Errorf("Parse without config: %v", err)
	}
}

// deparse runs the module's deparse entry over frame the way the
// pipeline does: its entry, compiled once, then Program.Deparse.
func deparse(t *testing.T, d *Deparser, modIdx int, frame []byte, v *phv.PHV) {
	t.Helper()
	e, ok := d.EntryRef(modIdx)
	if !ok {
		t.Fatalf("no deparse entry at %d", modIdx)
	}
	prog := e.Compile()
	prog.Deparse(frame, v)
}

func TestDeparseWritesBack(t *testing.T) {
	d := NewDeparser(4)
	var e Entry
	e.Actions[0] = Action{Offset: 46, Dest: phv.Ref{Type: phv.Type4B, Index: 0}, Valid: true}
	if err := d.Set(1, e); err != nil {
		t.Fatal(err)
	}
	frame := packet.NewUDP(1, packet.IPv4Addr{}, packet.IPv4Addr{}, 1, 2, make([]byte, 8)).MustBuild()
	var v phv.PHV
	v.MustSet(phv.Ref{Type: phv.Type4B, Index: 0}, 0xcafebabe)
	deparse(t, d, 1, frame, &v)
	want := []byte{0xca, 0xfe, 0xba, 0xbe}
	if !bytes.Equal(frame[46:50], want) {
		t.Errorf("deparse wrote %x, want %x", frame[46:50], want)
	}
}

func TestDeparseTruncatesAtPacketEnd(t *testing.T) {
	d := NewDeparser(4)
	var e Entry
	e.Actions[0] = Action{Offset: 46, Dest: phv.Ref{Type: phv.Type6B, Index: 0}, Valid: true}
	if err := d.Set(0, e); err != nil {
		t.Fatal(err)
	}
	frame := packet.NewUDP(0, packet.IPv4Addr{}, packet.IPv4Addr{}, 1, 2, []byte{0, 0}).MustBuild()
	// frame length 48: only 2 of 6 bytes fit.
	var v phv.PHV
	v.MustSet(phv.Ref{Type: phv.Type6B, Index: 0}, 0x112233445566)
	deparse(t, d, 0, frame, &v)
	if frame[46] != 0x11 || frame[47] != 0x22 {
		t.Errorf("partial write wrong: %x", frame[46:48])
	}
}

func TestParserDeparserRoundTrip(t *testing.T) {
	// Parse then deparse with the same entry reproduces the packet.
	p := New(4)
	d := NewDeparser(4)
	var e Entry
	e.Actions[0] = Action{Offset: 46, Dest: phv.Ref{Type: phv.Type2B, Index: 0}, Valid: true}
	e.Actions[1] = Action{Offset: 48, Dest: phv.Ref{Type: phv.Type4B, Index: 0}, Valid: true}
	if err := p.Set(0, e); err != nil {
		t.Fatal(err)
	}
	if err := d.Set(0, e); err != nil {
		t.Fatal(err)
	}
	frame := packet.NewUDP(0, packet.IPv4Addr{}, packet.IPv4Addr{}, 1, 2,
		[]byte{1, 2, 3, 4, 5, 6}).MustBuild()
	orig := append([]byte(nil), frame...)
	var v phv.PHV
	if err := p.Parse(frame, 0, &v); err != nil {
		t.Fatal(err)
	}
	deparse(t, d, 0, frame, &v)
	if !bytes.Equal(frame, orig) {
		t.Error("unmodified parse/deparse round trip changed the packet")
	}
}

// Property: parse action wire format round-trips for all inputs.
func TestQuickActionRoundTrip(t *testing.T) {
	f := func(off, typ, idx uint8, valid bool) bool {
		a := Action{
			Offset: off & 0x7f,
			Dest:   phv.Ref{Type: phv.ContainerType(typ & 3), Index: idx & 7},
			Valid:  valid,
		}
		return DecodeAction(a.Encode()) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: parsing never reads outside the frame (no panics, zero fill).
func TestQuickParseBounded(t *testing.T) {
	p := New(1)
	f := func(off uint8, payload []byte) bool {
		var e Entry
		e.Actions[0] = Action{Offset: off & 0x7f, Dest: phv.Ref{Type: phv.Type6B, Index: 0}, Valid: true}
		if e.Actions[0].Validate() != nil {
			return true
		}
		if err := p.Set(0, e); err != nil {
			return false
		}
		frame := packet.NewUDP(0, packet.IPv4Addr{}, packet.IPv4Addr{}, 1, 2, payload).MustBuild()
		var v phv.PHV
		return p.Parse(frame, 0, &v) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
