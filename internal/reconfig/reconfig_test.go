package reconfig

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/packet"
)

func TestResourceIDRoundTrip(t *testing.T) {
	cases := []struct {
		stage int
		kind  Kind
	}{
		{0, KindParser}, {0, KindDeparser},
		{3, KindKeyExtract}, {4, KindKeyMask},
		{2, KindCAM}, {1, KindVLIW}, {0, KindSegment},
	}
	for _, tc := range cases {
		r := MakeResourceID(tc.stage, tc.kind)
		if r.Kind() != tc.kind {
			t.Errorf("kind %v -> %v", tc.kind, r.Kind())
		}
		wantStage := tc.stage
		if tc.kind.Stageless() {
			wantStage = 0
		}
		if r.Stage() != wantStage {
			t.Errorf("%v stage %d -> %d", tc.kind, tc.stage, r.Stage())
		}
	}
}

func TestResourceIDFitsIn12Bits(t *testing.T) {
	r := MakeResourceID(15, KindSegment)
	if uint16(r)>>12 != 0 {
		t.Errorf("resource ID %#x exceeds 12 bits", uint16(r))
	}
}

func TestEncodeDecodePacketRoundTrip(t *testing.T) {
	cmd := Command{
		Resource: MakeResourceID(3, KindCAM),
		Index:    7,
		Payload:  []byte{1, 2, 3, 4, 5},
	}
	frame, err := AppendPacket(nil, 9, cmd)
	if err != nil {
		t.Fatal(err)
	}
	mod, got, err := DecodePacket(frame)
	if err != nil {
		t.Fatal(err)
	}
	if mod != 9 {
		t.Errorf("module = %d", mod)
	}
	if got.Resource != cmd.Resource || got.Index != cmd.Index {
		t.Errorf("command header mismatch: %+v", got)
	}
	if !bytes.Equal(got.Payload, cmd.Payload) {
		t.Errorf("payload = %x", got.Payload)
	}
}

func TestDecodePacketRejectsDataFrames(t *testing.T) {
	data := packet.NewUDP(1, packet.IPv4Addr{}, packet.IPv4Addr{}, 5, 80, []byte("x")).MustBuild()
	if _, _, err := DecodePacket(data); !errors.Is(err, ErrNotReconfig) {
		t.Errorf("err = %v", err)
	}
	if IsReconfigFrame(data) {
		t.Error("data frame classified as reconfiguration")
	}
}

func TestIsReconfigFrame(t *testing.T) {
	frame, err := AppendPacket(nil, 1, Command{Resource: MakeResourceID(0, KindParser), Payload: []byte{0}})
	if err != nil {
		t.Fatal(err)
	}
	if !IsReconfigFrame(frame) {
		t.Error("reconfiguration frame not recognized")
	}
}

type recordSink struct {
	mu   sync.Mutex
	cmds []Command
	err  error
}

func (r *recordSink) Apply(cmd Command) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cmds = append(r.cmds, cmd)
	return r.err
}

func TestDaisyChainCountsAndApplies(t *testing.T) {
	sink := &recordSink{}
	d := NewDaisyChain(sink)
	for i := 0; i < 3; i++ {
		frame, err := AppendPacket(nil, 1, Command{
			Resource: MakeResourceID(i, KindCAM),
			Index:    uint8(i),
			Payload:  []byte{byte(i)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Push(frame); err != nil {
			t.Fatal(err)
		}
	}
	if d.Counter() != 3 {
		t.Errorf("counter = %d", d.Counter())
	}
	if len(sink.cmds) != 3 || sink.cmds[2].Index != 2 {
		t.Errorf("sink received %+v", sink.cmds)
	}
}

func TestDaisyChainCountsFailedApplies(t *testing.T) {
	sink := &recordSink{err: errors.New("apply failed")}
	d := NewDaisyChain(sink)
	frame, _ := AppendPacket(nil, 1, Command{Resource: MakeResourceID(0, KindParser), Payload: []byte{0}})
	if err := d.Push(frame); err == nil {
		t.Error("apply error should propagate")
	}
	// The counter still advances: the packet traversed the chain.
	if d.Counter() != 1 {
		t.Errorf("counter = %d", d.Counter())
	}
}

func TestDaisyChainRejectsDataFrames(t *testing.T) {
	d := NewDaisyChain(&recordSink{})
	data := packet.NewUDP(1, packet.IPv4Addr{}, packet.IPv4Addr{}, 5, 80, nil).MustBuild()
	if err := d.Push(data); err == nil {
		t.Error("data frame accepted by daisy chain")
	}
	if d.Counter() != 0 {
		t.Error("rejected frame counted")
	}
}

func dataFrame(vid uint16) []byte {
	return packet.NewUDP(vid, packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{10, 0, 0, 2}, 5, 80, nil).MustBuild()
}

func TestFilterAdmitsTaggedData(t *testing.T) {
	f := NewFilter()
	res := f.Classify(dataFrame(5), 2)
	if res.Verdict != VerdictData || res.ModuleID != 5 {
		t.Errorf("result = %+v", res)
	}
}

func TestFilterDropsReconfigFromDataPath(t *testing.T) {
	f := NewFilter()
	frame, _ := AppendPacket(nil, 1, Command{Resource: MakeResourceID(0, KindParser), Payload: []byte{0}})
	res := f.Classify(frame, 2)
	if res.Verdict != VerdictDropReconfig {
		t.Errorf("verdict = %v; reconfiguration packets from the data path are untrusted", res.Verdict)
	}
	if f.VerdictCount(VerdictDropReconfig) != 1 {
		t.Error("verdict counter not incremented")
	}
}

func TestFilterDropsUntagged(t *testing.T) {
	frame := dataFrame(1)
	// Strip VLAN tag.
	untagged := append(append([]byte{}, frame[:12]...), frame[16:]...)
	f := NewFilter()
	if res := f.Classify(untagged, 2); res.Verdict != VerdictDropNoVLAN {
		t.Errorf("verdict = %v", res.Verdict)
	}
}

func TestFilterBitmapDropsOnlyMarkedModule(t *testing.T) {
	f := NewFilter()
	f.SetUpdating(3, true)
	if res := f.Classify(dataFrame(3), 2); res.Verdict != VerdictDropUpdating {
		t.Errorf("module 3 verdict = %v", res.Verdict)
	}
	if res := f.Classify(dataFrame(4), 2); res.Verdict != VerdictData {
		t.Errorf("module 4 verdict = %v", res.Verdict)
	}
	f.SetUpdating(3, false)
	if res := f.Classify(dataFrame(3), 2); res.Verdict != VerdictData {
		t.Errorf("after clear verdict = %v", res.Verdict)
	}
}

func TestFilterBitmapRegister(t *testing.T) {
	f := NewFilter()
	f.SetUpdating(0, true)
	f.SetUpdating(31, true)
	if f.Bitmap() != 1|1<<31 {
		t.Errorf("bitmap = %#x", f.Bitmap())
	}
	f.SetUpdating(0, false)
	if f.Bitmap() != 1<<31 {
		t.Errorf("bitmap = %#x", f.Bitmap())
	}
}

func TestFilterRoundRobinAssignment(t *testing.T) {
	f := NewFilter()
	var buffers, parsers []uint8
	for i := 0; i < 8; i++ {
		res := f.Classify(dataFrame(1), 2)
		buffers = append(buffers, res.BufferTag)
		parsers = append(parsers, res.ParserNum)
	}
	for i, b := range buffers {
		if b != uint8(i%4) {
			t.Errorf("buffer tags not round robin: %v", buffers)
			break
		}
	}
	for i, p := range parsers {
		if p != uint8(i%2) {
			t.Errorf("parser numbers not round robin over 2: %v", parsers)
			break
		}
	}
}

func TestFilterConcurrentBitmapUpdates(t *testing.T) {
	f := NewFilter()
	var wg sync.WaitGroup
	for m := uint16(0); m < 16; m++ {
		wg.Add(1)
		go func(m uint16) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				f.SetUpdating(m, true)
				f.SetUpdating(m, false)
			}
		}(m)
	}
	wg.Wait()
	if f.Bitmap() != 0 {
		t.Errorf("bitmap = %#x after balanced set/clear", f.Bitmap())
	}
}

// Property: command wire encoding round-trips for any stage/kind/index/
// payload.
func TestQuickCommandRoundTrip(t *testing.T) {
	f := func(stg, kindRaw, idx uint8, vid uint16, payload []byte) bool {
		kind := Kind(kindRaw%7) + KindParser
		cmd := Command{
			Resource: MakeResourceID(int(stg&0xf), kind),
			Index:    idx,
			Payload:  payload,
		}
		frame, err := AppendPacket(nil, vid&0xfff, cmd)
		if err != nil {
			return false
		}
		mod, got, err := DecodePacket(frame)
		if err != nil {
			return false
		}
		return mod == vid&0xfff && got.Resource == cmd.Resource &&
			got.Index == idx && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindParser; k <= KindSegment; k++ {
		if s := k.String(); s == "" || s[0] == 'K' {
			t.Errorf("Kind(%d).String() = %q", k, s)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
	if MakeResourceID(3, KindCAM).String() != "stage3/cam" {
		t.Errorf("ResourceID string = %s", MakeResourceID(3, KindCAM))
	}
	if MakeResourceID(3, KindParser).String() != "parser" {
		t.Errorf("stageless string = %s", MakeResourceID(3, KindParser))
	}
}

func TestVerdictStrings(t *testing.T) {
	for v := VerdictData; v <= VerdictDropUpdating; v++ {
		if v.String() == "" {
			t.Errorf("Verdict(%d) empty", v)
		}
	}
	if Verdict(99).String() == "" {
		t.Error("unknown verdict should still render")
	}
}

func TestDecodePacketTruncatedPayload(t *testing.T) {
	// A UDP frame to the reconfig port with a short body.
	b := packet.NewUDP(1, packet.IPv4Addr{}, packet.IPv4Addr{}, 1, ReconfigUDPPort, []byte{1, 2})
	frame := b.MustBuild()
	if _, _, err := DecodePacket(frame); !errors.Is(err, ErrShort) {
		t.Errorf("err = %v", err)
	}
}

func TestIsReconfigFrameGarbage(t *testing.T) {
	if IsReconfigFrame([]byte{1, 2, 3}) {
		t.Error("garbage classified as reconfiguration frame")
	}
	if IsReconfigFrame(nil) {
		t.Error("nil classified as reconfiguration frame")
	}
}

func TestFilterVerdictCountOutOfRange(t *testing.T) {
	f := NewFilter()
	if f.VerdictCount(Verdict(200)) != 0 {
		t.Error("out-of-range verdict count nonzero")
	}
}
