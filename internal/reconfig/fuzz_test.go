// Fuzz harness for the reconfiguration packet decoder: arbitrary bytes
// must never panic, and every failure must surface as ErrNotReconfig or
// ErrShort. The structured seeds below plus the checked-in corpus under
// testdata/fuzz/FuzzDecodePacket cover truncated payloads, wrong UDP
// ports, and oversized resource/index encodings; `go test` replays the
// whole corpus on every run, and `go test -fuzz=FuzzDecodePacket`
// explores from it.
package reconfig

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/packet"
)

func FuzzDecodePacket(f *testing.F) {
	// A well-formed command frame.
	valid, err := AppendPacket(nil, 7, Command{
		Resource: MakeResourceID(3, KindCAM),
		Index:    5,
		Payload:  bytes.Repeat([]byte{0xAB}, 51),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// Truncations: inside the command payload, inside the UDP header,
	// inside the Ethernet header, and the empty frame.
	f.Add(valid[:len(valid)-20])
	f.Add(valid[:packet.StandardHeaderLen+3])
	f.Add(valid[:packet.StandardHeaderLen])
	f.Add(valid[:14])
	f.Add([]byte{})
	// Wrong UDP destination port: a data frame, not a reconfiguration.
	wrongPort := append([]byte(nil), valid...)
	wrongPort[packet.OffUDPDst] = 0x12
	wrongPort[packet.OffUDPDst+1] = 0x34
	f.Add(wrongPort)
	// Oversized resource/index encoding: stage beyond the pipeline,
	// unknown kind byte, maximal index. Decode must accept the bits
	// (validation happens at Apply) without panicking.
	oversized, err := AppendPacket(nil, 0xFFF, Command{
		Resource: ResourceID(0xFFF),
		Index:    0xFF,
		Payload:  bytes.Repeat([]byte{0x01}, 200),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(oversized)
	// Reconfiguration port but a TCP-shaped protocol byte.
	tcpish := append([]byte(nil), valid...)
	tcpish[packet.OffIPProto] = packet.ProtoTCP
	f.Add(tcpish)

	f.Fuzz(func(t *testing.T, data []byte) {
		moduleID, cmd, err := DecodePacket(data)
		// The filter's combinational check must never panic either.
		isReconfig := IsReconfigFrame(data)
		if err != nil {
			if !errors.Is(err, ErrNotReconfig) && !errors.Is(err, ErrShort) {
				t.Fatalf("DecodePacket error is neither ErrNotReconfig nor ErrShort: %v", err)
			}
			return
		}
		if !isReconfig {
			t.Errorf("DecodePacket accepted a frame IsReconfigFrame rejects")
		}
		if len(cmd.Payload) > len(data) {
			t.Fatalf("decoded payload (%d bytes) larger than frame (%d bytes)", len(cmd.Payload), len(data))
		}
		// Round trip: re-encoding the decoded command must decode back
		// to the identical command.
		frame, err := AppendPacket(nil, moduleID, cmd)
		if err != nil {
			t.Fatalf("re-encode of decoded command failed: %v", err)
		}
		mod2, cmd2, err := DecodePacket(frame)
		if err != nil {
			t.Fatalf("decode of re-encoded frame failed: %v", err)
		}
		if mod2 != moduleID&0x0fff {
			t.Errorf("module ID round trip: %d -> %d", moduleID, mod2)
		}
		if cmd2.Resource != cmd.Resource || cmd2.Index != cmd.Index || !bytes.Equal(cmd2.Payload, cmd.Payload) {
			t.Errorf("command round trip mismatch: %+v -> %+v", cmd, cmd2)
		}
	})
}
