package core_test

// Differential tests for the staged batch loop: a batch is classified
// and parsed as a whole, then every hash-mode stage's flow-cache slot
// and cuckoo buckets are gathered and loaded, and only then does any
// frame execute. The per-frame Process call runs each frame alone, so
// its results are the reference the batch must reproduce exactly.

import (
	"bytes"
	"fmt"
	"testing"

	menshen "repro"
	"repro/internal/alu"
	"repro/internal/core"
	"repro/internal/p4progs"
	"repro/internal/packet"
	"repro/internal/parser"
	"repro/internal/phv"
	"repro/internal/reconfig"
	"repro/internal/stage"
	"repro/internal/tables"
	"repro/internal/trafficgen"
)

// batchSize is the engine's default batch.
const batchSize = 32

// outcome is what a frame's processing reports, in a form both the
// batch path and Process can fill.
type outcome struct {
	data               string // the output frame's bytes; empty when dropped
	moduleID           uint16
	egress             uint8
	dropped, discarded bool
	verdict            reconfig.Verdict
	err                string
}

func (o outcome) String() string {
	return fmt.Sprintf("{module %d verdict %v dropped %v discarded %v egress %d err %q data %x}",
		o.moduleID, o.verdict, o.dropped, o.discarded, o.egress, o.err, o.data)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// batchVersusProcess builds two identical pipelines, runs frames
// through one in in-place batches of batchSize and through the other
// one Process call per frame, rounds times over, and fails on any
// frame whose outcome or output bytes differ. It returns the last
// round's batch outcomes.
func batchVersusProcess(t *testing.T, build func() *core.Pipeline, frames [][]byte, rounds int) []outcome {
	t.Helper()
	batched, single := build(), build()
	res := make([]core.BatchResult, batchSize)
	var got []outcome
	for round := 0; round < rounds; round++ {
		got = got[:0]
		for lo := 0; lo < len(frames); lo += batchSize {
			hi := min(lo+batchSize, len(frames))
			in := make([][]byte, hi-lo)
			for i, f := range frames[lo:hi] {
				in[i] = bytes.Clone(f)
			}
			if err := batched.ProcessBatchInPlace(in, 0, res); err != nil {
				t.Fatal(err)
			}
			for _, r := range res[:len(in)] {
				got = append(got, outcome{string(r.Data), r.ModuleID, r.EgressPort, r.Dropped, r.DiscardedByModule, r.Verdict, errString(r.Err)})
			}
		}
		for i, f := range frames {
			out, _, err := single.Process(f, 0)
			want := outcome{string(out.Data), out.ModuleID, out.EgressPort, out.Dropped, out.DiscardedByModule, out.Verdict, errString(err)}
			if got[i] != want {
				t.Errorf("round %d frame %d: batch %v, Process %v", round, i, got[i], want)
			}
		}
	}
	bh, bm := batched.FlowCacheStats()
	sh, sm := single.FlowCacheStats()
	if bh != sh || bm != sm {
		t.Errorf("flow cache hits/misses: batch %d/%d, Process %d/%d", bh, bm, sh, sm)
	}
	return got
}

// TestStagedBatchMatchesProcess interleaves every kind of frame the
// batch loop's steps treat differently — hash-mode Load Balancing
// frames (installed flows and CAM-fallback misses), CALC frames,
// untagged frames, reconfiguration-port frames, frames for a module
// with no parser entry, and frames cut short inside the header window —
// and requires the batch to reproduce per-frame Process, with and
// without a flow cache.
func TestStagedBatchMatchesProcess(t *testing.T) {
	const lbID, calcID, flows = 1, 2, 4 * stage.FlowScanThreshold
	lbFrames := make([][]byte, flows+8) // the last 8 have no flow entry
	for i := range lbFrames {
		lbFrames[i] = trafficgen.FlowScaleFrame(lbID, i, 64)
	}
	reconfigFrame, err := reconfig.AppendPacket(nil, calcID, reconfig.Command{
		Resource: reconfig.MakeResourceID(0, reconfig.KindParser), Payload: make([]byte, parser.EntryBytes)})
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	wantLB := len(lbFrames) // Load Balancing frames forwarded
	for i, lb := range lbFrames {
		frames = append(frames, lb)
		switch i % 6 {
		case 0:
			frames = append(frames, trafficgen.CalcPacket(calcID, trafficgen.CalcAdd, uint32(i), 22, 0))
		case 1:
			frames = append(frames, make([]byte, 64)) // untagged
		case 2:
			frames = append(frames, reconfigFrame)
		case 3:
			frames = append(frames, trafficgen.FlowScaleFrame(9, i, 64)) // no module 9 loaded
		case 4:
			// Cut inside the fields the module parses (they zero-fill),
			// and inside the VLAN tag (dropped at the filter).
			frames = append(frames, lb[:40], lb[:packet.EthernetHeaderLen+packet.VLANTagLen-1])
			wantLB++
		case 5:
			frames = append(frames, nil, trafficgen.CalcPacket(calcID, trafficgen.CalcSub, 50, uint32(i), 0))
		}
	}

	lb, err := p4progs.ByName("Load Balancing")
	if err != nil {
		t.Fatal(err)
	}
	calc, err := p4progs.ByName("CALC")
	if err != nil {
		t.Fatal(err)
	}
	for _, cached := range []bool{false, true} {
		t.Run(fmt.Sprintf("flowcache=%v", cached), func(t *testing.T) {
			stg := -1
			build := func() *core.Pipeline {
				dev := menshen.NewDevice()
				if _, err := dev.LoadModule(lb.Source(), lbID); err != nil {
					t.Fatal(err)
				}
				if _, err := dev.LoadModule(calc.Source(), calcID); err != nil {
					t.Fatal(err)
				}
				pipe, cp := dev.Pipeline(), dev.ControlPlane()
				best := 0
				for i := range pipe.Stages {
					if n := pipe.Stages[i].Match.ValidCount(lbID); n > best {
						stg, best = i, n
					}
				}
				// Flow i steers to the module's CAM entry i%4 of its table.
				var addrs []int
				for a, e := range pipe.Stages[stg].Match.Entries() {
					if e.Valid && e.ModID == lbID && len(addrs) < 4 {
						addrs = append(addrs, a)
					}
				}
				for i, f := range lbFrames[:flows] {
					key, err := cp.FlowKeyForFrame(lbID, stg, f)
					if err != nil {
						t.Fatal(err)
					}
					if err := cp.InsertFlow(lbID, stg, key, addrs[i%len(addrs)]); err != nil {
						t.Fatal(err)
					}
				}
				if cached {
					pipe.SetFlowCache(stage.NewFlowCache(0))
				}
				return pipe
			}
			got := batchVersusProcess(t, build, frames, 2)
			if v := build().Stages[stg].ViewFor(lbID); !v.HashMode() {
				t.Fatal("Load Balancing's flow stage is not in hash mode: the gather step never ran")
			}
			forwarded := map[uint16]int{}
			for _, o := range got {
				if !o.dropped {
					forwarded[o.moduleID]++
				}
			}
			if forwarded[lbID] != wantLB || forwarded[calcID] == 0 {
				t.Errorf("forwarded per module %v; want %d Load Balancing frames and some CALC", forwarded, wantLB)
			}
		})
	}
}

// TestStagedBatchRewrittenKey covers a frame whose gathered addresses
// are wrong: stage 0's action adds one to the field that stage 1, in
// hash mode, keys on, so the batch loop's gather step hashed the parsed
// value while the match must resolve the rewritten one.
func TestStagedBatchRewrittenKey(t *testing.T) {
	const modID, flows = 3, 4 * stage.FlowScanThreshold
	c2 := func(i uint8) phv.Ref { return phv.Ref{Type: phv.Type2B, Index: i} }
	key := func(v uint16) tables.Key {
		var k tables.Key
		k[20], k[21] = byte(v>>8), byte(v)
		return k
	}
	var mask tables.Key
	mask[20], mask[21] = 0xff, 0xff

	var pe, de parser.Entry
	pe.Actions[0] = parser.Action{Offset: 46, Dest: c2(0), Valid: true} // the key field
	pe.Actions[1] = parser.Action{Offset: 48, Dest: c2(1), Valid: true} // the marker
	de.Actions[0] = pe.Actions[1]
	m := &core.ModuleConfig{ModuleID: modID, Name: "rewrite", Parser: pe, Deparser: de, Stages: make([]core.StageConfig, core.NumStages)}
	var bump alu.Action
	bump[0] = alu.Instr{Op: alu.OpAddi, A: 0, Imm: 1}
	m.Stages[0] = core.StageConfig{Used: true, Rules: []core.Rule{{Action: bump}}} // matches every key
	m.Stages[1] = core.StageConfig{Used: true, Mask: mask}
	for i := uint16(0); i < 4; i++ {
		var a alu.Action
		a[1] = alu.Instr{Op: alu.OpSet, A: alu.NoOperand, Imm: 100 + i}
		a[24] = alu.Instr{Op: alu.OpPort, Imm: 1 + i}
		// Keys no frame carries: only the flow entries below match.
		m.Stages[1].Rules = append(m.Stages[1].Rules, core.Rule{Key: key(0xff00 + i), Mask: mask, Action: a})
	}
	pl := core.Placement{CAMBase: make([]int, core.NumStages), SegBase: make([]uint8, core.NumStages)}
	build := func() *core.Pipeline {
		p := core.NewDefault()
		if err := p.Partition(m, pl); err != nil {
			t.Fatal(err)
		}
		cmds, err := m.Commands(pl)
		if err != nil {
			t.Fatal(err)
		}
		// Flow v steers to stage 1's action v%4.
		for v := uint16(1); v <= flows; v++ {
			cmds = append(cmds, core.FlowCommand(1, core.AppendFlowEntry(nil, &core.FlowEntry{Valid: true, ModID: modID, Addr: v % 4, Key: key(v)})))
		}
		for _, cmd := range cmds {
			if err := p.Apply(cmd); err != nil {
				t.Fatal(err)
			}
		}
		p.SetFlowCache(stage.NewFlowCache(0))
		return p
	}

	// Field f becomes f+1 in stage 0; the flow for f (installed for
	// every f ≥ 1) would pick action f%4, the flow for f+1 picks (f+1)%4.
	frames := make([][]byte, flows)
	for f := range frames {
		payload := []byte{byte(f >> 8), byte(f), 0, 0}
		frames[f] = packet.NewUDP(modID, packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{10, 0, 0, 2}, 1, 2, payload).MustBuild()
	}
	if v := build().Stages[1].ViewFor(modID); !v.HashMode() {
		t.Fatal("stage 1 is not in hash mode")
	}
	got := batchVersusProcess(t, build, frames, 2)
	for f, o := range got {
		want := uint16(f+1) % 4
		if o.dropped || o.egress != uint8(1+want) || len(o.data) < 50 || o.data[48:50] != string([]byte{0, byte(100 + want)}) {
			t.Errorf("frame with field %d: %v; the rewritten key %d selects action %d (port %d, marker %d)", f, o, f+1, want, 1+want, 100+want)
		}
	}
}
