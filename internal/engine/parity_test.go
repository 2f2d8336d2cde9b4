// Parity suite: identical traffic + reconfiguration interleavings are
// driven through a synchronous Device (the reference semantics) and a
// 1-worker Engine, asserting byte-identical output frames per tenant,
// identical drop counts, and identical final configuration and
// stateful-memory state. Reconfiguration points are pinned with
// Drain + AwaitQuiesceCtx so both paths observe the same
// traffic/reconfig ordering (the engine path is otherwise asynchronous:
// commands overtake queued frames at batch boundaries).
package engine_test

import (
	"bytes"
	"context"
	"sync"
	"testing"

	menshen "repro"
	"repro/internal/core"
	"repro/internal/reconfig"
	"repro/internal/tables"
	"repro/internal/trafficgen"
)

// matchBase returns the stage where the module owns the most match
// entries (its table proper; other stages carry single wildcard glue
// entries) and the base of its CAM partition there.
func matchBase(t *testing.T, dev *menshen.Device, moduleID uint16) (stg, lo int) {
	t.Helper()
	pipe := dev.Pipeline()
	stg, most := -1, 0
	for i := range pipe.Stages {
		if n := pipe.Stages[i].Match.ValidCount(int(moduleID)); n > most {
			stg, most = i, n
		}
	}
	if stg < 0 {
		t.Fatalf("module %d owns no CAM entries", moduleID)
	}
	lo, _, _ = pipe.Stages[stg].Match.PartitionOf(moduleID)
	return stg, lo
}

// wildcardCAMFrame builds a raw reconfiguration frame that would rewrite
// the module's CAM entry at its partition base to a zero-key, zero-mask
// entry — a legal, behavior-changing command, were it ever applied.
func wildcardCAMFrame(t *testing.T, dev *menshen.Device, moduleID uint16) []byte {
	t.Helper()
	stg, lo := matchBase(t, dev, moduleID)
	frame, err := reconfig.AppendPacket(nil, moduleID, reconfig.Command{
		Resource: reconfig.MakeResourceID(stg, reconfig.KindCAM),
		Index:    uint8(lo),
		Payload: core.AppendCAMEntry(nil, &tables.CAMEntry{
			Valid: true, ModID: moduleID,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// calcOpcodeFlows builds exact-match flows sending every CALC opcode of
// the module to the action at its partition base in its match stage: a
// legal, behavior-changing rewrite whose effect must be identical on
// both paths.
func calcOpcodeFlows(t *testing.T, dev *menshen.Device, moduleID uint16) (int, []menshen.FlowEntry) {
	t.Helper()
	stg, lo := matchBase(t, dev, moduleID)
	var flows []menshen.FlowEntry
	for op := uint16(1); op <= 3; op++ {
		key, err := dev.ControlPlane().FlowKeyForFrame(moduleID, stg, trafficgen.CalcPacket(moduleID, op, 0, 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, menshen.FlowEntry{Valid: true, ModID: moduleID, Addr: uint16(lo), Key: key})
	}
	return stg, flows
}

// parityHarness drives the same stimulus through both paths and
// collects per-tenant outcomes.
type parityHarness struct {
	t   *testing.T
	ref *menshen.Device // synchronous reference
	eng *menshen.Engine // 1-worker engine under test

	mu       sync.Mutex
	engOut   map[uint16][][]byte
	engDrops map[uint16]int
	refOut   map[uint16][][]byte
	refDrops map[uint16]int
}

// newParityHarness loads the same programs as modules 1..n onto two
// devices and wraps one of them in a 1-worker engine.
func newParityHarness(t *testing.T, programs ...string) *parityHarness {
	t.Helper()
	h := &parityHarness{
		t:        t,
		ref:      newDevice(t, programs...),
		engOut:   make(map[uint16][][]byte),
		engDrops: make(map[uint16]int),
		refOut:   make(map[uint16][][]byte),
		refDrops: make(map[uint16]int),
	}
	edev := newDevice(t, programs...)
	eng, err := edev.NewEngine(menshen.EngineConfig{
		Workers:   1,
		BatchSize: 8,
		OnBatch: func(_ int, _ uint16, results []menshen.EngineResult) {
			h.mu.Lock()
			defer h.mu.Unlock()
			for i := range results {
				id := results[i].ModuleID
				if results[i].Dropped {
					h.engDrops[id]++
					continue
				}
				h.engOut[id] = append(h.engOut[id], append([]byte(nil), results[i].Data...))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.eng = eng
	return h
}

// traffic pushes the same frames through Device.Send and Engine.SubmitBatch.
func (h *parityHarness) traffic(frames [][]byte) {
	h.t.Helper()
	for _, f := range frames {
		res, err := h.ref.Send(f)
		if err != nil {
			h.t.Fatal(err)
		}
		if res.Dropped {
			h.refDrops[res.ModuleID]++
		} else {
			h.refOut[res.ModuleID] = append(h.refOut[res.ModuleID], append([]byte(nil), res.Output...))
		}
		if n, err := h.eng.SubmitBatch([][]byte{f}); err != nil || n != 1 {
			h.t.Fatalf("engine SubmitBatch: accepted=%d err=%v", n, err)
		}
	}
}

// barrier pins the interleaving: all submitted frames processed, all
// issued reconfiguration applied on every shard.
func (h *parityHarness) barrier() {
	h.t.Helper()
	h.eng.Drain()
	quiesce(h.t, h.eng, 0)
}

// insertFlows installs (or, with Valid false, removes) the module's flow
// entries in one stage on both paths at the same stream position: the
// reference device's daisy chain vs the engine's verified control wire.
func (h *parityHarness) insertFlows(moduleID uint16, stg int, flows []menshen.FlowEntry) {
	h.t.Helper()
	h.barrier()
	for _, f := range flows {
		f.ModID = moduleID
		if err := h.ref.Pipeline().Chain.Push(flowFrame(h.t, stg, f)); err != nil {
			h.t.Fatal(err)
		}
	}
	gen, _, err := h.eng.InsertFlowsVerified(context.Background(), moduleID, stg, flows, menshen.VerifyOpts{})
	if err != nil {
		h.t.Fatal(err)
	}
	quiesce(h.t, h.eng, gen)
}

// swapModule unloads the module from both paths and loads new source in
// its place — the live analogue of Device.UpdateModule.
func (h *parityHarness) swapModule(source string, moduleID uint16) {
	h.t.Helper()
	h.barrier()
	if err := h.ref.UnloadModule(moduleID); err != nil {
		h.t.Fatal(err)
	}
	if _, err := h.ref.LoadModule(source, moduleID); err != nil {
		h.t.Fatal(err)
	}
	if _, err := h.eng.UnloadModule(moduleID); err != nil {
		h.t.Fatal(err)
	}
	_, gen, _, err := h.eng.LoadModuleVerified(context.Background(), source, moduleID, menshen.VerifyOpts{})
	if err != nil {
		h.t.Fatal(err)
	}
	quiesce(h.t, h.eng, gen)
}

// unload removes the module from both paths.
func (h *parityHarness) unload(moduleID uint16) {
	h.t.Helper()
	h.barrier()
	if err := h.ref.UnloadModule(moduleID); err != nil {
		h.t.Fatal(err)
	}
	gen, err := h.eng.UnloadModule(moduleID)
	if err != nil {
		h.t.Fatal(err)
	}
	quiesce(h.t, h.eng, gen)
}

// check asserts byte-identical per-tenant outputs, identical drop
// counts, and identical final pipeline state (configuration checksums
// and stateful memory) between the reference device and the engine's
// single shard.
func (h *parityHarness) check(tenants ...uint16) {
	h.t.Helper()
	h.barrier()
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, id := range tenants {
		want, got := h.refOut[id], h.engOut[id]
		if len(got) != len(want) {
			h.t.Fatalf("tenant %d: engine forwarded %d frames, reference %d", id, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				h.t.Fatalf("tenant %d: output frame %d differs:\nengine    %x\nreference %x",
					id, i, got[i], want[i])
			}
		}
		if h.engDrops[id] != h.refDrops[id] {
			h.t.Errorf("tenant %d: engine dropped %d, reference %d", id, h.engDrops[id], h.refDrops[id])
		}
	}

	shard, err := h.eng.ShardPipeline(0)
	if err != nil {
		h.t.Fatal(err)
	}
	ref := h.ref.Pipeline()
	for _, id := range tenants {
		if rs, es := ref.ModuleChecksum(id), shard.ModuleChecksum(id); rs != es {
			h.t.Errorf("tenant %d: config checksum differs: reference %#x, engine shard %#x", id, rs, es)
		}
	}
	for s := range ref.Stages {
		var rm, em []uint64
		ref.Locked(func() { rm = ref.Stages[s].Memory.Snapshot() })
		shard.Locked(func() { em = shard.Stages[s].Memory.Snapshot() })
		if len(rm) != len(em) {
			h.t.Fatalf("stage %d: memory sizes differ", s)
		}
		for i := range rm {
			if rm[i] != em[i] {
				h.t.Errorf("stage %d: stateful word %d differs: reference %#x, engine %#x", s, i, rm[i], em[i])
			}
		}
	}
}

// genTraffic produces n frames of interleaved multi-tenant traffic.
func genTraffic(sc *trafficgen.Scenario, n int) [][]byte {
	return sc.NextBatch(nil, n)
}

func TestParityTrafficOnly(t *testing.T) {
	// Baseline: no reconfiguration, two stateful tenants.
	h := newParityHarness(t, "CALC", "NetCache")
	sc := trafficgen.NewScenario(17,
		trafficgen.TenantLoad{ModuleID: 1, Program: "CALC", Flows: 4},
		trafficgen.TenantLoad{ModuleID: 2, Program: "NetCache", Flows: 4, Weight: 2},
	)
	h.traffic(genTraffic(sc, 400))
	h.check(1, 2)
	if err := h.eng.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestParityReconfigInterleave(t *testing.T) {
	// The headline parity scenario: traffic and reconfiguration
	// commands interleaved at pinned points — flows that send every
	// opcode of tenant 1 to the action at its partition base, then a
	// live module swap of tenant 2, each followed by more traffic.
	// Engine output must stay byte-identical to the synchronous
	// daisy-chain semantics throughout.
	h := newParityHarness(t, "CALC", "NetCache")
	sc := trafficgen.NewScenario(29,
		trafficgen.TenantLoad{ModuleID: 1, Program: "CALC", Flows: 4},
		trafficgen.TenantLoad{ModuleID: 2, Program: "NetCache", Flows: 4},
	)

	h.traffic(genTraffic(sc, 200))

	// Phase 2: rewrite tenant 1's match behavior, applied to both paths
	// at the same stream position.
	stg, flows := calcOpcodeFlows(t, h.ref, 1)
	h.insertFlows(1, stg, flows)
	h.traffic(genTraffic(sc, 200))

	// Phase 3: live-swap tenant 2's program (NetCache -> Firewall).
	h.swapModule(programSource(t, "Firewall"), 2)
	h.traffic(genTraffic(sc, 200))

	h.check(1, 2)
	if err := h.eng.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestParityUnloadDropsMatch(t *testing.T) {
	// Unloading a tenant mid-stream must drop its subsequent frames
	// identically on both paths while the other tenant keeps flowing.
	h := newParityHarness(t, "CALC", "NetCache")
	sc := trafficgen.NewScenario(31,
		trafficgen.TenantLoad{ModuleID: 1, Program: "CALC", Flows: 4},
		trafficgen.TenantLoad{ModuleID: 2, Program: "NetCache", Flows: 4},
	)
	h.traffic(genTraffic(sc, 150))
	h.unload(2)
	h.traffic(genTraffic(sc, 150))
	h.check(1, 2)
	if h.engDrops[2] == 0 {
		t.Error("expected post-unload drops for tenant 2")
	}
	if err := h.eng.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestParitySubmitPathReconfigFrame(t *testing.T) {
	// A Figure 7 frame mixed into the traffic is data on both paths:
	// Device.Send and Engine.SubmitBatch drop it at the packet filter,
	// nothing is reconfigured, and the outputs stay byte-identical.
	h := newParityHarness(t, "CALC")
	sc := trafficgen.NewScenario(37,
		trafficgen.TenantLoad{ModuleID: 1, Program: "CALC", Flows: 4})
	before := h.ref.Pipeline().ModuleChecksum(1)

	frames := genTraffic(sc, 100)
	frames = append(frames, wildcardCAMFrame(t, h.ref, 1))
	h.traffic(append(frames, genTraffic(sc, 100)...))
	// The filter drops a reconfiguration frame before reading its VLAN
	// tag, so both paths report it under module 0.
	h.check(0, 1)
	if h.refDrops[0] != 1 || h.engDrops[0] != 1 {
		t.Errorf("reconfiguration frame drops: reference %d, engine %d, want 1 each", h.refDrops[0], h.engDrops[0])
	}
	if got := h.ref.FilterVerdicts()[reconfig.VerdictDropReconfig.String()]; got != 1 {
		t.Errorf("reference filter dropped %d reconfiguration frames, want 1", got)
	}
	st := h.eng.Stats()
	if got := st.Tenants[1].PipelineDrops; got != 1 {
		t.Errorf("engine: tenant 1 PipelineDrops = %d, want 1", got)
	}
	if cs := h.ref.Pipeline().ModuleChecksum(1); cs != before {
		t.Errorf("reference checksum %#x, want the unconfigured %#x", cs, before)
	}
	if err := h.eng.Close(); err != nil {
		t.Fatal(err)
	}
}
