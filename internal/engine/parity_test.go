// Parity suite: identical traffic + reconfiguration interleavings are
// driven through a synchronous Device (the reference semantics) and a
// 1-worker Engine, asserting byte-identical output frames per tenant,
// identical drop counts, and identical final configuration and
// stateful-memory state. Reconfiguration points are pinned with
// Drain + AwaitQuiesce so both paths observe the same
// traffic/reconfig ordering (the engine path is otherwise asynchronous:
// commands overtake queued frames at batch boundaries).
package engine_test

import (
	"bytes"
	"sync"
	"testing"

	menshen "repro"
	"repro/internal/core"
	"repro/internal/reconfig"
	"repro/internal/tables"
	"repro/internal/trafficgen"
)

// wildcardCAMFrame builds a raw reconfiguration frame that rewrites the
// module's CAM entry at its partition base (in the first stage where it
// owns match entries) to a zero-key, zero-mask entry — i.e. the action
// at that address now matches every frame of the module. A legal,
// behavior-changing command whose effect must be identical on both
// paths.
func wildcardCAMFrame(t *testing.T, dev *menshen.Device, moduleID uint16) []byte {
	t.Helper()
	pipe := dev.Pipeline()
	for stg := range pipe.Stages {
		lo, _, ok := pipe.Stages[stg].Match.PartitionOf(moduleID)
		if !ok || pipe.Stages[stg].Match.ValidCount(int(moduleID)) == 0 {
			continue
		}
		frame, err := reconfig.EncodePacket(moduleID, reconfig.Command{
			Resource: reconfig.MakeResourceID(stg, reconfig.KindCAM),
			Index:    uint8(lo),
			Payload: core.EncodeCAMEntry(tables.CAMEntry{
				Valid: true, ModID: moduleID,
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	t.Fatalf("module %d owns no CAM entries", moduleID)
	return nil
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
	if err := h.eng.Quiesce(); err != nil {
		h.t.Fatal(err)
	}
}

// reconfigFrame applies one raw reconfiguration frame to both paths at
// the same stream position: the reference device's daisy chain vs the
// engine's control plane.
func (h *parityHarness) reconfigFrame(frame []byte) {
	h.t.Helper()
	h.barrier()
	if err := h.ref.Pipeline().Chain.Push(frame); err != nil {
		h.t.Fatal(err)
	}
	gen, err := h.eng.ApplyReconfig(frame)
	if err != nil {
		h.t.Fatal(err)
	}
	if err := h.eng.AwaitQuiesce(gen); err != nil {
		h.t.Fatal(err)
	}
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
	_, gen, err := h.eng.LoadModule(source, moduleID)
	if err != nil {
		h.t.Fatal(err)
	}
	if err := h.eng.AwaitQuiesce(gen); err != nil {
		h.t.Fatal(err)
	}
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
	if err := h.eng.AwaitQuiesce(gen); err != nil {
		h.t.Fatal(err)
	}
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
		rm := ref.Stages[s].Memory.Snapshot()
		em := shard.Stages[s].Memory.Snapshot()
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
	// commands interleaved at pinned points — a raw command frame that
	// rewrites tenant 1's CAM entry at its partition base to a
	// match-anything entry, then a live module swap of tenant 2, each
	// followed by more traffic. Engine output must stay byte-identical
	// to the synchronous daisy-chain semantics throughout.
	h := newParityHarness(t, "CALC", "NetCache")
	sc := trafficgen.NewScenario(29,
		trafficgen.TenantLoad{ModuleID: 1, Program: "CALC", Flows: 4},
		trafficgen.TenantLoad{ModuleID: 2, Program: "NetCache", Flows: 4},
	)

	h.traffic(genTraffic(sc, 200))

	// Phase 2: rewrite tenant 1's match behavior via the raw Figure 7
	// wire format, applied to both paths at the same stream position.
	h.reconfigFrame(wildcardCAMFrame(t, h.ref, 1))
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
	// Same interleaving as a pinned reconfig, but the engine side
	// receives the command frame through SubmitBatch (mixed into the data
	// stream) rather than the explicit ApplyReconfig call.
	h := newParityHarness(t, "CALC")
	sc := trafficgen.NewScenario(37,
		trafficgen.TenantLoad{ModuleID: 1, Program: "CALC", Flows: 4})

	h.traffic(genTraffic(sc, 100))

	frame := wildcardCAMFrame(t, h.ref, 1)
	h.barrier()
	if err := h.ref.Pipeline().Chain.Push(frame); err != nil {
		t.Fatal(err)
	}
	if n, err := h.eng.SubmitBatch([][]byte{frame}); err != nil || n != 1 {
		t.Fatalf("SubmitBatch(reconfig frame): accepted=%d err=%v", n, err)
	}
	if err := h.eng.Quiesce(); err != nil {
		t.Fatal(err)
	}

	h.traffic(genTraffic(sc, 100))
	h.check(1)
	if st := h.eng.Stats(); st.ReconfigFrames != 1 {
		t.Errorf("ReconfigFrames = %d, want 1", st.ReconfigFrames)
	}
	if err := h.eng.Close(); err != nil {
		t.Fatal(err)
	}
}
