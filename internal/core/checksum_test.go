package core

import (
	"runtime"
	"testing"

	"repro/internal/alu"
	"repro/internal/reconfig"
	"repro/internal/tables"
)

// checksumFixture loads module 2 with four port actions at CAM
// addresses [1,5) of stage 1 and installs n flows behind them, then
// deletes every third one, so the flow table has grown and has holes.
func checksumFixture(t *testing.T, n int) *Pipeline {
	t.Helper()
	fieldKey := func(v int) tables.Key {
		var k tables.Key
		k[20], k[21] = byte(v>>8), byte(v)
		return k
	}
	p := NewDefault()
	m := minimalModule(2, 0, alu.Action{})
	m.Stages[1].Rules = nil
	for i := range 4 {
		var a alu.Action
		a[24] = alu.Instr{Op: alu.OpPort, Imm: uint16(1 + i)}
		m.Stages[1].Rules = append(m.Stages[1].Rules, Rule{Key: fieldKey(0xff00 + i), Mask: m.Stages[1].Mask, Action: a})
	}
	pl := defaultPlacement()
	pl.CAMBase[1] = 1
	loadDirect(t, p, m, pl)
	push := func(valid bool, v int) {
		frame, err := reconfig.AppendPacket(nil, 2, FlowCommand(1, AppendFlowEntry(nil, &FlowEntry{Valid: valid, ModID: 2, Addr: uint16(1 + v%4), Key: fieldKey(v)})))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Chain.Push(frame); err != nil {
			t.Fatal(err)
		}
	}
	for v := range n {
		push(true, v)
	}
	for v := 0; v < n; v += 3 {
		push(false, v)
	}
	return p
}

// TestModuleChecksumFixture pins the checksum of a fixed module with
// 5000 installed flows to its recorded value: how the table stores or
// walks its entries must not move the fold, or replicas running
// different builds would disagree.
func TestModuleChecksumFixture(t *testing.T) {
	p := checksumFixture(t, 5000)
	if got := p.Stages[1].Hash.ModuleEntries(2); got != 5000-1667 {
		t.Fatalf("fixture holds %d flows, want %d", got, 5000-1667)
	}
	const want = uint64(0x48d1c7d87f082d83)
	if got := p.ModuleChecksum(2); got != want {
		t.Fatalf("ModuleChecksum(2) = %#x, want %#x", got, want)
	}
}

// TestModuleChecksumAllocationsDoNotGrowWithFlows: the checksum folds
// a module's flows where they lie rather than copying them out, so a
// call allocates the same few small objects for a thousand flows as
// for sixteen thousand. It runs under the batch lock, so a copy of a
// million-flow table would stall the shard's traffic.
func TestModuleChecksumAllocationsDoNotGrowWithFlows(t *testing.T) {
	const maxAllocs, maxBytes = 8, 1 << 10
	var ms runtime.MemStats
	for _, n := range []int{1 << 10, 1 << 14} {
		p := checksumFixture(t, n)
		allocs := testing.AllocsPerRun(5, func() { p.ModuleChecksum(2) })
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		const calls = 5
		for range calls {
			p.ModuleChecksum(2)
		}
		runtime.ReadMemStats(&ms)
		bytes := (ms.TotalAlloc - before) / calls
		t.Logf("%d flows: %.0f allocs, %d B per ModuleChecksum", n, allocs, bytes)
		if allocs > maxAllocs || bytes > maxBytes {
			t.Errorf("%d flows: ModuleChecksum allocates %.0f objects, %d B; want <= %d, <= %d B", n, allocs, bytes, maxAllocs, maxBytes)
		}
	}
}
