// Engine-level coverage for exact-match flow installs: end-to-end
// steering of cuckoo-resolved flows through a multi-worker engine with
// the per-worker flow cache, and install parity against the synchronous
// reference device.
package engine_test

import (
	"sync"
	"testing"

	menshen "repro"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/reconfig"
	"repro/internal/stage"
	"repro/internal/tables"
	"repro/internal/trafficgen"
)

// lbStage returns the stage index where the Load Balancing module
// (module 1) owns its lb_table — the stage holding the most of its CAM
// entries (other stages carry single wildcard glue entries).
func lbStage(t *testing.T, dev *menshen.Device) int {
	t.Helper()
	pipe := dev.Pipeline()
	best, bestN := -1, 0
	for i := range pipe.Stages {
		if n := pipe.Stages[i].Match.ValidCount(1); n > bestN {
			best, bestN = i, n
		}
	}
	if best < 0 {
		t.Fatal("Load Balancing module has no match stage")
	}
	return best
}

// lbActionAddrs resolves the Load Balancing program's four baseline
// tuples to their compiled to_port CAM addresses, without sending any
// packets (so the device's stateful memory is untouched).
func lbActionAddrs(t *testing.T, dev *menshen.Device, stg int) []uint16 {
	t.Helper()
	cp := dev.ControlPlane()
	pipe := dev.Pipeline()
	addrs := make([]uint16, 0, 4)
	for i := 0; i < 4; i++ {
		f := trafficgen.FlowPacket(1,
			packet.IPv4Addr{10, 0, 1, 1}, packet.IPv4Addr{10, 0, 0, 10},
			uint16(1000+i), 80, 0)
		key, err := cp.FlowKeyForFrame(1, stg, f)
		if err != nil {
			t.Fatal(err)
		}
		addr, ok := pipe.Stages[stg].Match.Lookup(key, 1)
		if !ok {
			t.Fatalf("baseline tuple %d missed the CAM", i)
		}
		addrs = append(addrs, uint16(addr))
	}
	return addrs
}

// lbActionPorts extends lbActionAddrs with the egress port each action
// selects, observed by sending the baseline tuples through the
// synchronous device (this mutates the device's stateful memory).
func lbActionPorts(t *testing.T, dev *menshen.Device, stg int) map[uint16]uint8 {
	t.Helper()
	addrs := lbActionAddrs(t, dev, stg)
	ports := make(map[uint16]uint8)
	for i, addr := range addrs {
		f := trafficgen.FlowPacket(1,
			packet.IPv4Addr{10, 0, 1, 1}, packet.IPv4Addr{10, 0, 0, 10},
			uint16(1000+i), 80, 0)
		res, err := dev.Send(f)
		if err != nil {
			t.Fatal(err)
		}
		if res.Dropped || len(res.EgressPorts) != 1 {
			t.Fatalf("baseline tuple %d: %+v", i, res)
		}
		ports[addr] = res.EgressPorts[0]
	}
	if len(ports) != 4 {
		t.Fatalf("expected 4 distinct action addresses, got %d", len(ports))
	}
	return ports
}

// TestEngineFlowCuckooEndToEnd installs well past FlowScanThreshold
// exact-match flows through the engine's reconfiguration path and
// checks every flow steers to its action's egress port on a 4-worker
// engine with the per-worker flow cache enabled, with the cuckoo-side
// checksum identical on every shard.
func TestEngineFlowCuckooEndToEnd(t *testing.T) {
	const flows = 600
	dev := newDevice(t, "Load Balancing")
	stg := lbStage(t, dev)
	ports := lbActionPorts(t, dev, stg)
	addrs := make([]uint16, 0, len(ports))
	for a := range ports {
		addrs = append(addrs, a)
	}

	var mu sync.Mutex
	portCount := map[uint8]int{}
	drops := 0
	eng, err := dev.NewEngine(menshen.EngineConfig{
		Workers:   4,
		BatchSize: 8,
		OnBatch: func(_ int, _ uint16, results []menshen.EngineResult) {
			mu.Lock()
			defer mu.Unlock()
			for i := range results {
				if results[i].Dropped {
					drops++
					continue
				}
				portCount[results[i].EgressPort]++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	cp := dev.ControlPlane()
	pool := make([][]byte, flows)
	want := map[uint8]int{}
	entries := make([]menshen.FlowEntry, flows)
	for f := 0; f < flows; f++ {
		pool[f] = trafficgen.FlowScaleFrame(1, f, 0)
		key, err := cp.FlowKeyForFrame(1, stg, pool[f])
		if err != nil {
			t.Fatal(err)
		}
		addr := addrs[f%len(addrs)]
		entries[f] = menshen.FlowEntry{Valid: true, Addr: addr, Key: key}
		want[ports[addr]] += 2 // two traffic rounds below
	}
	gen, err := eng.InsertFlows(1, stg, entries)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AwaitQuiesce(gen); err != nil {
		t.Fatal(err)
	}

	// Two rounds: per-flow steering pins each flow to one worker, so the
	// second round is served by that worker's flow cache.
	for round := 0; round < 2; round++ {
		for f := 0; f < flows; f++ {
			if n, err := eng.SubmitBatch([][]byte{pool[f]}); err != nil || n != 1 {
				t.Fatalf("submit flow %d: accepted=%d err=%v", f, n, err)
			}
		}
		eng.Drain()
	}

	mu.Lock()
	defer mu.Unlock()
	if drops != 0 {
		t.Fatalf("%d flow frames dropped", drops)
	}
	for port, n := range want {
		if portCount[port] != n {
			t.Fatalf("port %d received %d frames, want %d (all: %v)", port, portCount[port], n, portCount)
		}
	}

	var hits uint64
	var sum uint64
	var first uint64
	for w := 0; w < 4; w++ {
		shard, err := eng.ShardPipeline(w)
		if err != nil {
			t.Fatal(err)
		}
		h, m := shard.FlowCacheStats()
		hits += h
		sum += h + m
		// The checksum folds flow entries order-independently, so shards
		// whose cuckoo tables grew along different schedules still agree.
		cs := shard.ModuleChecksum(1)
		if w == 0 {
			first = cs
		} else if cs != first {
			t.Fatalf("shard %d checksum %#x != shard 0 %#x", w, cs, first)
		}
	}
	if sum == 0 || hits == 0 {
		t.Fatalf("flow cache unused: %d hits / %d probes", hits, sum)
	}
}

// flowFrame encodes one exact-match flow install (or removal) as a raw
// Figure 7 reconfiguration frame.
func flowFrame(t *testing.T, stg int, e core.FlowEntry) []byte {
	t.Helper()
	frame, err := reconfig.EncodePacket(e.ModID, core.FlowCommand(stg, e))
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestParityFlowInstallCuckoo extends the parity suite to the hash
// match path: flow installs past FlowScanThreshold (switching the
// module to cuckoo-probe views on the engine side, with the flow cache
// in front) and later flow deletions must leave the engine
// byte-identical to the synchronous reference device, including the
// configuration checksum that folds the cuckoo side.
func TestParityFlowInstallCuckoo(t *testing.T) {
	h := newParityHarness(t, "Load Balancing")
	stg := lbStage(t, h.ref)
	addrs := lbActionAddrs(t, h.ref, stg)

	const flows = stage.FlowScanThreshold + 8
	cp := h.ref.ControlPlane()
	pool := make([][]byte, 2*flows) // second half stays uninstalled
	keys := make([]tables.Key, flows)
	for f := range pool {
		pool[f] = trafficgen.FlowScaleFrame(1, f, 0)
		if f < flows {
			key, err := cp.FlowKeyForFrame(1, stg, pool[f])
			if err != nil {
				t.Fatal(err)
			}
			keys[f] = key
		}
	}
	traffic := func(rounds int) {
		for r := 0; r < rounds; r++ {
			h.traffic(pool)
		}
	}

	traffic(1) // pre-install: everything misses the flow table

	for f := 0; f < flows; f++ {
		h.reconfigFrame(flowFrame(t, stg, core.FlowEntry{
			Valid: true, ModID: 1, Addr: addrs[f%len(addrs)], Key: keys[f],
		}))
	}
	traffic(2) // post-install, twice so the engine's cache round replays

	// Remove a third of the flows and re-run: deletions must land on
	// both paths and stale cache entries must not survive the generation
	// bump.
	for f := 0; f < flows; f += 3 {
		h.reconfigFrame(flowFrame(t, stg, core.FlowEntry{
			Valid: false, ModID: 1, Key: keys[f],
		}))
	}
	traffic(2)

	h.check(1)
	if err := h.eng.Close(); err != nil {
		t.Fatal(err)
	}
}
