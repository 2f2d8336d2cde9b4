// Engine-level coverage for exact-match flow installs: end-to-end
// steering of cuckoo-resolved flows through a multi-worker engine with
// the per-worker flow cache, and install parity against the synchronous
// reference device.
package engine_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	menshen "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faultinject"
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
	gen, _, err := eng.InsertFlowsVerified(context.Background(), 1, stg, entries, menshen.VerifyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, eng, gen)

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

// TestReloadBesideFlowsLeavesThemAlone is the §4.1 no-disruption claim
// on the match layer: on a 2-worker engine, where each shard owns its
// own cuckoo table per (stage, tenant), verified reloads and then the
// unload of a flow-less NetCache tenant leave Load Balancing's
// hash-mode flows — each shard's table object, count, configuration
// checksum, and each flow's egress port — exactly as they were.
// Unloading Load Balancing then drops each shard's own table.
func TestReloadBesideFlowsLeavesThemAlone(t *testing.T) {
	const flows = 4 * stage.FlowScanThreshold
	dev := newDevice(t, "Load Balancing", "NetCache")
	stg := lbStage(t, dev)
	addrs := lbActionAddrs(t, dev, stg)
	var mu sync.Mutex
	var last menshen.EngineResult
	eng, err := dev.NewEngine(menshen.EngineConfig{
		Workers: 2,
		OnBatch: func(_ int, _ uint16, results []menshen.EngineResult) {
			mu.Lock()
			defer mu.Unlock()
			last = results[len(results)-1]
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	cp := dev.ControlPlane()
	pool := make([][]byte, flows)
	entries := make([]menshen.FlowEntry, flows)
	for f := range pool {
		pool[f] = trafficgen.FlowScaleFrame(1, f, 0)
		key, err := cp.FlowKeyForFrame(1, stg, pool[f])
		if err != nil {
			t.Fatal(err)
		}
		entries[f] = menshen.FlowEntry{Valid: true, Addr: addrs[f%len(addrs)], Key: key}
	}
	ctx := context.Background()
	gen, _, err := eng.InsertFlowsVerified(ctx, 1, stg, entries, menshen.VerifyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, eng, gen)

	shards := make([]*core.Pipeline, eng.Workers())
	for w := range shards {
		if shards[w], err = eng.ShardPipeline(w); err != nil {
			t.Fatal(err)
		}
	}
	lbTables := make([]*tables.Cuckoo, len(shards))
	for w, pipe := range shards {
		lbTables[w] = pipe.Stages[stg].Hash.Table(1)
		for o := range w {
			if lbTables[w] == lbTables[o] {
				t.Fatalf("shards %d and %d share one Load Balancing flow table", o, w)
			}
		}
		if v := pipe.Stages[stg].ViewFor(1); !v.HashMode() {
			t.Fatalf("shard %d: Load Balancing's flow stage is not in hash mode", w)
		}
	}
	// egress sends each flow alone and records where it left.
	egress := func() []uint8 {
		t.Helper()
		out := make([]uint8, flows)
		for f := range pool {
			if n, err := eng.SubmitBatch([][]byte{pool[f]}); err != nil || n != 1 {
				t.Fatalf("submit flow %d: accepted=%d err=%v", f, n, err)
			}
			eng.Drain()
			mu.Lock()
			if last.Dropped {
				mu.Unlock()
				t.Fatalf("flow %d dropped", f)
			}
			out[f] = last.EgressPort
			mu.Unlock()
		}
		return out
	}
	wantPorts := egress()
	wantSums := shardChecksums(t, eng, 1)
	// untouched checks that, after step, each shard still has its own
	// Load Balancing flow table, holding every flow, and the shards'
	// configuration checksums have not moved.
	untouched := func(step string) {
		t.Helper()
		for w, pipe := range shards {
			if pipe.Stages[stg].Hash.Table(1) != lbTables[w] {
				t.Fatalf("%s: shard %d's Load Balancing flow table was replaced", step, w)
			}
			if n := lbTables[w].Used(); n != flows {
				t.Fatalf("%s: shard %d's Load Balancing table holds %d flows, want %d", step, w, n, flows)
			}
		}
		for w, cs := range shardChecksums(t, eng, 1) {
			if cs != wantSums[w] {
				t.Fatalf("%s: shard %d checksum %#x, was %#x", step, w, cs, wantSums[w])
			}
		}
	}

	nc := programSource(t, "NetCache")
	for r := 0; r < 5; r++ {
		_, gen, _, err := eng.LoadModuleVerified(ctx, nc, 2, menshen.VerifyOpts{})
		if err != nil {
			t.Fatalf("reload %d: %v", r, err)
		}
		quiesce(t, eng, gen)
		untouched(fmt.Sprintf("reload %d", r))
	}
	for f, port := range egress() {
		if port != wantPorts[f] {
			t.Fatalf("flow %d leaves on port %d after the reloads, was %d", f, port, wantPorts[f])
		}
	}
	if gen, err = eng.UnloadModule(2); err != nil {
		t.Fatal(err)
	}
	quiesce(t, eng, gen)
	untouched("unloading NetCache")

	gen, err = eng.UnloadModule(1)
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, eng, gen)
	for w, pipe := range shards {
		if dir := pipe.Stages[stg].Hash; dir.Table(1) != nil {
			t.Fatalf("shard %d still holds %d Load Balancing flows after its unload", w, dir.ModuleEntries(1))
		}
	}
	css := shardChecksums(t, eng, 1)
	for w, cs := range css[1:] {
		if cs != css[0] {
			t.Fatalf("shard %d checksum %#x != shard 0 %#x after unload", w+1, cs, css[0])
		}
	}
}

// TestLostFlowCommandShowsOnItsShard: each shard owns its flow tables,
// so a flow command the control wire lost on one shard is missing from
// that shard alone. On a 2-worker engine whose fault plan drops about
// half the commands, one unverified burst of flow inserts leaves each
// shard's Load Balancing table holding exactly the inserts that shard
// applied (its ReconfigApplied delta), and ModuleChecksum tells the two
// shards apart — the replica-parity check sees the loss.
func TestLostFlowCommandShowsOnItsShard(t *testing.T) {
	const flows = 4 * stage.FlowScanThreshold
	eng := newRawEngine(t, engine.Config{Workers: 2}, "Load Balancing")
	shards := make([]*core.Pipeline, eng.Workers())
	for w := range shards {
		var err error
		if shards[w], err = eng.Pipeline(w); err != nil {
			t.Fatal(err)
		}
	}
	stg, best := -1, 0
	for i, st := range shards[0].Stages {
		if n := st.Match.ValidCount(1); n > best {
			stg, best = i, n
		}
	}
	lo, _, ok := shards[0].Stages[stg].Match.PartitionOf(1)
	if !ok {
		t.Fatal("Load Balancing has no CAM partition in its table stage")
	}
	cmds := make([]reconfig.Command, flows)
	for f := range cmds {
		var key tables.Key
		key[0], key[1] = byte(f>>8), byte(f)
		cmds[f] = core.FlowCommand(stg, core.AppendFlowEntry(nil, &core.FlowEntry{Valid: true, ModID: 1, Addr: uint16(lo), Key: key}))
	}

	before := eng.Stats()
	eng.SetReconfigFault(faultinject.New(faultinject.Plan{Seed: 11, Drop: 0.5}))
	gen, err := eng.ApplyUnverified(1, cmds)
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, eng, gen)
	after := eng.Stats()
	for w, pipe := range shards {
		applied := int(after.Workers[w].ReconfigApplied - before.Workers[w].ReconfigApplied)
		t.Logf("shard %d applied %d of %d flow inserts", w, applied, flows)
		if applied == 0 || applied == flows {
			t.Fatalf("shard %d applied %d of %d flow inserts; the fault plan should drop about half", w, applied, flows)
		}
		if n := pipe.Stages[stg].Hash.ModuleEntries(1); n != applied {
			t.Errorf("shard %d holds %d Load Balancing flows, but applied %d inserts", w, n, applied)
		}
	}
	if cs := shards[0].ModuleChecksum(1); cs == shards[1].ModuleChecksum(1) {
		t.Errorf("both shards report checksum %#x after losing different flow commands", cs)
	}
}

// flowFrame encodes one exact-match flow install (or removal) as a raw
// Figure 7 reconfiguration frame, the reference device's daisy-chain
// input.
func flowFrame(t *testing.T, stg int, e core.FlowEntry) []byte {
	t.Helper()
	frame, err := reconfig.AppendPacket(nil, e.ModID, core.FlowCommand(stg, core.AppendFlowEntry(nil, &e)))
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

	installs := make([]menshen.FlowEntry, flows)
	for f := range installs {
		installs[f] = menshen.FlowEntry{Valid: true, Addr: addrs[f%len(addrs)], Key: keys[f]}
	}
	h.insertFlows(1, stg, installs)
	traffic(2) // post-install, twice so the engine's cache round replays

	// Remove a third of the flows and re-run: deletions must land on
	// both paths and stale cache entries must not survive the generation
	// bump.
	var deletes []menshen.FlowEntry
	for f := 0; f < flows; f += 3 {
		deletes = append(deletes, menshen.FlowEntry{Key: keys[f]})
	}
	h.insertFlows(1, stg, deletes)
	traffic(2)

	h.check(1)
	if err := h.eng.Close(); err != nil {
		t.Fatal(err)
	}
}
