package tables

// Property, differential, and fuzz coverage for the cuckoo table and
// its per-module directory: the rollback guarantee of failed inserts,
// agreement with the CAM on the shared exact-match contract,
// batch/scalar lookup equivalence, growth, and one module's writer
// never reaching a neighbour's table.

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// dumpCuckoo snapshots every slot word plus the occupancy counters, so
// tests can assert byte-identity across a mutation that promises to be
// a no-op.
func dumpCuckoo(c *Cuckoo) []uint64 {
	out := []uint64{uint64(c.state.buckets()), uint64(c.used)}
	for _, side := range flatSlots(c) {
		for _, s := range side {
			out = append(out, s.ctrl, s.kw[0], s.kw[1], s.kw[2])
		}
	}
	return out
}

func dumpsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCuckooFailedInsertRollsBack drives a fixed-capacity table to
// rejection and checks the promise in ErrCuckooFull's doc: a failed
// insert walks its eviction chain backwards, leaving every slot
// byte-identical and Used() unchanged.
func TestCuckooFailedInsertRollsBack(t *testing.T) {
	c := NewCuckoo(16)
	failures := 0
	for i := uint32(0); i < 4096 && failures < 32; i++ {
		before := dumpCuckoo(c)
		usedBefore := c.Used()
		err := c.Insert(ckey(i*2654435761+1), int(i))
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrCuckooFull) {
			t.Fatalf("insert %d: unexpected error %v", i, err)
		}
		failures++
		if got := c.Used(); got != usedBefore {
			t.Fatalf("failed insert changed Used(): %d -> %d", usedBefore, got)
		}
		if !dumpsEqual(before, dumpCuckoo(c)) {
			t.Fatalf("failed insert %d left the table modified", i)
		}
	}
	if failures == 0 {
		t.Fatal("table never rejected an insert; rollback path untested")
	}
	// Everything that was accepted must still be intact after the storm
	// of rejected inserts.
	for i := uint32(0); i < 4096; i++ {
		if addr, ok := lookup(c, ckey(i*2654435761+1)); ok && addr != int(i) {
			t.Fatalf("key %d: addr %d, want %d", i, addr, int(i))
		}
	}
}

// TestCuckooRelocationWalkIsBounded fills a large fixed table to its
// first rejection: the walk that gave up stopped at the constant cap,
// not at a bound that grows with the table (the frames behind the
// insert wait out the whole walk), the rejection rolled back byte for byte, and the
// cap still lets the table fill past 90%.
func TestCuckooRelocationWalkIsBounded(t *testing.T) {
	c := NewCuckoo(1 << 17)
	var err error
	n := uint32(0)
	for ; err == nil; n++ {
		err = c.Insert(ckey(n*2654435761+7), int(n&MaxCuckooAddr))
	}
	failed := n - 1
	if !errors.Is(err, ErrCuckooFull) {
		t.Fatalf("insert %d: %v", failed, err)
	}
	msg := err.Error()
	var kicks int
	if _, serr := fmt.Sscanf(msg[strings.LastIndex(msg, "after "):], "after %d kicks", &kicks); serr != nil {
		t.Fatalf("error %q reports no kick count: %v", msg, serr)
	}
	if kicks > cuckooMaxKicks {
		t.Errorf("the rejected insert walked %d kicks, want <= %d", kicks, cuckooMaxKicks)
	}
	load := float64(c.Used()) / float64(c.Capacity())
	t.Logf("first rejection at %.1f%% load, after %d kicks", load*100, kicks)
	if load < 0.9 {
		t.Errorf("first rejection at %.1f%% load, want >= 90%%", load*100)
	}
	// The same insert against the rolled-back table walks the same chain
	// and fails the same way, leaving every slot as it was.
	before := dumpCuckoo(c)
	if err := c.Insert(ckey(failed*2654435761+7), 1); !errors.Is(err, ErrCuckooFull) {
		t.Fatalf("repeated insert: %v", err)
	}
	if !dumpsEqual(before, dumpCuckoo(c)) || c.Used() != int(failed) {
		t.Fatal("a rejected insert left the table modified")
	}
	for i := uint32(0); i < failed; i++ {
		if addr, ok := lookup(c, ckey(i*2654435761+7)); !ok || addr != int(i&MaxCuckooAddr) {
			t.Fatalf("key %d: %d,%v after the rejections", i, addr, ok)
		}
	}
}

// TestCuckooInsertTakesFreeSlotBeforeEvicting: when a key's side-0
// bucket is full and its side-1 bucket has room, the insert fills that
// room and moves nothing, so exactly one slot changes.
func TestCuckooInsertTakesFreeSlotBeforeEvicting(t *testing.T) {
	c := NewCuckoo(64)
	bucket0 := func(k Key) uint64 {
		kw := k.Words()
		return cuckooHash(0, &kw) & c.state.mask
	}
	newKey := ckey(1 << 20)
	filled := 0
	for i := uint32(0); filled < cuckooWays; i++ {
		if k := ckey(i); bucket0(k) == bucket0(newKey) {
			if err := c.Insert(k, int(i)); err != nil {
				t.Fatal(err)
			}
			filled++
		}
	}
	before := dumpCuckoo(c)
	if err := c.Insert(newKey, 99); err != nil {
		t.Fatal(err)
	}
	after := dumpCuckoo(c)
	changed := 0
	for i := 2; i < len(before); i += 4 { // skip nb and used; 4 words a slot
		if !dumpsEqual(before[i:i+4], after[i:i+4]) {
			changed++
		}
	}
	if changed != 1 || c.Used() != cuckooWays+1 {
		t.Fatalf("insert into a full side-0 bucket changed %d slots (used %d), want 1 (%d)", changed, c.Used(), cuckooWays+1)
	}
	if addr, ok := lookup(c, newKey); !ok || addr != 99 {
		t.Fatalf("new key: %d,%v", addr, ok)
	}
}

// cuckooSides maps every stored key of c to the side holding it, and
// checks that it sits in its own bucket of that side.
func cuckooSides(t *testing.T, c *Cuckoo) map[KeyWords]int {
	t.Helper()
	sides := map[KeyWords]int{}
	for side, slots := range flatSlots(c) {
		for i, s := range slots {
			if s.ctrl&cuckooValid != 0 {
				kw := s.words()
				if b := int(c.state.index(cuckooHash(side, &kw))); b != i/cuckooWays {
					t.Fatalf("key %x sits in bucket %d of side %d, hashes to %d", kw, i/cuckooWays, side, b)
				}
				sides[kw] = side
			}
		}
	}
	return sides
}

// TestCuckooGrowthSplitsInPlace checks growth one split at a time. A
// split step moves entries only between bucket p and its buddy p+nb of
// each side, keeps every entry on its side and in its own bucket,
// leaves the entry set and Used() alone, and adds exactly one bucket
// per side; every other allocated slot keeps its bytes.
func TestCuckooGrowthSplitsInPlace(t *testing.T) {
	c := NewGrowingCuckoo(CAMDepth)
	st := &c.state
	for next := uint32(0); st.buckets() < 1<<11+1<<9; next++ {
		if err := c.Insert(ckey(next*2654435761), int(next)); err != nil {
			t.Fatal(err)
		}
		// Step a split by hand after every fifth insert while the table
		// is small, then after a sparser sample, past the first round
		// that allocates whole chunks.
		if next%5 != 0 || st.buckets() >= 1<<8 && next%97 != 0 {
			continue
		}
		sides, flat, used, entries := cuckooSides(t, c), flatSlots(c), c.Used(), slices.Collect(c.All())
		p, nb, buckets := int(st.split), st.nb, st.buckets()
		st.splitNext()
		if got := st.buckets(); got != buckets+1 {
			t.Fatalf("split %d of round %d: %d buckets -> %d", p, nb, buckets, got)
		}
		after := cuckooSides(t, c)
		if c.Used() != used || len(after) != len(sides) {
			t.Fatalf("split %d of round %d: used %d -> %d, keys %d -> %d", p, nb, used, c.Used(), len(sides), len(after))
		}
		for kw, side := range sides {
			if got, ok := after[kw]; !ok || got != side {
				t.Fatalf("split %d of round %d: key %x moved from side %d to %d (present %v)", p, nb, kw, side, got, ok)
			}
		}
		for side, slots := range flatSlots(c) {
			for i, s := range slots {
				if b := i / cuckooWays; b == p || b == p+nb {
					continue
				}
				var was cuckooSlot
				if i < len(flat[side]) {
					was = flat[side][i]
				}
				if s != was {
					t.Fatalf("split %d of round %d: side %d slot %d of bucket %d changed", p, nb, side, i, i/cuckooWays)
				}
			}
		}
		want := map[CuckooEntry]bool{}
		for _, e := range entries {
			want[e] = true
		}
		got := slices.Collect(c.All())
		for _, e := range got {
			if !want[e] {
				t.Fatalf("split %d of round %d: entry %+v appeared", p, nb, e)
			}
		}
		if len(got) != len(entries) {
			t.Fatalf("split %d of round %d: %d entries, want %d", p, nb, len(got), len(entries))
		}
	}
}

// flatSlots returns each side's allocated slots in bucket order, one
// array per side: the layout a table held before its buckets lived in
// chunks.
func flatSlots(c *Cuckoo) [2][]cuckooSlot {
	var flat [2][]cuckooSlot
	for side, chunks := range c.state.chunks {
		for _, chunk := range chunks {
			flat[side] = append(flat[side], chunk...)
		}
	}
	return flat
}

// refCopySplit is the reference doubling, kept only as a test oracle:
// it copies every entry of old (nb buckets per side) into fresh arrays
// of 2*nb buckets, bucket b's entries in way order into b or b+nb as
// the next bit of their side's hash decides. A full round of splits
// must leave exactly this layout, so All order, ModuleChecksum and
// replica parity cannot move with the storage.
func refCopySplit(old [2][]cuckooSlot, nb int) [2][]cuckooSlot {
	var fresh [2][]cuckooSlot
	for side := range old {
		fresh[side] = make([]cuckooSlot, 2*nb*cuckooWays)
		for b := 0; b < nb; b++ {
			var n [2]int // entries placed in bucket b and in b+nb
			for _, s := range old[side][b*cuckooWays:][:cuckooWays] {
				if s.ctrl&cuckooValid == 0 {
					continue
				}
				kw := s.words()
				hi := 0
				if cuckooHash(side, &kw)&uint64(nb) != 0 {
					hi = 1
				}
				fresh[side][(b+hi*nb)*cuckooWays+n[hi]] = s
				n[hi]++
			}
		}
	}
	return fresh
}

// TestCuckooGrowthMatchesCopySplit grows a table from 16 to 2^19 slots,
// filling each size to ~80% with deletes interleaved (so buckets have
// holes the split must compact), and after every full round of splits
// compares the slot layout and the All enumeration with
// refCopySplit applied to the table as it stood before the round. The
// table is fixed-size, so only the explicit splits grow it, driven with
// no inserts between them.
func TestCuckooGrowthMatchesCopySplit(t *testing.T) {
	c := NewCuckoo(16)
	st := &c.state
	rng := newTestPRNG(7)
	live := map[uint32]int{}
	var order []uint32 // live keys, for picking deletes
	next := uint32(0)
	for c.Capacity() < 1<<19 {
		for c.Used()*5 < c.Capacity()*4 {
			k := next*2654435761 + 3
			next++
			if err := c.Insert(ckey(k), int(k&MaxCuckooAddr)); err != nil {
				if !errors.Is(err, ErrCuckooFull) {
					t.Fatal(err)
				}
				break // a full small table: split it as it is
			}
			live[k] = int(k & MaxCuckooAddr)
			order = append(order, k)
			if rng.next()%3 == 0 { // delete a random live key
				i := int(rng.next() % uint64(len(order)))
				d := order[i]
				order[i] = order[len(order)-1]
				order = order[:len(order)-1]
				if !c.Delete(ckey(d)) {
					t.Fatalf("delete of live key %d failed", d)
				}
				delete(live, d)
			}
		}
		nb, used := st.nb, c.Used()
		want := refCopySplit(flatSlots(c), nb)
		for range nb {
			st.splitNext()
		}
		got := flatSlots(c)
		if st.nb != 2*nb || st.split != 0 || c.Used() != used {
			t.Fatalf("round of %d buckets: nb %d, split %d, used %d -> %d", nb, st.nb, st.split, used, c.Used())
		}
		for side := range want {
			if len(got[side]) != len(want[side]) {
				t.Fatalf("round of %d buckets: side %d holds %d slots, want %d", nb, side, len(got[side]), len(want[side]))
			}
			for i := range want[side] {
				if got[side][i] != want[side][i] {
					t.Fatalf("round of %d buckets: side %d slot %d = %+v, copy-split has %+v", nb, side, i, got[side][i], want[side][i])
				}
			}
		}
		var wantEntries []CuckooEntry
		for side := range want {
			for _, s := range want[side] {
				if s.ctrl&cuckooValid != 0 {
					wantEntries = append(wantEntries, CuckooEntry{Words: s.words(), Addr: int32(s.ctrl & cuckooAddrMask)})
				}
			}
		}
		gotEntries := slices.Collect(c.All())
		if len(gotEntries) != len(wantEntries) {
			t.Fatalf("round of %d buckets: %d entries, want %d", nb, len(gotEntries), len(wantEntries))
		}
		for i := range wantEntries {
			if gotEntries[i] != wantEntries[i] {
				t.Fatalf("round of %d buckets: entry %d = %+v, want %+v", nb, i, gotEntries[i], wantEntries[i])
			}
		}
	}
	for k, addr := range live {
		if got, ok := lookup(c, ckey(k)); !ok || got != addr {
			t.Fatalf("key %d: %d,%v after the rounds, want %d", k, got, ok, addr)
		}
	}
}

// TestCuckooGrowthAllocatesAtMostOneChunk pins what growth costs in
// memory. A split allocates at most one chunk per side (a table below
// one chunk doubles its one short chunk instead), and after every
// insert a table of N entries holds at most N/τ slots plus one chunk
// per side, τ the target load: storage follows the entries rather
// than the next power of two.
func TestCuckooGrowthAllocatesAtMostOneChunk(t *testing.T) {
	const chunkBytes = cuckooChunkBuckets * cuckooWays * 32
	c := NewGrowingCuckoo(CAMDepth)
	st := &c.state
	var ms runtime.MemStats
	for i := uint32(0); c.Capacity() < 1<<17; i++ {
		// Measure only the inserts that split: the one that takes the load
		// past the target. TotalAlloc is process-wide, so leave room for
		// the runtime's and the test framework's own allocations and for
		// the chunk directory.
		splits := (c.Used()+1)*cuckooLoadDen > cuckooLoadNum*2*cuckooWays*st.buckets()
		if splits {
			runtime.ReadMemStats(&ms)
		}
		before, buckets := ms.TotalAlloc, st.buckets()
		if err := c.Insert(ckey(i*2654435761), 1); err != nil {
			t.Fatal(err)
		}
		if splits {
			runtime.ReadMemStats(&ms)
			if got := ms.TotalAlloc - before; got > 2*chunkBytes+4<<10 {
				t.Fatalf("insert splitting %d buckets from %d allocated %d bytes, want <= %d (a chunk per side)", st.buckets()-buckets, buckets, got, 2*chunkBytes)
			}
		}
		// N/τ, rounded up to a bucket pair, plus a chunk per side.
		bound := c.Used()*cuckooLoadDen/cuckooLoadNum + 2*cuckooWays + 2*cuckooChunkBuckets*cuckooWays
		if got := c.Capacity(); got > bound {
			t.Fatalf("%d entries hold %d slots, want <= %d", c.Used(), got, bound)
		}
	}
}

// TestCuckooInsertSplitsAreBounded pins growth's work per insert, by
// work rather than time: a table grown from 16 to 2^19 slots through
// Insert alone never splits more than cuckooMaxSplits buckets of a side
// in one insert (a doubling of 2^18 slots would split 2^15). The
// slowest insert's wall-clock time is logged beside it.
func TestCuckooInsertSplitsAreBounded(t *testing.T) {
	c := NewGrowingCuckoo(CAMDepth)
	st := &c.state
	most, batches := 0, 0
	var slowest time.Duration
	for i := uint32(0); c.Capacity() < 1<<19; i++ {
		before, start := st.buckets(), time.Now()
		if err := c.Insert(ckey(i*2654435761+11), int(i&MaxCuckooAddr)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		slowest = max(slowest, time.Since(start))
		n := st.buckets() - before
		if n > cuckooMaxSplits {
			t.Fatalf("insert %d split %d buckets of a side (%d -> %d), want <= %d", i, n, before, st.buckets(), cuckooMaxSplits)
		}
		if n > 1 {
			batches++
		}
		most = max(most, n)
	}
	t.Logf("%d entries in %d slots: at most %d splits per insert (bound %d), %d inserts split a batch for a failed walk; slowest insert %v",
		c.Used(), c.Capacity(), most, cuckooMaxSplits, batches, slowest)
}

// TestCuckooCAMParity is the differential test between the two
// exact-match implementations: identical (key, module, address) entry
// sets driven through random inserts, updates, deletes, and module
// clears must answer every lookup identically. The CAM is configured
// with full masks so both sides implement the same exact-match
// contract; the flow side is a directory deep enough for module 4095.
func TestCuckooCAMParity(t *testing.T) {
	const depth = 64
	rng := newTestPRNG(42)
	cam := NewCAM(depth)
	ck := NewFlowTables(MaxModuleID + 1)
	type ent struct {
		key Key
		mod uint16
	}
	installed := map[int]ent{} // CAM addr -> entry
	mods := []uint16{1, 2, 4095}

	lookupBoth := func(key Key, mod uint16) {
		t.Helper()
		ca, cok := cam.Lookup(key, mod)
		ha, hok := ftLookup(ck, key, mod)
		if cok != hok || (cok && ca != ha) {
			t.Fatalf("divergence for mod %d: CAM (%d,%v) vs cuckoo (%d,%v)", mod, ca, cok, ha, hok)
		}
	}

	for op := 0; op < 2000; op++ {
		switch rng.next() % 4 {
		case 0, 1: // insert or update at a random address
			addr := int(rng.next() % depth)
			key := ckey(uint32(rng.next() % 512))
			mod := mods[rng.next()%uint64(len(mods))]
			// Skip keys already present under another address: the CAM
			// would hold both and answer lowest-address-wins, which the
			// single-slot cuckoo cannot mirror. Flow installs have unique
			// keys, so the contract only covers that regime.
			dup := false
			for a, e := range installed {
				if a != addr && e.key == key && e.mod == mod {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			if old, ok := installed[addr]; ok {
				// The CAM write overwrites the slot; mirror by removing
				// the displaced entry from the cuckoo side.
				ck.Table(old.mod).Delete(old.key)
				delete(installed, addr)
			}
			if err := cam.Write(addr, CAMEntry{Valid: true, ModID: mod, Key: key, Mask: FullMask()}); err != nil {
				t.Fatal(err)
			}
			ftInsert(t, ck, key, mod, addr)
			installed[addr] = ent{key, mod}
		case 2: // delete a random address
			addr := int(rng.next() % depth)
			e, ok := installed[addr]
			if !ok {
				continue
			}
			if err := cam.Write(addr, CAMEntry{}); err != nil {
				t.Fatal(err)
			}
			if !ck.Table(e.mod).Delete(e.key) {
				t.Fatalf("cuckoo lost entry at CAM addr %d", addr)
			}
			delete(installed, addr)
		case 3: // occasionally clear a whole module on both sides
			if rng.next()%16 != 0 {
				continue
			}
			mod := mods[rng.next()%uint64(len(mods))]
			cn := cam.ClearModule(mod)
			hn := ck.ClearModule(mod)
			if cn != hn {
				t.Fatalf("ClearModule(%d): CAM cleared %d, cuckoo %d", mod, cn, hn)
			}
			for addr, e := range installed {
				if e.mod == mod {
					delete(installed, addr)
				}
			}
		}
		// Probe everything installed plus a random absent key, on every
		// module, so cross-module isolation is exercised too.
		for addr, e := range installed {
			for _, mod := range mods {
				lookupBoth(e.key, mod)
			}
			_ = addr
		}
		lookupBoth(ckey(uint32(rng.next()%512)+1000), mods[rng.next()%uint64(len(mods))])
	}
}

// testPRNG is a local xorshift so the differential test is reproducible
// without importing math/rand.
type testPRNG struct{ s uint64 }

func newTestPRNG(seed uint64) *testPRNG { return &testPRNG{s: seed} }

func (p *testPRNG) next() uint64 {
	p.s ^= p.s >> 12
	p.s ^= p.s << 25
	p.s ^= p.s >> 27
	return p.s * 0x2545f4914f6cdd1d
}

// TestCuckooLookupWordsBatchMatchesLookup checks that the batch lookup
// answers exactly like per-key lookups, for hits and misses in one
// batch.
func TestCuckooLookupWordsBatchMatchesLookup(t *testing.T) {
	c := NewGrowingCuckoo(64)
	const n = 200
	for i := uint32(0); i < n; i++ {
		if err := c.Insert(ckey(i), int(i)+100); err != nil {
			t.Fatal(err)
		}
	}
	kws := make([]KeyWords, 0, 2*n)
	for i := uint32(0); i < 2*n; i++ { // second half misses
		k := ckey(i)
		kws = append(kws, k.Words())
	}
	out := make([]int32, len(kws))
	hits := c.LookupWordsBatch(kws, out)
	if hits != n {
		t.Fatalf("batch hits = %d, want %d", hits, n)
	}
	for i := range kws {
		addr, ok := c.LookupWords(&kws[i])
		switch {
		case ok && out[i] != int32(addr):
			t.Fatalf("kw %d: batch %d, scalar %d", i, out[i], addr)
		case !ok && out[i] != -1:
			t.Fatalf("kw %d: batch %d for scalar miss", i, out[i])
		}
	}
	// A module with no table misses everything through the batch path,
	// and the miss is written out.
	if hits := NewFlowTables(OverlayDepth).LookupWordsBatch(8, kws, out); hits != 0 || out[0] != -1 {
		t.Fatalf("module 8 batch hits = %d (out[0] %d), want 0 (-1)", hits, out[0])
	}
}

// TestCuckooGrowthKeepsAllEntries fills a growing table far past its
// initial capacity and checks nothing is lost or misaddressed across
// the doublings.
func TestCuckooGrowthKeepsAllEntries(t *testing.T) {
	c := NewGrowingCuckoo(CAMDepth)
	startCap := c.Capacity()
	const n = 50000
	for i := uint32(0); i < n; i++ {
		if err := c.Insert(ckey(i), int(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if c.Capacity() <= startCap {
		t.Fatalf("capacity did not grow: %d", c.Capacity())
	}
	if c.Used() != n {
		t.Fatalf("used=%d, want %d", c.Used(), n)
	}
	for i := uint32(0); i < n; i++ {
		addr, ok := lookup(c, ckey(i))
		if !ok || addr != int(i) {
			t.Fatalf("lookup %d after growth = %d,%v", i, addr, ok)
		}
	}
}

// TestFlowTablesRejectsOutOfDepthModule pins the directory's bounds: a
// module index at or past the depth gets the overlays' ErrIndexRange
// from Open and has no table, rather than aliasing onto another
// module's (the stages mask to the 12-bit wire width first).
func TestFlowTablesRejectsOutOfDepthModule(t *testing.T) {
	f := NewFlowTables(OverlayDepth)
	ftInsert(t, f, ckey(1), 5, 42)
	for _, mod := range []uint16{OverlayDepth, OverlayDepth + 5, MaxModuleID + 1 + 5} {
		if _, err := f.Open(mod); !errors.Is(err, ErrIndexRange) {
			t.Fatalf("Open(%d) = %v, want ErrIndexRange", mod, err)
		}
		if _, ok := ftLookup(f, ckey(1), mod); ok || f.Table(mod) != nil || f.ModuleEntries(mod) != 0 || f.ClearModule(mod) != 0 {
			t.Fatalf("module %d reaches a table", mod)
		}
	}
	if addr, ok := ftLookup(f, ckey(1), 5); !ok || addr != 42 {
		t.Fatalf("module 5 lookup = %d,%v", addr, ok)
	}
}

// TestFlowTablesWriterLeavesNeighbourAlone pins what the per-module
// directory is for: nothing module A's writer does to A's table — grow
// it, drop it — touches module B's table.
func TestFlowTablesWriterLeavesNeighbourAlone(t *testing.T) {
	const modA, modB = 1, 2
	f := NewFlowTables(OverlayDepth)
	ftInsert(t, f, ckey(7), modA, 1)
	for i := uint32(0); i < 100; i++ {
		ftInsert(t, f, ckey(i), modB, int(i)+1000)
	}
	a, b := f.Table(modA), f.Table(modB)

	// A grows far past its initial capacity; B's table does not move.
	capA, capB, dumpB := a.Capacity(), b.Capacity(), dumpCuckoo(b)
	const n = 50001
	for i := uint32(0); i < n; i++ {
		if err := a.Insert(ckey(i), int(i)); err != nil {
			t.Fatal(err)
		}
	}
	if a.Capacity() <= capA {
		t.Fatalf("A did not grow: capacity %d", a.Capacity())
	}
	if b.Capacity() != capB || !dumpsEqual(dumpB, dumpCuckoo(b)) {
		t.Fatal("A's growth changed B's table")
	}

	// Dropping A leaves B's table the same object, byte for byte.
	if cleared := f.ClearModule(modA); cleared != n {
		t.Fatalf("ClearModule(A) = %d, want %d", cleared, n)
	}
	if f.Table(modB) != b || !dumpsEqual(dumpB, dumpCuckoo(b)) {
		t.Fatal("ClearModule(A) changed B's table")
	}
	if _, ok := ftLookup(f, ckey(7), modA); ok {
		t.Fatal("A's flow survived its clear")
	}
}

// splitPointerSeeds returns FuzzCuckoo op streams for module 1 that
// work a table partway through a round of splits. Each replays its
// inserts on a shadow of module 1's table, so it knows where the split
// pointer stands: a lookup, an update and a delete of every key, with
// keys whose buckets lie below the pointer (split this round) and
// above it; an insert whose relocation walk starts from one bucket
// below the pointer and one above; and the insert that ends a round,
// followed by a lookup, a delete and a re-insert of every key.
func splitPointerSeeds(f *testing.F) [][]byte {
	shadow := NewGrowingCuckoo(CAMDepth)
	st := &shadow.state
	var prefix []byte
	insert := func(k byte) {
		prefix = append(prefix, 0x00, k)
		if err := shadow.Insert(ckey(uint32(k)), int(k)+1000); err != nil {
			f.Fatal(err)
		}
	}
	below := func(k byte, side int) bool {
		key := ckey(uint32(k))
		kw := key.Words()
		return cuckooHash(side, &kw)&st.mask < st.split
	}
	// every appends op for each key of the prefix.
	every := func(prefix []byte, ops ...byte) []byte {
		out := slices.Clone(prefix)
		for i := 1; i < len(prefix); i += 2 {
			for _, op := range ops {
				out = append(out, op, prefix[i])
			}
		}
		return out
	}
	k := 0
	for ; st.nb < 16 || st.split*4 < uint64(st.nb); k++ {
		insert(byte(k))
	}
	lo, hi := 0, 0
	for i := 1; i < len(prefix); i += 2 {
		if below(prefix[i], 0) {
			lo++
		} else {
			hi++
		}
	}
	if lo == 0 || hi == 0 {
		f.Fatalf("split pointer %d of %d: %d keys below it, %d above", st.split, st.nb, lo, hi)
	}
	seeds := [][]byte{
		every(prefix, 0xc0),       // lookups
		every(prefix, 0x00, 0xc0), // updates
		every(prefix, 0x40, 0xc0), // deletes
	}
	// Insert the remaining keys in order, but take first any key whose
	// two full buckets lie on either side of the pointer: its insert
	// walks.
	left := make([]byte, 0, 256-k)
	for ; k < 256; k++ {
		left = append(left, byte(k))
	}
	walked := false
	for len(left) > 0 && !walked {
		pick := 0
		for i, k := range left {
			key := ckey(uint32(k))
			kw := key.Words()
			if _, hit, free := locate(st, &kw); hit == nil && free == nil && st.split > 0 && below(k, 0) != below(k, 1) {
				pick, walked = i, true
				break
			}
		}
		insert(left[pick])
		left = slices.Delete(left, pick, pick+1)
	}
	if !walked {
		f.Fatal("no insert walked from both sides of the split pointer")
	}
	seeds = append(seeds, every(prefix, 0xc0))
	for len(left) > 0 {
		nb := st.nb
		insert(left[0])
		if left = left[1:]; st.nb != nb {
			seeds = append(seeds, every(prefix, 0xc0, 0x40, 0x00))
			break
		}
	}
	if len(seeds) != 5 {
		f.Fatal("no insert ended a round")
	}
	return seeds
}

// FuzzCuckoo interprets the fuzz input as an op stream (insert, delete,
// clear, lookup) over modules 1-3 of a FlowTables, replayed against a
// map oracle, checking lookup agreement, occupancy accounting, and that
// each module's count matches what its table's All enumerates after
// every op.
func FuzzCuckoo(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x10, 0x11, 0x40, 0x01, 0x80, 0x02, 0xc0, 0x01})
	f.Add([]byte{0x00, 0x05, 0x00, 0x05, 0x40, 0x05, 0x40, 0x05})
	f.Add([]byte{0x00, 0xff, 0x80, 0xff, 0xc0, 0x00, 0x00, 0x00})
	// Inserts and deletes across rounds of splits: module 1 grows from
	// 16 slots through four rounds with every third key deleted on the
	// way, then loses half its keys and takes them back; module 2
	// grows beside it.
	var grow []byte
	for k := 0; k < 256; k++ {
		grow = append(grow, 0x00, byte(k))
		if k%3 == 2 {
			grow = append(grow, 0x40, byte(k-1))
		}
	}
	for k := 0; k < 256; k += 2 {
		grow = append(grow, 0x40, byte(k), 0x01, byte(k))
	}
	for k := 0; k < 256; k += 2 {
		grow = append(grow, 0x00, byte(k), 0xc0, byte(k+1))
	}
	f.Add(grow)
	for _, seed := range splitPointerSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewFlowTables(OverlayDepth)
		type ref struct {
			key byte
			mod uint16
		}
		oracle := map[ref]int{}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]>>6, data[i+1]
			key, mod := ckey(uint32(arg)), uint16(data[i]&0x3f)%3+1
			r := ref{arg, mod}
			switch op {
			case 0: // insert / update
				ftInsert(t, c, key, mod, int(arg)+int(mod)*1000)
				oracle[r] = int(arg) + int(mod)*1000
			case 1: // delete
				_, want := oracle[r]
				if got := c.Table(mod) != nil && c.Table(mod).Delete(key); got != want {
					t.Fatalf("op %d: delete=%v oracle=%v", i, got, want)
				}
				delete(oracle, r)
			case 2: // clear module
				want := 0
				for o := range oracle {
					if o.mod == mod {
						want++
						delete(oracle, o)
					}
				}
				if got := c.ClearModule(mod); got != want {
					t.Fatalf("op %d: cleared %d, oracle %d", i, got, want)
				}
			case 3: // lookup only
			}
			addr, ok := ftLookup(c, key, mod)
			waddr, wok := oracle[r]
			if ok != wok || (ok && addr != waddr) {
				t.Fatalf("op %d: lookup (%d,%v) oracle (%d,%v)", i, addr, ok, waddr, wok)
			}
			used := 0
			for m := uint16(1); m <= 3; m++ {
				n := c.ModuleEntries(m)
				used += n
				if tab := c.Table(m); tab != nil && n != len(slices.Collect(tab.All())) {
					t.Fatalf("op %d: ModuleEntries(%d)=%d, All yields %d", i, m, n, len(slices.Collect(tab.All())))
				}
			}
			if used != len(oracle) {
				t.Fatalf("op %d: used=%d oracle=%d", i, used, len(oracle))
			}
		}
		// Every surviving entry is still found where the split rule
		// says it is, whatever split or walk moved it since its insert.
		for r, want := range oracle {
			if addr, ok := ftLookup(c, ckey(uint32(r.key)), r.mod); !ok || addr != want {
				t.Fatalf("end: module %d key %d: (%d,%v), oracle %d", r.mod, r.key, addr, ok, want)
			}
		}
	})
}
