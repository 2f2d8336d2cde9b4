package tables

// Property, differential, and fuzz coverage for the cuckoo table: the
// rollback guarantee of failed inserts, agreement with the CAM on the
// shared exact-match contract, batch/scalar lookup equivalence, growth,
// per-module scans that stop at the module's count, and wait-free
// readers under a writer storm (meaningful under -race).

import (
	"errors"
	"sync"
	"testing"
)

// dumpCuckoo snapshots every slot word of the published state plus the
// occupancy counters, so tests can assert byte-identity across a
// mutation that promises to be a no-op.
func dumpCuckoo(c *Cuckoo) []uint64 {
	st := c.state.Load()
	out := []uint64{uint64(st.nb), uint64(c.used.Load())}
	for side := 0; side < 2; side++ {
		for i := range st.slots[side] {
			s := &st.slots[side][i]
			out = append(out, s.ctrl.Load(), s.kw[0].Load(), s.kw[1].Load(), s.kw[2].Load())
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
		err := c.Insert(ckey(i*2654435761+1), 7, int(i))
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
		if addr, ok := c.Lookup(ckey(i*2654435761+1), 7); ok && addr != int(i) {
			t.Fatalf("key %d: addr %d, want %d", i, addr, int(i))
		}
	}
}

// TestCuckooCAMParity is the differential test between the two
// exact-match implementations: identical (key, module, address) entry
// sets driven through random inserts, updates, deletes, and module
// clears must answer every lookup identically. The CAM is configured
// with full masks so both sides implement the same exact-match
// contract.
func TestCuckooCAMParity(t *testing.T) {
	const depth = 64
	rng := newTestPRNG(42)
	cam := NewCAM(depth)
	ck := NewCuckoo(4 * depth) // roomy: the CAM's depth is the limiter
	type ent struct {
		key Key
		mod uint16
	}
	installed := map[int]ent{} // CAM addr -> entry
	mods := []uint16{1, 2, 4095}

	lookupBoth := func(key Key, mod uint16) {
		t.Helper()
		ca, cok := cam.Lookup(key, mod)
		ha, hok := ck.Lookup(key, mod)
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
				ck.Delete(old.key, old.mod)
				delete(installed, addr)
			}
			if err := cam.Write(addr, CAMEntry{Valid: true, ModID: mod, Key: key, Mask: FullMask()}); err != nil {
				t.Fatal(err)
			}
			if err := ck.Insert(key, mod, addr); err != nil {
				t.Fatal(err)
			}
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
			if !ck.Delete(e.key, e.mod) {
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

// TestCuckooLookupWordsBatchMatchesLookup checks that the grouped
// seqlock round answers exactly like per-key lookups, for hits and
// misses in one batch.
func TestCuckooLookupWordsBatchMatchesLookup(t *testing.T) {
	c := NewGrowingCuckoo(64)
	const n = 200
	for i := uint32(0); i < n; i++ {
		if err := c.Insert(ckey(i), 9, int(i)+100); err != nil {
			t.Fatal(err)
		}
	}
	kws := make([]KeyWords, 0, 2*n)
	for i := uint32(0); i < 2*n; i++ { // second half misses
		k := ckey(i)
		kws = append(kws, k.Words())
	}
	out := make([]int32, len(kws))
	hits := c.LookupWordsBatch(9, kws, out)
	if hits != n {
		t.Fatalf("batch hits = %d, want %d", hits, n)
	}
	for i := range kws {
		addr, ok := c.LookupWords(&kws[i], 9)
		switch {
		case ok && out[i] != int32(addr):
			t.Fatalf("kw %d: batch %d, scalar %d", i, out[i], addr)
		case !ok && out[i] != -1:
			t.Fatalf("kw %d: batch %d for scalar miss", i, out[i])
		}
	}
	// A different module must miss everything through the batch path too.
	if hits := c.LookupWordsBatch(8, kws, out); hits != 0 {
		t.Fatalf("module 8 batch hits = %d, want 0", hits)
	}
}

// TestCuckooGrowthKeepsAllEntries fills a growing table far past its
// initial capacity and checks nothing is lost or misaddressed across
// the republished generations.
func TestCuckooGrowthKeepsAllEntries(t *testing.T) {
	c := NewGrowingCuckoo(CAMDepth)
	startCap := c.Capacity()
	const n = 50000
	for i := uint32(0); i < n; i++ {
		if err := c.Insert(ckey(i), 3, int(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if c.Capacity() <= startCap {
		t.Fatalf("capacity did not grow: %d", c.Capacity())
	}
	if c.Used() != n || c.ModuleEntries(3) != n {
		t.Fatalf("used=%d moduleEntries=%d, want %d", c.Used(), c.ModuleEntries(3), n)
	}
	for i := uint32(0); i < n; i++ {
		addr, ok := c.Lookup(ckey(i), 3)
		if !ok || addr != int(i) {
			t.Fatalf("lookup %d after growth = %d,%v", i, addr, ok)
		}
	}
}

// TestCuckooModuleIDMaskingWraps pins the 12-bit module-ID domain:
// inserts and lookups beyond MaxModuleID alias onto the masked ID, the
// same normalization the CAM and the stages apply.
func TestCuckooModuleIDMaskingWraps(t *testing.T) {
	c := NewCuckoo(16)
	if err := c.Insert(ckey(1), MaxModuleID+1+5, 42); err != nil {
		t.Fatal(err)
	}
	if addr, ok := c.Lookup(ckey(1), 5); !ok || addr != 42 {
		t.Fatalf("masked lookup = %d,%v", addr, ok)
	}
	if c.ModuleEntries(MaxModuleID+1+5) != 1 || c.ModuleEntries(5) != 1 {
		t.Fatal("ModuleEntries not masked")
	}
	if !c.Delete(ckey(1), MaxModuleID+1+5) {
		t.Fatal("masked delete failed")
	}
}

// TestCuckooConcurrentReaders hammers the wait-free read path while a
// writer inserts, deletes, and forces growth. Run under -race this
// checks the atomic slot discipline; the assertion here is only that a
// reader never observes a torn entry (a hit with the wrong address).
func TestCuckooConcurrentReaders(t *testing.T) {
	c := NewGrowingCuckoo(CAMDepth)
	const stable = 256
	for i := uint32(0); i < stable; i++ {
		if err := c.Insert(ckey(i), 1, int(i)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := newTestPRNG(seed)
			for {
				select {
				case <-done:
					return
				default:
				}
				i := uint32(rng.next() % stable)
				if addr, ok := c.Lookup(ckey(i), 1); ok && addr != int(i) {
					t.Errorf("torn read: key %d -> addr %d", i, addr)
					return
				}
				k0, k1 := ckey(i), ckey(i+1)
				kws := []KeyWords{k0.Words(), k1.Words()}
				out := make([]int32, 2)
				c.LookupWordsBatch(1, kws, out)
			}
		}(uint64(r + 1))
	}
	// Writer: churn a disjoint key range (module 2) so growth and
	// relocation shuffle the shared arrays under the readers.
	for round := 0; round < 50; round++ {
		for i := uint32(0); i < 512; i++ {
			if err := c.Insert(ckey(10000+i), 2, int(i)); err != nil {
				t.Error(err)
			}
		}
		c.ClearModule(2)
	}
	close(done)
	wg.Wait()
}

// refModuleFlows is the full-table scan ModuleFlows used to be: every
// slot of both sides in (side, bucket, way) order, no early stop. The
// tests hold the counted scan to it.
func refModuleFlows(c *Cuckoo, modID uint16) []CuckooEntry {
	var out []CuckooEntry
	st := c.state.Load()
	for side := 0; side < 2; side++ {
		for i := range st.slots[side] {
			kw, ctrl := loadSlot(&st.slots[side][i])
			if ctrl&cuckooValid != 0 && uint16(ctrl>>32&MaxModuleID) == modID {
				out = append(out, CuckooEntry{Words: kw, Addr: int32(ctrl & cuckooAddrMask)})
			}
		}
	}
	return out
}

func entriesEqual(a, b []CuckooEntry) bool {
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

// TestCuckooClearEmptyModuleTouchesNothing pins the O(1) path: clearing
// a module with no entries beside a populated one returns 0 without
// opening a seqlock window or writing a slot.
func TestCuckooClearEmptyModuleTouchesNothing(t *testing.T) {
	c := NewGrowingCuckoo(64)
	for i := uint32(0); i < 500; i++ {
		if err := c.Insert(ckey(i), 1, int(i)); err != nil {
			t.Fatal(err)
		}
	}
	v, used, before := c.version.Load(), c.Used(), dumpCuckoo(c)
	if n := c.ClearModule(2); n != 0 {
		t.Fatalf("ClearModule(2) = %d, want 0", n)
	}
	if got := c.version.Load(); got != v {
		t.Fatalf("seqlock version %d -> %d: an empty clear opened a window", v, got)
	}
	if c.Used() != used || !dumpsEqual(before, dumpCuckoo(c)) {
		t.Fatal("an empty clear changed the table")
	}
	if flows := c.ModuleFlows(2); flows != nil {
		t.Fatalf("ModuleFlows(2) = %v, want nil", flows)
	}
}

// TestCuckooLastSlotEntryIsFound places a module's only entry in the
// last slot of side 1 — the end of the (side, bucket, way) order — so a
// scan that stops early on a miscount would miss it.
func TestCuckooLastSlotEntryIsFound(t *testing.T) {
	c := NewCuckoo(64)
	for i := uint32(0); i < 20; i++ {
		if err := c.Insert(ckey(i), 1, int(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.state.Load()
	// A key whose side-1 bucket is the last one, so a probe finds it in
	// that bucket's last way.
	var key Key
	for v := uint32(1000); ; v++ {
		key = ckey(v)
		kw := key.Words()
		if int(cuckooHash(1, &kw, 2)&st.mask) == st.nb-1 {
			break
		}
	}
	kw := key.Words()
	last := &st.slots[1][len(st.slots[1])-1]
	if last.ctrl.Load() != 0 {
		t.Fatal("setup: last slot of side 1 already occupied")
	}
	c.mu.Lock()
	storeSlot(last, &kw, cuckooCtrl(2, 77, cuckooFP(cuckooHash(0, &kw, 2)), kw[3]))
	c.used.Add(1)
	c.counts[2].Add(1)
	c.mu.Unlock()

	if addr, ok := c.Lookup(key, 2); !ok || addr != 77 {
		t.Fatalf("setup: lookup = %d,%v", addr, ok)
	}
	flows := c.ModuleFlows(2)
	if len(flows) != 1 || flows[0].Words != kw || flows[0].Addr != 77 {
		t.Fatalf("ModuleFlows(2) = %v, want the last-slot entry", flows)
	}
	if n := c.ClearModule(2); n != 1 {
		t.Fatalf("ClearModule(2) = %d, want 1", n)
	}
	if last.ctrl.Load() != 0 || c.ModuleEntries(2) != 0 || c.Used() != 20 {
		t.Fatalf("last slot ctrl=%#x entries=%d used=%d after clear",
			last.ctrl.Load(), c.ModuleEntries(2), c.Used())
	}
	if _, ok := c.Lookup(key, 2); ok {
		t.Fatal("cleared entry still matches")
	}
}

// TestCuckooModuleFlowsMatchesFullScan holds the counted ModuleFlows to
// a reference full scan — same entries, same order — across inserts,
// deletes, module clears and growth over several interleaved modules.
func TestCuckooModuleFlowsMatchesFullScan(t *testing.T) {
	c := NewGrowingCuckoo(16)
	rng := newTestPRNG(7)
	mods := []uint16{1, 2, 3, MaxModuleID}
	check := func(op int) {
		t.Helper()
		for _, m := range mods {
			got, want := c.ModuleFlows(m), refModuleFlows(c, m)
			if !entriesEqual(got, want) {
				t.Fatalf("op %d: ModuleFlows(%d) has %d entries, full scan %d (or order differs)",
					op, m, len(got), len(want))
			}
			if c.ModuleEntries(m) != len(want) {
				t.Fatalf("op %d: ModuleEntries(%d) = %d, full scan %d", op, m, c.ModuleEntries(m), len(want))
			}
		}
	}
	for op := 0; op < 3000; op++ {
		m := mods[rng.next()%uint64(len(mods))]
		key := ckey(uint32(rng.next() % 2048))
		switch r := rng.next() % 64; {
		case r < 44:
			if err := c.Insert(key, m, int(rng.next()%1000)); err != nil {
				t.Fatal(err)
			}
		case r < 63:
			c.Delete(key, m)
		default:
			c.ClearModule(m)
		}
		if op%50 == 0 {
			check(op)
		}
	}
	check(3000)
}

// FuzzCuckoo interprets the fuzz input as an op stream (insert, delete,
// clear, lookup) replayed against a map oracle, checking lookup
// agreement, occupancy accounting, and that each module's count matches
// what ModuleFlows enumerates after every op.
func FuzzCuckoo(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x10, 0x11, 0x40, 0x01, 0x80, 0x02, 0xc0, 0x01})
	f.Add([]byte{0x00, 0x05, 0x00, 0x05, 0x40, 0x05, 0x40, 0x05})
	f.Add([]byte{0x00, 0xff, 0x80, 0xff, 0xc0, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewGrowingCuckoo(8)
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
				if err := c.Insert(key, mod, int(arg)+int(mod)*1000); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				oracle[r] = int(arg) + int(mod)*1000
			case 1: // delete
				_, want := oracle[r]
				if got := c.Delete(key, mod); got != want {
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
			addr, ok := c.Lookup(key, mod)
			waddr, wok := oracle[r]
			if ok != wok || (ok && addr != waddr) {
				t.Fatalf("op %d: lookup (%d,%v) oracle (%d,%v)", i, addr, ok, waddr, wok)
			}
			if c.Used() != len(oracle) {
				t.Fatalf("op %d: used=%d oracle=%d", i, c.Used(), len(oracle))
			}
			for m := uint16(1); m <= 3; m++ {
				if n := c.ModuleEntries(m); n != len(c.ModuleFlows(m)) {
					t.Fatalf("op %d: ModuleEntries(%d)=%d, ModuleFlows has %d", i, m, n, len(c.ModuleFlows(m)))
				}
			}
		}
	})
}
