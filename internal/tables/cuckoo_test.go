package tables

import (
	"errors"
	"testing"
	"testing/quick"
)

func ckey(v uint32) Key {
	var k Key
	k[0], k[1], k[2], k[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
	return k
}

// lookup probes c for key in its word form.
func lookup(c *Cuckoo, key Key) (int, bool) {
	kw := key.Words()
	return c.LookupWords(&kw)
}

// ftLookup probes module mod's table in f for key.
func ftLookup(f *FlowTables, key Key, mod uint16) (int, bool) {
	kw := key.Words()
	return f.LookupWords(&kw, mod)
}

// ftInsert installs key -> addr in module mod's table, opening it.
func ftInsert(t *testing.T, f *FlowTables, key Key, mod uint16, addr int) {
	t.Helper()
	c, err := f.Open(mod)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(key, addr); err != nil {
		t.Fatal(err)
	}
}

func TestCuckooInsertLookup(t *testing.T) {
	c := NewCuckoo(96)
	for i := uint32(0); i < 80; i++ { // 83% load
		if err := c.Insert(ckey(i), int(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if c.Used() != 80 {
		t.Errorf("used = %d", c.Used())
	}
	for i := uint32(0); i < 80; i++ {
		addr, ok := lookup(c, ckey(i))
		if !ok || addr != int(i) {
			t.Fatalf("lookup %d = %d,%v", i, addr, ok)
		}
	}
	if _, ok := lookup(c, ckey(999)); ok {
		t.Error("absent key found")
	}
}

// TestCuckooModuleIsolation: the same key installed by two modules
// resolves to each module's own address, and a third module with no
// table misses.
func TestCuckooModuleIsolation(t *testing.T) {
	f := NewFlowTables(OverlayDepth)
	ftInsert(t, f, ckey(7), 1, 10)
	ftInsert(t, f, ckey(7), 2, 20)
	a1, _ := ftLookup(f, ckey(7), 1)
	a2, _ := ftLookup(f, ckey(7), 2)
	if a1 != 10 || a2 != 20 {
		t.Errorf("cross-module confusion: %d %d", a1, a2)
	}
	if _, ok := ftLookup(f, ckey(7), 3); ok {
		t.Error("module 3 matched another module's entry")
	}
	if f.Table(3) != nil {
		t.Error("a lookup created module 3's table")
	}
}

func TestCuckooUpdateInPlace(t *testing.T) {
	c := NewCuckoo(8)
	if err := c.Insert(ckey(1), 5); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(ckey(1), 9); err != nil {
		t.Fatal(err)
	}
	if c.Used() != 1 {
		t.Errorf("duplicate insert grew table: used=%d", c.Used())
	}
	addr, _ := lookup(c, ckey(1))
	if addr != 9 {
		t.Errorf("addr = %d", addr)
	}
}

func TestCuckooDelete(t *testing.T) {
	c := NewCuckoo(8)
	_ = c.Insert(ckey(1), 5)
	if !c.Delete(ckey(1)) {
		t.Fatal("delete failed")
	}
	if c.Delete(ckey(1)) {
		t.Fatal("double delete succeeded")
	}
	if _, ok := lookup(c, ckey(1)); ok {
		t.Fatal("deleted key found")
	}
}

// TestCuckooClearModule: clearing a module drops its table and counts
// its entries; the other module keeps every entry, and a second clear
// finds nothing.
func TestCuckooClearModule(t *testing.T) {
	f := NewFlowTables(OverlayDepth)
	for i := uint32(0); i < 10; i++ {
		ftInsert(t, f, ckey(i), uint16(i%2), int(i))
	}
	if n := f.ClearModule(0); n != 5 {
		t.Errorf("cleared %d, want 5", n)
	}
	if f.Table(0) != nil || f.ModuleEntries(0) != 0 || f.ModuleEntries(1) != 5 {
		t.Errorf("after clear: table(0)=%p entries %d/%d", f.Table(0), f.ModuleEntries(0), f.ModuleEntries(1))
	}
	for i := uint32(0); i < 10; i++ {
		_, ok := ftLookup(f, ckey(i), uint16(i%2))
		if (i%2 == 0) == ok {
			t.Errorf("key %d: ok=%v", i, ok)
		}
	}
	if n := f.ClearModule(0); n != 0 {
		t.Errorf("second clear = %d, want 0", n)
	}
}

func TestCuckooFillsWellBeyondCAMDepth(t *testing.T) {
	// §4.3: a hash table lifts the 16-entry-per-stage bound. Shows a
	// 256-slot cuckoo accepting >=90% load.
	c := NewCuckoo(256)
	inserted := 0
	for i := uint32(0); i < 250; i++ {
		if err := c.Insert(ckey(i*2654435761), int(i)); err != nil {
			if !errors.Is(err, ErrCuckooFull) {
				t.Fatal(err)
			}
			break
		}
		inserted++
	}
	if inserted < 230 {
		t.Errorf("only %d/250 inserted before full (load %.0f%%)", inserted, float64(inserted)/float64(c.Capacity())*100)
	}
}

// Property: whatever is successfully inserted is found with its address,
// under interleaved deletes.
func TestQuickCuckooConsistency(t *testing.T) {
	f := func(keys []uint32, deletes []uint8) bool {
		c := NewCuckoo(64)
		want := map[uint32]int{}
		for i, k := range keys {
			if len(want) > 56 {
				break
			}
			if err := c.Insert(ckey(k), i); err != nil {
				continue
			}
			want[k] = i
		}
		for _, d := range deletes {
			k := uint32(d)
			if _, present := want[k]; present {
				if !c.Delete(ckey(k)) {
					return false
				}
				delete(want, k)
			}
		}
		for k, addr := range want {
			got, ok := lookup(c, ckey(k))
			if !ok || got != addr {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
