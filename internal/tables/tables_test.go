package tables

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestKeyPredicateBit(t *testing.T) {
	var k Key
	k2 := k.WithPredicate(true)
	if !k2.Predicate() {
		t.Error("predicate bit not set")
	}
	if k.Predicate() {
		t.Error("WithPredicate mutated receiver")
	}
	if k2.WithPredicate(false).Predicate() {
		t.Error("predicate bit not cleared")
	}
}

func TestKeyMasked(t *testing.T) {
	var k, m Key
	k[0], k[1], k[24] = 0xff, 0xab, 0x55
	m[0] = 0xf0
	got := k.Masked(m)
	if got[0] != 0xf0 || got[1] != 0 || got[24] != 0 {
		t.Errorf("Masked = %v", got[:2])
	}
	full := k.Masked(FullMask())
	if full != k {
		t.Error("FullMask should preserve the key")
	}
}

func TestOverlayLookupSetClear(t *testing.T) {
	o := NewOverlay[int](4)
	if _, ok := o.Lookup(0); ok {
		t.Error("fresh overlay entry should be invalid")
	}
	if err := o.Set(2, 99); err != nil {
		t.Fatal(err)
	}
	v, ok := o.Lookup(2)
	if !ok || v != 99 {
		t.Errorf("Lookup = %d,%v", v, ok)
	}
	if o.ValidCount() != 1 {
		t.Errorf("ValidCount = %d", o.ValidCount())
	}
	if err := o.Clear(2); err != nil {
		t.Fatal(err)
	}
	if _, ok := o.Lookup(2); ok {
		t.Error("cleared entry should be invalid")
	}
}

func TestOverlayBounds(t *testing.T) {
	o := NewOverlay[int](4)
	if err := o.Set(4, 1); !errors.Is(err, ErrIndexRange) {
		t.Errorf("Set(4): %v", err)
	}
	if err := o.Set(-1, 1); !errors.Is(err, ErrIndexRange) {
		t.Errorf("Set(-1): %v", err)
	}
	if err := o.Clear(9); !errors.Is(err, ErrIndexRange) {
		t.Errorf("Clear(9): %v", err)
	}
	if _, ok := o.Lookup(100); ok {
		t.Error("out-of-range lookup should miss")
	}
}

// wideEntry stands in for the wide overlay entries (parser and
// key-extract programs).
type wideEntry [16]uint64

func wideOf(v uint64) wideEntry {
	var e wideEntry
	for i := range e {
		e[i] = v
	}
	return e
}

// TestOverlayWriteCostsOneEntry pins in-place writes: a Set stores the
// one entry and allocates nothing whatever the depth, and neither does
// a Clear or the read path.
func TestOverlayWriteCostsOneEntry(t *testing.T) {
	for _, depth := range []int{16, 4096} {
		o := NewOverlay[wideEntry](depth)
		v := wideOf(7)
		if n := testing.AllocsPerRun(100, func() { _ = o.Set(depth/2, v) }); n != 0 {
			t.Errorf("depth %d: Set allocates %.1f times, want 0", depth, n)
		}
		if n := testing.AllocsPerRun(100, func() { _ = o.Clear(depth - 1) }); n != 0 {
			t.Errorf("depth %d: Clear allocates %.1f times, want 0", depth, n)
		}
		var sink uint64
		if n := testing.AllocsPerRun(100, func() {
			e, _ := o.Lookup(depth / 2)
			r, _ := o.Ref(depth / 2)
			sink += e[0] + r[15]
		}); n != 0 {
			t.Errorf("depth %d: Lookup+Ref allocate %.1f times, want 0", depth, n)
		}
		if sink == 0 {
			t.Fatal("reads saw no entry")
		}
	}
}

// TestCAMWriteCostsNothing pins in-place CAM writes: a Write, and the
// ClearModule of a module with entries in its partition, allocate
// nothing whatever the depth.
func TestCAMWriteCostsNothing(t *testing.T) {
	for _, depth := range []int{16, 4096} {
		c := NewCAM(depth)
		e := CAMEntry{Valid: true, ModID: 3, Key: keyWithByte(0, 0x5a), Mask: FullMask()}
		if n := testing.AllocsPerRun(100, func() { _ = c.Write(depth/2, e) }); n != 0 {
			t.Errorf("depth %d: Write allocates %.1f times, want 0", depth, n)
		}
		c.ClearModule(3)
		cleared := 0
		if n := testing.AllocsPerRun(100, func() {
			if err := c.Partition(3, 0, depth); err != nil {
				t.Fatal(err)
			}
			for addr := range 4 {
				_ = c.Write(addr*3, e)
			}
			cleared += c.ClearModule(3)
		}); n != 0 {
			t.Errorf("depth %d: Partition+Write+ClearModule allocate %.1f times, want 0", depth, n)
		}
		// AllocsPerRun makes one warm-up run before the 100 it counts.
		if cleared != 101*4 || c.ValidCount(-1) != 0 {
			t.Errorf("depth %d: ClearModule cleared %d entries (want %d), %d left", depth, cleared, 101*4, c.ValidCount(-1))
		}
	}
}

func keyWithByte(i int, v byte) Key {
	var k Key
	k[i] = v
	return k
}

func TestCAMExactMatchIsolatesModules(t *testing.T) {
	c := NewCAM(16)
	k := keyWithByte(0, 0xaa)
	if err := c.Write(0, CAMEntry{Valid: true, ModID: 1, Key: k, Mask: FullMask()}); err != nil {
		t.Fatal(err)
	}
	if _, hit := c.Lookup(k, 1); !hit {
		t.Error("module 1 should match its own entry")
	}
	if _, hit := c.Lookup(k, 2); hit {
		t.Error("module 2 must not match module 1's entry (module ID appended to key)")
	}
}

func TestCAMLowestAddressWins(t *testing.T) {
	c := NewCAM(8)
	k := keyWithByte(3, 0x42)
	// Two ternary entries both matching; address 2 must win over 5.
	var loose Key // zero mask matches everything
	if err := c.Write(5, CAMEntry{Valid: true, ModID: 1, Key: Key{}, Mask: loose}); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(2, CAMEntry{Valid: true, ModID: 1, Key: k, Mask: FullMask()}); err != nil {
		t.Fatal(err)
	}
	addr, hit := c.Lookup(k, 1)
	if !hit || addr != 2 {
		t.Errorf("Lookup = %d,%v, want 2,true", addr, hit)
	}
	// A different key falls through to the match-all at 5.
	addr, hit = c.Lookup(keyWithByte(3, 0x43), 1)
	if !hit || addr != 5 {
		t.Errorf("fallthrough Lookup = %d,%v, want 5,true", addr, hit)
	}
}

func TestCAMTernaryMask(t *testing.T) {
	c := NewCAM(4)
	var mask Key
	mask[0] = 0xf0 // match high nibble of byte 0 only
	e := CAMEntry{Valid: true, ModID: 3, Key: keyWithByte(0, 0xa0), Mask: mask}
	if err := c.Write(0, e); err != nil {
		t.Fatal(err)
	}
	if _, hit := c.Lookup(keyWithByte(0, 0xaf), 3); !hit {
		t.Error("ternary entry should match 0xaf (masked to 0xa0)")
	}
	if _, hit := c.Lookup(keyWithByte(0, 0xbf), 3); hit {
		t.Error("ternary entry must not match 0xbf")
	}
}

func TestCAMPartitionEnforcement(t *testing.T) {
	c := NewCAM(16)
	if err := c.Partition(1, 0, 8); err != nil {
		t.Fatal(err)
	}
	if err := c.Partition(2, 8, 16); err != nil {
		t.Fatal(err)
	}
	// Overlapping partition rejected.
	if err := c.Partition(3, 4, 12); err == nil {
		t.Error("overlapping partition accepted")
	}
	// Write outside own partition rejected.
	err := c.Write(9, CAMEntry{Valid: true, ModID: 1, Mask: FullMask()})
	if !errors.Is(err, ErrIndexRange) {
		t.Errorf("cross-partition write: %v", err)
	}
	// Write inside own partition accepted.
	if err := c.Write(3, CAMEntry{Valid: true, ModID: 1, Mask: FullMask()}); err != nil {
		t.Errorf("in-partition write: %v", err)
	}
	// Repartitioning the same module is allowed.
	if err := c.Partition(1, 0, 4); err != nil {
		t.Errorf("repartition: %v", err)
	}
}

func TestCAMInsertFindsFreeSlot(t *testing.T) {
	c := NewCAM(4)
	if err := c.Partition(1, 1, 3); err != nil {
		t.Fatal(err)
	}
	a1, err := c.Insert(CAMEntry{ModID: 1, Key: keyWithByte(0, 1), Mask: FullMask()})
	if err != nil || a1 != 1 {
		t.Fatalf("first insert at %d (err %v), want 1", a1, err)
	}
	a2, err := c.Insert(CAMEntry{ModID: 1, Key: keyWithByte(0, 2), Mask: FullMask()})
	if err != nil || a2 != 2 {
		t.Fatalf("second insert at %d (err %v), want 2", a2, err)
	}
	if _, err := c.Insert(CAMEntry{ModID: 1, Key: keyWithByte(0, 3), Mask: FullMask()}); !errors.Is(err, ErrCAMFull) {
		t.Errorf("full partition: %v", err)
	}
}

func TestCAMClearModule(t *testing.T) {
	c := NewCAM(8)
	for i := 0; i < 4; i++ {
		mod := uint16(i % 2)
		if err := c.Write(i, CAMEntry{Valid: true, ModID: mod, Key: keyWithByte(1, byte(i)), Mask: FullMask()}); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.ClearModule(0); n != 2 {
		t.Errorf("ClearModule(0) removed %d, want 2", n)
	}
	if c.ValidCount(-1) != 2 {
		t.Errorf("remaining = %d, want 2", c.ValidCount(-1))
	}
	if c.ValidCount(1) != 2 {
		t.Error("module 1 entries disturbed by module 0 clear")
	}
	// A module with no entries leaves the published array as it was.
	before := &c.Entries()[0]
	if n := c.ClearModule(7); n != 0 || &c.Entries()[0] != before {
		t.Errorf("ClearModule(7) of an absent module removed %d and republished: %v", n, &c.Entries()[0] != before)
	}
}

func TestSegmentTranslate(t *testing.T) {
	s := NewSegmentTable(4)
	if err := s.Set(1, Segment{Base: 100, Range: 10}); err != nil {
		t.Fatal(err)
	}
	phys, err := s.Translate(1, 5)
	if err != nil || phys != 105 {
		t.Errorf("Translate = %d, %v; want 105", phys, err)
	}
	if _, err := s.Translate(1, 10); !errors.Is(err, ErrSegFault) {
		t.Errorf("range fault: %v", err)
	}
	if _, err := s.Translate(2, 0); !errors.Is(err, ErrNoEntry) {
		t.Errorf("no segment: %v", err)
	}
}

func TestStatefulMemoryOps(t *testing.T) {
	m := NewStatefulMemory(16)
	if err := m.Store(3, 42); err != nil {
		t.Fatal(err)
	}
	v, err := m.Load(3)
	if err != nil || v != 42 {
		t.Errorf("Load = %d, %v", v, err)
	}
	nv, err := m.LoadAddStore(3)
	if err != nil || nv != 43 {
		t.Errorf("LoadAddStore = %d, %v", nv, err)
	}
	if v, _ := m.Load(3); v != 43 {
		t.Error("LoadAddStore did not persist")
	}
	if _, err := m.Load(16); !errors.Is(err, ErrIndexRange) {
		t.Errorf("out-of-range Load: %v", err)
	}
	if err := m.Store(99, 1); !errors.Is(err, ErrIndexRange) {
		t.Errorf("out-of-range Store: %v", err)
	}
}

func TestStatefulMemoryZeroRange(t *testing.T) {
	m := NewStatefulMemory(8)
	for i := uint64(0); i < 8; i++ {
		_ = m.Store(i, i+1)
	}
	if err := m.ZeroRange(2, 3); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	want := []uint64{1, 2, 0, 0, 0, 6, 7, 8}
	for i := range want {
		if snap[i] != want[i] {
			t.Fatalf("Snapshot = %v, want %v", snap, want)
		}
	}
	if err := m.ZeroRange(6, 4); !errors.Is(err, ErrIndexRange) {
		t.Errorf("overflow ZeroRange: %v", err)
	}
}

func TestGeometryConstantsMatchPaper(t *testing.T) {
	if OverlayDepth != 32 {
		t.Errorf("OverlayDepth = %d, want 32", OverlayDepth)
	}
	if CAMDepth != 16 {
		t.Errorf("CAMDepth = %d, want 16", CAMDepth)
	}
	if KeyBits != 193 {
		t.Errorf("KeyBits = %d, want 193 (24*8+1)", KeyBits)
	}
	if CAMWidthBits != 205 {
		t.Errorf("CAMWidthBits = %d, want 205 (193+12)", CAMWidthBits)
	}
}

// Property: a module never matches another module's entries, whatever the
// keys and masks.
func TestQuickCAMModuleIsolation(t *testing.T) {
	f := func(keyByte, maskByte byte, modA, modB uint16) bool {
		modA &= MaxModuleID
		modB &= MaxModuleID
		if modA == modB {
			return true
		}
		c := NewCAM(2)
		var mask Key
		mask[0] = maskByte
		_ = c.Write(0, CAMEntry{Valid: true, ModID: modA, Key: keyWithByte(0, keyByte), Mask: mask})
		_, hit := c.Lookup(keyWithByte(0, keyByte), modB)
		return !hit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: segment translation never produces an address outside
// [base, base+range).
func TestQuickSegmentBounds(t *testing.T) {
	f := func(base, rng uint8, addr uint64) bool {
		s := NewSegmentTable(1)
		_ = s.Set(0, Segment{Base: base, Range: rng})
		phys, err := s.Translate(0, addr)
		if err != nil {
			return true // faults are safe
		}
		return phys >= uint64(base) && phys < uint64(base)+uint64(rng)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
