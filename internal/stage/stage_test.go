package stage

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/alu"
	"repro/internal/phv"
	"repro/internal/tables"
)

func TestOperandEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Operand{
		{},
		{IsContainer: true, Slot: 0},
		{IsContainer: true, Slot: 24},
		{Imm: 127},
		{Imm: 1},
	}
	for _, o := range cases {
		if got := DecodeOperand(o.Encode()); got != o {
			t.Errorf("round trip %+v -> %+v", o, got)
		}
	}
}

func TestPredOpEval(t *testing.T) {
	cases := []struct {
		op   PredOp
		a, b uint64
		want bool
	}{
		{PredEq, 5, 5, true}, {PredEq, 5, 6, false},
		{PredNe, 5, 6, true}, {PredNe, 5, 5, false},
		{PredLt, 4, 5, true}, {PredLt, 5, 5, false},
		{PredGt, 6, 5, true}, {PredGt, 5, 5, false},
		{PredLe, 5, 5, true}, {PredLe, 6, 5, false},
		{PredGe, 5, 5, true}, {PredGe, 4, 5, false},
		{PredNone, 1, 1, false},
	}
	for _, tc := range cases {
		if got := tc.op.Eval(tc.a, tc.b); got != tc.want {
			t.Errorf("%d %v %d = %v, want %v", tc.a, tc.op, tc.b, got, tc.want)
		}
	}
}

func TestKeyExtractEntryEncodeRoundTrip(t *testing.T) {
	e := KeyExtractEntry{
		C6:     [2]uint8{1, 2},
		C4:     [2]uint8{3, 4},
		C2:     [2]uint8{5, 6},
		PredOp: PredGt,
		PredA:  Operand{IsContainer: true, Slot: 7},
		PredB:  Operand{Imm: 100},
	}
	v := e.Encode()
	if v>>EntryBits != 0 {
		t.Errorf("encoding %#x exceeds %d bits", v, EntryBits)
	}
	if got := DecodeKeyExtractEntry(v); got != e {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestKeyExtractEntryValidate(t *testing.T) {
	good := KeyExtractEntry{C6: [2]uint8{7, 0}}
	if err := good.Validate(); err != nil {
		t.Errorf("good entry: %v", err)
	}
	bad := KeyExtractEntry{PredOp: PredOp(9)}
	if err := bad.Validate(); err == nil {
		t.Error("bad predicate opcode accepted")
	}
}

func TestExtractKeyLayout(t *testing.T) {
	// Key layout: C6[a](0-5) C6[b](6-11) C4[a](12-15) C4[b](16-19)
	// C2[a](20-21) C2[b](22-23), predicate bit 192.
	var p phv.PHV
	p.C6[1] = [6]byte{1, 2, 3, 4, 5, 6}
	p.C6[2] = [6]byte{7, 8, 9, 10, 11, 12}
	p.C4[3] = [4]byte{0xaa, 0xbb, 0xcc, 0xdd}
	p.C2[5] = [2]byte{0xee, 0xff}
	e := KeyExtractEntry{C6: [2]uint8{1, 2}, C4: [2]uint8{3, 0}, C2: [2]uint8{5, 0}}
	k, err := e.ExtractKey(&p)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0xaa, 0xbb, 0xcc, 0xdd}
	for i, b := range want {
		if k[i] != b {
			t.Fatalf("key[%d] = %#x, want %#x (key %x)", i, k[i], b, k[:16])
		}
	}
	if k[20] != 0xee || k[21] != 0xff {
		t.Errorf("2B slot wrong: %x", k[20:22])
	}
	if k.Predicate() {
		t.Error("PredNone must leave predicate clear")
	}
}

func TestExtractKeyPredicate(t *testing.T) {
	var p phv.PHV
	p.MustSet(phv.Ref{Type: phv.Type2B, Index: 0}, 50)
	e := KeyExtractEntry{
		PredOp: PredGt,
		PredA:  Operand{IsContainer: true, Slot: 0},
		PredB:  Operand{Imm: 49},
	}
	k, err := e.ExtractKey(&p)
	if err != nil {
		t.Fatal(err)
	}
	if !k.Predicate() {
		t.Error("50 > 49 should set predicate")
	}
	e.PredB = Operand{Imm: 51}
	k, _ = e.ExtractKey(&p)
	if k.Predicate() {
		t.Error("50 > 51 should clear predicate")
	}
}

// TestExtractKeyWordsMatchesExtractKey holds the serving path's
// word-form extraction to the literal byte form: over a stride through
// all 8^6 container-index choices, every predicate opcode, and
// predicate operands that are immediates, containers of each width,
// the metadata container and the unused slots 25-31 (both errors).
func TestExtractKeyWordsMatchesExtractKey(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	var p phv.PHV
	fill := func(b []byte) {
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
	}
	for i := range p.C2 {
		fill(p.C2[i][:])
		fill(p.C4[i][:])
		fill(p.C6[i][:])
	}
	fill(p.Meta[:])
	p.C2[3] = p.C2[4] // equal operands, so == and <= can hold
	seen := map[string]bool{}
	for choice := 0; choice < 1<<18; choice += 61 {
		e := KeyExtractEntry{
			C6: [2]uint8{uint8(choice) & 7, uint8(choice>>3) & 7},
			C4: [2]uint8{uint8(choice>>6) & 7, uint8(choice>>9) & 7},
			C2: [2]uint8{uint8(choice>>12) & 7, uint8(choice>>15) & 7},
		}
		for op := PredNone; op < predMax; op++ {
			e.PredOp = op
			e.PredA = DecodeOperand(uint8(rng.Uint32()))
			e.PredB = DecodeOperand(uint8(rng.Uint32()))
			if choice%7 == 0 {
				e.PredA, e.PredB = Operand{IsContainer: true, Slot: 3}, Operand{IsContainer: true, Slot: 4}
			}
			k, kerr := e.ExtractKey(&p)
			var kw tables.KeyWords
			werr := e.ExtractKeyWords(&p, &kw)
			if want := k.Words(); kw != want || (kerr == nil) != (werr == nil) {
				t.Fatalf("%+v: ExtractKeyWords = %x (%v), ExtractKey().Words() = %x (%v)", e, kw, werr, want, kerr)
			}
			switch {
			case kerr != nil:
				seen["error"] = true
			case k.Predicate():
				seen["true "+op.String()] = true
			default:
				seen["false "+op.String()] = true
			}
		}
	}
	want := []string{"error", "false none"}
	for op := PredEq; op < predMax; op++ {
		want = append(want, "true "+op.String(), "false "+op.String())
	}
	for _, f := range want {
		if !seen[f] {
			t.Errorf("no sampled entry exercised %q", f)
		}
	}
}

func newStage(t *testing.T) *Stage {
	t.Helper()
	return New(Config{OverlayDepth: tables.OverlayDepth, CAMDepth: tables.CAMDepth, MemoryWords: tables.MemoryWords})
}

// installSimple wires module mod to match c2[0] == val and run action.
func installSimple(t *testing.T, s *Stage, mod uint16, val uint16, action alu.Action, addr int) {
	t.Helper()
	if err := s.Extract.Set(int(mod), KeyExtractEntry{}); err != nil {
		t.Fatal(err)
	}
	var mask tables.Key
	mask[20], mask[21] = 0xff, 0xff
	if err := s.Mask.Set(int(mod), mask); err != nil {
		t.Fatal(err)
	}
	var key tables.Key
	key[20], key[21] = byte(val>>8), byte(val)
	if err := s.Match.Write(addr, tables.CAMEntry{Valid: true, ModID: mod, Key: key, Mask: mask}); err != nil {
		t.Fatal(err)
	}
	if err := s.Actions.Set(addr, action); err != nil {
		t.Fatal(err)
	}
}

func setAction(slot int, imm uint16) alu.Action {
	var a alu.Action
	a[slot] = alu.Instr{Op: alu.OpSet, A: alu.NoOperand, Imm: imm}
	return a
}

// processFunc runs one PHV through a stage.
type processFunc func(s *Stage, p *phv.PHV) (Result, error)

// bothPaths runs a behaviour test against the reference oracle (Process)
// and against the serving path (ViewFor + ProcessView), so the code that
// handles traffic has direct expectations of its own and not only
// "agrees with the oracle" (flow_test.go).
func bothPaths(t *testing.T, test func(t *testing.T, process processFunc)) {
	t.Run("oracle", func(t *testing.T) { test(t, (*Stage).Process) })
	t.Run("view", func(t *testing.T) {
		test(t, func(s *Stage, p *phv.PHV) (Result, error) {
			v := s.ViewFor(int(p.ModuleID))
			return s.ProcessView(&v, p)
		})
	})
}

func TestStageProcessHit(t *testing.T) {
	bothPaths(t, func(t *testing.T, process processFunc) {
		s := newStage(t)
		installSimple(t, s, 1, 0x1234, setAction(1, 999), 0)

		var p phv.PHV
		p.ModuleID = 1
		p.MustSet(phv.Ref{Type: phv.Type2B, Index: 0}, 0x1234)
		res, err := process(s, &p)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Active || !res.Hit || res.ActionAddr != 0 {
			t.Errorf("result = %+v", res)
		}
		if p.MustGet(phv.Ref{Type: phv.Type2B, Index: 1}) != 999 {
			t.Error("action did not run")
		}
	})
}

func TestStageProcessMissRunsNoAction(t *testing.T) {
	bothPaths(t, func(t *testing.T, process processFunc) {
		s := newStage(t)
		installSimple(t, s, 1, 0x1234, setAction(1, 999), 0)
		var p phv.PHV
		p.ModuleID = 1
		p.MustSet(phv.Ref{Type: phv.Type2B, Index: 0}, 0x9999)
		res, err := process(s, &p)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Active || res.Hit {
			t.Errorf("result = %+v", res)
		}
		if p.MustGet(phv.Ref{Type: phv.Type2B, Index: 1}) != 0 {
			t.Error("miss must not modify the PHV")
		}
	})
}

func TestStageInactiveForUnconfiguredModule(t *testing.T) {
	bothPaths(t, func(t *testing.T, process processFunc) {
		s := newStage(t)
		var p phv.PHV
		p.ModuleID = 9
		res, err := process(s, &p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Active {
			t.Error("unconfigured module should pass through")
		}
	})
}

func TestStageModuleKeyIsolation(t *testing.T) {
	// Module 2 has the same key value as module 1 but its own action.
	bothPaths(t, func(t *testing.T, process processFunc) {
		s := newStage(t)
		installSimple(t, s, 1, 7, setAction(1, 111), 0)
		installSimple(t, s, 2, 7, setAction(1, 222), 1)

		var p phv.PHV
		p.ModuleID = 2
		p.MustSet(phv.Ref{Type: phv.Type2B, Index: 0}, 7)
		if _, err := process(s, &p); err != nil {
			t.Fatal(err)
		}
		if got := p.MustGet(phv.Ref{Type: phv.Type2B, Index: 1}); got != 222 {
			t.Errorf("module 2 got module 1's action: %d", got)
		}
	})
}

func TestStagePredicateSelectsEntries(t *testing.T) {
	// if (c2[0] > 10) set c2[1]=1 else set c2[1]=2, via predicate bit.
	bothPaths(t, func(t *testing.T, process processFunc) {
		s := newStage(t)
		ext := KeyExtractEntry{
			PredOp: PredGt,
			PredA:  Operand{IsContainer: true, Slot: 0},
			PredB:  Operand{Imm: 10},
		}
		if err := s.Extract.Set(1, ext); err != nil {
			t.Fatal(err)
		}
		var mask tables.Key
		mask = mask.WithPredicate(true) // only predicate bit matters
		if err := s.Mask.Set(1, mask); err != nil {
			t.Fatal(err)
		}
		kTrue := tables.Key{}.WithPredicate(true)
		kFalse := tables.Key{}
		if err := s.Match.Write(0, tables.CAMEntry{Valid: true, ModID: 1, Key: kTrue, Mask: mask}); err != nil {
			t.Fatal(err)
		}
		if err := s.Actions.Set(0, setAction(1, 1)); err != nil {
			t.Fatal(err)
		}
		if err := s.Match.Write(1, tables.CAMEntry{Valid: true, ModID: 1, Key: kFalse, Mask: mask}); err != nil {
			t.Fatal(err)
		}
		if err := s.Actions.Set(1, setAction(1, 2)); err != nil {
			t.Fatal(err)
		}

		var p phv.PHV
		p.ModuleID = 1
		p.MustSet(phv.Ref{Type: phv.Type2B, Index: 0}, 50)
		if _, err := process(s, &p); err != nil {
			t.Fatal(err)
		}
		if got := p.MustGet(phv.Ref{Type: phv.Type2B, Index: 1}); got != 1 {
			t.Errorf("then-branch: got %d, want 1", got)
		}

		p.Zero()
		p.ModuleID = 1
		p.MustSet(phv.Ref{Type: phv.Type2B, Index: 0}, 5)
		if _, err := process(s, &p); err != nil {
			t.Fatal(err)
		}
		if got := p.MustGet(phv.Ref{Type: phv.Type2B, Index: 1}); got != 2 {
			t.Errorf("else-branch: got %d, want 2", got)
		}
	})
}

func TestStageStatefulMemOps(t *testing.T) {
	bothPaths(t, func(t *testing.T, process processFunc) {
		s := newStage(t)
		if err := s.Segments.Set(1, tables.Segment{Base: 10, Range: 4}); err != nil {
			t.Fatal(err)
		}
		var act alu.Action
		act[1] = alu.Instr{Op: alu.OpLoadd, A: alu.NoOperand, Imm: 0}
		installSimple(t, s, 1, 1, act, 0)

		var p phv.PHV
		p.ModuleID = 1
		p.MustSet(phv.Ref{Type: phv.Type2B, Index: 0}, 1)
		res, err := process(s, &p)
		if err != nil {
			t.Fatal(err)
		}
		if res.MemOps != 1 {
			t.Errorf("MemOps = %d", res.MemOps)
		}
		if v, _ := s.Memory.Load(10); v != 1 {
			t.Errorf("counter at physical 10 = %d", v)
		}
	})
}

func TestClearModuleRemovesEverythingAndZeroesState(t *testing.T) {
	s := newStage(t)
	if err := s.Segments.Set(1, tables.Segment{Base: 0, Range: 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.Memory.Store(2, 777); err != nil {
		t.Fatal(err)
	}
	installSimple(t, s, 1, 5, setAction(1, 9), 0)
	installSimple(t, s, 2, 5, setAction(1, 8), 1)

	if err := s.ClearModule(1); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Extract.Lookup(1); ok {
		t.Error("extractor entry survived")
	}
	if s.Match.ValidCount(1) != 0 {
		t.Error("CAM entries survived")
	}
	if v, _ := s.Memory.Load(2); v != 0 {
		t.Error("stateful memory not zeroed on unload")
	}
	// Module 2 untouched.
	if s.Match.ValidCount(2) != 1 {
		t.Error("module 2's entries disturbed")
	}
	if _, ok := s.Extract.Lookup(2); !ok {
		t.Error("module 2's extractor disturbed")
	}
}

// Property: key extractor encode/decode round-trips.
func TestQuickKeyExtractRoundTrip(t *testing.T) {
	f := func(c6a, c6b, c4a, c4b, c2a, c2b, op uint8, pa, pb uint8) bool {
		e := KeyExtractEntry{
			C6:     [2]uint8{c6a & 7, c6b & 7},
			C4:     [2]uint8{c4a & 7, c4b & 7},
			C2:     [2]uint8{c2a & 7, c2b & 7},
			PredOp: PredOp(op % uint8(predMax)),
			PredA:  DecodeOperand(pa),
			PredB:  DecodeOperand(pb),
		}
		return DecodeKeyExtractEntry(e.Encode()) == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the masked key only exposes container bytes the mask selects.
func TestQuickMaskConfinesKey(t *testing.T) {
	f := func(vals [6]uint16, maskSel uint8) bool {
		var p phv.PHV
		for i, v := range vals {
			p.MustSet(phv.Ref{Type: phv.Type2B, Index: uint8(i)}, uint64(v))
		}
		e := KeyExtractEntry{C2: [2]uint8{0, 1}}
		k, err := e.ExtractKey(&p)
		if err != nil {
			return false
		}
		var mask tables.Key
		if maskSel&1 != 0 {
			mask[20], mask[21] = 0xff, 0xff
		}
		masked := k.Masked(mask)
		for i := range masked {
			if mask[i] == 0 && masked[i] != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
