package compiler

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/alu"
	"repro/internal/core"
	"repro/internal/sysmod"
)

const calcSrc = `
module calc;
header calc_h { op : 16; opa : 32; opb : 32; result : 32; }
parser { extract calc_h at 46; }
action do_add() { calc_h.result = calc_h.opa + calc_h.opb; }
action do_sub() { calc_h.result = calc_h.opa - calc_h.opb; }
table ops {
    key = { calc_h.op; }
    actions = { do_add; do_sub; }
    size = 4;
    entries { (1) -> do_add; (2) -> do_sub; }
}
control { apply(ops); }
`

func compileOK(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Compile(src, Options{ModuleID: 1})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p
}

func compileErr(t *testing.T, src string, sentinel error) {
	t.Helper()
	_, err := Compile(src, Options{ModuleID: 1})
	if err == nil {
		t.Fatal("compile unexpectedly succeeded")
	}
	if sentinel != nil && !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
}

func TestCompileCALC(t *testing.T) {
	p := compileOK(t, calcSrc)
	if p.Config.Name != "calc" {
		t.Errorf("name = %s", p.Config.Name)
	}
	if p.StagesUsed != 1 {
		t.Errorf("stages = %d", p.StagesUsed)
	}
	if p.EntriesGenerated != 4 {
		t.Errorf("entries = %d, want 4 (2 explicit + 2 filler)", p.EntriesGenerated)
	}
	lo, _ := sysmod.TenantStages()
	sc := p.Config.Stages[lo]
	if !sc.Used {
		t.Fatal("first tenant stage unused")
	}
	if len(sc.Rules) != 4 {
		t.Errorf("rules = %d", len(sc.Rules))
	}
	// The key masks bytes 20-21 (first 2-byte key slot).
	if sc.Mask[20] != 0xff || sc.Mask[21] != 0xff || sc.Mask[0] != 0 {
		t.Errorf("mask = %x", sc.Mask[:])
	}
	// Parser extracts 4 fields at consecutive offsets from 46.
	if n := p.Config.Parser.ValidActions(); n != 4 {
		t.Errorf("parser actions = %d", n)
	}
	if p.Config.Parser.Actions[0].Offset != 46 || p.Config.Parser.Actions[1].Offset != 48 {
		t.Errorf("field offsets: %+v", p.Config.Parser.Actions[:2])
	}
}

func TestCompileGeneratesDistinctFillerEntries(t *testing.T) {
	p := compileOK(t, strings.Replace(calcSrc, "size = 4;", "size = 16;", 1))
	lo, _ := sysmod.TenantStages()
	rules := p.Config.Stages[lo].Rules
	if len(rules) != 16 {
		t.Fatalf("rules = %d", len(rules))
	}
	seen := map[[25]byte]bool{}
	for _, r := range rules {
		if seen[r.Key] {
			t.Fatalf("duplicate generated key %x", r.Key)
		}
		seen[r.Key] = true
	}
}

func TestCompileRejectsDuplicateEntryKeys(t *testing.T) {
	src := strings.Replace(calcSrc, "(2) -> do_sub;", "(1) -> do_sub;", 1)
	compileErr(t, src, ErrSemantic)
}

func TestVLIWLoweringAdd(t *testing.T) {
	p := compileOK(t, calcSrc)
	lo, _ := sysmod.TenantStages()
	r := p.Config.Stages[lo].Rules[0] // (1) -> do_add
	// result is the third 4-byte field -> container C4[2] -> slot 10;
	// opa C4[0] slot 8, opb C4[1] slot 9.
	in := r.Action[10]
	if in.Op != alu.OpAdd || in.A != 8 || in.B != 9 {
		t.Errorf("do_add lowered to %v", in)
	}
}

func TestStaticCheckVIDProtection(t *testing.T) {
	src := `
module m;
header h_h { f : 16; }
parser { extract h_h at 14; }
action a() { h_h.f = 1; }
table t { key = { h_h.f; } actions = { a; } size = 1; }
control { apply(t); }
`
	compileErr(t, src, ErrStatic)
}

func TestStaticCheckRecirculate(t *testing.T) {
	src := `
module m;
header h_h { f : 16; }
parser { extract h_h at 46; }
action a() { recirculate(); }
table t { key = { h_h.f; } actions = { a; } size = 1; }
control { apply(t); }
`
	compileErr(t, src, ErrStatic)
}

func TestResourceCheckTooManyParseFields(t *testing.T) {
	// 9 fields > the 8-action tenant share.
	src := `
module m;
header h_h { f0:16; f1:16; f2:16; f3:16; f4:16; f5:16; f6:16; f7:16; f8:16; }
parser { extract h_h at 46; }
action a() { h_h.f0 = 1; }
table t { key = { h_h.f0; } actions = { a; } size = 1; }
control { apply(t); }
`
	compileErr(t, src, ErrResource)
}

func TestResourceCheckTooManyStages(t *testing.T) {
	src := `
module m;
header h_h { a:16; b:16; c:16; d:16; }
parser { extract h_h at 46; }
action x() { h_h.a = 1; }
table t1 { key = { h_h.a; } actions = { x; } size = 1; }
table t2 { key = { h_h.b; } actions = { x; } size = 1; }
table t3 { key = { h_h.c; } actions = { x; } size = 1; }
table t4 { key = { h_h.d; } actions = { x; } size = 1; }
control { apply(t1); apply(t2); apply(t3); apply(t4); }
`
	compileErr(t, src, ErrResource)
}

func TestResourceCheckEntryBudget(t *testing.T) {
	src := strings.Replace(calcSrc, "size = 4;", "size = 64;", 1)
	compileErr(t, src, ErrResource)

	// But with an explicit larger allocation it compiles.
	limits := DefaultLimits()
	limits.EntriesPerTable = 64
	if _, err := Compile(strings.Replace(calcSrc, "size = 4;", "size = 64;", 1),
		Options{ModuleID: 1, Limits: limits}); err != nil {
		t.Errorf("with raised limits: %v", err)
	}
}

func TestResourceCheckKeyWidth(t *testing.T) {
	src := `
module m;
header h_h { a:16; b:16; c:16; }
parser { extract h_h at 46; }
action x() { h_h.a = 1; }
table t { key = { h_h.a; h_h.b; h_h.c; } actions = { x; } size = 1; }
control { apply(t); }
`
	compileErr(t, src, ErrResource) // three 2-byte key fields, max two
}

func TestSemanticUnknownNames(t *testing.T) {
	compileErr(t, `
module m;
header h_h { f:16; }
parser { extract nosuch at 46; }
action a() { h_h.f = 1; }
table t { key = { h_h.f; } actions = { a; } size = 1; }
control { apply(t); }
`, ErrSemantic)

	compileErr(t, `
module m;
header h_h { f:16; }
parser { extract h_h at 46; }
action a() { h_h.g = 1; }
table t { key = { h_h.f; } actions = { a; } size = 1; }
control { apply(t); }
`, ErrSemantic)

	compileErr(t, `
module m;
header h_h { f:16; }
parser { extract h_h at 46; }
action a() { h_h.f = 1; }
table t { key = { h_h.f; } actions = { nosuch; } size = 1; }
control { apply(t); }
`, ErrSemantic)

	compileErr(t, `
module m;
header h_h { f:16; }
parser { extract h_h at 46; }
action a() { h_h.f = 1; }
table t { key = { h_h.f; } actions = { a; } size = 1; }
control { apply(other); }
`, ErrSemantic)
}

func TestSemanticBadFieldWidth(t *testing.T) {
	compileErr(t, `
module m;
header h_h { f : 24; }
parser { extract h_h at 46; }
action a() { }
table t { key = { h_h.f; } actions = { a; } size = 1; }
control { apply(t); }
`, ErrSemantic)
}

func TestSemanticDoubleWriteOneALU(t *testing.T) {
	compileErr(t, `
module m;
header h_h { f:16; g:16; }
parser { extract h_h at 46; }
action a() { h_h.f = 1; h_h.f = 2; }
table t { key = { h_h.g; } actions = { a; } size = 1; }
control { apply(t); }
`, ErrSemantic)
}

func TestSemanticTableAppliedTwice(t *testing.T) {
	compileErr(t, `
module m;
header h_h { f:16; }
parser { extract h_h at 46; }
action a() { h_h.f = 1; }
table t { key = { h_h.f; } actions = { a; } size = 1; }
control { apply(t); apply(t); }
`, ErrSemantic)
}

func TestRegisterCrossStageRejected(t *testing.T) {
	compileErr(t, `
module m;
header h_h { a:16; b:16; }
register r[4];
parser { extract h_h at 46; }
action w1() { r[0] = h_h.a; }
action w2() { r[1] = h_h.b; }
table t1 { key = { h_h.a; } actions = { w1; } size = 1; }
table t2 { key = { h_h.b; } actions = { w2; } size = 1; }
control { apply(t1); apply(t2); }
`, ErrSemantic)
}

func TestConditionalUsesTwoStagesAndPredicates(t *testing.T) {
	src := `
module m;
header h_h { f:16; x:16; }
parser { extract h_h at 46; }
action a() { h_h.x = 1; }
action b() { h_h.x = 2; }
table t1 { key = { h_h.f; } actions = { a; } size = 1; entries { (0) -> a; } }
table t2 { key = { h_h.f; } actions = { b; } size = 1; entries { (0) -> b; } }
control { if (h_h.f < 10) { apply(t1); } else { apply(t2); } }
`
	p := compileOK(t, src)
	if p.StagesUsed != 2 {
		t.Fatalf("stages = %d, want 2", p.StagesUsed)
	}
	lo, _ := sysmod.TenantStages()
	then := p.Config.Stages[lo]
	els := p.Config.Stages[lo+1]
	if !then.Rules[0].Key.Predicate() {
		t.Error("then-branch entry should carry predicate bit 1")
	}
	if els.Rules[0].Key.Predicate() {
		t.Error("else-branch entry should carry predicate bit 0")
	}
	if !then.Mask.Predicate() || !els.Mask.Predicate() {
		t.Error("conditional tables must match the predicate bit")
	}
}

func TestStartStagePlacement(t *testing.T) {
	limits := DefaultLimits()
	lo, hi := sysmod.TenantStages()
	limits.StartStage = hi
	p, err := Compile(calcSrc, Options{ModuleID: 1, Limits: limits})
	if err != nil {
		t.Fatal(err)
	}
	if p.Config.Stages[lo].Used || !p.Config.Stages[hi].Used {
		t.Error("StartStage placement ignored")
	}

	limits.StartStage = hi + 1
	if _, err := Compile(calcSrc, Options{ModuleID: 1, Limits: limits}); err == nil {
		t.Error("out-of-range StartStage accepted")
	}
}

func TestActionParamsBoundPerEntry(t *testing.T) {
	src := `
module m;
header h_h { f:16; x:16; }
parser { extract h_h at 46; }
action setx(v) { h_h.x = v; }
table t {
    key = { h_h.f; }
    actions = { setx; }
    size = 3;
    entries { (1) -> setx(100); (2) -> setx(200); }
}
control { apply(t); }
`
	p := compileOK(t, src)
	lo, _ := sysmod.TenantStages()
	rules := p.Config.Stages[lo].Rules
	// x is the second 16-bit field -> C2[1] -> slot 1.
	if rules[0].Action[1].Imm != 100 || rules[1].Action[1].Imm != 200 {
		t.Errorf("per-entry binding wrong: %v / %v", rules[0].Action[1], rules[1].Action[1])
	}
	// Filler entry binds zero args.
	if rules[2].Action[1].Imm != 0 {
		t.Errorf("filler binding = %v", rules[2].Action[1])
	}
}

func TestEntryArgArityChecked(t *testing.T) {
	compileErr(t, `
module m;
header h_h { f:16; x:16; }
parser { extract h_h at 46; }
action setx(v) { h_h.x = v; }
table t { key = { h_h.f; } actions = { setx; } size = 1; entries { (1) -> setx; } }
control { apply(t); }
`, ErrSemantic)
}

func TestEntryKeyWidthChecked(t *testing.T) {
	compileErr(t, `
module m;
header h_h { f:16; }
parser { extract h_h at 46; }
action a() { }
table t { key = { h_h.f; } actions = { a; } size = 1; entries { (70000) -> a; } }
control { apply(t); }
`, ErrSemantic)
}

func TestRegistersReportedInProgram(t *testing.T) {
	src := `
module m;
header h_h { op:16; v:32; }
register st[8];
parser { extract h_h at 46; }
action rd() { h_h.v = st[h_h.op]; }
table t { key = { h_h.op; } actions = { rd; } size = 1; }
control { apply(t); }
`
	p := compileOK(t, src)
	if len(p.Registers) != 1 {
		t.Fatalf("registers = %d", len(p.Registers))
	}
	r := p.Registers[0]
	lo, _ := sysmod.TenantStages()
	if r.Name != "st" || r.Stage != lo || r.Words != 8 {
		t.Errorf("register info = %+v", r)
	}
	if p.Config.Stages[lo].SegmentWords != 8 {
		t.Errorf("segment words = %d", p.Config.Stages[lo].SegmentWords)
	}
}

func TestKeylessTableMatchesAll(t *testing.T) {
	src := `
module m;
header h_h { x:16; }
parser { extract h_h at 46; }
action bump() { h_h.x = 7; }
table t { actions = { bump; } size = 1; }
control { apply(t); }
`
	p := compileOK(t, src)
	lo, _ := sysmod.TenantStages()
	sc := p.Config.Stages[lo]
	if len(sc.Rules) != 1 {
		t.Fatalf("rules = %d", len(sc.Rules))
	}
	if sc.Mask != (core.StageConfig{}.Mask) {
		t.Error("keyless table should have an all-zero mask (match everything)")
	}
}

func TestParseErrorsHavePositions(t *testing.T) {
	_, err := Compile("module m\nheader x {", Options{ModuleID: 1})
	if err == nil {
		t.Fatal("expected parse error")
	}
	var se *SyntaxError
	if !errors.As(err, &se) {
		t.Fatalf("err %T is not a SyntaxError", err)
	}
	if se.Line < 1 {
		t.Errorf("bad position: %v", se)
	}
}

func TestLexerFeatures(t *testing.T) {
	toks, err := lexAll(`foo 0x1F 42 "str" -> == != <= >= ++ // comment
/* block
comment */ bar`)
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		if tk.kind != tokEOF {
			texts = append(texts, tk.text)
		}
	}
	want := []string{"foo", "0x1F", "42", "str", "->", "==", "!=", "<=", ">=", "++", "bar"}
	if len(texts) != len(want) {
		t.Fatalf("tokens = %v", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	if toks[1].num != 0x1f || toks[2].num != 42 {
		t.Error("number values wrong")
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lexAll("@"); err == nil {
		t.Error("bad character accepted")
	}
	if _, err := lexAll(`"unterminated`); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := lexAll("/* unterminated"); err == nil {
		t.Error("unterminated comment accepted")
	}
}

// TestLexerRejectsHighBytes pins ASCII identifiers: a byte >= 0x80 is
// never part of an identifier, and the error names that byte at its own
// line:col instead of decoding it as a Latin-1 letter.
func TestLexerRejectsHighBytes(t *testing.T) {
	for _, tc := range []struct {
		src, want string
	}{
		{"a\xffb", "1:2: unexpected byte 0xff"},
		{"café x", "1:4: unexpected byte 0xc3"},
		{"x;\n  é", "2:3: unexpected byte 0xc3"},
		{"_a9Z z", ""},
	} {
		toks, err := lexAll(tc.src)
		if tc.want == "" {
			if err != nil || len(toks) != 3 || toks[0].text != "_a9Z" {
				t.Errorf("lexAll(%q) = %v, %v; want identifiers _a9Z, z", tc.src, toks, err)
			}
			continue
		}
		var se *SyntaxError
		if !errors.As(err, &se) || err.Error() != tc.want {
			t.Errorf("lexAll(%q) = %v, %v; want SyntaxError %q", tc.src, toks, err, tc.want)
		}
	}
}

func TestCommandsGeneratedFromConfig(t *testing.T) {
	p := compileOK(t, calcSrc)
	pl := core.Placement{
		CAMBase: make([]int, core.NumStages),
		SegBase: make([]uint8, core.NumStages),
	}
	cmds, err := p.Config.Commands(pl)
	if err != nil {
		t.Fatal(err)
	}
	// parser + deparser + per-stage (keyextract + mask) + 4x(cam+vliw).
	want := 2 + 2 + 8
	if len(cmds) != want {
		t.Errorf("commands = %d, want %d", len(cmds), want)
	}
}

const lpmFirewallSrc = `
module lpm_firewall;
header ip_h { srcip : 32; dstip : 32; }
parser { extract ip_h at 30; }
action allow() { }
action deny()  { drop(); }
table acl {
    key     = { ip_h.srcip; }
    actions = { allow; deny; }
    match   = ternary;
    size    = 8;
    entries {
        (0x0a010000/0xffff0000) -> allow;   // 10.1.0.0/16 exempt
        (0x0a000000/0xff000000) -> deny;    // 10.0.0.0/8 blocked
    }
}
control { apply(acl); }
`

func TestTernaryTableCompiles(t *testing.T) {
	p := compileOK(t, lpmFirewallSrc)
	lo, _ := sysmod.TenantStages()
	sc := p.Config.Stages[lo]
	if len(sc.Rules) != 2 {
		t.Fatalf("rules = %d", len(sc.Rules))
	}
	if sc.ReservedSlots != 6 {
		t.Errorf("reserved = %d, want 6 (size 8 - 2 entries)", sc.ReservedSlots)
	}
	// First rule masks only the top 16 bits of the srcip field (key
	// bytes 12-13), second the top 8 (byte 12).
	if sc.Rules[0].Mask[12] != 0xff || sc.Rules[0].Mask[13] != 0xff || sc.Rules[0].Mask[14] != 0 {
		t.Errorf("rule0 mask = %x", sc.Rules[0].Mask[12:16])
	}
	if sc.Rules[1].Mask[12] != 0xff || sc.Rules[1].Mask[13] != 0 {
		t.Errorf("rule1 mask = %x", sc.Rules[1].Mask[12:16])
	}
	if sc.PartitionSize() != 8 {
		t.Errorf("partition size = %d", sc.PartitionSize())
	}
}

func TestTernaryMaskRejectedInExactTable(t *testing.T) {
	src := strings.Replace(lpmFirewallSrc, "match   = ternary;", "", 1)
	compileErr(t, src, ErrSemantic)
}

func TestExactDuplicatesAllowedInTernary(t *testing.T) {
	// The same key value with different masks is legal ternary priority.
	src := `
module m;
header ip_h { srcip : 32; }
parser { extract ip_h at 30; }
action a() { }
action b() { drop(); }
table t {
    key = { ip_h.srcip; }
    actions = { a; b; }
    match = ternary;
    size = 4;
    entries {
        (0x0a000001) -> a;
        (0x0a000001/0xff000000) -> b;
    }
}
control { apply(t); }
`
	compileOK(t, src)
}

func TestBadMatchKind(t *testing.T) {
	src := strings.Replace(lpmFirewallSrc, "match   = ternary;", "match = lpm;", 1)
	if _, err := Compile(src, Options{ModuleID: 1}); err == nil {
		t.Error("unknown match kind accepted")
	}
}

func TestCompileChainTwoModules(t *testing.T) {
	first := `
module classify;
header l4_h { sport : 16; dport : 16; }
parser { extract l4_h at 38; }
action mark() { l4_h.sport = 7777; }
table cls { key = { l4_h.dport; } actions = { mark; } size = 2; entries { (80) -> mark; } }
control { apply(cls); }
`
	second := `
module count;
header l4_h { sport : 16; dport : 16; }
register hits[4];
parser { extract l4_h at 38; }
action bump() { l4_h.dport = hits[0]++; }
table cnt { key = { l4_h.sport; } actions = { bump; } size = 2; entries { (7777) -> bump; } }
control { apply(cnt); }
`
	prog, err := CompileChain([]string{first, second}, Options{ModuleID: 3})
	if err != nil {
		t.Fatal(err)
	}
	if prog.StagesUsed != 2 {
		t.Errorf("stages = %d", prog.StagesUsed)
	}
	if prog.Config.Name != "classify+count" {
		t.Errorf("name = %s", prog.Config.Name)
	}
	lo, _ := sysmod.TenantStages()
	if !prog.Config.Stages[lo].Used || !prog.Config.Stages[lo+1].Used {
		t.Error("chained modules not in consecutive stages")
	}
	// Identical extractions are shared: 2 fields, not 4.
	if n := prog.Config.Parser.ValidActions(); n != 2 {
		t.Errorf("parser actions = %d, want 2 (shared)", n)
	}
	// Register qualified by module name.
	if len(prog.Registers) != 1 || prog.Registers[0].Name != "count.hits" {
		t.Errorf("registers = %+v", prog.Registers)
	}
}

func TestCompileChainConflictingExtraction(t *testing.T) {
	a := `
module a;
header h_h { f : 16; }
parser { extract h_h at 46; }
action x() { h_h.f = 1; }
table t { key = { h_h.f; } actions = { x; } size = 1; }
control { apply(t); }
`
	b := `
module b;
header h_h { f : 16; }
parser { extract h_h at 48; }  // same container, different offset
action x() { h_h.f = 1; }
table t { key = { h_h.f; } actions = { x; } size = 1; }
control { apply(t); }
`
	if _, err := CompileChain([]string{a, b}, Options{ModuleID: 1}); err == nil {
		t.Fatal("conflicting extraction accepted")
	}
}

func TestCompileChainTooLong(t *testing.T) {
	mod := `
module m;
header h_h { f : 16; }
parser { extract h_h at 46; }
action x() { h_h.f = 1; }
table t { key = { h_h.f; } actions = { x; } size = 1; }
control { apply(t); }
`
	// 4 single-stage modules > 3 tenant stages.
	if _, err := CompileChain([]string{mod, mod, mod, mod}, Options{ModuleID: 1}); err == nil {
		t.Fatal("overlong chain accepted")
	}
	if _, err := CompileChain(nil, Options{ModuleID: 1}); err == nil {
		t.Fatal("empty chain accepted")
	}
}

// TestParserRobustness feeds systematically malformed inputs through the
// full frontend: every case must produce a positioned error, never a
// panic or success.
func TestParserRobustness(t *testing.T) {
	cases := []string{
		"",
		"module",
		"module ;",
		"module m",
		"module m; header",
		"module m; header h {",
		"module m; header h { f }",
		"module m; header h { f : ; }",
		"module m; header h { f : 16 }",
		"module m; register r;",
		"module m; register r[;",
		"module m; register r[4;",
		"module m; register r[4]",
		"module m; parser { extract }",
		"module m; parser { extract h }",
		"module m; parser { extract h at }",
		"module m; parser { extract h at 46 }",
		"module m; action a { }",
		"module m; action a( { }",
		"module m; action a() { x }",
		"module m; action a() { x.y }",
		"module m; action a() { x.y = }",
		"module m; action a() { x.y = 1 }",
		"module m; action a() { set_port(); }",
		"module m; action a() { drop( }",
		"module m; table t {",
		"module m; table t { key = x }",
		"module m; table t { size = x; }",
		"module m; table t { match = 5; }",
		"module m; table t { entries { ( } }",
		"module m; table t { entries { (1) } }",
		"module m; table t { entries { (1) -> } }",
		"module m; control {",
		"module m; control { apply }",
		"module m; control { apply( }",
		"module m; control { if (x.y 1) { apply(t); } }",
		"module m; control { if (x.y == 200) { apply(t); } }", // imm > 127
		"module m; garbage",
		"module m; action a() { r[0] = ; }",
		"module m; action a() { x.y = loadd(; }",
	}
	for _, src := range cases {
		if _, err := Compile(src, Options{ModuleID: 1}); err == nil {
			t.Errorf("malformed input compiled: %q", src)
		}
	}
}

func TestActionSubtractionConstLeftRejected(t *testing.T) {
	compileErr(t, `
module m;
header h_h { f:16; g:16; }
parser { extract h_h at 46; }
action a() { h_h.f = 5 - h_h.g; }
table t { key = { h_h.f; } actions = { a; } size = 1; }
control { apply(t); }
`, ErrSemantic)
}

func TestConstantFolding(t *testing.T) {
	p := compileOK(t, `
module m;
header h_h { f:16; g:16; }
parser { extract h_h at 46; }
action a() { h_h.f = 40 + 2; }
table t { actions = { a; } size = 1; }
control { apply(t); }
`)
	lo, _ := sysmod.TenantStages()
	in := p.Config.Stages[lo].Rules[0].Action[0]
	if in.Op != alu.OpSet || in.Imm != 42 {
		t.Errorf("const fold = %v", in)
	}
}

func TestConditionWithFieldOperand(t *testing.T) {
	p := compileOK(t, `
module m;
header h_h { a:16; b:16; x:16; }
parser { extract h_h at 46; }
action w() { h_h.x = 1; }
table t { actions = { w; } size = 1; }
control { if (h_h.a > h_h.b) { apply(t); } }
`)
	lo, _ := sysmod.TenantStages()
	ext := p.Config.Stages[lo].Extract
	if !ext.PredA.IsContainer || !ext.PredB.IsContainer {
		t.Errorf("field-field condition lowered to %+v", ext)
	}
}

// lexAll tokenizes the whole input, EOF token included, stopping at the
// first lexical error.
func lexAll(src string) ([]token, error) {
	l := &lexer{src: src, line: 1, col: 1}
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

// TestNumberLiteralOverflow pins that a literal above 2^64-1 is a
// lexical error: 2^64+1, in decimal or hex, once wrapped to key 1 and
// compiled.
func TestNumberLiteralOverflow(t *testing.T) {
	for _, lit := range []string{"18446744073709551617", "0x10000000000000001", "18446744073709551616", "99999999999999999999"} {
		src := strings.Replace(calcSrc, "(1) -> do_add", "("+lit+") -> do_add", 1)
		_, err := Compile(src, Options{ModuleID: 1})
		var se *SyntaxError
		if !errors.As(err, &se) || !strings.Contains(se.Msg, "bad number") {
			t.Errorf("literal %s: err = %v, want a bad number SyntaxError", lit, err)
		}
	}
	for _, lit := range []string{"18446744073709551615", "0xffffffffffffffff", "0xFFFFFFFFFFFFFFFF"} {
		toks, err := lexAll(lit)
		if err != nil || toks[0].num != ^uint64(0) {
			t.Errorf("lexAll(%s) = %v, %v; want 2^64-1", lit, toks, err)
		}
	}
}

// TestLexErrorOutranksEarlierParseError pins the error a streaming
// parse reports: a lexical error anywhere in the source wins over a
// parse error before it, as when the source was lexed whole first.
func TestLexErrorOutranksEarlierParseError(t *testing.T) {
	_, err := Parse("module m; bogus ; @")
	var se *SyntaxError
	if !errors.As(err, &se) || se.Msg != `unexpected character '@'` {
		t.Fatalf("err = %v, want the lexer's unexpected character '@'", err)
	}
	if _, err := Parse("module m; bogus ;"); err == nil || !strings.Contains(err.Error(), "expected declaration") {
		t.Fatalf("err = %v, want the parse error", err)
	}
}

// TestFillerKeySpaceExhausted pins that a table asking for more
// entries than its key fields can tell apart is a resource error, not a
// hang: the test table keys on one 16-bit field, and filler counters
// start at 1, so its 65536 key values fill size 65535 and no more.
func TestFillerKeySpaceExhausted(t *testing.T) {
	limits := DefaultLimits()
	limits.EntriesPerTable = 1 << 16
	src := strings.Replace(calcSrc, "size = 4;", "size = 65536;", 1)
	if _, err := Compile(src, Options{ModuleID: 1, Limits: limits}); !errors.Is(err, ErrResource) {
		t.Fatalf("err = %v, want ErrResource", err)
	}
	src = strings.Replace(calcSrc, "size = 4;", "size = 65535;", 1)
	p, err := Compile(src, Options{ModuleID: 1, Limits: limits})
	if err != nil || p.EntriesGenerated != 65535 {
		t.Fatalf("size 65535: err %v; want 65535 distinct keys", err)
	}
}
