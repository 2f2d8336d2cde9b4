package p4progs_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/compiler"
	"repro/internal/experiments"
	"repro/internal/p4progs"
)

// digestProgram hashes everything code generation decides for one
// program: the parser and deparser entries, every stage's key
// extractor, mask, segment share, reserved slots and rules (key, mask,
// VLIW action) in CAM order, the register placement, and the entry
// count. It prints the compiled values rather than encoding them, so a
// codec change cannot move it; only a change to what the compiler emits
// can.
func digestProgram(h hash.Hash, prog *compiler.Program) {
	cfg := prog.Config
	fmt.Fprintf(h, "%d %q %v %v\n", cfg.ModuleID, cfg.Name, cfg.Parser, cfg.Deparser)
	for s, sc := range cfg.Stages {
		fmt.Fprintf(h, "stage %d used=%v ext=%+v mask=%x seg=%d reserved=%d rules=%d\n",
			s, sc.Used, sc.Extract, sc.Mask, sc.SegmentWords, sc.ReservedSlots, len(sc.Rules))
		for _, r := range sc.Rules {
			fmt.Fprintf(h, "%x/%x %v\n", r.Key, r.Mask, r.Action)
		}
	}
	fmt.Fprintf(h, "stages=%d entries=%d regs=%+v\n", prog.StagesUsed, prog.EntriesGenerated, prog.Registers)
}

// TestCodegenGolden pins the compiled configuration of every program at
// its default size (Table 3, then System-level; module ID = position +
// 1) and of CALC and NetCache at each Figure 8 entry count. A change to
// the front end, the analysis or code generation that moves one rule,
// reserved slot or generated-entry count fails it.
func TestCodegenGolden(t *testing.T) {
	check := func(name, src string, opts compiler.Options) {
		t.Helper()
		prog, err := compiler.Compile(src, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := sha256.New()
		digestProgram(h, prog)
		if got := hex.EncodeToString(h.Sum(nil)); got != codegenDigests[name] {
			t.Errorf("%s: %d entries digest to %s, want %s", name, prog.EntriesGenerated, got, codegenDigests[name])
		}
	}
	for i, p := range p4progs.All() {
		check(p.Name, p.Source(), compiler.Options{ModuleID: uint16(i + 1)})
	}
	for _, name := range []string{"CALC", "NetCache"} {
		p, err := p4progs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range experiments.EntrySweep {
			limits := compiler.DefaultLimits()
			limits.EntriesPerTable = max(limits.EntriesPerTable, n)
			check(fmt.Sprintf("%s/%d", name, n), p.WithSize(n), compiler.Options{ModuleID: 1, Limits: limits})
		}
	}
}

// codegenDigests are the SHA-256 digests of digestProgram's output.
var codegenDigests = map[string]string{
	"CALC":           "276e4426fb64331ba38a46a3a4850652db567cc56bf4b3b12e359d3557ab4df1",
	"Firewall":       "73e9fda55f7cbe770747f9f0307623b9ba3c28bd4009912e162468cd59c4d52a",
	"Load Balancing": "f4878be2e7aa4495fdac608a9cecfdbde90d63dbdff63dc516310f096a2ddfc7",
	"Multicast":      "e624876b03d7c0ecb9816be322e8b16cb7f5cecf6cc6482fc7e416852a2ee1bf",
	"NetCache":       "7e1c34f101e5e30b57a5752bd566e26e51ffea860f627fdcb81d2665a653b4e0",
	"NetChain":       "254f5f3974a468998ea0c2e03cc813cd11714f9e6deca623cec9e25c34151452",
	"QoS":            "49a98eb9210badb32a1d8476a304de2bcf29ad7d6992e81a5fcb065bb15ef67c",
	"Source Routing": "7522c6b4f5a7f3a5c2e3c70562f081c25135b492e42fdf73d8ae525ca098da1f",
	"System-level":   "c69a66c5862782190bd3b7b2c054e392762ba332e8ad5a341151f4431e82b325",
	"CALC/16":        "64df7e90e5039db5864f8c741969a54aeaf2722ce272d159b368330ba4ae42d3",
	"CALC/64":        "375d07b7a11cddaec93b3cb1f7344887374c0d781d6a47f5d1a36524f31f30bc",
	"CALC/256":       "6f40b0d7cb5a770ac2297582249ca72e3326ae243d4b1420489015024c3cee96",
	"CALC/1024":      "3b5ae3674d5e294a841a2358fc0113ea8ac2ec635ef9b1fbd4c975d4d0fc09cc",
	"NetCache/16":    "984d92cf2a5d154a0d61a1969b8e81f0c65a37976bd2eae224a308597a6145f4",
	"NetCache/64":    "2a9a39dce0898dd09fe4501558baf856621e67cdbd30a8891c91e173b9188128",
	"NetCache/256":   "2c93a41ee7932d20d345561561e494417c688c1a9da0dea8bffa02e2d8833827",
	"NetCache/1024":  "d868c361b734c1b6f64ac58342f179b4722b86526e0bcaa7c60576d7ea0734d5",
}
