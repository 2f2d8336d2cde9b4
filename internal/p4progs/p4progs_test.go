package p4progs

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
)

func TestAllProgramsCompile(t *testing.T) {
	for i, p := range All() {
		prog, err := compiler.Compile(p.Source(), compiler.Options{ModuleID: uint16(i + 1)})
		if err != nil {
			t.Errorf("%s: %v", p.Name, err)
			continue
		}
		if prog.EntriesGenerated == 0 {
			t.Errorf("%s generated no entries", p.Name)
		}
	}
}

func TestWithSizeScalesEntries(t *testing.T) {
	calc, err := ByName("CALC")
	if err != nil {
		t.Fatal(err)
	}
	limits := compiler.DefaultLimits()
	limits.EntriesPerTable = 1024
	for _, n := range []int{16, 64, 256, 1024} {
		prog, err := compiler.Compile(calc.WithSize(n), compiler.Options{ModuleID: 1, Limits: limits})
		if err != nil {
			t.Fatalf("size %d: %v", n, err)
		}
		if prog.EntriesGenerated < n {
			t.Errorf("size %d generated %d entries", n, prog.EntriesGenerated)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%s): %v", name, err)
		}
		if p.Name != name {
			t.Errorf("ByName(%s).Name = %s", name, p.Name)
		}
	}
	if _, err := ByName("netcache"); err != nil {
		t.Error("ByName should be case-insensitive")
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestTableThreeCoverage(t *testing.T) {
	// All eight Table 3 rows present, in order.
	want := []string{"CALC", "Firewall", "Load Balancing", "QoS",
		"Source Routing", "NetCache", "NetChain", "Multicast"}
	if len(Programs) != len(want) {
		t.Fatalf("programs = %d", len(Programs))
	}
	for i, w := range want {
		if Programs[i].Name != w {
			t.Errorf("program %d = %s, want %s", i, Programs[i].Name, w)
		}
	}
}

func TestDescriptionsPresent(t *testing.T) {
	for _, p := range All() {
		if p.Description == "" {
			t.Errorf("%s has no description", p.Name)
		}
		if !strings.Contains(p.Source(), "module ") {
			t.Errorf("%s source malformed", p.Name)
		}
	}
}

func TestSystemLevelUsesTwoTables(t *testing.T) {
	prog, err := compiler.Compile(SystemLevel.Source(), compiler.Options{ModuleID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if prog.StagesUsed != 2 {
		t.Errorf("system-level stages = %d, want 2 (stats + routing)", prog.StagesUsed)
	}
	if len(prog.Registers) != 1 {
		t.Errorf("system-level registers = %d", len(prog.Registers))
	}
}

func TestSourcesAreDeterministic(t *testing.T) {
	a, _ := ByName("CALC")
	if a.Source() != a.Source() {
		t.Error("Source not deterministic")
	}
	if a.WithSize(5) == a.WithSize(6) {
		t.Error("WithSize ignored")
	}
}

// commandDigests pins the reconfiguration command stream of every
// program (Table 3, then System-level; module ID = position + 1, every
// CAM partition and memory segment at base 0): the SHA-256 of each
// command's resource ID, index and payload, in stream order. A codec
// change (the VLIW action packing among them) that moves one wire byte
// of any command fails it.
var commandDigests = map[string]string{
	"CALC":           "5a7e4d91fabe790510c857621802f74280635564f707dc5019f8dcd17eb4e5ea",
	"Firewall":       "97d77cd1774fa9be2875204f77c5e3b7ce0a2b38ab738696297470bc17155469",
	"Load Balancing": "1545b6bf08e37e5e0d91ecc5e92ba2c0915598661b4e465c9a9c7f11f13f11da",
	"Multicast":      "71fcc006a7c61acf2156c34a116324fca0330fc311a8cb4946575b8665140cf0",
	"NetCache":       "7b7e078da5fc3f2e243bcf63d95d99f8c44754cd38d2573d933529d4b78efa2f",
	"NetChain":       "a2e2816c366e9729d50d0f8b37be40d3f9f8be6f58dd84955a075a4dd36a0816",
	"QoS":            "e659e5f21634c365ed1de4aad4ce01411e205540fdab4fe5879cffebf29366a2",
	"Source Routing": "c32d03cfe90a3458cb3cb4524fec88ebe847aa579767fc2184a67c8b03da7739",
	"System-level":   "1f8134504a18763fdf04754daf278df71db199b9ecf085d46fb00d7290042837",
}

func TestCommandStreamGolden(t *testing.T) {
	pl := core.Placement{CAMBase: make([]int, core.NumStages), SegBase: make([]uint8, core.NumStages)}
	for i, p := range All() {
		prog, err := compiler.Compile(p.Source(), compiler.Options{ModuleID: uint16(i + 1)})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		cmds, err := prog.Config.Commands(pl)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		h := sha256.New()
		for _, c := range cmds {
			h.Write([]byte{byte(c.Resource >> 8), byte(c.Resource), c.Index, byte(len(c.Payload))})
			h.Write(c.Payload)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != commandDigests[p.Name] {
			t.Errorf("%s: %d commands digest to %s, want %s", p.Name, len(cmds), got, commandDigests[p.Name])
		}
	}
}
