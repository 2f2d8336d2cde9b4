package compiler

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/phv"
	"repro/internal/sysmod"
)

// Static-check and resource-check errors (§3.4). Each corresponds to one
// of the Menshen static checker's or resource checker's rules.
var (
	// ErrStatic wraps violations of the static isolation checks: VID
	// modification, recirculation, and system-statistics tampering.
	ErrStatic = errors.New("compiler: static check failed")
	// ErrResource wraps violations of the per-module resource limits.
	ErrResource = errors.New("compiler: resource check failed")
	// ErrSemantic wraps name/type errors in the module source.
	ErrSemantic = errors.New("compiler: semantic error")
)

// protectedPrefix is the byte range of the frame that tenant modules may
// neither parse nor (via deparser write-back) modify: the Ethernet header
// and the 802.1Q tag holding the module's VID. The static checker's
// "modules can not modify their VID" rule (§3.4) falls out of refusing
// any extraction that overlaps it.
const protectedPrefix = packet.EthernetHeaderLen + packet.VLANTagLen // 18

// reservedRefs are the PHV containers owned by the system-level module;
// tenants must not allocate them ("modules do not modify hardware-related
// statistics provided by the system-level module", §3.4).
var reservedRefs = map[phv.Ref]bool{
	sysmod.RefSrcIP: true,
	sysmod.RefDstIP: true,
	sysmod.RefStats: true,
}

// fieldInfo is the resolved layout of one header field.
type fieldInfo struct {
	ref       phv.Ref // allocated container
	slot      int     // ALU slot of the container
	frameOff  int     // byte offset in the frame (once its header is extracted)
	width     int     // bits
	extracted bool
	decl      *Field
}

// headerInfo is one header's run in analysis.fields.
type headerInfo struct {
	decl      *Header
	first     int // index of its first field in analysis.fields
	extracted bool
}

// regInfo is the resolved layout of one register.
type regInfo struct {
	words int
	base  int // offset within the module's per-stage segment
	stage int // the single stage that uses it; -1 until placed
	decl  *Register
}

// tableInfo is the resolved layout of one table.
type tableInfo struct {
	decl      *Table
	stage     int // pipeline stage (absolute), -1 until placed
	pred      int // -1 none, 1 then-branch, 0 else-branch
	cond      *Condition
	keySlots  keyLayout
	entryKeys int // entries to generate (max of size and explicit)
	// reads and writes are the ALU slots the table's key, condition and
	// actions read, and its actions write: one bit per slot.
	reads, writes uint32
}

// maxKeyFields bounds a table's key fields: two per container class,
// one per key-extractor slot.
const maxKeyFields = 6

// keyLayout records which container goes in which key-extractor slot and
// where each key field lands in the 24-byte key.
type keyLayout struct {
	c6   [2]uint8
	c4   [2]uint8
	c2   [2]uint8
	used [6]bool // c6[0] c6[1] c4[0] c4[1] c2[0] c2[1]
	n    int     // key fields
	// fieldPos[i] is the key byte offset of table key field i.
	fieldPos [maxKeyFields]int
	// fieldWidth[i] is the byte width of key field i.
	fieldWidth [maxKeyFields]int
}

// slotKeyOffsets are the key byte offsets of the six extractor slots, in
// the concatenation order 1st6B 2nd6B 1st4B 2nd4B 1st2B 2nd2B (§4.1).
var slotKeyOffsets = [6]int{0, 6, 12, 16, 20, 22}

// symKind separates the module's name spaces, which share one map.
type symKind uint8

const (
	symHeader symKind = iota
	symField
	symRegister
	symAction
	symTable
)

// symKey names one declaration; a field's key carries its header's
// name in name and its own in field.
type symKey struct {
	kind        symKind
	name, field string
}

// analysis is the fully resolved module, ready for code generation.
// Every table in it is sized from the AST once.
type analysis struct {
	mod *Module
	// syms maps each declared name to its index in headers, fields,
	// regs, mod.Actions or tables, by kind.
	syms    map[symKey]int
	headers []headerInfo // parallel to mod.Headers
	fields  []fieldInfo  // every header's fields, headers in source order
	regs    []regInfo    // parallel to mod.Registers
	tables  []tableInfo  // parallel to mod.Tables
	// ordered tenant tables with their absolute stages, in control order.
	placed []*tableInfo
	// parse actions in source order (field granularity).
	parses []*fieldInfo
	limits Limits
}

// declare records name k at index i; it reports false when k is taken.
func (a *analysis) declare(k symKey, i int) bool {
	if _, dup := a.syms[k]; dup {
		return false
	}
	a.syms[k] = i
	return true
}

// lookup returns the index of name in kind's name space.
func (a *analysis) lookup(kind symKind, name string) (int, bool) {
	i, ok := a.syms[symKey{kind: kind, name: name}]
	return i, ok
}

// action returns the action declared as name.
func (a *analysis) action(name string) (*Action, bool) {
	i, ok := a.lookup(symAction, name)
	if !ok {
		return nil, false
	}
	return &a.mod.Actions[i], true
}

// reg returns the register declared as name.
func (a *analysis) reg(name string) (*regInfo, bool) {
	i, ok := a.lookup(symRegister, name)
	if !ok {
		return nil, false
	}
	return &a.regs[i], true
}

// Limits are the per-module resource bounds the resource checker enforces
// (§3.4: "conducts resource usage checking to ensure every program's
// resource usage is below its allocated amount").
type Limits struct {
	// ParserActions is the tenant's parse-action budget (10 minus the
	// system-level module's share).
	ParserActions int
	// Stages is the number of tenant stages (pipeline stages minus the
	// two system stages).
	Stages int
	// EntriesPerTable bounds the generated match entries per table (the
	// module's share of a stage's CAM).
	EntriesPerTable int
	// MemoryWordsPerStage bounds a stage's stateful-memory share.
	MemoryWordsPerStage int
	// StartStage, when nonzero, places the module's first table at that
	// absolute stage instead of the first tenant stage. The operator's
	// allocation (or the facade's placement search) uses it to spread
	// single-table modules across stages.
	StartStage int
}

// DefaultLimits is the prototype's whole-pipeline allocation for a single
// module: 8 tenant parse actions, 3 tenant stages, 16-entry CAMs, and a
// full 255-word segment.
func DefaultLimits() Limits {
	lo, hi := sysmod.TenantStages()
	return Limits{
		ParserActions:       10 - len(sysmod.ParserActions()),
		Stages:              hi - lo + 1,
		EntriesPerTable:     16,
		MemoryWordsPerStage: 255,
	}
}

// analyses recycles analysis scratch — the symbol map and the
// per-declaration tables — across compiles: codegen reads an analysis
// and drops it, and a live reload compiles on the control path. A
// pooled analysis holds only zeroed tables and an empty map.
var analyses = sync.Pool{New: func() any { return &analysis{syms: make(map[symKey]int)} }}

// resized returns s with length n, reusing its zeroed backing array
// when it is large enough.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// newAnalysis returns the scratch for analysing m, recycled from an
// earlier compile when one is free; release returns it.
func newAnalysis(m *Module, limits Limits) *analysis {
	nFields := 0
	for i := range m.Headers {
		nFields += len(m.Headers[i].Fields)
	}
	a := analyses.Get().(*analysis)
	*a = analysis{
		mod:     m,
		syms:    a.syms,
		headers: resized(a.headers, len(m.Headers)),
		fields:  resized(a.fields, nFields),
		regs:    resized(a.regs, len(m.Registers)),
		tables:  resized(a.tables, len(m.Tables)),
		placed:  slices.Grow(a.placed[:0], len(m.Tables)),
		parses:  slices.Grow(a.parses[:0], nFields),
		limits:  limits,
	}
	return a
}

// release zeroes a's tables, dropping every pointer into the module so
// a pooled analysis keeps no AST alive, and returns a to the pool.
func (a *analysis) release() {
	clear(a.syms)
	clear(a.headers)
	clear(a.fields)
	clear(a.regs)
	clear(a.tables)
	clear(a.placed)
	clear(a.parses)
	a.mod = nil
	analyses.Put(a)
}

// analyze resolves names, allocates containers, places tables into
// stages, and runs the static and resource checks.
func (a *analysis) analyze() error {
	for _, step := range [...]func() error{
		a.resolveHeaders, a.resolveParser, a.resolveRegisters, a.resolveActions,
		a.resolveTables, a.placeControl, a.placeRegisters, a.checkDependencies,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// resolveHeaders allocates a PHV container per field.
func (a *analysis) resolveHeaders() error {
	// next[t] is the next container of class t to offer; the
	// system-reserved ones are skipped.
	var next [3]uint8
	take := func(t phv.ContainerType, f *Field) (phv.Ref, error) {
		for next[t] < phv.NumPerType {
			r := phv.Ref{Type: t, Index: next[t]}
			next[t]++
			if !reservedRefs[r] {
				return r, nil
			}
		}
		return phv.Ref{}, fmt.Errorf("%w: out of %v containers (field %s, line %d)",
			ErrResource, t, f.Name, f.Line)
	}
	fi := 0
	for hi := range a.mod.Headers {
		h := &a.mod.Headers[hi]
		if !a.declare(symKey{kind: symHeader, name: h.Name}, hi) {
			return fmt.Errorf("%w: duplicate header %q (line %d)", ErrSemantic, h.Name, h.Line)
		}
		a.headers[hi] = headerInfo{decl: h, first: fi}
		off := 0
		for i := range h.Fields {
			f := &h.Fields[i]
			if !a.declare(symKey{kind: symField, name: h.Name, field: f.Name}, fi) {
				return fmt.Errorf("%w: duplicate field %s.%s (line %d)", ErrSemantic, h.Name, f.Name, f.Line)
			}
			var ref phv.Ref
			var err error
			switch f.Width {
			case 16:
				ref, err = take(phv.Type2B, f)
			case 32:
				ref, err = take(phv.Type4B, f)
			case 48:
				ref, err = take(phv.Type6B, f)
			default:
				return fmt.Errorf("%w: field %s.%s has width %d; containers support 16, 32, or 48 bits (line %d)",
					ErrSemantic, h.Name, f.Name, f.Width, f.Line)
			}
			if err != nil {
				return err
			}
			slot, _ := phv.ALUIndex(ref)
			a.fields[fi] = fieldInfo{ref: ref, slot: slot, frameOff: off, width: f.Width, decl: f}
			fi++
			off += f.Width / 8
		}
	}
	return nil
}

// resolveParser binds extracts to headers, fixes frame offsets, and runs
// the VID-protection static check plus the parse-action budget check.
func (a *analysis) resolveParser() error {
	for i := range a.mod.Parser {
		ex := &a.mod.Parser[i]
		hi, ok := a.lookup(symHeader, ex.Header)
		if !ok {
			return fmt.Errorf("%w: parser extracts unknown header %q (line %d)", ErrSemantic, ex.Header, ex.Line)
		}
		h := &a.headers[hi]
		if h.extracted {
			return fmt.Errorf("%w: header %q extracted twice (line %d)", ErrSemantic, ex.Header, ex.Line)
		}
		h.extracted = true
		if ex.Offset < protectedPrefix {
			return fmt.Errorf("%w: extracting %q at offset %d overlaps the Ethernet/VLAN headers; "+
				"modules may not read or modify their VID (line %d)", ErrStatic, ex.Header, ex.Offset, ex.Line)
		}
		for j := range h.decl.Fields {
			fi := &a.fields[h.first+j]
			fi.frameOff += ex.Offset
			fi.extracted = true
			if fi.frameOff+fi.width/8 > packet.HeaderWindow {
				return fmt.Errorf("%w: field %s.%s at bytes [%d,%d) exceeds the %d-byte parser window (line %d)",
					ErrResource, ex.Header, fi.decl.Name, fi.frameOff, fi.frameOff+fi.width/8, packet.HeaderWindow, fi.decl.Line)
			}
			a.parses = append(a.parses, fi)
		}
	}
	if len(a.parses) > a.limits.ParserActions {
		return fmt.Errorf("%w: module parses %d fields; its parser-action share is %d "+
			"(10 minus the system-level module's %d)", ErrResource,
			len(a.parses), a.limits.ParserActions, len(sysmod.ParserActions()))
	}
	return nil
}

func (a *analysis) resolveRegisters() error {
	for i := range a.mod.Registers {
		r := &a.mod.Registers[i]
		if !a.declare(symKey{kind: symRegister, name: r.Name}, i) {
			return fmt.Errorf("%w: duplicate register %q (line %d)", ErrSemantic, r.Name, r.Line)
		}
		if r.Words <= 0 || r.Words > a.limits.MemoryWordsPerStage {
			return fmt.Errorf("%w: register %q has %d words; per-stage share is %d (line %d)",
				ErrResource, r.Name, r.Words, a.limits.MemoryWordsPerStage, r.Line)
		}
		a.regs[i] = regInfo{words: r.Words, stage: -1, decl: r}
	}
	return nil
}

// field returns the field fr names.
func (a *analysis) field(fr FieldRef) (*fieldInfo, bool) {
	i, ok := a.syms[symKey{kind: symField, name: fr.Header, field: fr.Field}]
	if !ok {
		return nil, false
	}
	return &a.fields[i], true
}

// lookupField resolves a field reference.
func (a *analysis) lookupField(fr FieldRef) (*fieldInfo, error) {
	if fi, ok := a.field(fr); ok {
		return fi, nil
	}
	if _, ok := a.lookup(symHeader, fr.Header); !ok {
		return nil, fmt.Errorf("%w: unknown header %q (line %d)", ErrSemantic, fr.Header, fr.Line)
	}
	return nil, fmt.Errorf("%w: header %q has no field %q (line %d)", ErrSemantic, fr.Header, fr.Field, fr.Line)
}

// resolveActions checks every statement: names resolve, operands type-
// check, no recirculation, one ALU per destination container.
func (a *analysis) resolveActions() error {
	for i := range a.mod.Actions {
		act := &a.mod.Actions[i]
		if !a.declare(symKey{kind: symAction, name: act.Name}, i) {
			return fmt.Errorf("%w: duplicate action %q (line %d)", ErrSemantic, act.Name, act.Line)
		}
		var destSlots [phv.NumContainers]int // slot -> line of its writer; 0 free
		for j := range act.Body {
			if err := a.checkStmt(act, &act.Body[j], &destSlots); err != nil {
				return err
			}
		}
	}
	return nil
}

func (a *analysis) checkStmt(act *Action, s *Stmt, destSlots *[phv.NumContainers]int) error {
	claimSlot := func(slot, line int) error {
		if prev := destSlots[slot]; prev != 0 {
			return fmt.Errorf("%w: action %q writes the same container twice "+
				"(lines %d and %d); there is one ALU per container", ErrSemantic, act.Name, prev, line)
		}
		destSlots[slot] = line
		return nil
	}
	checkOpnd := func(o Operand) error {
		if o.Kind == OpndField {
			if _, err := a.lookupField(o.Field); err != nil {
				return err
			}
		}
		if o.Kind == OpndConst && o.Value > 0xffff {
			return fmt.Errorf("%w: immediate %d exceeds the 16-bit VLIW immediate (line %d)",
				ErrSemantic, o.Value, o.Line)
		}
		return nil
	}
	checkAddr := func(ad AddrExpr) error {
		if ad.HasField {
			if _, err := a.lookupField(ad.Field); err != nil {
				return err
			}
		}
		return checkOpnd(ad.Const)
	}

	switch s.Kind {
	case StmtRecirculate:
		return fmt.Errorf("%w: recirculate() at line %d; modules must not recirculate packets "+
			"(they share ingress bandwidth with other modules)", ErrStatic, s.Line)
	case StmtDrop:
		return claimSlot(3*phv.NumPerType, s.Line) // metadata ALU
	case StmtSetPort:
		if err := checkOpnd(s.A); err != nil {
			return err
		}
		return claimSlot(3*phv.NumPerType, s.Line)
	case StmtAssign:
		fi, err := a.lookupField(s.Dest)
		if err != nil {
			return err
		}
		if err := claimSlot(fi.slot, s.Line); err != nil {
			return err
		}
		if err := checkOpnd(s.A); err != nil {
			return err
		}
		if s.Op != BinNone {
			if err := checkOpnd(s.B); err != nil {
				return err
			}
			if s.Op == BinSub && s.A.Kind != OpndField {
				return fmt.Errorf("%w: subtraction needs a field on the left (line %d)", ErrSemantic, s.Line)
			}
		}
		return nil
	case StmtLoad, StmtLoadd:
		fi, err := a.lookupField(s.Dest)
		if err != nil {
			return err
		}
		if err := claimSlot(fi.slot, s.Line); err != nil {
			return err
		}
		if s.Kind == StmtLoad || s.Reg != "" {
			if _, ok := a.reg(s.Reg); !ok {
				return fmt.Errorf("%w: unknown register %q (line %d)", ErrSemantic, s.Reg, s.Line)
			}
		}
		return checkAddr(s.Addr)
	case StmtStore:
		fi, err := a.lookupField(s.Dest) // data source container
		if err != nil {
			return err
		}
		if err := claimSlot(fi.slot, s.Line); err != nil {
			return err
		}
		if _, ok := a.reg(s.Reg); !ok {
			return fmt.Errorf("%w: unknown register %q (line %d)", ErrSemantic, s.Reg, s.Line)
		}
		return checkAddr(s.Addr)
	}
	return fmt.Errorf("%w: unknown statement kind at line %d", ErrSemantic, s.Line)
}

// resolveTables checks keys, action lists, entry shapes, and computes key
// layouts and entry counts.
func (a *analysis) resolveTables() error {
	for i := range a.mod.Tables {
		t := &a.mod.Tables[i]
		if !a.declare(symKey{kind: symTable, name: t.Name}, i) {
			return fmt.Errorf("%w: duplicate table %q (line %d)", ErrSemantic, t.Name, t.Line)
		}
		ti := &a.tables[i]
		*ti = tableInfo{decl: t, stage: -1, pred: -1}

		// Key layout: assign key fields to extractor slots per class.
		var n6, n4, n2 int
		for _, kf := range t.Keys {
			fi, err := a.lookupField(kf)
			if err != nil {
				return err
			}
			if !fi.extracted {
				return fmt.Errorf("%w: table %q keys on %s, which no parser statement extracts (line %d)",
					ErrSemantic, t.Name, kf, t.Line)
			}
			var slotIdx int
			switch fi.ref.Type {
			case phv.Type6B:
				if n6 == 2 {
					return fmt.Errorf("%w: table %q uses more than two 6-byte key fields (line %d)", ErrResource, t.Name, t.Line)
				}
				ti.keySlots.c6[n6] = fi.ref.Index
				slotIdx = n6
				n6++
			case phv.Type4B:
				if n4 == 2 {
					return fmt.Errorf("%w: table %q uses more than two 4-byte key fields (line %d)", ErrResource, t.Name, t.Line)
				}
				ti.keySlots.c4[n4] = fi.ref.Index
				slotIdx = 2 + n4
				n4++
			case phv.Type2B:
				if n2 == 2 {
					return fmt.Errorf("%w: table %q uses more than two 2-byte key fields (line %d)", ErrResource, t.Name, t.Line)
				}
				ti.keySlots.c2[n2] = fi.ref.Index
				slotIdx = 4 + n2
				n2++
			}
			ks := &ti.keySlots
			ks.used[slotIdx] = true
			ks.fieldPos[ks.n] = slotKeyOffsets[slotIdx]
			ks.fieldWidth[ks.n] = fi.width / 8
			ks.n++
		}

		if len(t.Actions) == 0 {
			return fmt.Errorf("%w: table %q declares no actions (line %d)", ErrSemantic, t.Name, t.Line)
		}
		for _, an := range t.Actions {
			if _, ok := a.action(an); !ok {
				return fmt.Errorf("%w: table %q lists unknown action %q (line %d)", ErrSemantic, t.Name, an, t.Line)
			}
		}

		for j := range t.Entries {
			e := &t.Entries[j]
			if len(e.KeyVals) != len(t.Keys) {
				return fmt.Errorf("%w: entry at line %d has %d key values; table %q keys on %d fields",
					ErrSemantic, e.Line, len(e.KeyVals), t.Name, len(t.Keys))
			}
			if !t.Ternary {
				for _, m := range e.KeyMasks {
					if m != ^uint64(0) {
						return fmt.Errorf("%w: entry at line %d uses a ternary mask but table %q is exact-match "+
							"(declare `match = ternary;`)", ErrSemantic, e.Line, t.Name)
					}
				}
			}
			if !slices.Contains(t.Actions, e.Action) {
				return fmt.Errorf("%w: entry at line %d uses action %q not in table %q's action list",
					ErrSemantic, e.Line, e.Action, t.Name)
			}
			act, _ := a.action(e.Action)
			if len(e.Args) != len(act.Params) {
				return fmt.Errorf("%w: entry at line %d passes %d args; action %q takes %d",
					ErrSemantic, e.Line, len(e.Args), e.Action, len(act.Params))
			}
			for i, kv := range e.KeyVals {
				if w := ti.keySlots.fieldWidth[i] * 8; w < 64 && kv >= 1<<uint(w) {
					return fmt.Errorf("%w: entry at line %d: key value %#x exceeds %d-bit field",
						ErrSemantic, e.Line, kv, w)
				}
			}
		}

		ti.entryKeys = len(t.Entries)
		if t.Size > ti.entryKeys {
			ti.entryKeys = t.Size
		}
		if ti.entryKeys == 0 {
			ti.entryKeys = 1
		}
		if ti.entryKeys > a.limits.EntriesPerTable {
			return fmt.Errorf("%w: table %q asks for %d entries; its CAM share is %d (line %d)",
				ErrResource, t.Name, ti.entryKeys, a.limits.EntriesPerTable, t.Line)
		}
	}
	return nil
}

// placeControl assigns tables to tenant stages in control order. An
// if/else consumes two stages: the then-table matches with the predicate
// bit set, the else-table with it clear (both keyed on the same
// condition, evaluated independently in each stage's key extractor).
func (a *analysis) placeControl() error {
	lo, hi := sysmod.TenantStages()
	next := lo
	if s := a.limits.StartStage; s != 0 {
		if s < lo || s > hi {
			return fmt.Errorf("%w: start stage %d outside tenant stages [%d,%d]", ErrResource, s, lo, hi)
		}
		next = s
	}

	place := func(name string, cond *Condition, pred int, line int) error {
		i, ok := a.lookup(symTable, name)
		if !ok {
			return fmt.Errorf("%w: control applies unknown table %q (line %d)", ErrSemantic, name, line)
		}
		ti := &a.tables[i]
		if ti.stage != -1 {
			return fmt.Errorf("%w: table %q applied twice; RMT is feed-forward (line %d)", ErrSemantic, name, line)
		}
		if next > hi {
			return fmt.Errorf("%w: control needs more than %d tenant stages (line %d)",
				ErrResource, hi-lo+1, line)
		}
		ti.stage = next
		ti.cond = cond
		ti.pred = pred
		next++
		a.placed = append(a.placed, ti)
		return nil
	}

	for i := range a.mod.Control {
		cs := &a.mod.Control[i]
		if cs.Cond == nil {
			if err := place(cs.Table, nil, -1, cs.Line); err != nil {
				return err
			}
			continue
		}
		if _, err := a.lookupField(cs.Cond.A); err != nil {
			return err
		}
		if cs.Cond.B.Kind == OpndField {
			if _, err := a.lookupField(cs.Cond.B.Field); err != nil {
				return err
			}
		} else if cs.Cond.B.Value > 127 {
			return fmt.Errorf("%w: condition immediate %d exceeds the 7-bit predicate operand (line %d)",
				ErrSemantic, cs.Cond.B.Value, cs.Cond.Line)
		}
		if err := place(cs.Table, cs.Cond, 1, cs.Line); err != nil {
			return err
		}
		if cs.ElseTable != "" {
			if err := place(cs.ElseTable, cs.Cond, 0, cs.Line); err != nil {
				return err
			}
		}
	}

	if len(a.placed) == 0 {
		return fmt.Errorf("%w: control block applies no tables", ErrSemantic)
	}
	return nil
}

// placeRegisters pins each register to the stage of the (single) table
// whose actions use it, and assigns segment-local base addresses.
func (a *analysis) placeRegisters() error {
	// Walk tables in stage order; claim registers used by their actions.
	for _, ti := range a.placed {
		for _, an := range ti.decl.Actions {
			act, _ := a.action(an)
			for j := range act.Body {
				s := &act.Body[j]
				if s.Reg == "" {
					continue
				}
				ri, _ := a.reg(s.Reg)
				if ri.stage == -1 {
					ri.stage = ti.stage
				} else if ri.stage != ti.stage {
					return fmt.Errorf("%w: register %q used in stages %d and %d; "+
						"stateful memory is per-stage and RMT is feed-forward (line %d)",
						ErrSemantic, s.Reg, ri.stage, ti.stage, s.Line)
				}
			}
		}
	}
	// Per-stage base assignment + per-stage budget check.
	var perStage [core.NumStages]int
	for i := range a.regs {
		ri := &a.regs[i]
		if ri.stage == -1 {
			continue // declared but unused: takes no memory
		}
		ri.base = perStage[ri.stage]
		perStage[ri.stage] += ri.words
		if perStage[ri.stage] > a.limits.MemoryWordsPerStage {
			return fmt.Errorf("%w: stage %d needs %d stateful words; per-stage share is %d",
				ErrResource, ri.stage, perStage[ri.stage], a.limits.MemoryWordsPerStage)
		}
	}
	return nil
}

// checkDependencies verifies the control order respects table
// dependencies (§3.4: "performs dependency checking to guarantee that all
// ALU actions and key matches are placed in the proper stage"): if table
// U matches or reads a field written by table T's actions, U must be in a
// strictly later stage.
func (a *analysis) checkDependencies() error {
	slotBit := func(fr FieldRef) uint32 {
		if fi, ok := a.field(fr); ok {
			return 1 << fi.slot
		}
		return 0
	}
	for _, ti := range a.placed {
		for _, kf := range ti.decl.Keys {
			ti.reads |= slotBit(kf)
		}
		if ti.cond != nil {
			ti.reads |= slotBit(ti.cond.A)
			if ti.cond.B.Kind == OpndField {
				ti.reads |= slotBit(ti.cond.B.Field)
			}
		}
		for _, an := range ti.decl.Actions {
			act, _ := a.action(an)
			for j := range act.Body {
				s := &act.Body[j]
				switch s.Kind {
				case StmtAssign, StmtLoad, StmtLoadd:
					ti.writes |= slotBit(s.Dest)
				}
				// Action operand reads also order stages (action dependency).
				for _, o := range [2]*Operand{&s.A, &s.B} {
					if o.Kind == OpndField {
						ti.reads |= slotBit(o.Field)
					}
				}
				if s.Addr.HasField {
					ti.reads |= slotBit(s.Addr.Field)
				}
			}
		}
	}

	// Verify the placement invariant: every dependent pair is ordered. A
	// pair (T, U) with U after T in control order is dependent when U
	// reads or writes a container T writes; such a U must sit in a
	// strictly later stage. placeControl's one-table-per-stage assignment
	// guarantees this, but verify explicitly so any future placement
	// optimization cannot silently break it.
	for i, t := range a.placed {
		for _, u := range a.placed[i+1:] {
			if (u.reads|u.writes)&t.writes != 0 && u.stage <= t.stage {
				return fmt.Errorf("%w: table %q depends on %q but is placed in stage %d <= %d",
					ErrSemantic, u.decl.Name, t.decl.Name, u.stage, t.stage)
			}
		}
	}
	return nil
}
