package compiler

import (
	"errors"
	"fmt"

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
	actions   map[string]*Action
	entryKeys int // entries to generate (max of size and explicit)
}

// keyLayout records which container goes in which key-extractor slot and
// where each key field lands in the 24-byte key.
type keyLayout struct {
	c6   [2]uint8
	c4   [2]uint8
	c2   [2]uint8
	used [6]bool // c6[0] c6[1] c4[0] c4[1] c2[0] c2[1]
	// fieldPos[i] is the key byte offset of table key field i.
	fieldPos []int
	// fieldWidth[i] is the byte width of key field i.
	fieldWidth []int
}

// slotKeyOffsets are the key byte offsets of the six extractor slots, in
// the concatenation order 1st6B 2nd6B 1st4B 2nd4B 1st2B 2nd2B (§4.1).
var slotKeyOffsets = [6]int{0, 6, 12, 16, 20, 22}

// analysis is the fully resolved module, ready for code generation.
type analysis struct {
	mod     *Module
	fields  map[string]map[string]*fieldInfo // header -> field
	headers map[string]*Header
	regs    map[string]*regInfo
	actions map[string]*Action
	tables  map[string]*tableInfo
	// ordered tenant tables with their absolute stages, in control order.
	placed []*tableInfo
	// parse actions in source order (field granularity).
	parses []parseItem
	limits Limits
}

type parseItem struct {
	field *fieldInfo
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

// analyze resolves names, allocates containers, places tables into
// stages, and runs the static and resource checks.
func analyze(m *Module, limits Limits) (*analysis, error) {
	a := &analysis{
		mod:     m,
		fields:  map[string]map[string]*fieldInfo{},
		headers: map[string]*Header{},
		regs:    map[string]*regInfo{},
		actions: map[string]*Action{},
		tables:  map[string]*tableInfo{},
		limits:  limits,
	}
	if err := a.resolveHeaders(); err != nil {
		return nil, err
	}
	if err := a.resolveParser(); err != nil {
		return nil, err
	}
	if err := a.resolveRegisters(); err != nil {
		return nil, err
	}
	if err := a.resolveActions(); err != nil {
		return nil, err
	}
	if err := a.resolveTables(); err != nil {
		return nil, err
	}
	if err := a.placeControl(); err != nil {
		return nil, err
	}
	if err := a.placeRegisters(); err != nil {
		return nil, err
	}
	if err := a.checkDependencies(); err != nil {
		return nil, err
	}
	return a, nil
}

// resolveHeaders allocates a PHV container per field.
func (a *analysis) resolveHeaders() error {
	// Free containers per class, skipping the system-reserved ones.
	var free2, free4, free6 []uint8
	for i := uint8(0); i < phv.NumPerType; i++ {
		if !reservedRefs[phv.Ref{Type: phv.Type2B, Index: i}] {
			free2 = append(free2, i)
		}
		if !reservedRefs[phv.Ref{Type: phv.Type4B, Index: i}] {
			free4 = append(free4, i)
		}
		if !reservedRefs[phv.Ref{Type: phv.Type6B, Index: i}] {
			free6 = append(free6, i)
		}
	}
	take := func(free *[]uint8, t phv.ContainerType, f *Field) (phv.Ref, error) {
		if len(*free) == 0 {
			return phv.Ref{}, fmt.Errorf("%w: out of %v containers (field %s, line %d)",
				ErrResource, t, f.Name, f.Line)
		}
		r := phv.Ref{Type: t, Index: (*free)[0]}
		*free = (*free)[1:]
		return r, nil
	}
	for _, h := range a.mod.Headers {
		if _, dup := a.headers[h.Name]; dup {
			return fmt.Errorf("%w: duplicate header %q (line %d)", ErrSemantic, h.Name, h.Line)
		}
		a.headers[h.Name] = h
		a.fields[h.Name] = map[string]*fieldInfo{}
		off := 0
		for _, f := range h.Fields {
			if _, dup := a.fields[h.Name][f.Name]; dup {
				return fmt.Errorf("%w: duplicate field %s.%s (line %d)", ErrSemantic, h.Name, f.Name, f.Line)
			}
			var ref phv.Ref
			var err error
			switch f.Width {
			case 16:
				ref, err = take(&free2, phv.Type2B, f)
			case 32:
				ref, err = take(&free4, phv.Type4B, f)
			case 48:
				ref, err = take(&free6, phv.Type6B, f)
			default:
				return fmt.Errorf("%w: field %s.%s has width %d; containers support 16, 32, or 48 bits (line %d)",
					ErrSemantic, h.Name, f.Name, f.Width, f.Line)
			}
			if err != nil {
				return err
			}
			slot, _ := phv.ALUIndex(ref)
			a.fields[h.Name][f.Name] = &fieldInfo{
				ref: ref, slot: slot, frameOff: off, width: f.Width, decl: f,
			}
			off += f.Width / 8
		}
	}
	return nil
}

// resolveParser binds extracts to headers, fixes frame offsets, and runs
// the VID-protection static check plus the parse-action budget check.
func (a *analysis) resolveParser() error {
	extracted := map[string]bool{}
	for _, ex := range a.mod.Parser {
		h, ok := a.headers[ex.Header]
		if !ok {
			return fmt.Errorf("%w: parser extracts unknown header %q (line %d)", ErrSemantic, ex.Header, ex.Line)
		}
		if extracted[ex.Header] {
			return fmt.Errorf("%w: header %q extracted twice (line %d)", ErrSemantic, ex.Header, ex.Line)
		}
		extracted[ex.Header] = true
		if ex.Offset < protectedPrefix {
			return fmt.Errorf("%w: extracting %q at offset %d overlaps the Ethernet/VLAN headers; "+
				"modules may not read or modify their VID (line %d)", ErrStatic, ex.Header, ex.Offset, ex.Line)
		}
		for _, f := range h.Fields {
			fi := a.fields[ex.Header][f.Name]
			fi.frameOff += ex.Offset
			fi.extracted = true
			if fi.frameOff+fi.width/8 > packet.HeaderWindow {
				return fmt.Errorf("%w: field %s.%s at bytes [%d,%d) exceeds the %d-byte parser window (line %d)",
					ErrResource, ex.Header, f.Name, fi.frameOff, fi.frameOff+fi.width/8, packet.HeaderWindow, f.Line)
			}
			a.parses = append(a.parses, parseItem{field: fi})
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
	for _, r := range a.mod.Registers {
		if _, dup := a.regs[r.Name]; dup {
			return fmt.Errorf("%w: duplicate register %q (line %d)", ErrSemantic, r.Name, r.Line)
		}
		if r.Words <= 0 || r.Words > a.limits.MemoryWordsPerStage {
			return fmt.Errorf("%w: register %q has %d words; per-stage share is %d (line %d)",
				ErrResource, r.Name, r.Words, a.limits.MemoryWordsPerStage, r.Line)
		}
		a.regs[r.Name] = &regInfo{words: r.Words, stage: -1, decl: r}
	}
	return nil
}

// lookupField resolves a field reference.
func (a *analysis) lookupField(fr FieldRef) (*fieldInfo, error) {
	hf, ok := a.fields[fr.Header]
	if !ok {
		return nil, fmt.Errorf("%w: unknown header %q (line %d)", ErrSemantic, fr.Header, fr.Line)
	}
	fi, ok := hf[fr.Field]
	if !ok {
		return nil, fmt.Errorf("%w: header %q has no field %q (line %d)", ErrSemantic, fr.Header, fr.Field, fr.Line)
	}
	return fi, nil
}

// resolveActions checks every statement: names resolve, operands type-
// check, no recirculation, one ALU per destination container.
func (a *analysis) resolveActions() error {
	for _, act := range a.mod.Actions {
		if _, dup := a.actions[act.Name]; dup {
			return fmt.Errorf("%w: duplicate action %q (line %d)", ErrSemantic, act.Name, act.Line)
		}
		a.actions[act.Name] = act
		destSlots := map[int]int{} // slot -> line
		for _, s := range act.Body {
			if err := a.checkStmt(act, s, destSlots); err != nil {
				return err
			}
		}
	}
	return nil
}

func (a *analysis) checkStmt(act *Action, s *Stmt, destSlots map[int]int) error {
	claimSlot := func(slot, line int) error {
		if prev, busy := destSlots[slot]; busy {
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
		if err := checkOpnd(s.Port); err != nil {
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
			if _, ok := a.regs[s.Reg]; !ok {
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
		if _, ok := a.regs[s.Reg]; !ok {
			return fmt.Errorf("%w: unknown register %q (line %d)", ErrSemantic, s.Reg, s.Line)
		}
		return checkAddr(s.Addr)
	}
	return fmt.Errorf("%w: unknown statement kind at line %d", ErrSemantic, s.Line)
}

// resolveTables checks keys, action lists, entry shapes, and computes key
// layouts and entry counts.
func (a *analysis) resolveTables() error {
	for _, t := range a.mod.Tables {
		if _, dup := a.tables[t.Name]; dup {
			return fmt.Errorf("%w: duplicate table %q (line %d)", ErrSemantic, t.Name, t.Line)
		}
		ti := &tableInfo{decl: t, stage: -1, pred: -1, actions: map[string]*Action{}}

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
			ti.keySlots.used[slotIdx] = true
			ti.keySlots.fieldPos = append(ti.keySlots.fieldPos, slotKeyOffsets[slotIdx])
			ti.keySlots.fieldWidth = append(ti.keySlots.fieldWidth, fi.width/8)
		}

		if len(t.Actions) == 0 {
			return fmt.Errorf("%w: table %q declares no actions (line %d)", ErrSemantic, t.Name, t.Line)
		}
		for _, an := range t.Actions {
			act, ok := a.actions[an]
			if !ok {
				return fmt.Errorf("%w: table %q lists unknown action %q (line %d)", ErrSemantic, t.Name, an, t.Line)
			}
			ti.actions[an] = act
		}

		for _, e := range t.Entries {
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
			act, ok := ti.actions[e.Action]
			if !ok {
				return fmt.Errorf("%w: entry at line %d uses action %q not in table %q's action list",
					ErrSemantic, e.Line, e.Action, t.Name)
			}
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
		a.tables[t.Name] = ti
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
	applied := map[string]bool{}

	place := func(name string, cond *Condition, pred int, line int) error {
		ti, ok := a.tables[name]
		if !ok {
			return fmt.Errorf("%w: control applies unknown table %q (line %d)", ErrSemantic, name, line)
		}
		if applied[name] {
			return fmt.Errorf("%w: table %q applied twice; RMT is feed-forward (line %d)", ErrSemantic, name, line)
		}
		applied[name] = true
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

	for _, cs := range a.mod.Control {
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
		for _, act := range ti.actions {
			for _, s := range act.Body {
				if s.Reg == "" {
					continue
				}
				ri := a.regs[s.Reg]
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
	perStage := map[int]int{}
	for _, r := range a.mod.Registers {
		ri := a.regs[r.Name]
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
	writtenBy := func(ti *tableInfo) map[int]bool {
		out := map[int]bool{}
		for _, act := range ti.actions {
			for _, s := range act.Body {
				switch s.Kind {
				case StmtAssign, StmtLoad, StmtLoadd:
					if fi, err := a.lookupField(s.Dest); err == nil {
						out[fi.slot] = true
					}
				}
			}
		}
		return out
	}
	readsOf := func(ti *tableInfo) map[int]bool {
		out := map[int]bool{}
		for _, kf := range ti.decl.Keys {
			if fi, err := a.lookupField(kf); err == nil {
				out[fi.slot] = true
			}
		}
		if ti.cond != nil {
			if fi, err := a.lookupField(ti.cond.A); err == nil {
				out[fi.slot] = true
			}
			if ti.cond.B.Kind == OpndField {
				if fi, err := a.lookupField(ti.cond.B.Field); err == nil {
					out[fi.slot] = true
				}
			}
		}
		// Action operand reads also order stages (action dependency).
		for _, act := range ti.actions {
			for _, s := range act.Body {
				for _, o := range []Operand{s.A, s.B} {
					if o.Kind == OpndField {
						if fi, err := a.lookupField(o.Field); err == nil {
							out[fi.slot] = true
						}
					}
				}
				if s.Addr.HasField {
					if fi, err := a.lookupField(s.Addr.Field); err == nil {
						out[fi.slot] = true
					}
				}
			}
		}
		return out
	}

	// Verify the placement invariant: every dependent pair is ordered. A
	// pair (T, U) with U after T in control order is dependent when U
	// reads or writes a container T writes; such a U must sit in a
	// strictly later stage. placeControl's one-table-per-stage assignment
	// guarantees this, but verify explicitly so any future placement
	// optimization cannot silently break it.
	for i, t := range a.placed {
		w := writtenBy(t)
		for _, u := range a.placed[i+1:] {
			dependent := false
			for slot := range readsOf(u) {
				if w[slot] {
					dependent = true
					break
				}
			}
			if !dependent {
				for slot := range writtenBy(u) {
					if w[slot] {
						dependent = true
						break
					}
				}
			}
			if dependent && u.stage <= t.stage {
				return fmt.Errorf("%w: table %q depends on %q but is placed in stage %d <= %d",
					ErrSemantic, u.decl.Name, t.decl.Name, u.stage, t.stage)
			}
		}
	}
	return nil
}
