package compiler

import (
	"fmt"

	"repro/internal/alu"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/phv"
	"repro/internal/stage"
	"repro/internal/tables"
)

// Program is the result of a successful compilation.
type Program struct {
	// Config is the loadable pipeline configuration (tenant stages only;
	// pass it through sysmod.Config.Augment before loading).
	Config *core.ModuleConfig
	// StagesUsed is the number of tenant stages occupied.
	StagesUsed int
	// EntriesGenerated counts the match-action entries the compiler
	// emitted (explicit plus generated filler; Figure 8's x-axis).
	EntriesGenerated int
	// Registers records where each stateful register landed, for
	// control-plane reads.
	Registers []RegisterInfo
}

// RegisterInfo is the placement of one source-level register.
type RegisterInfo struct {
	Name  string
	Stage int // pipeline stage; -1 when the register is unused
	Base  int // module-segment-local base address
	Words int
}

// Options configures a compilation.
type Options struct {
	// ModuleID is the VLAN ID assigned to the module.
	ModuleID uint16
	// Limits is the module's resource allocation.
	Limits Limits
}

// Compile parses, checks, and code-generates a module. This is the full
// §3.4 path: static checks and resource checks run during analysis;
// code generation emits parser/deparser entries, key-extractor and mask
// configurations, and the match-action entries for every table —
// generating fresh distinct entries up to each table's size so no state
// leaks from a previous occupant of the partition (§5.1). The AST is
// scratch: the program keeps nothing of it, so it is parsed into
// storage recycled across compiles, as the analysis is.
func Compile(src string, opts Options) (*Program, error) {
	s := stores.Get().(*parseStore)
	defer s.release()
	mod, err := s.parse(src)
	if err != nil {
		return nil, err
	}
	return CompileAST(mod, opts)
}

// CompileAST compiles an already parsed module.
func CompileAST(mod *Module, opts Options) (*Program, error) {
	if opts.Limits == (Limits{}) {
		opts.Limits = DefaultLimits()
	}
	a := newAnalysis(mod, opts.Limits)
	defer a.release()
	if err := a.analyze(); err != nil {
		return nil, err
	}

	cfg := &core.ModuleConfig{
		ModuleID: opts.ModuleID,
		Name:     mod.Name,
		Stages:   make([]core.StageConfig, core.NumStages),
	}

	// Parser and deparser entries (identical formats, §3.1). Only fields
	// the module actually extracts travel in the PHV.
	var pe parser.Entry
	for i, fi := range a.parses {
		pe.Actions[i] = parser.Action{
			Offset: uint8(fi.frameOff),
			Dest:   fi.ref,
			Valid:  true,
		}
	}
	cfg.Parser = pe
	cfg.Deparser = pe

	prog := &Program{Config: cfg, StagesUsed: len(a.placed)}
	if len(a.regs) > 0 {
		prog.Registers = make([]RegisterInfo, len(a.regs))
		for i, ri := range a.regs {
			prog.Registers[i] = RegisterInfo{Name: ri.decl.Name, Stage: ri.stage, Base: ri.base, Words: ri.words}
		}
	}

	for _, ti := range a.placed {
		sc, n, err := a.genStage(ti)
		if err != nil {
			return nil, err
		}
		cfg.Stages[ti.stage] = sc
		prog.EntriesGenerated += n
	}
	return prog, nil
}

// genStage emits the stage configuration for one placed table.
func (a *analysis) genStage(ti *tableInfo) (core.StageConfig, int, error) {
	sc := core.StageConfig{Used: true}

	// Key extractor entry: container selections plus the predicate.
	ext := stage.KeyExtractEntry{
		C6: ti.keySlots.c6,
		C4: ti.keySlots.c4,
		C2: ti.keySlots.c2,
	}
	var mask tables.Key
	widths := [6]int{6, 6, 4, 4, 2, 2}
	for slot := 0; slot < 6; slot++ {
		if !ti.keySlots.used[slot] {
			continue
		}
		off := slotKeyOffsets[slot]
		for b := 0; b < widths[slot]; b++ {
			mask[off+b] = 0xff
		}
	}
	if ti.cond != nil {
		op, aOpnd, bOpnd, err := a.genPredicate(ti.cond)
		if err != nil {
			return sc, 0, err
		}
		ext.PredOp = op
		ext.PredA = aOpnd
		ext.PredB = bOpnd
		mask = mask.WithPredicate(true) // predicate bit participates in match
	}
	sc.Extract = ext
	sc.Mask = mask

	// Stateful memory share for this stage.
	segWords := 0
	for _, ri := range a.regs {
		if ri.stage == ti.stage {
			segWords += ri.words
		}
	}
	if segWords > 0xff {
		return sc, 0, fmt.Errorf("%w: stage %d needs %d words; segment range is 8-bit", ErrResource, ti.stage, segWords)
	}
	sc.SegmentWords = uint8(segWords)

	// Explicit entries first, then generated filler up to the table size.
	// All keys must be distinct within an exact-match table; a ternary
	// table keeps source order (the lowest CAM address wins, Appendix B)
	// and reserves — rather than fills — its remaining slots so the
	// control plane can insert prioritized rules later.
	entries := ti.decl.Entries
	n := ti.entryKeys
	if ti.decl.Ternary {
		n = len(entries)
	}
	sc.Rules = make([]core.Rule, 0, n)
	predBit := ti.pred == 1 // else-branch entries carry a clear bit
	usePred := ti.cond != nil

	for i := range entries {
		e := &entries[i]
		key, err := a.buildKey(ti, e.KeyVals, usePred && predBit)
		if err != nil {
			return sc, 0, fmt.Errorf("entry at line %d: %w", e.Line, err)
		}
		entryMask := mask
		if ti.decl.Ternary {
			entryMask, err = a.buildEntryMask(ti, e.KeyMasks, usePred)
			if err != nil {
				return sc, 0, fmt.Errorf("entry at line %d: %w", e.Line, err)
			}
			key = key.Masked(entryMask).WithPredicate(usePred && predBit)
		} else if hasKey(sc.Rules, key) {
			return sc, 0, fmt.Errorf("%w: duplicate key in table %q (line %d); exact-match entries must be distinct",
				ErrSemantic, ti.decl.Name, e.Line)
		}
		act, _ := a.action(e.Action)
		action, err := a.genAction(act, e.Args)
		if err != nil {
			return sc, 0, fmt.Errorf("entry at line %d: %w", e.Line, err)
		}
		sc.Rules = append(sc.Rules, core.Rule{Key: key, Mask: entryMask, Action: action})
	}

	if ti.decl.Ternary {
		// No generated filler for ternary tables; reserve the headroom.
		if extra := ti.entryKeys - len(sc.Rules); extra > 0 {
			sc.ReservedSlots = extra
		}
		return sc, len(sc.Rules), nil
	}

	// Filler entries: fresh, mutually distinct keys bound to the first
	// action with zeroed arguments. Generating (rather than inheriting)
	// them guarantees no information leaks from a previous module.
	fillerAct, _ := a.action(ti.decl.Actions[0])
	var zeros [8]uint64
	fillerArgs := zeros[:0]
	if n := len(fillerAct.Params); n <= len(zeros) {
		fillerArgs = zeros[:n]
	} else {
		fillerArgs = make([]uint64, n)
	}
	fillerAction, err := a.genAction(fillerAct, fillerArgs)
	if err != nil {
		return sc, 0, err
	}
	ks := &ti.keySlots
	if ks.n == 0 {
		// A keyless table holds exactly one (match-all via mask) entry.
		if len(sc.Rules) == 0 {
			key, err := a.buildKey(ti, nil, usePred && predBit)
			if err != nil {
				return sc, 0, err
			}
			sc.Rules = append(sc.Rules, core.Rule{Key: key, Mask: mask, Action: fillerAction})
		} else if len(sc.Rules) < ti.entryKeys {
			return sc, 0, fmt.Errorf("%w: table %q has no key fields but size %d > 1",
				ErrSemantic, ti.decl.Name, ti.entryKeys)
		}
		return sc, len(sc.Rules), nil
	}
	// Counter next becomes the key fields' values by spreading its bits
	// across them: the low bits fill the first field up to its width,
	// the next bits the second, and so on. Within the fields' total
	// width that map is one-to-one, and buildKey writes each value into
	// its own bytes at full width, so distinct counters below
	// 2^totalBits give distinct keys. The filler keys thus need no check
	// among themselves, only against the explicit entries, which hold
	// sc.Rules[:explicit] and come from the source.
	explicit := len(sc.Rules)
	totalBits := 0
	for i := range ks.n {
		totalBits += ks.fieldWidth[i] * 8
	}
	var kv [maxKeyFields]uint64
	for next := uint64(1); len(sc.Rules) < ti.entryKeys; next++ {
		if totalBits < 64 && next>>uint(totalBits) != 0 {
			return sc, 0, fmt.Errorf("%w: table %q needs %d distinct keys; its key fields hold %d bits",
				ErrResource, ti.decl.Name, ti.entryKeys, totalBits)
		}
		rem := next
		for i := range ks.n {
			w := uint(ks.fieldWidth[i] * 8) // at most 48
			kv[i], rem = rem&(1<<w-1), rem>>w
		}
		key, err := a.buildKey(ti, kv[:ks.n], usePred && predBit)
		if err != nil {
			return sc, 0, err
		}
		if hasKey(sc.Rules[:explicit], key) {
			continue
		}
		sc.Rules = append(sc.Rules, core.Rule{Key: key, Mask: mask, Action: fillerAction})
	}
	return sc, len(sc.Rules), nil
}

// hasKey reports whether one of rules matches key exactly. The rules it
// scans are a table's explicit entries, at most its CAM share.
func hasKey(rules []core.Rule, key tables.Key) bool {
	for i := range rules {
		if rules[i].Key == key {
			return true
		}
	}
	return false
}

// genPredicate lowers a control condition to key-extractor predicate
// hardware: comparison opcode plus two 8-bit operands.
func (a *analysis) genPredicate(c *Condition) (stage.PredOp, stage.Operand, stage.Operand, error) {
	var op stage.PredOp
	switch c.Op {
	case CmpEq:
		op = stage.PredEq
	case CmpNe:
		op = stage.PredNe
	case CmpLt:
		op = stage.PredLt
	case CmpGt:
		op = stage.PredGt
	case CmpLe:
		op = stage.PredLe
	case CmpGe:
		op = stage.PredGe
	}
	fa, err := a.lookupField(c.A)
	if err != nil {
		return 0, stage.Operand{}, stage.Operand{}, err
	}
	aOpnd := stage.Operand{IsContainer: true, Slot: uint8(fa.slot)}
	var bOpnd stage.Operand
	if c.B.Kind == OpndField {
		fb, err := a.lookupField(c.B.Field)
		if err != nil {
			return 0, stage.Operand{}, stage.Operand{}, err
		}
		bOpnd = stage.Operand{IsContainer: true, Slot: uint8(fb.slot)}
	} else {
		bOpnd = stage.Operand{Imm: uint8(c.B.Value)}
	}
	return op, aOpnd, bOpnd, nil
}

// buildEntryMask places per-field ternary masks at their key offsets
// (clipped to each field's width) and includes the predicate bit when the
// table is conditioned.
func (a *analysis) buildEntryMask(ti *tableInfo, masks []uint64, usePred bool) (tables.Key, error) {
	var m tables.Key
	if len(masks) != ti.keySlots.n {
		return m, fmt.Errorf("%w: %d masks for %d key fields", ErrSemantic, len(masks), ti.keySlots.n)
	}
	for i, mv := range masks {
		off := ti.keySlots.fieldPos[i]
		w := ti.keySlots.fieldWidth[i]
		for b := w - 1; b >= 0; b-- {
			m[off+b] = byte(mv)
			mv >>= 8
		}
	}
	if usePred {
		m = m.WithPredicate(true)
	}
	return m, nil
}

// buildKey places the entry's key field values at their key offsets and
// sets the predicate bit.
func (a *analysis) buildKey(ti *tableInfo, vals []uint64, pred bool) (tables.Key, error) {
	var k tables.Key
	if len(vals) != ti.keySlots.n {
		return k, fmt.Errorf("%w: %d key values for %d key fields", ErrSemantic, len(vals), ti.keySlots.n)
	}
	for i, v := range vals {
		off := ti.keySlots.fieldPos[i]
		w := ti.keySlots.fieldWidth[i]
		for b := w - 1; b >= 0; b-- {
			k[off+b] = byte(v)
			v >>= 8
		}
	}
	return k.WithPredicate(pred), nil
}

// genAction lowers one action (with bound arguments) to a VLIW action.
func (a *analysis) genAction(act *Action, args []uint64) (alu.Action, error) {
	var out alu.Action
	if len(args) != len(act.Params) {
		return out, fmt.Errorf("%w: action %q takes %d params, got %d args",
			ErrSemantic, act.Name, len(act.Params), len(args))
	}
	// bind returns the argument of a parameter; the last of two
	// parameters with one name wins.
	bind := func(name string) (uint64, bool) {
		for i := len(act.Params) - 1; i >= 0; i-- {
			if act.Params[i] == name {
				return args[i], true
			}
		}
		return 0, false
	}
	imm16 := func(o Operand) (uint16, error) {
		switch o.Kind {
		case OpndConst:
			if o.Value > 0xffff {
				return 0, fmt.Errorf("%w: immediate %d exceeds 16 bits", ErrSemantic, o.Value)
			}
			return uint16(o.Value), nil
		case OpndParam:
			v, ok := bind(o.Param)
			if !ok {
				return 0, fmt.Errorf("%w: unbound parameter %q", ErrSemantic, o.Param)
			}
			if v > 0xffff {
				return 0, fmt.Errorf("%w: argument %d for %q exceeds 16 bits", ErrSemantic, v, o.Param)
			}
			return uint16(v), nil
		}
		return 0, fmt.Errorf("%w: expected immediate operand", ErrSemantic)
	}
	fieldSlot := func(fr FieldRef) (uint8, error) {
		fi, err := a.lookupField(fr)
		if err != nil {
			return 0, err
		}
		return uint8(fi.slot), nil
	}
	addrOperands := func(ad AddrExpr, regName string) (uint8, uint16, error) {
		base := uint64(0)
		if regName != "" {
			ri, ok := a.reg(regName)
			if !ok {
				return 0, 0, fmt.Errorf("%w: unknown register %q", ErrSemantic, regName)
			}
			base = uint64(ri.base)
		}
		cv, err := imm16(ad.Const)
		if err != nil {
			return 0, 0, err
		}
		imm := base + uint64(cv)
		if imm > 0xffff {
			return 0, 0, fmt.Errorf("%w: address immediate %d exceeds 16 bits", ErrSemantic, imm)
		}
		slot := uint8(alu.NoOperand)
		if ad.HasField {
			s, err := fieldSlot(ad.Field)
			if err != nil {
				return 0, 0, err
			}
			slot = s
		}
		return slot, uint16(imm), nil
	}

	metaSlot := 3 * phv.NumPerType
	for i := range act.Body {
		s := &act.Body[i]
		switch s.Kind {
		case StmtDrop:
			out[metaSlot] = alu.Instr{Op: alu.OpDiscard, A: uint8(metaSlot)}
		case StmtSetPort:
			v, err := imm16(s.A)
			if err != nil {
				return out, err
			}
			out[metaSlot] = alu.Instr{Op: alu.OpPort, A: uint8(metaSlot), Imm: v}
		case StmtAssign:
			destSlot, err := fieldSlot(s.Dest)
			if err != nil {
				return out, err
			}
			in, err := lowerAssign(s, fieldSlot, imm16)
			if err != nil {
				return out, err
			}
			out[destSlot] = in
		case StmtLoad, StmtLoadd:
			destSlot, err := fieldSlot(s.Dest)
			if err != nil {
				return out, err
			}
			regName := s.Reg
			if s.Kind == StmtLoadd {
				regName = s.Reg // loadd may omit the register (addr-only form)
			}
			aSlot, imm, err := addrOperands(s.Addr, regName)
			if err != nil {
				return out, err
			}
			op := alu.OpLoad
			if s.Kind == StmtLoadd {
				op = alu.OpLoadd
			}
			out[destSlot] = alu.Instr{Op: op, A: aSlot, Imm: imm}
		case StmtStore:
			dataSlot, err := fieldSlot(s.Dest)
			if err != nil {
				return out, err
			}
			aSlot, imm, err := addrOperands(s.Addr, s.Reg)
			if err != nil {
				return out, err
			}
			out[dataSlot] = alu.Instr{Op: alu.OpStore, A: aSlot, Imm: imm}
		case StmtRecirculate:
			return out, fmt.Errorf("%w: recirculate survived analysis", ErrStatic)
		}
	}
	return out, nil
}

// lowerAssign lowers `dest = a [op b]` to one ALU instruction.
func lowerAssign(s *Stmt, fieldSlot func(FieldRef) (uint8, error), imm16 func(Operand) (uint16, error)) (alu.Instr, error) {

	isField := func(o Operand) bool { return o.Kind == OpndField }

	switch {
	case s.Op == BinNone && isField(s.A):
		// Copy: dest = src + 0.
		slot, err := fieldSlot(s.A.Field)
		if err != nil {
			return alu.Instr{}, err
		}
		return alu.Instr{Op: alu.OpAddi, A: slot, Imm: 0}, nil
	case s.Op == BinNone:
		v, err := imm16(s.A)
		if err != nil {
			return alu.Instr{}, err
		}
		return alu.Instr{Op: alu.OpSet, A: alu.NoOperand, Imm: v}, nil
	case isField(s.A) && isField(s.B):
		aSlot, err := fieldSlot(s.A.Field)
		if err != nil {
			return alu.Instr{}, err
		}
		bSlot, err := fieldSlot(s.B.Field)
		if err != nil {
			return alu.Instr{}, err
		}
		op := alu.OpAdd
		if s.Op == BinSub {
			op = alu.OpSub
		}
		return alu.Instr{Op: op, A: aSlot, B: bSlot}, nil
	case isField(s.A):
		slot, err := fieldSlot(s.A.Field)
		if err != nil {
			return alu.Instr{}, err
		}
		v, err := imm16(s.B)
		if err != nil {
			return alu.Instr{}, err
		}
		op := alu.OpAddi
		if s.Op == BinSub {
			op = alu.OpSubi
		}
		return alu.Instr{Op: op, A: slot, Imm: v}, nil
	case isField(s.B) && s.Op == BinAdd:
		// const + field commutes.
		slot, err := fieldSlot(s.B.Field)
		if err != nil {
			return alu.Instr{}, err
		}
		v, err := imm16(s.A)
		if err != nil {
			return alu.Instr{}, err
		}
		return alu.Instr{Op: alu.OpAddi, A: slot, Imm: v}, nil
	default:
		// const op const: fold.
		av, err := imm16(s.A)
		if err != nil {
			return alu.Instr{}, err
		}
		bv, err := imm16(s.B)
		if err != nil {
			return alu.Instr{}, err
		}
		v := av + bv
		if s.Op == BinSub {
			v = av - bv
		}
		return alu.Instr{Op: alu.OpSet, A: alu.NoOperand, Imm: v}, nil
	}
}
