// Package stage implements one Menshen match-action processing stage
// (Figure 4 of the paper): a key extractor and key mask (overlay tables
// indexed by module ID), the module-ID-augmented exact-match CAM, the VLIW
// action table, the action engine, and stateful memory behind a segment
// table.
package stage

import (
	"errors"
	"fmt"

	"repro/internal/alu"
	"repro/internal/phv"
	"repro/internal/tables"
)

// Errors.
var (
	ErrNoAction = errors.New("stage: CAM hit but no VLIW action installed")
)

// Operand is one 8-bit predicate operand from the key extractor entry:
// either a PHV container (by ALU slot) or a small immediate. The top bit
// selects the interpretation.
type Operand struct {
	IsContainer bool
	Slot        uint8 // ALU slot 0-24 when IsContainer
	Imm         uint8 // 7-bit immediate otherwise
}

// Encode packs the operand into 8 bits.
func (o Operand) Encode() uint8 {
	if o.IsContainer {
		return 0x80 | o.Slot&0x1f
	}
	return o.Imm & 0x7f
}

// DecodeOperand unpacks an 8-bit operand.
func DecodeOperand(v uint8) Operand {
	if v&0x80 != 0 {
		return Operand{IsContainer: true, Slot: v & 0x1f}
	}
	return Operand{Imm: v & 0x7f}
}

// value resolves the operand against a PHV.
func (o Operand) value(p *phv.PHV) (uint64, error) {
	if !o.IsContainer {
		return uint64(o.Imm), nil
	}
	r, err := phv.RefForALU(int(o.Slot))
	if err != nil {
		return 0, err
	}
	if r.Type == phv.TypeMeta {
		return 0, fmt.Errorf("stage: metadata container is not a valid predicate operand")
	}
	return p.Get(r)
}

// PredOp is the 4-bit comparison opcode for conditional execution (§4.1).
type PredOp uint8

// Comparison operators. PredNone yields a constant-false predicate bit, so
// unconditioned modules install their match entries with the bit clear.
const (
	PredNone PredOp = iota
	PredEq
	PredNe
	PredLt
	PredGt
	PredLe
	PredGe
	predMax
)

// String implements fmt.Stringer.
func (op PredOp) String() string {
	switch op {
	case PredNone:
		return "none"
	case PredEq:
		return "=="
	case PredNe:
		return "!="
	case PredLt:
		return "<"
	case PredGt:
		return ">"
	case PredLe:
		return "<="
	case PredGe:
		return ">="
	}
	return fmt.Sprintf("PredOp(%d)", uint8(op))
}

// Eval applies the comparison.
func (op PredOp) Eval(a, b uint64) bool {
	switch op {
	case PredEq:
		return a == b
	case PredNe:
		return a != b
	case PredLt:
		return a < b
	case PredGt:
		return a > b
	case PredLe:
		return a <= b
	case PredGe:
		return a >= b
	}
	return false
}

// KeyExtractEntry is one 38-bit key-extractor table entry (Figure 7):
// six 3-bit container indices (two per size class) followed by the 4-bit
// predicate opcode and two 8-bit operands.
//
// The key is the concatenation of the selected containers in the wire
// order 1st6B, 2nd6B, 1st4B, 2nd4B, 1st2B, 2nd2B — 24 bytes — plus the
// predicate result bit, for 193 bits total.
type KeyExtractEntry struct {
	C6     [2]uint8 // indices into the 6-byte containers
	C4     [2]uint8 // indices into the 4-byte containers
	C2     [2]uint8 // indices into the 2-byte containers
	PredOp PredOp
	PredA  Operand
	PredB  Operand
}

// EntryBits is the wire width of a key-extractor entry.
const EntryBits = 38

// Encode packs the entry into its 38-bit wire form (low bits of uint64).
func (e KeyExtractEntry) Encode() uint64 {
	var v uint64
	for _, idx := range []uint8{e.C6[0], e.C6[1], e.C4[0], e.C4[1], e.C2[0], e.C2[1]} {
		v = v<<3 | uint64(idx&0x7)
	}
	v = v<<4 | uint64(e.PredOp&0xf)
	v = v<<8 | uint64(e.PredA.Encode())
	v = v<<8 | uint64(e.PredB.Encode())
	return v
}

// DecodeKeyExtractEntry unpacks a 38-bit entry.
func DecodeKeyExtractEntry(v uint64) KeyExtractEntry {
	var e KeyExtractEntry
	e.PredB = DecodeOperand(uint8(v))
	v >>= 8
	e.PredA = DecodeOperand(uint8(v))
	v >>= 8
	e.PredOp = PredOp(v & 0xf)
	v >>= 4
	e.C2[1] = uint8(v & 0x7)
	v >>= 3
	e.C2[0] = uint8(v & 0x7)
	v >>= 3
	e.C4[1] = uint8(v & 0x7)
	v >>= 3
	e.C4[0] = uint8(v & 0x7)
	v >>= 3
	e.C6[1] = uint8(v & 0x7)
	v >>= 3
	e.C6[0] = uint8(v & 0x7)
	return e
}

// Validate checks index and opcode ranges.
func (e KeyExtractEntry) Validate() error {
	for _, idx := range []uint8{e.C6[0], e.C6[1], e.C4[0], e.C4[1], e.C2[0], e.C2[1]} {
		if int(idx) >= phv.NumPerType {
			return fmt.Errorf("stage: container index %d out of range", idx)
		}
	}
	if e.PredOp >= predMax {
		return fmt.Errorf("stage: predicate opcode %d out of range", e.PredOp)
	}
	return nil
}

// ExtractKey builds the padded 193-bit lookup key from the PHV: container
// concatenation plus the predicate bit.
func (e KeyExtractEntry) ExtractKey(p *phv.PHV) (tables.Key, error) {
	var k tables.Key
	err := e.ExtractKeyInto(p, &k)
	return k, err
}

// ExtractKeyInto is ExtractKey writing through k — the per-packet path,
// where returning 25-byte keys by value costs a stack copy per call.
// The container copies are written at constant offsets so the compiler
// lowers them to direct loads/stores.
func (e *KeyExtractEntry) ExtractKeyInto(p *phv.PHV, k *tables.Key) error {
	*(*[phv.Size6B]byte)(k[0:]) = p.C6[e.C6[0]&0x7]
	*(*[phv.Size6B]byte)(k[6:]) = p.C6[e.C6[1]&0x7]
	*(*[phv.Size4B]byte)(k[12:]) = p.C4[e.C4[0]&0x7]
	*(*[phv.Size4B]byte)(k[16:]) = p.C4[e.C4[1]&0x7]
	*(*[phv.Size2B]byte)(k[20:]) = p.C2[e.C2[0]&0x7]
	*(*[phv.Size2B]byte)(k[22:]) = p.C2[e.C2[1]&0x7]
	k[24] = 0

	if e.PredOp != PredNone {
		av, err := e.PredA.value(p)
		if err != nil {
			return err
		}
		bv, err := e.PredB.value(p)
		if err != nil {
			return err
		}
		if e.PredOp.Eval(av, bv) {
			k[24] = 0x01
		}
	}
	return nil
}

// Stage is one match-action stage with Menshen's isolation primitives.
type Stage struct {
	// Extract and Mask are the overlay tables for key construction,
	// indexed by module ID (§3.1).
	Extract *tables.Overlay[KeyExtractEntry]
	Mask    *tables.Overlay[tables.Key]
	// Match is the module-ID-augmented CAM; Actions the VLIW table it
	// indexes. Both are space-partitioned across modules.
	Match   *tables.CAM
	Actions *alu.Table
	// Hash is the deep exact-match side of the match table (§4.3): a
	// growing cuckoo table holding per-flow entries keyed by (key,
	// module ID), each resolving to a VLIW action address. Flow entries
	// take precedence over CAM entries; ternary rules stay in the CAM.
	Hash *tables.Cuckoo
	// Memory is the stage's stateful memory, reached through Segments.
	Memory   *tables.StatefulMemory
	Segments *tables.SegmentTable
}

// Config sets the stage geometry.
type Config struct {
	OverlayDepth int // per-module entries in extractor/mask/segment tables
	CAMDepth     int // match + action entries
	MemoryWords  int // stateful memory words
}

// DefaultConfig is the prototype geometry of Table 5.
func DefaultConfig() Config {
	return Config{
		OverlayDepth: tables.OverlayDepth,
		CAMDepth:     tables.CAMDepth,
		MemoryWords:  tables.MemoryWords,
	}
}

// New returns a stage with the given geometry.
func New(cfg Config) *Stage {
	return &Stage{
		Extract:  tables.NewOverlay[KeyExtractEntry](cfg.OverlayDepth),
		Mask:     tables.NewOverlay[tables.Key](cfg.OverlayDepth),
		Match:    tables.NewCAM(cfg.CAMDepth),
		Actions:  alu.NewTable(cfg.CAMDepth),
		Hash:     tables.NewGrowingCuckoo(cfg.CAMDepth),
		Memory:   tables.NewStatefulMemory(cfg.MemoryWords),
		Segments: tables.NewSegmentTable(cfg.OverlayDepth),
	}
}

// Result reports what one stage did to one PHV, for statistics and cycle
// accounting.
type Result struct {
	// Active is true when the module had a key-extractor entry here; an
	// inactive stage passes the PHV through untouched.
	Active bool
	// Hit is true when the CAM matched.
	Hit bool
	// ActionAddr is the matched CAM/action address when Hit.
	ActionAddr int
	// MemOps counts stateful-memory operations performed.
	MemOps int
}

// Process is the reference oracle for flow_test.go's differential tests
// and stage_test.go's behaviour table; nothing serves traffic through
// it. It resolves every table live, per call, in the most literal
// reading of Figure 4 — overlay lookups by module ID, a masked key
// copy, a whole-table match, alu.Execute over all 25 slots — so a bug
// in the compiled View (PR 7's module-ID aliasing was one) shows up as a
// disagreement with it. ViewFor + ProcessView is the serving path.
func (s *Stage) Process(p *phv.PHV) (Result, error) {
	var res Result
	// Module IDs are 12 bits on the wire; normalize once so every table
	// below (overlays, CAM, cuckoo, segment translation) sees the same
	// index for out-of-range values.
	modIdx := int(p.ModuleID) & tables.MaxModuleID
	entry, ok := s.Extract.Lookup(modIdx)
	if !ok {
		return res, nil
	}
	res.Active = true

	key, err := entry.ExtractKey(p)
	if err != nil {
		return res, err
	}
	if mask, ok := s.Mask.Lookup(modIdx); ok {
		key = key.Masked(mask)
	}

	// Flow entries (the deep exact-match side) take precedence over CAM
	// entries; the CAM resolves ternary rules and compiled defaults.
	addr, hit := 0, false
	if s.Hash != nil && s.Hash.ModuleEntries(uint16(modIdx)) > 0 {
		addr, hit = s.Hash.Lookup(key, uint16(modIdx))
	}
	if !hit {
		addr, hit = s.Match.Lookup(key, uint16(modIdx))
	}
	if !hit {
		return res, nil
	}
	res.Hit = true
	res.ActionAddr = addr

	action, ok := s.Actions.Lookup(addr)
	if !ok {
		return res, fmt.Errorf("%w: address %d", ErrNoAction, addr)
	}
	env := alu.Env{PHV: p, Memory: s.Memory, Segments: s.Segments, ModIdx: modIdx}
	memOps, err := alu.Execute(&action, &env)
	res.MemOps = memOps
	return res, err
}

// View caches one module's per-stage configuration: the key-extractor
// entry, key mask, and a CAM snapshot bounded to the module's partition.
// A batch of one module's packets resolves the configuration once and
// then skips the per-packet overlay lookups — the software analogue of
// §3.2's latency masking, where the module ID travels ahead of the PHV
// so configuration reads are off the per-packet critical path. A View is
// a point-in-time snapshot: reconfiguration during its lifetime is not
// observed, which is safe because the packet filter drops the module's
// packets for the duration of any update.
type View struct {
	// Active is false when the module has no key-extractor entry here;
	// the stage passes its PHVs through untouched.
	Active bool
	// Entry and Mask are the module's key-construction configuration.
	Entry   KeyExtractEntry
	HasMask bool
	Mask    tables.Key
	// CAM is the match-table snapshot; only [CamLo, CamHi) can hold the
	// module's entries (its space partition), so the scan is bounded by
	// the module's own entry count.
	CAM          []tables.CAMEntry
	CamLo, CamHi int
	// match is the module's precompiled candidate list: its valid CAM
	// entries (in address order, so ternary priority is preserved) with
	// the per-packet key masking and ternary compare fused into one
	// (mask, want) word test — see tables.CAMEntry.MatchWords. The
	// per-packet match therefore never copies a key and performs four
	// AND+compare word operations per candidate. When the module has at
	// most FlowScanThreshold flow entries, they are folded in ahead of
	// the CAM candidates (flow entries take precedence, and being
	// unique-keyed at most one can match).
	match []viewMatch
	// hash is non-nil in hash mode (flow count above FlowScanThreshold):
	// ProcessView probes it with the module-masked key words before
	// falling back to the CAM candidate scan.
	hash     *tables.Cuckoo
	hashMod  uint16
	hashMask tables.KeyWords
	// cache, when attached, memoizes the full match resolution (flow
	// probe + CAM scan) keyed by the raw key words; entries from stale
	// configuration generations are ignored. Hash mode only.
	cache      *FlowCache
	cacheGen   uint64
	cacheStage uint8
}

// FlowScanThreshold is the per-module flow-entry count above which a
// View resolves exact-match flows through the cuckoo hash probe instead
// of folding them into the precompiled word-scan candidate list. At or
// below the threshold a linear scan over a handful of candidates beats
// a hash probe's two bucket reads; above it the probe is O(1)
// regardless of flow count.
const FlowScanThreshold = tables.CAMDepth

// AttachFlowCache points the view at a per-worker flow cache. It is a
// no-op unless the view is in hash mode — the scan path is already a
// few word compares, cheaper than a cache probe. gen is the pipeline
// configuration generation the view was resolved under and stg the
// stage index; both become part of the cache key so stale entries
// self-invalidate.
func (v *View) AttachFlowCache(fc *FlowCache, gen uint64, stg uint8) {
	if v.hash == nil || fc == nil {
		return
	}
	v.cache = fc
	v.cacheGen = gen
	v.cacheStage = stg
}

// PrefetchFlow speculatively warms the memory a hash-mode match will
// touch for this PHV: the flow cache line and the cuckoo table's two
// candidate buckets. The batched pipeline calls it for every frame in
// a batch before executing any of them, so the per-frame bucket reads
// — random accesses into a table that can span megabytes at million-
// flow scale — overlap in the memory system instead of serializing.
// The extraction is speculative (an earlier stage's action could still
// rewrite a key field), which only costs a wasted prefetch; resolution
// in ProcessView re-extracts and re-probes authoritatively. No-op
// outside hash mode.
func (v *View) PrefetchFlow(p *phv.PHV) {
	if !v.Active || v.hash == nil {
		return
	}
	var key tables.Key
	if err := v.Entry.ExtractKeyInto(p, &key); err != nil {
		return
	}
	kw := key.Words()
	if v.cache != nil {
		v.cache.prefetch(v.cacheGen, v.cacheStage, v.hashMod, &kw)
	}
	mkw := tables.KeyWords{
		kw[0] & v.hashMask[0],
		kw[1] & v.hashMask[1],
		kw[2] & v.hashMask[2],
		kw[3] & v.hashMask[3],
	}
	v.hash.PrefetchWords(&mkw, v.hashMod)
}

// viewMatch is one precompiled match candidate of a View (a CAM entry
// or a folded-in flow entry).
type viewMatch struct {
	mask, want tables.KeyWords
	addr       int32
}

// scanMatch runs the fused word-compare over the candidate list and
// returns the first (highest-priority) matching address, or -1.
func scanMatch(match []viewMatch, kw *tables.KeyWords) int {
	for i := range match {
		m := &match[i]
		if kw[0]&m.mask[0] == m.want[0] &&
			kw[1]&m.mask[1] == m.want[1] &&
			kw[2]&m.mask[2] == m.want[2] &&
			kw[3]&m.mask[3] == m.want[3] {
			return int(m.addr)
		}
	}
	return -1
}

// ViewFor resolves the module's configuration in this stage.
func (s *Stage) ViewFor(modIdx int) View {
	// Normalize to the 12-bit wire width once; every comparison below
	// (partition fallback, candidate precompile, flow enumeration) uses
	// the same index, so an out-of-range module index aliases onto the
	// same module in every table.
	modIdx &= tables.MaxModuleID
	var v View
	entry, ok := s.Extract.Lookup(modIdx)
	if !ok {
		return v
	}
	v.Active = true
	v.Entry = entry
	v.Mask, v.HasMask = s.Mask.Lookup(modIdx)

	// Exact-match flow entries resolve ahead of the CAM. A handful are
	// folded into the word-scan candidate list; past FlowScanThreshold
	// the view switches to hash mode and probes the cuckoo table.
	flows := 0
	if s.Hash != nil {
		flows = s.Hash.ModuleEntries(uint16(modIdx))
	}
	switch {
	case flows > FlowScanThreshold:
		v.hash = s.Hash
		v.hashMod = uint16(modIdx)
		mask := tables.FullMask()
		if v.HasMask {
			mask = v.Mask
		}
		v.hashMask = mask.Words()
	case flows > 0:
		mask := tables.FullMask()
		if v.HasMask {
			mask = v.Mask
		}
		mw := mask.Words()
		for _, fe := range s.Hash.ModuleFlows(uint16(modIdx)) {
			v.match = append(v.match, viewMatch{mask: mw, want: fe.Words, addr: fe.Addr})
		}
	}

	v.CAM = s.Match.Entries()
	lo, hi, ok := s.Match.PartitionOf(uint16(modIdx))
	if ok {
		// A partition configured after entries were written (raw table
		// use) may exclude existing valid entries; fall back to the full
		// scan then, so a valid entry of the module can match wherever
		// it sits.
		for a := range v.CAM {
			if (a < lo || a >= hi) && v.CAM[a].Valid && v.CAM[a].ModID == uint16(modIdx) {
				ok = false
				break
			}
		}
	}
	if !ok {
		lo, hi = 0, len(v.CAM)
	}
	v.CamLo, v.CamHi = lo, hi
	// Precompile the candidate list: only the module's own valid entries
	// can ever match (Matches checks ModID exactly), so the per-packet
	// scan is bounded by the module's entry count and skips the
	// validity/module checks entirely.
	for a := lo; a < hi; a++ {
		e := &v.CAM[a]
		if !e.Valid || e.ModID != uint16(modIdx) {
			continue
		}
		m, w := e.MatchWords(&v.Mask, v.HasMask)
		v.match = append(v.match, viewMatch{mask: m, want: w, addr: int32(a)})
	}
	return v
}

// ProcessView runs one PHV through the stage under the module
// configuration resolved into v: key extraction (with the per-module
// mask), match with the module ID appended — exact-match flow entries
// first, then the module's CAM entries in address order — and VLIW
// action execution. A module with no configuration in this stage
// (v.Active false) passes through untouched; a miss executes no action
// (the prototype has no default actions); a hit on an address with no
// action installed is ErrNoAction.
func (s *Stage) ProcessView(v *View, p *phv.PHV) (Result, error) {
	var res Result
	if !v.Active {
		return res, nil
	}
	res.Active = true

	var key tables.Key
	if err := v.Entry.ExtractKeyInto(p, &key); err != nil {
		return res, err
	}
	kw := key.Words()

	addr := -1
	cached := false
	if v.cache != nil {
		addr, cached = v.cache.lookup(v.cacheGen, v.cacheStage, v.hashMod, &kw)
	}
	if !cached {
		if v.hash != nil {
			// Hash mode: probe the cuckoo side with the module-masked key
			// words; flow entries take precedence, the CAM candidates
			// resolve ternary rules on a miss.
			mkw := tables.KeyWords{
				kw[0] & v.hashMask[0],
				kw[1] & v.hashMask[1],
				kw[2] & v.hashMask[2],
				kw[3] & v.hashMask[3],
			}
			if a, ok := v.hash.LookupWords(&mkw, v.hashMod); ok {
				addr = a
			} else {
				addr = scanMatch(v.match, &kw)
			}
		} else {
			addr = scanMatch(v.match, &kw)
		}
		if v.cache != nil {
			v.cache.store(v.cacheGen, v.cacheStage, v.hashMod, &kw, int32(addr))
		}
	}
	if addr < 0 {
		return res, nil
	}
	res.Hit = true
	res.ActionAddr = addr

	action, slots, ok := s.Actions.Ref(addr)
	if !ok {
		return res, fmt.Errorf("%w: address %d", ErrNoAction, addr)
	}
	env := alu.Env{PHV: p, Memory: s.Memory, Segments: s.Segments, ModIdx: int(p.ModuleID) & tables.MaxModuleID}
	memOps, err := alu.ExecuteSlots(action, slots, &env)
	res.MemOps = memOps
	return res, err
}

// ClearModule removes every per-module configuration and match entry for
// the module index, and zeroes its stateful-memory segment so no state
// leaks to a future tenant of the same slice. Other modules' entries are
// untouched.
func (s *Stage) ClearModule(modIdx int) error {
	// Normalize once, like ViewFor: the CAM stores 12-bit module IDs, so
	// the action sweep below must compare in the same domain.
	modIdx &= tables.MaxModuleID
	if seg, ok := s.Segments.Lookup(modIdx); ok {
		if err := s.Memory.ZeroRange(uint64(seg.Base), uint64(seg.Range)); err != nil {
			return err
		}
	}
	if err := s.Extract.Clear(modIdx); err != nil {
		return err
	}
	if err := s.Mask.Clear(modIdx); err != nil {
		return err
	}
	if err := s.Segments.Clear(modIdx); err != nil {
		return err
	}
	for addr := 0; addr < s.Actions.Depth(); addr++ {
		if e, err := s.Match.Entry(addr); err == nil && e.Valid && int(e.ModID) == modIdx {
			if err := s.Actions.Clear(addr); err != nil {
				return err
			}
		}
	}
	s.Match.ClearModule(uint16(modIdx))
	if s.Hash != nil {
		s.Hash.ClearModule(uint16(modIdx))
	}
	return nil
}

// WriteFlow installs (valid) or removes (!valid) one exact-match flow
// entry for the module: key → VLIW action address on the cuckoo side of
// the match table. The address must lie within the action table; it is
// normally one of the module's already-installed CAM/VLIW actions, so a
// flow entry steers a packet to an existing action without consuming
// CAM depth.
func (s *Stage) WriteFlow(valid bool, modID uint16, key tables.Key, addr int) error {
	if s.Hash == nil {
		return errors.New("stage: no hash match table")
	}
	modID &= tables.MaxModuleID
	if !valid {
		s.Hash.Delete(key, modID)
		return nil
	}
	if addr < 0 || addr >= s.Actions.Depth() {
		return fmt.Errorf("stage: flow action address %d out of range (depth %d)", addr, s.Actions.Depth())
	}
	return s.Hash.Insert(key, modID, addr)
}
