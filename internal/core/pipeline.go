// Package core implements the Menshen pipeline — the paper's primary
// contribution: an RMT match-action pipeline extended with lightweight
// isolation primitives (space partitioning and overlays) so that multiple
// independently written packet-processing modules share one device without
// interfering with each other.
//
// The pipeline (Figure 2) is: packet filter → programmable parser(s) →
// five match-action stages → deparser(s) with packet buffers, plus a
// separate daisy chain for secure reconfiguration.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"repro/internal/alu"
	"repro/internal/parser"
	"repro/internal/phv"
	"repro/internal/reconfig"
	"repro/internal/stage"
	"repro/internal/tables"
)

// NumStages is the number of programmable processing stages in the
// prototype (§4.1).
const NumStages = 5

// Errors.
var (
	ErrModuleRange = errors.New("core: module ID out of supported range")
	ErrBadCommand  = errors.New("core: malformed reconfiguration command")
)

// Options are the throughput-optimization knobs of §3.2. They change the
// cycle accounting (and the parser/buffer assignment at the filter), not
// the functional path.
type Options struct {
	// MaskRAMLatency sends the module ID ahead of the PHV so per-module
	// configuration reads overlap PHV transfer (§3.2 optimization 1).
	MaskRAMLatency bool
	// NumParsers is the number of parallel parsers (2 in the optimized
	// design).
	NumParsers int
	// NumDeparsers is the number of parallel deparsers, each with its own
	// packet buffer (4 in the optimized design).
	NumDeparsers int
	// DeepPipelining splits elements into sub-elements (e.g. CAM lookup
	// and action-RAM read), halving the per-element cycle occupancy
	// (§3.2 optimization 3).
	DeepPipelining bool
}

// Unoptimized returns the §3.1 base design: one parser, one deparser, no
// latency masking, no deep pipelining.
func Unoptimized() Options {
	return Options{NumParsers: 1, NumDeparsers: 1}
}

// Optimized returns the §3.2 design: 2 parsers, 4 deparsers, RAM-latency
// masking, deep pipelining.
func Optimized() Options {
	return Options{MaskRAMLatency: true, NumParsers: 2, NumDeparsers: 4, DeepPipelining: true}
}

// Geometry fixes the table depths of the pipeline.
type Geometry struct {
	// MaxModules bounds the number of loadable modules (overlay depth, 32
	// in the prototype).
	MaxModules int
	// CAMDepth is the per-stage match/action table depth (16).
	CAMDepth int
	// MemoryWords is the per-stage stateful memory size (256).
	MemoryWords int
	// Stages is the number of match-action stages (5).
	Stages int
}

// DefaultGeometry is the prototype geometry (Table 5).
func DefaultGeometry() Geometry {
	return Geometry{
		MaxModules:  tables.OverlayDepth,
		CAMDepth:    tables.CAMDepth,
		MemoryWords: tables.MemoryWords,
		Stages:      NumStages,
	}
}

// ModuleStats counts per-module traffic for observability and the
// system-level module's statistics service.
type ModuleStats struct {
	Packets atomic.Uint64
	Bytes   atomic.Uint64
	Drops   atomic.Uint64
}

// Pipeline is one Menshen pipeline instance.
type Pipeline struct {
	Geometry Geometry
	Options  Options

	Filter   *reconfig.Filter
	Parser   *parser.Parser
	Deparser *parser.Deparser
	Stages   []*stage.Stage
	Chain    *reconfig.DaisyChain

	mu    sync.Mutex // serializes Process and the batch path, like the ingress wire
	stats map[uint16]*ModuleStats

	// batchViews caches per-module stage configuration for the frame
	// path (guarded by mu). Entries are revalidated against cfgGen, which
	// every configuration write path bumps (Apply, Partition,
	// UnloadModule), so reconfiguration is always observed and an
	// unchanged configuration pays no per-batch re-resolution.
	batchViews []moduleViews
	cfgGen     atomic.Uint64
	// flowCache, when set, is attached to every hash-mode stage view so
	// the frame path memoizes match resolutions (see stage.FlowCache). It
	// is owned by this pipeline's batch caller — the engine gives each
	// worker replica its own — and is only touched under mu.
	flowCache *stage.FlowCache
	// batchScratch is the two-pass batch loop's per-frame state (parsed
	// PHVs, resolved views), reused across batches and by Process for
	// its batch of one (guarded by mu).
	batchScratch []batchFrame
}

// batchFrame is one frame's pass-1 outcome in the two-pass batch loop:
// the parsed PHV and the module's resolved views, or done when the
// frame already reached a terminal verdict (filtered, unknown module,
// parse error) recorded in its BatchResult.
type batchFrame struct {
	v    phv.PHV
	mv   *moduleViews
	done bool
	// out is set only while Process runs its batch of one: the frame's
	// round-robin assignment and per-stage results are recorded there.
	// Batches leave it nil and pay the nil checks.
	out *Output
}

// scratch returns the first n frames of the batch scratch, growing it
// when a larger batch than any before arrives. Callers hold mu.
func (p *Pipeline) scratch(n int) []batchFrame {
	if len(p.batchScratch) < n {
		p.batchScratch = make([]batchFrame, n)
	}
	return p.batchScratch[:n]
}

// ShareFlowTables points every stage's exact-match flow table (the
// cuckoo side) at the donor pipeline's corresponding table. The engine
// calls it once per extra worker replica before any worker starts:
// flow entries are configuration, not per-flow state, and the cuckoo's
// reads are wait-free, so replicas can resolve flows out of one shared
// structure instead of each holding a megabytes-deep copy per 10⁵-10⁶
// flow tenant. Replayed flow commands fanned out to every shard become
// idempotent re-inserts of the same entry. A side effect of sharing is
// that a hash-mode probe on one shard may observe an entry slightly
// before that shard's own copy of the install command lands (the
// entry's own shard already published it); scan-mode candidate lists
// and the flow cache still roll forward only at the shard's own
// generation bump, exactly as with private tables.
func (p *Pipeline) ShareFlowTables(donor *Pipeline) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, st := range p.Stages {
		st.Hash = donor.Stages[i].Hash
	}
	p.InvalidateBatchViews()
}

// SetFlowCache installs (or, with nil, removes) the pipeline's
// exact-match flow cache. The cache must not be shared with another
// pipeline: it is accessed without synchronization under the batch
// lock. Safe to call between batches; cached views are invalidated.
func (p *Pipeline) SetFlowCache(fc *stage.FlowCache) {
	p.mu.Lock()
	p.flowCache = fc
	p.mu.Unlock()
	p.InvalidateBatchViews()
}

// FlowCacheStats returns the flow cache's cumulative hit/miss counters
// (zeros when no cache is installed).
func (p *Pipeline) FlowCacheStats() (hits, misses uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.flowCache == nil {
		return 0, 0
	}
	return p.flowCache.Stats()
}

// moduleViews is one module's cached configuration across all stages,
// plus its parser/deparser entries (nil when not installed; snapshot
// refs are immutable) and their compiled programs.
type moduleViews struct {
	gen     uint64 // cfgGen the views were resolved at (0 = never)
	views   []stage.View
	parse   *parser.Entry
	deparse *parser.Entry
	// parseProg/deparseProg are the entries compiled to their valid
	// actions with container refs pre-resolved (parser.Program); the
	// per-frame path pays no per-action validity or range checks.
	parseProg   parser.Program
	deparseProg parser.Program
	stats       *ModuleStats
}

// New returns a Menshen pipeline with the given geometry and options.
func New(geo Geometry, opts Options) *Pipeline {
	if opts.NumParsers < 1 {
		opts.NumParsers = 1
	}
	if opts.NumDeparsers < 1 {
		opts.NumDeparsers = 1
	}
	p := &Pipeline{
		Geometry: geo,
		Options:  opts,
		Filter:   reconfig.NewFilter(false),
		Parser:   parser.New(geo.MaxModules),
		Deparser: parser.NewDeparser(geo.MaxModules),
		Stages:   make([]*stage.Stage, geo.Stages),
		stats:    make(map[uint16]*ModuleStats),
	}
	for i := range p.Stages {
		p.Stages[i] = stage.New(stage.Config{
			OverlayDepth: geo.MaxModules,
			CAMDepth:     geo.CAMDepth,
			MemoryWords:  geo.MemoryWords,
		})
	}
	p.batchViews = make([]moduleViews, geo.MaxModules)
	for i := range p.batchViews {
		p.batchViews[i].views = make([]stage.View, geo.Stages)
	}
	p.cfgGen.Store(1)
	p.Chain = reconfig.NewDaisyChain(p)
	return p
}

// NewDefault returns an optimized pipeline with the prototype geometry.
func NewDefault() *Pipeline { return New(DefaultGeometry(), Optimized()) }

// NewRMT returns the baseline RMT design used for comparison in §5: the
// same pipeline restricted to a single module (overlay depth 1). It is
// the "modified Menshen to support only one module" of the evaluation.
func NewRMT(opts Options) *Pipeline {
	geo := DefaultGeometry()
	geo.MaxModules = 1
	return New(geo, opts)
}

// checkModule validates a module ID against the pipeline geometry. The
// prototype supports module IDs 0..MaxModules-1; the VLAN ID is used
// directly as the overlay index.
func (p *Pipeline) checkModule(moduleID uint16) error {
	if int(moduleID) >= p.Geometry.MaxModules {
		return fmt.Errorf("%w: module %d (max %d)", ErrModuleRange, moduleID, p.Geometry.MaxModules-1)
	}
	return nil
}

// StatsFor returns (creating if needed) the stats block for a module.
func (p *Pipeline) StatsFor(moduleID uint16) *ModuleStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.stats[moduleID]
	if !ok {
		s = &ModuleStats{}
		p.stats[moduleID] = s
	}
	return s
}

// Output is the result of processing one frame.
type Output struct {
	// Data is the (possibly modified) frame; nil when dropped.
	Data []byte
	// Dropped is true when the frame was discarded, with Verdict/Reason
	// explaining why.
	Dropped bool
	Verdict reconfig.Verdict
	// DiscardedByModule is true when a module action (not the filter)
	// discarded the packet.
	DiscardedByModule bool
	// ModuleID is the packet's module (VLAN) ID.
	ModuleID uint16
	// EgressPort is the destination port chosen by the pipeline.
	EgressPort uint8
	// PHV is the final packet header vector (for tests and tracing).
	PHV phv.PHV
	// StageResults records per-stage activity.
	StageResults []stage.Result
	// BufferTag and ParserNum record the §3.2 round-robin assignment.
	BufferTag uint8
	ParserNum uint8
}

// Trace carries the element-level activity counts a platform model needs
// for cycle accounting. The functional pipeline is platform-independent;
// internal/netdev turns a Trace into cycles and nanoseconds.
type Trace struct {
	FrameBytes   int
	ParsedFields int
	ActiveStages int
	CAMHits      int
	MemOps       int
}

// Process pushes one frame through the pipeline and reports everything
// the pipeline did to it: the per-stage results, the final PHV, the
// filter's round-robin assignment and the activity counts a platform
// model turns into cycles. It is a batch of one through runBatch, the
// loop ProcessBatchInPlace runs — which method is called selects the detail
// captured, never the code that handles the frame. The returned Output owns a fresh copy of the
// frame: like the hardware packet buffer, the input is left untouched
// and the deparser writes modified headers into the buffered copy. A
// per-frame processing error (module ID out of range, parse or stage
// fault) is returned as the error; the Output then reports the frame
// dropped.
func (p *Pipeline) Process(data []byte, ingressPort uint8) (*Output, *Trace, error) {
	out := &Output{StageResults: make([]stage.Result, len(p.Stages))}
	tr := &Trace{FrameBytes: len(data)}
	frames := [1][]byte{data}
	// A zero result has no recycled buffer, so the copying-mode deparse
	// lands in a fresh allocation the caller owns.
	var res [1]BatchResult

	p.mu.Lock()
	defer p.mu.Unlock()
	f := &p.scratch(1)[0]
	f.out = out
	p.runBatch(frames[:], ingressPort, nil, res[:], false)
	f.out = nil
	r, ran := &res[0], !f.done // ran: the frame was parsed and entered the stages

	out.Data = r.Data
	out.Dropped = r.Dropped
	out.Verdict = r.Verdict
	out.DiscardedByModule = r.DiscardedByModule
	out.ModuleID = r.ModuleID
	out.EgressPort = r.EgressPort
	if ran {
		tr.ParsedFields = f.mv.parse.ValidActions()
		for _, sr := range out.StageResults {
			if sr.Active {
				tr.ActiveStages++
			}
			if sr.Hit {
				tr.CAMHits++
			}
			tr.MemOps += sr.MemOps
		}
		if r.Err == nil {
			out.PHV = f.v
		}
	}
	return out, tr, r.Err
}

// BatchResult is the reduced per-frame outcome of the batched fast path.
// Unlike Output it carries no PHV or per-stage trace.
type BatchResult struct {
	// Data is the processed frame (nil when dropped). Under
	// ProcessBatchInPlace it aliases the submitted frame; under Process
	// it is a fresh copy the caller owns.
	Data []byte
	// ModuleID is the frame's VLAN-carried module ID.
	ModuleID uint16
	// EgressPort is the destination port chosen by the pipeline.
	EgressPort uint8
	// Dropped is true when the frame was discarded.
	Dropped bool
	// DiscardedByModule is true when a module action (not the filter)
	// discarded the frame.
	DiscardedByModule bool
	// Verdict is the packet filter's classification.
	Verdict reconfig.Verdict
	// Err records a per-frame processing error (the frame counts as
	// dropped); other frames of the batch are unaffected.
	Err error
	// Meta is an opaque out-of-band word that travels alongside the
	// frame, never inside it: the engine's metadata submit paths attach
	// it (the multi-device fabric carries per-frame hop counts here) and
	// deliver it with the result. Only the low 56 bits are carried —
	// the engine packs the word with the frame's ingress port in one
	// ring slot, so the top 8 bits arrive zeroed. The pipeline itself
	// neither reads nor writes it beyond resetting it to zero for each
	// processed frame.
	Meta uint64
}

// ProcessBatchInPlace pushes a batch of frames through the pipeline
// under a single lock acquisition, writing outcomes into res (which
// must be at least as long as frames). No Output or Trace is built, so
// steady-state processing allocates nothing. The deparser writes
// modified headers directly into each submitted frame, and res[i].Data
// aliases frames[i] on success. The caller must own the frame buffers
// (nothing else may read or write them while the batch runs) and must
// treat their contents as replaced by the processed frame. Deparsing
// touches only the configured writeback windows
// (parser.Program.Deparse's aliasing guarantee), so the result bytes
// are identical to Process's copying path. A per-frame error is
// recorded in res[i].Err and does not abort the batch.
func (p *Pipeline) ProcessBatchInPlace(frames [][]byte, ingressPort uint8, res []BatchResult) error {
	return p.processBatch(frames, ingressPort, nil, res)
}

// ProcessBatchInPlacePorts is ProcessBatchInPlace with a per-frame
// ingress port: frames[i] is processed as if it entered the device on
// ports[i]. It exists for the multi-device fabric, where one worker
// ring interleaves frames that arrived over different inter-node links
// (and therefore on different ingress ports of the same node). ports
// must be at least as long as frames.
func (p *Pipeline) ProcessBatchInPlacePorts(frames [][]byte, ports []uint8, res []BatchResult) error {
	if len(ports) < len(frames) {
		return fmt.Errorf("core: ports slice too short: %d ports for %d frames", len(ports), len(frames))
	}
	return p.processBatch(frames, 0, ports, res)
}

// batchScope accumulates the per-frame side effects of one batch —
// filter verdict counters, round-robin tags, and per-module traffic
// stats — so the steady-state frame loop performs no atomic operations.
// Module stats are flushed when the batch switches modules (rare: the
// engine's rings are per-tenant) and once at the end.
type batchScope struct {
	cls            reconfig.ClassifyScope
	stats          *ModuleStats
	packets, drops uint64
	bytes          uint64
}

func (b *batchScope) flushStats() {
	if b.stats == nil {
		return
	}
	if b.packets > 0 {
		b.stats.Packets.Add(b.packets)
		b.stats.Bytes.Add(b.bytes)
	}
	if b.drops > 0 {
		b.stats.Drops.Add(b.drops)
	}
	b.packets, b.bytes, b.drops = 0, 0, 0
}

// account charges one forwarded/discarded frame to the module's stats.
func (b *batchScope) account(stats *ModuleStats, bytes uint64, dropped bool) {
	if b.stats != stats {
		b.flushStats()
		b.stats = stats
	}
	if dropped {
		b.drops++
		return
	}
	b.packets++
	b.bytes += bytes
}

func (p *Pipeline) processBatch(frames [][]byte, ingressPort uint8, ports []uint8, res []BatchResult) error {
	if len(res) < len(frames) {
		return fmt.Errorf("core: result slice too short: %d results for %d frames", len(res), len(frames))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.runBatch(frames, ingressPort, ports, res, true)
	return nil
}

// runBatch is the frame path: every frame of every Process and
// ProcessBatchInPlace call goes through this loop. Callers hold mu.
func (p *Pipeline) runBatch(frames [][]byte, ingressPort uint8, ports []uint8, res []BatchResult, inPlace bool) {
	gen := p.cfgGen.Load()
	bf := p.scratch(len(frames))
	var bs batchScope
	p.Filter.BeginBatch(&bs.cls)
	// Pass 1: classify and parse every frame, and prefetch the flow
	// table's candidate buckets, so pass 2's hash probes — random reads
	// into tables that span megabytes at million-flow scale — find warm
	// lines instead of serializing a memory round-trip per frame. The
	// configuration is frozen for the whole batch (mu is held and the
	// filter diverts reconfiguration frames to the command path), and
	// per-stage stateful memory is only touched in pass 2, in frame
	// order, so the split is invisible to module semantics.
	for i, data := range frames {
		port := ingressPort
		if ports != nil {
			port = ports[i]
		}
		p.prepBatchFrame(data, port, gen, &bf[i], &res[i], &bs)
	}
	// Pass 2: run the stage pipeline and deparse, in frame order.
	for i, data := range frames {
		if !bf[i].done {
			p.execBatchFrame(data, &bf[i], &res[i], inPlace, &bs)
		}
	}
	bs.flushStats()
	p.Filter.CommitBatch(&bs.cls)
}

// InvalidateBatchViews forces the batch path to re-resolve cached module
// configuration. Every command-path write calls it; it is exported for
// callers that mutate stage tables directly.
func (p *Pipeline) InvalidateBatchViews() { p.cfgGen.Add(1) }

// ConfigGen returns the pipeline's configuration generation: a counter
// that every configuration write path (Apply, Partition, UnloadModule,
// InvalidateBatchViews) bumps. A shard replica whose generation is
// unchanged is guaranteed to serve batches from the same cached views.
func (p *Pipeline) ConfigGen() uint64 { return p.cfgGen.Load() }

// ModuleChecksum hashes every piece of configuration one module owns in
// this pipeline: parser and deparser entries, per-stage key extractors,
// key masks, stateful-memory segments, CAM partitions and entries, and
// the VLIW actions behind the module's CAM addresses. Two pipeline
// replicas configured by the same reconfiguration command stream have
// equal checksums; a torn or partially applied configuration does not.
// Stateful memory contents are deliberately excluded (per-flow state is
// sharded and legitimately diverges between replicas). Call it at a
// quiesce point: concurrent reconfiguration yields an unspecified (but
// crash-free) result.
func (p *Pipeline) ModuleChecksum(moduleID uint16) uint64 {
	h := fnv.New64a()
	u64 := func(v uint64) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	u64(uint64(moduleID))
	idx := int(moduleID)
	if e, ok := p.Parser.Table().Lookup(idx); ok {
		h.Write([]byte{'P'})
		h.Write(e.Encode())
	}
	if e, ok := p.Deparser.Table().Lookup(idx); ok {
		h.Write([]byte{'D'})
		h.Write(e.Encode())
	}
	for s, st := range p.Stages {
		u64(uint64(s))
		if e, ok := st.Extract.Lookup(idx); ok {
			h.Write([]byte{'E'})
			u64(e.Encode())
		}
		if m, ok := st.Mask.Lookup(idx); ok {
			h.Write([]byte{'M'})
			h.Write(m[:])
		}
		if seg, ok := st.Segments.Lookup(idx); ok {
			h.Write([]byte{'S', seg.Base, seg.Range})
		}
		if lo, hi, ok := st.Match.PartitionOf(moduleID); ok {
			h.Write([]byte{'R'})
			u64(uint64(lo))
			u64(uint64(hi))
		}
		entries := st.Match.Entries()
		for addr := range entries {
			e := &entries[addr]
			if !e.Valid || e.ModID != moduleID {
				continue
			}
			h.Write([]byte{'C'})
			u64(uint64(addr))
			h.Write(e.Key[:])
			h.Write(e.Mask[:])
			if a, ok := p.Stages[s].Actions.Lookup(addr); ok {
				h.Write([]byte{'A'})
				h.Write(a.Encode())
			}
		}
		if st.Hash != nil {
			// Flow entries are folded in order-independently (XOR of
			// per-entry hashes): two replicas fed the same flow commands
			// hold the same entry set but may lay their buckets out
			// differently after growth/relocation.
			var fold uint64
			for _, fe := range st.Hash.ModuleFlows(moduleID & tables.MaxModuleID) {
				eh := fnv.New64a()
				var b [8]byte
				for _, w := range fe.Words {
					binary.BigEndian.PutUint64(b[:], w)
					eh.Write(b[:])
				}
				binary.BigEndian.PutUint64(b[:], uint64(uint32(fe.Addr)))
				eh.Write(b[:])
				fold ^= eh.Sum64()
			}
			if fold != 0 {
				h.Write([]byte{'F'})
				u64(fold)
			}
		}
	}
	return h.Sum64()
}

// prepBatchFrame is the two-pass batch loop's pass 1 for one frame:
// classify, resolve (or reuse) the module's cached per-stage
// configuration, parse into f.v, and issue the speculative flow-table
// prefetches. Terminal verdicts (filtered, unknown module, parse
// error) are recorded in r and marked done so pass 2 skips the frame.
func (p *Pipeline) prepBatchFrame(data []byte, ingressPort uint8, gen uint64, f *batchFrame, r *BatchResult, bs *batchScope) {
	r.Data = nil
	r.EgressPort = 0
	r.Dropped = false
	r.DiscardedByModule = false
	r.Err = nil
	r.Meta = 0
	f.done = true

	cls := p.Filter.ClassifyBatched(data, p.Options.NumParsers, &bs.cls)
	r.Verdict = cls.Verdict
	r.ModuleID = cls.ModuleID
	if f.out != nil {
		f.out.BufferTag, f.out.ParserNum = cls.BufferTag, cls.ParserNum
	}
	if cls.Verdict != reconfig.VerdictData {
		r.Dropped = true
		if s, ok := p.stats[cls.ModuleID]; ok && cls.Verdict == reconfig.VerdictDropUpdating {
			bs.account(s, 0, true)
		}
		return
	}
	if err := p.checkModule(cls.ModuleID); err != nil {
		r.Dropped = true
		r.Err = err
		return
	}

	mv := &p.batchViews[cls.ModuleID]
	if mv.gen != gen {
		for i, st := range p.Stages {
			mv.views[i] = st.ViewFor(int(cls.ModuleID))
			if p.flowCache != nil {
				mv.views[i].AttachFlowCache(p.flowCache, gen, uint8(i))
			}
		}
		mv.parse, _ = p.Parser.EntryRef(int(cls.ModuleID))
		mv.deparse, _ = p.Deparser.EntryRef(int(cls.ModuleID))
		if mv.parse != nil {
			mv.parseProg = mv.parse.Compile()
		}
		if mv.deparse != nil {
			mv.deparseProg = mv.deparse.Compile()
		}
		mv.stats = p.statsLocked(cls.ModuleID)
		mv.gen = gen
	}

	if mv.parse == nil {
		// Unknown module: no parser entry installed. Drop.
		r.Dropped = true
		return
	}
	if err := mv.parseProg.Parse(data, &f.v); err != nil {
		r.Dropped = true
		r.Err = err
		return
	}
	f.v.ModuleID = cls.ModuleID
	f.v.SetIngress(ingressPort)
	f.v.SetBufferTag(cls.BufferTag)
	f.mv = mv
	f.done = false
	for i := range mv.views {
		mv.views[i].PrefetchFlow(&f.v)
	}
}

// execBatchFrame is pass 2 for one frame: the stage pipeline, in
// order, stopping at the first stage whose action discards the frame,
// then the deparse. The steady state allocates nothing and performs no
// atomic operation: traffic counts accumulate into bs, and each stage's
// Result is dropped unless Process asked for it (f.out). A stage fault
// drops the frame with r.Err set. With inPlace unset the deparser
// writes into a fresh copy (the submitted frame is never written); with
// it set the deparser writes straight into data and r.Data aliases it.
func (p *Pipeline) execBatchFrame(data []byte, f *batchFrame, r *BatchResult, inPlace bool, bs *batchScope) {
	mv, v, out := f.mv, &f.v, f.out
	for i, st := range p.Stages {
		res, err := st.ProcessView(&mv.views[i], v)
		if out != nil {
			out.StageResults[i] = res
		}
		if err != nil {
			r.Dropped = true
			r.Err = fmt.Errorf("stage %d: %w", i, err)
			return
		}
		if v.Discarded() {
			break
		}
	}

	if v.Discarded() {
		r.Dropped = true
		r.DiscardedByModule = true
		bs.account(mv.stats, 0, true)
		return
	}

	buf := data
	if !inPlace {
		buf = append([]byte(nil), data...)
	}
	// A module may legitimately modify nothing; a missing deparser entry
	// (mv.deparse == nil) means "no writebacks".
	if mv.deparse != nil {
		mv.deparseProg.Deparse(buf, v)
	}
	r.Data = buf
	r.EgressPort = v.Egress()
	bs.account(mv.stats, uint64(len(data)), false)
}

func (p *Pipeline) statsLocked(moduleID uint16) *ModuleStats {
	s, ok := p.stats[moduleID]
	if !ok {
		s = &ModuleStats{}
		p.stats[moduleID] = s
	}
	return s
}

// --- Reconfiguration command application (reconfig.Sink) ---

// Wire sizes of reconfiguration payloads per resource kind.
const (
	camEntryBytes   = 1 + 2 + tables.KeyBytes + tables.KeyBytes // valid, modID, key, mask
	keyExtractBytes = 5                                         // 38 bits
	segmentBytes    = 2
	flowEntryBytes  = 1 + 2 + 2 + tables.KeyBytes // valid, modID, action addr, key
)

// FlowEntry is one exact-match flow rule for the cuckoo side of a
// stage's match table: key → action address, owned by a module. Valid
// false encodes a deletion. Unlike CAM entries, flow entries carry
// their full identity in the payload (there is no small stable address
// to put in a command's index field).
type FlowEntry struct {
	// Valid installs the entry; false removes the key.
	Valid bool
	// ModID is the owning module (12 bits on the wire).
	ModID uint16
	// Addr is the VLIW action address the flow resolves to — normally
	// one of the module's already-installed actions, so a flow steers
	// packets without consuming CAM depth.
	Addr uint16
	// Key is the exact match key (pre-masked by the module's key mask).
	Key tables.Key
}

// EncodeFlowEntry packs a flow entry for the reconfiguration payload.
func EncodeFlowEntry(e FlowEntry) []byte {
	out := make([]byte, flowEntryBytes)
	if e.Valid {
		out[0] = 1
	}
	binary.BigEndian.PutUint16(out[1:], e.ModID)
	binary.BigEndian.PutUint16(out[3:], e.Addr)
	copy(out[5:], e.Key[:])
	return out
}

// DecodeFlowEntry unpacks a flow entry from a reconfiguration payload.
func DecodeFlowEntry(b []byte) (FlowEntry, error) {
	var e FlowEntry
	if len(b) < flowEntryBytes {
		return e, fmt.Errorf("%w: flow entry needs %d bytes, have %d", ErrBadCommand, flowEntryBytes, len(b))
	}
	e.Valid = b[0] != 0
	e.ModID = binary.BigEndian.Uint16(b[1:])
	e.Addr = binary.BigEndian.Uint16(b[3:])
	copy(e.Key[:], b[5:])
	return e, nil
}

// FlowCommand builds the reconfiguration command installing (or, with
// e.Valid false, removing) one flow entry in the given stage.
func FlowCommand(stg int, e FlowEntry) reconfig.Command {
	return reconfig.Command{
		Resource: reconfig.MakeResourceID(stg, reconfig.KindHash),
		Payload:  EncodeFlowEntry(e),
	}
}

// EncodeCAMEntry packs a CAM entry for the reconfiguration payload.
func EncodeCAMEntry(e tables.CAMEntry) []byte {
	out := make([]byte, camEntryBytes)
	if e.Valid {
		out[0] = 1
	}
	binary.BigEndian.PutUint16(out[1:], e.ModID)
	copy(out[3:], e.Key[:])
	copy(out[3+tables.KeyBytes:], e.Mask[:])
	return out
}

// DecodeCAMEntry unpacks a CAM entry from a reconfiguration payload.
func DecodeCAMEntry(b []byte) (tables.CAMEntry, error) {
	var e tables.CAMEntry
	if len(b) < camEntryBytes {
		return e, fmt.Errorf("%w: CAM entry needs %d bytes, have %d", ErrBadCommand, camEntryBytes, len(b))
	}
	e.Valid = b[0] != 0
	e.ModID = binary.BigEndian.Uint16(b[1:])
	copy(e.Key[:], b[3:])
	copy(e.Mask[:], b[3+tables.KeyBytes:])
	return e, nil
}

// EncodeKeyExtract packs a key-extractor entry (38 bits in 5 bytes).
func EncodeKeyExtract(e stage.KeyExtractEntry) []byte {
	v := e.Encode()
	out := make([]byte, keyExtractBytes)
	out[0] = byte(v >> 32)
	binary.BigEndian.PutUint32(out[1:], uint32(v))
	return out
}

// DecodeKeyExtract unpacks a key-extractor entry.
func DecodeKeyExtract(b []byte) (stage.KeyExtractEntry, error) {
	if len(b) < keyExtractBytes {
		return stage.KeyExtractEntry{}, fmt.Errorf("%w: key extractor needs %d bytes, have %d",
			ErrBadCommand, keyExtractBytes, len(b))
	}
	v := uint64(b[0])<<32 | uint64(binary.BigEndian.Uint32(b[1:]))
	return stage.DecodeKeyExtractEntry(v), nil
}

// Apply implements reconfig.Sink: it routes one decoded configuration
// command to the targeted table, exactly as the daisy chain delivers a
// command to the element it addresses. Updating an entry touches only
// that entry — the no-disruption property.
func (p *Pipeline) Apply(cmd reconfig.Command) error {
	defer p.InvalidateBatchViews()
	kind := cmd.Resource.Kind()
	if !kind.Stageless() {
		if s := cmd.Resource.Stage(); s >= len(p.Stages) {
			return fmt.Errorf("%w: stage %d (have %d)", ErrBadCommand, s, len(p.Stages))
		}
	}
	idx := int(cmd.Index)
	switch kind {
	case reconfig.KindParser:
		e, err := parser.DecodeEntry(cmd.Payload)
		if err != nil {
			return err
		}
		return p.Parser.Set(idx, e)
	case reconfig.KindDeparser:
		e, err := parser.DecodeEntry(cmd.Payload)
		if err != nil {
			return err
		}
		return p.Deparser.Set(idx, e)
	case reconfig.KindKeyExtract:
		e, err := DecodeKeyExtract(cmd.Payload)
		if err != nil {
			return err
		}
		if err := e.Validate(); err != nil {
			return err
		}
		return p.Stages[cmd.Resource.Stage()].Extract.Set(idx, e)
	case reconfig.KindKeyMask:
		if len(cmd.Payload) < tables.KeyBytes {
			return fmt.Errorf("%w: key mask needs %d bytes", ErrBadCommand, tables.KeyBytes)
		}
		var mask tables.Key
		copy(mask[:], cmd.Payload)
		return p.Stages[cmd.Resource.Stage()].Mask.Set(idx, mask)
	case reconfig.KindCAM:
		e, err := DecodeCAMEntry(cmd.Payload)
		if err != nil {
			return err
		}
		return p.Stages[cmd.Resource.Stage()].Match.Write(idx, e)
	case reconfig.KindVLIW:
		a, err := alu.DecodeAction(cmd.Payload)
		if err != nil {
			return err
		}
		return p.Stages[cmd.Resource.Stage()].Actions.Set(idx, a)
	case reconfig.KindSegment:
		if len(cmd.Payload) < segmentBytes {
			return fmt.Errorf("%w: segment needs %d bytes", ErrBadCommand, segmentBytes)
		}
		return p.Stages[cmd.Resource.Stage()].Segments.Set(idx,
			tables.Segment{Base: cmd.Payload[0], Range: cmd.Payload[1]})
	case reconfig.KindHash:
		e, err := DecodeFlowEntry(cmd.Payload)
		if err != nil {
			return err
		}
		st := p.Stages[cmd.Resource.Stage()]
		if e.Valid {
			// Space isolation: when the module has a CAM/action partition,
			// a flow may only resolve to addresses inside it — a flow
			// entry must not steer packets into another module's actions.
			if lo, hi, ok := st.Match.PartitionOf(e.ModID & tables.MaxModuleID); ok {
				if int(e.Addr) < lo || int(e.Addr) >= hi {
					return fmt.Errorf("%w: flow action address %d outside module %d partition [%d,%d)",
						ErrBadCommand, e.Addr, e.ModID, lo, hi)
				}
			}
		}
		return st.WriteFlow(e.Valid, e.ModID, e.Key, int(e.Addr))
	}
	return fmt.Errorf("%w: unknown resource kind %d", ErrBadCommand, kind)
}

// UnloadModule clears every resource owned by a module across the whole
// pipeline (admission-control bookkeeping for re-use of the slot).
func (p *Pipeline) UnloadModule(moduleID uint16) error {
	if err := p.checkModule(moduleID); err != nil {
		return err
	}
	idx := int(moduleID)
	p.Filter.SetUpdating(moduleID, true)
	defer p.Filter.SetUpdating(moduleID, false)
	// Registered after SetUpdating(false) so it runs first (LIFO): the
	// cached views must be invalidated before the update bit clears, or
	// a concurrent batch could serve the unloaded module from a
	// stale view against a zeroed (possibly reassigned) segment.
	defer p.InvalidateBatchViews()
	if err := p.Parser.Table().Clear(idx); err != nil {
		return err
	}
	if err := p.Deparser.Table().Clear(idx); err != nil {
		return err
	}
	for i, st := range p.Stages {
		if err := st.ClearModule(idx); err != nil {
			return fmt.Errorf("stage %d: %w", i, err)
		}
	}
	return nil
}
