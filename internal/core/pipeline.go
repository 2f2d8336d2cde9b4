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

	"repro/internal/alu"
	"repro/internal/packet"
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
// system-level module's statistics service. A pipeline keeps one per
// module ID, plain memory under its batch lock; StatsFor copies it out.
type ModuleStats struct {
	Packets uint64
	Bytes   uint64
	Drops   uint64
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

	// mu is the batch lock. It serializes Process and the batch path,
	// like the ingress wire, and it guards all of the pipeline's state,
	// plain memory written in place: every configuration table (parser,
	// deparser, and each stage's overlays, CAM, actions and flow tables),
	// each stage's stateful memory, the filter's round-robin position
	// and verdict counters, and stats. Only the filter's update bitmap
	// and the daisy chain's counter, the §3.1 registers the control
	// plane reaches from outside a batch, are atomic. Apply, Partition
	// and UnloadModule hold it, so a write waits for the batch in
	// flight; an engine shard applies commands between its own batches,
	// so there it is never contended. Other readers use Locked.
	mu sync.Mutex
	// stats holds each module's traffic counters, indexed by module ID.
	stats []ModuleStats

	// batchViews caches per-module stage configuration for the frame
	// path (guarded by mu). Each module's views revalidate against that
	// module's own stamp, which a write sets only on the modules whose
	// views hold a copy of what it wrote (see stamp), so a module's
	// reconfiguration is always observed and a neighbour's costs it no
	// re-resolution. cfgGen is the write counter every stamp is drawn
	// from, so no stamp is ever reused.
	batchViews []moduleViews
	cfgGen     uint64
	// flowCache, when set, is attached to every hash-mode stage view so
	// the frame path memoizes match resolutions (see stage.FlowCache). It
	// is owned by this pipeline's batch caller — the engine gives each
	// worker replica its own — and is only touched under mu.
	flowCache *stage.FlowCache
	// batchScratch is the batch loop's per-frame state (parsed PHVs,
	// resolved views), reused across batches and by Process for its
	// batch of one (guarded by mu).
	batchScratch []batchFrame
	// gather is the batch loop's step-2 scratch: the flow-cache slots
	// and cuckoo bucket lines of every hash-mode stage of every frame
	// (guarded by mu).
	gather stage.Gather
	// headerSink receives the bytes step 0 loads, so the compiler keeps
	// the loads (guarded by mu).
	headerSink byte
}

// batchFrame is one frame's step-1 outcome in the batch loop: the
// parsed PHV and the module's resolved views, or done when the frame
// already reached a terminal verdict (filtered, unknown module, parse
// error) recorded in its BatchResult.
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

// SetFlowCache installs (or, with nil, removes) the pipeline's
// exact-match flow cache. The cache must not be shared with another
// pipeline: it is accessed without synchronization under the batch
// lock. Safe to call between batches; cached views are invalidated.
func (p *Pipeline) SetFlowCache(fc *stage.FlowCache) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.flowCache = fc
	for id := range p.batchViews {
		p.stamp(uint16(id))
	}
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
// plus its parser/deparser entries (nil when not installed; the overlay
// slots, which no write touches while the views are current) and their
// compiled programs. The views are current while gen equals stamp.
type moduleViews struct {
	gen     uint64 // the stamp the views were resolved at (0 = never)
	stamp   uint64 // cfgGen at the module's last write that its views copy
	views   []stage.View
	parse   *parser.Entry
	deparse *parser.Entry
	// parseProg/deparseProg are the entries compiled to their valid
	// actions with container refs pre-resolved (parser.Program); the
	// per-frame path pays no per-action validity or range checks.
	parseProg   parser.Program
	deparseProg parser.Program
	// hashed is true when any of the views is in hash mode; batches of
	// modules without one skip the batch loop's gather step.
	hashed bool
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
		Filter:   reconfig.NewFilter(),
		Parser:   parser.New(geo.MaxModules),
		Deparser: parser.NewDeparser(geo.MaxModules),
		Stages:   make([]*stage.Stage, geo.Stages),
		stats:    make([]ModuleStats, geo.MaxModules),
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
		p.batchViews[i].stamp = 1
	}
	p.cfgGen = 1
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
// directly as the overlay index. The error is the bare sentinel, so a
// frame of an out-of-range VLAN costs the frame path no allocation.
//
//menshen:hotpath
func (p *Pipeline) checkModule(moduleID uint16) error {
	if int(moduleID) >= p.Geometry.MaxModules {
		return ErrModuleRange
	}
	return nil
}

// StatsFor returns a copy of a module's traffic counters, taken under
// the batch lock (zeros for a module ID outside the geometry).
func (p *Pipeline) StatsFor(moduleID uint16) ModuleStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	if int(moduleID) >= len(p.stats) {
		return ModuleStats{}
	}
	return p.stats[moduleID]
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
//
// The batch runs in four steps, each a loop over the whole batch, so
// that the cold loads of one step — frame headers, then flow-cache
// slots and cuckoo buckets that span megabytes at million-flow scale —
// are issued back to back and their misses overlap, instead of each
// frame's classify → parse → extract → hash chain waiting out its own
// misses one frame at a time (group prefetching, Chen et al., ICDE
// '04). The configuration is frozen for the whole batch (mu is held
// and the filter diverts reconfiguration frames to the command path),
// and per-stage stateful memory is only touched in step 3, in frame
// order, so the split is invisible to module semantics.
func (p *Pipeline) runBatch(frames [][]byte, ingressPort uint8, ports []uint8, res []BatchResult, inPlace bool) {
	bf := p.scratch(len(frames))
	// Step 0: load every frame's header window, which classify and parse
	// read next.
	p.headerSink = touchHeaders(frames)
	// Step 1: classify and parse every frame.
	hashed := false
	for i, data := range frames {
		port := ingressPort
		if ports != nil {
			port = ports[i]
		}
		f := &bf[i]
		p.prepBatchFrame(data, port, f, &res[i])
		hashed = hashed || !f.done && f.mv.hashed
	}
	// Step 2: gather the flow-cache slot and cuckoo bucket lines each
	// hash-mode stage will read for each frame, then load them all.
	// Batches with no hash-mode stage skip it.
	if hashed {
		for i := range bf {
			f := &bf[i]
			if f.done || !f.mv.hashed {
				continue
			}
			for s := range f.mv.views {
				f.mv.views[s].GatherFlow(&p.gather, &f.v)
			}
		}
		p.gather.Touch()
	}
	// Step 3: run the stage pipeline and deparse, in frame order.
	for i, data := range frames {
		if !bf[i].done {
			p.execBatchFrame(data, &bf[i], &res[i], inPlace)
		}
	}
}

// touchHeaders loads each frame's header window — the first
// packet.HeaderWindow bytes, all that classify and parse read — and
// returns the loaded bytes folded together for the caller to keep. A
// window of at most 128 bytes spans at most three 64-byte cache lines,
// so loading its first, middle and last bytes touches every line.
func touchHeaders(frames [][]byte) byte {
	var x byte
	for _, d := range frames {
		if n := min(len(d), packet.HeaderWindow); n > 0 {
			x ^= d[0] ^ d[n/2] ^ d[n-1]
		}
	}
	return x
}

// ConfigGen returns the pipeline's configuration generation: the write
// counter that every module stamp is drawn from, so it equals the latest
// stamp. It advances on every write that some module's views copy (see
// stamp); a shard replica whose generation is unchanged is guaranteed to
// serve batches from the same cached views.
func (p *Pipeline) ConfigGen() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cfgGen
}

// Locked runs fn under the batch lock: the way a reader or writer
// outside the command path reaches the configuration tables. fn must not
// call a Pipeline method that takes the lock, nor push a command.
func (p *Pipeline) Locked(fn func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fn()
}

// ModuleChecksum hashes every piece of configuration one module owns in
// this pipeline: parser and deparser entries, per-stage key extractors,
// key masks, stateful-memory segments, CAM partitions and entries, and
// the VLIW actions behind the module's CAM addresses. Two pipeline
// replicas configured by the same reconfiguration command stream have
// equal checksums; a torn or partially applied configuration does not.
// Stateful memory contents are deliberately excluded (per-flow state is
// sharded and legitimately diverges between replicas). Call it at a
// quiesce point: concurrent reconfiguration yields an unspecified (but
// crash-free) result. It takes the batch lock, which guards the flow
// tables it enumerates.
func (p *Pipeline) ModuleChecksum(moduleID uint16) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := fnv.New64a()
	u64 := func(v uint64) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	u64(uint64(moduleID))
	idx := int(moduleID)
	var enc []byte // each entry's wire form, in turn
	if e, ok := p.Parser.Table().Lookup(idx); ok {
		h.Write([]byte{'P'})
		enc = e.AppendEncode(enc[:0])
		h.Write(enc)
	}
	if e, ok := p.Deparser.Table().Lookup(idx); ok {
		h.Write([]byte{'D'})
		enc = e.AppendEncode(enc[:0])
		h.Write(enc)
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
				enc = a.AppendEncode(enc[:0])
				h.Write(enc)
			}
		}
		if flows := st.Hash.Table(moduleID & tables.MaxModuleID); flows != nil {
			// Flow entries are folded in order-independently (XOR of
			// per-entry hashes): two replicas fed the same flow commands
			// hold the same entry set but may lay their buckets out
			// differently after growth/relocation. The fold reads each
			// entry where it lies, so a million-flow table costs no copy
			// under the lock.
			var fold uint64
			for fe := range flows.All() {
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

// prepBatchFrame is the batch loop's step 1 for one frame: classify,
// resolve (or reuse) the module's cached per-stage configuration, and
// parse into f.v. Terminal verdicts (filtered, unknown module, parse
// error) are recorded in r and marked done so steps 2 and 3 skip the
// frame.
func (p *Pipeline) prepBatchFrame(data []byte, ingressPort uint8, f *batchFrame, r *BatchResult) {
	r.Data = nil
	r.EgressPort = 0
	r.Dropped = false
	r.DiscardedByModule = false
	r.Err = nil
	r.Meta = 0
	f.done = true

	cls := p.Filter.Classify(data, p.Options.NumParsers)
	r.Verdict = cls.Verdict
	r.ModuleID = cls.ModuleID
	if f.out != nil {
		f.out.BufferTag, f.out.ParserNum = cls.BufferTag, cls.ParserNum
	}
	if cls.Verdict != reconfig.VerdictData {
		r.Dropped = true
		if cls.Verdict == reconfig.VerdictDropUpdating && int(cls.ModuleID) < len(p.stats) {
			p.stats[cls.ModuleID].Drops++
		}
		return
	}
	if err := p.checkModule(cls.ModuleID); err != nil {
		r.Dropped = true
		r.Err = err
		return
	}

	mv := &p.batchViews[cls.ModuleID]
	if mv.gen != mv.stamp {
		mv.hashed = false
		for i, st := range p.Stages {
			mv.views[i] = st.ViewFor(int(cls.ModuleID))
			if p.flowCache != nil {
				mv.views[i].AttachFlowCache(p.flowCache, mv.stamp, uint8(i))
			}
			mv.hashed = mv.hashed || mv.views[i].HashMode()
		}
		mv.parse, _ = p.Parser.EntryRef(int(cls.ModuleID))
		mv.deparse, _ = p.Deparser.EntryRef(int(cls.ModuleID))
		if mv.parse != nil {
			mv.parseProg = mv.parse.Compile()
		}
		if mv.deparse != nil {
			mv.deparseProg = mv.deparse.Compile()
		}
		mv.gen = mv.stamp
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
}

// execBatchFrame is step 3 for one frame: the stage pipeline, in
// order, stopping at the first stage whose action discards the frame,
// then the deparse. The steady state allocates nothing and performs no
// atomic operation: the module's traffic counters are plain memory under
// the batch lock, and each stage's Result is dropped unless Process
// asked for it (f.out). A stage fault drops the frame with r.Err set.
// With inPlace unset the deparser writes into a fresh copy (the
// submitted frame is never written); with it set the deparser writes
// straight into data and r.Data aliases it.
func (p *Pipeline) execBatchFrame(data []byte, f *batchFrame, r *BatchResult, inPlace bool) {
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
		p.stats[r.ModuleID].Drops++
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
	s := &p.stats[r.ModuleID]
	s.Packets++
	s.Bytes += uint64(len(data))
}

// --- Reconfiguration command application (reconfig.Sink) ---

// Wire sizes of reconfiguration payloads per resource kind.
const (
	camEntryBytes   = 1 + 2 + tables.KeyBytes + tables.KeyBytes // valid, modID, key, mask
	keyExtractBytes = 5                                         // 38 bits
	segmentBytes    = 2
	// FlowEntryBytes is exported so a stream of n flow commands can cut
	// its payloads from one arena of n*FlowEntryBytes bytes.
	FlowEntryBytes = 1 + 2 + 2 + tables.KeyBytes // valid, modID, action addr, key
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

// AppendFlowEntry appends a flow entry's reconfiguration payload to dst.
func AppendFlowEntry(dst []byte, e *FlowEntry) []byte {
	var valid byte
	if e.Valid {
		valid = 1
	}
	dst = append(dst, valid)
	dst = binary.BigEndian.AppendUint16(dst, e.ModID)
	dst = binary.BigEndian.AppendUint16(dst, e.Addr)
	return append(dst, e.Key[:]...)
}

// DecodeFlowEntry unpacks a flow entry from a reconfiguration payload.
func DecodeFlowEntry(b []byte) (FlowEntry, error) {
	var e FlowEntry
	if len(b) < FlowEntryBytes {
		return e, fmt.Errorf("%w: flow entry needs %d bytes, have %d", ErrBadCommand, FlowEntryBytes, len(b))
	}
	e.Valid = b[0] != 0
	e.ModID = binary.BigEndian.Uint16(b[1:])
	e.Addr = binary.BigEndian.Uint16(b[3:])
	copy(e.Key[:], b[5:])
	return e, nil
}

// FlowCommand is the reconfiguration command installing (or, with the
// entry's Valid false, removing) one flow entry in the given stage;
// payload is the entry as AppendFlowEntry encodes it.
func FlowCommand(stg int, payload []byte) reconfig.Command {
	return reconfig.Command{Resource: reconfig.MakeResourceID(stg, reconfig.KindHash), Payload: payload}
}

// AppendCAMEntry appends a CAM entry's reconfiguration payload to dst.
func AppendCAMEntry(dst []byte, e *tables.CAMEntry) []byte {
	var valid byte
	if e.Valid {
		valid = 1
	}
	dst = append(dst, valid)
	dst = binary.BigEndian.AppendUint16(dst, e.ModID)
	dst = append(dst, e.Key[:]...)
	return append(dst, e.Mask[:]...)
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

// AppendKeyExtract appends a key-extractor entry's payload (38 bits in
// 5 bytes) to dst.
func AppendKeyExtract(dst []byte, e stage.KeyExtractEntry) []byte {
	v := e.Encode()
	return binary.BigEndian.AppendUint32(append(dst, byte(v>>32)), uint32(v))
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

// stamp records a write that module id's views copy: it draws the next
// value of the write counter as the module's stamp, so the module's views
// re-resolve on its next frame and its flow-cache slots, tagged with the
// old stamp, are never hit again. No other module's views or slots are
// touched. An ID outside the geometry has no views and is not stamped.
// Callers hold mu.
func (p *Pipeline) stamp(id uint16) {
	if int(id) < len(p.batchViews) {
		p.cfgGen++
		p.batchViews[id].stamp = p.cfgGen
	}
}

// Apply implements reconfig.Sink: it routes one decoded configuration
// command to the targeted table, exactly as the daisy chain delivers a
// command to the element it addresses. Updating an entry touches only
// that entry — the no-disruption property — and stamps only the modules
// whose views copy it. It holds the batch lock, so the write lands
// between batches.
func (p *Pipeline) Apply(cmd reconfig.Command) error {
	p.mu.Lock()
	defer p.mu.Unlock()
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
		p.stamp(uint16(idx))
		return p.Parser.Set(idx, e)
	case reconfig.KindDeparser:
		e, err := parser.DecodeEntry(cmd.Payload)
		if err != nil {
			return err
		}
		p.stamp(uint16(idx))
		return p.Deparser.Set(idx, e)
	case reconfig.KindKeyExtract:
		e, err := DecodeKeyExtract(cmd.Payload)
		if err != nil {
			return err
		}
		if err := e.Validate(); err != nil {
			return err
		}
		p.stamp(uint16(idx))
		return p.Stages[cmd.Resource.Stage()].Extract.Set(idx, e)
	case reconfig.KindKeyMask:
		if len(cmd.Payload) < tables.KeyBytes {
			return fmt.Errorf("%w: key mask needs %d bytes", ErrBadCommand, tables.KeyBytes)
		}
		var mask tables.Key
		copy(mask[:], cmd.Payload)
		p.stamp(uint16(idx))
		return p.Stages[cmd.Resource.Stage()].Mask.Set(idx, mask)
	case reconfig.KindCAM:
		e, err := DecodeCAMEntry(cmd.Payload)
		if err != nil {
			return err
		}
		// Both owners' views hold the address: the one whose entry is
		// replaced (a deleted rule is an empty entry written over it)
		// and the one whose entry is written.
		cam := p.Stages[cmd.Resource.Stage()].Match
		if old, err := cam.Entry(idx); err == nil && old.Valid {
			p.stamp(old.ModID)
		}
		if e.Valid {
			p.stamp(e.ModID & tables.MaxModuleID)
		}
		return cam.Write(idx, e)
	case reconfig.KindVLIW:
		// Stamps nothing: ProcessView reads actions in place and the flow
		// cache holds action addresses, not actions.
		a, err := alu.DecodeAction(cmd.Payload)
		if err != nil {
			return err
		}
		return p.Stages[cmd.Resource.Stage()].Actions.Set(idx, a)
	case reconfig.KindSegment:
		// Stamps nothing: actions translate through the segment table in
		// place, and no view copies it.
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
		p.stamp(e.ModID & tables.MaxModuleID)
		return st.WriteFlow(e.Valid, e.ModID, e.Key, int(e.Addr))
	}
	return fmt.Errorf("%w: unknown resource kind %d", ErrBadCommand, kind)
}

// HoldsModule reports whether a program is loaded under moduleID: every
// load writes the module's parser entry first and every unload clears
// it, so the entry's presence is the one bit to read.
func (p *Pipeline) HoldsModule(moduleID uint16) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.Parser.Table().Ref(int(moduleID))
	return ok
}

// UnloadModule clears every resource owned by a module across the whole
// pipeline, and its traffic counters (admission-control bookkeeping for
// re-use of the slot: a successor reads none of its state), under the
// batch lock and with the module's §3.1 update bit set.
func (p *Pipeline) UnloadModule(moduleID uint16) error {
	if err := p.checkModule(moduleID); err != nil {
		return err
	}
	idx := int(moduleID)
	p.Filter.SetUpdating(moduleID, true)
	defer p.Filter.SetUpdating(moduleID, false)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stamp(moduleID)
	p.stats[moduleID] = ModuleStats{}
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
