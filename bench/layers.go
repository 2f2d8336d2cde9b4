package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	menshen "repro"
	"repro/internal/alu"
	"repro/internal/checker"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/ingress"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/phv"
	"repro/internal/sched"
	"repro/internal/stage"
	"repro/internal/sysmod"
	"repro/internal/tables"
	"repro/internal/trafficgen"
)

// The per-layer pass. Every layer is measured from outside: either by
// timing calls into its exported functions while replaying the
// workload's own frames and module set, or by reading Engine.Stats at
// the edges of a traced window. Layer = package name.

// perLayer lists every per-layer metric a traced run reports, in
// BENCHMARK.json order (checked by a unit test). A metric that does not
// apply to a workload is left out of the report and listed with the
// reason; only the driver's result line, which must carry every declared
// name, shows it as 0.
var perLayer = []metricDef{
	{"loadgen.latency_p50_us", "us", "lower"},
	{"loadgen.latency_p99_us", "us", "lower"},
	{"loadgen.gen_ns_per_frame", "ns", "lower"},
	{"loadgen.late_frac", "fraction", "lower"},
	{"loadgen.send_ns_per_frame", "ns", "lower"},
	{"ingress.rx_mpps_null_sink", "Mpps", "higher"},
	{"ingress.frames_per_read", "frames/read", "higher"},
	{"ingress.dropped_frac", "fraction", "lower"},
	{"engine.submit_ns_per_frame", "ns", "lower"},
	{"engine.owned_submit_ns_per_frame", "ns", "lower"},
	{"engine.handoff_ns_per_frame", "ns", "lower"},
	{"engine.worker_busy_frac", "fraction", "lower"},
	{"engine.avg_batch", "frames", "higher"},
	{"engine.pool_hit_rate", "fraction", "higher"},
	{"engine.bytes_copied_per_frame", "B", "lower"},
	{"engine.queue_full_frac", "fraction", "lower"},
	{"engine.batch_p50_us", "us", "lower"},
	{"engine.batch_p99_us", "us", "lower"},
	{"engine.queue_wait_p50_us", "us", "lower"},
	{"engine.overload_goodput_mpps", "Mpps", "higher"},
	{"engine.scaling_w2", "x", "higher"},
	{"engine.reconfig_idle_ms", "ms", "lower"},
	{"engine.reconfig_retries", "count", "lower"},
	{"engine.reconfig_failed", "count", "lower"},
	{"core.batch_ns_per_frame", "ns", "lower"},
	{"core.send_ns_per_frame", "ns", "lower"},
	{"core.allocs_per_frame", "count", "lower"},
	{"core.glue_ns_per_frame", "ns", "lower"},
	{"parser.parse_ns_per_frame", "ns", "lower"},
	{"parser.deparse_ns_per_frame", "ns", "lower"},
	{"stage.process_ns_per_frame", "ns", "lower"},
	{"stage.flowcache_hit_rate", "fraction", "higher"},
	{"tables.cam_lookup_ns", "ns", "lower"},
	{"tables.cuckoo_lookup_ns", "ns", "lower"},
	{"tables.cuckoo_batch_lookup_ns", "ns", "lower"},
	{"alu.execute_ns_per_frame", "ns", "lower"},
	{"sched.egress_pushpop_ns", "ns", "lower"},
	{"sched.egress_dropped_frac", "fraction", "lower"},
	{"sched.egress_share_err", "fraction", "lower"},
	{"sched.tokenbucket_ns", "ns", "lower"},
	{"compiler.compile_ms", "ms", "lower"},
	{"ctrlplane.load_ms", "ms", "lower"},
	{"ctrlplane.insert_flows_per_s", "1/s", "higher"},
	{"obs.collect_us", "us", "lower"},
	{"obs.trace_overhead_frac", "fraction", "lower"},
	{"fabric.chain3_mpps", "Mpps", "higher"},
	{"process.cpu_ns_per_frame", "ns", "lower"},
	{"process.allocs_per_frame", "count", "lower"},
	{"process.gc_pause_ms", "ms", "lower"},
	{"bench.span_overhead_frac", "fraction", "lower"},
	{"loss_frac", "fraction", "lower"},
}

// layerSet collects per-layer values for one workload.
type layerSet struct {
	vals map[string]float64
	na   map[string]string
	tr   *tracer
	sp   *spanBuf
	// budget is the time one replay may spend measuring.
	budget time.Duration
	// Filled by runLayers from the two end-to-end passes.
	untraced, traced *pass
	goodput          float64 // traced pass, Mpps
	latP50us         float64 // traced pass
}

func (ls *layerSet) set(name string, v float64) { ls.vals[name] = v }

func (ls *layerSet) skip(reason string, names ...string) {
	for _, n := range names {
		if _, done := ls.vals[n]; !done {
			ls.na[n] = reason
		}
	}
}

// timeLoop calls fn (which reports how many frames it handled) in
// chunks for about the budget and returns the median chunk's
// nanoseconds per frame: a median over chunks shrugs off a preemption
// in the middle of the replay.
func (ls *layerSet) timeLoop(fn func() int) float64 {
	const chunk = 5 * time.Millisecond
	var perFrame []float64
	deadline := time.Now().Add(ls.budget)
	for time.Now().Before(deadline) || len(perFrame) < 3 {
		frames := 0
		start := time.Now()
		for time.Since(start) < chunk {
			frames += fn()
		}
		if frames > 0 {
			perFrame = append(perFrame, float64(time.Since(start).Nanoseconds())/float64(frames))
		}
	}
	return median(perFrame)
}

// runLayers is a per-layer run: a short untraced pass (end-to-end
// reference), the traced pass, then the layer replays. Output checks
// and the ledger run in both passes.
func runLayers(w *workload, cfg *config) (*report, *spanFile, error) {
	short := *cfg
	short.warmup = min(cfg.warmup, time.Second)
	short.window = max(cfg.window/4, 300*time.Millisecond)
	pu, err := w.run(&short, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("untraced pass: %w", err)
	}
	runtime.GC()
	traced := short
	traced.window = max(cfg.window/3, 300*time.Millisecond)
	tr := newTracer(w.name, monoClock())
	pt, err := w.run(&traced, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("traced pass: %w", err)
	}
	runtime.GC()

	rep := assemble(w, &short, pu)
	rep.Notes = append(rep.Notes, "per-layer run: the end-to-end metrics above come from a short untraced window and are indicative only")
	for _, l := range pt.ledger {
		l.Tenant += " (traced)"
		rep.Ledger = append(rep.Ledger, l)
	}
	rep.Problems = append(rep.Problems, pt.problems...)

	ls := &layerSet{vals: map[string]float64{}, na: map[string]string{}, tr: tr, sp: tr.thread("replay"),
		budget: max(cfg.window/60, 50*time.Millisecond), untraced: pu, traced: pt}
	// The two latency percentiles that could not be gated (see endToEnd),
	// from the untraced window.
	ls.set("loadgen.latency_p50_us", rep.Latency.P50us)
	ls.set("loadgen.latency_p99_us", rep.Latency.P99us)
	gu, _ := pu.goodputMpps()
	ls.goodput, _ = pt.goodputMpps()
	ls.latP50us = summarize(pt.slices).P50us
	if gu > 0 {
		ls.set("bench.span_overhead_frac", 1-ls.goodput/gu)
		rep.Notes = append(rep.Notes, fmt.Sprintf("tracing overhead: goodput %.4f Mpps untraced vs %.4f Mpps traced", gu, ls.goodput))
	}
	ls.processMetrics()
	if err := w.layers(cfg, ls); err != nil {
		return nil, nil, fmt.Errorf("layer replays: %w", err)
	}
	rep.judge()
	ls.set("loss_frac", rep.lossFrac())

	rep.Layers = map[string]metric{}
	for _, d := range perLayer {
		if v, ok := ls.vals[d.Name]; ok {
			rep.Layers[d.Name] = metric{v, d.Unit}
		} else if _, why := ls.na[d.Name]; !why {
			ls.na[d.Name] = "not produced by this run"
		}
	}
	rep.Unavailable = ls.na
	spans := tr.export()
	return rep, &spans, nil
}

// processMetrics derives the process-wide figures of the traced window.
func (ls *layerSet) processMetrics() {
	p := ls.traced
	_, frames := p.smp.window()
	if all := p.extra["window_frames_all"]; all > 0 {
		frames = uint64(all)
	}
	if frames == 0 {
		return
	}
	ls.set("process.cpu_ns_per_frame", float64(p.proc1.cpuNs-p.proc0.cpuNs)/float64(frames))
	ls.set("process.allocs_per_frame", float64(p.proc1.mallocs-p.proc0.mallocs)/float64(frames))
	ls.set("process.gc_pause_ms", float64(p.proc1.gcPauseNs-p.proc0.gcPauseNs)/1e6)
}

// engineMetrics derives the engine-layer figures from Engine.Stats at
// the traced window's edges.
func (ls *layerSet) engineMetrics() {
	p := ls.traced
	a, b := &p.st0, &p.st1
	ns, _ := p.smp.window()
	if ns <= 0 || len(a.Workers) == 0 || len(b.Workers) == 0 {
		return
	}
	ta, tb := a.Totals(), b.Totals()
	submitted := float64(tb.Submitted - ta.Submitted)
	wa, wb := &a.Workers[0], &b.Workers[0]
	ls.set("engine.worker_busy_frac", float64(wb.Busy-wa.Busy)/float64(ns))
	if d := wb.Batches - wa.Batches; d > 0 {
		ls.set("engine.avg_batch", float64(wb.Frames-wa.Frames)/float64(d))
	}
	if d := (b.PoolHits + b.PoolMisses) - (a.PoolHits + a.PoolMisses); d > 0 {
		ls.set("engine.pool_hit_rate", float64(b.PoolHits-a.PoolHits)/float64(d))
	}
	if submitted > 0 {
		ls.set("engine.bytes_copied_per_frame", float64(b.BytesCopied-a.BytesCopied)/submitted)
		ls.set("engine.queue_full_frac", float64(tb.QueueFull-ta.QueueFull)/submitted)
	}
	win := wb.Latency.Sub(&wa.Latency)
	p50 := float64(win.Quantile(0.50)) / 1e3
	ls.set("engine.batch_p50_us", p50)
	ls.set("engine.batch_p99_us", float64(win.Quantile(0.99))/1e3)
	ls.set("engine.queue_wait_p50_us", ls.latP50us-p50)
	// Delivered over all tenants: sink-side deliveries equal forwarded
	// frames without egress scheduling and egress deliveries with it.
	delivered := float64(tb.Processed - ta.Processed)
	if tb.EgressQueued > 0 {
		delivered = float64(tb.EgressDelivered - ta.EgressDelivered)
		if q := float64(tb.EgressQueued - ta.EgressQueued); q > 0 {
			ls.set("sched.egress_dropped_frac", float64(tb.EgressDropped-ta.EgressDropped)/q)
		}
	}
	ls.set("engine.overload_goodput_mpps", delivered/float64(ns)*1e3)
	ls.set("engine.reconfig_retries", p.extra["reconfig_retries"])
	ls.set("engine.reconfig_failed", p.extra["reconfig_failed"])
	p.extra["window_frames_all"] = delivered
	ls.processMetrics()
}

// handoff is end-to-end ns per delivered frame minus the pipeline's own
// batch cost: what steering, copying, rings, wake-ups and scheduling
// add around core.
func (ls *layerSet) handoff(saturated bool) {
	if !saturated {
		ls.skip("open loop below capacity: ns per delivered frame is the offered rate, not a cost", "engine.handoff_ns_per_frame")
		return
	}
	mpps, ok := ls.vals["engine.overload_goodput_mpps"]
	batch, ok2 := ls.vals["core.batch_ns_per_frame"]
	if ok && ok2 && mpps > 0 {
		ls.set("engine.handoff_ns_per_frame", 1e3/mpps-batch)
	}
}

// spanPerFrame returns a span name's self nanoseconds per frame from the
// traced pass.
func (ls *layerSet) spanPerFrame(name string) (float64, bool) {
	for _, s := range ls.tr.export().Summary {
		if s.Name == name && s.Frames > 0 {
			return s.PerFr, true
		}
	}
	return 0, false
}

// --- replay inputs ---------------------------------------------------------

// replay is a workload's own traffic as batches of one module each, in
// workload order, plus a device with the workload's module set loaded.
type replay struct {
	dev     *menshen.Device
	pipe    *core.Pipeline
	batches [][][]byte
	mods    []uint16
	main    uint16   // module whose tables are probed
	sources []string // program names of the module set
}

// coreReplay measures the pipeline layers on the replay traffic. The
// batched pipeline call and the layer-by-layer replay of parser, stage
// and deparser alternate batch by batch (on different halves of the
// traffic, so neither warms the other's data), which puts both under the
// same host conditions: core.glue — what is left of the batch cost after
// parse, stages and deparse — would otherwise mostly measure how the
// host's speed drifted between two measurements. core.send and alu
// follow.
func (ls *layerSet) coreReplay(r *replay, fc *stage.FlowCache) error {
	res := make([]core.BatchResult, batchSize)
	var pipeErr error
	// Per-module compiled parse/deparse programs and stage views, the
	// same objects the pipeline caches per module.
	type modViews struct {
		parse, deparse optProgram
		views          []stage.View
	}
	gen := r.pipe.ConfigGen()
	byMod := map[uint16]*modViews{}
	for _, mod := range r.mods {
		if byMod[mod] != nil {
			continue
		}
		mv := &modViews{views: make([]stage.View, len(r.pipe.Stages))}
		pe, ok := r.pipe.Parser.EntryRef(int(mod))
		if !ok {
			return fmt.Errorf("module %d has no parser entry", mod)
		}
		mv.parse = optProgram{prog: pe.Compile(), ok: true}
		if de, ok := r.pipe.Deparser.EntryRef(int(mod)); ok {
			mv.deparse = optProgram{prog: de.Compile(), ok: true}
		}
		for i, st := range r.pipe.Stages {
			mv.views[i] = st.ViewFor(int(mod))
			if fc != nil {
				mv.views[i].AttachFlowCache(fc, gen, uint8(i))
			}
		}
		byMod[mod] = mv
	}
	phvs := make([]phv.PHV, batchSize)
	now := ls.tr.now
	var batchNs, parseNs, stageNs, deparseNs, frames int64
	half := len(r.batches) / 2
	bi := 0
	// round runs batch bi through the pipeline and batch bi+half through
	// the layer-by-layer replay.
	round := func() {
		ls.sp.sample()
		b := r.batches[bi]
		t0 := now()
		id := ls.sp.begin("core.ProcessBatchInPlace", -1)
		if err := r.pipe.ProcessBatchInPlace(b, 0, res); err != nil {
			pipeErr = err
		}
		ls.sp.end(id, len(b))
		t1 := now()
		batchNs += t1 - t0

		b, mod := r.batches[bi+half], r.mods[bi+half]
		mv := byMod[mod]
		root := ls.sp.begin("bench.replay_batch", -1)
		t1 = now()
		id = ls.sp.begin("parser.Parse", root)
		for i, f := range b {
			if err := mv.parse.prog.Parse(f, &phvs[i]); err != nil {
				pipeErr = err
			}
			phvs[i].ModuleID = mod
		}
		ls.sp.end(id, len(b))
		t2 := now()
		id = ls.sp.begin("stage.ProcessView", root)
		for i := range b {
			for s := range mv.views {
				mv.views[s].PrefetchFlow(&phvs[i])
			}
		}
		for i := range b {
			for s, st := range r.pipe.Stages {
				if _, err := st.ProcessView(&mv.views[s], &phvs[i]); err != nil {
					pipeErr = err
				}
				if phvs[i].Discarded() {
					break
				}
			}
		}
		ls.sp.end(id, len(b))
		t3 := now()
		id = ls.sp.begin("parser.Deparse", root)
		if mv.deparse.ok {
			for i, f := range b {
				mv.deparse.prog.Deparse(f, &phvs[i])
			}
		}
		ls.sp.end(id, len(b))
		t4 := now()
		ls.sp.end(root, len(b))
		parseNs += t2 - t1
		stageNs += t3 - t2
		deparseNs += t4 - t3
		frames += int64(len(b))
		if bi++; bi == half {
			bi = 0
		}
	}
	for i := 0; i < half; i++ { // warm tables, caches and views once through
		round()
	}
	batchNs, parseNs, stageNs, deparseNs, frames = 0, 0, 0, 0, 0
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for deadline := time.Now().Add(4 * ls.budget); time.Now().Before(deadline); {
		round()
	}
	runtime.ReadMemStats(&ms1)
	if pipeErr != nil {
		return pipeErr
	}
	per := func(ns int64) float64 { return float64(ns) / float64(frames) }
	ls.set("core.batch_ns_per_frame", per(batchNs))
	ls.set("parser.parse_ns_per_frame", per(parseNs))
	ls.set("stage.process_ns_per_frame", per(stageNs))
	ls.set("parser.deparse_ns_per_frame", per(deparseNs))
	ls.set("core.glue_ns_per_frame", per(batchNs-parseNs-stageNs-deparseNs))
	// Mallocs cover both halves of every round: zero means neither allocates.
	ls.set("core.allocs_per_frame", float64(ms1.Mallocs-ms0.Mallocs)/float64(frames))

	bi = 0
	ls.set("core.send_ns_per_frame", ls.timeLoop(func() int {
		b := r.batches[bi]
		if bi++; bi == len(r.batches) {
			bi = 0
		}
		for _, f := range b {
			if _, _, err := r.pipe.Process(f, 0); err != nil {
				pipeErr = err
			}
		}
		return len(b)
	}))
	if pipeErr != nil {
		return pipeErr
	}

	// alu: find the action each frame hits in each stage and keep the PHV
	// as it was on entry to that stage; then time only the execution (plus
	// restoring that 130-byte PHV, which an action may rewrite).
	type exec struct {
		a     *alu.Action
		slots []uint8
		st    *stage.Stage
		pre   phv.PHV
	}
	var execs []exec
	sampled := 0
	for bi = 0; bi < len(r.batches) && sampled < 4096; bi++ {
		mv := byMod[r.mods[bi]]
		for _, f := range r.batches[bi] {
			var v phv.PHV
			if err := mv.parse.prog.Parse(f, &v); err != nil {
				return err
			}
			v.ModuleID = r.mods[bi]
			sampled++
			for s, st := range r.pipe.Stages {
				pre := v
				sr, err := st.ProcessView(&mv.views[s], &v)
				if err != nil {
					return err
				}
				if !sr.Hit {
					continue
				}
				if a, slots, ok := st.Actions.Ref(sr.ActionAddr); ok && len(slots) > 0 {
					execs = append(execs, exec{a, slots, st, pre})
				}
			}
		}
	}
	if len(execs) == 0 {
		ls.skip("no frame of the replay hit an action", "alu.execute_ns_per_frame")
		return nil
	}
	ei := 0
	var scratch phv.PHV
	perExec := ls.timeLoop(func() int {
		for n := 0; n < 256; n++ {
			e := &execs[ei]
			scratch = e.pre
			env := alu.Env{PHV: &scratch, Memory: e.st.Memory, Segments: e.st.Segments, ModIdx: int(scratch.ModuleID) & tables.MaxModuleID}
			if _, err := alu.ExecuteSlots(e.a, e.slots, &env); err != nil {
				pipeErr = err
			}
			if ei++; ei == len(execs) {
				ei = 0
			}
		}
		return 256
	})
	if pipeErr != nil {
		return pipeErr
	}
	ls.set("alu.execute_ns_per_frame", perExec*float64(len(execs))/float64(sampled))
	return nil
}

// optProgram is a compiled parse or deparse program; ok is false when
// the module has none installed.
type optProgram struct {
	prog parser.Program
	ok   bool
}

// tablesReplay probes the main module's match tables with the keys its
// frames produce, in workload order.
func (ls *layerSet) tablesReplay(r *replay) error {
	cp := r.dev.ControlPlane()
	stg, best := -1, 0
	for i := range r.pipe.Stages {
		if i == sysmod.FirstStage || i == sysmod.LastStage {
			continue
		}
		if n := r.pipe.Stages[i].Match.ValidCount(int(r.main)); n > best {
			stg, best = i, n
		}
	}
	if stg < 0 {
		return fmt.Errorf("module %d has no tenant match stage", r.main)
	}
	st := r.pipe.Stages[stg]
	var keys []tables.Key
	var kws []tables.KeyWords
	for bi, b := range r.batches {
		if r.mods[bi] != r.main {
			continue
		}
		for _, f := range b {
			key, err := cp.FlowKeyForFrame(r.main, stg, f)
			if err != nil {
				return err
			}
			keys = append(keys, key)
			kws = append(kws, key.Words())
		}
		if len(keys) >= 1<<15 {
			break
		}
	}
	keys = keys[:len(keys)/batchSize*batchSize]
	kws = kws[:len(keys)]
	ki := 0
	sink := 0
	ls.set("tables.cam_lookup_ns", ls.timeLoop(func() int {
		ls.sp.sample()
		id := ls.sp.begin("tables.CAM.Lookup", -1)
		for n := 0; n < batchSize; n++ {
			a, _ := st.Match.Lookup(keys[ki+n], r.main)
			sink += a
		}
		ls.sp.end(id, batchSize)
		if ki += batchSize; ki == len(keys) {
			ki = 0
		}
		return batchSize
	}))
	if st.Hash == nil || st.Hash.ModuleEntries(r.main) == 0 {
		ls.skip("the workload's module installs no cuckoo flows", "tables.cuckoo_lookup_ns", "tables.cuckoo_batch_lookup_ns")
		return nil
	}
	ki = 0
	ls.set("tables.cuckoo_lookup_ns", ls.timeLoop(func() int {
		ls.sp.sample()
		id := ls.sp.begin("tables.Cuckoo.LookupWords", -1)
		for n := 0; n < batchSize; n++ {
			a, _ := st.Hash.LookupWords(&kws[ki+n], r.main)
			sink += a
		}
		ls.sp.end(id, batchSize)
		if ki += batchSize; ki == len(kws) {
			ki = 0
		}
		return batchSize
	}))
	ki = 0
	out := make([]int32, batchSize)
	ls.set("tables.cuckoo_batch_lookup_ns", ls.timeLoop(func() int {
		sink += st.Hash.LookupWordsBatch(r.main, kws[ki:ki+batchSize], out)
		if ki += batchSize; ki == len(kws) {
			ki = 0
		}
		return batchSize
	}))
	if sink == -1 {
		fmt.Fprintln(io.Discard, sink) // keep the lookups' results live
	}
	return nil
}

// schedReplay times the egress scheduler and the token bucket on the
// replay traffic. weights are the workload's egress weights (nil when it
// runs without egress scheduling; the replay then uses weight 1).
func (ls *layerSet) schedReplay(r *replay, weights map[uint16]float64) error {
	q := sched.NewEgressQueue(4 * batchSize)
	for t, w := range weights {
		if err := q.SetWeight(t, w); err != nil {
			return err
		}
	}
	bi := 0
	ls.set("sched.egress_pushpop_ns", ls.timeLoop(func() int {
		b, mod := r.batches[bi], r.mods[bi]
		if bi++; bi == len(r.batches) {
			bi = 0
		}
		ls.sp.sample()
		id := ls.sp.begin("sched.EgressQueue.Push", -1)
		for _, f := range b {
			q.Push(mod, 0, f, 0)
		}
		ls.sp.end(id, len(b))
		id = ls.sp.begin("sched.EgressQueue.Pop", -1)
		for range b {
			q.Pop()
		}
		ls.sp.end(id, len(b))
		return len(b)
	}))

	rl := sched.NewRateLimiter()
	for _, mod := range r.mods {
		rl.SetLimit(mod, sched.ModuleLimit{PPS: 1e12, BPS: 1e15})
	}
	clk := 0.0
	bi = 0
	ls.set("sched.tokenbucket_ns", ls.timeLoop(func() int {
		b, mod := r.batches[bi], r.mods[bi]
		if bi++; bi == len(r.batches) {
			bi = 0
		}
		clk += 1e-5
		for _, f := range b {
			rl.Allow(mod, len(f), clk)
		}
		return len(b)
	}))
	return nil
}

// shareError replays two equally weighted, permanently backlogged
// tenants through a bounded egress queue drained one quantum per cycle
// and returns |delivered-byte ratio - 1|.
func shareError(a, b [][]byte, ta, tb uint16) float64 {
	q := sched.NewEgressQueue(4 * batchSize)
	_ = q.SetWeight(ta, 1)
	_ = q.SetWeight(tb, 1)
	var bytesA, bytesB float64
	for cycle := 0; cycle < 4000; cycle++ {
		for i := 0; i < batchSize; i++ {
			q.Push(ta, 0, a[i%len(a)], 0)
			q.Push(tb, 0, b[i%len(b)], 0)
		}
		for i := 0; i < batchSize; i++ {
			it, ok := q.Pop()
			if !ok {
				break
			}
			if cycle < 100 {
				continue // let the queue reach its steady composition
			}
			if it.Tenant == ta {
				bytesA += float64(len(it.Data))
			} else {
				bytesB += float64(len(it.Data))
			}
		}
	}
	if bytesB == 0 {
		return 1
	}
	r := bytesA/bytesB - 1
	if r < 0 {
		r = -r
	}
	return r
}

// controlReplay times the control plane on the workload's module set:
// compile, load, and (for flow workloads) flow installation.
func (ls *layerSet) controlReplay(r *replay, flowFrames [][]byte) error {
	const reps = 11
	var compileMs, loadMs float64
	for i, name := range r.sources {
		src := mustSource(name)
		id := uint16(i + 1)
		var cs, lsMs []float64
		for n := 0; n < reps; n++ {
			ls.sp.always()
			sid := ls.sp.begin("compiler.Compile", -1)
			start := time.Now()
			if _, err := compiler.Compile(src, compiler.Options{ModuleID: id}); err != nil {
				return err
			}
			cs = append(cs, float64(time.Since(start).Nanoseconds())/1e6)
			ls.sp.end(sid, 0)

			dev := menshen.NewDevice()
			sid = ls.sp.begin("menshen.Device.LoadModule", -1)
			start = time.Now()
			rep, err := dev.LoadModule(src, id)
			total := time.Since(start)
			ls.sp.end(sid, 0)
			if err != nil {
				return err
			}
			lsMs = append(lsMs, float64((total-rep.CompileWall).Nanoseconds())/1e6)
		}
		compileMs += median(cs)
		loadMs += median(lsMs)
	}
	ls.set("compiler.compile_ms", compileMs)
	ls.set("ctrlplane.load_ms", loadMs)

	if flowFrames == nil {
		ls.skip("the workload installs no flows", "ctrlplane.insert_flows_per_s")
		return nil
	}
	frames := flowFrames[:min(len(flowFrames), 1<<14)]
	rig, err := newFlowRig()
	if err != nil {
		return err
	}
	ls.sp.always()
	sid := ls.sp.begin("ctrlplane.InsertFlow", -1)
	start := time.Now()
	err = rig.install(frames)
	el := time.Since(start)
	ls.sp.end(sid, len(frames))
	if err != nil {
		return err
	}
	ls.set("ctrlplane.insert_flows_per_s", float64(len(frames))/el.Seconds())
	return nil
}

// engineReplay measures the engine's submit paths, an idle reload, and
// one metrics scrape, on a fresh engine with the workload's module set.
func (ls *layerSet) engineReplay(r *replay, mods []rigModule, ecfg menshen.EngineConfig) error {
	ecfg.DropOnFull = true // the timed bursts stay below the ring depth; never block
	ecfg.Workers = 1
	rig, err := buildEngineRig(mods, ecfg, monoClock(), nil)
	if err != nil {
		return err
	}
	defer rig.eng.Close()
	burst := queueDepth / 2 / batchSize // batches per timed burst
	bi := 0
	var subErr error
	measure := func(owned bool) float64 {
		var per []float64
		deadline := time.Now().Add(2 * ls.budget)
		scratch := make([][]byte, 0, batchSize)
		for time.Now().Before(deadline) || len(per) < 3 {
			frames := 0
			start := time.Now()
			for k := 0; k < burst; k++ {
				b := r.batches[bi]
				if bi++; bi == len(r.batches) {
					bi = 0
				}
				ls.sp.sample()
				if owned {
					id := ls.sp.begin("engine.Borrow+SubmitBatchOwned", -1)
					scratch = scratch[:0]
					for _, f := range b {
						buf := rig.eng.Borrow(len(f))
						copy(buf, f)
						scratch = append(scratch, buf)
					}
					if _, err := rig.eng.SubmitBatchOwned(scratch); err != nil {
						subErr = err
					}
					ls.sp.end(id, len(b))
				} else {
					id := ls.sp.begin("engine.SubmitBatch", -1)
					if _, err := rig.eng.SubmitBatch(b); err != nil {
						subErr = err
					}
					ls.sp.end(id, len(b))
				}
				frames += len(b)
			}
			el := time.Since(start)
			rig.eng.Drain()
			per = append(per, float64(el.Nanoseconds())/float64(frames))
		}
		return median(per)
	}
	ls.set("engine.submit_ns_per_frame", measure(false))
	ls.set("engine.owned_submit_ns_per_frame", measure(true))
	if subErr != nil {
		return subErr
	}
	if st := rig.eng.Stats(); st.Totals().QueueFull != 0 {
		return fmt.Errorf("submit replay overflowed a ring (%d drops): timings include the reject path", st.Totals().QueueFull)
	}

	var idle []float64
	src := mustSource("NetCache")
	for n := 0; n < 9; n++ {
		start := time.Now()
		if err := rig.reloadOnce(tenantReload, src, nil, -1); err != nil {
			return err
		}
		idle = append(idle, float64(time.Since(start).Nanoseconds())/1e6)
	}
	ls.set("engine.reconfig_idle_ms", median(idle))

	exp := obs.NewExporter(obs.Source{StatsInto: func(st *engine.Stats) { rig.eng.StatsInto(st) }})
	var scrape []float64
	for n := 0; n < 101; n++ {
		ls.sp.sample()
		id := ls.sp.begin("obs.Exporter.Collect", -1)
		start := time.Now()
		if err := exp.Collect(io.Discard); err != nil {
			return err
		}
		scrape = append(scrape, float64(time.Since(start).Nanoseconds())/1e3)
		ls.sp.end(id, 0)
	}
	ls.set("obs.collect_us", median(scrape))
	return nil
}

// engineWorkloadReplays runs the layer replays common to the engine-fed
// workloads, in dependency order (handoff needs core.batch). weights are
// the workload's egress weights, nil when it runs without egress
// scheduling.
func (ls *layerSet) engineWorkloadReplays(r *replay, saturated bool, mods []rigModule, weights map[uint16]float64) error {
	if err := ls.coreReplay(r, nil); err != nil {
		return err
	}
	ls.handoff(saturated)
	if err := ls.tablesReplay(r); err != nil {
		return err
	}
	if err := ls.schedReplay(r, weights); err != nil {
		return err
	}
	if err := ls.controlReplay(r, nil); err != nil {
		return err
	}
	return ls.engineReplay(r, mods, menshen.EngineConfig{EgressWeights: weights})
}

// genCost times a workload's own frame-generation step (pool indexing
// and stamping, or gathering flow frames) with nothing behind it.
func (ls *layerSet) genCost(step func() int) {
	ls.set("loadgen.gen_ns_per_frame", ls.timeLoop(func() int {
		ls.sp.sample()
		id := ls.sp.begin("loadgen.gen", -1)
		n := step()
		ls.sp.end(id, n)
		return n
	}))
}

// --- workload-specific layer passes ---------------------------------------------

const naNoEngine = "run-to-completion workload: no engine in the path"
const naNoSocket = "no socket in this workload's path"
const naNotPaced = "closed-loop workload: no pacing schedule to be late against"
const naOnlySat = "measured on calc64_sat only (needs extra saturation runs)"

// calcReplay builds the replay inputs of the 64 B CALC workloads and
// returns the frame pool they are cut from.
func calcReplay(cfg *config) (*replay, [][]byte, error) {
	dev := menshen.NewDevice(menshen.WithPlatform(menshen.PlatformCorundumOptimized))
	for _, m := range []struct {
		name string
		id   uint16
	}{{"CALC", tenantMain}, {"NetCache", tenantReload}} {
		if _, err := dev.LoadModule(mustSource(m.name), m.id); err != nil {
			return nil, nil, err
		}
	}
	pool := calcPool(cfg.seed, tenantMain, 64)
	r := &replay{dev: dev, pipe: dev.Pipeline(), main: tenantMain, sources: []string{"CALC", "NetCache"}}
	for i := 0; i < len(pool); i += batchSize {
		r.batches = append(r.batches, pool[i:i+batchSize])
		r.mods = append(r.mods, tenantMain)
	}
	return r, pool, nil
}

// layersCalc covers calc64_sat and calc64_paced.
func layersCalc(cfg *config, ls *layerSet) error {
	r, pool, err := calcReplay(cfg)
	if err != nil {
		return err
	}
	ls.engineMetrics()
	st := &stamper{}
	paced := cfg.workload == "calc64_paced"
	i := 0
	ls.genCost(func() int {
		n := batchSize
		if paced {
			n = 8
		}
		b := pool[i : i+n]
		seq := st.next(int64(i))
		mark(b[0], seq)
		if paced {
			for _, f := range b[1:] {
				mark(f, seq)
			}
		}
		if i += n; i == len(pool) {
			i = 0
		}
		return n
	})
	if paced {
		ls.set("loadgen.late_frac", ls.traced.lateFrac)
	} else {
		ls.skip(naNotPaced, "loadgen.late_frac")
	}
	ls.skip(naNoSocket, "loadgen.send_ns_per_frame", "ingress.rx_mpps_null_sink", "ingress.frames_per_read", "ingress.dropped_frac")
	ls.skip("no flow tables in this workload", "stage.flowcache_hit_rate")
	ls.skip("egress scheduling is off in this workload", "sched.egress_dropped_frac", "sched.egress_share_err")
	if err := ls.engineWorkloadReplays(r, !paced, calcMods(), nil); err != nil {
		return err
	}
	if paced {
		ls.skip(naOnlySat, "engine.scaling_w2", "obs.trace_overhead_frac", "fabric.chain3_mpps")
		return nil
	}
	return ls.saturationExtras(cfg, pool)
}

// saturationExtras are the three extra end-to-end figures taken on
// calc64_sat: worker scaling, the engine's own frame tracing, and the
// three-node fabric chain.
func (ls *layerSet) saturationExtras(cfg *config, pool [][]byte) error {
	dur := max(cfg.window/12, 500*time.Millisecond)
	base, err := quickSat(pool, menshen.EngineConfig{Workers: 1}, dur)
	if err != nil {
		return err
	}
	w2, err := quickSat(pool, menshen.EngineConfig{Workers: 2}, dur)
	if err != nil {
		return err
	}
	tracer := obs.NewTracer(4096)
	traced, err := quickSat(pool, menshen.EngineConfig{Workers: 1, TraceEvery: 1024, OnTrace: tracer.Hook("bench")}, dur)
	if err != nil {
		return err
	}
	if tracer.Total() == 0 {
		return fmt.Errorf("engine frame tracing recorded no hops")
	}
	ls.set("engine.scaling_w2", w2/base)
	ls.set("obs.trace_overhead_frac", 1-traced/base)
	chain, err := fabricChain(pool, dur)
	if err != nil {
		return err
	}
	ls.set("fabric.chain3_mpps", chain)
	return nil
}

// quickSat saturates a CALC-only engine for a short window, the same
// closed loop as calc64_sat (2048 frames in flight), and returns
// delivered Mpps. At Workers: 2 that is three busy threads on the
// two-CPU reference box — oversubscribed, which is why this is a
// per-layer figure.
func quickSat(pool [][]byte, ecfg menshen.EngineConfig, dur time.Duration) (float64, error) {
	now := monoClock()
	rig, err := buildEngineRig([]rigModule{{id: tenantMain, program: "CALC", calc: true}}, ecfg, now, nil)
	if err != nil {
		return 0, err
	}
	defer rig.eng.Close()
	mpps, err := windowedRate(pool, dur, rig.sink.total.Load, func(b [][]byte) (int, error) { return rig.eng.SubmitBatch(b) })
	if err != nil {
		return 0, err
	}
	rig.eng.Drain()
	if w := rig.sink.tenants[tenantMain].wrong.Load(); w != 0 {
		return 0, fmt.Errorf("%d wrong CALC results", w)
	}
	return mpps, nil
}

// windowedRate drives send with satWindow frames in flight for
// dur/3 of warm-up plus dur, and returns the delivered rate in Mpps over
// the latter.
func windowedRate(pool [][]byte, dur time.Duration, delivered func() uint64, send func([][]byte) (int, error)) (float64, error) {
	warm := dur / 3
	start := time.Now()
	var t0 time.Time
	var c0, sent uint64
	for i := 0; ; i += batchSize {
		if i == len(pool) {
			i = 0
		}
		el := time.Since(start)
		if t0.IsZero() && el >= warm {
			t0, c0 = time.Now(), delivered()
		}
		if el >= warm+dur {
			break
		}
		for sent-delivered() >= satWindow {
			time.Sleep(20 * time.Microsecond)
			if time.Since(start) > warm+dur+5*time.Second {
				return 0, fmt.Errorf("%d frames in flight made no progress", sent-delivered())
			}
		}
		n, err := send(pool[i : i+batchSize])
		if err != nil {
			return 0, err
		}
		sent += uint64(n)
	}
	return float64(delivered()-c0) / float64(time.Since(t0).Nanoseconds()) * 1e3, nil
}

// fabricChain pushes the CALC frames through a three-node EngineFabric
// chain (two owned hand-offs per frame) and returns delivered Mpps.
func fabricChain(pool [][]byte, dur time.Duration) (float64, error) {
	var delivered atomic.Uint64
	f := fabric.NewEngineFabric(func(fabric.Delivery) { delivered.Add(1) })
	vip := [4]byte{10, 0, byte(tenantMain), 2} // the CALC frames' destination address
	names := []string{"s0", "s1", "s2"}
	for i, name := range names {
		sys := sysmod.NewConfig()
		port := uint8(1)
		if i == len(names)-1 {
			port = 2 // host-terminal
		}
		sys.AddRoute(tenantMain, vip, port)
		prog, err := compiler.Compile(mustSource("CALC"), compiler.Options{ModuleID: tenantMain})
		if err != nil {
			return 0, err
		}
		if err := sys.Augment(prog.Config); err != nil {
			return 0, err
		}
		alloc := checker.NewAllocator(checker.CapacityOf(core.DefaultGeometry()), nil)
		pl, err := alloc.Admit(prog.Config)
		if err != nil {
			return 0, err
		}
		cfg := fabric.NodeConfig{Workers: 1, QueueDepth: queueDepth, BatchSize: batchSize,
			Modules: []engine.ModuleSpec{{Config: prog.Config, Placement: pl}}}
		if _, err := f.AddNode(name, sys, cfg); err != nil {
			return 0, err
		}
		if i > 0 {
			if err := f.Link(names[i-1], 1, name, 0); err != nil {
				return 0, err
			}
		}
	}
	if err := f.Start(); err != nil {
		return 0, err
	}
	defer f.Close()
	var injected uint64
	mpps, err := windowedRate(pool, dur, delivered.Load, func(b [][]byte) (int, error) {
		n, err := f.InjectBatch("s0", 0, b)
		injected += uint64(n)
		return n, err
	})
	if err != nil {
		return 0, err
	}
	f.Drain()
	st := f.Stats()
	if got := delivered.Load() + st.LinkDropped + st.TTLDropped; got != injected {
		return 0, fmt.Errorf("fabric chain ledger: injected %d, delivered+dropped %d", injected, got)
	}
	return mpps, nil
}

// layersTenants covers tenants_noisy_reconfig.
func layersTenants(cfg *config, ls *layerSet) error {
	dev := menshen.NewDevice(menshen.WithPlatform(menshen.PlatformCorundumOptimized))
	mods := tenantsMods()
	r := &replay{dev: dev, pipe: dev.Pipeline(), main: tenantMain}
	for _, m := range mods {
		if _, err := dev.LoadModule(mustSource(m.program), m.id); err != nil {
			return err
		}
		r.sources = append(r.sources, m.program)
	}
	victim, noisy, reload := tenantsTraffic(cfg.seed)
	// Replay mix: the aggressor is most of what the worker services; one
	// victim batch rides along per seven aggressor batches.
	for i := 0; i+batchSize <= len(noisy); i += batchSize {
		r.batches = append(r.batches, noisy[i:i+batchSize])
		r.mods = append(r.mods, tenantNoisy)
		if (i/batchSize)%7 == 6 {
			v := (i / batchSize / 7) * batchSize
			r.batches = append(r.batches, victim[v:v+batchSize])
			r.mods = append(r.mods, tenantMain)
		}
	}
	ls.engineMetrics()
	st := &stamper{}
	i := 0
	ls.genCost(func() int {
		b := victim[i : i+8]
		seq := st.next(int64(i))
		for _, f := range b {
			mark(f, seq)
		}
		if i += 8; i == len(victim) {
			i = 0
		}
		return 8
	})
	ls.set("loadgen.late_frac", ls.traced.lateFrac)
	ls.skip(naNoSocket, "loadgen.send_ns_per_frame", "ingress.rx_mpps_null_sink", "ingress.frames_per_read", "ingress.dropped_frac")
	ls.skip("no flow tables in this workload", "stage.flowcache_hit_rate")
	ls.skip(naOnlySat, "engine.scaling_w2", "obs.trace_overhead_frac", "fabric.chain3_mpps")
	ls.set("sched.egress_share_err", shareError(noisy, reload, tenantNoisy, tenantReload))
	return ls.engineWorkloadReplays(r, true, mods, tenantsWeights())
}

// layersWire covers unix64_wire.
func layersWire(cfg *config, ls *layerSet) error {
	r, pool, err := calcReplay(cfg)
	if err != nil {
		return err
	}
	ls.engineMetrics()
	p := ls.traced
	st := &stamper{}
	i := 0
	ls.genCost(func() int {
		mark(pool[i], st.next(int64(i)))
		if i += batchSize; i == len(pool) {
			i = 0
		}
		return batchSize
	})
	ls.skip(naNotPaced, "loadgen.late_frac")
	if v, ok := ls.spanPerFrame("trafficgen.SendBatch"); ok {
		ls.set("loadgen.send_ns_per_frame", v)
	}
	if rx := p.extra["ingress_received"]; rx > 0 {
		ls.set("ingress.dropped_frac", p.extra["ingress_dropped"]/rx)
	}
	if p.proc0.ioOK && p.proc1.ioOK && p.proc1.readCalls > p.proc0.readCalls {
		_, frames := p.smp.window()
		ls.set("ingress.frames_per_read", float64(frames)/float64(p.proc1.readCalls-p.proc0.readCalls))
	} else {
		ls.skip("/proc/self/io is not readable on this host", "ingress.frames_per_read")
	}
	rx, err := nullSinkRx(pool, max(cfg.window/12, 500*time.Millisecond))
	if err != nil {
		return err
	}
	ls.set("ingress.rx_mpps_null_sink", rx)
	ls.skip("no flow tables in this workload", "stage.flowcache_hit_rate")
	ls.skip("egress scheduling is off in this workload", "sched.egress_dropped_frac", "sched.egress_share_err")
	ls.skip(naOnlySat, "engine.scaling_w2", "obs.trace_overhead_frac", "fabric.chain3_mpps")
	return ls.engineWorkloadReplays(r, true, calcMods(), nil)
}

// nullSink is an ingress.Sink that does nothing: what is left is the RX
// loop itself. One RX goroutine uses it, so one buffer suffices.
type nullSink struct {
	buf []byte
	n   atomic.Uint64
}

func (s *nullSink) Borrow(n int) []byte {
	if cap(s.buf) < n {
		s.buf = make([]byte, n)
	}
	return s.buf[:n]
}
func (s *nullSink) Release([]byte) {}
func (s *nullSink) SubmitOwned([]byte) (bool, error) {
	s.n.Add(1)
	return true, nil
}
func (s *nullSink) SubmitBatchOwned(fs [][]byte) (int, error) {
	s.n.Add(uint64(len(fs)))
	return len(fs), nil
}

// nullSinkRx drives the unixgram RX loop into the do-nothing sink.
func nullSinkRx(pool [][]byte, dur time.Duration) (float64, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return 0, err
	}
	path := fmt.Sprintf(".bench_build/null-%d.sock", os.Getpid())
	_ = os.Remove(path)
	src, err := ingress.ListenUnixgram(path, ingress.Config{ReadBuffer: 1 << 20})
	if err != nil {
		return 0, err
	}
	sink := &nullSink{}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1) // one send, from the one serve goroutine
	go func() { done <- src.Serve(ctx, sink) }()
	stop := func() {
		cancel()
		_ = src.Close()
		<-done
	}
	client, err := trafficgen.DialLoad("unixgram", path, ingress.Backoff{})
	if err != nil {
		stop()
		return 0, err
	}
	defer client.Close()
	start := time.Now()
	for i := 0; time.Since(start) < dur; i += batchSize {
		if i == len(pool) {
			i = 0
		}
		if _, err := client.SendBatch(pool[i : i+batchSize]); err != nil {
			stop()
			return 0, err
		}
	}
	sent := client.Sent()
	for deadline := time.Now().Add(5 * time.Second); sink.n.Load() < sent && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
	el := time.Since(start)
	got := sink.n.Load()
	stop()
	if got != sent {
		return 0, fmt.Errorf("null-sink RX: sent %d, received %d", sent, got)
	}
	return float64(got) / float64(el.Nanoseconds()) * 1e3, nil
}

// layersFlowsZipf / layersFlowsUniform cover the run-to-completion pair.
func layersFlowsZipf(cfg *config, ls *layerSet) error    { return layersFlows(cfg, ls, true) }
func layersFlowsUniform(cfg *config, ls *layerSet) error { return layersFlows(cfg, ls, false) }

func layersFlows(cfg *config, ls *layerSet, zipf bool) error {
	in := genFlowInputs(cfg, zipf)
	rig, err := buildFlowRig(in)
	if err != nil {
		return err
	}
	r := &replay{dev: rig.dev, pipe: rig.pipe, main: tenantMain, sources: []string{"Load Balancing", "NetCache"}}
	// A stretch of the drawn sequence long enough to overflow the flow
	// cache the way the real stream does.
	replayFrames := min(1<<18, len(in.seq))
	for lo := 0; lo+batchSize <= replayFrames; lo += batchSize {
		b := make([][]byte, batchSize)
		for k, f := range in.seq[lo : lo+batchSize] {
			b[k] = in.frames[f]
		}
		r.batches = append(r.batches, b)
		r.mods = append(r.mods, tenantMain)
	}
	p := ls.traced
	if looks := (p.extra["fc_hits1"] - p.extra["fc_hits0"]) + (p.extra["fc_miss1"] - p.extra["fc_miss0"]); looks > 0 {
		ls.set("stage.flowcache_hit_rate", (p.extra["fc_hits1"]-p.extra["fc_hits0"])/looks)
	}
	batch := make([][]byte, batchSize)
	pos := 0
	ls.genCost(func() int {
		if pos+batchSize > len(in.seq) {
			pos = 0
		}
		for k, f := range in.seq[pos : pos+batchSize] {
			batch[k] = in.frames[f]
		}
		pos += batchSize
		return batchSize
	})
	ls.skip(naNotPaced, "loadgen.late_frac")
	ls.skip(naNoSocket, "loadgen.send_ns_per_frame", "ingress.rx_mpps_null_sink", "ingress.frames_per_read", "ingress.dropped_frac")
	for _, d := range perLayer {
		if strings.HasPrefix(d.Name, "engine.") {
			ls.skip(naNoEngine, d.Name)
		}
	}
	ls.skip(naNoEngine, "obs.collect_us", "obs.trace_overhead_frac", "fabric.chain3_mpps", "sched.egress_dropped_frac", "sched.egress_share_err")
	if err := ls.coreReplay(r, stage.NewFlowCache(0)); err != nil {
		return err
	}
	if err := ls.tablesReplay(r); err != nil {
		return err
	}
	if err := ls.schedReplay(r, nil); err != nil {
		return err
	}
	return ls.controlReplay(r, in.frames)
}
