package main

import (
	"bytes"
	"fmt"

	menshen "repro"
	"repro/internal/core"
	"repro/internal/stage"
	"repro/internal/trafficgen"
)

// The run-to-completion workloads: one goroutine calls
// core.Pipeline.ProcessBatchInPlace on a Device pipeline, no engine.

const (
	// flowPorts is how many distinct actions (egress ports 1..4) the
	// installed flows resolve to, round-robin by flow ordinal.
	flowPorts = 4
	// rtcReconfigOps and rtcReconfigGap size the trailing phase in which
	// the loop reloads the spare module between batches. It runs after
	// the measured window because any configuration write bumps the
	// pipeline generation, which flushes the flow cache the window is
	// there to observe.
	rtcReconfigOps = 50
	rtcReconfigGap = 10e6 // ns between reloads
)

// flowInputs are the generated inputs of a flows256k_* run.
type flowInputs struct {
	frames [][]byte // one representative 64 B frame per flow
	seq    []uint32 // pre-drawn flow ordinals, in arrival order
}

func genFlowInputs(cfg *config, zipf bool) *flowInputs {
	// Eight draws per flow (2^21 for the full table): the repeat period is
	// far beyond anything the 65536-slot flow cache can remember.
	flows := cfg.flowCount()
	in := &flowInputs{frames: make([][]byte, flows), seq: make([]uint32, max(8*flows, 1<<14))}
	for f := range in.frames {
		in.frames[f] = trafficgen.FlowScaleFrame(tenantMain, f, 64)
	}
	pick := uniformPicker(cfg.seed, flows)
	if zipf {
		pick = zipfPicker(cfg.seed, 1.1, flows)
	}
	for i := range in.seq {
		in.seq[i] = pick()
	}
	return in
}

// wantPort is the egress port the flow's installed action selects.
func wantPort(flow uint32) uint8 { return uint8(1 + flow%flowPorts) }

// flowRig is a device whose Load Balancing module has every flow
// installed on the cuckoo side of its match stage.
type flowRig struct {
	dev   *menshen.Device
	pipe  *core.Pipeline
	stg   int            // the stage holding the module's table
	addrs [flowPorts]int // action addresses of to_port(1..4)
}

// buildFlowRig is the set-up timed by setup_s for the flows256k_*
// workloads: device build, compile + load of both modules, key
// derivation and installation of every flow through the control plane,
// and the default flow cache.
func buildFlowRig(in *flowInputs) (*flowRig, error) {
	r, err := newFlowRig()
	if err != nil {
		return nil, err
	}
	if err := r.install(in.frames); err != nil {
		return nil, err
	}
	r.pipe.SetFlowCache(stage.NewFlowCache(0))
	return r, nil
}

// newFlowRig builds the device and loads the Load Balancing module and
// the spare reload module.
func newFlowRig() (*flowRig, error) {
	dev := menshen.NewDevice(menshen.WithPlatform(menshen.PlatformCorundumOptimized))
	if _, err := dev.LoadModule(mustSource("Load Balancing"), tenantMain); err != nil {
		return nil, err
	}
	if _, err := dev.LoadModule(mustSource("NetCache"), tenantReload); err != nil {
		return nil, err
	}
	pipe, cp := dev.Pipeline(), dev.ControlPlane()
	// The module's table lives in the stage holding most of its CAM
	// entries; the flows reuse its four compiled to_port actions.
	r := &flowRig{dev: dev, pipe: pipe, stg: -1}
	best := 0
	for i := range pipe.Stages {
		if n := pipe.Stages[i].Match.ValidCount(int(tenantMain)); n > best {
			r.stg, best = i, n
		}
	}
	if r.stg < 0 {
		return nil, fmt.Errorf("load balancing module has no match stage")
	}
	for i := range r.addrs {
		f := trafficgen.FlowPacket(tenantMain, [4]byte{10, 0, 1, 1}, [4]byte{10, 0, 0, 10}, uint16(1000+i), 80, 0)
		key, err := cp.FlowKeyForFrame(tenantMain, r.stg, f)
		if err != nil {
			return nil, err
		}
		addr, ok := pipe.Stages[r.stg].Match.Lookup(key, tenantMain)
		if !ok {
			return nil, fmt.Errorf("baseline load-balancing tuple %d missed the CAM", i)
		}
		r.addrs[i] = addr
	}
	return r, nil
}

// install derives each flow's match key from its frame and installs
// key -> action through the control plane, ports round-robin by ordinal.
func (r *flowRig) install(frames [][]byte) error {
	cp := r.dev.ControlPlane()
	for f, frame := range frames {
		key, err := cp.FlowKeyForFrame(tenantMain, r.stg, frame)
		if err != nil {
			return err
		}
		if err := cp.InsertFlow(tenantMain, r.stg, key, r.addrs[f%flowPorts]); err != nil {
			return fmt.Errorf("installing flow %d: %w", f, err)
		}
	}
	return nil
}

// verifyAll pushes every flow's frame through the pipeline once and
// checks the egress port and that the frame bytes are unchanged (the
// loop reuses the buffers, so the module must not rewrite them).
func (r *flowRig) verifyAll(in *flowInputs) error {
	res := make([]core.BatchResult, batchSize)
	var keep [batchSize][]byte
	for lo := 0; lo < len(in.frames); lo += batchSize {
		hi := min(lo+batchSize, len(in.frames))
		batch := in.frames[lo:hi]
		for i, f := range batch {
			keep[i] = append(keep[i][:0], f...)
		}
		if err := r.pipe.ProcessBatchInPlace(batch, 0, res); err != nil {
			return err
		}
		for i := range batch {
			flow := uint32(lo + i)
			switch {
			case res[i].Dropped:
				return fmt.Errorf("flow %d: frame dropped (verdict %v, err %v)", flow, res[i].Verdict, res[i].Err)
			case res[i].EgressPort != wantPort(flow):
				return fmt.Errorf("flow %d: egress port %d, installed action selects %d", flow, res[i].EgressPort, wantPort(flow))
			case !bytes.Equal(batch[i], keep[i]):
				return fmt.Errorf("flow %d: load balancing rewrote the frame", flow)
			}
		}
	}
	return nil
}

// runFlows is the run-to-completion pass. Latency is the duration of the
// ProcessBatchInPlace call a frame rode in.
func runFlows(cfg *config, tr *tracer, zipf bool) (*pass, error) {
	now := monoClock()
	in := genFlowInputs(cfg, zipf)
	p := &pass{extra: map[string]float64{}}
	res := make([]core.BatchResult, batchSize)
	batch := make([][]byte, batchSize)
	var offered, delivered, discarded, filtered, wrong uint64

	// process runs one batch and accounts every frame's fate.
	process := func(rig *flowRig, ids []uint32) error {
		if err := rig.pipe.ProcessBatchInPlace(batch, 0, res); err != nil {
			return err
		}
		offered += batchSize
		for k := range ids {
			switch {
			case res[k].DiscardedByModule:
				discarded++
			case res[k].Dropped:
				filtered++
			default:
				delivered++
				if res[k].EgressPort != wantPort(ids[k]) {
					wrong++
				}
			}
		}
		return nil
	}
	gather := func(ids []uint32) {
		for k, f := range ids {
			batch[k] = in.frames[f]
		}
	}

	rig, err := timedSetups(cfg, 3, true, p, func() (*flowRig, error) {
		rig, err := buildFlowRig(in)
		if err != nil {
			return nil, err
		}
		// The ledger is kept against the device that survives.
		offered, delivered, discarded, filtered, wrong = 0, 0, 0, 0, 0
		gather(in.seq[:batchSize])
		return rig, process(rig, in.seq[:batchSize])
	}, func(*flowRig) {})
	if err != nil {
		return nil, err
	}
	if err := rig.verifyAll(in); err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	verified := uint64(len(in.frames))

	rec := newLatRecorder(cfg.window, 250000)
	smp := newSampler(now(), cfg.warmup, cfg.window)
	smp.onStart = func(t int64) {
		rec.start(t)
		h, m := rig.pipe.FlowCacheStats()
		p.extra["fc_hits0"], p.extra["fc_miss0"] = float64(h), float64(m)
		p.proc0 = snapProc()
	}
	p.smp = smp
	sp := tr.thread("loop")
	pos := 0
	next := func() []uint32 {
		if pos+batchSize > len(in.seq) {
			pos = 0
		}
		ids := in.seq[pos : pos+batchSize]
		pos += batchSize
		return ids
	}
	t := now()
	for smp.tick(t, delivered) {
		ids := next()
		sp.sample()
		id := sp.begin("loadgen.gather", -1)
		gather(ids)
		sp.end(id, batchSize)
		t1 := now()
		id = sp.begin("core.ProcessBatchInPlace", -1)
		err := process(rig, ids)
		sp.end(id, batchSize)
		t = now()
		rec.add(t, t-t1)
		if err != nil {
			return nil, err
		}
	}
	h, m := rig.pipe.FlowCacheStats()
	p.extra["fc_hits1"], p.extra["fc_miss1"] = float64(h), float64(m)
	p.proc1 = snapProc()
	p.slices = rec.slices

	// Trailing phase: reload the spare module between batches.
	src := mustSource("NetCache")
	for op, due := 0, now(); op < cfg.reloadCount(rtcReconfigOps); {
		if t = now(); t >= due {
			sp.always()
			id := sp.begin("menshen.Device.UpdateModule", -1)
			_, err := rig.dev.UpdateModule(src, tenantReload)
			sp.end(id, 0)
			if err != nil {
				return nil, fmt.Errorf("reloading spare module: %w", err)
			}
			p.reconfigMs = append(p.reconfigMs, float64(now()-t)/1e6)
			due += rtcReconfigGap
			op++
		}
		ids := next()
		gather(ids)
		if err := process(rig, ids); err != nil {
			return nil, err
		}
	}

	l := ledgerLine{
		Tenant: "flows", Offered: offered, Delivered: delivered, Discarded: discarded,
		Drops: map[string]uint64{"filtered": filtered}, Wrong: wrong, Gated: true,
	}
	l.close()
	if pk, _, drops := rig.dev.Stats(tenantMain); l.Closed && (pk != delivered+verified || drops != discarded) {
		l.Closed = false
		l.Detail = fmt.Sprintf("device counted %d packets / %d drops, loop saw %d delivered (+%d verified) / %d discarded", pk, drops, delivered, verified, discarded)
	}
	p.ledger = append(p.ledger, l)
	p.peakRSSMiB = peakRSSMiB()
	return p, nil
}
