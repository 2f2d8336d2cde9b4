package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestZipfDeterministicAndHeadMass: the same seed gives the same draws,
// another seed gives others, and the most popular flow gets the share
// the Zipf(1.1) law over N ranks gives rank 1.
func TestZipfDeterministicAndHeadMass(t *testing.T) {
	const flows, draws = 4096, 200000
	a, b, c := zipfPicker(7, 1.1, flows), zipfPicker(7, 1.1, flows), zipfPicker(8, 1.1, flows)
	same, differ := true, false
	counts := make([]int, flows)
	for i := 0; i < draws; i++ {
		x, y, z := a(), b(), c()
		if x >= flows {
			t.Fatalf("draw %d out of range", x)
		}
		same = same && x == y
		differ = differ || x != z
		counts[x]++
	}
	if !same {
		t.Error("two pickers with one seed disagree")
	}
	if !differ {
		t.Error("pickers with different seeds agree on every draw")
	}
	var h float64
	for r := 1; r <= flows; r++ {
		h += math.Pow(float64(r), -1.1)
	}
	want := 1 / h
	top := 0
	for _, n := range counts {
		top = max(top, n)
	}
	got := float64(top) / draws
	if math.Abs(got-want) > 0.05*want {
		t.Errorf("head mass %.4f, Zipf(1.1) over %d ranks gives %.4f", got, flows, want)
	}
	// Uniform: no flow far above 1/N.
	u := uniformPicker(7, flows)
	clear(counts)
	for i := 0; i < draws; i++ {
		counts[u()]++
	}
	for f, n := range counts {
		if float64(n) > 3*draws/flows {
			t.Fatalf("uniform picker drew flow %d %d times of %d", f, n, draws)
		}
	}
}

func TestIntervalMedian(t *testing.T) {
	// 100 ms intervals at 1000 events each, one interval with a stall.
	nanos := []int64{0, 100e6, 200e6, 300e6, 400e6, 500e6}
	counts := []uint64{0, 1000, 2000, 2100, 3100, 4100}
	rate, n := intervalMedian(nanos, counts)
	if n != 5 || rate != 10000 {
		t.Errorf("interval median = %v over %d intervals, want 10000 over 5", rate, n)
	}
	if r, n := intervalMedian(nil, nil); r != 0 || n != 0 {
		t.Errorf("empty input gave %v, %d", r, n)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{50, 0.5}, {100, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {10000, 0.999}, {100000, 0.9999}} {
		if got := highestSupported(tc.n); got != tc.want {
			t.Errorf("highestSupported(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	// Two slices of 1000 samples each: values 1..1000 us and 2001..3000 us.
	s1, s2 := make([]uint32, 1000), make([]uint32, 1000)
	for i := range s1 {
		s1[i] = uint32(i+1) * 1000
		s2[i] = uint32(i+2001) * 1000
	}
	sum := summarize([][]uint32{s1, s2, nil})
	if sum.Samples != 2000 || sum.Slices != 2 {
		t.Fatalf("summary %+v", sum)
	}
	if sum.P50us != 1000 {
		t.Errorf("p50 = %v, want 1000", sum.P50us)
	}
	if want := (990.0 + 2990.0) / 2; sum.P99us != want {
		t.Errorf("p99 = %v, want the median of the per-slice p99s %v", sum.P99us, want)
	}
	if sum.OnTimeFrac != 0.5 {
		t.Errorf("on-time share = %v, want 0.5 (1000 of 2000 samples within 1 ms)", sum.OnTimeFrac)
	}
	if sum.TailP != 0.99 {
		t.Errorf("tail percentile = %v, want 0.99 for 2000 samples", sum.TailP)
	}
}

// TestPacerAccounting drives the pacer with an injected clock: the
// schedule never slips, and lateness is counted against the due time.
func TestPacerAccounting(t *testing.T) {
	var now int64
	clk := clock(func() int64 { now += 1000; return now }) // every read costs 1 us
	p := newPacer(10_000, 200000, 8)                       // 8 frames at 200 kpps: one burst per 40 us
	if p.period != 40_000 {
		t.Fatalf("period = %d ns, want 40000", p.period)
	}
	if due := p.spin(clk); due != 10_000 || now < 10_000 {
		t.Fatalf("spin returned due=%d at now=%d", due, now)
	}
	p.fired(now) // on time
	if p.due() != 50_000 || p.late != 0 {
		t.Fatalf("after first burst: due=%d late=%d", p.due(), p.late)
	}
	now = 200_000 // a stall: the next burst leaves 150 us after its due time
	if due := p.spin(clk); due != 50_000 {
		t.Fatalf("due time moved to %d during a stall", due)
	}
	p.fired(now)
	if p.due() != 90_000 {
		t.Errorf("schedule slipped: next due %d, want 90000", p.due())
	}
	if p.late != 1 || p.bursts != 2 || p.maxLate < 150_000 {
		t.Errorf("late=%d bursts=%d maxLate=%d", p.late, p.bursts, p.maxLate)
	}
	if got := p.lateFrac(); got != 0.5 {
		t.Errorf("lateFrac = %v, want 0.5", got)
	}
}

func TestSamplerWindow(t *testing.T) {
	s := newSampler(0, time.Second, 300*time.Millisecond)
	started := int64(-1)
	s.onStart = func(t int64) { started = t }
	var delivered uint64
	alive := true
	for now := int64(0); alive; now += 10e6 {
		delivered += 100
		alive = s.tick(now, delivered)
	}
	if started != 1e9 {
		t.Errorf("window opened at %d, want 1e9", started)
	}
	ns, frames := s.window()
	if ns != 300e6 || frames != 3000 || len(s.nanos) != 4 {
		t.Errorf("window %d ns, %d frames, %d samples", ns, frames, len(s.nanos))
	}
}

func TestSpanSelfTime(t *testing.T) {
	var now int64
	tr := newTracer("w", func() int64 { now += 10; return now })
	b := tr.thread("t")
	for i := 0; i < 2*spanSampleEvery; i++ {
		b.sample()
		root := b.begin("outer.call", -1)
		child := b.begin("inner.call", root)
		b.end(child, 4)
		b.end(root, 4)
	}
	f := tr.export()
	if len(f.Summary) != 2 || len(f.Threads) != 1 || len(f.Threads[0].Spans) != 4 {
		t.Fatalf("export: %+v", f.Summary)
	}
	for _, s := range f.Summary {
		switch s.Name {
		case "inner.call":
			if s.Calls != 2 || s.SelfNs != 20 || s.Frames != 8 {
				t.Errorf("inner: %+v", s)
			}
		case "outer.call":
			if s.TotalN != 60 || s.SelfNs != 40 {
				t.Errorf("outer: total %d self %d, want 60/40", s.TotalN, s.SelfNs)
			}
		}
	}
	var nilTracer *tracer
	nb := nilTracer.thread("x")
	nb.sample()
	nb.end(nb.begin("a.b", -1), 1) // must not panic
}

// TestSchemaRoundTrip: the result line and the full report survive JSON,
// and BENCHMARK.json declares exactly the metrics and workloads the
// program reports.
func TestSchemaRoundTrip(t *testing.T) {
	rep := &report{Workload: "calc64_sat", Correct: true, Attempted: 10,
		Metrics: map[string]metric{"setup_s": {0.0123456789, "s"}},
		Layers:  map[string]metric{"core.batch_ns_per_frame": {123.5, "ns"}},
		Ledger:  []ledgerLine{{Tenant: "calc", Offered: 10, Delivered: 10, Drops: map[string]uint64{"queue_full": 0}, Gated: true, Closed: true}}}
	for _, traced := range []bool{false, true} {
		data, err := rep.driverJSON(traced)
		if err != nil {
			t.Fatal(err)
		}
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(data, &raw); err != nil {
			t.Fatal(err)
		}
		if len(raw) != 4 {
			t.Errorf("result line has keys %v, want exactly correct/attempted/failed/metrics", raw)
		}
		var line driverLine
		if err := json.Unmarshal(data, &line); err != nil {
			t.Fatal(err)
		}
		// An untraced line carries the end-to-end metrics measured; a traced
		// one every declared per-layer name, 0 where not measured.
		want, n := rep.Metrics, 1
		if traced {
			want, n = rep.Layers, len(perLayer)
		}
		if !line.Correct || line.Attempted != 10 || len(line.Metrics) != n {
			t.Errorf("round trip: %+v", line)
		}
		for k, v := range want {
			if line.Metrics[k] != v {
				t.Errorf("metric %s: %v != %v", k, line.Metrics[k], v)
			}
		}
	}
	full, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back report
	if err := json.Unmarshal(full, &back); err != nil {
		t.Fatal(err)
	}
	if back.Ledger[0].Offered != 10 || back.Metrics["setup_s"].Value != 0.0123456789 {
		t.Errorf("report round trip lost data: %+v", back)
	}

	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, bf.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, file []benchMetric, prog []metricDef) {
		if len(file) != len(prog) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(file), len(prog))
		}
		for i, d := range prog {
			if f := file[i]; f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", kind, i, f, d)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// smokeConfig is a 300 ms run with small tables.
func smokeConfig(name string) *config {
	return &config{workload: name, seed: 3, window: 300 * time.Millisecond, warmup: 50 * time.Millisecond,
		flows: 2048, setups: 1, reloads: 5}
}

// TestSmokeEveryWorkload runs each workload briefly and checks that the
// ledger closes and the outputs are right, so the benchmark cannot rot
// unnoticed. Timing metrics are not asserted here.
func TestSmokeEveryWorkload(t *testing.T) {
	inRepoRoot(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := smokeConfig(w.name)
			p, err := w.run(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			rep := assemble(&w, cfg, p)
			for _, l := range rep.Ledger {
				if !l.Closed {
					t.Errorf("ledger %s does not close: %s", l.Tenant, l.Detail)
				}
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("attempted %d, failed %d", rep.Attempted, rep.Failed)
			}
			for _, d := range endToEnd {
				if _, ok := rep.Metrics[d.Name]; !ok {
					t.Errorf("metric %s missing", d.Name)
				}
			}
			if g := rep.Metrics["goodput_mpps"].Value; g <= 0 {
				t.Errorf("goodput %v", g)
			}
		})
	}
}

// TestLayersSmoke runs the per-layer pass of one engine workload and one
// run-to-completion workload and checks every declared metric is either
// reported or explained.
func TestLayersSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("per-layer pass takes a few seconds")
	}
	inRepoRoot(t)
	for _, name := range []string{"calc64_paced", "flows256k_uniform_rtc"} {
		t.Run(name, func(t *testing.T) {
			cfg := smokeConfig(name)
			cfg.trace = true
			cfg.window = 900 * time.Millisecond
			rep, spans, err := runLayers(findWorkload(name), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Errorf("problems: %v", rep.Problems)
			}
			for _, d := range perLayer {
				_, reported := rep.Layers[d.Name]
				_, explained := rep.Unavailable[d.Name]
				if reported == explained {
					t.Errorf("%s: reported %v, explained as unavailable %v; want exactly one", d.Name, reported, explained)
				}
				if rep.Layers[d.Name].Value == 0 && !explained && d.Name != "loss_frac" &&
					d.Name != "core.allocs_per_frame" && d.Name != "engine.reconfig_retries" &&
					d.Name != "engine.reconfig_failed" && d.Name != "engine.queue_full_frac" &&
					d.Name != "loadgen.late_frac" && d.Name != "process.gc_pause_ms" {
					t.Errorf("%s is 0 without an explanation", d.Name)
				}
			}
			if len(spans.Summary) == 0 {
				t.Error("traced pass recorded no spans")
			}
		})
	}
}

// TestCorruptedExpectationFails: with a deliberately wrong expectation
// the run is reported incorrect, the wrong frames are counted in
// ops_failed, and the command's exit code is non-zero.
func TestCorruptedExpectationFails(t *testing.T) {
	inRepoRoot(t)
	cfg := smokeConfig("calc64_paced")
	cfg.corrupt = true
	w := findWorkload(cfg.workload)
	p, err := w.run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := assemble(w, cfg, p)
	if rep.Correct || rep.Failed == 0 {
		t.Fatalf("corrupted expectation passed: correct=%v failed=%d", rep.Correct, rep.Failed)
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	stdout := os.Stdout
	os.Stdout = devnull
	code := emit(rep, nil, cfg)
	os.Stdout = stdout
	if code == 0 {
		t.Error("exit code 0 for an incorrect run")
	}
}

// inRepoRoot moves the test into the repository root, where the
// benchmark is meant to run (the socket workload keeps its socket under
// .bench_build/ there).
func inRepoRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
}
