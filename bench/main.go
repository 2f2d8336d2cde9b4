// Command bench is the repository's one measuring stick: six named
// workloads, five gated end-to-end metrics, and a traced per-layer pass.
// See README.md in this directory and BENCHMARK.json at the repository
// root.
//
//	bench -workload calc64_sat -seed 1                 # one workload, end-to-end metrics
//	bench -workload calc64_sat -seed 1 -trace 1        # per-layer (traced) pass
//	bench -all -seed 1                                 # every workload
//	bench -selfcheck                                   # every workload twice, compared against the bounds
//
// The last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}; everything above it is for
// people. The exit code is non-zero when outputs were wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		cfg       config
		seconds   float64
		warmup    float64
		trace     int
		all       bool
		selfcheck bool
		list      bool
	)
	fs.StringVar(&cfg.workload, "workload", "", "workload name (see -list)")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&seconds, "seconds", 15, "measured window in seconds")
	fs.Float64Var(&warmup, "warmup", 2, "warm-up before the window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = run the per-layer (traced) pass and report the per-layer metrics instead")
	fs.StringVar(&cfg.out, "out", "", "write the full report as JSON here (and spans to <out>.spans.json)")
	fs.BoolVar(&all, "all", false, "run every workload, one process each")
	fs.BoolVar(&selfcheck, "selfcheck", false, "run every workload twice and compare against the bounds in BENCHMARK.json")
	fs.BoolVar(&list, "list", false, "list workloads and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.warmup = time.Duration(warmup * float64(time.Second))
	cfg.trace = trace != 0
	switch {
	case list:
		for _, w := range workloads {
			fmt.Printf("%-24s %s\n", w.name, w.why)
		}
		return 0
	case selfcheck:
		return runSelfcheck(&cfg)
	case all:
		return runAll(&cfg)
	}
	w := findWorkload(cfg.workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (try -list)\n", cfg.workload)
		return 2
	}
	if cfg.window < time.Second {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	rep, spans, err := runOne(w, &cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	return emit(rep, spans, &cfg)
}

// emit prints the report, writes the sidecars, and prints the result
// line last. It returns the process exit code.
func emit(rep *report, spans *spanFile, cfg *config) int {
	rep.print(os.Stdout)
	if cfg.out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(cfg.out, append(data, '\n'), 0o644)
		}
		if err == nil && spans != nil {
			err = writeSpans(cfg.out+".spans.json", *spans)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing %s: %v\n", cfg.out, err)
			return 1
		}
	}
	line, err := rep.driverJSON(cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// runOne executes one workload in this process: the untraced pass that
// yields the end-to-end metrics and, for a per-layer run, the traced
// pass and the layer replays that follow it.
func runOne(w *workload, cfg *config) (*report, *spanFile, error) {
	if !cfg.trace {
		p, err := w.run(cfg, nil)
		if err != nil {
			return nil, nil, err
		}
		return assemble(w, cfg, p), nil, nil
	}
	return runLayers(w, cfg)
}

// assemble turns an untraced pass into the report with the end-to-end
// metrics.
func assemble(w *workload, cfg *config, p *pass) *report {
	rep := &report{
		Workload: w.name, Why: w.why,
		Env:      readEnvironment(cfg, w.busyThreads, w.link),
		Ledger:   p.ledger,
		Problems: p.problems,
		Notes:    p.notes,
	}
	goodput, intervals := p.goodputMpps()
	rep.Intervals = intervals
	for _, r := range intervalRates(p.smp.nanos, p.smp.counts) {
		rep.IntervalMpps = append(rep.IntervalMpps, r/1e6)
	}
	rep.Latency = summarize(p.slices)
	rep.ReconfigOps = len(p.reconfigMs)
	rep.ReconfigMs = p.reconfigMs
	// A frame that went missing or came out wrong was not on time either.
	rep.judge()
	onTime := rep.Latency.OnTimeFrac * (1 - rep.lossFrac())
	rep.Metrics = map[string]metric{
		"setup_s":         {median(p.setupS), "s"},
		"goodput_mpps":    {goodput, "Mpps"},
		"on_time_frac":    {onTime, "fraction"},
		"reconfig_p50_ms": {median(p.reconfigMs), "ms"},
		"peak_rss_mb":     {p.peakRSSMiB, "MiB"},
	}
	for _, d := range endToEnd {
		if m := rep.Metrics[d.Name]; m.Value <= 0 {
			rep.problem("metric %s could not be measured (value %g)", d.Name, m.Value)
		}
	}
	if rep.Latency.Samples == 0 {
		rep.problem("no latency samples were recorded")
	}
	if w.busyThreads > rep.Env.NProc {
		rep.Notes = append(rep.Notes, fmt.Sprintf("%d busy threads on %d CPUs: oversubscribed, expect wider spreads", w.busyThreads, rep.Env.NProc))
	}
	rep.judge()
	return rep
}
