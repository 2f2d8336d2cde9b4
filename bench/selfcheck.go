package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile mirrors the part of BENCHMARK.json the program reads:
// the regression bound of each end-to-end metric.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// runChild runs one workload in a fresh process of this same binary (so
// peak RSS and set-up are per run, exactly as the driver sees them) and
// parses its result line. The child's human-readable output is passed
// through; Run waits for the child to exit.
func runChild(workload string, cfg *config, trace, quiet bool) (*driverLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.window.Seconds(), 'g', -1, 64),
		"-warmup", strconv.FormatFloat(cfg.warmup.Seconds(), 'g', -1, 64)}
	if trace {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if !quiet {
		fmt.Println(strings.Join(lines[:max(len(lines)-1, 0)], "\n"))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	var line driverLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return &line, nil
}

// runAll runs every workload, one process each.
func runAll(cfg *config) int {
	code := 0
	for _, w := range workloads {
		line, err := runChild(w.name, cfg, cfg.trace, false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			code = 1
			continue
		}
		data, _ := json.Marshal(line)
		fmt.Printf("%s %s\n\n", w.name, data)
	}
	return code
}

// runSelfcheck runs every workload twice on this binary with the same
// seed, prints both sets and their relative difference per metric, and
// fails if any end-to-end metric differs by more than its bound in
// BENCHMARK.json (in either direction: this is a repeatability check,
// not a regression check).
func runSelfcheck(cfg *config) int {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: -selfcheck reads the bounds from BENCHMARK.json in the current directory: %v\n", err)
		return 2
	}
	bad := 0
	fmt.Printf("%-24s %-18s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range workloads {
		var runs [2]*driverLine
		for i := range runs {
			if runs[i], err = runChild(w.name, cfg, false, true); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			if !runs[i].Correct || runs[i].Failed != 0 {
				fmt.Fprintf(os.Stderr, "bench: %s: run %d incorrect (%d of %d operations failed)\n", w.name, i+1, runs[i].Failed, runs[i].Attempted)
				return 1
			}
		}
		for _, m := range bf.EndToEnd {
			a, b := runs[0].Metrics[m.Name].Value, runs[1].Metrics[m.Name].Value
			diff := math.Inf(1)
			if a != 0 {
				diff = math.Abs(b-a) / math.Abs(a)
			}
			verdict := ""
			if diff > m.Bound {
				verdict = "  EXCEEDS BOUND"
				bad++
			}
			fmt.Printf("%-24s %-18s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", w.name, m.Name, a, b, diff*100, m.Bound*100, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d metric x workload pairs differ by more than their bound\n", bad)
		return 1
	}
	fmt.Println("selfcheck: every end-to-end metric repeated within its bound on every workload")
	return 0
}
