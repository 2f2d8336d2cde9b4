// In-process harness for menshen-serve: the smoke tests drive run in a
// goroutine, read the bound addresses from its report through an
// io.Pipe, and cancel its context when done. Also here: the flag
// table, the linger-cancel test and the -live-reconfig run.
package main

import (
	"bufio"
	"context"
	"io"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	menshen "repro"
)

// serving is one in-process run of menshen-serve.
type serving struct {
	cancel context.CancelFunc
	done   chan error    // run's result
	eof    chan struct{} // closed once the report stream has ended

	mu    sync.Mutex
	lines []string      // report lines so far
	grew  chan struct{} // closed, and replaced, when a line arrives

	once sync.Once
	err  error
}

// startServe parses args and starts run on them; the test's cleanup
// stops it.
func startServe(t *testing.T, args ...string) *serving {
	t.Helper()
	cfg, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	s := &serving{cancel: cancel, done: make(chan error, 1), eof: make(chan struct{}), grew: make(chan struct{})}
	go func() {
		err := run(ctx, cfg, pw)
		_ = pw.Close()
		s.done <- err
	}()
	go func() {
		defer close(s.eof)
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			s.mu.Lock()
			s.lines = append(s.lines, sc.Text())
			close(s.grew)
			s.grew = make(chan struct{})
			s.mu.Unlock()
		}
		_, _ = io.Copy(io.Discard, pr) // never leave run blocked on a write
	}()
	t.Cleanup(func() { _, _ = s.stop() })
	return s
}

// await returns the rest of the first report line that starts with
// prefix, waiting up to 30 s for it.
func (s *serving) await(t *testing.T, prefix string) string {
	t.Helper()
	timeout := time.After(30 * time.Second)
	for ended := false; ; {
		s.mu.Lock()
		for _, line := range s.lines {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				s.mu.Unlock()
				return strings.TrimSpace(rest)
			}
		}
		grew := s.grew
		s.mu.Unlock()
		if ended {
			out, err := s.stop()
			t.Fatalf("run ended (%v) without a %q line:\n%s", err, prefix, out)
		}
		select {
		case <-grew:
		case <-s.eof:
			ended = true // every line is in: one last scan
		case <-timeout:
			t.Fatalf("report line %q never appeared", prefix)
		}
	}
}

// stop cancels the run, waits for it, and returns its error and whole
// report. Later calls return the same.
func (s *serving) stop() (string, error) {
	s.once.Do(func() {
		s.cancel()
		s.err = <-s.done
		<-s.eof
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.lines, "\n"), s.err
}

func TestParseFlags(t *testing.T) {
	got, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := serveConfig{
		modules:       []string{"CALC", "Firewall", "NetCache"},
		platform:      menshen.PlatformCorundumOptimized,
		workers:       4,
		batch:         32,
		queue:         4096,
		packets:       1_000_000,
		egressQuantum: 8,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("defaults:\n got %+v\nwant %+v", got, want)
	}

	// The one-valued flags are gone: each is an unknown flag now.
	for _, name := range []string{"progress", "size", "flows", "seed", "rate-bps",
		"egress-queue", "fabric-tenants", "chaos-loss", "chaos-events"} {
		if _, err := parseFlags([]string{"-" + name, "1"}); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("-%s: error %v, want an unknown-flag error", name, err)
		}
	}

	// A flag the selected mode has no use for is refused, by name.
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"modules", []string{"-fabric", "3", "-modules", "CALC"}},
		{"platform", []string{"-fabric", "3", "-platform", "netfpga"}},
		{"rate-pps", []string{"-fabric", "3", "-rate-pps", "1000"}},
		{"live-reconfig", []string{"-fabric", "3", "-live-reconfig", "2"}},
		{"egress-weights", []string{"-fabric", "3", "-egress-weights", "3,1,1"}},
		{"egress-quantum", []string{"-fabric", "3", "-egress-quantum", "4"}},
		{"egress-quantum-bytes", []string{"-fabric", "3", "-egress-quantum-bytes", "1500"}},
		{"listen-udp", []string{"-chaos", "-listen-udp", "127.0.0.1:0"}},
		{"listen-tcp", []string{"-chaos", "-listen-tcp", "127.0.0.1:0"}},
		{"listen-unix", []string{"-chaos", "-listen-unix", "x.sock"}},
		{"mgmt-addr", []string{"-chaos", "-mgmt-addr", "127.0.0.1:0"}},
		{"mgmt-linger", []string{"-chaos", "-mgmt-linger", "1s"}},
		{"trace-every", []string{"-chaos", "-trace-every", "64"}},
		{"drop", []string{"-chaos", "-drop"}},
		{"fabric", []string{"-chaos", "-fabric", "3"}},
		{"modules", []string{"-chaos", "-modules", "CALC"}},
		{"fabric-ring", []string{"-fabric-ring"}},
	} {
		if _, err := parseFlags(tc.args); err == nil || !strings.Contains(err.Error(), "-"+tc.flag+" ") {
			t.Errorf("%q: error %v, want one naming -%s", tc.args, err, tc.flag)
		}
	}

	for _, args := range [][]string{
		{"-platform", "tofino"},
		{"-egress-weights", "3,1"},
		{"-egress-weights", "3,0,1"},
		{"-fabric", "3", "-workers", "0"}, // used to inject zero-frame batches forever
		{"-chaos", "-batch", "0"},         // used to divide by zero
		{"stray"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("%q: accepted", args)
		}
	}

	// The documented invocations (README, CI, the header) parse.
	for _, args := range [][]string{
		{"-modules", "CALC,Firewall,NetCache", "-workers", "4", "-batch", "32", "-packets", "1000000", "-live-reconfig", "8"},
		{"-modules", "CALC,CALC,CALC", "-egress-weights", "3,1,1", "-egress-quantum", "8", "-packets", "300000", "-drop"},
		{"-packets", "0", "-mgmt-linger", "60s", "-listen-udp", ":9800", "-listen-tcp", ":9801", "-listen-unix", "/tmp/menshen.sock"},
		{"-packets", "1000000", "-mgmt-addr", ":9090", "-mgmt-linger", "60s", "-trace-every", "1024"},
		{"-fabric", "3", "-listen-udp", "s0=:9800", "-listen-udp", "s2=:9802"},
		{"-fabric", "3", "-fabric-ring"},
		{"-chaos", "-packets", "200000", "-workers", "2"},
	} {
		if _, err := parseFlags(args); err != nil {
			t.Errorf("%q: %v", args, err)
		}
	}
	c, err := parseFlags([]string{"-fabric", "3", "-listen-udp", "s0=:9800", "-listen-udp", "s2=:9802"})
	if err != nil || !reflect.DeepEqual(c.listenUDP, []string{"s0=:9800", "s2=:9802"}) {
		t.Errorf("repeated -listen-udp: %q, %v", c.listenUDP, err)
	}
	if c, err := parseFlags([]string{"-modules", "CALC,CALC", "-egress-weights", "2, 1"}); err != nil || !reflect.DeepEqual(c.egressWeights, []float64{2, 1}) {
		t.Errorf("-egress-weights: %v, %v", c.egressWeights, err)
	}
}

// TestRunLingerEndsOnCancel: a linger is cut short by the context, not
// slept out, and the final report still prints. No -mgmt-addr: linger
// applies whenever it is set.
func TestRunLingerEndsOnCancel(t *testing.T) {
	s := startServe(t, "-packets", "2000", "-mgmt-linger", "1h")
	s.await(t, "linger: ")
	start := time.Now()
	out, err := s.stop()
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("run returned %v after cancel, want < 1s", d)
	}
	if !strings.Contains(out, "--- totals ---") {
		t.Errorf("no final report after cancel:\n%s", out)
	}
}

// TestRunLiveReconfig: -live-reconfig reloads the last tenant in place
// through the verified path mid-run, and the report shows every reload
// applied with no failed command, one configuration on every shard, and
// the reloaded tenant (the stateless CALC) dropping in the pipeline
// exactly the frames it drops in the same seeded run with no reload: a
// replace opens no gap in which its frames find no module.
func TestRunLiveReconfig(t *testing.T) {
	workers := 0
	report := func(reloads string) string {
		cfg, err := parseFlags([]string{"-modules", "NetCache,CALC", "-packets", "20000", "-live-reconfig", reloads})
		if err != nil {
			t.Fatal(err)
		}
		workers = cfg.workers
		var out strings.Builder
		if err := run(context.Background(), cfg, &out); err != nil {
			t.Fatalf("run: %v\n%s", err, out.String())
		}
		return out.String()
	}
	// pipelineDrops reads tenant 2's pipeline_drop fate from a report.
	pipelineDrops := func(report string) string {
		for _, line := range strings.Split(report, "\n") {
			if strings.HasPrefix(line, "tenant  2: submitted") {
				if _, rest, ok := strings.Cut(line, " pipeline_drop "); ok {
					return strings.Fields(rest)[0]
				}
			}
		}
		t.Fatalf("no pipeline_drop fate for tenant 2:\n%s", report)
		return ""
	}
	reloaded := report("3")
	if !strings.Contains(reloaded, "tenant 2 reloaded 3 times mid-run:") || !strings.Contains(reloaded, " 0 failed\n") {
		t.Errorf("report does not show 3 reloads of tenant 2 with 0 failed:\n%s", reloaded)
	}
	var sums []string
	for _, line := range strings.Split(reloaded, "\n") {
		if _, sum, ok := strings.Cut(line, "config checksum "); ok && strings.HasPrefix(line, "worker ") {
			sums = append(sums, sum)
		}
	}
	if len(sums) != workers || len(slices.Compact(slices.Clone(sums))) != 1 {
		t.Errorf("shard checksums %q, want one value on all %d workers:\n%s", sums, workers, reloaded)
	}
	if got, want := pipelineDrops(reloaded), pipelineDrops(report("0")); got != want {
		t.Errorf("reloaded tenant 2 dropped %s frames in the pipeline, %s without reloads:\n%s", got, want, reloaded)
	}
}

func TestRunUnknownModule(t *testing.T) {
	cfg, err := parseFlags([]string{"-modules", "Bogus", "-packets", "0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), cfg, io.Discard); err == nil {
		t.Error("run loaded an unknown module")
	}
}
