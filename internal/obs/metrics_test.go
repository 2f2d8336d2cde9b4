package obs

import (
	"bytes"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/faultinject"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenNodes builds a fully deterministic two-node snapshot set:
// every counter class populated, exact binary fractions for the
// derived gauges, and a node name that needs label escaping.
func goldenNodes() []NodeStats {
	stA := &engine.Stats{
		Tenants: map[uint16]engine.TenantStats{
			1: {Submitted: 1000, RateLimited: 10, QueueFull: 5, Processed: 900,
				PipelineDrops: 15, Bytes: 57600, EgressQueued: 900, EgressDropped: 150,
				EgressDelivered: 750, EgressBytes: 48000},
			7: {Submitted: 400, Processed: 330, PipelineDrops: 70, Bytes: 21120,
				EgressQueued: 330, EgressDropped: 80, EgressDelivered: 250,
				EgressBytes: 16000},
		},
		Workers: []engine.WorkerStats{
			{
				Batches: 64, Frames: 1230, Busy: 1500 * 1e6,
				Pending: 12, EgressBacklog: 3, Sampled: 8,
				Latency: func() engine.LatencyHistogram {
					var h engine.LatencyHistogram
					h.Buckets[8] = 6
					h.Buckets[12] = 2
					h.SumNs = 3_000_000_000
					return h
				}(),
				ReconfigGen: 3, ReconfigApplied: 6, ReconfigFailed: 1,
				ReconfigDelivered: 9, Stalled: true, SinceProgress: 40 * 1e6,
			},
		},
		Uptime:         2500 * 1e6, // 2.5s
		ReconfigIssued: 3, ReconfigApplied: 6, ReconfigFailed: 1, ReconfigFrames: 2,
		ReconfigRetries: 5, VerifyFailures: 1, CmdFaultsInjected: 12,
		DegradedWorkers: 1, DegradedEvents: 2,
		Updating: 4,
		PoolHits: 3, PoolMisses: 1,
		BytesCopied: 4096,
		// Two ingress transports so the per-transport families render:
		// a UDP listener with dgram drop classes and a TCP listener
		// with the stream/connection classes populated.
		Ingress: []engine.IngressStats{
			{Transport: "udp", Listen: "127.0.0.1:9000", Reads: 90, Received: 800, ReceivedBytes: 51200,
				Submitted: 780, SubmitRejected: 20, ShortDropped: 7, OversizeDropped: 3},
			{Transport: "tcp", Listen: "127.0.0.1:9001", Received: 200, ReceivedBytes: 12800,
				Submitted: 200, DecodeErrors: 2, ConnsAccepted: 5, AcceptRetries: 1, ConnResets: 3},
		},
	}
	winA := []engine.LatencyHistogram{func() engine.LatencyHistogram {
		var h engine.LatencyHistogram
		h.Buckets[8] = 4
		return h
	}()}
	// The second node's name exercises label escaping: backslash,
	// double quote, and newline must all survive a round trip.
	stB := &engine.Stats{
		Tenants: map[uint16]engine.TenantStats{
			1: {Submitted: 50, Processed: 50, Bytes: 3200},
		},
		Workers: []engine.WorkerStats{{Batches: 4, Frames: 50}},
		Uptime:  1250 * 1e6, // 1.25s
	}
	// Node A also carries two faulted links so the per-link families
	// render: a noisy one with every class populated and a drop-only
	// one, probing both the kind fan-out and the numeric port order.
	lfA := map[uint8]faultinject.Counts{
		1: {Seen: 500, Dropped: 40, Corrupted: 10, Delayed: 25, Reordered: 30, Held: 0},
		3: {Seen: 200, Dropped: 200},
	}
	return []NodeStats{
		{Node: "s0", Stats: stA, Window: winA, LinkFaults: lfA},
		{Node: "we\\ird\"node\n", Stats: stB}, // no window: quantile gauges omitted
	}
}

// TestMetricsGolden locks the full exposition document byte for byte.
// Regenerate with `go test ./internal/obs -run TestMetricsGolden
// -update` and review the diff.
func TestMetricsGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, goldenNodes()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition document diverged from golden file %s;\ngot:\n%s", path, buf.Bytes())
	}
}

// expoFamily is one parsed metric family.
type expoFamily struct {
	help, typ string
	samples   int
}

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// parseExposition is a strict-enough parser for the subset of the
// text format the exporter emits. It fails the test on any structural
// violation: samples before HELP/TYPE, interleaved families, bad
// names, bad label syntax, or unparsable values.
func parseExposition(t *testing.T, doc string) map[string]*expoFamily {
	t.Helper()
	fams := map[string]*expoFamily{}
	current := "" // the family whose block we are inside
	closed := map[string]bool{}
	for ln, line := range strings.Split(strings.TrimRight(doc, "\n"), "\n") {
		lineNo := ln + 1
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || !nameRe.MatchString(name) {
				t.Fatalf("line %d: malformed HELP: %q", lineNo, line)
			}
			if fams[name] != nil {
				t.Fatalf("line %d: duplicate HELP for %s", lineNo, name)
			}
			if current != "" {
				closed[current] = true
			}
			fams[name] = &expoFamily{help: help}
			current = name
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", lineNo, line)
			}
			name, typ := fields[0], fields[1]
			f := fams[name]
			if f == nil || f.typ != "" {
				t.Fatalf("line %d: TYPE without preceding HELP (or duplicated) for %s", lineNo, name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: invalid type %q", lineNo, typ)
			}
			f.typ = typ
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unexpected comment %q", lineNo, line)
		default:
			name := parseSample(t, lineNo, line)
			base := name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				trimmed := strings.TrimSuffix(name, suffix)
				if trimmed != name && fams[trimmed] != nil && fams[trimmed].typ == "histogram" {
					base = trimmed
				}
			}
			f := fams[base]
			if f == nil || f.typ == "" {
				t.Fatalf("line %d: sample %s before its HELP/TYPE", lineNo, name)
			}
			if base != current {
				if closed[base] {
					t.Fatalf("line %d: family %s interleaved (reopened after another family started)", lineNo, base)
				}
				closed[current] = true
				current = base
			}
			f.samples++
		}
	}
	return fams
}

// parseSample validates one sample line and returns its metric name.
func parseSample(t *testing.T, lineNo int, line string) string {
	t.Helper()
	rest := line
	end := strings.IndexAny(rest, "{ ")
	if end < 0 {
		t.Fatalf("line %d: no value separator in %q", lineNo, line)
	}
	name := rest[:end]
	if !nameRe.MatchString(name) {
		t.Fatalf("line %d: bad metric name %q", lineNo, name)
	}
	rest = rest[end:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			eq := strings.Index(rest, "=")
			if eq < 0 {
				t.Fatalf("line %d: bad label syntax", lineNo)
			}
			if !labelRe.MatchString(rest[:eq]) {
				t.Fatalf("line %d: bad label name %q", lineNo, rest[:eq])
			}
			rest = rest[eq+1:]
			if rest[0] != '"' {
				t.Fatalf("line %d: unquoted label value", lineNo)
			}
			rest = rest[1:]
			// Walk the escaped value: only \\, \", \n escapes are legal,
			// and a raw newline can't appear (we split on newlines).
			for {
				if len(rest) == 0 {
					t.Fatalf("line %d: unterminated label value", lineNo)
				}
				if rest[0] == '\\' {
					if len(rest) < 2 || (rest[1] != '\\' && rest[1] != '"' && rest[1] != 'n') {
						t.Fatalf("line %d: invalid escape %q", lineNo, rest[:2])
					}
					rest = rest[2:]
					continue
				}
				if rest[0] == '"' {
					rest = rest[1:]
					break
				}
				rest = rest[1:]
			}
			if rest[0] == ',' {
				rest = rest[1:]
				continue
			}
			if rest[0] == '}' {
				rest = rest[1:]
				break
			}
			t.Fatalf("line %d: bad label terminator in %q", lineNo, line)
		}
	}
	if rest[0] != ' ' {
		t.Fatalf("line %d: missing value separator in %q", lineNo, line)
	}
	if _, err := strconv.ParseFloat(strings.TrimSpace(rest[1:]), 64); err != nil {
		t.Fatalf("line %d: bad value in %q: %v", lineNo, line, err)
	}
	return name
}

// TestMetricsLint is the linter-style satellite: every emitted series
// belongs to a family with HELP and TYPE, families are contiguous,
// label values are legally escaped, and histograms are cumulative
// with a +Inf bucket equal to _count. It runs over both the
// deterministic golden snapshot and a live engine scrape (see
// TestMetricsLintLive in server_test.go).
func TestMetricsLint(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, goldenNodes()); err != nil {
		t.Fatal(err)
	}
	lintExposition(t, buf.String())
}

// lintExposition runs the full rule set over one exposition document.
func lintExposition(t *testing.T, doc string) {
	t.Helper()
	fams := parseExposition(t, doc)
	if len(fams) < 20 {
		t.Errorf("only %d families exposed; expected the full engine surface", len(fams))
	}
	for name, f := range fams {
		if f.typ == "" {
			t.Errorf("family %s has HELP but no TYPE", name)
		}
		if strings.TrimSpace(f.help) == "" {
			t.Errorf("family %s has empty HELP", name)
		}
		if f.samples == 0 && f.typ != "gauge" {
			// Only the windowed-quantile gauges may legally be empty
			// (nodes without a window); counters always render.
			t.Errorf("family %s (%s) has no samples", name, f.typ)
		}
	}
	checkHistograms(t, doc)
}

// checkHistograms verifies cumulative bucket monotonicity and
// bucket/count agreement per (node, worker) series.
func checkHistograms(t *testing.T, doc string) {
	t.Helper()
	type series struct {
		lastLe  float64
		lastCum uint64
		infSeen bool
		inf     uint64
	}
	byKey := map[string]*series{}
	counts := map[string]uint64{}
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(line, "menshen_worker_batch_latency_seconds_bucket"):
			key, le := histKeyLe(t, line)
			v := sampleValueUint(t, line)
			s := byKey[key]
			if s == nil {
				s = &series{lastLe: math.Inf(-1)}
				byKey[key] = s
			}
			if math.IsInf(le, +1) {
				s.infSeen = true
				s.inf = v
			} else {
				if le <= s.lastLe {
					t.Errorf("bucket le %g not increasing in %s", le, key)
				}
				s.lastLe = le
			}
			if v < s.lastCum {
				t.Errorf("bucket counts not cumulative in %s", key)
			}
			s.lastCum = v
		case strings.HasPrefix(line, "menshen_worker_batch_latency_seconds_count"):
			key, _ := histKeyLe(t, line)
			counts[key] = sampleValueUint(t, line)
		}
	}
	if len(byKey) == 0 {
		t.Error("no histogram buckets found")
	}
	for key, s := range byKey {
		if !s.infSeen {
			t.Errorf("series %s has no +Inf bucket", key)
		}
		if s.inf != counts[key] {
			t.Errorf("series %s: +Inf bucket %d != _count %d", key, s.inf, counts[key])
		}
	}
}

// histKeyLe extracts a histogram line's identity (labels minus le) and
// its le bound (+Inf when absent or infinite).
func histKeyLe(t *testing.T, line string) (string, float64) {
	t.Helper()
	open := strings.Index(line, "{")
	closeIdx := strings.LastIndex(line, "}")
	if open < 0 || closeIdx < 0 {
		t.Fatalf("histogram sample without labels: %q", line)
	}
	le := math.Inf(+1)
	var keyParts []string
	for _, part := range strings.Split(line[open+1:closeIdx], ",") {
		if strings.HasPrefix(part, "le=") {
			val := strings.Trim(strings.TrimPrefix(part, "le="), `"`)
			if val != "+Inf" {
				f, err := strconv.ParseFloat(val, 64)
				if err != nil {
					t.Fatalf("bad le %q", val)
				}
				le = f
			}
			continue
		}
		keyParts = append(keyParts, part)
	}
	return strings.Join(keyParts, ","), le
}

// sampleValueUint parses a sample line's value as uint64.
func sampleValueUint(t *testing.T, line string) uint64 {
	t.Helper()
	sp := strings.LastIndex(line, " ")
	v, err := strconv.ParseUint(line[sp+1:], 10, 64)
	if err != nil {
		t.Fatalf("bad sample value in %q: %v", line, err)
	}
	return v
}

// TestMetricsLabelEscaping pins the escaped node label round trip:
// the raw bytes must contain the escape sequences, never the raw
// control characters inside a value.
func TestMetricsLabelEscaping(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, goldenNodes()); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	if !strings.Contains(doc, `node="we\\ird\"node\n"`) {
		t.Error("escaped node label not found in output")
	}
	for _, line := range strings.Split(doc, "\n") {
		if strings.Contains(line, `we\ird`) && !strings.Contains(line, `we\\ird`) {
			t.Errorf("unescaped backslash leaked: %q", line)
		}
	}
}

// TestExporterWindowedQuantiles checks Collect's scrape-interval
// windowing: a first scrape sees the cumulative histogram, a second
// scrape with no new samples sees an empty window (quantile 0), and a
// second scrape after new fast samples sees only those.
func TestExporterWindowedQuantiles(t *testing.T) {
	var cur engine.LatencyHistogram
	cur.Buckets[20] = 100 // slow history
	st := engine.Stats{Workers: []engine.WorkerStats{{}}}
	exp := NewExporter(Source{StatsInto: func(dst *engine.Stats) {
		dst.Workers = append(dst.Workers[:0], engine.WorkerStats{Latency: cur})
		if dst.Tenants == nil {
			dst.Tenants = map[uint16]engine.TenantStats{}
		}
	}})
	_ = st

	p50 := func() float64 {
		var buf bytes.Buffer
		if err := exp.Collect(&buf); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, "menshen_worker_batch_latency_window_p50_seconds{") {
				v, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
		}
		t.Fatal("window p50 gauge not found")
		return 0
	}

	if v := p50(); v < 500e-6 {
		t.Errorf("first scrape window p50 = %g, want the slow cumulative history", v)
	}
	if v := p50(); v != 0 {
		t.Errorf("idle-interval window p50 = %g, want 0", v)
	}
	cur.Buckets[8] += 50 // fast samples only in this interval
	if v := p50(); v <= 0 || v >= 256e-9 {
		t.Errorf("fast-interval window p50 = %g, want inside (0, 256ns)", v)
	}
}

// TestExporterCollectZeroAlloc pins the exporter's own contract: a
// warm Collect allocates nothing, which is what lets a scraper run
// beside the engine's AllocsPerRun pin without polluting it.
func TestExporterCollectZeroAlloc(t *testing.T) {
	nodes := goldenNodes()
	exp := NewExporter(
		Source{Node: "s0", StatsInto: func(dst *engine.Stats) { copyStats(dst, nodes[0].Stats) }},
		Source{Node: "s1", StatsInto: func(dst *engine.Stats) { copyStats(dst, nodes[1].Stats) }},
	)
	for i := 0; i < 3; i++ {
		if err := exp.Collect(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := exp.Collect(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Collect allocates %.1f per scrape; want 0", allocs)
	}
}

// copyStats refills dst from src the way StatsInto does (map and
// slice reuse), so the zero-alloc test models the real polling path.
func copyStats(dst *engine.Stats, src *engine.Stats) {
	tenants := dst.Tenants
	if tenants == nil {
		tenants = make(map[uint16]engine.TenantStats, len(src.Tenants))
	} else {
		clear(tenants)
	}
	workers := dst.Workers[:0]
	*dst = *src
	for id, ts := range src.Tenants {
		tenants[id] = ts
	}
	dst.Tenants = tenants
	dst.Workers = append(workers, src.Workers...)
}
