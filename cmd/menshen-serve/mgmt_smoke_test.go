// Smoke test of the ops plane end to end through the real binary:
// build menshen-serve, run a traffic load with the management API
// mounted, scrape /metrics and /stats over HTTP while the engine is
// live, POST an egress-weight mutation, and assert the
// reconfiguration generation moved. CI runs this as its mgmt smoke
// step.
package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestMgmtSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "menshen-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	// -mgmt-linger keeps the engine and API alive after the 50k-frame
	// load so the scrapes and the mutation land against a live
	// dataplane; the test kills the process when done.
	cmd := exec.Command(bin,
		"-mgmt-addr", "127.0.0.1:0",
		"-packets", "50000",
		"-trace-every", "64",
		"-mgmt-linger", "60s")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()

	// The serve CLI prints the bound address before traffic starts.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "mgmt: listening on "); ok {
				addrCh <- strings.TrimSpace(rest)
			}
		}
	}()
	var base string
	select {
	case base = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatal("mgmt address line never appeared")
	}

	// Scrape /metrics: well-formed exposition with engine series.
	body := httpGet(t, base+"/metrics")
	if !strings.Contains(body, "menshen_uptime_seconds") {
		t.Fatalf("/metrics missing uptime series:\n%.500s", body)
	}
	genBefore := metricValue(t, body, "menshen_reconfig_issued_generation")

	// Scrape /stats: decodable JSON snapshot.
	var stats struct {
		Nodes []json.RawMessage `json:"nodes"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, base+"/stats")), &stats); err != nil {
		t.Fatalf("/stats not JSON: %v", err)
	}
	if len(stats.Nodes) != 1 {
		t.Fatalf("/stats has %d nodes, want 1", len(stats.Nodes))
	}

	// Mutate: SetEgressWeight through the fenced control queue.
	resp, err := http.Post(base+"/control/egress-weight", "application/json",
		strings.NewReader(`{"tenant":1,"weight":3,"wait":true}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST egress-weight = %d: %s", resp.StatusCode, raw)
	}
	var mut struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(raw, &mut); err != nil {
		t.Fatal(err)
	}
	if float64(mut.Generation) <= genBefore {
		t.Fatalf("generation %d did not advance past %v", mut.Generation, genBefore)
	}

	// The generation change is visible on the next scrape.
	genAfter := metricValue(t, httpGet(t, base+"/metrics"), "menshen_reconfig_issued_generation")
	if genAfter < float64(mut.Generation) {
		t.Fatalf("scraped generation %v < mutation generation %d", genAfter, mut.Generation)
	}

	// Traces were sampled at 1-in-64 across 50k frames — once all of
	// them have been processed.
	awaitFates(t, base, 50000)
	var traces struct {
		Total uint64 `json:"total"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, base+"/traces")), &traces); err != nil {
		t.Fatal(err)
	}
	if traces.Total == 0 {
		t.Error("/traces recorded nothing at 1-in-64 over 50k frames")
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// awaitFates polls /metrics until total frames have reached a terminal
// fate — forwarded or counted in a drop class, summed over tenants — and
// returns that scrape. Counters upstream of the pipeline (ingress
// received, tenant submitted) move before a frame is processed, so they
// cannot tell a test when the books are closed.
func awaitFates(t *testing.T, base string, total float64) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		doc := httpGet(t, base+"/metrics")
		fates := metricSum(t, doc, "menshen_tenant_forwarded_frames_total") +
			metricSum(t, doc, "menshen_tenant_dropped_frames_total")
		if fates >= total {
			return doc
		}
		if time.Now().After(deadline) {
			t.Fatalf("tail never drained: %v of %v frames forwarded or dropped", fates, total)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// metricValue finds the first sample of the named family.
func metricValue(t *testing.T, doc, name string) float64 {
	t.Helper()
	samples := metricSamples(t, doc, name)
	if len(samples) == 0 {
		t.Fatalf("series %s not found", name)
	}
	return samples[0]
}

// metricSum adds up every sample of the named family (0 when a labelled
// family has no series yet).
func metricSum(t *testing.T, doc, name string) float64 {
	t.Helper()
	var sum float64
	for _, v := range metricSamples(t, doc, name) {
		sum += v
	}
	return sum
}

func metricSamples(t *testing.T, doc, name string) []float64 {
	t.Helper()
	var out []float64
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, name+" ") || strings.HasPrefix(line, name+"{") {
			v, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			out = append(out, v)
		}
	}
	return out
}
