// Smoke test of the ops plane end to end through run, in process: a
// traffic load with the management API mounted, /metrics and /stats
// scraped over HTTP while the engine is live, an egress-weight
// mutation POSTed, and the reconfiguration generation asserted to
// move. CI runs this as its mgmt smoke step.
package main

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestMgmtSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("serves a traffic load and a live management API; skipped in -short")
	}
	// -mgmt-linger keeps the engine and API alive after the load so the
	// scrapes and the mutation land against a live dataplane; the test
	// cancels the run when done.
	s := startServe(t,
		"-mgmt-addr", "127.0.0.1:0",
		"-packets", strconv.Itoa(mgmtSmokeFrames),
		"-trace-every", "64",
		"-mgmt-linger", "60s")
	// The bound address is printed before traffic starts.
	base := s.await(t, "mgmt: listening on ")

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

	// Mutate: SetEgressWeight through the generation-tagged control queue.
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

	// Traces were sampled at 1-in-64 — once every frame has been
	// processed.
	awaitFates(t, base, mgmtSmokeFrames)
	var traces struct {
		Total uint64 `json:"total"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, base+"/traces")), &traces); err != nil {
		t.Fatal(err)
	}
	if traces.Total == 0 {
		t.Errorf("/traces recorded nothing at 1-in-64 over %d frames", mgmtSmokeFrames)
	}

	if out, err := s.stop(); err != nil {
		t.Fatalf("run: %v\n%s", err, out)
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

// awaitFates polls /metrics until exactly total frames have reached a
// terminal fate — menshen_tenant_frames_total summed over tenants and
// fates, plus menshen_tenant_forwarded_frames — and returns that
// scrape; a sum past total is a double count and fails at once.
// Counters upstream of the pipeline (ingress received, tenant
// submitted) move before a frame is processed, so they cannot tell a
// test when the books are closed; the failure message prints ingress
// received beside the total sent, so a frame lost before the socket is
// told apart from one stuck in the engine.
func awaitFates(t *testing.T, base string, total float64) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		doc := httpGet(t, base+"/metrics")
		fates := metricSum(t, doc, "menshen_tenant_frames_total") + metricSum(t, doc, "menshen_tenant_forwarded_frames")
		if fates == total {
			return doc
		}
		if fates > total {
			t.Fatalf("%v frames have a fate, but only %v were sent", fates, total)
		}
		if time.Now().After(deadline) {
			t.Fatalf("tail never drained: %v of %v sent frames have a fate; ingress received %v",
				fates, total, metricSum(t, doc, "menshen_ingress_received_frames_total"))
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
