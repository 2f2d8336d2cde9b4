// Management-API tests against a live engine: endpoint semantics,
// generation-returning mutations, and the §3.5 fairness acceptance
// scenario read over HTTP mid-contention.
package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	menshen "repro"
	"repro/internal/engine"
	"repro/internal/p4progs"
	"repro/internal/trafficgen"
)

// liveEngine builds a two-tenant engine (both CALC) plus its fully
// wired management server.
func liveEngine(t *testing.T, cfg menshen.EngineConfig) (*menshen.Engine, *httptest.Server) {
	t.Helper()
	dev := menshen.NewDevice()
	p, err := p4progs.ByName("CALC")
	if err != nil {
		t.Fatal(err)
	}
	for id := uint16(1); id <= 2; id++ {
		if _, err := dev.LoadModule(p.Source(), id); err != nil {
			t.Fatal(err)
		}
	}
	tracer := NewTracer(256)
	cfg.TraceEvery = 16
	cfg.OnTrace = tracer.Hook("")
	eng, err := dev.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(tracer, Ops{
		LoadModule: func(source string, id uint16) (uint64, error) {
			_, gen, err := eng.LoadModule(source, id)
			return gen, err
		},
		UnloadModule:    eng.UnloadModule,
		SetEgressWeight: eng.SetEgressWeight,
		SetTenantLimit: func(tenant uint16, pps, bps float64) (uint64, error) {
			eng.SetTenantLimit(tenant, pps, bps)
			return eng.ReconfigGen(), nil
		},
		AwaitQuiesce: eng.AwaitQuiesce,
	}, Source{StatsInto: eng.StatsInto})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); eng.Close() })
	return eng, ts
}

// pump pushes an equal two-tenant contention load through eng.
func pump(t *testing.T, eng *menshen.Engine, frames int) {
	t.Helper()
	sc := trafficgen.ContentionScenario(17, 0,
		trafficgen.TenantLoad{ModuleID: 1, Program: "CALC", Flows: 4},
		trafficgen.TenantLoad{ModuleID: 2, Program: "CALC", Flows: 4},
	)
	var batch [][]byte
	for sent := 0; sent < frames; sent += len(batch) {
		batch = sc.NextBatch(batch[:0], 64)
		if _, err := eng.SubmitBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
}

func get(t *testing.T, url string) (int, []byte) {
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
	return resp.StatusCode, body
}

func post(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// Error statuses (405/501) carry plain text; everything else JSON.
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil && resp.StatusCode == http.StatusOK {
		t.Fatalf("decode %s response %q: %v", url, raw, err)
	}
	return resp.StatusCode, out
}

func TestServerEndpoints(t *testing.T) {
	eng, ts := liveEngine(t, menshen.EngineConfig{Workers: 1, BatchSize: 16, QueueDepth: 2048, DropOnFull: true})
	pump(t, eng, 2000)
	eng.Drain()

	// /metrics: well-formed exposition with traffic in it.
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	if !strings.Contains(string(body), "menshen_tenant_forwarded_frames_total{tenant=\"1\"}") {
		t.Error("/metrics missing per-tenant forwarded counter")
	}

	// /stats: the full snapshot as JSON.
	code, body = get(t, ts.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("GET /stats = %d", code)
	}
	var stats struct {
		Nodes []struct {
			Stats engine.Stats `json:"stats"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("decode /stats: %v", err)
	}
	if len(stats.Nodes) != 1 || stats.Nodes[0].Stats.Tenants[1].Processed == 0 {
		t.Errorf("/stats: no forwarded traffic in snapshot: %s", body)
	}

	// /traces: the 1-in-16 sampled hop ring.
	code, body = get(t, ts.URL+"/traces")
	if code != http.StatusOK {
		t.Fatalf("GET /traces = %d", code)
	}
	var traces struct {
		Total  uint64       `json:"total"`
		Events []TraceEvent `json:"events"`
	}
	if err := json.Unmarshal(body, &traces); err != nil {
		t.Fatal(err)
	}
	if traces.Total == 0 || len(traces.Events) == 0 {
		t.Errorf("/traces: nothing sampled across 2000 frames at 1-in-16")
	}

	// /debug/pprof: the profiler index answers.
	code, _ = get(t, ts.URL+"/debug/pprof/")
	if code != http.StatusOK {
		t.Errorf("GET /debug/pprof/ = %d", code)
	}

	// Mutations: egress weight rides the fenced queue and returns an
	// increasing generation; wait blocks until applied.
	code, out := post(t, ts.URL+"/control/egress-weight", `{"tenant":1,"weight":3,"wait":true}`)
	if code != http.StatusOK {
		t.Fatalf("POST egress-weight = %d (%v)", code, out)
	}
	gen1 := uint64(out["generation"].(float64))
	if gen1 == 0 {
		t.Error("egress-weight returned generation 0")
	}
	code, out = post(t, ts.URL+"/control/egress-weight", `{"tenant":2,"weight":1,"wait":true}`)
	if code != http.StatusOK || uint64(out["generation"].(float64)) <= gen1 {
		t.Errorf("second mutation: code %d generation %v, want > %d", code, out["generation"], gen1)
	}

	// Rate limit applies at ingress and echoes the current generation.
	code, _ = post(t, ts.URL+"/control/rate-limit", `{"tenant":1,"pps":1e9}`)
	if code != http.StatusOK {
		t.Errorf("POST rate-limit = %d", code)
	}

	// Module unload + reload, waited.
	code, out = post(t, ts.URL+"/control/unload-module", `{"id":2,"wait":true}`)
	if code != http.StatusOK {
		t.Fatalf("POST unload-module = %d (%v)", code, out)
	}
	p, err := p4progs.ByName("CALC")
	if err != nil {
		t.Fatal(err)
	}
	reload, err := json.Marshal(map[string]any{"id": 2, "source": p.Source(), "wait": true})
	if err != nil {
		t.Fatal(err)
	}
	code, out = post(t, ts.URL+"/control/load-module", string(reload))
	if code != http.StatusOK {
		t.Fatalf("POST load-module = %d (%v)", code, out)
	}

	// Explicit quiesce on the returned generation.
	code, _ = post(t, ts.URL+"/control/quiesce",
		fmt.Sprintf(`{"generation":%d}`, uint64(out["generation"].(float64))))
	if code != http.StatusOK {
		t.Errorf("POST quiesce = %d", code)
	}
}

func TestServerErrors(t *testing.T) {
	_, ts := liveEngine(t, menshen.EngineConfig{Workers: 1, BatchSize: 8})

	// Wrong method.
	resp, err := http.Post(ts.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/control/egress-weight")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /control/egress-weight = %d, want 405", resp.StatusCode)
	}

	// Malformed body.
	code, _ := post(t, ts.URL+"/control/egress-weight", `{not json`)
	if code != http.StatusBadRequest {
		t.Errorf("malformed body = %d, want 400", code)
	}

	// Engine-rejected mutation (weight must be positive).
	code, out := post(t, ts.URL+"/control/egress-weight", `{"tenant":1,"weight":-2}`)
	if code != http.StatusBadRequest || out["error"] == nil {
		t.Errorf("bad weight = %d (%v), want 400 with error", code, out)
	}

	// Nil op: a read-only server rejects every mutation with 501.
	ro := httptest.NewServer(NewServer(nil, Ops{}).Handler())
	defer ro.Close()
	for _, ep := range []string{"load-module", "unload-module", "egress-weight", "rate-limit", "quiesce"} {
		code, _ := post(t, ro.URL+"/control/"+ep, `{}`)
		if code != http.StatusNotImplemented {
			t.Errorf("read-only POST /control/%s = %d, want 501", ep, code)
		}
	}
	// Read endpoints still work without a tracer or traffic.
	code, _ = get(t, ro.URL+"/traces")
	if code != http.StatusOK {
		t.Errorf("read-only GET /traces = %d", code)
	}
}

// TestMetricsLintLive runs the exposition linter over a real engine's
// scrape — histogram buckets, reconfig generations, egress counters
// and all — rather than the synthetic golden snapshot.
func TestMetricsLintLive(t *testing.T) {
	eng, ts := liveEngine(t, menshen.EngineConfig{
		Workers: 2, BatchSize: 16, QueueDepth: 2048, DropOnFull: true,
		EgressWeights: map[uint16]float64{1: 3, 2: 1}, EgressQueueLimit: 64, EgressQuantum: 4,
	})
	pump(t, eng, 4000)
	eng.Drain()
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	lintExposition(t, string(body))
}

// TestFairnessOverHTTP is the PR's acceptance scenario read through
// the ops plane: the PR-4 3:1 egress contention run, with the
// per-tenant egress share series scraped from /metrics over HTTP
// while the engine is live, must land within 10% of 3/4 and 1/4. The
// contention is built, not raced for: both tenants are fenced while
// the whole load queues, so the shares do not depend on the submitter
// outrunning the worker (it does not, on a loaded box).
func TestFairnessOverHTTP(t *testing.T) {
	eng, ts := liveEngine(t, menshen.EngineConfig{
		Workers:          1,
		BatchSize:        32,
		QueueDepth:       32768,
		DropOnFull:       true,
		EgressWeights:    map[uint16]float64{1: 3, 2: 1},
		EgressQueueLimit: 128,
		EgressQuantum:    8,
	})
	// The two fences are issued back to back and only the second
	// generation is awaited, so neither tenant is served alone for
	// longer than the gap between two calls.
	fence := func(op func(uint16) (uint64, error)) {
		t.Helper()
		var gen uint64
		for id := uint16(1); id <= 2; id++ {
			var err error
			if gen, err = op(id); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.AwaitQuiesce(gen); err != nil {
			t.Fatal(err)
		}
	}
	fence(eng.BeginTenantUpdate)
	pump(t, eng, 40000)
	fence(eng.EndTenantUpdate)

	// Scrape mid-run: the endpoint must serve cleanly while workers
	// are hot (the share may not have converged yet — only check form).
	code, _ := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("mid-run GET /metrics = %d", code)
	}
	eng.Drain()

	// The engine is still live; read the converged shares over HTTP.
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	share := map[uint16]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "menshen_tenant_egress_share{") {
			continue
		}
		var tenant int
		if _, err := fmt.Sscanf(line[strings.Index(line, "{"):strings.Index(line, "}")+1], `{tenant="%d"}`, &tenant); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		v, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
		if err != nil {
			t.Fatal(err)
		}
		share[uint16(tenant)] = v
	}
	if len(share) != 2 {
		t.Fatalf("found %d egress share series, want 2: %v", len(share), share)
	}
	for tenant, want := range map[uint16]float64{1: 0.75, 2: 0.25} {
		got := share[tenant]
		if got < want*0.9 || got > want*1.1 {
			t.Errorf("tenant %d egress share over HTTP = %.3f, want %.3f ±10%%", tenant, got, want)
		}
	}

	// Cross-check against the direct snapshot: HTTP and StatsInto see
	// the same counters.
	var st menshen.EngineStats
	eng.StatsInto(&st)
	if direct := st.EgressShare(1); absDiff(direct, share[1]) > 0.02 {
		t.Errorf("HTTP share %.3f vs direct %.3f diverge", share[1], direct)
	}
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// TestServerStatsJSONRoundTrip pins that /stats is decodable back
// into engine.Stats with nothing lost that the CLI report needs.
func TestServerStatsJSONRoundTrip(t *testing.T) {
	st := engine.Stats{
		Tenants: map[uint16]engine.TenantStats{3: {Submitted: 9, Processed: 7, PipelineDrops: 2}},
		Workers: []engine.WorkerStats{{Batches: 1, Frames: 9}},
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(statsNode{Node: "x", Stats: st}); err != nil {
		t.Fatal(err)
	}
	var back statsNode
	if err := json.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if back.Node != "x" || back.Stats.Tenants[3].Processed != 7 || back.Stats.Workers[0].Frames != 9 {
		t.Errorf("round trip lost data: %+v", back)
	}
}
