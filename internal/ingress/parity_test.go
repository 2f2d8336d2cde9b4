// Source-interchangeability parity: the same scenario pushed through
// the trafficgen-as-Source adapter (Borrow + SubmitBatchOwned, the
// socket transports' exact submission path) must produce byte-identical
// per-tenant output streams to direct SubmitBatch — proving a Source is
// a drop-in for direct submission, with no reordering, truncation, or
// divergence introduced by the borrowed-buffer hand-off.
package ingress_test

import (
	"bytes"
	"context"
	"sync"
	"testing"

	menshen "repro"
	"repro/internal/engine"
	"repro/internal/p4progs"
	"repro/internal/trafficgen"
)

// captureEngine starts a single-worker engine — one shard, so
// submission order IS processing order — with the named programs loaded
// as tenants 1..n. Its OnBatch concatenates each tenant's post-pipeline
// output bytes into the returned map (a 0xDD marker where a frame
// died); read the map after Drain.
func captureEngine(t *testing.T, programs ...string) (*menshen.Engine, map[uint16][]byte) {
	t.Helper()
	dev := menshen.NewDevice()
	for i, name := range programs {
		p, err := p4progs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dev.LoadModule(p.Source(), uint16(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	out := map[uint16][]byte{}
	eng, err := dev.NewEngine(menshen.EngineConfig{
		Workers:    1,
		BatchSize:  16,
		QueueDepth: 4096,
		OnBatch: func(_ int, tenant uint16, results []menshen.EngineResult) {
			mu.Lock()
			defer mu.Unlock()
			for _, r := range results {
				if r.Dropped {
					out[tenant] = append(out[tenant], 0xDD)
					continue
				}
				out[tenant] = append(out[tenant], r.Data...)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	return eng, out
}

// runScenario replays the canonical two-tenant scenario into a fresh
// single-worker engine — via direct SubmitBatch when direct, else via
// the ScenarioSource adapter — and returns each tenant's concatenated
// post-pipeline output bytes (with a drop marker where a frame died).
func runScenario(t *testing.T, direct bool) map[uint16][]byte {
	t.Helper()
	eng, out := captureEngine(t, "CALC", "Firewall")

	mkScenario := func() *trafficgen.Scenario {
		return trafficgen.NewScenario(7,
			trafficgen.TenantLoad{ModuleID: 1, Program: "CALC", Flows: 8},
			trafficgen.TenantLoad{ModuleID: 2, Program: "Firewall", Flows: 8, Weight: 2},
		)
	}
	const total = 2048
	if direct {
		sc := mkScenario()
		var frames [][]byte
		for sent := 0; sent < total; sent += len(frames) {
			frames = sc.NextBatch(frames[:0], min(32, total-sent))
			if _, err := eng.SubmitBatch(frames); err != nil {
				t.Fatal(err)
			}
		}
	} else {
		src := trafficgen.NewScenarioSource(mkScenario(), total, 32)
		if err := src.Serve(context.Background(), eng); err != nil {
			t.Fatal(err)
		}
		var is engine.IngressStats
		src.StatsInto(&is)
		if is.Received != total || is.Submitted+is.SubmitRejected != total {
			t.Fatalf("adapter ledger: received %d, submitted %d + rejected %d, want %d",
				is.Received, is.Submitted, is.SubmitRejected, total)
		}
	}
	eng.Drain()
	return out
}

func TestScenarioSourceParity(t *testing.T) {
	want := runScenario(t, true)
	got := runScenario(t, false)
	if len(got) != len(want) {
		t.Fatalf("adapter run produced %d tenants, direct run %d", len(got), len(want))
	}
	for tenant, wantBytes := range want {
		gotBytes, ok := got[tenant]
		if !ok {
			t.Errorf("tenant %d missing from adapter run", tenant)
			continue
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Errorf("tenant %d: adapter output (%d bytes) diverges from direct submission (%d bytes)",
				tenant, len(gotBytes), len(wantBytes))
		}
	}
}
