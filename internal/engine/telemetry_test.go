// Latency-histogram semantics: quantile edge cases, snapshot
// windowing, and the facade-visible windowed quantiles — the polling
// surface the obs exporter builds on.
package engine_test

import (
	"math"
	"reflect"
	"testing"
	"time"

	menshen "repro"
	"repro/internal/engine"
)

// TestLatencyHistogramQuantileEmpty pins the empty-histogram contract:
// every quantile of an empty (or freshly windowed, idle-interval)
// histogram is exactly 0 — never NaN — so pollers can render idle
// workers without special-casing.
func TestLatencyHistogramQuantileEmpty(t *testing.T) {
	var h engine.LatencyHistogram
	for _, q := range []float64{0, 0.5, 0.99, 1, -1, 2, math.NaN()} {
		got := h.Quantile(q)
		if got != 0 {
			t.Errorf("empty histogram Quantile(%v) = %v, want 0", q, got)
		}
		if math.IsNaN(float64(got)) {
			t.Errorf("empty histogram Quantile(%v) is NaN", q)
		}
	}
	if h.Count() != 0 {
		t.Errorf("empty histogram Count() = %d, want 0", h.Count())
	}
}

// TestLatencyHistogramQuantileClamps pins out-of-range and NaN q on a
// populated histogram: clamped to the extremes, never a panic or NaN.
func TestLatencyHistogramQuantileClamps(t *testing.T) {
	var h engine.LatencyHistogram
	h.Buckets[10] = 100 // all observations in [2^9, 2^10) ns
	want := h.Quantile(0.5)
	if want == 0 {
		t.Fatal("populated histogram quantile is 0")
	}
	for _, q := range []float64{-5, 0, 1, 7, math.NaN()} {
		got := h.Quantile(q)
		if got != want {
			t.Errorf("single-bucket Quantile(%v) = %v, want %v", q, got, want)
		}
	}
	// The midpoint must land inside the bucket's range.
	if want < 512*time.Nanosecond || want >= 1024*time.Nanosecond {
		t.Errorf("bucket-10 midpoint %v outside [512ns, 1024ns)", want)
	}
}

// TestLatencyHistogramQuantileSpread pins quantile selection across
// buckets: with 90 observations low and 10 high, p50 comes from the
// low bucket and p99 from the high one.
func TestLatencyHistogramQuantileSpread(t *testing.T) {
	var h engine.LatencyHistogram
	h.Buckets[8] = 90  // [128, 256) ns
	h.Buckets[20] = 10 // [512K, 1M) ns
	p50 := h.Quantile(0.50)
	p99 := h.Quantile(0.99)
	if p50 < 128*time.Nanosecond || p50 >= 256*time.Nanosecond {
		t.Errorf("p50 = %v, want inside [128ns, 256ns)", p50)
	}
	if p99 < 512*1024*time.Nanosecond || p99 >= 1024*1024*time.Nanosecond {
		t.Errorf("p99 = %v, want inside [512Kns, 1Mns)", p99)
	}
	if h.Count() != 100 {
		t.Errorf("Count() = %d, want 100", h.Count())
	}
}

// TestLatencyHistogramSubWindow pins the snapshot-delta contract
// behind scrape-interval quantiles: Sub returns only the observations
// that arrived between the two snapshots, and a reversed (misused)
// subtraction saturates at zero instead of wrapping.
func TestLatencyHistogramSubWindow(t *testing.T) {
	var prev engine.LatencyHistogram
	prev.Buckets[8] = 50
	prev.Buckets[20] = 50
	prev.SumNs = 1000

	cur := prev
	cur.Buckets[8] += 200 // the interval was fast: new samples all low
	cur.SumNs += 9000

	win := cur.Sub(&prev)
	if win.Count() != 200 {
		t.Errorf("window Count() = %d, want 200", win.Count())
	}
	if win.Buckets[20] != 0 {
		t.Errorf("window Buckets[20] = %d, want 0", win.Buckets[20])
	}
	if win.SumNs != 9000 {
		t.Errorf("window SumNs = %d, want 9000", win.SumNs)
	}
	// The cumulative histogram's p99 still reflects the old slow tail;
	// the windowed one must not.
	if cur.Quantile(0.99) < 512*1024*time.Nanosecond {
		t.Errorf("cumulative p99 = %v, want in the slow bucket", cur.Quantile(0.99))
	}
	if p99 := win.Quantile(0.99); p99 >= 256*time.Nanosecond {
		t.Errorf("windowed p99 = %v, want inside the fast bucket", p99)
	}

	// Reversed subtraction: monotonic counters can't go backwards, so
	// this is a misuse; it must saturate at zero, not wrap to 2^64-ish.
	bad := prev.Sub(&cur)
	if bad.Count() != 0 || bad.SumNs != 0 {
		t.Errorf("reversed Sub = count %d sum %d, want 0/0", bad.Count(), bad.SumNs)
	}

	// Identical snapshots (an idle scrape interval) window to empty,
	// and its quantiles are 0 (the empty-histogram contract above).
	idle := cur.Sub(&cur)
	if idle.Count() != 0 || idle.Quantile(0.5) != 0 {
		t.Errorf("idle window = count %d p50 %v, want 0/0", idle.Count(), idle.Quantile(0.5))
	}
}

// TestEngineStatsLatencySnapshot checks the live surface: a worked
// engine's WorkerStats carries a latency histogram consistent with its
// published quantiles and sample counter.
func TestEngineStatsLatencySnapshot(t *testing.T) {
	dev := newDevice(t, "CALC")
	eng, err := dev.NewEngine(menshen.EngineConfig{Workers: 2, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	frames := makeTraffic(2048)
	for i := 0; i < 4; i++ {
		if _, err := eng.SubmitBatch(frames); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	st := eng.Stats()
	var sampled uint64
	for i, ws := range st.Workers {
		if ws.Latency.Count() != ws.Sampled {
			t.Errorf("worker %d: Latency.Count() = %d, Sampled = %d", i, ws.Latency.Count(), ws.Sampled)
		}
		if got := ws.Latency.Quantile(0.50); got != ws.P50BatchLatency {
			t.Errorf("worker %d: P50 %v != Latency.Quantile(0.50) %v", i, ws.P50BatchLatency, got)
		}
		if got := ws.Latency.Quantile(0.99); got != ws.P99BatchLatency {
			t.Errorf("worker %d: P99 %v != Latency.Quantile(0.99) %v", i, ws.P99BatchLatency, got)
		}
		sampled += ws.Sampled
	}
	if sampled == 0 {
		t.Fatal("no batches were latency-sampled across 8192 frames")
	}
}

// TestLedgerCoversEveryCounter is the fate ledger's drift guard: every
// field of TenantStats and IngressStats, set alone, moves the ledger (a
// fate, or a total Conserved checks) unless it is on the short list of
// fields that are not fates. A new drop counter cannot ship without a
// fate.
func TestLedgerCoversEveryCounter(t *testing.T) {
	notFates := map[string]bool{
		"Bytes": true, "EgressBytes": true, "ReceivedBytes": true, // sizes, not frames
		"EgressQueued": true, "EgressDelivered": true, // the egress stage's view of egress_drop and forwarded
		"Transport": true, "Listen": true, "Reads": true, // labels and the RX syscall cost
		// Connection events: a framing error or reset loses a stream's rest, never read as frames.
		"DecodeErrors": true, "ConnsAccepted": true, "AcceptRetries": true, "ConnResets": true,
	}
	for _, typ := range []reflect.Type{reflect.TypeFor[engine.TenantStats](), reflect.TypeFor[engine.IngressStats]()} {
		for i := range typ.NumField() {
			v := reflect.New(typ).Elem()
			if v.Field(i).Kind() == reflect.Uint64 {
				v.Field(i).SetUint(1)
			}
			var st engine.Stats
			var fated bool
			switch x := v.Interface().(type) {
			case engine.TenantStats:
				st.Tenants, fated = map[uint16]engine.TenantStats{1: x}, x.Fates() != [len(engine.TenantFates)]uint64{}
			case engine.IngressStats:
				st.Ingress, fated = []engine.IngressStats{x}, x.Fates() != [len(engine.IngressFates)]uint64{}
			}
			name := typ.Field(i).Name
			if inLedger := fated || st.Conserved() != nil; inLedger == notFates[name] {
				t.Errorf("%s.%s: seen by the ledger %v, on the not-a-fate list %v: give it a fate or list it", typ.Name(), name, inLedger, notFates[name])
			}
		}
	}
}
