// Egress-scheduling tests: §3.5 weighted output sharing enforced on
// worker TX. The contention tests model a TX link slower than the
// pipeline (EgressQuantum < BatchSize) and assert that the *delivered*
// stream follows the configured weights, not the offered load; the
// parity and alloc tests pin that the egress stage neither corrupts
// outputs nor reintroduces steady-state allocations.
//
// "The egress queue is the bottleneck" is true by construction, not by
// the submitter happening to outrun the worker: every contention test
// offers its load through offerBacklogged, which fences the tenants,
// fills their rings, and only then lets the worker at them.
package engine_test

import (
	"math"
	"sync/atomic"
	"testing"

	menshen "repro"
	"repro/internal/p4progs"
	"repro/internal/trafficgen"
)

// backlogDepth is the contention tests' ring depth: deep enough to hold
// a test's whole offered load per tenant, so the backlog can be built
// before the worker serves any of it.
const backlogDepth = 32768

// offerBacklogged offers frames of sc's stream with the RX backlog made
// explicit: the tenants are fenced (BeginTenantUpdate holds their
// frames in the rings), the whole load is queued, the fences lift, and
// the engine drains. From the first service cycle to the last the
// worker pulls full batches while the egress link passes one quantum,
// whatever the core count and however fast the submitter is.
func offerBacklogged(t *testing.T, eng *menshen.Engine, sc *trafficgen.Scenario, frames int, tenants ...uint16) {
	t.Helper()
	fence := func(op func(uint16) (uint64, error)) {
		var gen uint64
		for _, id := range tenants {
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
	var batch [][]byte
	for sent := 0; sent < frames; sent += len(batch) {
		batch = sc.NextBatch(batch[:0], 64)
		if n, err := eng.SubmitBatch(batch); err != nil || n != len(batch) {
			t.Fatalf("building the backlog: %d of %d frames accepted, err=%v", n, len(batch), err)
		}
	}
	fence(eng.EndTenantUpdate)
	eng.Drain()
}

// runContention drives an equal-offered-load two-or-more-tenant stream
// through a single-worker engine with the given egress weights and a
// bottleneck TX quantum, then returns the final stats.
func runContention(t *testing.T, weights map[uint16]float64, frames int) menshen.EngineStats {
	t.Helper()
	programs := make([]string, len(weights))
	loads := make([]trafficgen.TenantLoad, 0, len(weights))
	tenants := make([]uint16, 0, len(weights))
	for i := range programs {
		programs[i] = "CALC"
		loads = append(loads, trafficgen.TenantLoad{ModuleID: uint16(i + 1), Program: "CALC", Flows: 4})
		tenants = append(tenants, uint16(i+1))
	}
	dev := newDevice(t, programs...)
	eng, err := dev.NewEngine(menshen.EngineConfig{
		Workers:          1,
		BatchSize:        32,
		QueueDepth:       backlogDepth,
		DropOnFull:       true,
		EgressWeights:    weights,
		EgressQueueLimit: 128,
		EgressQuantum:    8,
	})
	if err != nil {
		t.Fatal(err)
	}
	offerBacklogged(t, eng, trafficgen.ContentionScenario(17, 0, loads...), frames, tenants...)
	st := eng.Stats()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestEngineEgressFairness3to1 is the PR's acceptance scenario: two
// tenants weighted 3:1, both offered the same saturating load through
// a bottleneck egress link; delivered byte shares must land within 10%
// of 3/4 and 1/4.
func TestEngineEgressFairness3to1(t *testing.T) {
	st := runContention(t, map[uint16]float64{1: 3, 2: 1}, 40000)
	s1, s2 := st.EgressShare(1), st.EgressShare(2)
	if s1 == 0 || s2 == 0 {
		t.Fatalf("no egress delivery recorded: shares %v/%v", s1, s2)
	}
	if math.Abs(s1-0.75) > 0.075 || math.Abs(s2-0.25) > 0.025 {
		t.Errorf("achieved shares %.3f/%.3f, want 0.75/0.25 within 10%%", s1, s2)
	}
	// The heavy-weight tenant must not be starved of throughput in
	// absolute terms either.
	if st.Tenants[1].EgressDelivered <= st.Tenants[2].EgressDelivered*2 {
		t.Errorf("delivered %d vs %d, want ~3:1",
			st.Tenants[1].EgressDelivered, st.Tenants[2].EgressDelivered)
	}
}

// TestEngineEgressFairnessThreeTenants checks a 3:2:1 split.
func TestEngineEgressFairnessThreeTenants(t *testing.T) {
	st := runContention(t, map[uint16]float64{1: 3, 2: 2, 3: 1}, 60000)
	want := []float64{3.0 / 6, 2.0 / 6, 1.0 / 6}
	for i, w := range want {
		got := st.EgressShare(uint16(i + 1))
		if math.Abs(got-w) > w*0.12 {
			t.Errorf("tenant %d: achieved share %.3f, want %.3f ±12%%", i+1, got, w)
		}
	}
}

// TestEngineEgressByteQuantumMixedSizes: with one tenant sending
// 1000-byte frames and another 100-byte frames at equal weights and
// equal offered *frame* rates, a byte-denominated TX quantum
// (EgressQuantumBytes) must arbitrate the backlog into equal *byte*
// shares — the small-frame tenant delivers ~10x the frames. (With the
// same frame budget and no byte cap the link is work-conserving here
// and the delivered bytes would follow the 10:1 offered skew instead.)
func TestEngineEgressByteQuantumMixedSizes(t *testing.T) {
	s1, s2, d1, d2 := runMixedSizeContention(t, map[uint16]float64{1: 1, 2: 1}, 1600)
	if s1 == 0 || s2 == 0 {
		t.Fatalf("no egress delivery recorded: shares %v/%v", s1, s2)
	}
	if math.Abs(s1-0.5) > 0.06 || math.Abs(s2-0.5) > 0.06 {
		t.Errorf("mixed-size byte shares %.3f/%.3f, want 0.50/0.50 within 12%%", s1, s2)
	}
	if ratio := float64(d2) / float64(d1); ratio < 6 || ratio > 14 {
		t.Errorf("delivered frame ratio %.1f (small:big), want ~10 (equal bytes, 10x size gap)", ratio)
	}
}

// TestEngineEgressByteQuantumWeighted: the byte quantum composes with
// weights — a 3:1 split over mixed sizes lands on 3:1 *byte* shares.
func TestEngineEgressByteQuantumWeighted(t *testing.T) {
	s1, s2, _, _ := runMixedSizeContention(t, map[uint16]float64{1: 1, 2: 3}, 1600)
	if math.Abs(s1-0.25) > 0.05 || math.Abs(s2-0.75) > 0.09 {
		t.Errorf("weighted mixed-size byte shares %.3f/%.3f, want 0.25/0.75 within ~12%%", s1, s2)
	}
}

// runMixedSizeContention offers tenant 1 1000-byte and tenant 2
// 100-byte frames at equal frame rates through a byte-bottlenecked
// egress link and returns the delivered byte shares and frame counts.
func runMixedSizeContention(t *testing.T, weights map[uint16]float64, quantumBytes int) (s1, s2 float64, d1, d2 uint64) {
	t.Helper()
	eng, err := newDevice(t, "CALC", "CALC").NewEngine(menshen.EngineConfig{
		Workers:            1,
		BatchSize:          32,
		QueueDepth:         backlogDepth,
		DropOnFull:         true,
		EgressWeights:      weights,
		EgressQueueLimit:   128,
		EgressQuantum:      64, // generous in frames: the byte cap is the bottleneck
		EgressQuantumBytes: quantumBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := trafficgen.NewScenario(31,
		trafficgen.TenantLoad{ModuleID: 1, Program: "CALC", Flows: 4, FrameBytes: 1000},
		trafficgen.TenantLoad{ModuleID: 2, Program: "CALC", Flows: 4, FrameBytes: 100},
	)
	offerBacklogged(t, eng, sc, 40000, 1, 2)
	st := eng.Stats()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	b1, b2 := st.Tenants[1].EgressBytes, st.Tenants[2].EgressBytes
	d1, d2 = st.Tenants[1].EgressDelivered, st.Tenants[2].EgressDelivered
	if tot := b1 + b2; tot > 0 {
		s1 = float64(b1) / float64(tot)
		s2 = float64(b2) / float64(tot)
	}
	return s1, s2, d1, d2
}

// TestEngineEgressAccounting pins the egress counter invariants after
// a full drain: every pipeline-forwarded frame was either admitted to
// the scheduler or shed by it, and every admitted frame was either
// delivered or displaced.
func TestEngineEgressAccounting(t *testing.T) {
	st := runContention(t, map[uint16]float64{1: 3, 2: 1}, 20000)
	for id, ts := range st.Tenants {
		if ts.EgressQueued+ts.EgressDropped < ts.Processed {
			t.Errorf("tenant %d: queued %d + shed %d < processed %d",
				id, ts.EgressQueued, ts.EgressDropped, ts.Processed)
		}
		// EgressDropped = rejects (never queued) + evictions (queued,
		// then displaced): delivered + dropped ≥ queued, and delivered
		// never exceeds queued.
		if ts.EgressDelivered > ts.EgressQueued {
			t.Errorf("tenant %d: delivered %d > queued %d", id, ts.EgressDelivered, ts.EgressQueued)
		}
		if ts.EgressDelivered+ts.EgressDropped < ts.Processed {
			t.Errorf("tenant %d: delivered %d + shed %d < processed %d after drain",
				id, ts.EgressDelivered, ts.EgressDropped, ts.Processed)
		}
		if ts.Dropped() < ts.EgressDropped {
			t.Errorf("tenant %d: Dropped() %d excludes egress drops %d", id, ts.Dropped(), ts.EgressDropped)
		}
	}
}

// TestEngineEgressParityNoContention: with egress scheduling on but a
// single tenant and a work-conserving quantum, delivered outputs must
// be byte-identical (and in order) to the synchronous Device.Send
// reference — the scheduler may only reorder between tenants, never
// corrupt or reorder within one backlogged tenant's flow.
func TestEngineEgressParityNoContention(t *testing.T) {
	const n = 500
	gen := trafficgen.DefaultGen("CALC", 1, 0, 1, trafficgen.NewPRNG(23))
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = gen(i)
	}
	ref := refOutputs(t, newDevice(t, "CALC"), frames)

	sink := newCollectOut()
	eng, err := newDevice(t, "CALC").NewEngine(menshen.EngineConfig{
		Workers:       1,
		BatchSize:     8,
		QueueDepth:    64,
		EgressWeights: map[uint16]float64{1: 2},
		OnBatch:       sink.onBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, f := range frames {
		if n, err := eng.SubmitBatch([][]byte{f}); err != nil || n != 1 {
			t.Fatalf("submit: accepted=%d err=%v", n, err)
		}
	}
	eng.Drain()
	compareOutputs(t, ref, sink.out)
	st := eng.Stats()
	if got := st.Tenants[1].EgressDelivered; got != n {
		t.Errorf("delivered %d of %d through the egress stage", got, n)
	}
	if st.Tenants[1].EgressDropped != 0 {
		t.Errorf("%d egress drops in an uncontended run", st.Tenants[1].EgressDropped)
	}
}

// TestEngineEgressOnBatchForwardedOnly: under egress scheduling the
// callback sees only forwarded frames (drops are counted, not
// delivered), in nondecreasing rank order per worker.
func TestEngineEgressOnBatchForwardedOnly(t *testing.T) {
	var dropped atomic.Uint64
	eng, err := newDevice(t, "CALC").NewEngine(menshen.EngineConfig{
		Workers:       1,
		EgressWeights: map[uint16]float64{1: 1},
		OnBatch: func(_ int, _ uint16, results []menshen.EngineResult) {
			for i := range results {
				if results[i].Dropped {
					dropped.Add(1)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// Tenant 9 has no module loaded: its frames are pipeline drops and
	// must not surface in OnBatch.
	gen := trafficgen.DefaultGen("CALC", 9, 0, 1, trafficgen.NewPRNG(5))
	for i := 0; i < 64; i++ {
		if n, err := eng.SubmitBatch([][]byte{gen(i)}); err != nil || n != 1 {
			t.Fatalf("submit: accepted=%d err=%v", n, err)
		}
	}
	eng.Drain()
	if dropped.Load() != 0 {
		t.Errorf("OnBatch observed %d dropped frames under egress scheduling; want 0", dropped.Load())
	}
	st := eng.Stats()
	if st.Tenants[9].PipelineDrops == 0 {
		t.Error("setup: expected pipeline drops for the unloaded tenant")
	}
	if st.Tenants[9].EgressQueued != 0 {
		t.Errorf("pipeline-dropped frames entered the egress queue: %d", st.Tenants[9].EgressQueued)
	}
}

// The engine steady-state allocation pin lives in the
// "engine-steady-state" entry of TestHotPathZeroAlloc
// (hotpath_alloc_test.go at the module root), keyed to this package's
// //menshen:hotpath annotations.

// contentionPhase pushes an equal two-tenant load through eng and
// returns each tenant's delivered egress bytes during the phase.
func contentionPhase(t *testing.T, eng *menshen.Engine, frames int) (b1, b2 uint64) {
	t.Helper()
	before := eng.Stats()
	sc := trafficgen.ContentionScenario(29, 0,
		trafficgen.TenantLoad{ModuleID: 1, Program: "CALC", Flows: 4},
		trafficgen.TenantLoad{ModuleID: 2, Program: "CALC", Flows: 4},
	)
	offerBacklogged(t, eng, sc, frames, 1, 2)
	after := eng.Stats()
	return after.Tenants[1].EgressBytes - before.Tenants[1].EgressBytes,
		after.Tenants[2].EgressBytes - before.Tenants[2].EgressBytes
}

// TestEngineSetEgressWeightLive reconfigures egress weights on a
// *running* engine through the fenced, generation-tagged control
// queue: an engine started with no egress state at all must pick up
// scheduling live, and a subsequent weight flip must flip the achieved
// shares.
func TestEngineSetEgressWeightLive(t *testing.T) {
	eng, err := newDevice(t, "CALC", "CALC").NewEngine(menshen.EngineConfig{
		Workers:          1,
		BatchSize:        32,
		QueueDepth:       backlogDepth,
		DropOnFull:       true,
		EgressQueueLimit: 128,
		EgressQuantum:    8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Live enable at 3:1, fenced by quiesce.
	if _, err := eng.SetEgressWeight(1, 3); err != nil {
		t.Fatal(err)
	}
	gen, err := eng.SetEgressWeight(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AwaitQuiesce(gen); err != nil {
		t.Fatal(err)
	}
	b1, b2 := contentionPhase(t, eng, 40000)
	if b1 == 0 || b2 == 0 {
		t.Fatalf("no egress delivery after live enable: %d/%d", b1, b2)
	}
	if ratio := float64(b1) / float64(b2); math.Abs(ratio-3) > 0.45 {
		t.Errorf("live-enabled shares ratio %.2f, want ~3", ratio)
	}

	// Flip the weights live: the delivered shares must follow.
	if _, err := eng.SetEgressWeight(1, 1); err != nil {
		t.Fatal(err)
	}
	gen, err = eng.SetEgressWeight(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AwaitQuiesce(gen); err != nil {
		t.Fatal(err)
	}
	b1, b2 = contentionPhase(t, eng, 40000)
	if ratio := float64(b2) / float64(b1); math.Abs(ratio-3) > 0.45 {
		t.Errorf("post-flip shares ratio %.2f, want ~3", ratio)
	}
}

// TestEngineUnloadClearsEgressState: unloading a module live prunes
// its egress weight and virtual-finish state, so after a reload the
// tenant schedules at the implicit weight 1 (not its old weight, not
// a stale finish-time penalty). It also prunes the tenant's ingress
// rate-limit state at the engine edge.
func TestEngineUnloadClearsEgressState(t *testing.T) {
	dev := menshen.NewDevice()
	src := calcSource(t)
	for id := uint16(1); id <= 2; id++ {
		if _, err := dev.LoadModule(src, id); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := dev.NewEngine(menshen.EngineConfig{
		Workers:          1,
		BatchSize:        32,
		QueueDepth:       backlogDepth,
		DropOnFull:       true,
		EgressWeights:    map[uint16]float64{1: 8, 2: 1},
		EgressQueueLimit: 128,
		EgressQuantum:    8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	b1, b2 := contentionPhase(t, eng, 30000)
	if b1 <= b2*4 {
		t.Fatalf("setup: weight-8 tenant delivered %d vs %d, want a dominant share", b1, b2)
	}

	// Unload+reload tenant 1 live: its weight-8 configuration must not
	// survive into its next life.
	if _, err := eng.UnloadModule(1); err != nil {
		t.Fatal(err)
	}
	_, gen, err := eng.LoadModule(src, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AwaitQuiesce(gen); err != nil {
		t.Fatal(err)
	}
	b1, b2 = contentionPhase(t, eng, 30000)
	if ratio := float64(b1) / float64(b2); math.Abs(ratio-1) > 0.2 {
		t.Errorf("post-reload shares ratio %.2f, want ~1 (stale weight leaked across unload)", ratio)
	}
}

// calcSource returns the CALC program source (helper for tests that
// need to reload modules through the facade).
func calcSource(t *testing.T) string {
	t.Helper()
	p, err := p4progs.ByName("CALC")
	if err != nil {
		t.Fatal(err)
	}
	return p.Source()
}
