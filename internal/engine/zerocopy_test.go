// Buffer-ownership and zero-copy safety tests: pool reuse across
// batches must never corrupt results consumed through the documented
// lifetime window (during the OnBatch callback), the owned submission
// path must be byte-identical to the synchronous reference, and the
// "result valid until the callback returns" rule must be real — the
// engine does recycle those buffers into later batches.
package engine_test

import (
	"bytes"
	"sync"
	"testing"

	menshen "repro"
	"repro/internal/trafficgen"
)

// collectOut is an OnBatch sink that copies every forwarded frame
// during the callback (the documented-safe consumption pattern).
type collectOut struct {
	mu   sync.Mutex
	out  map[uint16][][]byte
	drop map[uint16]int
}

func newCollectOut() *collectOut {
	return &collectOut{out: make(map[uint16][][]byte), drop: make(map[uint16]int)}
}

func (c *collectOut) onBatch(_ int, _ uint16, results []menshen.EngineResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range results {
		if results[i].Dropped {
			c.drop[results[i].ModuleID]++
			continue
		}
		c.out[results[i].ModuleID] = append(c.out[results[i].ModuleID],
			append([]byte(nil), results[i].Data...))
	}
}

// refOutputs runs the same frames through a synchronous Device and
// returns per-tenant outputs.
func refOutputs(t *testing.T, dev *menshen.Device, frames [][]byte) map[uint16][][]byte {
	t.Helper()
	out := make(map[uint16][][]byte)
	for _, f := range frames {
		res, err := dev.Send(f)
		if err != nil {
			t.Fatal(err)
		}
		if res.Dropped {
			t.Fatalf("reference dropped a frame (module %d)", res.ModuleID)
		}
		out[res.ModuleID] = append(out[res.ModuleID], append([]byte(nil), res.Output...))
	}
	return out
}

func compareOutputs(t *testing.T, ref, got map[uint16][][]byte) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("tenant sets differ: ref %d, engine %d", len(ref), len(got))
	}
	for id, want := range ref {
		have := got[id]
		if len(want) != len(have) {
			t.Fatalf("tenant %d: ref forwarded %d frames, engine %d", id, len(want), len(have))
		}
		for i := range want {
			if !bytes.Equal(want[i], have[i]) {
				t.Fatalf("tenant %d frame %d: engine output diverges from reference", id, i)
			}
		}
	}
}

// makeTraffic builds an interleaved two-tenant stream (CALC=1,
// NetCache=2) long enough for pool buffers to be recycled many times.
func makeTraffic(n int) [][]byte {
	calc := trafficgen.DefaultGen("CALC", 1, 0, 8, trafficgen.NewPRNG(3))
	kv := trafficgen.DefaultGen("NetCache", 2, 0, 8, trafficgen.NewPRNG(4))
	frames := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			frames = append(frames, calc(i))
		} else {
			frames = append(frames, kv(i))
		}
	}
	return frames
}

// TestPoolReuseParity drives thousands of frames through a small
// engine in tiny submit chunks, so every pool buffer is reused across
// many batches, and checks (a) the engine's outputs — consumed inside
// the callback — are byte-identical to the synchronous reference, and
// (b) Submit's copy semantics hold: the caller's frames are unmodified
// afterwards even though the pipeline deparses in place.
func TestPoolReuseParity(t *testing.T) {
	const total = 4096
	frames := makeTraffic(total)
	pristine := make([][]byte, len(frames))
	for i, f := range frames {
		pristine[i] = append([]byte(nil), f...)
	}

	ref := refOutputs(t, newDevice(t, "CALC", "NetCache"), frames)

	sink := newCollectOut()
	eng, err := newDevice(t, "CALC", "NetCache").NewEngine(menshen.EngineConfig{
		Workers:    1, // single worker: engine output order matches submit order
		BatchSize:  8,
		QueueDepth: 64, // small rings: the submitter blocks, so buffers recycle
		OnBatch:    sink.onBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for lo := 0; lo < len(frames); lo += 16 {
		hi := lo + 16
		if hi > len(frames) {
			hi = len(frames)
		}
		n, err := eng.SubmitBatch(frames[lo:hi])
		if err != nil || n != hi-lo {
			t.Fatalf("SubmitBatch: accepted %d of %d, err %v", n, hi-lo, err)
		}
	}
	eng.Drain()

	compareOutputs(t, ref, sink.out)
	for id, n := range sink.drop {
		if n != 0 {
			t.Errorf("tenant %d: %d unexpected drops", id, n)
		}
	}
	for i := range frames {
		if !bytes.Equal(frames[i], pristine[i]) {
			t.Fatalf("frame %d: Submit mutated the caller's buffer", i)
		}
	}

	st := eng.Stats()
	if st.PoolHits == 0 {
		t.Error("pool was never hit across 4096 recycled frames")
	}
	if hr := st.PoolHitRate(); hr < 0.9 {
		t.Errorf("pool hit rate %.3f; want >= 0.9 in steady state", hr)
	}
	if st.BytesCopied == 0 {
		t.Error("copying submit path reported zero bytes copied")
	}
}

// TestSubmitOwnedParity exercises the true zero-copy path: frames are
// staged into borrowed buffers and relinquished. Outputs must match
// the synchronous reference and the engine must report zero ingress
// bytes copied.
func TestSubmitOwnedParity(t *testing.T) {
	const total = 2048
	frames := makeTraffic(total)
	ref := refOutputs(t, newDevice(t, "CALC", "NetCache"), frames)

	sink := newCollectOut()
	eng, err := newDevice(t, "CALC", "NetCache").NewEngine(menshen.EngineConfig{
		Workers:    1,
		BatchSize:  8,
		QueueDepth: 64, // small rings: the submitter blocks, so buffers recycle
		OnBatch:    sink.onBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, f := range frames {
		buf := eng.Borrow(len(f))
		copy(buf, f)
		ok, err := eng.SubmitOwned(buf)
		if err != nil || !ok {
			t.Fatalf("SubmitOwned: ok=%v err=%v", ok, err)
		}
	}
	eng.Drain()

	compareOutputs(t, ref, sink.out)
	st := eng.Stats()
	if st.BytesCopied != 0 {
		t.Errorf("owned path copied %d ingress bytes; want 0", st.BytesCopied)
	}
	if st.PoolHits == 0 {
		t.Error("borrowed buffers were never recycled")
	}
}

// TestResultLifetimeRule demonstrates that the documented lifetime —
// "results, including Data, are valid only for the duration of the
// OnBatch callback" — is real: buffers backing one batch's results are
// recycled into later batches. A consumer that retains Data slices
// beyond the callback observes the same backing arrays resurfacing.
func TestResultLifetimeRule(t *testing.T) {
	type batchRecord struct {
		ptrs []*byte // first byte of each result's backing buffer
	}
	var mu sync.Mutex
	var records []batchRecord

	eng, err := newDevice(t, "CALC").NewEngine(menshen.EngineConfig{
		Workers:   1,
		BatchSize: 4,
		OnBatch: func(_ int, _ uint16, results []menshen.EngineResult) {
			rec := batchRecord{}
			for i := range results {
				if !results[i].Dropped && len(results[i].Data) > 0 {
					rec.ptrs = append(rec.ptrs, &results[i].Data[0])
				}
			}
			mu.Lock()
			records = append(records, rec)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	gen := trafficgen.DefaultGen("CALC", 1, 0, 4, trafficgen.NewPRNG(9))
	// Submit one frame at a time and drain between submissions, so each
	// batch completes (and releases its buffers) before the next one.
	for i := 0; i < 64; i++ {
		if ok, err := eng.Submit(gen(i)); err != nil || !ok {
			t.Fatalf("Submit: ok=%v err=%v", ok, err)
		}
		eng.Drain()
	}

	mu.Lock()
	defer mu.Unlock()
	seen := make(map[*byte]int)
	reused := 0
	for bi, rec := range records {
		for _, p := range rec.ptrs {
			if prev, ok := seen[p]; ok && prev != bi {
				reused++
			}
			seen[p] = bi
		}
	}
	if reused == 0 {
		t.Fatal("no result buffer was ever recycled across batches; the lifetime rule test is vacuous")
	}
}

// TestBatchFollowsOccupancy pins the worker's batch rule: a batch is
// what the tenant's ring holds when the worker gets to it, up to
// BatchSize. A trickle is served one frame at a time; a backlog built
// behind a fence (so no core count or submitter speed can thin it) is
// served in full batches.
func TestBatchFollowsOccupancy(t *testing.T) {
	const batchSize = 32
	gen := trafficgen.DefaultGen("CALC", 1, 0, 4, trafficgen.NewPRNG(11))
	var mu sync.Mutex
	var sizes []int
	eng, err := newDevice(t, "CALC").NewEngine(menshen.EngineConfig{
		Workers: 1, BatchSize: batchSize,
		OnBatch: func(_ int, _ uint16, results []menshen.EngineResult) {
			mu.Lock()
			sizes = append(sizes, len(results))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	for i := 0; i < 128; i++ {
		if ok, err := eng.Submit(gen(i)); err != nil || !ok {
			t.Fatalf("Submit: ok=%v err=%v", ok, err)
		}
		eng.Drain() // trickle: never more than one frame queued
	}
	if ws := eng.Stats().Workers[0]; ws.AvgBatch() != 1 {
		t.Errorf("trickle-fed: %d frames in %d batches, want one frame per batch", ws.Frames, ws.Batches)
	}

	mu.Lock()
	sizes = sizes[:0]
	mu.Unlock()
	sc := trafficgen.NewScenario(11, trafficgen.TenantLoad{ModuleID: 1, Program: "CALC", Flows: 4})
	offerBacklogged(t, eng, sc, 4*batchSize, 1)
	mu.Lock()
	defer mu.Unlock()
	if len(sizes) != 4 {
		t.Errorf("backlog of %d frames served in %d batches %v, want 4", 4*batchSize, len(sizes), sizes)
	}
	for _, n := range sizes {
		if n != batchSize {
			t.Errorf("backlogged batch sizes %v, want every one %d", sizes, batchSize)
			break
		}
	}
}

// The StatsInto snapshot-reuse pin lives in the "stats-snapshot" entry
// of TestHotPathZeroAlloc (hotpath_alloc_test.go at the module root),
// keyed to the telemetry //menshen:hotpath annotations.
