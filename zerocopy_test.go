package menshen

// Zero-copy hot-path regression tests: the in-place batched pipeline
// must neither allocate in steady state nor diverge from the copying
// path's bytes.

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/p4progs"
	"repro/internal/trafficgen"
)

func mustProgram(t *testing.T, name string) string {
	t.Helper()
	p, err := p4progs.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p.Source()
}

// batchFixture returns a CALC-loaded device plus a batch of frames and
// a result slice sized for it.
func batchFixture(t *testing.T, n int) (*Device, [][]byte, []core.BatchResult) {
	t.Helper()
	dev := NewDevice()
	calc := mustProgram(t, "CALC")
	if _, err := dev.LoadModule(calc, 1); err != nil {
		t.Fatal(err)
	}
	gen := trafficgen.DefaultGen("CALC", 1, 0, 16, trafficgen.NewPRNG(7))
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = gen(i)
	}
	return dev, frames, make([]core.BatchResult, n)
}

// The zero-allocation pin for the batched pipeline lives in the
// "process-batch-in-place" entry of TestHotPathZeroAlloc
// (hotpath_alloc_test.go), beside every other hot-path guard.

// TestProcessBatchInPlaceAliasesInput checks the in-place contract:
// res[i].Data is the submitted buffer itself, with bytes identical to
// what the copying path — per-frame Process, a batch of one — produces.
func TestProcessBatchInPlaceAliasesInput(t *testing.T) {
	dev, frames, res := batchFixture(t, 8)
	refDev, refFrames, _ := batchFixture(t, 8)

	if err := dev.Pipeline().ProcessBatchInPlace(frames, 0, res); err != nil {
		t.Fatal(err)
	}
	for i := range res {
		ref, _, err := refDev.Pipeline().Process(refFrames[i], 0)
		if err != nil {
			t.Fatal(err)
		}
		if res[i].Dropped || ref.Dropped {
			t.Fatalf("frame %d dropped (in-place %v, copy %v)", i, res[i].Dropped, ref.Dropped)
		}
		if &res[i].Data[0] != &frames[i][0] {
			t.Errorf("frame %d: in-place Data does not alias the submitted buffer", i)
		}
		if !bytes.Equal(res[i].Data, ref.Data) {
			t.Errorf("frame %d: in-place bytes diverge from copying path", i)
		}
		if &ref.Data[0] == &refFrames[i][0] {
			t.Errorf("frame %d: copying path unexpectedly aliases its input", i)
		}
	}
}
