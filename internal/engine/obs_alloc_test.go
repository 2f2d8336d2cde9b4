// The observability-neutrality pin: the engine's zero-alloc steady
// state (PR 3) must survive being scraped. testing.AllocsPerRun
// counts mallocs across every goroutine, so this only holds because
// a warm Exporter.Collect is itself allocation-free.
package engine_test

import (
	"io"
	"testing"
	"time"

	menshen "repro"
	"repro/internal/obs"
)

func TestEngineZeroAllocWhileScraped(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool reuse; alloc pin runs in the non-race pass")
	}
	eng, err := newDevice(t, "CALC", "NetCache").NewEngine(menshen.EngineConfig{
		Workers:       1,
		BatchSize:     16,
		QueueDepth:    4096,
		DropOnFull:    true,
		EgressWeights: map[uint16]float64{1: 3, 2: 1},
		EgressQuantum: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	exp := obs.NewExporter(obs.Source{StatsInto: eng.StatsInto})
	frames := makeTraffic(512)
	// Warm every pool, ring, scratch, scheduler map, and the
	// exporter's snapshot + render buffers.
	for i := 0; i < 4; i++ {
		if _, err := eng.SubmitBatch(frames); err != nil {
			t.Fatal(err)
		}
		eng.Drain()
		if err := exp.Collect(io.Discard); err != nil {
			t.Fatal(err)
		}
	}

	// Background scraper at 10 Hz for the whole measurement window —
	// its collects land inside AllocsPerRun's malloc accounting.
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		ticker := time.NewTicker(100 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				if err := exp.Collect(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	allocs := testing.AllocsPerRun(10, func() {
		if _, err := eng.SubmitBatch(frames); err != nil {
			t.Fatal(err)
		}
		eng.Drain()
	})
	close(stop)
	<-scraperDone

	// Same tolerance as the unscraped pin (worker goroutines race the
	// measurement loop): per-frame or per-batch allocation anywhere —
	// dataplane or scraper — would show up as hundreds.
	if allocs > 3 {
		t.Errorf("steady state allocates %.1f per 512-frame cycle while scraped; want ~0", allocs)
	}
}
