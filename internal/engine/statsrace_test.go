// StatsInto snapshot-reuse semantics under concurrency: each poller
// owns its receiver and may poll while traffic and live
// reconfiguration run. CI runs this package under -race, which is
// what gives these tests their teeth.
package engine_test

import (
	"context"
	"sync"
	"testing"

	menshen "repro"
	"repro/internal/p4progs"
)

// TestStatsIntoConcurrentPollers runs the documented concurrency
// contract end to end: two pollers (each with its own reused
// receiver) snapshot a live engine while producers submit traffic and
// a control goroutine live-unloads and reloads a tenant through the
// generation-tagged reconfiguration queue. The receiver-per-goroutine rule is
// the whole contract — this must be race-clean without any locking by
// the pollers.
func TestStatsIntoConcurrentPollers(t *testing.T) {
	dev := newDevice(t, "CALC", "NetCache")
	eng, err := dev.NewEngine(menshen.EngineConfig{
		Workers:    2,
		BatchSize:  16,
		QueueDepth: 1024,
		DropOnFull: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	p, err := p4progs.ByName("NetCache")
	if err != nil {
		t.Fatal(err)
	}
	reloadSrc := p.Source()

	const rounds = 30
	done := make(chan struct{})
	var work, poll sync.WaitGroup

	// Producer: keeps both tenants' traffic flowing.
	work.Add(1)
	go func() {
		defer work.Done()
		frames := makeTraffic(256)
		for i := 0; i < rounds; i++ {
			if _, err := eng.SubmitBatch(frames); err != nil {
				t.Error(err)
				return
			}
			eng.Drain()
		}
	}()

	// Control plane: live unload+reload of tenant 2, generation-tagged
	// and applied at batch boundaries, while the producer and pollers
	// keep running.
	work.Add(1)
	go func() {
		defer work.Done()
		for i := 0; i < 5; i++ {
			if _, err := eng.UnloadModule(2); err != nil {
				t.Errorf("live unload: %v", err)
				return
			}
			// The verified load returns once every shard has applied
			// it. Not quiesce: t.Fatal must not run off the test goroutine.
			ctx, cancel := context.WithTimeout(context.Background(), quiesceTimeout)
			_, _, _, err := eng.LoadModuleVerified(ctx, reloadSrc, 2, menshen.VerifyOpts{})
			cancel()
			if err != nil {
				t.Errorf("live reload: %v", err)
				return
			}
		}
	}()

	// Two pollers, each confined to its own receiver: the reuse that
	// makes polling alloc-free must not be shared across goroutines,
	// but distinct receivers polled concurrently are fine.
	for p := 0; p < 2; p++ {
		poll.Add(1)
		go func() {
			defer poll.Done()
			var st menshen.EngineStats
			for {
				select {
				case <-done:
					return
				default:
				}
				eng.StatsInto(&st)
				// Read the snapshot the way the exporter does; the race
				// detector flags any write racing these reads.
				tot := st.Totals()
				if tot.Processed > 0 && len(st.Workers) == 0 {
					t.Error("snapshot has traffic but no workers")
					return
				}
				for i := range st.Workers {
					_ = st.Workers[i].Latency.Quantile(0.99)
				}
			}
		}()
	}

	// Pollers stop only after traffic and reconfiguration finish, so
	// every snapshot contention window gets exercised.
	work.Wait()
	close(done)
	poll.Wait()

	var st menshen.EngineStats
	eng.StatsInto(&st)
	if st.ReconfigIssued == 0 {
		t.Error("no reconfiguration generations were issued")
	}
	if st.Tenants[1].Processed == 0 {
		t.Error("tenant 1 forwarded nothing")
	}
}

// TestStatsIntoSnapshotIndependence pins that a held snapshot is the
// caller's: polling into a second receiver (or more traffic arriving)
// must not mutate the first snapshot retroactively.
func TestStatsIntoSnapshotIndependence(t *testing.T) {
	dev := newDevice(t, "CALC")
	eng, err := dev.NewEngine(menshen.EngineConfig{Workers: 1, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	frames := makeTraffic(128)
	if _, err := eng.SubmitBatch(frames); err != nil {
		t.Fatal(err)
	}
	eng.Drain()

	var first menshen.EngineStats
	eng.StatsInto(&first)
	heldProcessed := first.Tenants[1].Processed
	heldSampled := first.Workers[0].Sampled

	for i := 0; i < 3; i++ {
		if _, err := eng.SubmitBatch(frames); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	var second menshen.EngineStats
	eng.StatsInto(&second)

	if first.Tenants[1].Processed != heldProcessed || first.Workers[0].Sampled != heldSampled {
		t.Error("held snapshot mutated by later traffic or a later poll into another receiver")
	}
	if second.Tenants[1].Processed <= heldProcessed {
		t.Errorf("second snapshot Processed = %d, want > %d", second.Tenants[1].Processed, heldProcessed)
	}
}
