// The -chaos mode: a self-checking reliability harness. It runs a
// 3-node engine fabric with a noisy link (drop/corrupt/delay/reorder),
// a flapping link, and seeded §4.1 command loss on the middle node's
// control plane, then layers a deterministic schedule of egress-weight
// churn and live verified module reloads over the traffic run. At the
// end it asserts the chaos invariants — every injected frame is
// delivered or counted (conservation), every verified reload converged
// with replica parity across shards, no shard is stalled — and fails
// the run on any violation, so CI can run it as a smoke test.
package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/faultinject"
	"repro/internal/trafficgen"
)

// The chaos harness's fixed shape.
const (
	chaosNodes  = 3
	chaosLoss   = 0.05 // per-command loss probability on the middle node's reconfig delivery
	chaosEvents = 12   // scheduled events: alternating egress-weight churn and verified reloads
)

// runChaos builds the chaotic fabric, drives traffic with control
// churn, and verifies the invariants; a violation is returned as an
// error after the report.
func runChaos(ctx context.Context, cfg serveConfig, out io.Writer) error {
	fab := fabric.NewEngineFabric(nil) // deliveries are counted, not retained
	nodes, specs, err := buildChain(fab, chaosNodes, false, fabric.NodeConfig{
		Workers:      cfg.workers,
		QueueDepth:   cfg.queue,
		BatchSize:    cfg.batch,
		StallTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		return err
	}

	// The first hop is a noisy cable; the second flaps on a periodic
	// down schedule — bursty loss recovers very differently from
	// uniform loss.
	noisy, err := fab.FaultLink("s0", 1, faultinject.Plan{
		Seed: seed*2 + 1, Drop: 0.06, Corrupt: 0.03, Delay: 0.05, Reorder: 0.08,
	})
	if err != nil {
		return err
	}
	flappy, err := fab.FaultLink("s1", 1, faultinject.Plan{
		Seed: seed*2 + 2, Flap: faultinject.Flap{Period: 2048, Down: 256},
	})
	if err != nil {
		return err
	}
	if err := fab.Start(); err != nil {
		return err
	}
	defer func() { _ = fab.Close() }() // error paths; the report path closes it itself
	entry, mid := nodes[0].Eng, nodes[1].Eng
	// Seeded command loss on the middle node's control plane: every
	// verified reload must recover through the §4.1 counter poll.
	mid.SetReconfigFault(faultinject.New(faultinject.Plan{Seed: seed*2 + 3, Drop: chaosLoss}))

	perBatch := cfg.batch * cfg.workers
	totalBatches := (cfg.packets + perBatch - 1) / perBatch
	schedule := trafficgen.ChaosSchedule(trafficgen.NewPRNG(seed), totalBatches, chaosEvents, chainTenants)
	fmt.Fprintf(out, "chaos: 3-node chain, %d tenants, %d workers/node, %d frames, %.0f%% command loss, %d events\n",
		len(chainTenants), cfg.workers, cfg.packets, chaosLoss*100, len(schedule))

	vopts := engine.VerifyOpts{MaxAttempts: 64, Backoff: 50 * time.Microsecond, MaxBackoff: 2 * time.Millisecond}
	var violations []string
	violatef := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}

	reloads, churns := 0, 0
	var resent, attempts uint64
	next := 0 // next unfired schedule index
	start := time.Now()
	injected, err := injectEntry(ctx, fab, cfg, func(b, _ int) error {
		for ; next < len(schedule) && schedule[next].AtBatch <= b; next++ {
			ev := schedule[next]
			switch ev.Kind {
			case trafficgen.ChaosWeightChurn:
				if _, err := entry.SetEgressWeight(ev.Tenant, ev.Weight); err != nil {
					return err
				}
				churns++
			case trafficgen.ChaosReload:
				if _, err := mid.UnloadModuleLive(ev.Tenant); err != nil {
					return err
				}
				// A reload replays the exact spec that was unloaded
				// (chainTenants are 1..n, so tenant t is spec t-1).
				spec := specs[1][ev.Tenant-1]
				cmds, err := spec.Config.Commands(spec.Placement)
				if err != nil {
					return err
				}
				rctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 30*time.Second)
				_, rep, verr := mid.LoadModuleVerified(rctx, spec, cmds, vopts)
				cancel()
				if verr != nil {
					violatef("verified reload of tenant %d: %v", ev.Tenant, verr)
				}
				resent += uint64(rep.Resent)
				attempts += uint64(rep.Attempts)
				reloads++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	fab.Drain()
	qctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 30*time.Second)
	qerr := fab.QuiesceCtx(qctx)
	cancel()
	if qerr != nil {
		violatef("fabric quiesce: %v", qerr)
	}
	wall := time.Since(start)

	st := fab.Stats()
	counted := st.Accounted()

	fmt.Fprintf(out, "\n--- chaos report (%v) ---\n", wall.Round(time.Millisecond))
	nc, fc := noisy.Counts(), flappy.Counts()
	fmt.Fprintf(out, "noisy link s0->s1:  seen %8d  dropped %6d  corrupted %6d  delayed %6d  reordered %6d\n",
		nc.Seen, nc.Dropped, nc.Corrupted, nc.Delayed, nc.Reordered)
	fmt.Fprintf(out, "flappy link s1->s2: seen %8d  dropped %6d (periodic down windows)\n", fc.Seen, fc.Dropped)
	fmt.Fprintf(out, "frames: injected %d, counted %d (delivered %d, link-faults %d, ring %d, ttl %d, the rest pipeline or egress drops)\n",
		injected, counted, st.Delivered, st.FaultDropped, st.LinkDropped, st.TTLDropped)
	if counted != uint64(injected) {
		violatef("conservation: injected %d but counted %d — %d frames unaccounted for",
			injected, counted, int64(injected)-int64(counted))
	}
	if st.Delivered == 0 {
		violatef("no frames delivered end to end")
	}

	ms := mid.Stats()
	fmt.Fprintf(out, "control plane s1: %d verified reloads, %d weight churns, %d commands re-sent over %d bursts, %d faults injected, %d verify failures\n",
		reloads, churns, resent, attempts, ms.CmdFaultsInjected, ms.VerifyFailures)
	if reloads > 0 {
		if ms.ReconfigRetries == 0 {
			violatef("command loss %.0f%% but zero retry bursts — the fault plan never bit", chaosLoss*100)
		}
		if ms.CmdFaultsInjected == 0 {
			violatef("command loss %.0f%% but zero injected command faults", chaosLoss*100)
		}
	}
	if ms.VerifyFailures != 0 {
		violatef("%d verified reloads exhausted their retry budget", ms.VerifyFailures)
	}

	// Replica parity everywhere: after recovery every shard of every
	// node agrees on every tenant's configuration — no torn replicas.
	for _, n := range nodes {
		if ds := n.Eng.Stats().DegradedWorkers; ds != 0 {
			violatef("node %s: %d shards still degraded after quiesce", n.Name, ds)
		}
		for _, id := range chainTenants {
			var cs0 uint64
			for w := 0; w < n.Eng.Workers(); w++ {
				pipe, err := n.Eng.Pipeline(w)
				if err != nil {
					return err
				}
				if cs := pipe.ModuleChecksum(id); w == 0 {
					cs0 = cs
				} else if cs != cs0 {
					violatef("node %s tenant %d: shard %d checksum %#x != shard 0 %#x (torn replica)",
						n.Name, id, w, cs, cs0)
				}
			}
		}
	}
	if err := fab.Close(); err != nil {
		return err
	}

	if len(violations) > 0 {
		fmt.Fprintf(out, "\nchaos: FAIL — %d invariant violation(s)\n", len(violations))
		for _, v := range violations {
			fmt.Fprintln(out, "  -", v)
		}
		return fmt.Errorf("chaos: %d invariant violation(s)", len(violations))
	}
	fmt.Fprintf(out, "\nchaos: PASS — conservation holds, %d/%d reloads converged with replica parity, no stalls\n",
		reloads, reloads)
	return nil
}
