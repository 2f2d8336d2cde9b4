package engine

import (
	"context"
	"sync/atomic"

	"repro/internal/reconfig"
)

// Test-only exports: internals the external test package (engine_test)
// exercises directly. engine_test exists so tests can import packages
// that themselves import engine (trafficgen, ingress) without an
// import cycle.
var Steer = steer

// ApplyUnverified fans cmds out to every shard in one generation over
// the installed fault plan and re-sends nothing: each command meets its
// own fate on each shard, so a shard can miss any subset of cmds.
// It is the bare wire under ApplyVerified's delivery protocol.
func (e *Engine) ApplyUnverified(moduleID uint16, cmds []reconfig.Command) (uint64, error) {
	ops := make([]shardOp, len(cmds))
	for i := range cmds {
		// A burst of one per command, so no loss holds back the next.
		b := &burstState{progress: make([]atomic.Uint32, len(e.workers)), cmds: cmds[i : i+1]}
		ops[i] = shardOp{kind: opApply, tenant: moduleID, burst: b, hi: 1}
	}
	return e.issue(e.cmdFault.Load(), ops...)
}

// Burst is a verified burst the tests drive one deliver call at a time.
type Burst struct{ b *burstState }

// NewBurst returns a burst of cmds that applies as it is delivered, as
// ApplyVerified's does.
func (e *Engine) NewBurst(cmds []reconfig.Command) Burst {
	return Burst{&burstState{progress: make([]atomic.Uint32, len(e.workers)), cmds: cmds}}
}

// Deliver runs the §4.1 loop over b, from its slowest shard's progress.
func (e *Engine) Deliver(ctx context.Context, moduleID uint16, b Burst, opts VerifyOpts) (uint64, VerifyReport, error) {
	return e.deliver(ctx, moduleID, opts, b.b)
}

// Progress returns each shard's contiguously delivered command count.
func (b Burst) Progress() []int {
	p := make([]int, len(b.b.progress))
	for w := range p {
		p[w] = int(b.b.progress[w].Load())
	}
	return p
}
