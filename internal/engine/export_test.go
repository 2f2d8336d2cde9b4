package engine

import (
	"sync/atomic"

	"repro/internal/reconfig"
)

// Test-only exports: internals the external test package (engine_test)
// exercises directly. engine_test exists so tests can import packages
// that themselves import engine (trafficgen, ingress) without an
// import cycle.
var Steer = steer

// ApplyUnverified fans cmds out to every shard as one burst over the
// installed fault plan and re-sends nothing: each command meets its
// own fate on each shard, so a shard can miss any subset of the burst.
// It is the bare wire under ApplyVerified's delivery protocol.
func (e *Engine) ApplyUnverified(moduleID uint16, cmds []reconfig.Command) (uint64, error) {
	ops := make([]shardOp, len(cmds))
	for i, c := range cmds {
		// A burst of one per command, so no loss holds back the next.
		b := &burstState{progress: make([]atomic.Uint32, len(e.workers))}
		ops[i] = shardOp{kind: opApply, tenant: moduleID, cmd: c, burst: b}
	}
	return e.issue(e.cmdFault.Load(), ops...)
}
