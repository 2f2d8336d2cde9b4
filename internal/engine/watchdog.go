// Worker stall watchdog (Config.StallTimeout): the liveness half of
// the reliability layer. Workers bump a per-shard progress counter at
// every service point — a pure atomic add, no clock reads on the hot
// path — and the watchdog goroutine samples it on a coarse tick. A
// shard with pending work (queued frames, control operations, an
// egress backlog, or a batch stuck inside a callback) whose counter
// stops for StallTimeout is flagged stalled: the engine counts a
// degraded event, Stats reports the shard until it moves again, and
// quiesce waiters blocked behind it fail fast with ErrDegraded instead
// of hanging forever.
package engine

import "time"

// watchdog runs until stop closes, sampling worker progress every
// quarter StallTimeout (at least 1ms).
func (e *Engine) watchdog(stop chan struct{}) {
	timeout := e.cfg.StallTimeout
	interval := timeout / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	type obs struct {
		progress uint64
		at       time.Time
	}
	last := make([]obs, len(e.workers))
	now := time.Now()
	for i, w := range e.workers {
		last[i] = obs{progress: w.progress.Load(), at: now}
		w.lastProgressNano.Store(now.UnixNano())
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		now := time.Now()
		changed := false
		anyStalled := false
		for i, w := range e.workers {
			p := w.progress.Load()
			if p != last[i].progress {
				last[i] = obs{progress: p, at: now}
				w.lastProgressNano.Store(now.UnixNano())
				if w.stalled.CompareAndSwap(true, false) {
					changed = true // recovered: wake waiters to re-check
				}
				continue
			}
			if w.stalled.Load() {
				anyStalled = true
				continue
			}
			if now.Sub(last[i].at) < timeout || !w.workPending() {
				continue
			}
			// Re-sample after the pending check: progress made while we
			// were looking is not a stall.
			if w.progress.Load() != p {
				continue
			}
			w.stalled.Store(true)
			e.tel.degradedEvents.Add(1)
			changed = true
			anyStalled = true
		}
		if changed || anyStalled {
			// Stall state feeds AwaitQuiesceCtx's bail-out check; flip
			// events must wake the cond like applied-generation changes
			// do — and while any shard stays flagged, every tick
			// broadcasts so waiters can confirm (or retract) a stall
			// against the shard's frozen progress counter.
			e.ctrl.qmu.Lock()
			e.ctrl.qcond.Broadcast()
			e.ctrl.qmu.Unlock()
		}
	}
}

// workPending reports whether the shard has anything to do: control
// operations issued but not applied, an in-flight batch (busy covers a
// batch stuck inside OnBatch), an egress backlog, or queued frames.
// All of it is atomic loads; the watchdog never touches a worker lock.
func (w *worker) workPending() bool {
	return w.opsQueued.Load() != 0 || w.busy.Load() || w.egBacklog.Load() > 0 || w.pending() > 0
}
