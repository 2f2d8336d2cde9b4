package main

import "time"

// clock reads nanoseconds on a monotonic timeline. Every timestamp in a
// run (due times, deliveries, interval samples) comes from one clock, so
// tests can inject a fake.
type clock func() int64

// monoClock returns a clock counting from now.
func monoClock() clock {
	base := time.Now()
	return func() int64 { return int64(time.Since(base)) }
}

// pacer is an open-loop burst schedule: burst k is due at
// start + k*period no matter how late earlier bursts went out, so a
// stall shows up as lateness (and as latency, which is timed from the
// due time) instead of silently lowering the offered rate.
type pacer struct {
	period int64 // ns between bursts
	next   int64 // due time of the next burst
	last   int64 // when the previous burst actually left

	bursts  uint64 // bursts fired
	late    uint64 // bursts fired more than one period after their due time
	maxLate int64  // worst lateness seen, ns
}

// newPacer schedules bursts of burst frames at ratePPS frames per
// second, the first one due at start.
func newPacer(start int64, ratePPS float64, burst int) *pacer {
	period := int64(float64(burst) / ratePPS * 1e9)
	return &pacer{period: period, next: start, last: start - period}
}

// due is when the next burst should go out.
func (p *pacer) due() int64 { return p.next }

// catchUpFactor caps how fast overdue bursts are replayed after the
// generator itself was stalled (descheduled by the host): at most this
// many times the nominal rate. A hardware-paced generator cannot burst
// at all; without the cap a 50 ms hiccup of this thread would arrive at
// the engine as one 5000-frame line-rate burst and overflow a ring that
// the offered rate never would. Latency is still timed from each
// burst's original due time, so the stall is not hidden.
const catchUpFactor = 4

// spin busy-waits until the next burst may go out — its due time, or
// period/catchUpFactor after the previous burst when running behind —
// and returns its due time. Sleeping would hand the core to the
// scheduler for at least tens of microseconds, longer than a burst
// period at the rates used here.
func (p *pacer) spin(now clock) int64 {
	at := max(p.next, p.last+p.period/catchUpFactor)
	for now() < at {
	}
	return p.next
}

// fired records that the burst due at p.due() left at sentAt and
// advances the schedule by exactly one period.
func (p *pacer) fired(sentAt int64) {
	lateBy := sentAt - p.next
	if lateBy > p.period {
		p.late++
	}
	if lateBy > p.maxLate {
		p.maxLate = lateBy
	}
	p.bursts++
	p.next += p.period
	p.last = sentAt
}

// lateFrac is the share of bursts sent more than one period late.
func (p *pacer) lateFrac() float64 {
	if p.bursts == 0 {
		return 0
	}
	return float64(p.late) / float64(p.bursts)
}
