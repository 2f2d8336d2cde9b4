// Token buckets and the per-module ingress rate limiter; see doc.go for
// the package contract and egress.go for the §3.5 output scheduler.
package sched

import (
	"math"
	"sync"
)

// TokenBucket is a standard token bucket: Rate tokens per second with a
// Burst-sized bucket.
type TokenBucket struct {
	Rate   float64 // tokens per second
	Burst  float64 // bucket depth
	tokens float64
	last   float64 // last update time (seconds)
}

// NewTokenBucket returns a full bucket.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	return &TokenBucket{Rate: rate, Burst: burst, tokens: burst}
}

// Take consumes n tokens at time now; it reports false (consuming
// nothing) if insufficient tokens have accumulated.
func (b *TokenBucket) Take(n, now float64) bool {
	if now > b.last {
		b.tokens = math.Min(b.Burst, b.tokens+(now-b.last)*b.Rate)
		b.last = now
	}
	if n > b.tokens {
		return false
	}
	b.tokens -= n
	return true
}

// Tokens reports the current fill (for tests).
func (b *TokenBucket) Tokens() float64 { return b.tokens }

// ModuleLimit is a module's ingress allowance (§2.1 performance
// isolation: "each module should stay within its allotted ingress packets
// per second and bits per second rates").
type ModuleLimit struct {
	PPS float64 // packets per second (0 = unlimited)
	BPS float64 // bits per second (0 = unlimited)
}

// RateLimiter enforces per-module packet and bit rates at ingress.
type RateLimiter struct {
	mu   sync.Mutex
	pkts map[uint16]*TokenBucket
	bits map[uint16]*TokenBucket
}

// NewRateLimiter returns an empty limiter: unconfigured modules are
// unlimited.
func NewRateLimiter() *RateLimiter {
	return &RateLimiter{
		pkts: make(map[uint16]*TokenBucket),
		bits: make(map[uint16]*TokenBucket),
	}
}

// SetLimit installs (or replaces) a module's allowance. Burst is one
// second's worth, floored at one packet / one MTU. Replacing an
// existing limit carries the bucket's fill *fraction* (and refill
// clock) over to the new bucket: re-applying a limit is not a way to
// regain a full burst.
func (r *RateLimiter) SetLimit(moduleID uint16, lim ModuleLimit) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if lim.PPS > 0 {
		r.pkts[moduleID] = replaceBucket(r.pkts[moduleID], lim.PPS, math.Max(1, lim.PPS/100))
	} else {
		delete(r.pkts, moduleID)
	}
	if lim.BPS > 0 {
		r.bits[moduleID] = replaceBucket(r.bits[moduleID], lim.BPS, math.Max(12000, lim.BPS/100))
	} else {
		delete(r.bits, moduleID)
	}
}

// replaceBucket builds the bucket for a (re)installed limit: full for a
// fresh module, at the old bucket's fill fraction when one exists.
func replaceBucket(old *TokenBucket, rate, burst float64) *TokenBucket {
	b := NewTokenBucket(rate, burst)
	if old != nil && old.Burst > 0 {
		b.tokens = burst * (old.tokens / old.Burst)
		b.last = old.last
	}
	return b
}

// ClearLimit removes a module's allowance and its buckets — the unload
// hook: a later re-install starts with a full bucket instead of
// inheriting the fill of the module's previous life.
func (r *RateLimiter) ClearLimit(moduleID uint16) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.pkts, moduleID)
	delete(r.bits, moduleID)
}

// Allow charges one frame of the given size at time now (seconds) and
// reports whether it is admitted. A frame must fit both buckets; a
// rejection charges neither (no partial debit).
func (r *RateLimiter) Allow(moduleID uint16, frameBytes int, now float64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	pb := r.pkts[moduleID]
	bb := r.bits[moduleID]
	if pb == nil && bb == nil {
		return true
	}
	bitsNeeded := float64(frameBytes * 8)
	// Peek both before charging either.
	if pb != nil && !pb.Take(1, now) {
		return false
	}
	if bb != nil && !bb.Take(bitsNeeded, now) {
		if pb != nil {
			pb.tokens++ // refund the packet token
		}
		return false
	}
	return true
}
