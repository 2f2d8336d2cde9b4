package sched

import (
	"testing"
	"testing/quick"
)

func TestTokenBucketBasics(t *testing.T) {
	b := NewTokenBucket(10, 5) // 10/s, burst 5
	for i := 0; i < 5; i++ {
		if !b.Take(1, 0) {
			t.Fatalf("burst take %d failed", i)
		}
	}
	if b.Take(1, 0) {
		t.Fatal("empty bucket granted a token")
	}
	// After 0.5 s, 5 tokens accumulate.
	if !b.Take(5, 0.5) {
		t.Fatal("refill failed")
	}
	if b.Take(1, 0.5) {
		t.Fatal("over-refill")
	}
}

func TestTokenBucketCapsAtBurst(t *testing.T) {
	b := NewTokenBucket(1000, 10)
	if b.Take(11, 100) { // long idle still caps at burst
		t.Fatal("bucket exceeded burst depth")
	}
	if !b.Take(10, 100) {
		t.Fatal("full burst should be available")
	}
}

func TestRateLimiterPPS(t *testing.T) {
	r := NewRateLimiter()
	r.SetLimit(1, ModuleLimit{PPS: 100}) // burst 1 (100/100)
	admitted := 0
	for i := 0; i < 50; i++ {
		now := float64(i) * 0.001 // 1 kpps offered
		if r.Allow(1, 100, now) {
			admitted++
		}
	}
	// 50 ms at 100 pps ≈ 5 packets + 1 burst.
	if admitted < 4 || admitted > 8 {
		t.Errorf("admitted = %d, want ~5-6", admitted)
	}
}

func TestRateLimiterBPS(t *testing.T) {
	r := NewRateLimiter()
	r.SetLimit(2, ModuleLimit{BPS: 1e6}) // 1 Mbit/s, burst 12 kbit
	big := 1500                          // 12 kbit frames
	if !r.Allow(2, big, 0) {
		t.Fatal("first MTU frame should pass on burst")
	}
	if r.Allow(2, big, 0) {
		t.Fatal("second immediate MTU frame should exceed the burst")
	}
	if !r.Allow(2, big, 0.012) { // 12 ms refills 12 kbit
		t.Fatal("refilled frame rejected")
	}
}

func TestRateLimiterUnlimitedByDefault(t *testing.T) {
	r := NewRateLimiter()
	for i := 0; i < 1000; i++ {
		if !r.Allow(9, 1500, 0) {
			t.Fatal("unconfigured module limited")
		}
	}
	r.SetLimit(9, ModuleLimit{PPS: 1})
	r.Allow(9, 1500, 0) // spends the one-packet burst
	if r.Allow(9, 1500, 0) {
		t.Fatal("installed limit not enforced")
	}
	r.ClearLimit(9)
	for i := 0; i < 100; i++ {
		if !r.Allow(9, 1500, 0) {
			t.Fatal("cleared module still limited")
		}
	}
}

func TestRateLimiterIsolation(t *testing.T) {
	// Exhausting module 1's allowance must not affect module 2.
	r := NewRateLimiter()
	r.SetLimit(1, ModuleLimit{PPS: 10})
	r.SetLimit(2, ModuleLimit{PPS: 10})
	for i := 0; i < 100; i++ {
		r.Allow(1, 100, 0)
	}
	if !r.Allow(2, 100, 0) {
		t.Fatal("module 2 starved by module 1's excess")
	}
}

func TestRateLimiterRefundsOnBitReject(t *testing.T) {
	// Packet bucket of depth 1; bit bucket of one MTU. A frame rejected
	// by the bit bucket must refund its packet token, or the later small
	// frame (which both buckets can afford) would be wrongly dropped.
	r := NewRateLimiter()
	r.SetLimit(1, ModuleLimit{PPS: 2, BPS: 12000}) // pkt burst = 1
	if !r.Allow(1, 1500, 0) {
		t.Fatal("first frame should pass")
	}
	// t=0.5: packet bucket refills to 1; bit bucket to 6000 bits.
	if r.Allow(1, 1500, 0.5) {
		t.Fatal("MTU frame should be bit-limited at t=0.5")
	}
	if !r.Allow(1, 10, 0.5) {
		t.Fatal("packet token was not refunded on bit reject")
	}
}

// Property: a token bucket never goes negative and never exceeds burst.
func TestQuickBucketInvariant(t *testing.T) {
	f := func(takes []uint8) bool {
		b := NewTokenBucket(100, 50)
		now := 0.0
		for _, n := range takes {
			now += float64(n%10) / 100
			b.Take(float64(n%20), now)
			if b.Tokens() < 0 || b.Tokens() > b.Burst+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Regression (PR 4): re-applying a limit must not reset the bucket to
// a full burst — a tenant could otherwise regain its whole burst by
// re-installing its own limit.
func TestRateLimiterSetLimitPreservesFill(t *testing.T) {
	r := NewRateLimiter()
	r.SetLimit(1, ModuleLimit{PPS: 2}) // burst floor: 1 packet
	if !r.Allow(1, 100, 0) {
		t.Fatal("first frame should pass on the burst")
	}
	r.SetLimit(1, ModuleLimit{PPS: 2}) // re-apply: bucket stays drained
	if r.Allow(1, 100, 0) {
		t.Fatal("re-applying a limit refilled the bucket to full burst")
	}
	if !r.Allow(1, 100, 0.5) { // 0.5 s at 2 pps refills the packet
		t.Fatal("refill after replacement broken")
	}

	// The fraction carries across a changed limit too: a half-full
	// bucket stays half-full at the new burst size.
	r.SetLimit(2, ModuleLimit{PPS: 200}) // burst 2
	if !r.Allow(2, 100, 0) {
		t.Fatal("first frame should pass")
	}
	r.SetLimit(2, ModuleLimit{PPS: 400}) // burst 4, fill fraction 1/2 -> 2 tokens
	if !r.Allow(2, 100, 0) || !r.Allow(2, 100, 0) {
		t.Fatal("carried fill fraction should grant 2 tokens")
	}
	if r.Allow(2, 100, 0) {
		t.Fatal("bucket should be empty after the carried fraction is spent")
	}
}

// Regression (PR 4): ClearLimit prunes the module's buckets, so a limit
// re-installed after an unload starts with a full bucket instead of the
// drained one from the module's previous life (a plain re-apply keeps
// the fill, see TestRateLimiterSetLimitPreservesFill).
func TestRateLimiterClearLimitStartsFull(t *testing.T) {
	r := NewRateLimiter()
	r.SetLimit(5, ModuleLimit{PPS: 1}) // burst floor: 1 packet
	if !r.Allow(5, 100, 0) || r.Allow(5, 100, 0) {
		t.Fatal("setup: the one-packet burst should pass, then the bucket be empty")
	}
	r.ClearLimit(5)
	r.SetLimit(5, ModuleLimit{PPS: 1})
	if !r.Allow(5, 100, 0) {
		t.Error("limit re-installed after ClearLimit inherited the drained bucket")
	}
}
