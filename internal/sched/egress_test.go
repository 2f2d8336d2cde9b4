package sched

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// checkMinMax walks the heap and fails on any violated min-max
// invariant: an entry on a min level must not sort after any
// descendant, one on a max level must not sort before any descendant.
func checkMinMax(t *testing.T, q *EgressQueue) {
	t.Helper()
	h := q.heap
	var walk func(root, i int, min bool)
	walk = func(root, i int, min bool) {
		if i >= len(h) {
			return
		}
		if i != root {
			if min && egressLess(&h[i], &h[root]) {
				t.Fatalf("min-level entry %d (rank %v) has smaller descendant %d (rank %v)",
					root, h[root].Rank, i, h[i].Rank)
			}
			if !min && egressLess(&h[root], &h[i]) {
				t.Fatalf("max-level entry %d (rank %v) has larger descendant %d (rank %v)",
					root, h[root].Rank, i, h[i].Rank)
			}
		}
		walk(root, 2*i+1, min)
		walk(root, 2*i+2, min)
	}
	for i := range h {
		walk(i, i, onMinLevel(i))
	}
}

func TestEgressQueueRankOrderDrain(t *testing.T) {
	q := NewEgressQueue(0)
	if err := q.SetWeight(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := q.SetWeight(2, 1); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 300)
	for i := 0; i < 60; i++ {
		if _, _, ok := q.Push(1, 0, frame, 0); !ok {
			t.Fatal("unbounded push rejected")
		}
		if _, _, ok := q.Push(2, 0, frame, 0); !ok {
			t.Fatal("unbounded push rejected")
		}
	}
	// Drain half: with both tenants backlogged, rank order yields ~3:1.
	counts := map[uint16]int{}
	prev := math.Inf(-1)
	for i := 0; i < 60; i++ {
		it, ok := q.Pop()
		if !ok {
			t.Fatal("drained early")
		}
		if it.Rank < prev {
			t.Fatalf("pop %d: rank %v below previous %v", i, it.Rank, prev)
		}
		prev = it.Rank
		counts[it.Tenant]++
	}
	ratio := float64(counts[1]) / float64(counts[2])
	if math.Abs(ratio-3) > 0.3 {
		t.Errorf("drain ratio = %.2f (%v), want ~3", ratio, counts)
	}
}

func TestEgressQueueWorkConserving(t *testing.T) {
	// A registered but idle heavy tenant reserves nothing: the sole
	// backlogged tenant gets the whole link, whatever its weight.
	q := NewEgressQueue(0)
	_ = q.SetWeight(1, 1)
	_ = q.SetWeight(2, 100)
	frame := make([]byte, 100)
	for i := 0; i < 10; i++ {
		q.Push(1, 0, frame, 0)
	}
	for i := 0; i < 10; i++ {
		if it, ok := q.Pop(); !ok || it.Tenant != 1 {
			t.Fatal("sole backlogged tenant starved")
		}
	}
}

func TestEgressQueueFIFOWithinEqualRank(t *testing.T) {
	// Distinct tenants all start idle: every first frame gets rank 0
	// (virtual time), so pops must come back in push order.
	q := NewEgressQueue(0)
	frame := make([]byte, 100)
	for tenant := uint16(1); tenant <= 8; tenant++ {
		if _, _, ok := q.Push(tenant, 0, frame, 0); !ok {
			t.Fatal("push rejected")
		}
	}
	for want := uint16(1); want <= 8; want++ {
		it, ok := q.Pop()
		if !ok || it.Tenant != want {
			t.Fatalf("equal ranks must drain FIFO: got tenant %d, want %d", it.Tenant, want)
		}
		if it.Rank != 0 {
			t.Fatalf("first idle-tenant frame ranked %v, want 0", it.Rank)
		}
	}
}

func TestEgressQueuePushOutEvictsWorst(t *testing.T) {
	q := NewEgressQueue(4)
	_ = q.SetWeight(1, 1)
	_ = q.SetWeight(2, 1)
	frame := make([]byte, 100)
	// Tenant 2 fills the queue: its 4 frames rank 0,100,200,300.
	for i := 0; i < 4; i++ {
		if _, ev, ok := q.Push(2, 0, frame, 0); !ok || ev {
			t.Fatalf("fill push %d: accepted=%v evicted=%v", i, ok, ev)
		}
	}
	// Tenant 1 is idle, so its frame ranks 0 — it must displace tenant
	// 2's worst (rank 300), not be tail-dropped.
	ev, hasEv, ok := q.Push(1, 0, frame, 0)
	if !ok || !hasEv {
		t.Fatalf("in-share push: accepted=%v evicted=%v", ok, hasEv)
	}
	if ev.Tenant != 2 || ev.Rank != 300 {
		t.Fatalf("evicted tenant %d rank %v, want tenant 2 rank 300", ev.Tenant, ev.Rank)
	}
	// The eviction refunded tenant 2's charge: its next accepted frame
	// restarts at the evicted rank, not at 400.
	q2 := *q // shallow probe via a second push
	_ = q2
	if lf := q.lastFinish[2]; lf != 300 {
		t.Fatalf("lastFinish[2] = %v after eviction, want refunded 300", lf)
	}
	checkMinMax(t, q)
}

func TestEgressQueueRejectDoesNotCharge(t *testing.T) {
	q := NewEgressQueue(2)
	_ = q.SetWeight(1, 1)
	frame := make([]byte, 100)
	for i := 0; i < 2; i++ {
		if _, _, ok := q.Push(1, 0, frame, 0); !ok {
			t.Fatal("fill push rejected")
		}
	}
	lfBefore := q.lastFinish[1]
	// The queue is full and every new frame of tenant 1 ranks worst
	// (its own frames are the whole queue): all rejected, none charged.
	for i := 0; i < 50; i++ {
		if _, hasEv, ok := q.Push(1, 0, frame, 0); ok || hasEv {
			t.Fatalf("over-limit push %d: accepted=%v evicted=%v", i, ok, hasEv)
		}
	}
	if q.lastFinish[1] != lfBefore {
		t.Fatalf("rejected frames charged virtual time: lastFinish %v -> %v",
			lfBefore, q.lastFinish[1])
	}
	// After draining one, the next push lands at the pre-reject finish.
	it, _ := q.Pop()
	if _, _, ok := q.Push(1, 0, frame, 0); !ok {
		t.Fatal("post-drain push rejected")
	}
	// it.Rank = 0 was the first frame; the new frame's rank must be the
	// old finish (200), not 200 + 50*100 worth of phantom charges.
	if got := q.heap[q.maxIndex()].Rank; got != lfBefore {
		t.Fatalf("post-reject rank = %v, want %v (no phantom charges)", got, lfBefore)
	}
	_ = it
}

func TestEgressQueueClearTenant(t *testing.T) {
	q := NewEgressQueue(0)
	_ = q.SetWeight(7, 2)
	frame := make([]byte, 500)
	for i := 0; i < 10; i++ {
		q.Push(7, 0, frame, 0)
	}
	if _, ok := q.Weight(7); !ok {
		t.Fatal("weight not recorded")
	}
	q.ClearTenant(7)
	if _, ok := q.Weight(7); ok {
		t.Fatal("weight survived ClearTenant")
	}
	if _, ok := q.lastFinish[7]; ok {
		t.Fatal("lastFinish survived ClearTenant: a re-loaded tenant would inherit it")
	}
	// A "re-loaded" tenant starts from virtual time, not from its old
	// finish (which had reached 10*500/2 = 2500).
	_ = q.SetWeight(7, 2)
	if _, _, ok := q.Push(7, 0, frame, 0); !ok {
		t.Fatal("push rejected")
	}
	if got, want := q.lastFinish[7], q.vtime+500.0/2; got != want {
		t.Fatalf("re-loaded tenant finish = %v, want fresh %v", got, want)
	}
}

func TestEgressQueueImplicitWeightOne(t *testing.T) {
	// Tenants without SetWeight schedule at weight 1: two unconfigured
	// tenants split the drain evenly.
	q := NewEgressQueue(0)
	frame := make([]byte, 100)
	for i := 0; i < 50; i++ {
		q.Push(1, 0, frame, 0)
		q.Push(2, 0, frame, 0)
	}
	counts := map[uint16]int{}
	for i := 0; i < 50; i++ {
		it, _ := q.Pop()
		counts[it.Tenant]++
	}
	if diff := counts[1] - counts[2]; diff < -2 || diff > 2 {
		t.Errorf("implicit-weight drain split %v, want ~even", counts)
	}
}

func TestEgressQueueInvalidWeight(t *testing.T) {
	q := NewEgressQueue(0)
	for _, w := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if err := q.SetWeight(1, w); err == nil {
			t.Errorf("weight %v accepted", w)
		}
	}
}

// TestEgressQueueHeapProperty drives random weighted pushes with a
// small bound through many push-out cycles and checks, continuously,
// the min-max invariant, the bound, and that drains are monotone.
func TestEgressQueueHeapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		limit := 1 + rng.Intn(33)
		q := NewEgressQueue(limit)
		for tenant := uint16(1); tenant <= 5; tenant++ {
			_ = q.SetWeight(tenant, float64(1+rng.Intn(8)))
		}
		for op := 0; op < 500; op++ {
			if rng.Intn(3) != 0 {
				frame := make([]byte, 60+rng.Intn(1400))
				q.Push(uint16(1+rng.Intn(5)), 0, frame, 0)
			} else {
				q.Pop()
			}
			if q.Len() > limit {
				t.Fatalf("trial %d: len %d exceeds limit %d", trial, q.Len(), limit)
			}
			checkMinMax(t, q)
		}
		// Full drain is sorted by (rank, seq).
		var ranks []float64
		for {
			it, ok := q.Pop()
			if !ok {
				break
			}
			ranks = append(ranks, it.Rank)
		}
		if !sort.Float64sAreSorted(ranks) {
			t.Fatalf("trial %d: drain not rank-sorted: %v", trial, ranks)
		}
	}
}

// The egress queue's zero-allocation pin lives in the "egress-queue"
// entry of TestHotPathZeroAlloc (hotpath_alloc_test.go at the module
// root), keyed to this package's //menshen:hotpath annotations.

// BenchmarkEgressQueue measures the worker-TX fast path: one weighted
// push (with push-out at the bound) plus one pop per iteration.
func BenchmarkEgressQueue(b *testing.B) {
	q := NewEgressQueue(256)
	for m := uint16(1); m <= 8; m++ {
		if err := q.SetWeight(m, float64(m)); err != nil {
			b.Fatal(err)
		}
	}
	frame := make([]byte, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(uint16(i%8+1), 0, frame, 0)
		q.Pop()
	}
}
