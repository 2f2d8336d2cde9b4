// White-box tests of the hand-off ring (ring.go): the multi-producer
// protocol under contention and the edge arithmetic (prefix
// reservations, non-power-of-two depths, position wrap-around, the seal).
// CI runs them under -race at -cpu 1,2,4. No wall-clock assertions.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// nearWrap is a starting position 37 frames short of the 64-bit wrap,
// so a test that moves more than that many frames crosses it.
const nearWrap = ^uint64(0) - 2*37 + 1

// ringAt returns an empty ring whose (doubled) positions start at the
// given value instead of zero.
func ringAt(depth int, start uint64) *ring {
	r := newRing(1, depth)
	r.tail.Store(start)
	r.head.Store(start)
	return r
}

// TestRingMPSC: several producers offer batches of varying size to one
// ring while a deliberately slow consumer pops a few frames at a time.
// Every accepted frame must come out exactly once, each producer's
// frames in the order it offered them, and accepted + rejected must
// equal offered — across the position wrap-around.
func TestRingMPSC(t *testing.T) {
	// Each producer keeps offering until quota of its frames are in, so
	// the consumer has to run for the producers to finish: a consumer the
	// scheduler holds back cannot turn the run into 1 600 refusals.
	const producers, quota, depth = 4, 1000, 24 // depth 24 lives in 32 slots
	r := ringAt(depth, nearWrap)

	var offered, accepted, rejected atomic.Uint64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			seq := uint64(0) // next sequence number this producer assigns to an accepted frame
			for b := 0; seq < quota; b++ {
				n := 1 + (b+p)%7
				offered.Add(uint64(n))
				first, k, sealed := r.reserve(n)
				if sealed {
					t.Error("reserve reported a seal nobody set")
					return
				}
				for x := 0; x < k; x++ {
					// aux carries (producer, sequence); buf is a one-byte tag
					// so a nil pop would be visible.
					r.fill(first, x, []byte{byte(p)}, uint64(p)<<32|seq)
					seq++
				}
				if k > 0 {
					r.publish(first, k)
				}
				accepted.Add(uint64(k))
				rejected.Add(uint64(n - k))
				if k < n {
					runtime.Gosched() // full: let the consumer in
				}
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	next := make([]uint64, producers) // per producer: the sequence number expected next
	var popped uint64
	bufs, aux := make([][]byte, 3), make([]uint64, 3)
	consume := func() int {
		n := r.pop(bufs, aux)
		for i := 0; i < n; i++ {
			p, seq := int(aux[i]>>32), aux[i]&0xffffffff
			if len(bufs[i]) != 1 || int(bufs[i][0]) != p {
				t.Fatalf("popped frame %d: buffer %v does not match producer %d", popped, bufs[i], p)
			}
			if seq != next[p] {
				t.Fatalf("producer %d: popped sequence %d, want %d (lost, duplicated or reordered)", p, seq, next[p])
			}
			next[p]++
			popped++
		}
		return n
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		consume()
		runtime.Gosched() // the slow consumer: a few frames per turn
	}
	for consume() > 0 {
	}

	if got, want := accepted.Load()+rejected.Load(), offered.Load(); got != want {
		t.Errorf("accepted %d + rejected %d = %d, want offered %d", accepted.Load(), rejected.Load(), got, want)
	}
	if popped != accepted.Load() {
		t.Errorf("popped %d frames, accepted %d", popped, accepted.Load())
	}
	if accepted.Load() == 0 || popped <= 37 {
		t.Errorf("only %d frames moved: the test never crossed the wrap", popped)
	}
	if r.len() != 0 || r.ready() {
		t.Errorf("ring not empty at the end: len %d, ready %v", r.len(), r.ready())
	}
}

// TestRingReservePrefix: a reservation larger than the free space gets
// the prefix that fits, a full ring refuses without side effects, and
// the capacity is the configured depth even when the slot array was
// rounded up to a power of two.
func TestRingReservePrefix(t *testing.T) {
	for _, start := range []uint64{0, nearWrap, ^uint64(0) - 1} {
		r := ringAt(6, start) // 6 frames in 8 slots
		fill := func(first uint64, k int) {
			for x := 0; x < k; x++ {
				r.fill(first, x, []byte{1}, first+2*uint64(x))
			}
			r.publish(first, k)
		}
		first, k, _ := r.reserve(4)
		if k != 4 {
			t.Fatalf("start %#x: reserve(4) on an empty ring got %d", start, k)
		}
		fill(first, k)
		first, k, _ = r.reserve(5)
		if k != 2 {
			t.Fatalf("start %#x: reserve(5) with 2 free got %d, want the prefix 2", start, k)
		}
		fill(first, k)
		tail := r.tail.Load()
		if _, k, sealed := r.reserve(1); k != 0 || sealed {
			t.Fatalf("start %#x: reserve on a full ring got %d (sealed %v)", start, k, sealed)
		}
		if r.tail.Load() != tail {
			t.Errorf("start %#x: a refused reservation moved the tail", start)
		}
		if !r.full() || r.len() != 6 {
			t.Errorf("start %#x: full %v len %d, want true 6", start, r.full(), r.len())
		}
		bufs, aux := make([][]byte, 2), make([]uint64, 2)
		if n := r.pop(bufs, aux); n != 2 || aux[0] != start || aux[1] != start+2 {
			t.Fatalf("start %#x: pop got %d frames, aux %#x", start, n, aux)
		}
		if _, k, _ = r.reserve(5); k != 2 {
			t.Errorf("start %#x: reserve(5) after popping 2 got %d", start, k)
		}
	}
}

// TestRingUnpublishedHead: a reserved slot that has not been published
// blocks the frames behind it (FIFO) without making the ring look empty.
func TestRingUnpublishedHead(t *testing.T) {
	r := ringAt(8, nearWrap)
	a, _, _ := r.reserve(1) // producer A reserves, stalls
	b, _, _ := r.reserve(1) // producer B reserves and publishes
	r.fill(b, 0, []byte{2}, 2)
	r.publish(b, 1)
	bufs, aux := make([][]byte, 4), make([]uint64, 4)
	if r.ready() || r.pop(bufs, aux) != 0 {
		t.Fatal("popped past an unpublished slot")
	}
	if r.len() != 2 {
		t.Errorf("len %d with two reserved slots, want 2", r.len())
	}
	r.fill(a, 0, []byte{1}, 1)
	r.publish(a, 1)
	if n := r.pop(bufs, aux); n != 2 || aux[0] != 1 || aux[1] != 2 {
		t.Errorf("pop after the publish got %d frames, aux %v; want 1 then 2", n, aux[:n])
	}
}

// TestRingSeal: a sealed ring refuses producers but still hands over
// what was reserved before the seal.
func TestRingSeal(t *testing.T) {
	r := ringAt(4, nearWrap)
	first, k, _ := r.reserve(2)
	r.seal()
	if _, got, sealed := r.reserve(1); got != 0 || !sealed {
		t.Fatalf("reserve on a sealed ring got %d, sealed %v", got, sealed)
	}
	if r.full() {
		t.Error("a sealed ring reports full: a blocked producer would wait forever")
	}
	if r.len() != 2 {
		t.Errorf("len %d after the seal, want the 2 reserved", r.len())
	}
	for x := 0; x < k; x++ {
		r.fill(first, x, []byte{1}, uint64(x))
	}
	r.publish(first, k)
	bufs, aux := make([][]byte, 4), make([]uint64, 4)
	if n := r.pop(bufs, aux); n != 2 || r.len() != 0 {
		t.Errorf("popped %d of the 2 pre-seal frames, len now %d", n, r.len())
	}
}
