// Hand-off ring: one bounded lock-free multi-producer/single-consumer
// FIFO per tenant per worker. Who owns which word, and why publish/park
// cannot lose a wake-up, is argued once in doc.go ("Hand-off").
package engine

import (
	"maps"
	"sync/atomic"
)

// sealBit in ring.tail closes the ring to producers (shutdown). Ring
// positions are kept doubled — frame number p is at position 2p — so
// that bit is free and the arithmetic still wraps cleanly at 2^64.
const sealBit = 1

// slot is one ring entry: the frame buffer and its packed out-of-band
// word (meta<<8 | ingress port), both plain — and run, which publishes
// them: a producer that has filled the k slots of its reservation
// stores k into the first one's run. Every other slot's run is zero (the
// worker zeroes a run head when it takes the run), so a non-zero run
// under the head can only be this lap's.
type slot struct {
	run atomic.Uint64
	aux uint64
	buf []byte
}

// ring is one tenant's RX queue on one worker. Producers reserve a run
// of slots with one CAS on tail, fill them, and publish the run with
// one atomic store; the worker pops published runs and releases the
// slots with one store of head. Neither side ever waits for the other
// here — a full ring is the producer's to detect, from tail and head
// alone.
type ring struct {
	tenant uint16
	depth  uint64 // capacity in frames (Config.QueueDepth)
	mask   uint64 // len(slots)-1; len(slots) is depth rounded up to a power of two
	slots  []slot
	// paused is the tenant fence: a paused ring keeps accepting frames
	// but the worker skips it. Written by the worker's control pass (and
	// by the creator before the ring is shared).
	paused atomic.Bool

	_ [64]byte
	// tail is the next position to reserve, plus sealBit. Producers CAS
	// it; the worker ORs the seal in at shutdown.
	tail atomic.Uint64
	_    [64]byte
	// head is the next position to pop. Only the worker stores it;
	// producers load it to learn how much room there is.
	head atomic.Uint64
	// avail is how many frames from head on belong to a run the worker
	// has already taken but not finished popping. Worker goroutine only.
	avail int
	_     [64]byte
}

func newRing(tenant uint16, depth int) *ring {
	n := 1
	for n < depth {
		n <<= 1
	}
	return &ring{tenant: tenant, depth: uint64(depth), mask: uint64(n - 1), slots: make([]slot, n)}
}

// reserve claims up to n consecutive slots and returns the first one's
// position and how many it got: fewer than n when the ring is nearly
// full, none when it is full or sealed. A refusal costs two loads and
// writes nothing anyone else reads. The caller must fill and publish
// what it reserved: the frames behind it wait for that.
//
// tail is loaded before head on purpose: head only grows, so the room
// computed is never more than the room there is when the CAS lands,
// and "full" means the ring was full when tail was read.
//
//menshen:hotpath
func (r *ring) reserve(n int) (first uint64, got int, sealed bool) {
	for {
		t := r.tail.Load()
		if t&sealBit != 0 {
			return 0, 0, true
		}
		used := (t - r.head.Load()) >> 1
		if used > r.depth {
			continue // head overtook the tail we read: it is stale, reload
		}
		k := min(uint64(n), r.depth-used)
		if k == 0 {
			return 0, 0, false
		}
		if r.tail.CompareAndSwap(t, t+2*k) {
			return t, int(k), false
		}
	}
}

// fill writes the i-th slot of a reservation that starts at first.
//
//menshen:hotpath
func (r *ring) fill(first uint64, i int, buf []byte, aux uint64) {
	s := &r.slots[(first>>1+uint64(i))&r.mask]
	s.buf, s.aux = buf, aux
}

// publish hands the k filled slots from first on to the worker.
//
//menshen:hotpath
func (r *ring) publish(first uint64, k int) {
	r.slots[(first>>1)&r.mask].run.Store(uint64(k))
}

// ready reports whether pop would return at least one frame.
//
//menshen:hotpath
func (r *ring) ready() bool {
	return r.avail > 0 || r.slots[(r.head.Load()>>1)&r.mask].run.Load() != 0
}

// pop moves up to len(bufs) published frames into bufs/aux, in order,
// and frees their slots. Worker goroutine only.
//
//menshen:hotpath
func (r *ring) pop(bufs [][]byte, aux []uint64) int {
	h := r.head.Load() >> 1
	n := 0
	for n < len(bufs) {
		if r.avail == 0 {
			run := &r.slots[(h+uint64(n))&r.mask].run
			k := run.Load()
			if k == 0 {
				break // the next run is not published yet
			}
			run.Store(0)
			r.avail = int(k)
		}
		for ; r.avail > 0 && n < len(bufs); n++ {
			s := &r.slots[(h+uint64(n))&r.mask]
			bufs[n], aux[n] = s.buf, s.aux
			s.buf = nil
			r.avail--
		}
	}
	if n > 0 {
		r.head.Store((h + uint64(n)) << 1)
	}
	return n
}

// len is the ring's occupancy, reserved-but-unpublished slots included.
// head is loaded first so that a concurrent reader never sees it past
// the tail it pairs it with.
//
//menshen:hotpath
func (r *ring) len() int {
	h := r.head.Load()
	return int((r.tail.Load()&^sealBit - h) >> 1)
}

// full reports whether a blocking producer should keep waiting: no
// room, and not sealed (a sealed ring is the producer's cue to give up).
func (r *ring) full() bool {
	t := r.tail.Load()
	return t&sealBit == 0 && (t-r.head.Load())>>1 == r.depth
}

// seal closes the ring to producers; slots reserved before the seal
// are still published and popped.
func (r *ring) seal() { r.tail.Or(sealBit) }

// ringSet is an immutable snapshot of a worker's rings: replaced whole
// (under worker.mu) when a tenant's first frame arrives, read with one
// atomic load by everyone else.
type ringSet struct {
	byTenant map[uint16]*ring
	order    []*ring // round-robin service order
}

// with returns a copy of the set with r added.
func (s *ringSet) with(r *ring) *ringSet {
	n := &ringSet{byTenant: maps.Clone(s.byTenant), order: append(s.order[:len(s.order):len(s.order)], r)}
	if n.byTenant == nil {
		n.byTenant = make(map[uint16]*ring, 1)
	}
	n.byTenant[r.tenant] = r
	return n
}
