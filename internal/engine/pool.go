// Buffer pool: size-classed frame buffers recycled across batches, so
// the steady-state ingress path allocates nothing. Every buffer queued
// on a ring is engine-owned — either a pooled copy of a caller's frame
// (Submit/SubmitBatch) or a caller-relinquished buffer (SubmitOwned) —
// which is what makes in-place deparsing sound: no one but the owning
// worker can touch the bytes while a batch runs.
package engine

import (
	"sync"
	"sync/atomic"
)

// Size classes are powers of two from 64 B (minimum Ethernet frame) to
// 64 KiB; larger buffers bypass the pool.
const (
	poolMinShift = 6  // 64 B
	poolMaxShift = 16 // 64 KiB
	poolClasses  = poolMaxShift - poolMinShift + 1

	// poolStash bounds how many buffers a submitter's local stash grabs
	// from a class per refill (see poolStasher): one class lock then
	// amortizes across up to a batch of frames.
	poolStash = 64
)

// Pool is a size-classed frame-buffer freelist. A mutex-guarded stack
// per class (rather than sync.Pool) keeps the path strictly
// allocation-free: sync.Pool would box every []byte header on Put, and
// the zero-alloc guarantee is the point of the pool. The per-frame
// paths amortize the lock: submitters refill a local stash (one lock
// per ~batch), workers release whole batches per class run.
//
// Each Engine owns a private Pool by default. A Pool built with
// NewPool and passed to several engines via Config.Pool is shared:
// buffers handed between engines with ForwardBatch then circulate
// through one freelist, so a fabric whose frames are injected at one
// node and delivered at another stays allocation-free in steady state
// (with private pools the ingress node would allocate forever while
// the egress node discarded forever).
type Pool struct {
	classes [poolClasses]poolClass
	// limit bounds how many idle buffers each class retains; overflow
	// is dropped for the GC. The engine grows it alongside its own
	// worst-case in-flight set — a base of batches and stashes plus one
	// ring's depth for every per-tenant ring a worker creates (see
	// worker.addRing) — so a full drain-and-refill cycle, where the
	// workers hand the entire in-flight set back at once, stays
	// allocation-free instead of oscillating between dropping and
	// reallocating buffers.
	limit  atomic.Int64
	hits   atomic.Uint64 // gets served from the pool
	misses atomic.Uint64 // gets that had to allocate
}

// NewPool returns an empty pool for sharing between engines (see
// Config.Pool). Its retention limit starts at zero and grows as each
// engine using it accounts for its own worst-case in-flight buffer set.
func NewPool() *Pool { return new(Pool) }

// grow raises the idle-retention limit by n buffers per class.
func (p *Pool) grow(n int) { p.limit.Add(int64(n)) }

type poolClass struct {
	mu   sync.Mutex
	bufs [][]byte
}

// classFor returns the smallest class index whose buffers hold n bytes,
// or -1 when n exceeds the largest class.
func classFor(n int) int {
	c := 0
	for size := 1 << poolMinShift; c < poolClasses; c, size = c+1, size<<1 {
		if n <= size {
			return c
		}
	}
	return -1
}

// get returns a buffer with len n. The contents are unspecified (the
// caller overwrites them).
//
//menshen:hotpath
func (p *Pool) get(n int) []byte {
	c := classFor(n)
	if c >= 0 {
		pc := &p.classes[c]
		pc.mu.Lock()
		if last := len(pc.bufs) - 1; last >= 0 {
			b := pc.bufs[last]
			pc.bufs[last] = nil
			pc.bufs = pc.bufs[:last]
			pc.mu.Unlock()
			p.hits.Add(1)
			return b[:n]
		}
		pc.mu.Unlock()
		p.misses.Add(1)
		return make([]byte, n, 1<<(poolMinShift+c)) //menshen:allocok miss path: the whole point of the pool is that steady state hits
	}
	p.misses.Add(1)
	return make([]byte, n) //menshen:allocok oversized request, outside every retention class
}

// putClass returns the retention class for a buffer, or -1 to drop it.
// Buffers from outside the pool (SubmitOwned callers may hand over
// anything) are filed under the largest class their capacity can serve;
// undersized ones are dropped for the GC.
func putClass(b []byte) int {
	n := cap(b)
	if n < 1<<poolMinShift {
		return -1
	}
	c := classFor(n)
	if c < 0 {
		return poolClasses - 1
	}
	if 1<<(poolMinShift+c) > n {
		// cap is not an exact class size: file one class down so a
		// future get never receives a buffer too small for its class.
		c--
	}
	return c
}

// put recycles one buffer.
//
//menshen:hotpath
func (p *Pool) put(b []byte) {
	c := putClass(b)
	if c < 0 {
		return
	}
	pc := &p.classes[c]
	limit := int(p.limit.Load())
	pc.mu.Lock()
	if len(pc.bufs) < limit {
		pc.bufs = append(pc.bufs, b[:cap(b)]) //menshen:allocok freelist growth, bounded by the pool limit
	}
	pc.mu.Unlock()
}

// putAll recycles a batch of buffers, taking each class lock once per
// same-class run (in practice: once per batch, since one batch's frames
// come from one tenant's traffic). Entries are nilled out.
//
//menshen:hotpath
func (p *Pool) putAll(bufs [][]byte) {
	i := 0
	limit := int(p.limit.Load())
	for i < len(bufs) {
		c := putClass(bufs[i])
		if c < 0 {
			bufs[i] = nil
			i++
			continue
		}
		pc := &p.classes[c]
		pc.mu.Lock()
		for i < len(bufs) {
			b := bufs[i]
			if putClass(b) != c {
				break
			}
			if len(pc.bufs) < limit {
				pc.bufs = append(pc.bufs, b[:cap(b)]) //menshen:allocok freelist growth, bounded by the pool limit
			}
			bufs[i] = nil
			i++
		}
		pc.mu.Unlock()
	}
}

// poolStasher is a submitter-local cache over one class of the pool: a
// run of same-sized ingress copies takes the class lock once per
// refill instead of once per frame. It lives in the pooled
// submitScratch but must be flushed back before the scratch is parked
// (submitBatch does): sync.Pool may drop a parked scratch at any time,
// and buffers stranded in a dropped stash would leak out of
// circulation.
type poolStasher struct {
	class int // current stash class; -1 when empty
	bufs  [][]byte
}

// get returns a buffer with len n, refilling the stash from the pool
// when the class changes or the stash runs dry. hint is how many more
// buffers the current submission could still need (including this
// one): a refill never takes more than that, so a single-frame Submit
// moves one buffer, not a whole stash that is flushed straight back.
//
//menshen:hotpath
func (s *poolStasher) get(p *Pool, n, hint int) []byte {
	c := classFor(n)
	if c < 0 {
		p.misses.Add(1)
		return make([]byte, n) //menshen:allocok oversized request, outside every retention class
	}
	if c != s.class || len(s.bufs) == 0 {
		s.flush(p)
		s.class = c
		pc := &p.classes[c]
		pc.mu.Lock()
		take := len(pc.bufs)
		if take > poolStash {
			take = poolStash
		}
		if take > hint {
			take = hint
		}
		if take > 0 {
			split := len(pc.bufs) - take
			s.bufs = append(s.bufs[:0], pc.bufs[split:]...) //menshen:allocok bounded: the stash caps at poolStash entries
			for j := split; j < len(pc.bufs); j++ {
				pc.bufs[j] = nil
			}
			pc.bufs = pc.bufs[:split]
		}
		pc.mu.Unlock()
	}
	if last := len(s.bufs) - 1; last >= 0 {
		b := s.bufs[last]
		s.bufs[last] = nil
		s.bufs = s.bufs[:last]
		p.hits.Add(1)
		return b[:n]
	}
	p.misses.Add(1)
	return make([]byte, n, 1<<(poolMinShift+c)) //menshen:allocok miss path: steady state hits the stash or the freelist
}

// flush returns any stashed buffers to the pool.
//
//menshen:hotpath
func (s *poolStasher) flush(p *Pool) {
	if len(s.bufs) > 0 {
		p.putAll(s.bufs)
		s.bufs = s.bufs[:0]
	}
	s.class = -1
}
