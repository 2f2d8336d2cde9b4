// Egress scheduler: the §3.5 inter-tenant output-bandwidth scheduler of
// a worker's TX loop. An EgressQueue is owned by exactly one worker
// goroutine, so it takes no locks, keeps items in a flat slice (a
// hand-rolled min-max heap — no interface boxing, no per-op
// allocation), and bounds the queue with *push-out* rather than tail
// drop: when the queue is full, the worst-ranked entry — not the
// arrival — is the one discarded. Push-out is what makes the bound
// fairness-preserving: a heavy tenant's backlog is displaced by a
// light tenant's in-share frames, so the queue's composition (and with
// it the drained output) converges to the configured weights instead
// of to the offered load.
package sched

import (
	"fmt"
	"math"
	"math/bits"
)

// EgressItem is one frame queued on a worker's egress scheduler.
type EgressItem struct {
	// Tenant is the frame's module ID.
	Tenant uint16
	// Port is the pipeline-chosen egress port, carried through the queue.
	Port uint8
	// Data is the processed frame. The queue takes no ownership: the
	// caller reclaims Data when the item is popped, evicted, or the
	// queue is reset.
	Data []byte
	// Meta is the frame's opaque out-of-band word (core.BatchResult.Meta),
	// carried through the queue untouched so scheduled delivery keeps the
	// engine's per-frame metadata (fabric hop counts) intact.
	Meta uint64
	// Rank is the frame's virtual start time under start-time fair
	// queueing (set by Push).
	Rank float64
	// seq breaks rank ties FIFO.
	seq uint64
}

// EgressQueue couples start-time fair queueing with a bounded push-out
// PIFO. It is NOT safe for concurrent use: each engine worker owns one
// and touches it only from its own goroutine, which is what keeps the
// per-frame path lock-free and allocation-free.
//
// Accounting rules (the bugfixes this type was built around):
//
//   - A rejected frame (queue full, arrival ranks worst) charges
//     nothing: the tenant's virtual finish time advances only when a
//     frame actually enters the queue.
//   - An evicted frame refunds its charge. Per-tenant ranks are
//     nondecreasing and Pop drains in global rank order, so a tenant's
//     queued frames are always the tail of its accepted sequence; the
//     evicted frame — the global worst — is therefore its tenant's
//     most recently accepted frame, and rolling lastFinish back to the
//     evicted rank is an exact undo.
type EgressQueue struct {
	weights    map[uint16]float64
	lastFinish map[uint16]float64
	vtime      float64
	heap       []EgressItem // min-max heap ordered by (Rank, seq)
	limit      int          // 0 = unbounded
	seq        uint64
}

// NewEgressQueue returns a queue holding at most limit frames
// (limit <= 0 means unbounded; no push-out ever happens).
func NewEgressQueue(limit int) *EgressQueue {
	q := &EgressQueue{
		weights:    make(map[uint16]float64),
		lastFinish: make(map[uint16]float64),
		limit:      limit,
	}
	if limit > 0 {
		q.heap = make([]EgressItem, 0, limit)
	}
	return q
}

// SetWeight assigns a tenant's share weight (must be > 0). Tenants
// without an explicit weight are scheduled at weight 1.
func (q *EgressQueue) SetWeight(tenant uint16, weight float64) error {
	if weight <= 0 || math.IsInf(weight, 0) || math.IsNaN(weight) {
		return fmt.Errorf("sched: egress weight must be positive and finite, got %v", weight)
	}
	q.weights[tenant] = weight
	return nil
}

// Weight reports a tenant's configured weight (ok=false when the
// tenant is scheduled at the implicit default of 1).
func (q *EgressQueue) Weight(tenant uint16) (float64, bool) {
	w, ok := q.weights[tenant]
	return w, ok
}

// ClearTenant removes a tenant's weight and virtual-finish state — the
// unload hook. Without it a re-loaded tenant would inherit the stale
// virtual finish time of its previous life and start penalized.
// Frames of the tenant already queued stay queued (they were admitted
// under the old configuration and still drain in rank order).
func (q *EgressQueue) ClearTenant(tenant uint16) {
	delete(q.weights, tenant)
	delete(q.lastFinish, tenant)
}

// Len reports the queue depth.
func (q *EgressQueue) Len() int { return len(q.heap) }

// Push ranks one frame with start-time fair queueing and inserts it.
//
//	accepted   — the frame entered the queue (its tenant was charged).
//	hasEvicted — accepting it displaced the worst-ranked queued frame,
//	             returned as evicted: the caller must reclaim its Data
//	             and account the drop to evicted.Tenant.
//
// When the queue is full and the new frame itself ranks worst, it is
// rejected with no charge (accepted=false, hasEvicted=false) — the
// caller keeps ownership of data. meta is the frame's out-of-band
// metadata word, returned untouched with the item on Pop (or with the
// evicted item).
//
//menshen:hotpath
func (q *EgressQueue) Push(tenant uint16, port uint8, data []byte, meta uint64) (evicted EgressItem, hasEvicted, accepted bool) {
	w := q.weights[tenant]
	if w == 0 {
		w = 1
	}
	start := q.vtime
	if lf := q.lastFinish[tenant]; lf > start {
		start = lf
	}
	if q.limit > 0 && len(q.heap) >= q.limit {
		mi := q.maxIndex()
		// The arrival's seq would be the largest, so an equal rank
		// still loses the tie: reject unless it strictly beats the
		// current worst.
		if start >= q.heap[mi].Rank {
			return EgressItem{}, false, false
		}
		evicted = q.removeMax(mi)
		hasEvicted = true
		// Exact refund: the evicted frame is its tenant's most recent
		// accepted one (see the type comment), so lastFinish rolls
		// back to the evicted start time.
		if q.lastFinish[evicted.Tenant] > evicted.Rank {
			q.lastFinish[evicted.Tenant] = evicted.Rank
		}
	}
	q.lastFinish[tenant] = start + float64(len(data))/w
	it := EgressItem{Tenant: tenant, Port: port, Data: data, Meta: meta, Rank: start, seq: q.seq}
	q.seq++
	q.heap = append(q.heap, it) //menshen:allocok bounded: Push sheds at limit, so cap stops growing at the queue limit
	q.siftUp(len(q.heap) - 1)
	return evicted, hasEvicted, true
}

// Pop dequeues the best-ranked frame and advances virtual time to its
// rank.
//
//menshen:hotpath
func (q *EgressQueue) Pop() (EgressItem, bool) {
	n := len(q.heap)
	if n == 0 {
		return EgressItem{}, false
	}
	it := q.heap[0]
	q.heap[0] = q.heap[n-1]
	q.heap[n-1] = EgressItem{}
	q.heap = q.heap[:n-1]
	if n > 1 {
		q.trickleDown(0, true)
	}
	if it.Rank > q.vtime {
		q.vtime = it.Rank
	}
	return it, true
}

// --- min-max heap (Atkinson et al.) over (Rank, seq) ---
//
// Even (min) levels hold local minima, odd (max) levels local maxima:
// the global best rank is at index 0, the global worst at index 1 or 2.
// Both Pop (drain) and removeMax (push-out) are O(log n) with no
// allocation, which container/heap (one end only, boxing through any)
// cannot offer.

func egressLess(a, b *EgressItem) bool {
	if a.Rank != b.Rank {
		return a.Rank < b.Rank
	}
	return a.seq < b.seq
}

// onMinLevel reports whether index i sits on an even (min) level.
func onMinLevel(i int) bool { return bits.Len(uint(i+1))&1 == 1 }

// beats reports whether h[a] belongs closer to the root than h[b] along
// a min (or, with min=false, max) path.
//
//menshen:hotpath
func (q *EgressQueue) beats(a, b int, min bool) bool {
	if min {
		return egressLess(&q.heap[a], &q.heap[b])
	}
	return egressLess(&q.heap[b], &q.heap[a])
}

// maxIndex returns the index of the worst-ranked entry (len > 0).
//
//menshen:hotpath
func (q *EgressQueue) maxIndex() int {
	switch len(q.heap) {
	case 1:
		return 0
	case 2:
		return 1
	default:
		if egressLess(&q.heap[1], &q.heap[2]) {
			return 2
		}
		return 1
	}
}

// removeMax deletes and returns the entry at max index mi.
//
//menshen:hotpath
func (q *EgressQueue) removeMax(mi int) EgressItem {
	n := len(q.heap)
	it := q.heap[mi]
	q.heap[mi] = q.heap[n-1]
	q.heap[n-1] = EgressItem{}
	q.heap = q.heap[:n-1]
	if mi < n-1 {
		q.trickleDown(mi, false)
	}
	return it
}

//menshen:hotpath
func (q *EgressQueue) siftUp(i int) {
	if i == 0 {
		return
	}
	p := (i - 1) / 2
	min := onMinLevel(i)
	if q.beats(i, p, !min) {
		// The new entry sorts past its parent, so it belongs on the
		// parent's (opposite) levels: swap and bubble up there.
		q.heap[i], q.heap[p] = q.heap[p], q.heap[i]
		q.siftUpGrand(p, !min)
	} else {
		q.siftUpGrand(i, min)
	}
}

// siftUpGrand bubbles i toward the root along its own (min or max)
// levels, two generations at a time.
//
//menshen:hotpath
func (q *EgressQueue) siftUpGrand(i int, min bool) {
	for i >= 3 {
		g := ((i-1)/2 - 1) / 2
		if !q.beats(i, g, min) {
			return
		}
		q.heap[i], q.heap[g] = q.heap[g], q.heap[i]
		i = g
	}
}

// trickleDown restores the min-max property below i after a removal
// replaced h[i] with the previous last element.
//
//menshen:hotpath
func (q *EgressQueue) trickleDown(i int, min bool) {
	n := len(q.heap)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		// m: best-placed among children and grandchildren of i.
		m := c
		for _, j := range [5]int{2*i + 2, 4*i + 3, 4*i + 4, 4*i + 5, 4*i + 6} {
			if j < n && q.beats(j, m, min) {
				m = j
			}
		}
		if m > 2*i+2 { // grandchild
			if !q.beats(m, i, min) {
				return
			}
			q.heap[m], q.heap[i] = q.heap[i], q.heap[m]
			if p := (m - 1) / 2; q.beats(p, m, min) {
				// The displaced element violates against its new
				// parent (which lives on the opposite level).
				q.heap[m], q.heap[p] = q.heap[p], q.heap[m]
			}
			i = m
			continue
		}
		// Direct child (opposite level): one swap settles it.
		if q.beats(m, i, min) {
			q.heap[m], q.heap[i] = q.heap[i], q.heap[m]
		}
		return
	}
}
