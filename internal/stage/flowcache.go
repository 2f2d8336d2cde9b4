// Per-worker exact-match flow cache: the fast path in front of the full
// match walk (flow-table probe + CAM candidate scan), in the spirit of
// a PIT/FIB split — steady-state flows resolve in one direct-mapped
// probe, the Menshen pipeline is the slow path.

package stage

import "repro/internal/tables"

// flowCacheDefaultEntries sizes a cache when the caller passes 0.
const flowCacheDefaultEntries = 1 << 16

// flowSlot is one direct-mapped cache entry. The full cache key
// (stage, module, raw key words) is folded into the 64-bit tag rather
// than stored, keeping a slot at 16 bytes so four share a cache line
// and the cache's own footprint stays small next to the flow table it
// fronts. Distinct keys landing in the same slot must also collide in
// the remaining ~49 tag bits to alias — odds far below any hardware
// fault rate — and the slot index is the tag's low bits, so a probe
// computes one hash total. addr -1 caches a miss (misses are as
// expensive to recompute as hits); gen is the module's stamp the
// resolution was made under, truncated to 32 bits (a false match would
// need exactly 2^32 intervening stamps while a slot sat untouched).
type flowSlot struct {
	tag  uint64
	gen  uint32
	addr int32
}

// FlowCache memoizes match resolutions for one pipeline replica. It is
// deliberately not safe for concurrent use: each engine worker owns
// one, accessed only from its goroutine, so probes take no locks and no
// atomics. Invalidation is by module stamp — a slot whose stamp differs
// from the probing view's is treated as empty and overwritten, so a
// write to a module (which gives it a fresh stamp) implicitly flushes
// that module's slots without touching memory, and no other module's.
type FlowCache struct {
	slots  []flowSlot
	mask   uint64
	hits   uint64
	misses uint64
}

// NewFlowCache returns a cache with at least the given number of
// entries, rounded up to a power of two; entries <= 0 selects the
// default size (65536 slots, 1 MiB).
func NewFlowCache(entries int) *FlowCache {
	if entries <= 0 {
		entries = flowCacheDefaultEntries
	}
	n := 1
	for n < entries {
		n <<= 1
	}
	return &FlowCache{slots: make([]flowSlot, n), mask: uint64(n - 1)}
}

// Entries returns the slot count.
func (fc *FlowCache) Entries() int { return len(fc.slots) }

// Stats returns the cumulative hit and miss counts.
func (fc *FlowCache) Stats() (hits, misses uint64) { return fc.hits, fc.misses }

// flowTag hashes the cache key (stage, module, raw key words) to the
// 64-bit slot tag. Same word-wise FNV + finalizer recipe as the cuckoo
// table (different salt); never returns 0, so a zeroed slot can't alias
// a real entry.
func flowTag(stg uint8, mod uint16, kw *tables.KeyWords) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037) ^ 0xb5297a4d3d2cd15d
	h = (h ^ uint64(mod) ^ uint64(stg)<<16) * prime64
	h = (h ^ kw[0]) * prime64
	h = (h ^ kw[1]) * prime64
	h = (h ^ kw[2]) * prime64
	h = (h ^ kw[3]) * prime64
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	if h == 0 {
		h = 1
	}
	return h
}

// lookup returns the cached address for (gen, stg, mod, kw). The second
// return is false when the slot is empty, stale, or holds another key.
//
//menshen:hotpath
func (fc *FlowCache) lookup(gen uint64, stg uint8, mod uint16, kw *tables.KeyWords) (int, bool) {
	tag := flowTag(stg, mod, kw)
	s := &fc.slots[tag&fc.mask]
	if s.tag == tag && s.gen == uint32(gen) {
		fc.hits++
		return int(s.addr), true
	}
	fc.misses++
	return -1, false
}

// store records a resolution (addr -1 caches a miss), displacing
// whatever occupied the slot.
//
//menshen:hotpath
func (fc *FlowCache) store(gen uint64, stg uint8, mod uint16, kw *tables.KeyWords, addr int32) {
	tag := flowTag(stg, mod, kw)
	fc.slots[tag&fc.mask] = flowSlot{tag: tag, gen: uint32(gen), addr: addr}
}

// slotTag returns the tag word of the slot a later lookup of the same
// key reads; it computes the address and loads nothing.
//
//menshen:hotpath
func (fc *FlowCache) slotTag(stg uint8, mod uint16, kw *tables.KeyWords) *uint64 {
	return &fc.slots[flowTag(stg, mod, kw)&fc.mask].tag
}
