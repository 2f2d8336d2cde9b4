// Cuckoo-hash exact matching: the §4.3 alternative to the CAM ("the
// depth can be improved by using a hash table, rather than a CAM, for
// exact matching, e.g., cuckoo hashing"). The module ID is matched along
// with the key, preserving Menshen's isolation property, and each entry
// carries an action address, decoupling table depth from the VLIW table.
//
// Reads follow the same wait-free discipline as the CAM: the bucket
// array is published behind an atomic pointer and every slot word is
// accessed atomically, with a table-wide seqlock (an even/odd version
// counter) detecting concurrent mutation. Lookup therefore takes no
// lock and performs zero allocations; writers (the reconfiguration
// path) serialize on a mutex and bump the version around each mutation.
// A reader that keeps losing the seqlock race falls back to the writer
// mutex, so reads cannot livelock under a mutation storm.

package tables

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrCuckooFull is returned when insertion cannot place an entry after
// the relocation bound; the table is left exactly as it was (failed
// inserts roll their evictions back).
var ErrCuckooFull = errors.New("tables: cuckoo table full (relocation bound hit)")

// cuckooWays is the bucket associativity; 4-way buckets push achievable
// load factors above 90%.
const cuckooWays = 4

// cuckooSlot is one bucket slot, sized to exactly 32 bytes so a 4-way
// bucket spans two cache lines. Only key words 0-2 are stored here: a
// KeyWords' word 3 is the key's single tail byte (see the KeyWords
// doc), so it rides inside ctrl instead of burning a fourth word. Every
// field is an atomic so concurrent readers are race-free; the ctrl word
// is written last when a slot becomes valid (publish-after-key
// ordering).
type cuckooSlot struct {
	// ctrl packs valid (bit 63), a 19-bit key fingerprint (bits
	// 44..62), the module ID (bits 32..43), key word 3 — the tail byte
	// (bits 24..31) — and the action address (low 24 bits). Zero means
	// empty. The fingerprint lets a probe reject a non-matching slot on
	// the single ctrl load — everything above the address is compared
	// as one word — without touching the key words.
	ctrl atomic.Uint64
	kw   [3]atomic.Uint64
}

const (
	cuckooValid    = uint64(1) << 63
	cuckooAddrBits = 24
	cuckooAddrMask = uint64(1)<<cuckooAddrBits - 1
	// cuckooMatchMask selects the ctrl bits a lookup must match: valid,
	// fingerprint, module ID, and key tail byte — everything but addr.
	cuckooMatchMask = ^cuckooAddrMask
	// cuckooModMask selects the module-ID field for per-module sweeps.
	cuckooModMask = uint64(MaxModuleID) << 32
)

// MaxCuckooAddr is the largest action address a cuckoo entry can carry
// (the ctrl word gives the address 24 bits, enough for tens of millions
// of flow entries).
const MaxCuckooAddr = 1<<cuckooAddrBits - 1

// cuckooCtrl packs a slot's control word. fp is the 19-bit key
// fingerprint (the top bits of the side-0 hash), so it is a pure
// function of (kw, modID) and survives relocation between sides; kw3 is
// the key's tail-byte word.
func cuckooCtrl(modID uint16, addr int, fp, kw3 uint64) uint64 {
	return cuckooValid | fp<<44 | uint64(modID)<<32 | (kw3&0xff)<<24 | uint64(addr)&cuckooAddrMask
}

// cuckooState is one published generation of the bucket arrays. Growth
// builds a fresh state and republishes the pointer; the arrays
// themselves are mutated in place (slot-atomically) by inserts and
// deletes.
type cuckooState struct {
	nb    int    // buckets per side; always a power of two
	mask  uint64 // nb - 1: bucket index is hash & mask, no division
	slots [2][]cuckooSlot
}

func newCuckooState(nb int) *cuckooState {
	st := &cuckooState{nb: nb, mask: uint64(nb - 1)}
	st.slots[0] = make([]cuckooSlot, nb*cuckooWays)
	st.slots[1] = make([]cuckooSlot, nb*cuckooWays)
	return st
}

// Cuckoo is a two-choice, 4-way set-associative cuckoo hash table
// mapping (key, module ID) to an action address. Exact match only; like
// the CAM, lookups of one module can never return another module's
// entries. Lookups are wait-free (no lock, zero allocations); writers
// serialize on an internal mutex.
type Cuckoo struct {
	mu    sync.Mutex // serializes writers
	state atomic.Pointer[cuckooState]
	// version is the seqlock: odd while a writer is mutating. Readers
	// snapshot it before and after probing and retry on change.
	version atomic.Uint64
	used    atomic.Int64
	// counts tracks per-module entry counts for cheap ModuleEntries.
	counts [MaxModuleID + 1]atomic.Int32
	// maxKicks bounds the relocation chain.
	maxKicks int
	// grow, when set, lets Insert double the bucket count instead of
	// failing when the relocation bound is hit or the load factor
	// crosses the growth threshold.
	grow bool
}

// NewCuckoo returns a fixed-capacity table with room for about
// `capacity` entries (rounded up to whole buckets). Insert fails with
// ErrCuckooFull when the relocation bound is hit.
func NewCuckoo(capacity int) *Cuckoo {
	need := (capacity + 2*cuckooWays - 1) / (2 * cuckooWays)
	// Bucket counts are kept at powers of two so the per-probe bucket
	// index is a mask, not a hardware division.
	nb := 1
	for nb < need {
		nb *= 2
	}
	c := &Cuckoo{maxKicks: 8 * nb * cuckooWays}
	c.state.Store(newCuckooState(nb))
	return c
}

// NewGrowingCuckoo returns a table that starts at the given capacity
// and doubles its bucket arrays when insertion pressure demands it, so
// ErrCuckooFull is effectively unreachable. Stages use this form: a
// module's exact-match flow count is unknown up front and may reach
// millions.
func NewGrowingCuckoo(capacity int) *Cuckoo {
	c := NewCuckoo(capacity)
	c.grow = true
	return c
}

// Capacity returns the total slot count.
func (c *Cuckoo) Capacity() int {
	st := c.state.Load()
	return 2 * st.nb * cuckooWays
}

// Used returns the number of occupied slots.
func (c *Cuckoo) Used() int { return int(c.used.Load()) }

// ModuleEntries returns the number of entries owned by modID. It is a
// single atomic load, cheap enough for the view-resolution path to
// decide between the CAM word-scan and the hash-probe match mode.
func (c *Cuckoo) ModuleEntries(modID uint16) int {
	return int(c.counts[modID&MaxModuleID].Load())
}

// cuckooHashBase mixes the key words and module ID with word-wise
// FNV-1a. Word-wise FNV leaves the low bits weakly mixed (the multiply
// only carries entropy upward), so each side finishes the base with
// cuckooMix before indexing.
func cuckooHashBase(kw *KeyWords, modID uint16) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	h = (h ^ uint64(modID)) * prime64
	h = (h ^ kw[0]) * prime64
	h = (h ^ kw[1]) * prime64
	h = (h ^ kw[2]) * prime64
	h = (h ^ kw[3]) * prime64
	return h
}

// cuckooMix is the MurmurHash3 fmix64 finalizer; it spreads the FNV
// base's entropy into the low bits the bucket mask selects.
func cuckooMix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// cuckooSalt is the per-side salt folded into the base before the
// finalizer, giving the two independent bucket choices.
func cuckooSalt(side int) uint64 { return uint64(side+1) * 0x9e3779b97f4a7c15 }

// cuckooHash is the per-side hash: bucket index is hash & state mask,
// and the top 19 bits of the side-0 hash double as the slot
// fingerprint.
func cuckooHash(side int, kw *KeyWords, modID uint16) uint64 {
	return cuckooMix(cuckooHashBase(kw, modID) ^ cuckooSalt(side))
}

// cuckooFP returns the 19-bit fingerprint stored in a slot's ctrl word:
// the top bits of the side-0 hash, independent of the masked low bits
// that pick the bucket.
func cuckooFP(h0 uint64) uint64 { return h0 >> 45 }

// slotKWEqual reports whether the slot's stored key words equal kw's
// words 0-2 (word 3 lives in ctrl and is matched there). All loads are
// atomic so concurrent mutation is race-free; the caller's seqlock
// check rejects torn reads.
//
//menshen:hotpath
func slotKWEqual(s *cuckooSlot, kw *KeyWords) bool {
	return s.kw[0].Load() == kw[0] &&
		s.kw[1].Load() == kw[1] &&
		s.kw[2].Load() == kw[2]
}

// probe scans both candidate buckets of kw in st for (kw, modID) and
// returns the stored address. The hit path rejects slots on a single
// masked compare of the ctrl word (valid + fingerprint + module ID +
// key tail byte); the remaining key words are only loaded on a
// fingerprint match. Both buckets' first lines are touched up front so
// their cache misses overlap instead of serializing.
//
//menshen:hotpath
func probe(st *cuckooState, kw *KeyWords, modID uint16) (int, bool) {
	hb := cuckooHashBase(kw, modID)
	h0 := cuckooMix(hb ^ cuckooSalt(0))
	b0 := st.slots[0][int(h0&st.mask)*cuckooWays:][:cuckooWays]
	b1 := st.slots[1][int(cuckooMix(hb^cuckooSalt(1))&st.mask)*cuckooWays:][:cuckooWays]
	spec := b1[0].ctrl.Load() // start side 1's fetch before scanning side 0
	want := cuckooValid | cuckooFP(h0)<<44 | uint64(modID)<<32 | (kw[3]&0xff)<<24
	for w := range b0 {
		s := &b0[w]
		ctrl := s.ctrl.Load()
		if ctrl&cuckooMatchMask == want && slotKWEqual(s, kw) {
			return int(ctrl & cuckooAddrMask), true
		}
	}
	for w := range b1 {
		s := &b1[w]
		ctrl := spec
		if w != 0 {
			ctrl = s.ctrl.Load()
		}
		if ctrl&cuckooMatchMask == want && slotKWEqual(s, kw) {
			return int(ctrl & cuckooAddrMask), true
		}
	}
	return 0, false
}

// BucketLines returns the words that start each cache line a
// LookupWords probe of (kw, modID) reads: both candidate buckets, two
// lines each. It computes addresses only and loads nothing from the
// buckets. The batched pipeline gathers every frame's lines this way
// and then loads them back to back (stage.Gather.Touch), so the misses
// of a whole batch are in flight together instead of one frame's at a
// time. The words come from the state published now; if a writer grows
// the table before the probe, the probe reads the new arrays and the
// loads were merely wasted.
//
//menshen:hotpath
func (c *Cuckoo) BucketLines(kw *KeyWords, modID uint16) [4]*atomic.Uint64 {
	modID &= MaxModuleID
	st := c.state.Load()
	hb := cuckooHashBase(kw, modID)
	b0 := st.slots[0][int(cuckooMix(hb^cuckooSalt(0))&st.mask)*cuckooWays:][:cuckooWays]
	b1 := st.slots[1][int(cuckooMix(hb^cuckooSalt(1))&st.mask)*cuckooWays:][:cuckooWays]
	// Slots are 32 bytes, so a 4-way bucket is exactly two cache lines
	// and slots 0 and 2 start them.
	return [4]*atomic.Uint64{&b0[0].ctrl, &b0[2].ctrl, &b1[0].ctrl, &b1[2].ctrl}
}

// cuckooReadRetries is how many seqlock rounds a reader attempts before
// falling back to the writer mutex.
const cuckooReadRetries = 8

// LookupWords returns the action address for (kw, modID), where kw is
// the already-masked key in word form. It is the hot-path entry point:
// no lock, no allocation, wait-free unless a writer is mid-mutation.
//
//menshen:hotpath
func (c *Cuckoo) LookupWords(kw *KeyWords, modID uint16) (int, bool) {
	modID &= MaxModuleID
	for try := 0; try < cuckooReadRetries; try++ {
		v1 := c.version.Load()
		if v1&1 != 0 {
			continue
		}
		st := c.state.Load()
		addr, ok := probe(st, kw, modID)
		if c.version.Load() == v1 {
			return addr, ok
		}
	}
	// A writer kept invalidating the optimistic read; serialize with it.
	c.mu.Lock()
	defer c.mu.Unlock()
	return probe(c.state.Load(), kw, modID)
}

// Lookup returns the action address for (key, modID).
//
//menshen:hotpath
func (c *Cuckoo) Lookup(key Key, modID uint16) (int, bool) {
	kw := key.Words()
	return c.LookupWords(&kw, modID)
}

// LookupWordsBatch resolves a group of already-masked keys for one
// module in a single seqlock round: out[i] receives the address for
// kws[i] or -1 on miss, and the hit count is returned. Grouping the
// probes amortizes the version handshake across the batch — the
// software analogue of issuing the batch's hash reads back to back.
// out must be at least as long as kws.
//
//menshen:hotpath
func (c *Cuckoo) LookupWordsBatch(modID uint16, kws []KeyWords, out []int32) int {
	modID &= MaxModuleID
	hits := 0
	for try := 0; try < cuckooReadRetries; try++ {
		v1 := c.version.Load()
		if v1&1 != 0 {
			continue
		}
		st := c.state.Load()
		hits = 0
		for i := range kws {
			if addr, ok := probe(st, &kws[i], modID); ok {
				out[i] = int32(addr)
				hits++
			} else {
				out[i] = -1
			}
		}
		if c.version.Load() == v1 {
			return hits
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.state.Load()
	hits = 0
	for i := range kws {
		if addr, ok := probe(st, &kws[i], modID); ok {
			out[i] = int32(addr)
			hits++
		} else {
			out[i] = -1
		}
	}
	return hits
}

// CuckooEntry is one enumerated entry: the stored key in word form and
// its action address. ModuleFlows returns these for view precompilation
// and checksumming.
type CuckooEntry struct {
	Words KeyWords
	Addr  int32
}

// ModuleFlows enumerates modID's entries in deterministic table order
// (side, bucket, way). It is a control-path operation: it takes the
// writer mutex and allocates the result. Its cost is the module's own
// entries, not the table's: O(1) for a module with none, otherwise a
// scan that stops as soon as it has seen the module's count of entries
// (exact, because every writer holds c.mu — see moduleSlots).
func (c *Cuckoo) ModuleFlows(modID uint16) []CuckooEntry {
	modID &= MaxModuleID
	c.mu.Lock()
	defer c.mu.Unlock()
	n := int(c.counts[modID].Load())
	if n == 0 {
		return nil
	}
	out := make([]CuckooEntry, 0, n)
	c.moduleSlots(modID, n, func(s *cuckooSlot, ctrl uint64) {
		out = append(out, CuckooEntry{
			Words: KeyWords{s.kw[0].Load(), s.kw[1].Load(), s.kw[2].Load(), ctrl >> 24 & 0xff},
			Addr:  int32(ctrl & cuckooAddrMask),
		})
	})
	return out
}

// moduleSlots calls fn on each of modID's n slots in (side, bucket,
// way) order and stops at the n-th, so the scan ends at the module's
// last entry rather than at the table's end. n must be the module's
// entry count, which is exact under c.mu: a new key adds 1, DeleteWords
// subtracts 1, ClearModule subtracts what it cleared, and growth
// rehashes without touching it. Caller holds c.mu.
func (c *Cuckoo) moduleSlots(modID uint16, n int, fn func(s *cuckooSlot, ctrl uint64)) {
	st := c.state.Load()
	want := uint64(modID) << 32
	for side := 0; side < 2; side++ {
		for i := range st.slots[side] {
			s := &st.slots[side][i]
			ctrl := s.ctrl.Load()
			if ctrl&cuckooValid == 0 || ctrl&cuckooModMask != want {
				continue
			}
			fn(s, ctrl)
			if n--; n == 0 {
				return
			}
		}
	}
}

// findLocked returns the slot holding (kw, modID) in st, or nil. Caller
// holds c.mu.
func findLocked(st *cuckooState, kw *KeyWords, modID uint16) *cuckooSlot {
	want := uint64(modID)<<32 | (kw[3]&0xff)<<24
	const mask = cuckooModMask | 0xff<<24
	for side := 0; side < 2; side++ {
		base := int(cuckooHash(side, kw, modID)&st.mask) * cuckooWays
		slots := st.slots[side][base : base+cuckooWays]
		for w := range slots {
			s := &slots[w]
			ctrl := s.ctrl.Load()
			if ctrl&cuckooValid != 0 && ctrl&mask == want && slotKWEqual(s, kw) {
				return s
			}
		}
	}
	return nil
}

// storeSlot writes the entry into s with publish-after-key ordering:
// the slot is invalidated, key words 0-2 land, then the ctrl word —
// which carries key word 3 alongside the metadata — makes it visible.
// Caller holds c.mu inside a seqlock window.
func storeSlot(s *cuckooSlot, kw *KeyWords, ctrl uint64) {
	s.ctrl.Store(0)
	s.kw[0].Store(kw[0])
	s.kw[1].Store(kw[1])
	s.kw[2].Store(kw[2])
	s.ctrl.Store(ctrl)
}

// loadSlot reads the slot's full contents, reconstituting key word 3
// from the ctrl word (caller holds c.mu).
func loadSlot(s *cuckooSlot) (kw KeyWords, ctrl uint64) {
	ctrl = s.ctrl.Load()
	kw = KeyWords{s.kw[0].Load(), s.kw[1].Load(), s.kw[2].Load(), ctrl >> 24 & 0xff}
	return kw, ctrl
}

// Insert places (key, modID) -> addr, relocating existing entries as
// needed. Duplicate keys update the stored address in place. On failure
// every eviction is rolled back, leaving the table unchanged; a growing
// table doubles its buckets instead of failing.
func (c *Cuckoo) Insert(key Key, modID uint16, addr int) error {
	kw := key.Words()
	return c.InsertWords(&kw, modID, addr)
}

// InsertWords is Insert taking the key in word form (the form flow
// installs arrive in when derived from live packets).
func (c *Cuckoo) InsertWords(kw *KeyWords, modID uint16, addr int) error {
	if addr < 0 || addr > MaxCuckooAddr {
		return fmt.Errorf("tables: cuckoo action address %d outside [0, %d]", addr, MaxCuckooAddr)
	}
	modID &= MaxModuleID
	c.mu.Lock()
	defer c.mu.Unlock()

	st := c.state.Load()
	if s := findLocked(st, kw, modID); s != nil {
		c.version.Add(1)
		s.ctrl.Store(cuckooCtrl(modID, addr, cuckooFP(cuckooHash(0, kw, modID)), kw[3]))
		c.version.Add(1)
		return nil
	}

	for {
		if c.grow && int(c.used.Load())*8 >= c.Capacity()*7 {
			// Above ~87% load relocation chains get long; double early.
			c.growLocked()
			st = c.state.Load()
		}
		if c.insertLocked(st, kw, modID, addr) {
			c.used.Add(1)
			c.counts[modID].Add(1)
			return nil
		}
		if !c.grow {
			return fmt.Errorf("%w: after %d kicks", ErrCuckooFull, c.maxKicks)
		}
		c.growLocked()
		st = c.state.Load()
	}
}

// insertLocked attempts a cuckoo placement of (kw, modID, addr) into
// st, evicting at most c.maxKicks entries. On failure the eviction path
// is walked backwards so the table is byte-identical to before the
// call. Caller holds c.mu; the whole relocation chain runs inside one
// seqlock window so readers never observe a half-moved entry.
func (c *Cuckoo) insertLocked(st *cuckooState, kw *KeyWords, modID uint16, addr int) bool {
	type step struct {
		side, base, way int
	}
	var path []step
	curKW := *kw
	curCtrl := cuckooCtrl(modID, addr, cuckooFP(cuckooHash(0, kw, modID)), kw[3])

	c.version.Add(1)
	defer c.version.Add(1)

	side := 0
	for kick := 0; kick < c.maxKicks; kick++ {
		curMod := uint16(curCtrl >> 32 & MaxModuleID)
		base := int(cuckooHash(side, &curKW, curMod)&st.mask) * cuckooWays
		slots := st.slots[side][base : base+cuckooWays]
		for w := range slots {
			if slots[w].ctrl.Load()&cuckooValid == 0 {
				storeSlot(&slots[w], &curKW, curCtrl)
				return true
			}
		}
		// Bucket full: evict a deterministic victim and continue on the
		// other side.
		w := kick % cuckooWays
		path = append(path, step{side, base, w})
		vKW, vCtrl := loadSlot(&slots[w])
		storeSlot(&slots[w], &curKW, curCtrl)
		curKW, curCtrl = vKW, vCtrl
		side = 1 - side
	}
	// Failure: walk the eviction path backwards, undoing each swap, so
	// the displaced survivor chain is restored and the new key is out.
	for i := len(path) - 1; i >= 0; i-- {
		p := path[i]
		s := &st.slots[p.side][p.base+p.way]
		oKW, oCtrl := loadSlot(s)
		storeSlot(s, &curKW, curCtrl)
		curKW, curCtrl = oKW, oCtrl
	}
	return false
}

// growLocked doubles the bucket count and rehashes every entry into a
// fresh state, republishing the snapshot pointer. Rehash into double
// capacity at <50% load cannot hit the relocation bound in practice;
// if it ever does, the bucket count doubles again. Caller holds c.mu.
func (c *Cuckoo) growLocked() {
	old := c.state.Load()
	nb := old.nb * 2
	for {
		fresh := newCuckooState(nb)
		c.maxKicks = 8 * nb * cuckooWays
		ok := true
	rehash:
		for side := 0; side < 2; side++ {
			for i := range old.slots[side] {
				kw, ctrl := loadSlot(&old.slots[side][i])
				if ctrl&cuckooValid == 0 {
					continue
				}
				modID := uint16(ctrl >> 32 & MaxModuleID)
				if !c.insertIntoState(fresh, &kw, modID, int(ctrl&cuckooAddrMask)) {
					ok = false
					break rehash
				}
			}
		}
		if ok {
			c.version.Add(1)
			c.state.Store(fresh)
			c.version.Add(1)
			return
		}
		nb *= 2
	}
}

// insertIntoState is insertLocked against a not-yet-published state (no
// seqlock window needed — nothing can be reading it).
func (c *Cuckoo) insertIntoState(st *cuckooState, kw *KeyWords, modID uint16, addr int) bool {
	type step struct{ side, base, way int }
	curKW := *kw
	curCtrl := cuckooCtrl(modID, addr, cuckooFP(cuckooHash(0, kw, modID)), kw[3])
	side := 0
	for kick := 0; kick < c.maxKicks; kick++ {
		curMod := uint16(curCtrl >> 32 & MaxModuleID)
		base := int(cuckooHash(side, &curKW, curMod)&st.mask) * cuckooWays
		slots := st.slots[side][base : base+cuckooWays]
		for w := range slots {
			if slots[w].ctrl.Load()&cuckooValid == 0 {
				storeSlot(&slots[w], &curKW, curCtrl)
				return true
			}
		}
		w := kick % cuckooWays
		vKW, vCtrl := loadSlot(&slots[w])
		storeSlot(&slots[w], &curKW, curCtrl)
		curKW, curCtrl = vKW, vCtrl
		side = 1 - side
	}
	return false
}

// Delete removes (key, modID).
func (c *Cuckoo) Delete(key Key, modID uint16) bool {
	kw := key.Words()
	return c.DeleteWords(&kw, modID)
}

// DeleteWords is Delete taking the key in word form.
func (c *Cuckoo) DeleteWords(kw *KeyWords, modID uint16) bool {
	modID &= MaxModuleID
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := findLocked(c.state.Load(), kw, modID); s != nil {
		c.version.Add(1)
		s.ctrl.Store(0)
		c.version.Add(1)
		c.used.Add(-1)
		c.counts[modID].Add(-1)
		return true
	}
	return false
}

// ClearModule removes every entry of a module, returning the count — the
// same per-module clearing contract as the CAM. Like ModuleFlows it costs
// the module's own entries: a module with none returns 0 at once, with
// no seqlock window opened and no slot touched, so reloading a flow-less
// tenant never walks its neighbours' flows; otherwise the scan stops at
// the module's last entry.
func (c *Cuckoo) ClearModule(modID uint16) int {
	modID &= MaxModuleID
	c.mu.Lock()
	defer c.mu.Unlock()
	n := int(c.counts[modID].Load())
	if n == 0 {
		return 0
	}
	c.version.Add(1)
	c.moduleSlots(modID, n, func(s *cuckooSlot, _ uint64) { s.ctrl.Store(0) })
	c.version.Add(1)
	c.used.Add(int64(-n))
	c.counts[modID].Add(int32(-n))
	return n
}
