// Cuckoo-hash exact matching: the §4.3 alternative to the CAM ("the
// depth can be improved by using a hash table, rather than a CAM, for
// exact matching, e.g., cuckoo hashing"). A Cuckoo is one module's
// table, and FlowTables holds one per module the way an overlay holds
// one entry per module, so isolation is by construction and a slot
// stores no module ID. Each entry carries an action address, decoupling
// table depth from the VLIW table.
//
// A table has one owner: the pipeline whose stage holds it, which reads
// and writes it only under its batch lock. Every engine shard owns its
// own tables (run-to-completion, as NDN-DPDK's forwarding threads own
// their table partitions), so its worker is the one reader and the one
// writer. A table is therefore plain memory: no lock, no seqlock, no
// atomic slot words. Lookup performs zero allocations.
//
// Insert hashes the key once and scans its two buckets once, for a
// duplicate and a free slot; only when both are full does it walk a
// relocation chain, capped at a constant. Growth splits each bucket in
// two: it cannot overflow, so it never fails and never walks. A table
// grows by adding storage, never by copying it: each side's buckets
// live in a directory of segments, and a doubling adds one segment as
// large as all before it and moves into it only the entries whose next
// hash bit says so, the way linear hashing (Litwin, VLDB 1980) splits a
// bucket into its buddy.

package tables

import (
	"errors"
	"fmt"
	"math/bits"
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
// doc), so it rides inside ctrl instead of burning a fourth word.
type cuckooSlot struct {
	// ctrl packs valid (bit 63), a 31-bit key fingerprint (bits
	// 32..62), key word 3 — the tail byte (bits 24..31) — and the
	// action address (low 24 bits). Zero means empty. The fingerprint
	// lets a probe reject a non-matching slot on the single ctrl load —
	// everything above the address is compared as one word — without
	// touching the key words.
	ctrl uint64
	kw   [3]uint64
}

const (
	cuckooValid    = uint64(1) << 63
	cuckooAddrBits = 24
	cuckooAddrMask = uint64(1)<<cuckooAddrBits - 1
	// cuckooMatchMask selects the ctrl bits a lookup must match: valid,
	// fingerprint and key tail byte — everything but addr.
	cuckooMatchMask = ^cuckooAddrMask
)

// MaxCuckooAddr is the largest action address a cuckoo entry can carry
// (the ctrl word gives the address 24 bits, enough for tens of millions
// of flow entries).
const MaxCuckooAddr = 1<<cuckooAddrBits - 1

// cuckooState is the table's buckets: per side, a directory of
// segments. Segment 0 holds buckets [0, nb0); segment k >= 1 holds
// [nb0*2^(k-1), nb0*2^k). The directory is indexed by a bucket index's
// bit length, so a probe finds its segment with one bit scan: every
// length up to that of nb0-1 names segment 0, and each longer length
// names the segment of the indices with that top bit. Growth adds one
// segment per side and splits the buckets in place; inserts and
// deletes write the segments in place. No slot moves to a new array
// except the half of a split that belongs in the new segment.
type cuckooState struct {
	nb   int    // buckets per side; always a power of two
	mask uint64 // nb - 1: bucket index is hash & mask, no division
	lo   int    // directory index of segment 0: the bit length of nb0-1
	dir  [2][64]cuckooSeg
}

// cuckooSeg is a directory entry: one segment's slots and the index of
// the first bucket they hold.
type cuckooSeg struct {
	slots []cuckooSlot
	base  uint64
}

// init gives st nb buckets per side, all in segment 0.
func (st *cuckooState) init(nb int) {
	st.nb, st.mask, st.lo = nb, uint64(nb-1), bits.Len64(uint64(nb-1))
	for side := range st.dir {
		seg := cuckooSeg{slots: make([]cuckooSlot, nb*cuckooWays)}
		for n := 0; n <= st.lo; n++ {
			st.dir[side][n] = seg
		}
	}
}

// segments returns side's segments in bucket order.
func (st *cuckooState) segments(side int) []cuckooSeg {
	return st.dir[side][st.lo : bits.Len64(st.mask)+1]
}

// bucket returns the cuckooWays slots of side's bucket h & mask.
//
//menshen:hotpath
func (st *cuckooState) bucket(side int, h uint64) []cuckooSlot {
	b := h & st.mask
	seg := &st.dir[side][bits.Len64(b)&63]
	return seg.slots[(b-seg.base)*cuckooWays:][:cuckooWays]
}

// Cuckoo is a two-choice, 4-way set-associative cuckoo hash table
// mapping a key to an action address: one module's flow table. Exact
// match only. It is not safe for concurrent use: its owner serializes
// every read and write (a pipeline does so under its batch lock).
type Cuckoo struct {
	state cuckooState
	used  int
	// growable, when set, lets Insert double the bucket count instead
	// of failing when the relocation bound is hit or the load factor
	// crosses the growth threshold.
	growable bool
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
	c := &Cuckoo{}
	c.state.init(nb)
	return c
}

// NewGrowingCuckoo returns a table that starts at the given capacity
// and doubles its bucket count when insertion pressure demands it,
// adding one segment per side; a doubling cannot fail, so Insert never
// returns ErrCuckooFull. Stages
// use this form: a module's exact-match flow count is unknown up front
// and may reach millions.
func NewGrowingCuckoo(capacity int) *Cuckoo {
	c := NewCuckoo(capacity)
	c.growable = true
	return c
}

// Capacity returns the total slot count.
func (c *Cuckoo) Capacity() int { return 2 * c.state.nb * cuckooWays }

// Used returns the number of occupied slots, cheap enough for view
// resolution to choose between the CAM word-scan and the hash-probe
// match mode.
func (c *Cuckoo) Used() int { return c.used }

// cuckooHashBase mixes the key words with word-wise FNV-1a. Word-wise
// FNV leaves the low bits weakly mixed (the multiply only carries
// entropy upward), so each side finishes the base with cuckooMix
// before indexing.
func cuckooHashBase(kw *KeyWords) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
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
// and the top 31 bits of the side-0 hash double as the slot
// fingerprint.
func cuckooHash(side int, kw *KeyWords) uint64 {
	return cuckooMix(cuckooHashBase(kw) ^ cuckooSalt(side))
}

// cuckooFP returns the 31-bit fingerprint stored in a slot's ctrl word:
// the top bits of the side-0 hash, independent of the masked low bits
// that pick the bucket.
func cuckooFP(h0 uint64) uint64 { return h0 >> 33 }

// slotKWEqual reports whether the slot's stored key words equal kw's
// words 0-2 (word 3 lives in ctrl and is matched there).
//
//menshen:hotpath
func slotKWEqual(s *cuckooSlot, kw *KeyWords) bool {
	return s.kw[0] == kw[0] && s.kw[1] == kw[1] && s.kw[2] == kw[2]
}

// makeSlot is the slot holding kw with the given ctrl word.
func makeSlot(kw *KeyWords, ctrl uint64) cuckooSlot {
	return cuckooSlot{ctrl: ctrl, kw: [3]uint64{kw[0], kw[1], kw[2]}}
}

// words reconstitutes the slot's key, word 3 from the ctrl word.
func (s *cuckooSlot) words() KeyWords {
	return KeyWords{s.kw[0], s.kw[1], s.kw[2], s.ctrl >> 24 & 0xff}
}

// BucketLines returns the words that start each cache line a
// LookupWords probe of kw reads: both candidate buckets, two
// lines each. It computes addresses only and loads nothing from the
// buckets. The batched pipeline gathers every frame's lines this way
// and then loads them back to back (stage.Gather.Touch), so the misses
// of a whole batch are in flight together instead of one frame's at a
// time.
//
//menshen:hotpath
func (c *Cuckoo) BucketLines(kw *KeyWords) [4]*uint64 {
	st := &c.state
	hb := cuckooHashBase(kw)
	b0 := st.bucket(0, cuckooMix(hb^cuckooSalt(0)))
	b1 := st.bucket(1, cuckooMix(hb^cuckooSalt(1)))
	// Slots are 32 bytes, so a 4-way bucket is exactly two cache lines
	// and slots 0 and 2 start them.
	return [4]*uint64{&b0[0].ctrl, &b0[2].ctrl, &b1[0].ctrl, &b1[2].ctrl}
}

// LookupWords returns the action address for kw, the already-masked
// key in word form. It is the hot-path entry point: no allocation. The
// probe scans both candidate buckets, rejecting slots on a single
// masked compare of the ctrl word (valid + fingerprint + key tail
// byte); the remaining key words are only loaded on a fingerprint
// match. Side 1's first ctrl word is loaded up front so both buckets'
// cache misses overlap instead of serializing.
//
//menshen:hotpath
func (c *Cuckoo) LookupWords(kw *KeyWords) (int, bool) {
	st := &c.state
	hb := cuckooHashBase(kw)
	h0 := cuckooMix(hb ^ cuckooSalt(0))
	b0 := st.bucket(0, h0)
	b1 := st.bucket(1, cuckooMix(hb^cuckooSalt(1)))
	spec := b1[0].ctrl // start side 1's fetch before scanning side 0
	want := cuckooValid | cuckooFP(h0)<<32 | (kw[3]&0xff)<<24
	for w := range b0 {
		s := &b0[w]
		if s.ctrl&cuckooMatchMask == want && slotKWEqual(s, kw) {
			return int(s.ctrl & cuckooAddrMask), true
		}
	}
	if spec&cuckooMatchMask == want && slotKWEqual(&b1[0], kw) {
		return int(spec & cuckooAddrMask), true
	}
	for w := 1; w < cuckooWays; w++ {
		s := &b1[w]
		if s.ctrl&cuckooMatchMask == want && slotKWEqual(s, kw) {
			return int(s.ctrl & cuckooAddrMask), true
		}
	}
	return 0, false
}

// LookupWordsBatch resolves a group of already-masked keys: out[i]
// receives the address for kws[i] or -1 on miss, and the hit count is
// returned. out must be at least as long as kws.
//
//menshen:hotpath
func (c *Cuckoo) LookupWordsBatch(kws []KeyWords, out []int32) int {
	hits := 0
	for i := range kws {
		if addr, ok := c.LookupWords(&kws[i]); ok {
			out[i] = int32(addr)
			hits++
		} else {
			out[i] = -1
		}
	}
	return hits
}

// CuckooEntry is one enumerated entry: the stored key in word form and
// its action address. Entries returns these for view precompilation
// and checksumming.
type CuckooEntry struct {
	Words KeyWords
	Addr  int32
}

// Entries enumerates the table in deterministic table order (side,
// bucket, way), or returns nil when it is empty. It is a control-path
// operation and allocates the result.
func (c *Cuckoo) Entries() []CuckooEntry {
	if c.used == 0 {
		return nil
	}
	out := make([]CuckooEntry, 0, c.used)
	for side := range c.state.dir {
		for _, seg := range c.state.segments(side) {
			for i := range seg.slots {
				if s := &seg.slots[i]; s.ctrl&cuckooValid != 0 {
					out = append(out, CuckooEntry{Words: s.words(), Addr: int32(s.ctrl & cuckooAddrMask)})
				}
			}
		}
	}
	return out
}

// locate scans kw's two buckets in st once, from one hash base. It
// returns kw's match word (valid, fingerprint, tail byte), the slot
// holding kw (or nil) and the first free slot, side 0 first (nil when
// both buckets are full).
func locate(st *cuckooState, kw *KeyWords) (want uint64, hit, free *cuckooSlot) {
	hb := cuckooHashBase(kw)
	h0 := cuckooMix(hb ^ cuckooSalt(0))
	want = cuckooValid | cuckooFP(h0)<<32 | (kw[3]&0xff)<<24
	for side, h := range [2]uint64{h0, cuckooMix(hb ^ cuckooSalt(1))} {
		b := st.bucket(side, h)
		for w := range b {
			s := &b[w]
			if s.ctrl&cuckooMatchMask == want && slotKWEqual(s, kw) {
				return want, s, nil
			}
			if s.ctrl&cuckooValid == 0 && free == nil {
				free = s
			}
		}
	}
	return want, nil, free
}

// cuckooMaxKicks caps the relocation walk: its length is what one
// insert can cost, so it must not grow with the table.
const cuckooMaxKicks = 512

// cuckooKicks is the relocation bound for nb buckets per side: eight
// kicks per slot of one side, up to the cap.
func cuckooKicks(nb int) int { return min(8*nb*cuckooWays, cuckooMaxKicks) }

// Insert places key -> addr with one probe: a single pass over both
// candidate buckets finds a duplicate (updated in place) or the first
// free slot. Only when both buckets are full does it walk a relocation
// chain, of at most cuckooKicks evictions. On failure every eviction is
// rolled back, leaving the table unchanged; a growing table doubles its
// buckets instead of failing.
func (c *Cuckoo) Insert(key Key, addr int) error {
	if addr < 0 || addr > MaxCuckooAddr {
		return fmt.Errorf("tables: cuckoo action address %d outside [0, %d]", addr, MaxCuckooAddr)
	}
	kw := key.Words()
	for {
		st := &c.state
		want, hit, free := locate(st, &kw)
		ctrl := want | uint64(addr)
		switch {
		case hit != nil:
			hit.ctrl = ctrl
			return nil
		case c.growable && c.used*8 >= 2*st.nb*cuckooWays*7:
			// Above ~87% load relocation chains get long; double early.
			c.grow()
			continue
		case free != nil:
			*free = makeSlot(&kw, ctrl)
		case !c.relocate(makeSlot(&kw, ctrl)):
			if !c.growable {
				return fmt.Errorf("%w: after %d kicks", ErrCuckooFull, cuckooKicks(st.nb))
			}
			c.grow()
			continue
		}
		c.used++
		return nil
	}
}

// relocate places cur by a cuckoo walk from side 0, evicting at most
// cuckooKicks entries. On failure the eviction path is walked backwards
// so the table is byte-identical to before the call.
func (c *Cuckoo) relocate(cur cuckooSlot) bool {
	st := &c.state
	path := make([]*cuckooSlot, 0, cuckooMaxKicks)
	side := 0
	for kick := 0; kick < cuckooKicks(st.nb); kick++ {
		kw := cur.words()
		slots := st.bucket(side, cuckooHash(side, &kw))
		for w := range slots {
			if slots[w].ctrl&cuckooValid == 0 {
				slots[w] = cur
				return true
			}
		}
		// Bucket full: evict a deterministic victim and continue on the
		// other side.
		s := &slots[kick%cuckooWays]
		path = append(path, s)
		cur, *s = *s, cur
		side = 1 - side
	}
	// Failure: walk the eviction path backwards, undoing each swap, so
	// the displaced survivor chain is restored and the new key is out.
	for i := len(path) - 1; i >= 0; i-- {
		cur, *path[i] = *path[i], cur
	}
	return false
}

// grow doubles the bucket count by splitting every bucket. Bucket
// counts are powers of two, so an entry in bucket b of side s belongs
// in bucket b or b+nb of the same side afterwards, as the next bit of
// its side-s hash decides. Each side gains one segment for buckets
// [nb, 2nb), the only storage a doubling allocates; each bucket b is
// split in place, its stayers compacted into b and its movers into
// b+nb, both in way order. Each new bucket receives entries from one
// old bucket only, at most cuckooWays of them: the split cannot
// overflow and cannot fail.
func (c *Cuckoo) grow() {
	st := &c.state
	nb := uint64(st.nb)
	top := bits.Len64(st.mask) + 1 // the bit length of every index in [nb, 2nb)
	for side := range st.dir {
		upper := make([]cuckooSlot, nb*cuckooWays)
		next := upper
		for _, seg := range st.segments(side) {
			for i := 0; i < len(seg.slots); i += cuckooWays {
				lo, hi := seg.slots[i:i+cuckooWays], next[:cuckooWays]
				next = next[cuckooWays:]
				nlo, nhi := 0, 0
				for _, s := range lo {
					if s.ctrl&cuckooValid == 0 {
						continue
					}
					if kw := s.words(); cuckooHash(side, &kw)&nb != 0 {
						hi[nhi] = s
						nhi++
					} else {
						lo[nlo] = s
						nlo++
					}
				}
				clear(lo[nlo:])
			}
		}
		st.dir[side][top] = cuckooSeg{slots: upper, base: nb}
	}
	st.nb *= 2
	st.mask = uint64(st.nb - 1)
}

// Delete removes key, reporting whether it was present.
func (c *Cuckoo) Delete(key Key) bool {
	kw := key.Words()
	if _, s, _ := locate(&c.state, &kw); s != nil {
		s.ctrl = 0
		c.used--
		return true
	}
	return false
}

// FlowTables is a stage's exact-match side: one growing Cuckoo per
// module, held in a directory sized like the stage's overlays, so the
// flow tables are space-partitioned the way the CAM and the overlays
// are (§3.1): one module's inserts, growth or unload never touch
// another module's table. Like its tables, a directory has one owner,
// which serializes every call (a pipeline does so under its batch
// lock).
type FlowTables struct {
	tables []*Cuckoo
}

// NewFlowTables returns a directory for module indices [0, depth); use
// OverlayDepth for the paper's geometry.
func NewFlowTables(depth int) *FlowTables {
	return &FlowTables{tables: make([]*Cuckoo, depth)}
}

// Table returns mod's flow table, or nil when it has none (no flow yet,
// cleared, or mod past the directory's depth).
func (f *FlowTables) Table(mod uint16) *Cuckoo {
	if int(mod) >= len(f.tables) {
		return nil
	}
	return f.tables[mod]
}

// Open returns mod's flow table, creating it on the module's first
// flow. A module index at or past the depth is ErrIndexRange, as on the
// overlays.
func (f *FlowTables) Open(mod uint16) (*Cuckoo, error) {
	if int(mod) >= len(f.tables) {
		return nil, fmt.Errorf("%w: flow table index %d (depth %d)", ErrIndexRange, mod, len(f.tables))
	}
	if f.tables[mod] == nil {
		f.tables[mod] = NewGrowingCuckoo(CAMDepth)
	}
	return f.tables[mod], nil
}

// ClearModule drops mod's flow table and returns how many entries it
// held — the same per-module clearing contract as the CAM. It drops one
// pointer: O(1), and no other module's table is touched.
func (f *FlowTables) ClearModule(mod uint16) int {
	t := f.Table(mod)
	if t == nil {
		return 0
	}
	f.tables[mod] = nil
	return t.Used()
}

// ModuleEntries returns the number of mod's flow entries.
func (f *FlowTables) ModuleEntries(mod uint16) int {
	if t := f.Table(mod); t != nil {
		return t.Used()
	}
	return 0
}

// LookupWords probes mod's flow table for kw (see Cuckoo.LookupWords).
//
//menshen:hotpath
func (f *FlowTables) LookupWords(kw *KeyWords, mod uint16) (int, bool) {
	if t := f.Table(mod); t != nil {
		return t.LookupWords(kw)
	}
	return 0, false
}

// LookupWordsBatch probes mod's flow table for every key of kws (see
// Cuckoo.LookupWordsBatch); without a table every out[i] is -1.
//
//menshen:hotpath
func (f *FlowTables) LookupWordsBatch(mod uint16, kws []KeyWords, out []int32) int {
	if t := f.Table(mod); t != nil {
		return t.LookupWordsBatch(kws, out)
	}
	for i := range kws {
		out[i] = -1
	}
	return 0
}
