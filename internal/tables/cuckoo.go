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
// relocation chain, capped at a constant. A growing table grows one
// bucket pair at a time, by linear hashing (Litwin, VLDB 1980): once
// an insert takes the load past the target (3/4 of the slots), it
// splits the bucket at the split pointer, on each side, into itself and
// its buddy, moving only the entries whose next hash bit says so. A
// split cannot overflow, so it never fails and never walks, and an
// insert splits at most a constant number of buckets, so no insert
// stalls the shard behind it. Storage follows the split pointer a
// chunk at a time, so a table holds memory for the most entries it has
// held, not for the next power of two: 2^18 flows take 10.75 MiB,
// where doubling took 16. Deletes do not merge buckets back.

package tables

import (
	"errors"
	"fmt"
	"iter"
)

// ErrCuckooFull is returned when insertion cannot place an entry after
// the relocation bound; the table holds exactly the entries it held
// (failed inserts roll their evictions back). A growing table returns
// it only when its bounded split batches did not make room either,
// which takes keys whose hashes collide in their low bits on both
// sides.
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

// cuckooState is the table's buckets and where growth stands. Growth
// is linear hashing (Litwin, VLDB 1980), run on both sides in step: a
// round starts with nb buckets per side, and a split pointer walks
// buckets [0, nb), splitting bucket p of each side into itself and its
// buddy p+nb. A bucket below the pointer has split this round, so a
// hash whose low bits name it takes one more bit; when the pointer
// reaches nb the round ends with 2nb buckets per side. Each side's
// buckets live in chunks of cuckooChunkBuckets, found by one directory
// index; a buddy's chunk is allocated when the pointer first reaches
// it. A table smaller than one chunk keeps one short chunk, doubled at
// the start of each round.
type cuckooState struct {
	nb     int    // buckets per side at the round's start; a power of two
	mask   uint64 // nb - 1: an unsplit bucket's index is hash & mask
	split  uint64 // the split pointer: buckets [0, split) have split this round
	chunks [2][][]cuckooSlot
}

// cuckooChunkShift sets the chunk size: 2^10 buckets of one side,
// 128 KiB, is the most storage one split allocates.
const (
	cuckooChunkShift   = 10
	cuckooChunkBuckets = 1 << cuckooChunkShift
)

// init gives st nb buckets per side and no split yet.
func (st *cuckooState) init(nb int) {
	st.nb, st.mask, st.split = nb, uint64(nb-1), 0
	for side := range st.chunks {
		for b := 0; b < nb; b += cuckooChunkBuckets {
			st.chunks[side] = append(st.chunks[side], make([]cuckooSlot, min(nb, cuckooChunkBuckets)*cuckooWays))
		}
	}
}

// buckets returns the number of addressable buckets per side.
func (st *cuckooState) buckets() int { return st.nb + int(st.split) }

// index returns the bucket a side's hash h names: h & mask, or one bit
// more when that bucket has already split this round.
func (st *cuckooState) index(h uint64) uint64 {
	b := h & st.mask
	// (b-split)>>63 is 1 exactly when b < split, as neither reaches
	// 2^63. Computing the bit rather than branching on it keeps a
	// probe free of a mispredicted branch: which buckets have split is
	// as random as the hash.
	return b | h&(st.mask+1)&-((b-st.split)>>63)
}

// bucket returns the cuckooWays slots of side's bucket for hash h.
//
//menshen:hotpath
func (st *cuckooState) bucket(side int, h uint64) []cuckooSlot {
	b := st.index(h)
	return st.chunks[side][b>>cuckooChunkShift][(b&(cuckooChunkBuckets-1))*cuckooWays:][:cuckooWays]
}

// splitNext splits bucket p = split of each side into p and its buddy
// p+nb, as the next bit of each entry's side hash decides: stayers are
// compacted in way order into p, movers in way order into p+nb. The
// buddy holds entries from bucket p only, at most cuckooWays of them,
// so a split cannot overflow and cannot fail. It allocates only when
// the buddy's chunk does not exist yet.
func (st *cuckooState) splitNext() {
	nb := uint64(st.nb)
	p, buddy := st.split, st.split+nb
	for side := range st.chunks {
		chunks := st.chunks[side]
		ci, off := buddy>>cuckooChunkShift, int(buddy&(cuckooChunkBuckets-1))*cuckooWays
		switch {
		case int(ci) == len(chunks):
			chunks = append(chunks, make([]cuckooSlot, cuckooChunkBuckets*cuckooWays))
		case off == len(chunks[0]):
			// A table below one chunk: this round's buddies double it.
			grown := make([]cuckooSlot, 2*off)
			copy(grown, chunks[0])
			chunks[0] = grown
		}
		st.chunks[side] = chunks
		lo := chunks[p>>cuckooChunkShift][int(p&(cuckooChunkBuckets-1))*cuckooWays:][:cuckooWays]
		hi := chunks[ci][off:][:cuckooWays]
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
	if st.split++; st.split == nb {
		st.nb *= 2
		st.mask = uint64(st.nb - 1)
		st.split = 0
	}
}

// Cuckoo is a two-choice, 4-way set-associative cuckoo hash table
// mapping a key to an action address: one module's flow table. Exact
// match only. It is not safe for concurrent use: its owner serializes
// every read and write (a pipeline does so under its batch lock).
type Cuckoo struct {
	state cuckooState
	used  int
	// growable, when set, lets Insert split buckets to hold the load at
	// the target and to make room for a failed relocation walk.
	growable bool
}

// NewCuckoo returns a fixed-capacity table with room for about
// `capacity` entries (rounded up to whole buckets). Insert fails with
// ErrCuckooFull when the relocation bound is hit.
func NewCuckoo(capacity int) *Cuckoo {
	need := (capacity + 2*cuckooWays - 1) / (2 * cuckooWays)
	// A round starts with a power-of-two bucket count, so the per-probe
	// bucket index is a mask, not a hardware division.
	nb := 1
	for nb < need {
		nb *= 2
	}
	c := &Cuckoo{}
	c.state.init(nb)
	return c
}

// NewGrowingCuckoo returns a table that starts at the given capacity
// and grows one bucket pair at a time, by linear-hashing splits: an
// insert that takes the load past the target load (3/4) splits the
// next bucket of each side, and one whose relocation walk fails splits
// a bounded batch more and retries, so no insert splits more than
// cuckooMaxSplits buckets of a side. Storage follows the splits a chunk
// at a time. Stages use this form: a module's exact-match flow count is
// unknown up front and may reach millions.
func NewGrowingCuckoo(capacity int) *Cuckoo {
	c := NewCuckoo(capacity)
	c.growable = true
	return c
}

// Capacity returns the slots allocated: every chunk of both sides,
// including the part of the last chunk the split pointer has not
// reached yet.
func (c *Cuckoo) Capacity() int {
	n := 0
	for _, chunks := range c.state.chunks {
		n += (len(chunks)-1)*cuckooChunkBuckets*cuckooWays + len(chunks[0])
	}
	return n
}

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
// its action address. All yields these for view precompilation and
// checksumming.
type CuckooEntry struct {
	Words KeyWords
	Addr  int32
}

// All yields the table's entries in deterministic table order (side,
// bucket, way), reading each where it lies: a caller folds a table of
// any size without copying it. The table must not change while the
// sequence runs.
func (c *Cuckoo) All() iter.Seq[CuckooEntry] {
	return func(yield func(CuckooEntry) bool) {
		for _, chunks := range c.state.chunks {
			for _, chunk := range chunks {
				for i := range chunk {
					if s := &chunk[i]; s.ctrl&cuckooValid != 0 && !yield(CuckooEntry{Words: s.words(), Addr: int32(s.ctrl & cuckooAddrMask)}) {
						return
					}
				}
			}
		}
	}
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

// A growing table splits to hold its load at or below
// cuckooLoadNum/cuckooLoadDen of its addressable slots. 3/4 keeps a
// 2^18-flow table in 10.75 MiB against 16 MiB for doubling, at 1.5
// relocation kicks per insert against 0.5, and inserts as fast; 0.8
// saves 0.75 MiB more but kicks 4.4 times per insert.
const (
	cuckooLoadNum = 3
	cuckooLoadDen = 4
)

// A failed relocation walk in a growing table splits cuckooSplitBatch
// more buckets per side and retries, at most cuckooSplitRetries times,
// so one insert splits at most cuckooMaxSplits buckets of a side: the
// one that holds the target load, and the retries' batches.
const (
	cuckooSplitBatch   = 8
	cuckooSplitRetries = 4
	cuckooMaxSplits    = 1 + cuckooSplitBatch*cuckooSplitRetries
)

// Insert places key -> addr with one probe: a single pass over both
// candidate buckets finds a duplicate (updated in place) or the first
// free slot. Only when both buckets are full does it walk a relocation
// chain, of at most cuckooKicks evictions. On failure every eviction is
// rolled back, so the table holds exactly the entries it held; a
// growing table first splits a batch of buckets and retries, and after
// a new entry splits once more if the load passed the target.
func (c *Cuckoo) Insert(key Key, addr int) error {
	if addr < 0 || addr > MaxCuckooAddr {
		return fmt.Errorf("tables: cuckoo action address %d outside [0, %d]", addr, MaxCuckooAddr)
	}
	kw := key.Words()
	st := &c.state
	for retry := 0; ; retry++ {
		want, hit, free := locate(st, &kw)
		ctrl := want | uint64(addr)
		switch {
		case hit != nil:
			hit.ctrl = ctrl
			return nil
		case free != nil:
			*free = makeSlot(&kw, ctrl)
		case !c.relocate(makeSlot(&kw, ctrl)):
			if !c.growable || retry == cuckooSplitRetries {
				return fmt.Errorf("%w: after %d kicks", ErrCuckooFull, cuckooKicks(st.nb))
			}
			for range cuckooSplitBatch {
				st.splitNext()
			}
			continue
		}
		c.used++
		if c.growable && c.used*cuckooLoadDen > cuckooLoadNum*2*cuckooWays*st.buckets() {
			st.splitNext()
		}
		return nil
	}
}

// relocate places cur by a cuckoo walk from side 0, evicting at most
// cuckooKicks entries. On failure the walk is undone backwards, so the
// table is byte-identical to before the call.
func (c *Cuckoo) relocate(cur cuckooSlot) bool {
	st := &c.state
	kicks := cuckooKicks(st.nb)
	side := 0
	for kick := 0; kick < kicks; kick++ {
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
		cur, *s = *s, cur
		side = 1 - side
	}
	// Failure: undo each swap, last first. The entry in hand was
	// evicted from its own bucket on the side of the swap that evicted
	// it, and from way kick%cuckooWays there, so its hash finds the
	// slot again: the walk needs no record of its path.
	for kick := kicks - 1; kick >= 0; kick-- {
		side = 1 - side
		kw := cur.words()
		s := &st.bucket(side, cuckooHash(side, &kw))[kick%cuckooWays]
		cur, *s = *s, cur
	}
	return false
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
