// Package ssb implements the Slash State Backend (§7): a distributed,
// concurrent key-value store for in-memory operator state. Each executor
// thread eagerly updates thread-local, log-structured fragments; at epoch
// boundaries fragments are shipped as raw delta chunks over RDMA channels to
// the partition's leader executor, which merges them with CRDT semantics.
// Vector-clock entries piggyback on the chunks so leaders can trigger
// event-time windows consistently (properties P1 and P2 of §5.1).
package ssb

// index maps keys to offsets in the log-structured storage (§7.2.1).
// Decoupling the index from storage keeps updates log-local (temporal
// locality) and lets delta detection avoid pointer chasing — the delta is
// simply a log region.
//
// Unlike FASTER's array of 64-byte multi-slot buckets chained through an
// overflow pool, the index is one flat open-addressing table: linear probing
// over a power-of-two array of 16-byte slots, kept at most half full, so a
// probe almost always ends at its home slot and a miss at the next free one.
// The bucket scan was the largest single cost of the ysb_replay benchmark:
// over a fifth of its CPU, all flat (21.6% and 23.2% in two profiles, seed
// 42, 2 vCPUs, go1.24), mostly the branches of the per-slot occupancy and
// free-slot tests rather than memory. A table that one thread owns, or a
// leader lock guards, needs none of FASTER's latch-free bucket machinery.
type index struct {
	slots []indexSlot
	count int
}

// indexSlot is one table entry; used tells a stored key 0 from a free slot.
type indexSlot struct {
	key  uint64
	off  int32
	used uint32
}

const minSlots = 64

func newIndex() *index {
	return &index{slots: make([]indexSlot, minSlots)}
}

// Mix64 is the splitmix64 finalizer, a strong cheap hash for 64-bit keys.
// The re-partitioning baselines and the Fig. 8 drill-down pick destinations
// with it too, so key distributions compare fairly across systems.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// get returns the log offset for key.
func (ix *index) get(key uint64) (int32, bool) {
	slots := ix.slots
	mask := uint64(len(slots) - 1)
	for i := Mix64(key); ; i++ {
		s := &slots[i&mask]
		if s.key == key && s.used != 0 {
			return s.off, true
		}
		if s.used == 0 {
			return 0, false
		}
	}
}

// set inserts or updates the offset for key.
func (ix *index) set(key uint64, off int32) {
	slot, _ := ix.lookupOrReserve(key)
	*slot = off
}

// lookupOrReserve finds key's slot, or claims a free slot for it, in one
// probe — the upsert fast path of the per-record RMW. The returned pointer
// stays valid until the next set/lookupOrReserve call (growth rehashes
// before the new key's slot is claimed).
func (ix *index) lookupOrReserve(key uint64) (off *int32, found bool) {
	return ix.lookupOrReserveHashed(key, Mix64(key))
}

// lookupOrReserveHashed is lookupOrReserve with the hash precomputed — the
// batch path hashes the whole key column in one tight loop and probes with
// the stored hashes. h must equal Mix64(key). The walk starts at key's home
// slot and compares the key first, so the common case, a hit there, reads
// one slot. Only an insert grows the table: it doubles first if the new key
// would fill it past half.
func (ix *index) lookupOrReserveHashed(key, h uint64) (off *int32, found bool) {
	slots := ix.slots
	mask := uint64(len(slots) - 1)
	for i := h; ; i++ {
		s := &slots[i&mask]
		if s.key == key && s.used != 0 {
			return &s.off, true
		}
		if s.used == 0 {
			if 2*(ix.count+1) > len(slots) {
				ix.growTo(2 * len(slots))
				s = ix.free(h)
			}
			s.key, s.used = key, 1
			ix.count++
			return &s.off, false
		}
	}
}

// free returns the first free slot of the run that starts at h.
func (ix *index) free(h uint64) *indexSlot {
	mask := uint64(len(ix.slots) - 1)
	for ix.slots[h&mask].used != 0 {
		h++
	}
	return &ix.slots[h&mask]
}

// forEach visits every (key, offset) pair, in slot order.
func (ix *index) forEach(fn func(key uint64, off int32)) {
	for i := range ix.slots {
		if s := &ix.slots[i]; s.used != 0 {
			fn(s.key, s.off)
		}
	}
}

// reserve grows the table so that n more keys fit without triggering
// growth — one rehash to the final size instead of a doubling cascade.
// Callers that know a batch's key count (the merge path knows the chunk's
// entry count) use it to keep growth off the per-entry loop.
func (ix *index) reserve(n int) {
	size := len(ix.slots)
	for 2*(ix.count+n) > size {
		size *= 2
	}
	if size > len(ix.slots) {
		ix.growTo(size)
	}
}

// growTo rehashes every key into a fresh table of size slots. Keys are
// distinct, so each goes to the first free slot of its run.
func (ix *index) growTo(size int) {
	old := index{slots: ix.slots}
	ix.slots = make([]indexSlot, size)
	old.forEach(func(key uint64, off int32) {
		*ix.free(Mix64(key)) = indexSlot{key: key, off: off, used: 1}
	})
}

// reset clears the index, keeping the slot array for reuse.
func (ix *index) reset() {
	if ix.count > 0 {
		clear(ix.slots)
		ix.count = 0
	}
}

// len returns the number of indexed keys.
func (ix *index) len() int { return ix.count }
