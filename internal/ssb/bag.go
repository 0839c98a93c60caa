package ssb

import (
	"encoding/binary"
	"fmt"

	"github.com/slash-stream/slash/internal/crdt"
)

// Bag tables. Holistic state only ever grows (§5.1), so a bag fragment is a
// plain log: appending writes one fixed-size entry and maintains no index, a
// helper's epoch delta is the log itself, and the leader's merge concatenates
// it. Nothing on that path looks at a key. The one consumer that needs bags
// by key is the window trigger, and it groups the log once, in two sequential
// forward passes: count entries per key (the only place a bag table hashes a
// key), then scatter the decoded elements into one array where every key's
// bag is a contiguous slice.

// bagGroups is the by-key view of a bag table's log. It covers the first
// len(gids) entries; group extends it over whatever was appended since.
type bagGroups struct {
	// slots maps key → group id by open addressing with linear probing: a
	// power-of-two array kept at most half full, so a probe is one
	// predictable branch on one cache line in the common case.
	slots  []groupSlot
	keys   []uint64 // group id → key, in first-appearance order
	counts []int32  // group id → number of elements
	gids   []int32  // entry ordinal → group id
	// elems holds the first placed entries decoded and ordered by group; ends
	// is each group's end position in it. Rebuilt by scatter when placed
	// falls behind len(gids).
	elems  []crdt.BagElem
	ends   []int32
	placed int
}

type groupSlot struct {
	key  uint64
	gid1 int32 // group id + 1; 0 marks a free slot, so clear() empties the map
}

const minGroupSlots = 64

// reset empties the view, keeping every array for the table's next window. A
// fragment that was never grouped — every helper fragment — has nothing to
// clear.
func (g *bagGroups) reset() {
	if len(g.keys) > 0 {
		clear(g.slots)
	}
	g.keys = g.keys[:0]
	g.counts = g.counts[:0]
	g.gids = g.gids[:0]
	g.placed = 0
}

// find returns key's group id, or -1 and the free slot where it belongs
// (nil while the map has no slots at all).
func (g *bagGroups) find(key uint64) (gid int32, free *groupSlot) {
	if len(g.slots) == 0 {
		return -1, nil
	}
	mask := len(g.slots) - 1
	for i := int(mix64(key)) & mask; ; i = (i + 1) & mask {
		s := &g.slots[i]
		if s.gid1 == 0 {
			return -1, s
		}
		if s.key == key {
			return s.gid1 - 1, nil
		}
	}
}

// add opens a new group for key, which find reported missing.
func (g *bagGroups) add(key uint64, free *groupSlot) int32 {
	if 2*(len(g.keys)+1) > len(g.slots) {
		g.slots = make([]groupSlot, max(minGroupSlots, 2*len(g.slots)))
		for gid, k := range g.keys {
			_, s := g.find(k)
			*s = groupSlot{key: k, gid1: int32(gid) + 1}
		}
		_, free = g.find(key)
	}
	gid := int32(len(g.keys))
	*free = groupSlot{key: key, gid1: gid + 1}
	g.keys = append(g.keys, key)
	g.counts = append(g.counts, 0)
	return gid
}

// resized returns s at length n, keeping its contents; when s is too small
// the new array at least doubles, so growing by steps stays linear overall.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(make([]T, 0, max(n, 2*cap(s))), s...)
	}
	return s[:n]
}

// putBagEntry writes one bag log entry into dst[:bagEntrySize]. The prev and
// vlen words are constants, stored as one; encoding/binary keeps the function
// cheap enough to inline into the append loops.
func putBagEntry(dst []byte, key uint64, e *crdt.BagElem) {
	_ = dst[bagEntrySize-1]
	binary.LittleEndian.PutUint64(dst[0:], key)
	binary.LittleEndian.PutUint64(dst[8:], uint64(noPrev)|crdt.BagElemSize<<32)
	crdt.EncodeBagElem(dst[entryHeaderSize:], e)
}

// reserveBag extends the log by n blank entries and returns the offset of the
// first; the caller fills every one of them with putBagEntry.
func (t *Table) reserveBag(n int) (int, error) {
	if n > maxLogSize/bagEntrySize {
		return 0, ErrLogOverflow
	}
	if err := t.growLog(n * bagEntrySize); err != nil {
		return 0, err
	}
	off := len(t.log)
	t.log = t.log[:off+n*bagEntrySize]
	t.elem += n
	return off, nil
}

// AppendBag appends one element to key's bag (the holistic-window delta
// update: state only ever grows, §5.1).
func (t *Table) AppendBag(key uint64, e *crdt.BagElem) error {
	if t.agg != nil {
		return ErrTableKind
	}
	off, err := t.reserveBag(1)
	if err != nil {
		return err
	}
	putBagEntry(t.log[off:], key, e)
	return nil
}

// mergeBagLog is the bag merge: check the entry framing of the whole region,
// then concatenate it. The check comes first so a malformed chunk leaves the
// table exactly as it was. Incoming prev words are carried along unread.
func (t *Table) mergeBagLog(region []byte) error {
	off := 0
	for ; off+bagEntrySize <= len(region); off += bagEntrySize {
		if vlen := getU32(region[off+12:]); vlen != crdt.BagElemSize {
			return fmt.Errorf("%w: bag element of %d bytes at offset %d", ErrChunkFormat, vlen, off)
		}
	}
	if off != len(region) {
		return fmt.Errorf("%w: bag region ends %d bytes into an entry", ErrChunkFormat, len(region)-off)
	}
	if err := t.growLog(len(region)); err != nil {
		return err
	}
	t.log = append(t.log, region...)
	t.elem += len(region) / bagEntrySize
	return nil
}

// group assigns the entries appended since the last call to their key's
// group: one forward pass over the new part of the log, one probe per entry
// (none for a run of equal keys).
func (t *Table) group() {
	g := &t.bag
	n := len(t.log) / bagEntrySize
	i := len(g.gids)
	if i == n {
		return
	}
	g.gids = resized(g.gids, n)
	var prevKey uint64
	prevGid := int32(-1)
	for off := i * bagEntrySize; i < n; i, off = i+1, off+bagEntrySize {
		key := getU64(t.log[off:])
		gid := prevGid
		if gid < 0 || key != prevKey {
			var free *groupSlot
			if gid, free = g.find(key); gid < 0 {
				gid = g.add(key, free)
			}
			prevKey, prevGid = key, gid
		}
		g.counts[gid]++
		g.gids[i] = gid
	}
}

// scatter decodes every grouped entry into its group's slice of elems
// (counting sort by group id, so a bag keeps log order).
func (t *Table) scatter() {
	g := &t.bag
	n := len(g.gids)
	if g.placed == n {
		return
	}
	g.elems = resized(g.elems[:0], n)
	g.ends = resized(g.ends[:0], len(g.keys))
	elems, ends := g.elems, g.ends
	// ends starts as each group's first position and advances to its end.
	var sum int32
	for gid, c := range g.counts {
		ends[gid] = sum
		sum += c
	}
	off := entryHeaderSize
	for _, gid := range g.gids {
		at := ends[gid]
		ends[gid] = at + 1
		crdt.DecodeBagElem(t.log[off:off+crdt.BagElemSize], &elems[at])
		off += bagEntrySize
	}
	g.placed = n
}

// BagLen returns the number of elements in key's bag.
func (t *Table) BagLen(key uint64) int {
	if t.agg != nil {
		return 0
	}
	t.group()
	gid, _ := t.bag.find(key)
	if gid < 0 {
		return 0
	}
	return int(t.bag.counts[gid])
}

// ForEachBag visits every key with its collected bag elements. A bag is a
// multiset: neither the order of keys nor the order of elems is part of the
// contract. elems aliases table memory, valid until the next append, merge
// or Reset.
func (t *Table) ForEachBag(fn func(key uint64, elems []crdt.BagElem)) {
	if t.agg != nil {
		return
	}
	t.group()
	t.scatter()
	g := &t.bag
	var start int32
	for gid, key := range g.keys {
		end := g.ends[gid]
		fn(key, g.elems[start:end:end])
		start = end
	}
}
