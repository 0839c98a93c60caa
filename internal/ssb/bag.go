package ssb

import (
	"encoding/binary"

	"github.com/slash-stream/slash/internal/crdt"
)

// Bag tables. Holistic state only ever grows (§5.1), so a bag fragment is a
// plain log (a list of segments, see bagseg.go): appending writes one
// fixed-size entry and maintains no index, a helper's epoch delta is the log
// itself, and the leader's merge concatenates it. Nothing on that path looks
// at a key. The one consumer that needs bags by key is the window trigger,
// and every join it feeds only counts sides: it makes one forward pass over
// the log with a SideCounter the trigger owns (sides.go), so a bag table
// itself keeps no by-key state for it. The element view (ForEachBag) and
// Keys group the log into the table's bagGroups and the element view then
// scatters the decoded elements into one array where every key's bag is a
// contiguous slice; tests, the state publisher and the bench mirror use it.

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

// AppendBag appends one element to key's bag (the holistic-window delta
// update: state only ever grows, §5.1).
func (t *Table) AppendBag(key uint64, e *crdt.BagElem) error {
	if t.bag == nil {
		return ErrTableKind
	}
	return t.bag.append(key, e)
}

// group assigns the entries appended since the last call to their key's
// group: one forward pass over the new part of the log, one probe per entry
// (none for a run of equal keys).
func (l *bagLog) group() {
	g := &l.g
	i := len(g.gids)
	if i == l.n {
		return
	}
	g.gids = resized(g.gids, l.n)
	var prevKey uint64
	prevGid := int32(-1)
	for s := i / bagSegEntries; i < l.n; s++ {
		span := l.span(s)
		for off := (i - s*bagSegEntries) * bagEntrySize; off < len(span); i, off = i+1, off+bagEntrySize {
			key := getU64(span[off:])
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
}

// scatter decodes every grouped entry into its group's slice of elems
// (counting sort by group id, so a bag keeps log order).
func (l *bagLog) scatter() {
	g := &l.g
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
	gids := g.gids
	for s := range l.segs {
		span := l.span(s)
		for off := entryHeaderSize; off < len(span); off += bagEntrySize {
			gid := gids[0]
			gids = gids[1:]
			at := ends[gid]
			ends[gid] = at + 1
			crdt.DecodeBagElem(span[off:off+crdt.BagElemSize], &elems[at])
		}
	}
	g.placed = n
}

// keys returns the number of distinct keys among the entries, grouping the
// ones appended since the last call.
func (l *bagLog) keys() int {
	l.group()
	return len(l.g.keys)
}

// ForEachBag visits every key with its collected bag elements. A bag is a
// multiset: neither the order of keys nor the order of elems is part of the
// contract. elems aliases table memory, valid until the next append, merge
// or Reset. The engine's trigger counts sides through a SideCounter instead;
// this view stays for tests and for the frozen bench mirror
// (bench/layertrace.go), which still calls it.
func (t *Table) ForEachBag(fn func(key uint64, elems []crdt.BagElem)) {
	l := t.bag
	if l == nil {
		return
	}
	l.group()
	l.scatter()
	g := &l.g
	var start int32
	for gid, key := range g.keys {
		end := g.ends[gid]
		fn(key, g.elems[start:end:end])
		start = end
	}
}
