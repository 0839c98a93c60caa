package ssb

import (
	"encoding/binary"

	"github.com/slash-stream/slash/internal/crdt"
)

// Bag tables. Holistic state only ever grows (§5.1), so a bag fragment is a
// plain log (a list of segments, see bagseg.go): appending writes one
// fixed-size entry and maintains no index, a helper's epoch delta is the log
// itself, and the leader's merge — the same HandleChunk every table kind
// goes through — concatenates it. Nothing on that path looks at a key. The
// one consumer that needs bags by key is the window trigger, the sequence
// aggregate windows fire through too, and every join it feeds only counts
// sides: its emit step makes one forward pass over the log with a
// SideCounter the trigger owns (sides.go), so a bag table itself keeps no
// by-key state for it. The element view (ForEachBag) and Keys group the log
// into the table's bagGroups, keyed through the flat index aggregate tables
// use, and the element view then scatters the decoded elements into one
// array where every key's bag is a contiguous slice; tests, the state
// publisher and the bench mirror use it.

// bagGroups is the by-key view of a bag table's log. It covers the first
// len(gids) entries; group extends it over whatever was appended since.
type bagGroups struct {
	// idx maps key → group id: the flat index aggregate tables probe, its
	// offset field holding the group id. Its slots are allocated on the
	// first group, so helper fragments, which are never grouped, carry none.
	idx    index
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

// reset empties the view, keeping every array for the table's next window.
func (g *bagGroups) reset() {
	g.idx.reset()
	g.keys = g.keys[:0]
	g.counts = g.counts[:0]
	g.gids = g.gids[:0]
	g.placed = 0
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
	if g.idx.slots == nil {
		g.idx = *newIndex()
	}
	var prevKey uint64
	prevGid := int32(-1)
	for s := i / bagSegEntries; i < l.n; s++ {
		span := l.span(s)
		for off := (i - s*bagSegEntries) * bagEntrySize; off < len(span); i, off = i+1, off+bagEntrySize {
			key := getU64(span[off:])
			gid := prevGid
			if gid < 0 || key != prevKey {
				slot, found := g.idx.lookupOrReserve(key)
				if !found {
					*slot = int32(len(g.keys))
					g.keys = append(g.keys, key)
					g.counts = append(g.counts, 0)
				}
				gid = *slot
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
