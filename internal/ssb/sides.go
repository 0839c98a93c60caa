package ssb

// The side counter. Every join the trigger feeds only counts how many of a
// key's bag elements sit on each side, so a bag window is read once, in one
// forward pass over its log, into a map owned by whoever fires the window —
// not by the table: a pooled bag table keeps no by-key array, and a cold one
// grows none. The counters live in the slot beside the key, so a probe
// touches one cache line and has no dependent load to make.

// sideSlot is one key's counters. A used slot always counts at least one
// element, so left == right == 0 marks a free slot — and key 0 is a key
// like any other.
type sideSlot struct {
	key         uint64
	left, right int32
}

// bagSideOffset is where an entry's Side byte sits: the low byte of the
// element's third word, exactly what crdt.DecodeBagElem reads.
const bagSideOffset = entryHeaderSize + 16

// minSideSlots is the slot array a counter starts with.
const minSideSlots = 64

// SideCounter counts a bag table's elements per key and join side. Its map is
// open addressing with linear probing over a power-of-two slot array kept at
// most half full, plus the slot indices in first-appearance order: Count
// visits keys in that order, so the emit order depends on the log alone.
// After a pass only the slots it used are cleared, and the arrays are kept,
// so a counter reused for window after window allocates nothing once it has
// seen the largest. The zero value is ready to use; a counter is not safe
// for concurrent use.
type SideCounter struct {
	slots []sideSlot
	order []int32 // slot indices, in first-appearance order
}

// Count visits every key of t's bag once, in first-appearance order, with the
// number of its elements on each join side: left counts Side == 0, right
// every other Side. It is one forward pass over the log's segments that
// reads each entry's key and Side byte and probes the map once per run of
// equal keys. fn must not call back into the counter; the table must not
// change during the call.
func (c *SideCounter) Count(t *Table, fn func(key uint64, left, right int)) {
	l := t.bag
	if l == nil {
		return
	}
	if len(c.slots) == 0 {
		c.slots = make([]sideSlot, minSideSlots)
	}
	slots := c.slots
	var s *sideSlot
	var prevKey uint64
	for seg := range l.segs {
		for log := l.span(seg); len(log) >= bagEntrySize; log = log[bagEntrySize:] {
			key := getU64(log)
			if s == nil || key != prevKey {
				prevKey = key
				for i := int(Mix64(key)); ; i++ {
					s = &slots[i&(len(slots)-1)]
					if s.left|s.right == 0 {
						s = c.claim(key, i&(len(slots)-1))
						slots = c.slots
						break
					}
					if s.key == key {
						break
					}
				}
			}
			// (side + 255) >> 8 is 1 for any non-zero byte: no branch on a
			// side that flips at random from one element to the next.
			right := int32(uint32(log[bagSideOffset])+0xff) >> 8
			s.left += 1 - right
			s.right += right
		}
	}
	for _, i := range c.order {
		s := &c.slots[i]
		fn(s.key, int(s.left), int(s.right))
	}
	for _, i := range c.order {
		c.slots[i] = sideSlot{}
	}
	c.order = c.order[:0]
}

// claim gives key, which is new, the free slot i — after growing the map
// if that would fill it past half, a fresh free slot in the grown one. The
// caller counts an element into it before probing again, which keeps a
// claimed slot from looking free.
func (c *SideCounter) claim(key uint64, i int) *sideSlot {
	if 2*(len(c.order)+1) > len(c.slots) {
		c.grow()
		i = c.free(key)
	}
	c.slots[i].key = key
	c.order = append(c.order, int32(i))
	return &c.slots[i]
}

// free returns the free slot where key, which is not in the map, belongs.
func (c *SideCounter) free(key uint64) int {
	mask := len(c.slots) - 1
	i := int(Mix64(key)) & mask
	for c.slots[i].left|c.slots[i].right != 0 {
		i = (i + 1) & mask
	}
	return i
}

// grow doubles the slot array, rehashing the used slots in first-appearance
// order and pointing the order list at their new places.
func (c *SideCounter) grow() {
	old := c.slots
	c.slots = make([]sideSlot, 2*len(old))
	for n, i := range c.order {
		j := c.free(old[i].key)
		c.slots[j] = old[i]
		c.order[n] = int32(j)
	}
}
