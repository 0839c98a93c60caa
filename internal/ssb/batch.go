// Columnar update path of the SSB (the batch form of UpdateAgg/AppendBag).
//
// The per-record fast path pays, for every record: a partition-map read lock
// (Owner), a window-cache probe, a hash-index chain walk, and an interface
// dispatch into the CRDT aggregate. Over a run of records that the window
// assigner proved share one window set (window.Runs), all of that except the
// index probe hoists out of the inner loop:
//
//   - the route (active leader set + generation) is looked up once per
//     (batch, window) via PartitionMap.RouteFor — no lock per record;
//   - records scatter into per-leader groups (order-preserving counting
//     sort), so each fragment table sees one dense column slice;
//   - the key column is pre-hashed in one tight loop and probes reuse the
//     stored hashes; consecutive equal keys skip the probe entirely;
//   - the aggregate's type dispatch resolves to a jump table on a uint8
//     kind instead of an interface call per record.
//
// Equivalence with the per-record path is exact: each fragment receives the
// same record subsequence in the same order, CRDT updates commute across
// keys, and the thread watermark after a batch equals the last (maximal)
// timestamp — so epoch chunk bytes, and therefore window results, are
// byte-identical (the differential tests in core and harness assert this).
package ssb

import (
	"math"

	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/stream"
)

// aggKind enumerates the built-in aggregates the batch loop specializes on.
type aggKind uint8

const (
	aggGeneric aggKind = iota // unknown aggregate: per-record interface call
	aggCount
	aggSum
	aggMin
	aggMax
	aggAvg
)

// kindOfAgg resolves an aggregate to its specialized batch kind.
func kindOfAgg(a crdt.Aggregate) aggKind {
	switch a.(type) {
	case crdt.Count:
		return aggCount
	case crdt.Sum:
		return aggSum
	case crdt.Min:
		return aggMin
	case crdt.Max:
		return aggMax
	case crdt.Avg:
		return aggAvg
	default:
		return aggGeneric
	}
}

// batchScratch is the reusable storage of one thread's columnar update path.
type batchScratch struct {
	keys   []uint64 // gathered keys, grouped by leader node
	hashes []uint64 // Mix64 of keys (index probe hashes)
	v0     []int64  // gathered V0 column
	times  []int64  // gathered Times column (generic aggregates only)
	v1     []int64  // gathered V1 column (generic aggregates only)
	node   []int32  // per-position leader node (scatter pass 1)
	off    []int32  // per-node fill cursor, indexed by node id
	// AppendBagBatch's per-node write position: the bag segment, and the
	// index of the segment after it in the node's fragment (off holds the
	// byte offset in the segment).
	seg  []*bagSeg
	next []int32
}

func (s *batchScratch) ensure(n, maxNodes int, generic bool) {
	if cap(s.keys) < n {
		s.keys = make([]uint64, n)
		s.hashes = make([]uint64, n)
		s.v0 = make([]int64, n)
		s.node = make([]int32, n)
	}
	s.keys = s.keys[:n]
	s.hashes = s.hashes[:n]
	s.v0 = s.v0[:n]
	s.node = s.node[:n]
	if generic {
		if cap(s.times) < n {
			s.times = make([]int64, n)
			s.v1 = make([]int64, n)
		}
		s.times = s.times[:n]
		s.v1 = s.v1[:n]
	}
	if len(s.off) < maxNodes {
		s.off = make([]int32, maxNodes)
		s.seg = make([]*bagSeg, maxNodes)
		s.next = make([]int32, maxNodes)
	}
}

// UpdateAggBatch folds the live records of rb at selection positions
// [p0, p1) into window win — the batch form of UpdateAgg. The caller (the
// source task) guarantees the positions form one window-assignment run, so
// every record belongs to win.
func (ts *ThreadState) UpdateAggBatch(win uint64, rb *stream.RecordBatch, p0, p1 int) error {
	n := p1 - p0
	if n <= 0 {
		return nil
	}
	ts.updates += uint64(n)
	last := rb.Times[rb.LiveIndex(p1-1)]
	if last > ts.wm {
		ts.wm = last
	}

	active, gen := ts.be.pmap.RouteFor(win)
	c := ts.cacheEntry(win, gen)
	kind := ts.aggKind
	generic := kind == aggGeneric
	na := len(active)

	if na == 1 && rb.Sel == nil && !generic {
		// Single leader, no selection: update straight off the batch columns.
		tbl := c.tables[active[0]]
		if tbl == nil {
			tbl = ts.tableSlow(c, win, gen, active[0])
		}
		s := &ts.batch
		s.ensure(n, len(c.tables), false)
		hashes := s.hashes[:n]
		keys := rb.Keys[p0:p1]
		for i, k := range keys {
			hashes[i] = Mix64(k)
		}
		return tbl.updateAggColumns(kind, keys, hashes, rb.V0[p0:p1], nil, nil)
	}

	s := &ts.batch
	s.ensure(n, len(c.tables), generic)

	// Pass 1: route each key and count per leader. The counting sort keeps
	// each leader's records in batch order, so fragment logs grow exactly as
	// the per-record path would grow them.
	for i := range s.off[:len(c.tables)] {
		s.off[i] = 0
	}
	sel := rb.Sel
	bKeys := rb.Keys
	for i := 0; i < n; i++ {
		p := p0 + i
		if sel != nil {
			p = int(sel[p0+i])
		}
		node := int32(active[partitionIndex(PartitionHash(bKeys[p]), na)])
		s.node[i] = node
		s.off[node]++
	}
	// Prefix sums over the active set only.
	var sum int32
	for _, node := range active {
		cnt := s.off[node]
		s.off[node] = sum
		sum += cnt
	}
	// Pass 2: scatter the columns into leader-grouped order.
	for i := 0; i < n; i++ {
		p := p0 + i
		if sel != nil {
			p = int(sel[p0+i])
		}
		node := s.node[i]
		at := s.off[node]
		s.off[node] = at + 1
		s.keys[at] = bKeys[p]
		s.v0[at] = rb.V0[p]
		if generic {
			s.times[at] = rb.Times[p]
			s.v1[at] = rb.V1[p]
		}
	}
	// Pre-hash the gathered key column in one tight loop.
	for i, k := range s.keys[:n] {
		s.hashes[i] = Mix64(k)
	}
	// Per-leader dense update. s.off[node] now holds each group's end.
	var start int32
	for _, node := range active {
		end := s.off[node]
		if end == start {
			continue
		}
		tbl := c.tables[node]
		if tbl == nil {
			tbl = ts.tableSlow(c, win, gen, node)
		}
		var gt, gv1 []int64
		if generic {
			gt, gv1 = s.times[start:end], s.v1[start:end]
		}
		if err := tbl.updateAggColumns(kind, s.keys[start:end], s.hashes[start:end], s.v0[start:end], gt, gv1); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// updateAggColumns is the per-fragment inner loop: fold parallel key/value
// columns into the aggregate table. hashes[i] must equal Mix64(keys[i]);
// times/v1 are only consulted for generic aggregates. Consecutive equal keys
// reuse the previous entry's offset without re-probing — the skew fast path
// (a Zipf-heavy column is full of same-key runs).
func (t *Table) updateAggColumns(kind aggKind, keys, hashes []uint64, v0, times, v1 []int64) error {
	if t.agg == nil {
		return ErrTableKind
	}
	size := t.agg.Size()
	t.idx.reserve(len(keys)) // worst case every key is new: at most one rehash
	var prevKey uint64
	prevOff := int32(-1)
	for i, key := range keys {
		var off int32
		if prevOff >= 0 && key == prevKey {
			off = prevOff
		} else {
			slot, found := t.idx.lookupOrReserveHashed(key, hashes[i])
			if found {
				off = *slot
			} else {
				o, value, err := t.appendBlank(key, size)
				if err != nil {
					return err
				}
				// Zero is the identity of count/sum/avg; only the extremes
				// and generic aggregates need an explicit init on top.
				clear(value)
				switch kind {
				case aggMin:
					putU64(value, uint64(math.MaxInt64))
				case aggMax:
					putU64(value, 1<<63) // MinInt64 bit pattern
				case aggGeneric:
					t.agg.Init(value)
				}
				*slot = o
				off = o
			}
			prevKey, prevOff = key, off
		}
		st := t.log[int(off)+entryHeaderSize : int(off)+entryHeaderSize+size]
		switch kind {
		case aggCount:
			putU64(st, getU64(st)+1)
		case aggSum:
			putU64(st, uint64(int64(getU64(st))+v0[i]))
		case aggMin:
			if v := v0[i]; v < int64(getU64(st)) {
				putU64(st, uint64(v))
			}
		case aggMax:
			if v := v0[i]; v > int64(getU64(st)) {
				putU64(st, uint64(v))
			}
		case aggAvg:
			putU64(st, uint64(int64(getU64(st))+v0[i]))
			putU64(st[8:], getU64(st[8:])+1)
		default:
			rec := stream.Record{Key: key, Time: times[i], V0: v0[i], V1: v1[i]}
			t.agg.Update(st, &rec)
		}
	}
	return nil
}

// AppendBagBatch appends the live records of rb at selection positions
// [p0, p1) to window win's bags — the batch form of AppendBag. sides[j]
// holds the join side of record index j (the full batch index domain, not
// the selection domain). Records are routed and counted per leader first, so
// each fragment's log is extended once for the whole run (a run may span
// segments); the second pass writes every entry straight to its place, in
// batch order per leader — the same log bytes the per-record path produces.
func (ts *ThreadState) AppendBagBatch(win uint64, rb *stream.RecordBatch, p0, p1 int, sides []uint8) error {
	n := p1 - p0
	if n <= 0 {
		return nil
	}
	ts.updates += uint64(n)
	last := rb.Times[rb.LiveIndex(p1-1)]
	if last > ts.wm {
		ts.wm = last
	}
	active, gen := ts.be.pmap.RouteFor(win)
	c := ts.cacheEntry(win, gen)
	na := len(active)
	sel := rb.Sel
	s := &ts.batch
	s.ensure(n, len(c.tables), false)

	// Pass 1: route each key and count per leader.
	for _, node := range active {
		s.off[node] = 0
	}
	for i := 0; i < n; i++ {
		p := p0 + i
		if sel != nil {
			p = int(sel[p])
		}
		node := int32(active[partitionIndex(PartitionHash(rb.Keys[p]), na)])
		s.node[i] = node
		s.off[node]++
	}
	// Extend each touched fragment once and point its write position at the
	// first reserved entry.
	for _, node := range active {
		cnt := int(s.off[node])
		if cnt == 0 {
			continue
		}
		tbl := c.tables[node]
		if tbl == nil {
			tbl = ts.tableSlow(c, win, gen, node)
		}
		if tbl.bag == nil {
			return ErrTableKind
		}
		l := tbl.bag
		at, err := l.reserve(cnt)
		if err != nil {
			return err
		}
		s.seg[node] = l.segs[at/bagSegEntries]
		s.off[node] = int32(at % bagSegEntries * bagEntrySize)
		s.next[node] = int32(at/bagSegEntries + 1)
	}
	// Pass 2: write the entries.
	for i := 0; i < n; i++ {
		p := p0 + i
		if sel != nil {
			p = int(sel[p])
		}
		node := s.node[i]
		at := s.off[node]
		if at == bagSegBytes {
			s.seg[node] = c.tables[node].bag.segs[s.next[node]]
			s.next[node]++
			at = 0
		}
		s.off[node] = at + bagEntrySize
		e := crdt.BagElem{Time: rb.Times[p], Val: rb.V0[p], Side: sides[p]}
		putBagEntry(s.seg[node][at:], rb.Keys[p], &e)
	}
	return nil
}
