package ssb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/stream"
)

// Table is one log-structured state fragment (§7.2.1): a hybrid log of dense
// key-value entries. Aggregate tables keep one entry per key, found through a
// hash index, and update its value in place (RMW) in one flat log. Bag tables
// keep a bagLog: a list of fixed-size segments where an append writes one
// fixed-size entry and touches nothing else, a merge concatenates, and the
// one hot reader — the window trigger — counts the log by key once (see
// SideCounter). The log doubles as the wire format: an epoch delta is a raw log
// region, shipped without pointer chasing, and the log grows adaptively as
// partitions shift in size.
//
// A Table has a single writer (the owning executor thread, or the leader's
// merge task); that is the SSB's concurrency discipline, not a limitation —
// cross-thread merging happens through the epoch protocol.
type Table struct {
	agg  crdt.Aggregate // nil for holistic (bag) tables
	kind aggKind        // specialized dispatch for the built-in aggregates
	idx  *index         // key → log offset; nil for bag tables
	log  []byte         // aggregate tables only
	wire []byte         // reusable scratch for the varint delta encoding
	bag  *bagLog        // bag tables only
}

// Log entry layout:
//
//	offset 0:  key   uint64
//	offset 8:  prev  int32  (reserved)
//	offset 12: vlen  uint32
//	offset 16: value [vlen]byte
//
// prev is a reserved word: it keeps chunk, journal, checkpoint and published
// snapshot framing at the sizes deployed readers expect. Writers store
// noPrev; readers — merges, restores, remote stateq clients — must ignore it.
const entryHeaderSize = 16

const noPrev = ^uint32(0) // -1 as an int32

// bagEntrySize is the fixed stride of a bag table's log: every entry enters
// through AppendBag or a validated merge, so entry i sits at i*bagEntrySize
// of the log its segments hold.
const bagEntrySize = entryHeaderSize + crdt.BagElemSize

// maxLogSize bounds a single table's log so int32 offsets stay valid.
const maxLogSize = math.MaxInt32 - 1

// Errors returned by table operations.
var (
	ErrTableKind   = errors.New("ssb: operation does not match table kind")
	ErrChunkFormat = errors.New("ssb: malformed delta chunk")
	ErrLogOverflow = errors.New("ssb: table log exceeds 2 GiB")
)

// NewAggTable creates a table holding fixed-width aggregate state.
func NewAggTable(agg crdt.Aggregate) *Table {
	if agg == nil {
		panic("ssb: NewAggTable requires an aggregate")
	}
	return &Table{agg: agg, kind: kindOfAgg(agg), idx: newIndex()}
}

// NewBagTable creates a table holding grow-only bags of elements.
func NewBagTable() *Table {
	return &Table{bag: &bagLog{}}
}

// Keys returns the number of distinct keys. On a bag table it groups the
// entries appended since the last call (see group).
func (t *Table) Keys() int {
	if t.bag != nil {
		return t.bag.keys()
	}
	return t.idx.len()
}

// LogBytes returns the size of the log, which is also the delta size the
// next epoch flush will ship.
func (t *Table) LogBytes() int {
	if t.bag != nil {
		return t.bag.n * bagEntrySize
	}
	return len(t.log)
}

// appendLog appends the raw log (self-describing entries; see the entry
// layout above) to dst as consecutive regions: one per segment of a bag
// table, the whole log of an aggregate table. Read-only: the regions alias
// the table's memory and are invalidated by the next append or Reset.
func (t *Table) appendLog(dst [][]byte) [][]byte {
	if t.bag != nil {
		return t.bag.appendSpans(dst)
	}
	if len(t.log) == 0 {
		return dst
	}
	return append(dst, t.log)
}

// growLog makes room for extra more bytes in an aggregate log, growing
// geometrically with a floor so small tables do not churn through many tiny
// reallocations as entries trickle in.
func (t *Table) growLog(extra int) error {
	need := len(t.log) + extra
	if need > maxLogSize {
		return ErrLogOverflow
	}
	if need <= cap(t.log) {
		return nil
	}
	c := 2 * cap(t.log)
	if c < 1024 {
		c = 1024
	}
	if c < need {
		c = need
	}
	if c > maxLogSize {
		c = maxLogSize
	}
	grown := make([]byte, len(t.log), c)
	copy(grown, t.log)
	t.log = grown
	return nil
}

// appendBlank reserves a new log entry and returns its offset and the
// in-place value slice, avoiding a staging allocation on the hot path. The
// value holds whatever the recycled capacity held: callers overwrite all of
// it, or clear it first where a fresh aggregate group needs the identity.
func (t *Table) appendBlank(key uint64, vlen int) (int32, []byte, error) {
	need := entryHeaderSize + vlen
	if err := t.growLog(need); err != nil {
		return 0, nil, err
	}
	off := len(t.log)
	t.log = t.log[:off+need]
	e := t.log[off:]
	putU64(e[0:], key)
	putU32(e[8:], noPrev)
	putU32(e[12:], uint32(vlen))
	return int32(off), e[entryHeaderSize : entryHeaderSize+vlen], nil
}

// UpdateAgg folds rec into the aggregate state of rec.Key, creating the
// group on first touch. This is the per-record fast path (read-modify-write
// on the hybrid log).
func (t *Table) UpdateAgg(rec *stream.Record) error {
	if t.agg == nil {
		return ErrTableKind
	}
	slot, found := t.idx.lookupOrReserve(rec.Key)
	if found {
		t.agg.Update(t.valueAt(*slot), rec)
		return nil
	}
	off, value, err := t.appendBlank(rec.Key, t.agg.Size())
	if err != nil {
		return err
	}
	clear(value)
	t.agg.Init(value)
	t.agg.Update(value, rec)
	*slot = off
	return nil
}

// MergeAggValue merges an encoded partial aggregate into key's state (the
// CRDT join used when a leader absorbs helper deltas).
func (t *Table) MergeAggValue(key uint64, value []byte) error {
	if t.agg == nil {
		return ErrTableKind
	}
	if len(value) != t.agg.Size() {
		return fmt.Errorf("%w: value size %d for aggregate %s", ErrChunkFormat, len(value), t.agg.Name())
	}
	slot, found := t.idx.lookupOrReserve(key)
	if found {
		t.agg.Merge(t.valueAt(*slot), value)
		return nil
	}
	off, dst, err := t.appendBlank(key, len(value))
	if err != nil {
		return err
	}
	copy(dst, value)
	*slot = off
	return nil
}

// GetAgg returns the encoded aggregate state for key.
func (t *Table) GetAgg(key uint64) ([]byte, bool) {
	if t.agg == nil {
		return nil, false
	}
	off, ok := t.idx.get(key)
	if !ok {
		return nil, false
	}
	return t.valueAt(off), true
}

// valueAt returns the value bytes of the entry at off.
func (t *Table) valueAt(off int32) []byte {
	vlen := getU32(t.log[off+12:])
	start := int(off) + entryHeaderSize
	return t.log[start : start+int(vlen)]
}

// ForEachAgg visits every (key, state) pair of an aggregate table in log
// order — the order the keys first reached the table. Every key owns exactly
// one fixed-size log entry, updated in place, so the walk is one sequential
// pass that never touches the index.
func (t *Table) ForEachAgg(fn func(key uint64, state []byte)) {
	esize := entryHeaderSize + t.agg.Size()
	for off := 0; off+esize <= len(t.log); off += esize {
		fn(getU64(t.log[off:]), t.log[off+entryHeaderSize:off+esize])
	}
}

// forEachAggResult visits every key with its finalized aggregate result, in
// log order — the trigger emit loop, with the result decode dispatched once
// on the table's aggKind instead of an interface call per key. Must match
// the aggregate's Result exactly (see crdt): the identity for the four
// 8-byte kinds, sum/count (0 when empty) for Avg.
func (t *Table) forEachAggResult(fn func(key uint64, result int64)) {
	esize := entryHeaderSize + t.agg.Size()
	switch t.kind {
	case aggCount, aggSum, aggMin, aggMax:
		for off := 0; off+esize <= len(t.log); off += esize {
			fn(getU64(t.log[off:]), int64(getU64(t.log[off+entryHeaderSize:])))
		}
	case aggAvg:
		for off := 0; off+esize <= len(t.log); off += esize {
			state := t.log[off+entryHeaderSize:]
			result := int64(0)
			if count := int64(getU64(state[8:])); count != 0 {
				result = int64(getU64(state)) / count
			}
			fn(getU64(t.log[off:]), result)
		}
	default:
		agg := t.agg
		t.ForEachAgg(func(key uint64, state []byte) { fn(key, agg.Result(state)) })
	}
}

// Reset invalidates the table content (§7.2.2 step 4): after its delta has
// been transferred, a helper fragment restarts empty so RMW operations
// resume from the CRDT identity. A bag table returns its segments to the
// free list.
func (t *Table) Reset() {
	if t.bag != nil {
		t.bag.reset()
		return
	}
	t.idx.reset()
	t.log = t.log[:0]
}

// SerializeDelta emits the epoch's delta as chunk payloads of at most
// maxChunk bytes, split only at entry boundaries. Because helper fragments
// reset every epoch, the whole log is exactly the epoch's delta — no scan or
// pointer chasing is needed to find the changes (§7.2.1). Bag deltas ship
// raw log regions, each valid until emit returns; aggregate deltas ship the
// compact varint encoding (see serializeAggDelta) — at bench-scale key
// densities it is 5-8x smaller than the log encoding, and on a throttled
// fabric the flush is wire-bound.
func (t *Table) SerializeDelta(maxChunk int, emit func(region []byte) error) error {
	if t.bag != nil {
		return t.bag.serialize(maxChunk, emit)
	}
	return t.serializeAggDelta(maxChunk, emit)
}

// Aggregate delta chunk payload (the columnar wire format of an epoch's
// aggregate state):
//
//	count   uvarint — number of entries in this chunk
//	entries repeated count times:
//	  keyΔ  varint — signed delta from the previous entry's key (0 at
//	          chunk start; the log walk is insertion-ordered, not sorted,
//	          so deltas are zigzag-encoded rather than assumed ascending)
//	  state — by aggregate kind:
//	          count:       uvarint
//	          sum/min/max: varint
//	          avg:         varint sum, uvarint count
//	          generic:     Size() raw bytes
//
// Versus shipping raw log entries (16-byte header + fixed-width state), a
// typical count entry is ~3 bytes instead of 24. The encoding is a pure
// function of the log content and maxChunk, so a retried flush re-emits a
// byte-identical chunk sequence — the property the leaders' positional
// duplicate suppression relies on.
const (
	// maxVarint is the worst-case encoded size of one varint (uvarint of
	// a full 64-bit value).
	maxVarint = binary.MaxVarintLen64
	// aggChunkPad reserves room at the buffer head for the count prefix,
	// encoded once the chunk is full.
	aggChunkPad = maxVarint
)

// maxAggEntryWire returns the worst-case encoded entry size for this table.
func (t *Table) maxAggEntryWire() int {
	switch t.kind {
	case aggCount, aggSum, aggMin, aggMax:
		return 2 * maxVarint
	case aggAvg:
		return 3 * maxVarint
	default:
		return maxVarint + t.agg.Size()
	}
}

// aggChunkZeroPad seeds the count-prefix pad without allocating.
var aggChunkZeroPad [aggChunkPad]byte

// appendAggEntry encodes one log entry (key delta from base, then the
// kind-specific state) onto buf and returns the extended slice. A plain
// method rather than a closure keeps the hot serialization loop free of
// heap-escaping captured variables.
func (t *Table) appendAggEntry(buf []byte, key, base uint64, state []byte) []byte {
	buf = binary.AppendVarint(buf, int64(key-base))
	switch t.kind {
	case aggCount:
		buf = binary.AppendUvarint(buf, getU64(state))
	case aggSum, aggMin, aggMax:
		buf = binary.AppendVarint(buf, int64(getU64(state)))
	case aggAvg:
		buf = binary.AppendVarint(buf, int64(getU64(state)))
		buf = binary.AppendUvarint(buf, getU64(state[8:]))
	default:
		buf = append(buf, state...)
	}
	return buf
}

// finishAggChunk encodes the count prefix backwards into the pad so the
// payload is one contiguous region, and returns the emit-ready region.
func finishAggChunk(buf []byte, count int) []byte {
	var cv [maxVarint]byte
	n := binary.PutUvarint(cv[:], uint64(count))
	start := aggChunkPad - n
	copy(buf[start:], cv[:n])
	return buf[start:]
}

// serializeAggDelta walks the fixed-stride aggregate log and emits compact
// varint chunks. The scratch buffer persists on the table (tables are pooled
// and reused every epoch), so steady-state serialization allocates nothing.
func (t *Table) serializeAggDelta(maxChunk int, emit func(region []byte) error) error {
	asize := t.agg.Size()
	esize := entryHeaderSize + asize
	if maxChunk < aggChunkPad+t.maxAggEntryWire() {
		return fmt.Errorf("ssb: chunk size %d below aggregate entry bound", maxChunk)
	}
	if len(t.log)%esize != 0 {
		return ErrChunkFormat
	}
	buf := append(t.wire[:0], aggChunkZeroPad[:]...)
	count := 0
	var prevKey uint64
	for off := 0; off < len(t.log); off += esize {
		key := getU64(t.log[off:])
		state := t.log[off+entryHeaderSize : off+esize]
		mark := len(buf)
		buf = t.appendAggEntry(buf, key, prevKey, state)
		// The count prefix consumes at most the pad, so a payload fits
		// whenever the buffer (pad included) is within maxChunk.
		if len(buf) > maxChunk {
			// The entry overflowed the chunk: emit everything before it and
			// re-encode it at the head of the next chunk (its key delta is
			// relative to the fresh chunk's zero base).
			if err := emit(finishAggChunk(buf[:mark], count)); err != nil {
				t.wire = buf[:mark]
				return err
			}
			buf = append(buf[:0], aggChunkZeroPad[:]...)
			buf = t.appendAggEntry(buf, key, 0, state)
			count = 0
		}
		count++
		prevKey = key
	}
	var err error
	if count > 0 {
		err = emit(finishAggChunk(buf, count))
	}
	t.wire = buf
	return err
}

// MergeDelta folds a delta chunk (produced by SerializeDelta, possibly on
// another node) into this table. Aggregate chunks carry the compact varint
// encoding and merge with CRDT semantics; bag chunks carry raw log entries
// and are concatenated (see bagLog.merge).
func (t *Table) MergeDelta(region []byte) error {
	if t.bag != nil {
		return t.bag.merge(region)
	}
	return t.mergeAggDelta(region)
}

// mergeAggDelta is the leader's merge hot loop: one pass over a compact
// varint chunk (see serializeAggDelta). The count prefix sizes the index and
// the log once up front, so the per-entry loop never rehashes or reallocates;
// merges dispatch on the table's aggKind jump table instead of an interface
// call per entry. Equivalent to MergeAggValue per decoded entry.
func (t *Table) mergeAggDelta(region []byte) error {
	asize := t.agg.Size()
	esize := entryHeaderSize + asize
	total, pos := binary.Uvarint(region)
	if pos <= 0 || total > uint64(len(region)) {
		return ErrChunkFormat
	}
	if n := int(total); n > 0 {
		// Worst case every entry is a new key: size the index once and make
		// room in the log, so the per-entry loop never grows either.
		t.idx.reserve(n)
		// Best effort: if the worst case cannot fit, appendBlank reports the
		// entry that does not.
		_ = t.growLog(n * esize)
	}
	var prevKey uint64
	for n := uint64(0); n < total; n++ {
		dk, w := binary.Varint(region[pos:])
		if w <= 0 {
			return ErrChunkFormat
		}
		pos += w
		key := prevKey + uint64(dk)
		prevKey = key
		// Decode the incoming partial state. a carries the primary 8 bytes,
		// b the avg count word; generic aggregates pass raw bytes through.
		var a, b int64
		var raw []byte
		switch t.kind {
		case aggCount:
			u, w := binary.Uvarint(region[pos:])
			if w <= 0 {
				return ErrChunkFormat
			}
			a, pos = int64(u), pos+w
		case aggSum, aggMin, aggMax:
			v, w := binary.Varint(region[pos:])
			if w <= 0 {
				return ErrChunkFormat
			}
			a, pos = v, pos+w
		case aggAvg:
			v, w := binary.Varint(region[pos:])
			if w <= 0 {
				return ErrChunkFormat
			}
			a, pos = v, pos+w
			u, w := binary.Uvarint(region[pos:])
			if w <= 0 {
				return ErrChunkFormat
			}
			b, pos = int64(u), pos+w
		default:
			if pos+asize > len(region) {
				return ErrChunkFormat
			}
			raw = region[pos : pos+asize]
			pos += asize
		}
		slot, found := t.idx.lookupOrReserveHashed(key, Mix64(key))
		var state []byte
		if found {
			state = t.valueAt(*slot)
		} else {
			eoff, value, err := t.appendBlank(key, asize)
			if err != nil {
				return err
			}
			clear(value)
			*slot = eoff
			state = value
			// The fresh entry starts at the merge identity; folding the
			// incoming partial below then reproduces it exactly. Generic
			// aggregates take the incoming partial verbatim instead — byte
			// equality with the sender's state, with no CRDT-law assumption.
			switch t.kind {
			case aggMin:
				putU64(state, uint64(math.MaxInt64))
			case aggMax:
				putU64(state, 1<<63) // MinInt64 bit pattern
			case aggGeneric:
				copy(state, raw)
				continue
			}
		}
		switch t.kind {
		case aggCount, aggSum:
			putU64(state, uint64(int64(getU64(state))+a))
		case aggMin:
			if a < int64(getU64(state)) {
				putU64(state, uint64(a))
			}
		case aggMax:
			if a > int64(getU64(state)) {
				putU64(state, uint64(a))
			}
		case aggAvg:
			putU64(state, uint64(int64(getU64(state))+a))
			putU64(state[8:], uint64(int64(getU64(state[8:]))+b))
		default:
			t.agg.Merge(state, raw)
		}
	}
	if pos != len(region) {
		return ErrChunkFormat
	}
	return nil
}

func putU64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

func getU64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putU32(b []byte, v uint32) {
	_ = b[3]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getU32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
