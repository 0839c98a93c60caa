package ssb

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/stream"
)

// flatEntry appends one bag entry to a flat (unsegmented) log.
func flatEntry(log []byte, key uint64, e crdt.BagElem) []byte {
	var b [bagEntrySize]byte
	putBagEntry(b[:], key, &e)
	return append(log, b[:]...)
}

// bagRegion encodes elements as one raw bag log region.
func bagRegion(t testing.TB, key uint64, elems ...crdt.BagElem) []byte {
	t.Helper()
	tbl := NewBagTable()
	for i := range elems {
		if err := tbl.AppendBag(key, &elems[i]); err != nil {
			t.Fatal(err)
		}
	}
	return logBytes(tbl)
}

// TestBagMergeDeltaRejectsAtomically: a malformed bag chunk must leave the
// table exactly as it found it, even when its leading entries are well
// formed (the old per-entry merge applied those and then failed).
func TestBagMergeDeltaRejectsAtomically(t *testing.T) {
	good := bagRegion(t, 7, crdt.BagElem{Time: 1, Val: 10}, crdt.BagElem{Time: 2, Val: 20, Side: 1})

	badWidth := append([]byte(nil), good...)
	putU32(badWidth[bagEntrySize+12:], 8) // second entry claims an 8-byte element
	cases := map[string][]byte{
		"truncated header":       append(append([]byte(nil), good...), make([]byte, entryHeaderSize-4)...),
		"wrong element width":    badWidth,
		"value runs past region": good[:len(good)-5],
	}
	for name, region := range cases {
		t.Run(name, func(t *testing.T) {
			tbl := NewBagTable()
			if err := tbl.AppendBag(3, &crdt.BagElem{Time: 99, Val: -1}); err != nil {
				t.Fatal(err)
			}
			before := logBytes(tbl)
			if err := tbl.MergeDelta(region); !errors.Is(err, ErrChunkFormat) {
				t.Fatalf("err = %v, want ErrChunkFormat", err)
			}
			if tbl.LogBytes() != len(before) || tbl.Entries() != 1 || !bytes.Equal(logBytes(tbl), before) {
				t.Fatalf("rejected chunk changed the table: %d bytes, %d entries", tbl.LogBytes(), tbl.Entries())
			}
			if tbl.Keys() != 1 || tbl.BagLen(7) != 0 || tbl.BagLen(3) != 1 {
				t.Fatalf("rejected chunk is visible: %d keys, BagLen(7) = %d", tbl.Keys(), tbl.BagLen(7))
			}
			// The table still takes the well-formed chunk afterwards.
			if err := tbl.MergeDelta(good); err != nil {
				t.Fatal(err)
			}
			if tbl.Entries() != 3 || tbl.BagLen(7) != 2 {
				t.Fatalf("after good chunk: %d entries, BagLen(7) = %d", tbl.Entries(), tbl.BagLen(7))
			}
		})
	}
}

// TestBagEntryMatchesCodec pins the bytes AppendBag writes: the entry header
// with the reserved prev word, then crdt's element encoding.
func TestBagEntryMatchesCodec(t *testing.T) {
	e := crdt.BagElem{Time: -5, Val: 1 << 40, Side: 1}
	want := make([]byte, bagEntrySize)
	putU64(want[0:], 0xfeed)
	putU32(want[8:], noPrev)
	putU32(want[12:], crdt.BagElemSize)
	crdt.EncodeBagElem(want[entryHeaderSize:], &e)
	if got := bagRegion(t, 0xfeed, e); !bytes.Equal(got, want) {
		t.Fatalf("entry bytes\n got %x\nwant %x", got, want)
	}
}

// TestRecycledAggTableStartsFromIdentity: appendBlank no longer zero-fills,
// so every path that opens a fresh aggregate group on recycled log capacity
// must produce the same state as on a new table.
func TestRecycledAggTableStartsFromIdentity(t *testing.T) {
	aggs := []crdt.Aggregate{crdt.Count{}, crdt.Sum{}, crdt.Min{}, crdt.Max{}, crdt.Avg{}, xorTimes{}}
	recs := []stream.Record{{Key: 1, Time: 3, V0: 5}, {Key: 2, Time: 4, V0: -7}, {Key: 1, Time: 9, V0: 11}}
	keys := []uint64{1, 2, 1}
	v0 := []int64{5, -7, 11}
	times := []int64{3, 4, 9}
	v1 := []int64{0, 0, 0}
	paths := map[string]func(t *testing.T, tbl *Table){
		"UpdateAgg": func(t *testing.T, tbl *Table) {
			for i := range recs {
				if err := tbl.UpdateAgg(&recs[i]); err != nil {
					t.Fatal(err)
				}
			}
		},
		"updateAggColumns": func(t *testing.T, tbl *Table) {
			hashes := make([]uint64, len(keys))
			for i, k := range keys {
				hashes[i] = Mix64(k)
			}
			if err := tbl.updateAggColumns(tbl.kind, keys, hashes, v0, times, v1); err != nil {
				t.Fatal(err)
			}
		},
		"mergeAggDelta": func(t *testing.T, tbl *Table) {
			src := NewAggTable(tbl.agg)
			for i := range recs {
				if err := src.UpdateAgg(&recs[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := src.SerializeDelta(1<<10, tbl.MergeDelta); err != nil {
				t.Fatal(err)
			}
		},
	}
	for _, agg := range aggs {
		for name, apply := range paths {
			t.Run(agg.Name()+"/"+name, func(t *testing.T) {
				fresh := NewAggTable(agg)
				apply(t, fresh)

				recycled := NewAggTable(agg)
				for k := uint64(100); k < 108; k++ {
					r := stream.Record{Key: k, Time: -1, V0: -0x0101010101010101}
					for i := 0; i < 3; i++ {
						if err := recycled.UpdateAgg(&r); err != nil {
							t.Fatal(err)
						}
					}
				}
				recycled.Reset()
				apply(t, recycled)

				if !bytes.Equal(logBytes(recycled), logBytes(fresh)) {
					t.Fatalf("recycled table diverged from a new one\n got %x\nwant %x", logBytes(recycled), logBytes(fresh))
				}
			})
		}
	}
}

type bagRef map[uint64]map[uint64][]crdt.BagElem // window → key → elements

func (r bagRef) add(win, key uint64, e crdt.BagElem) {
	if r[win] == nil {
		r[win] = map[uint64][]crdt.BagElem{}
	}
	r[win][key] = append(r[win][key], e)
}

func sortBag(es []crdt.BagElem) []crdt.BagElem {
	out := append([]crdt.BagElem(nil), es...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Val != b.Val {
			return a.Val < b.Val
		}
		return a.Side < b.Side
	})
	return out
}

// sameBags requires got and want to hold the same keys with the same
// multiset of elements each.
func sameBags(t *testing.T, what string, got, want map[uint64][]crdt.BagElem) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d keys, want %d", what, len(got), len(want))
	}
	for key, w := range want {
		g := sortBag(got[key])
		w = sortBag(w)
		if len(g) != len(w) {
			t.Fatalf("%s: key %d has %d elements, want %d", what, key, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: key %d element %d = %+v, want %+v", what, key, i, g[i], w[i])
			}
		}
	}
}

// sidesOf counts es per join side the way a join sink reads a bag: left is
// Side == 0, right every other Side.
func sidesOf(es []crdt.BagElem) (left, right int) {
	for i := range es {
		if es[i].Side == 0 {
			left++
		} else {
			right++
		}
	}
	return left, right
}

// sameSides requires got to hold exactly want's keys, each with want's side
// counts.
func sameSides(t *testing.T, what string, got map[uint64][2]int, want map[uint64][]crdt.BagElem) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d keys, want %d", what, len(got), len(want))
	}
	for key, es := range want {
		l, r := sidesOf(es)
		if g, ok := got[key]; !ok || g != [2]int{l, r} {
			t.Fatalf("%s: key %d has sides %v (present %v), want [%d %d]", what, key, g, ok, l, r)
		}
	}
}

// keySides is one row of a side count: a key and its elements per side.
type keySides struct {
	key         uint64
	left, right int
}

// elementSides is the reference tally: the side counts of t's keys, read
// through the element view, in the order it visits them (first appearance).
func elementSides(t *Table) []keySides {
	var out []keySides
	t.ForEachBag(func(key uint64, es []crdt.BagElem) {
		left, right := sidesOf(es)
		out = append(out, keySides{key, left, right})
	})
	return out
}

// countSides runs one count pass of c over t and returns its rows in order.
func countSides(c *SideCounter, t *Table) []keySides {
	var out []keySides
	c.Count(t, func(key uint64, left, right int) { out = append(out, keySides{key, left, right}) })
	return out
}

// collidingKeys returns key 0 and n other keys whose Mix64 hashes share
// their low 12 bits with it: in a side counter of up to 4096 slots they all
// start probing at the same slot.
func collidingKeys(n int) []uint64 {
	home := Mix64(0) & 0xfff
	keys := []uint64{0}
	for k := uint64(1); len(keys) <= n; k++ {
		if Mix64(k)&0xfff == home {
			keys = append(keys, k)
		}
	}
	return keys
}

// bagHarness drives one recoverable bag leader the way a deployment does:
// thread 0 is local (helper fragments, loopback flush), thread 1 is a remote
// sender whose serialized fragments arrive as chunks.
type bagHarness struct {
	t         *testing.T
	rng       *rand.Rand
	j         *memJournal
	b         *Backend
	ts        *ThreadState
	chunkSize int // the backend's ChunkSize; 0 is the default

	remoteEpoch uint64
	remoteFrag  *Table // recycled every remote epoch
	rb          *stream.RecordBatch
	sides       []uint8

	pending  bagRef // appended on thread 0, not yet flushed
	merged   bagRef // at the leader
	triggers int    // windows closed so far; the parity picks the trigger view
	// counter reads live windows between appends, one after another for the
	// whole run, the way a trigger reuses its counter window after window.
	counter   SideCounter
	colliding []uint64
	// The same two states as flat logs, per window: thread 0's fragment and
	// the leader's table must hold exactly these bytes.
	pendingLog map[uint64][]byte
	mergedLog  map[uint64][]byte
}

func newBagHarness(t *testing.T, seed int64) *bagHarness {
	h := &bagHarness{
		t: t, rng: rand.New(rand.NewSource(seed)), j: &memJournal{},
		remoteFrag: NewBagTable(), rb: stream.NewRecordBatch(48), sides: make([]uint8, 48),
		pending: bagRef{}, merged: bagRef{}, colliding: collidingKeys(6),
		pendingLog: map[uint64][]byte{}, mergedLog: map[uint64][]byte{},
	}
	if seed%2 == 0 {
		// 125 entries a chunk: local flushes cut regions across segment ends.
		h.chunkSize = 125*bagEntrySize + 7
	}
	h.b = h.newBackend()
	h.ts = h.b.Thread(0)
	return h
}

func (h *bagHarness) newBackend() *Backend {
	b, err := New(Config{
		Node: 0, Nodes: 1, ThreadsPerNode: 2, ChunkSize: h.chunkSize,
		WindowEnd: fixedWindowEnd, Journal: h.j,
	}, make([]Sender, 1))
	if err != nil {
		h.t.Fatal(err)
	}
	return b
}

func (h *bagHarness) elem(win uint64) (uint64, crdt.BagElem) {
	key := uint64(h.rng.Intn(12))
	switch h.rng.Intn(8) {
	case 0, 1:
		key = uint64(h.rng.Intn(1 << 20)) // a long tail beside the hot keys
	case 2:
		key = h.colliding[h.rng.Intn(len(h.colliding))]
	}
	side := uint8(h.rng.Intn(2))
	if h.rng.Intn(16) == 0 {
		side = uint8(2 + h.rng.Intn(254)) // any non-zero Side is the right side
	}
	return key, crdt.BagElem{
		Time: int64(win)*1000 + int64(h.rng.Intn(1000)),
		Val:  h.rng.Int63n(1000),
		Side: side,
	}
}

// appendLocal adds elements through thread 0, per record or as a batch.
func (h *bagHarness) appendLocal(win uint64) {
	if h.rng.Intn(2) == 0 {
		key, e := h.elem(win)
		if err := h.ts.AppendBag(win, key, &e); err != nil {
			h.t.Fatal(err)
		}
		h.pending.add(win, key, e)
		h.pendingLog[win] = flatEntry(h.pendingLog[win], key, e)
		return
	}
	// A batch's time column is non-decreasing (its last record carries the
	// watermark), so draw the elements first and append them in time order.
	type keyed struct {
		key uint64
		e   crdt.BagElem
	}
	batch := make([]keyed, 1+h.rng.Intn(h.rb.Cap()))
	for i := range batch {
		batch[i].key, batch[i].e = h.elem(win)
	}
	sort.Slice(batch, func(i, j int) bool { return batch[i].e.Time < batch[j].e.Time })
	h.rb.Reset(len(batch))
	for _, k := range batch {
		h.sides[h.rb.Len()] = k.e.Side
		h.rb.Append(&stream.Record{Key: k.key, Time: k.e.Time, V0: k.e.Val})
		h.pending.add(win, k.key, k.e)
		h.pendingLog[win] = flatEntry(h.pendingLog[win], k.key, k.e)
	}
	if err := h.ts.AppendBagBatch(win, h.rb, 0, h.rb.Live(), h.sides); err != nil {
		h.t.Fatal(err)
	}
}

func (h *bagHarness) flushLocal() {
	if err := h.ts.Flush(); err != nil {
		h.t.Fatal(err)
	}
	for win, keys := range h.pending {
		for key, es := range keys {
			for _, e := range es {
				h.merged.add(win, key, e)
			}
		}
		delete(h.pending, win)
	}
	for win, log := range h.pendingLog {
		h.mergedLog[win] = append(h.mergedLog[win], log...)
		delete(h.pendingLog, win)
	}
}

// remoteEpochTo ships one epoch from thread 1: a recycled fragment filled
// with n elements, serialized into chunks — mostly small ones, sometimes ones
// that are no whole number of entries and span segment ends — then the
// committing heartbeat carrying wm. Every chunk must be the flat log's
// region at the same boundaries.
func (h *bagHarness) remoteEpochTo(win uint64, n int, wm stream.Watermark) {
	h.remoteEpoch++
	h.remoteFrag.Reset()
	var flat []byte
	for i := 0; i < n; i++ {
		key, e := h.elem(win)
		if err := h.remoteFrag.AppendBag(key, &e); err != nil {
			h.t.Fatal(err)
		}
		h.merged.add(win, key, e)
		flat = flatEntry(flat, key, e)
	}
	h.mergedLog[win] = append(h.mergedLog[win], flat...)
	chunk := bagEntrySize * (1 + h.rng.Intn(6))
	if h.rng.Intn(4) == 0 {
		chunk = bagEntrySize*(1+h.rng.Intn(2*bagSegEntries)) + h.rng.Intn(bagEntrySize)
	}
	per := chunk / bagEntrySize * bagEntrySize
	err := h.remoteFrag.SerializeDelta(chunk, func(region []byte) error {
		if want := flat[:min(per, len(flat))]; !bytes.Equal(region, want) {
			h.t.Fatalf("chunk of %d bytes differs from the flat log's next %d bytes", len(region), len(want))
		}
		flat = flat[len(region):]
		return h.b.HandleChunk(&Chunk{
			Window: win, Epoch: h.remoteEpoch, Watermark: stream.NoWatermark,
			Thread: 1, Kind: ChunkData, Payload: append([]byte(nil), region...),
		})
	})
	if err != nil {
		h.t.Fatal(err)
	}
	if len(flat) != 0 {
		h.t.Fatalf("%d bytes of the fragment were never shipped", len(flat))
	}
	hb := &Chunk{Epoch: h.remoteEpoch, Watermark: wm, Thread: 1, Kind: ChunkHeartbeat}
	if err := h.b.HandleChunk(hb); err != nil {
		h.t.Fatal(err)
	}
}

// check reads the leader's live tables between appends — the incremental
// grouping path — and compares them with the reference.
func (h *bagHarness) check(full bool) {
	if len(h.b.primary) != len(h.merged) {
		h.t.Fatalf("leader holds %d windows, want %d", len(h.b.primary), len(h.merged))
	}
	for win, want := range h.merged {
		tbl := h.b.primary[win]
		if tbl == nil {
			h.t.Fatalf("window %d has no table", win)
		}
		total := 0
		for _, es := range want {
			total += len(es)
		}
		if tbl.Entries() != total || tbl.Keys() != len(want) {
			h.t.Fatalf("window %d: %d entries over %d keys, want %d over %d", win, tbl.Entries(), tbl.Keys(), total, len(want))
		}
		flat := h.mergedLog[win]
		for _, r := range tbl.appendLog(nil) {
			if !bytes.HasPrefix(flat, r) {
				h.t.Fatalf("window %d: the segmented log differs from the flat one", win)
			}
			flat = flat[len(r):]
		}
		if len(flat) != 0 {
			h.t.Fatalf("window %d: the segmented log lacks the flat log's last %d bytes", win, len(flat))
		}
		for i := 0; i < 4; i++ {
			key := uint64(h.rng.Intn(14)) // 12 and 13 are almost always absent
			if got := tbl.BagLen(key); got != len(want[key]) {
				h.t.Fatalf("window %d: BagLen(%d) = %d, want %d", win, key, got, len(want[key]))
			}
		}
		if full {
			got := map[uint64][]crdt.BagElem{}
			tbl.ForEachBag(func(key uint64, elems []crdt.BagElem) {
				if _, dup := got[key]; dup {
					h.t.Fatalf("window %d: key %d visited twice", win, key)
				}
				got[key] = append([]crdt.BagElem(nil), elems...)
			})
			sameBags(h.t, "live window", got, want)
			// The reused counter must give the element view's tally, key for
			// key and in its order: a slot an earlier window left behind
			// would show as an extra key or a wrong count.
			ref := elementSides(tbl)
			if counted := countSides(&h.counter, tbl); !slices.Equal(counted, ref) {
				h.t.Fatalf("window %d: side counts %v, element view %v", win, counted, ref)
			}
		}
	}
}

// restore replaces the leader by one rebuilt from its journal, mid-window:
// the checkpoint records and trigger marks replayed in order.
func (h *bagHarness) restore() {
	h.flushLocal()
	if _, err := h.b.Checkpoint(); err != nil {
		h.t.Fatal(err)
	}
	r := h.newBackend()
	for _, rec := range h.j.recs {
		var err error
		if rec.trigger {
			err = r.RestoreTrigger(rec.win)
		} else {
			err = r.RestoreCheckpoint(rec.clock, rec.payload)
		}
		if err != nil {
			h.t.Fatal(err)
		}
	}
	r.FinishRestore()
	ts := r.Thread(0)
	ts.RestoreProgress(h.ts.Epoch(), h.ts.Watermark(), h.ts.Inc()+1)
	h.b, h.ts = r, ts
}

// trigger closes win on both threads and requires the emitted bags to equal
// the reference exactly — a key left over from the table's previous window
// would show up here as an extra key. Triggers alternate between the element
// view (TriggerReady) and the side counts the engine fires through
// (TriggerSides), and every one is checked against the reference's per-key
// side counts and the keys' first-appearance order. Half of them fire after a Keys or BagLen read grouped part of
// the window's log.
func (h *bagHarness) trigger(win uint64) {
	end := fixedWindowEnd(win)
	h.ts.ObserveTime(end)
	h.flushLocal()
	if tbl := h.b.primary[win]; tbl != nil && h.rng.Intn(2) == 0 {
		// Group what is merged so far; the remote epoch below may add more.
		if h.rng.Intn(2) == 0 {
			tbl.Keys()
		} else {
			tbl.BagLen(uint64(h.rng.Intn(12)))
		}
	}
	h.remoteEpochTo(win, h.rng.Intn(3), end)
	want := h.merged[win]
	sides := map[uint64][2]int{}
	var order []uint64
	emit := func(w, key uint64, left, right int) {
		if w != win {
			h.t.Fatalf("window %d fired while closing %d", w, win)
		}
		if _, dup := sides[key]; dup {
			h.t.Fatalf("window %d: key %d emitted twice", win, key)
		}
		sides[key] = [2]int{left, right}
		order = append(order, key)
	}
	var n int
	if h.triggers++; h.triggers%2 == 0 {
		got := map[uint64][]crdt.BagElem{}
		n = h.b.TriggerReady(nil, func(w, key uint64, elems []crdt.BagElem) {
			left, right := sidesOf(elems)
			emit(w, key, left, right)
			got[key] = append(got[key], elems...)
		})
		sameBags(h.t, "triggered window", got, want)
	} else {
		n = h.b.TriggerSides(nil, emit)
	}
	if n != 1 {
		h.t.Fatalf("closing window %d fired %d windows", win, n)
	}
	sameSides(h.t, "triggered window", sides, want)
	// Rows come out in the order the keys first appear in the merged log,
	// so the sink rows and the journaled emits depend on the log alone.
	var first []uint64
	seen := map[uint64]bool{}
	for log := h.mergedLog[win]; len(log) > 0; log = log[bagEntrySize:] {
		if key := getU64(log); !seen[key] {
			seen[key] = true
			first = append(first, key)
		}
	}
	if !slices.Equal(order, first) {
		h.t.Fatalf("window %d: keys emitted in order %v, first appear in order %v", win, order, first)
	}
	delete(h.merged, win)
	delete(h.mergedLog, win)
	if err := h.b.JournalErr(); err != nil {
		h.t.Fatal(err)
	}
}

// run closes wins windows after ops random operations each; after, when
// set, runs after every operation and trigger. Now and then a run of local
// appends or a remote epoch is long enough to fill whole segments, so
// appends, merges and chunks cross segment ends.
func (h *bagHarness) run(wins, ops int, after func()) {
	for win := uint64(0); win < uint64(wins); win++ {
		low := stream.Watermark(win * 1000) // holds the window open
		for op := 0; op < ops; op++ {
			target := win + uint64(h.rng.Intn(2)) // the open window or the next
			switch r := h.rng.Intn(20); {
			case r < 9:
				n := 1
				if h.rng.Intn(20) == 0 {
					n += h.rng.Intn(150)
				}
				for ; n > 0; n-- {
					h.appendLocal(target)
				}
			case r < 12:
				h.flushLocal()
			case r < 15:
				n := 1 + h.rng.Intn(40)
				if h.rng.Intn(10) == 0 {
					n += h.rng.Intn(2 * bagSegEntries)
				}
				h.remoteEpochTo(target, n, low)
			case r < 18:
				h.check(r == 17)
			default:
				h.restore()
			}
			if after != nil {
				after()
			}
		}
		h.trigger(win)
		h.check(true)
		if after != nil {
			after()
		}
	}
}

// TestBagTableProperty drives a bag leader through random interleavings of
// local appends (per record and batched), flushes, merges of serialized
// remote fragments, reads between appends, mid-window restores from the
// journal, and window triggers that recycle the tables,
// against a map-of-slices reference and a flat log per window. Half the
// seeds run at a chunk size whose chunks cross segment ends. Keys mix a few
// hot ones, a long tail that differs from window to window, key 0 and keys
// that collide under Mix64; one side counter reads every live window of a
// run and grows in the middle of a pass as windows widen.
func TestBagTableProperty(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		newBagHarness(t, seed).run(5, 120, nil)
	}
}

// TestBagSegmentsNeverShared runs the property harness and, after every
// operation, checks segment ownership by pointer: every live table — leader
// windows, the leader's pool, thread fragments, the thread's pool, the
// remote fragment — owns exactly the segments its entries occupy, no segment
// belongs to two of them or to one of them and the leader's pending
// checkpoint log, and none of them is also on the free list.
//
// Then tables on several goroutines fill and reset at once, each with its
// own key: a segment handed to two of them would show the other's key, and
// under -race the two writers would be reported.
func TestBagSegmentsNeverShared(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		h := newBagHarness(t, seed)
		h.run(3, 80, h.checkSegments)
	}
	const workers, rounds = 4, 30
	fill := func(key uint64, chunk []byte) error {
		tbl := NewBagTable()
		defer tbl.Reset()
		for r := 0; r < rounds; r++ {
			for i := 0; i <= r%9; i++ {
				if err := tbl.MergeDelta(chunk); err != nil {
					return err
				}
			}
			for _, span := range tbl.appendLog(nil) {
				for off := 0; off < len(span); off += bagEntrySize {
					if got := getU64(span[off:]); got != key {
						return fmt.Errorf("table of key %d holds key %d", key, got)
					}
				}
			}
			tbl.Reset()
		}
		return nil
	}
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		key := uint64(w + 1)
		chunk := bagRegion(t, key, make([]crdt.BagElem, 400)...)
		go func() { errs <- fill(key, chunk) }()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func (h *bagHarness) checkSegments() {
	owner := map[*bagSeg]string{}
	own := func(what string, tbl *Table) {
		l := tbl.bag
		if want := (l.n + bagSegEntries - 1) / bagSegEntries; len(l.segs) != want {
			h.t.Fatalf("%s: %d entries in %d segments, want %d", what, l.n, len(l.segs), want)
		}
		for _, seg := range l.segs {
			if prev, dup := owner[seg]; dup {
				h.t.Fatalf("segment %p belongs to %s and %s", seg, prev, what)
			}
			owner[seg] = what
		}
	}
	for win, tbl := range h.b.primary {
		own(fmt.Sprintf("leader window %d", win), tbl)
	}
	for i, tbl := range h.b.tablePool {
		own(fmt.Sprintf("leader pool %d", i), tbl)
	}
	for k, tbl := range h.ts.tables {
		own(fmt.Sprintf("fragment %+v", k), tbl)
	}
	for i, tbl := range h.ts.pool {
		own(fmt.Sprintf("fragment pool %d", i), tbl)
	}
	own("remote fragment", h.remoteFrag)
	for _, seg := range h.b.ckptLog.segs {
		if prev, dup := owner[seg]; dup {
			h.t.Fatalf("segment %p belongs to %s and the checkpoint log", seg, prev)
		}
		owner[seg] = "checkpoint log"
	}
	freeSegs.mu.Lock()
	defer freeSegs.mu.Unlock()
	free := map[*bagSeg]bool{}
	for _, seg := range freeSegs.segs {
		if free[seg] {
			h.t.Fatalf("segment %p is on the free list twice", seg)
		}
		free[seg] = true
		if what, live := owner[seg]; live {
			h.t.Fatalf("segment %p belongs to %s and is on the free list", seg, what)
		}
	}
}

// FuzzBagMergeDelta: an arbitrary region never panics the bag merge, and is
// either concatenated whole or rejected without a trace. The table starts
// with 1 to 3 segments' worth of entries over key 0 and keys that collide
// with it under Mix64, so a merge may cross segment ends. Serialising the
// result at a chunk size of 40 B to 64 KiB plus a few bytes cuts the flat
// log at the same boundaries, and merging those chunks into an empty table
// rebuilds it byte for byte. On whatever the table then holds, the side
// counts of a counter reused across windows agree with the element view key
// by key, in the same order, whatever the side words carry.
func FuzzBagMergeDelta(f *testing.F) {
	fuzzKeys := collidingKeys(4)
	good := bagRegion(f, 7, crdt.BagElem{Time: 1, Val: 10}, crdt.BagElem{Time: 2, Val: 20, Side: 1})
	f.Add(uint16(0), uint16(0), good)
	// Side words whose low byte is neither 0 nor 1, or whose high bytes are
	// set: only the low byte is the side.
	odd := append(bagRegion(f, 5, crdt.BagElem{Val: 1}, crdt.BagElem{Val: 2}, crdt.BagElem{Val: 3}),
		bagRegion(f, 3, crdt.BagElem{Val: 4}, crdt.BagElem{Val: 5})...)
	for i, side := range []uint64{2, 0xff, 0x100, 0xdead_beef_0000_0007, 1 << 63} {
		putU64(odd[i*bagEntrySize+bagSideOffset:], side)
	}
	f.Add(uint16(0), uint16(0), odd)
	f.Add(uint16(0), uint16(0), good[:len(good)-5])
	f.Add(uint16(0), uint16(0), good[:bagEntrySize+6])
	bad := append([]byte(nil), good...)
	putU32(bad[12:], 1<<31)
	f.Add(uint16(0), uint16(0), bad)
	f.Add(uint16(0), uint16(0), []byte{})
	// A merge that fills the first segment and spills into the second, read
	// back in chunks that straddle the segment end.
	f.Add(uint16(bagSegEntries-2), uint16(100*bagEntrySize+3), odd)
	f.Add(uint16(2*bagSegEntries-1), uint16(bagSegBytes), good)
	f.Fuzz(func(t *testing.T, pre, chunk uint16, region []byte) {
		tbl := NewBagTable()
		defer tbl.Reset()
		var flat []byte
		n := 1 + int(pre)%(3*bagSegEntries)
		for i := 0; i < n; i++ {
			e := crdt.BagElem{Time: int64(i), Val: int64(i * 7), Side: uint8(i % 3)}
			key := fuzzKeys[i%len(fuzzKeys)]
			if err := tbl.AppendBag(key, &e); err != nil {
				t.Fatal(err)
			}
			flat = flatEntry(flat, key, e)
		}
		if err := tbl.MergeDelta(region); err != nil {
			if !errors.Is(err, ErrChunkFormat) {
				t.Fatalf("unexpected error %v", err)
			}
			if !bytes.Equal(logBytes(tbl), flat) || tbl.Entries() != n {
				t.Fatal("rejected region changed the table")
			}
		} else {
			flat = append(flat, region...)
			if !bytes.Equal(logBytes(tbl), flat) || tbl.Entries() != n+len(region)/bagEntrySize {
				t.Fatal("accepted region is not a plain concatenation")
			}
		}
		maxChunk := bagEntrySize + int(chunk)
		per := maxChunk / bagEntrySize * bagEntrySize
		copied := NewBagTable()
		defer copied.Reset()
		rest := flat
		err := tbl.SerializeDelta(maxChunk, func(r []byte) error {
			if !bytes.Equal(r, rest[:min(per, len(rest))]) {
				t.Fatalf("chunk of %d bytes at chunk size %d differs from the flat log", len(r), maxChunk)
			}
			rest = rest[len(r):]
			return copied.MergeDelta(r)
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(rest) != 0 || !bytes.Equal(logBytes(copied), flat) {
			t.Fatal("serialise and merge did not rebuild the log byte for byte")
		}
		// One counter reads three windows in a row: keys disjoint from the
		// table's, wide enough to grow it in the middle of the pass; then
		// the table; then its rebuilt copy, the same keys again. A slot a
		// pass leaves behind would show in the next one's counts.
		var c SideCounter
		other := NewBagTable()
		defer other.Reset()
		for i := 0; i < n; i++ {
			e := crdt.BagElem{Side: uint8(i % 2)}
			if err := other.AppendBag(1<<40+uint64(i%(1+int(chunk)%2000)), &e); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := countSides(&c, other), elementSides(other); !slices.Equal(got, want) {
			t.Fatalf("disjoint window: side counts %v, element view %v", got, want)
		}
		want := elementSides(tbl)
		elems := 0
		for _, ks := range want {
			elems += ks.left + ks.right
		}
		if elems != tbl.Entries() || tbl.Keys() != len(want) {
			t.Fatalf("grouped %d elements over %d keys, table has %d entries over %d keys", elems, len(want), tbl.Entries(), tbl.Keys())
		}
		for _, tb := range []*Table{tbl, copied} {
			if got := countSides(&c, tb); !slices.Equal(got, want) {
				t.Fatalf("side counts %v, element view %v", got, want)
			}
		}
	})
}

// TestBagMergeFromFreeListAllocationFree is the merge's floor: once the free
// list holds segments, merging chunks into an empty (pooled) table — five
// default-size chunks, so the merge fills one segment and takes a second —
// allocates nothing: no log to grow, zero or copy.
func TestBagMergeFromFreeListAllocationFree(t *testing.T) {
	const per = DefaultChunkSize / bagEntrySize
	elems := make([]crdt.BagElem, per)
	for i := range elems {
		elems[i] = crdt.BagElem{Time: int64(i), Side: uint8(i & 1)}
	}
	chunk := bagRegion(t, 11, elems...)
	tbl := NewBagTable()
	merge := func() {
		tbl.Reset()
		for i := 0; i < 5; i++ {
			if err := tbl.MergeDelta(chunk); err != nil {
				t.Fatal(err)
			}
		}
	}
	merge() // fills the free list and sizes the table's segment list
	if allocs := testing.AllocsPerRun(50, merge); allocs != 0 {
		t.Fatalf("merging into a pooled table allocates %.2f times, want 0", allocs)
	}
	if len(tbl.bag.segs) != 2 || tbl.Entries() != 5*per {
		t.Fatalf("%d entries in %d segments, want %d in 2", tbl.Entries(), len(tbl.bag.segs), 5*per)
	}
	tbl.Reset()
}

// TestTriggerSidesWarmAllocationFree is the trigger's floor: once a backend
// has fired a window of this size, firing another — the ready scan, the
// detach, the emit pass over the window's table (for a bag, the count pass
// over its segments), the finish that pools the table and frees its
// segments — allocates nothing, for either table kind.
func TestTriggerSidesWarmAllocationFree(t *testing.T) {
	const elems, keys, windows = 4000, 1500, 12
	for _, agg := range []crdt.Aggregate{nil, crdt.Sum{}} {
		name := "bag"
		if agg != nil {
			name = "agg"
		}
		t.Run(name, func(t *testing.T) {
			b, err := New(Config{Node: 0, Nodes: 1, ThreadsPerNode: 1, Agg: agg, WindowEnd: fixedWindowEnd}, make([]Sender, 1))
			if err != nil {
				t.Fatal(err)
			}
			// The triggered set keeps one entry per window for good; size it up
			// front so that growing that map is not counted against the trigger.
			b.triggered = make(map[uint64]bool, 2*windows)
			src := b.newTable()
			defer src.Reset()
			fill := func(win uint64) {
				src.Reset()
				for i := 0; i < elems; i++ {
					key := win<<32 | uint64(i*7919%keys)
					if agg != nil {
						err = src.UpdateAgg(&stream.Record{Key: key, Time: int64(i), V0: int64(i % 3)})
					} else {
						err = src.AppendBag(key, &crdt.BagElem{Time: int64(i), Side: uint8(i % 3)})
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				err := src.SerializeDelta(DefaultChunkSize, func(region []byte) error {
					return b.HandleChunk(&Chunk{Window: win, Epoch: win, Watermark: stream.NoWatermark, Kind: ChunkData, Payload: region})
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := b.HandleChunk(&Chunk{Epoch: win, Watermark: fixedWindowEnd(win), Kind: ChunkHeartbeat}); err != nil {
					t.Fatal(err)
				}
			}
			// right totals the right-side elements of a bag window and the
			// values of an aggregate window.
			var visited, right int
			emitAgg := func(_, _ uint64, v int64) {
				visited++
				right += int(v)
			}
			emitJoin := func(_, _ uint64, _, r int) {
				visited++
				right += r
			}
			wantRight := elems - (elems+2)/3
			if agg != nil {
				wantRight = 0
				for i := 0; i < elems; i++ {
					wantRight += i % 3
				}
			}
			var ms runtime.MemStats
			var allocs uint64
			for win := uint64(1); win <= windows; win++ {
				fill(win)
				visited, right = 0, 0
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				n := b.TriggerSides(emitAgg, emitJoin)
				runtime.ReadMemStats(&ms)
				if win > 1 { // the first window sizes the scratch and the counter
					allocs += ms.Mallocs - before
				}
				if n != 1 || visited != keys || right != wantRight {
					t.Fatalf("window %d: fired %d windows, visited %d keys with a right total of %d, want 1, %d and %d",
						win, n, visited, right, keys, wantRight)
				}
			}
			if allocs != 0 {
				t.Fatalf("%d warm triggers allocated %d times, want 0", windows-1, allocs)
			}
		})
	}
}

// keysRegion encodes one element per key as one raw bag log region; odd keys
// are on the right side.
func keysRegion(t testing.TB, keys ...uint64) []byte {
	t.Helper()
	tbl := NewBagTable()
	defer tbl.Reset()
	for _, key := range keys {
		if err := tbl.AppendBag(key, &crdt.BagElem{Time: 1, Side: uint8(key % 2)}); err != nil {
			t.Fatal(err)
		}
	}
	return logBytes(tbl)
}

// ckptDeltaBytes returns the delta bytes a checkpoint record's payload holds
// per window.
func ckptDeltaBytes(t *testing.T, payload []byte) map[uint64]int {
	t.Helper()
	out := map[uint64]int{}
	off := 4 + int(getU32(payload))*trackerEntrySize
	for off < len(payload) {
		win, n := getU64(payload[off:]), int(getU32(payload[off+8:]))
		out[win] += n
		off += 12 + n
	}
	if off != len(payload) {
		t.Fatalf("checkpoint record ends %d bytes into an event", off-len(payload))
	}
	return out
}

// sumRegion encodes a sum delta of value 1 per key occurrence as one raw
// aggregate log region.
func sumRegion(t testing.TB, keys ...uint64) []byte {
	t.Helper()
	tbl := NewAggTable(crdt.Sum{})
	for _, key := range keys {
		if err := tbl.UpdateAgg(&stream.Record{Key: key, Time: 1, V0: 1}); err != nil {
			t.Fatal(err)
		}
	}
	var out []byte
	err := tbl.SerializeDelta(DefaultChunkSize, func(r []byte) error {
		out = append(out, r...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTriggerEmitsOutsideLock blocks the emit in the middle of a window, for
// either table kind, and while it blocks requires the leader to keep
// serving: a chunk for a later window merges, a chunk for a window being
// emitted gets the answer it gets after the trigger (ErrLateChunk, or a
// counted drop on a recoverable leader), the readers give their documented
// answers for the windows in flight, and a second trigger fires nothing
// twice. Every fired window's sealed snapshot holds all its keys, so it was
// published before the table was recycled. On the recoverable leader no
// trigger mark precedes the checkpoint records that hold its window's
// deltas.
func TestTriggerEmitsOutsideLock(t *testing.T) {
	kinds := []struct {
		name   string
		agg    crdt.Aggregate
		region func(t testing.TB, keys ...uint64) []byte
		// rows of windows 0 and 1, then of window 2
		want, want2 []string
	}{
		{"bag", nil, keysRegion,
			[]string{"0/1:0,1", "0/2:2,0", "0/3:0,1", "1/5:0,1", "1/4:1,0"}, []string{"2/6:1,0", "2/7:0,1"}},
		{"agg", crdt.Sum{}, sumRegion,
			[]string{"0/1:1", "0/2:2", "0/3:1", "1/5:1", "1/4:1"}, []string{"2/6:1", "2/7:1"}},
	}
	for _, recoverable := range []bool{false, true} {
		name := "strict"
		if recoverable {
			name = "recoverable"
		}
		t.Run(name, func(t *testing.T) {
			for _, kind := range kinds {
				t.Run(kind.name, func(t *testing.T) {
					cfg := Config{Node: 0, Nodes: 1, ThreadsPerNode: 2, Agg: kind.agg, WindowEnd: fixedWindowEnd}
					j := &memJournal{}
					if recoverable {
						cfg.Journal = j
					}
					b, err := New(cfg, make([]Sender, 1))
					if err != nil {
						t.Fatal(err)
					}
					pub := &recPublisher{}
					b.SetStatePublisher(pub, 0)
					merged := map[uint64]int{} // delta bytes merged per window
					data := func(win, epoch uint64, payload []byte) error {
						c := &Chunk{Window: win, Epoch: epoch, Watermark: stream.NoWatermark, Thread: 1, Kind: ChunkData, Payload: payload}
						before := b.Stats().BytesMerged
						err := b.HandleChunk(c)
						merged[win] += int(b.Stats().BytesMerged - before)
						return err
					}
					heartbeats := func(epoch uint64, wm stream.Watermark) {
						for thread := 0; thread < 2; thread++ {
							if err := b.HandleChunk(&Chunk{Epoch: epoch, Watermark: wm, Thread: thread, Kind: ChunkHeartbeat}); err != nil {
								t.Fatal(err)
							}
						}
					}
					// Windows 0 and 1 become ready; window 2 stays open.
					for win, keys := range [][]uint64{{1, 2, 3, 2}, {5, 4}, {6}} {
						if err := data(uint64(win), 1, kind.region(t, keys...)); err != nil {
							t.Fatal(err)
						}
					}
					heartbeats(1, fixedWindowEnd(1))

					var mu sync.Mutex
					var rows []string
					blocked, release := make(chan struct{}), make(chan struct{})
					unblock := sync.OnceFunc(func() { close(release) })
					defer unblock() // a failing check must not leave the trigger blocked
					row := func(r string) {
						mu.Lock()
						rows = append(rows, r)
						first := len(rows) == 1
						mu.Unlock()
						if first {
							close(blocked)
							<-release
						}
					}
					emitAgg := func(win, key uint64, v int64) { row(fmt.Sprintf("%d/%d:%d", win, key, v)) }
					emitJoin := func(win, key uint64, left, right int) {
						row(fmt.Sprintf("%d/%d:%d,%d", win, key, left, right))
					}
					fired := make(chan int, 2)
					go func() { fired <- b.TriggerSides(emitAgg, emitJoin) }()
					<-blocked

					later, late := kind.region(t, 7), kind.region(t, 9)
					done := make(chan error, 1)
					go func() { done <- data(2, 2, later) }()
					select {
					case err := <-done:
						if err != nil {
							t.Fatalf("chunk for a later window: %v", err)
						}
					case <-time.After(10 * time.Second):
						t.Fatal("a chunk for a later window waited for the trigger's emit")
					}
					deduped := b.ChunksDeduped()
					err = data(0, 2, late)
					if recoverable {
						if err != nil || b.ChunksDeduped() != deduped+1 {
							t.Fatalf("chunk for the window being emitted: err %v, %d deduped after %d", err, b.ChunksDeduped(), deduped)
						}
					} else if !errors.Is(err, ErrLateChunk) {
						t.Fatalf("chunk for the window being emitted: err %v, want ErrLateChunk", err)
					}
					if p := b.PendingWindows(); p != 3 {
						t.Fatalf("%d pending windows while two are emitted and one is open, want 3", p)
					}
					if !b.TriggeredAtOrAfter(1) || b.TriggeredAtOrAfter(2) || !b.HasPendingAtOrAfter(1) {
						t.Fatal("a window being emitted must read as triggered and pending")
					}
					if st := b.Stats(); st.WindowsOutput != 0 {
						t.Fatalf("%d windows output before their trigger finished", st.WindowsOutput)
					}
					go func() { fired <- b.TriggerSides(emitAgg, emitJoin) }()
					unblock()
					if n := <-fired + <-fired; n != 2 {
						t.Fatalf("two concurrent triggers fired %d windows, want 2", n)
					}
					if !slices.Equal(rows, kind.want) {
						t.Fatalf("rows %v, want %v", rows, kind.want)
					}
					if p, st := b.PendingWindows(), b.Stats(); p != 1 || st.WindowsOutput != 2 {
						t.Fatalf("after the trigger: %d pending, %d output, want 1 and 2", p, st.WindowsOutput)
					}

					// Window 2 closes with the delta merged during the emit.
					heartbeats(2, fixedWindowEnd(2))
					if n := b.TriggerSides(emitAgg, emitJoin); n != 1 || !slices.Equal(rows[len(kind.want):], kind.want2) {
						t.Fatalf("window 2 fired %d windows, rows %v", n, rows[len(kind.want):])
					}
					sealed := map[uint64]int{} // keys per sealed snapshot
					for _, s := range pub.snaps {
						if s.Sealed {
							sealed[s.Window] = s.Keys
						}
					}
					if want := map[uint64]int{0: 3, 1: 2, 2: 2}; !maps.Equal(sealed, want) {
						t.Fatalf("sealed snapshots hold %v keys per window, want %v", sealed, want)
					}
					if !recoverable {
						return
					}
					journaled := map[uint64]int{}
					marks := 0
					for _, rec := range j.recs {
						if !rec.trigger {
							for win, n := range ckptDeltaBytes(t, rec.payload) {
								journaled[win] += n
							}
							continue
						}
						marks++
						if journaled[rec.win] != merged[rec.win] {
							t.Fatalf("trigger mark of window %d follows %d of its %d delta bytes", rec.win, journaled[rec.win], merged[rec.win])
						}
					}
					if marks != 3 {
						t.Fatalf("%d trigger marks, want 3", marks)
					}
				})
			}
		})
	}
}
