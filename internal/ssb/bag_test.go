package ssb

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/stream"
)

// bagRegion encodes elements as one raw bag log region.
func bagRegion(t testing.TB, key uint64, elems ...crdt.BagElem) []byte {
	t.Helper()
	tbl := NewBagTable()
	for i := range elems {
		if err := tbl.AppendBag(key, &elems[i]); err != nil {
			t.Fatal(err)
		}
	}
	return append([]byte(nil), tbl.Log()...)
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
			before := append([]byte(nil), tbl.Log()...)
			if err := tbl.MergeDelta(region); !errors.Is(err, ErrChunkFormat) {
				t.Fatalf("err = %v, want ErrChunkFormat", err)
			}
			if tbl.LogBytes() != len(before) || tbl.Entries() != 1 || !bytes.Equal(tbl.Log(), before) {
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
				hashes[i] = mix64(k)
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

				if !bytes.Equal(recycled.Log(), fresh.Log()) {
					t.Fatalf("recycled table diverged from a new one\n got %x\nwant %x", recycled.Log(), fresh.Log())
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

// bagHarness drives one recoverable bag leader the way a deployment does:
// thread 0 is local (helper fragments, loopback flush), thread 1 is a remote
// sender whose serialized fragments arrive as chunks.
type bagHarness struct {
	t   *testing.T
	rng *rand.Rand
	j   *memJournal
	b   *Backend
	ts  *ThreadState

	remoteEpoch uint64
	remoteFrag  *Table // recycled every remote epoch
	rb          *stream.RecordBatch
	sides       []uint8

	pending bagRef // appended on thread 0, not yet flushed
	merged  bagRef // at the leader
}

func (h *bagHarness) newBackend() *Backend {
	b, err := New(Config{
		Node: 0, Nodes: 1, ThreadsPerNode: 2,
		WindowEnd: fixedWindowEnd, Journal: h.j,
	}, make([]Sender, 1))
	if err != nil {
		h.t.Fatal(err)
	}
	return b
}

func (h *bagHarness) elem(win uint64) (uint64, crdt.BagElem) {
	key := uint64(h.rng.Intn(12))
	if h.rng.Intn(4) == 0 {
		key = uint64(h.rng.Intn(1 << 20)) // a long tail beside the hot keys
	}
	return key, crdt.BagElem{
		Time: int64(win)*1000 + int64(h.rng.Intn(1000)),
		Val:  h.rng.Int63n(1000),
		Side: uint8(h.rng.Intn(2)),
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
}

// remoteEpochTo ships one epoch from thread 1: a recycled fragment filled
// with n elements, serialized into small chunks, then the committing
// heartbeat carrying wm.
func (h *bagHarness) remoteEpochTo(win uint64, n int, wm stream.Watermark) {
	h.remoteEpoch++
	h.remoteFrag.Reset()
	for i := 0; i < n; i++ {
		key, e := h.elem(win)
		if err := h.remoteFrag.AppendBag(key, &e); err != nil {
			h.t.Fatal(err)
		}
		h.merged.add(win, key, e)
	}
	chunk := bagEntrySize * (1 + h.rng.Intn(6))
	err := h.remoteFrag.SerializeDelta(chunk, func(region []byte) error {
		return h.b.HandleChunk(&Chunk{
			Window: win, Epoch: h.remoteEpoch, Watermark: stream.NoWatermark,
			Thread: 1, Kind: ChunkData, Payload: append([]byte(nil), region...),
		})
	})
	if err != nil {
		h.t.Fatal(err)
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
		}
	}
}

// restore replaces the leader by one rebuilt from durable state, mid-window:
// a journal replay (checkpoint records and trigger marks) or a snapshot.
func (h *bagHarness) restore(fromJournal bool) {
	h.flushLocal()
	if _, err := h.b.Checkpoint(); err != nil {
		h.t.Fatal(err)
	}
	r := h.newBackend()
	if fromJournal {
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
	} else {
		var buf bytes.Buffer
		if err := h.b.Snapshot(&buf); err != nil {
			h.t.Fatal(err)
		}
		if err := r.Restore(&buf); err != nil {
			h.t.Fatal(err)
		}
	}
	ts := r.Thread(0)
	ts.RestoreProgress(h.ts.Epoch(), h.ts.Watermark(), h.ts.Inc()+1)
	h.b, h.ts = r, ts
}

// trigger closes win on both threads and requires the emitted bags to equal
// the reference exactly — a key left over from the table's previous window
// would show up here as an extra key.
func (h *bagHarness) trigger(win uint64) {
	end := fixedWindowEnd(win)
	h.ts.ObserveTime(end)
	h.flushLocal()
	h.remoteEpochTo(win, h.rng.Intn(3), end)
	got := map[uint64][]crdt.BagElem{}
	n := h.b.TriggerReady(nil, func(w, key uint64, elems []crdt.BagElem) {
		if w != win {
			h.t.Fatalf("window %d fired while closing %d", w, win)
		}
		got[key] = append(got[key], elems...)
	})
	if n != 1 {
		h.t.Fatalf("closing window %d fired %d windows", win, n)
	}
	sameBags(h.t, "triggered window", got, h.merged[win])
	delete(h.merged, win)
	if err := h.b.JournalErr(); err != nil {
		h.t.Fatal(err)
	}
}

// TestBagTableProperty drives a bag leader through random interleavings of
// local appends (per record and batched), flushes, merges of serialized
// remote fragments, reads between appends, mid-window restores from the
// journal and from a snapshot, and window triggers that recycle the tables,
// against a map-of-slices reference.
func TestBagTableProperty(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		h := &bagHarness{
			t: t, rng: rand.New(rand.NewSource(seed)), j: &memJournal{},
			remoteFrag: NewBagTable(), rb: stream.NewRecordBatch(48), sides: make([]uint8, 48),
			pending: bagRef{}, merged: bagRef{},
		}
		h.b = h.newBackend()
		h.ts = h.b.Thread(0)
		for win := uint64(0); win < 5; win++ {
			low := stream.Watermark(win * 1000) // holds the window open
			for op := 0; op < 120; op++ {
				target := win + uint64(h.rng.Intn(2)) // the open window or the next
				switch r := h.rng.Intn(20); {
				case r < 9:
					h.appendLocal(target)
				case r < 12:
					h.flushLocal()
				case r < 15:
					h.remoteEpochTo(target, 1+h.rng.Intn(40), low)
				case r < 18:
					h.check(r == 17)
				case r == 18:
					h.restore(true)
				default:
					h.restore(false)
				}
			}
			h.trigger(win)
			h.check(true)
		}
	}
}

// FuzzBagMergeDelta: an arbitrary region never panics the bag merge, and is
// either concatenated whole or rejected without a trace.
func FuzzBagMergeDelta(f *testing.F) {
	good := bagRegion(f, 7, crdt.BagElem{Time: 1, Val: 10}, crdt.BagElem{Time: 2, Val: 20, Side: 1})
	f.Add(good)
	f.Add(good[:len(good)-5])
	f.Add(good[:bagEntrySize+6])
	bad := append([]byte(nil), good...)
	putU32(bad[12:], 1<<31)
	f.Add(bad)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, region []byte) {
		tbl := NewBagTable()
		if err := tbl.AppendBag(3, &crdt.BagElem{Time: 99}); err != nil {
			t.Fatal(err)
		}
		before := append([]byte(nil), tbl.Log()...)
		if err := tbl.MergeDelta(region); err != nil {
			if !errors.Is(err, ErrChunkFormat) {
				t.Fatalf("unexpected error %v", err)
			}
			if !bytes.Equal(tbl.Log(), before) || tbl.Entries() != 1 {
				t.Fatal("rejected region changed the table")
			}
		} else if !bytes.Equal(tbl.Log(), append(before, region...)) || tbl.Entries() != 1+len(region)/bagEntrySize {
			t.Fatal("accepted region is not a plain concatenation")
		}
		elems := 0
		tbl.ForEachBag(func(_ uint64, es []crdt.BagElem) { elems += len(es) })
		if elems != tbl.Entries() || tbl.Keys() > elems {
			t.Fatalf("grouped %d elements over %d keys, table has %d entries", elems, tbl.Keys(), tbl.Entries())
		}
	})
}
