package ssb

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/stream"
)

func TestAggTableUpdateAndGet(t *testing.T) {
	tbl := NewAggTable(crdt.Sum{})
	recs := []stream.Record{
		{Key: 1, V0: 10}, {Key: 2, V0: 5}, {Key: 1, V0: -3},
	}
	for i := range recs {
		if err := tbl.UpdateAgg(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	state, ok := tbl.GetAgg(1)
	if !ok || (crdt.Sum{}).Result(state) != 7 {
		t.Fatalf("key 1 state = %v ok=%v", state, ok)
	}
	if tbl.Keys() != 2 || tbl.Entries() != 2 {
		t.Fatalf("keys=%d entries=%d", tbl.Keys(), tbl.Entries())
	}
	if _, ok := tbl.GetAgg(99); ok {
		t.Fatal("phantom key")
	}
}

func TestTableKindMismatch(t *testing.T) {
	agg := NewAggTable(crdt.Count{})
	if err := agg.AppendBag(1, &crdt.BagElem{}); !errors.Is(err, ErrTableKind) {
		t.Fatalf("err = %v", err)
	}
	bag := NewBagTable()
	if err := bag.UpdateAgg(&stream.Record{}); !errors.Is(err, ErrTableKind) {
		t.Fatalf("err = %v", err)
	}
	if err := bag.MergeAggValue(1, []byte{1}); !errors.Is(err, ErrTableKind) {
		t.Fatalf("err = %v", err)
	}
}

func TestBagGrouping(t *testing.T) {
	tbl := NewBagTable()
	for i := int64(0); i < 5; i++ {
		if err := tbl.AppendBag(7, &crdt.BagElem{Time: i, Val: i * 10}); err != nil {
			t.Fatal(err)
		}
	}
	_ = tbl.AppendBag(8, &crdt.BagElem{Time: 100})
	if got := tbl.BagLen(7); got != 5 {
		t.Fatalf("BagLen(7) = %d", got)
	}
	if got := tbl.BagLen(8); got != 1 {
		t.Fatalf("BagLen(8) = %d", got)
	}
	if got := tbl.BagLen(9); got != 0 {
		t.Fatalf("BagLen(9) = %d", got)
	}
	var keys []uint64
	tbl.ForEachBag(func(key uint64, elems []crdt.BagElem) {
		keys = append(keys, key)
		if key == 7 {
			if len(elems) != 5 {
				t.Fatalf("key 7 has %d elems", len(elems))
			}
			// A bag is a multiset: every element once, in no promised order.
			seen := map[int64]bool{}
			for _, e := range elems {
				if e.Val != e.Time*10 || e.Time < 0 || e.Time > 4 || seen[e.Time] {
					t.Fatalf("unexpected elem %+v", e)
				}
				seen[e.Time] = true
			}
		}
	})
	if len(keys) != 2 {
		t.Fatalf("visited %d keys", len(keys))
	}
}

func TestSerializeMergeRoundTrip(t *testing.T) {
	src := NewAggTable(crdt.Sum{})
	rng := rand.New(rand.NewSource(3))
	want := map[uint64]int64{}
	for i := 0; i < 1000; i++ {
		r := stream.Record{Key: uint64(rng.Intn(100)), V0: rng.Int63n(100)}
		_ = src.UpdateAgg(&r)
		want[r.Key] += r.V0
	}
	dst := NewAggTable(crdt.Sum{})
	// Small chunks force many splits at entry boundaries.
	if err := src.SerializeDelta(64, dst.MergeDelta); err != nil {
		t.Fatal(err)
	}
	if dst.Keys() != len(want) {
		t.Fatalf("dst keys = %d, want %d", dst.Keys(), len(want))
	}
	dst.ForEachAgg(func(key uint64, state []byte) {
		if got := (crdt.Sum{}).Result(state); got != want[key] {
			t.Fatalf("key %d = %d, want %d", key, got, want[key])
		}
	})
}

func TestSerializeDeltaMergesIntoExistingState(t *testing.T) {
	a := NewAggTable(crdt.Count{})
	b := NewAggTable(crdt.Count{})
	for i := 0; i < 10; i++ {
		r := stream.Record{Key: uint64(i % 3)}
		_ = a.UpdateAgg(&r)
		_ = b.UpdateAgg(&r)
	}
	if err := a.SerializeDelta(1024, b.MergeDelta); err != nil {
		t.Fatal(err)
	}
	state, _ := b.GetAgg(0)
	// Key 0 appears 4 times in each table.
	if got := (crdt.Count{}).Result(state); got != 8 {
		t.Fatalf("merged count = %d, want 8", got)
	}
}

func TestBagSerializeMerge(t *testing.T) {
	src := NewBagTable()
	for i := int64(0); i < 20; i++ {
		_ = src.AppendBag(uint64(i%4), &crdt.BagElem{Time: i, Val: i, Side: uint8(i % 2)})
	}
	dst := NewBagTable()
	_ = dst.AppendBag(0, &crdt.BagElem{Time: 1000, Val: -1})
	if err := src.SerializeDelta(128, dst.MergeDelta); err != nil {
		t.Fatal(err)
	}
	if got := dst.BagLen(0); got != 6 { // 5 shipped + 1 pre-existing
		t.Fatalf("BagLen(0) = %d", got)
	}
	if got := dst.BagLen(1); got != 5 {
		t.Fatalf("BagLen(1) = %d", got)
	}
}

func TestSerializeChunkTooSmall(t *testing.T) {
	tbl := NewAggTable(crdt.Sum{})
	r := stream.Record{Key: 1, V0: 1}
	_ = tbl.UpdateAgg(&r)
	if err := tbl.SerializeDelta(4, func([]byte) error { return nil }); err == nil {
		t.Fatal("tiny chunk size accepted")
	}
	// Below the worst-case encoded entry bound (pad + 2 varints for sum).
	if err := tbl.SerializeDelta(aggChunkPad+2*maxVarint-1, func([]byte) error { return nil }); err == nil {
		t.Fatal("chunk smaller than one entry accepted")
	}
	bag := NewBagTable()
	_ = bag.AppendBag(1, &crdt.BagElem{Val: 1})
	if err := bag.SerializeDelta(entryHeaderSize-1, func([]byte) error { return nil }); err == nil {
		t.Fatal("bag chunk below entry header accepted")
	}
}

func TestMergeDeltaCorrupt(t *testing.T) {
	tbl := NewAggTable(crdt.Sum{})
	// Count prefix claims more entries than the chunk can hold.
	if err := tbl.MergeDelta([]byte{0xFF, 0x01}); !errors.Is(err, ErrChunkFormat) {
		t.Fatalf("err = %v", err)
	}
	// Truncated mid-entry: one entry promised, state varint missing.
	if err := tbl.MergeDelta([]byte{1, 2}); !errors.Is(err, ErrChunkFormat) {
		t.Fatalf("err = %v", err)
	}
	// Trailing garbage after the promised entries.
	if err := tbl.MergeDelta([]byte{1, 2, 2, 9, 9, 9}); !errors.Is(err, ErrChunkFormat) {
		t.Fatalf("err = %v", err)
	}
	bag := NewBagTable()
	// Header claims a huge value length.
	bad := make([]byte, entryHeaderSize)
	putU32(bad[12:], 5000)
	if err := bag.MergeDelta(bad); !errors.Is(err, ErrChunkFormat) {
		t.Fatalf("err = %v", err)
	}
	// Wrong element width for a bag.
	wrong := make([]byte, entryHeaderSize+8)
	putU32(wrong[12:], 8)
	if err := bag.MergeDelta(wrong); !errors.Is(err, ErrChunkFormat) {
		t.Fatalf("err = %v", err)
	}
}

func TestReset(t *testing.T) {
	tbl := NewAggTable(crdt.Sum{})
	r := stream.Record{Key: 5, V0: 9}
	_ = tbl.UpdateAgg(&r)
	tbl.Reset()
	if tbl.Keys() != 0 || tbl.LogBytes() != 0 || tbl.Entries() != 0 {
		t.Fatal("reset incomplete")
	}
	// RMW after reset restarts from the identity.
	_ = tbl.UpdateAgg(&r)
	state, _ := tbl.GetAgg(5)
	if got := (crdt.Sum{}).Result(state); got != 9 {
		t.Fatalf("post-reset sum = %d", got)
	}
}

// TestQuickDistributedAggEquivalence: splitting updates across k tables,
// serializing and merging into one must equal a sequential fold (P2 at the
// storage layer).
func TestQuickDistributedAggEquivalence(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(4)
		tables := make([]*Table, k)
		for i := range tables {
			tables[i] = NewAggTable(crdt.Sum{})
		}
		oracle := map[uint64]int64{}
		n := rng.Intn(500)
		for i := 0; i < n; i++ {
			r := stream.Record{Key: uint64(rng.Intn(20)), V0: rng.Int63n(200) - 100}
			oracle[r.Key] += r.V0
			if err := tables[rng.Intn(k)].UpdateAgg(&r); err != nil {
				return false
			}
		}
		merged := NewAggTable(crdt.Sum{})
		for _, tbl := range tables {
			if err := tbl.SerializeDelta(96, merged.MergeDelta); err != nil {
				return false
			}
		}
		if merged.Keys() != len(oracle) {
			return false
		}
		ok := true
		merged.ForEachAgg(func(key uint64, state []byte) {
			if (crdt.Sum{}).Result(state) != oracle[key] {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestForEachAggWalksLogOrder checks that both emit walks visit every key
// once, in the order the keys first reached the table (key 0 included),
// with the aggregate's own Result for every built-in kind and for an
// unregistered one.
func TestForEachAggWalksLogOrder(t *testing.T) {
	keys := []uint64{5, 0, 3, 9, 0, 5, 7}
	first := []uint64{5, 0, 3, 9, 7}
	for _, agg := range []crdt.Aggregate{crdt.Count{}, crdt.Sum{}, crdt.Min{}, crdt.Max{}, crdt.Avg{}, xorTimes{}} {
		tbl := NewAggTable(agg)
		for i, k := range keys {
			if err := tbl.UpdateAgg(&stream.Record{Key: k, Time: int64(i + 1), V0: int64(10*i - 25)}); err != nil {
				t.Fatal(err)
			}
		}
		var walked, emitted []uint64
		tbl.ForEachAgg(func(key uint64, state []byte) {
			walked = append(walked, key)
			if got, _ := tbl.GetAgg(key); &got[0] != &state[0] {
				t.Fatalf("%s: key %d: ForEachAgg state is not the table's", agg.Name(), key)
			}
		})
		tbl.forEachAggResult(func(key uint64, result int64) {
			emitted = append(emitted, key)
			state, _ := tbl.GetAgg(key)
			if want := agg.Result(state); result != want {
				t.Fatalf("%s: key %d: result %d, want %d", agg.Name(), key, result, want)
			}
		})
		if !slices.Equal(walked, first) || !slices.Equal(emitted, first) {
			t.Fatalf("%s: ForEachAgg %v, forEachAggResult %v, want %v", agg.Name(), walked, emitted, first)
		}
	}
}
