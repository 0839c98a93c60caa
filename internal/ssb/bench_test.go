package ssb

import (
	"math/rand"
	"testing"

	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/stream"
)

// Micro-benchmarks for the SSB hot paths: the per-record RMW update (the
// engine's common case, §7.1.2), the bag append (join state), and the
// leader-side delta merge (§7.2.2).

func BenchmarkUpdateAgg(b *testing.B) {
	for _, keys := range []int{1 << 10, 1 << 16} {
		b.Run(benchName("keys", keys), func(b *testing.B) {
			tbl := NewAggTable(crdt.Sum{})
			rng := rand.New(rand.NewSource(1))
			recs := make([]stream.Record, 1<<12)
			for i := range recs {
				recs[i] = stream.Record{Key: uint64(rng.Intn(keys)), V0: int64(i)}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tbl.UpdateAgg(&recs[i&(len(recs)-1)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAppendBag(b *testing.B) {
	tbl := NewBagTable()
	e := crdt.BagElem{Time: 1, Val: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tbl.AppendBag(uint64(i&1023), &e); err != nil {
			b.Fatal(err)
		}
		if tbl.LogBytes() > 64<<20 {
			b.StopTimer()
			tbl.Reset()
			b.StartTimer()
		}
	}
}

func BenchmarkMergeDelta(b *testing.B) {
	// One pre-serialized 16 KiB delta region merged repeatedly: the
	// leader-side cost per epoch chunk.
	src := NewAggTable(crdt.Sum{})
	rng := rand.New(rand.NewSource(2))
	for src.LogBytes() < 16<<10 {
		r := stream.Record{Key: uint64(rng.Intn(1 << 20)), V0: 1}
		if err := src.UpdateAgg(&r); err != nil {
			b.Fatal(err)
		}
	}
	var region []byte
	if err := src.SerializeDelta(1<<20, func(r []byte) error {
		region = append([]byte(nil), r...)
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	dst := NewAggTable(crdt.Sum{})
	b.SetBytes(int64(len(region)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dst.MergeDelta(region); err != nil {
			b.Fatal(err)
		}
		if dst.LogBytes() > 64<<20 {
			b.StopTimer()
			dst.Reset()
			b.StartTimer()
		}
	}
}

// The three bag stages of a join window, at the nb8_join_replay shape: 2
// nodes, ~20k sellers of which one leader sees ~9k, 4 KiB chunks, ~60k
// elements per leader window. Each reports ns/elem and must stay at 0
// allocs/op once the pooled tables have reached their working size.

const (
	benchBagKeys   = 20_000
	benchBagWindow = 60_000 // elements per leader window
)

// benchBagRegions serializes n random elements into 4 KiB chunk payloads.
func benchBagRegions(b testing.TB, n int) [][]byte {
	b.Helper()
	src := NewBagTable()
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < n; i++ {
		// Half the key space: the share one of two leaders owns.
		e := crdt.BagElem{Time: int64(i), Val: rng.Int63(), Side: uint8(i & 1)}
		if err := src.AppendBag(uint64(rng.Intn(benchBagKeys/2)), &e); err != nil {
			b.Fatal(err)
		}
	}
	var regions [][]byte
	if err := src.SerializeDelta(4096, func(r []byte) error {
		regions = append(regions, append([]byte(nil), r...))
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	return regions
}

func BenchmarkBagAppendBatch(b *testing.B) {
	bs := newCluster(b, 2, 1, nil, fixedWindowEnd)
	ts := bs[0].Thread(0)
	rng := rand.New(rand.NewSource(7))
	rb := stream.NewRecordBatch(256)
	rb.Reset(rb.Cap())
	sides := make([]uint8, rb.Cap())
	for rb.Free() > 0 {
		sides[rb.Len()] = uint8(rb.Len() & 1)
		rb.Append(&stream.Record{Key: uint64(rng.Intn(benchBagKeys)), Time: int64(rb.Len()), V0: rng.Int63()})
	}
	// recycle is the table half of Flush: an epoch's fragments go back to
	// the pool, so the next epoch appends into reset tables.
	recycle := func() {
		ts.invalidateCache()
		for k, t := range ts.tables {
			t.Reset()
			ts.pool = append(ts.pool, t)
			delete(ts.tables, k)
		}
	}
	appended := 0
	step := func() {
		if err := ts.AppendBagBatch(0, rb, 0, rb.Live(), sides); err != nil {
			b.Fatal(err)
		}
		if appended += rb.Cap() * bagEntrySize; appended >= DefaultEpochBytes {
			recycle()
			appended = 0
		}
	}
	for i := 0; i < 2*DefaultEpochBytes/(bagEntrySize*rb.Cap()); i++ {
		step() // grow the pooled logs to epoch size before timing
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rb.Cap()), "ns/elem")
}

func BenchmarkBagMergeDelta(b *testing.B) {
	regions := benchBagRegions(b, benchBagWindow)
	dst := NewBagTable()
	merge := func(i int) {
		if i%len(regions) == 0 {
			dst.Reset() // a new window: the pooled table starts over
		}
		if err := dst.MergeDelta(regions[i%len(regions)]); err != nil {
			b.Fatal(err)
		}
	}
	for i := range regions {
		merge(i)
	}
	b.SetBytes(int64(len(regions[0])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merge(i)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(regions[0])/bagEntrySize), "ns/elem")
}

// refillBag recycles tbl and merges one window's regions into it, the way a
// leader's pooled table takes its next window.
func refillBag(tb testing.TB, tbl *Table, regions [][]byte) {
	tbl.Reset()
	for _, r := range regions {
		if err := tbl.MergeDelta(r); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkBagTrigger(b *testing.B) {
	regions := benchBagRegions(b, benchBagWindow)
	tbl := NewBagTable()
	var keys, left int
	emit := func(_ uint64, elems []crdt.BagElem) { // what a join sink does
		keys++
		for i := range elems {
			left += int(elems[i].Side ^ 1)
		}
	}
	refillBag(b, tbl, regions)
	tbl.ForEachBag(emit) // size the index and the grouped arrays once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		refillBag(b, tbl, regions)
		keys, left = 0, 0
		b.StartTimer()
		tbl.ForEachBag(emit)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchBagWindow), "ns/elem")
	b.ReportMetric(float64(keys), "keys")
	if left <= 0 || left >= benchBagWindow {
		b.Fatalf("%d of %d elements on the left side", left, benchBagWindow)
	}
}

// BenchmarkBagTriggerSides is BenchmarkBagTrigger through the count view the
// engine's trigger uses.
func BenchmarkBagTriggerSides(b *testing.B) {
	regions := benchBagRegions(b, benchBagWindow)
	tbl := NewBagTable()
	var keys, left int
	emit := func(_ uint64, l, _ int) {
		keys++
		left += l
	}
	refillBag(b, tbl, regions)
	tbl.ForEachSides(emit) // size the group map and counters once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		refillBag(b, tbl, regions)
		keys, left = 0, 0
		b.StartTimer()
		tbl.ForEachSides(emit)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchBagWindow), "ns/elem")
	b.ReportMetric(float64(keys), "keys")
	if left <= 0 || left >= benchBagWindow {
		b.Fatalf("%d of %d elements on the left side", left, benchBagWindow)
	}
}

func BenchmarkIndexLookupOrReserve(b *testing.B) {
	ix := newIndex()
	for i := uint64(0); i < 1<<16; i++ {
		ix.set(i, int32(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.lookupOrReserve(uint64(i & (1<<16 - 1)))
	}
}

func benchName(k string, v int) string {
	switch {
	case v >= 1<<20:
		return k + "=1M"
	case v >= 1<<16:
		return k + "=64K"
	default:
		return k + "=1K"
	}
}
