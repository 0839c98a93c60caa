package lightsaber

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/slash-stream/slash/internal/core"
	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/stream"
	"github.com/slash-stream/slash/internal/window"
)

var testCodec = stream.MustCodec(32)

func genFlows(rng *rand.Rand, n, recsPerFlow, keyRange int) ([]core.Flow, []stream.Record) {
	var all []stream.Record
	flows := make([]core.Flow, n)
	for i := range flows {
		recs := make([]stream.Record, recsPerFlow)
		ts := int64(0)
		for j := range recs {
			ts += rng.Int63n(10)
			recs[j] = stream.Record{Key: uint64(rng.Intn(keyRange)), Time: ts, V0: rng.Int63n(50)}
		}
		all = append(all, recs...)
		flows[i] = core.NewColumnarFlow(recs)
	}
	return flows, all
}

func TestValidation(t *testing.T) {
	win, _ := window.NewTumbling(100)
	q := &core.Query{Name: "q", Codec: testCodec, Window: win, Agg: crdt.Sum{}}
	if _, err := Run(Config{}, q, []core.Flow{core.NewColumnarFlow(nil)}, nil); err == nil {
		t.Fatal("zero workers accepted")
	}
	join := &core.Query{Name: "j", Codec: testCodec, Window: win, JoinSide: func(*stream.Record) uint8 { return 0 }}
	if _, err := Run(Config{Workers: 1}, join, []core.Flow{core.NewColumnarFlow(nil)}, nil); !errors.Is(err, ErrJoinsUnsupported) {
		t.Fatalf("join err = %v", err)
	}
	if _, err := Run(Config{Workers: 1}, q, nil, nil); err == nil {
		t.Fatal("no flows accepted")
	}
	if _, err := Run(Config{Workers: 1}, &core.Query{Codec: testCodec, Window: win}, []core.Flow{core.NewColumnarFlow(nil)}, nil); err == nil {
		t.Fatal("stateless query accepted")
	}
}

func TestSumEqualsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	flows, all := genFlows(rng, 4, 500, 19)
	win, _ := window.NewTumbling(300)
	q := &core.Query{Name: "sum", Codec: testCodec, Window: win, Agg: crdt.Sum{}}
	col := &core.Collector{}
	rep, err := Run(Config{Workers: 4, MorselRecords: 64}, q, flows, col)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != int64(len(all)) {
		t.Fatalf("records = %d, want %d", rep.Records, len(all))
	}
	oracle := map[uint64]map[uint64]int64{}
	var wins []uint64
	for i := range all {
		r := all[i]
		wins = win.Assign(r.Time, wins[:0])
		for _, w := range wins {
			if oracle[w] == nil {
				oracle[w] = map[uint64]int64{}
			}
			oracle[w][r.Key] += r.V0
		}
	}
	rows := col.Aggs()
	total := 0
	for _, keys := range oracle {
		total += len(keys)
	}
	if len(rows) != total {
		t.Fatalf("rows = %d, want %d", len(rows), total)
	}
	for _, r := range rows {
		if oracle[r.Win][r.Key] != r.Value {
			t.Fatalf("win %d key %d = %d, want %d", r.Win, r.Key, r.Value, oracle[r.Win][r.Key])
		}
	}
}

func TestFilterAndMap(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	flows, all := genFlows(rng, 2, 300, 7)
	win, _ := window.NewTumbling(200)
	q := &core.Query{
		Name: "fm", Codec: testCodec, Window: win, Agg: crdt.Count{},
		Filter: func(r *stream.Record) bool { return r.Key%2 == 0 },
	}
	sink := &core.CountingSink{}
	if _, err := Run(Config{Workers: 3}, q, flows, sink); err != nil {
		t.Fatal(err)
	}
	oracle := map[uint64]map[uint64]bool{}
	var wins []uint64
	for i := range all {
		r := all[i]
		if r.Key%2 != 0 {
			continue
		}
		wins = win.Assign(r.Time, wins[:0])
		for _, w := range wins {
			if oracle[w] == nil {
				oracle[w] = map[uint64]bool{}
			}
			oracle[w][r.Key] = true
		}
	}
	want := 0
	for _, keys := range oracle {
		want += len(keys)
	}
	if int(sink.AggRows.Load()) != want {
		t.Fatalf("rows = %d, want %d", sink.AggRows.Load(), want)
	}
}

func TestQuickWorkerCounts(t *testing.T) {
	prop := func(seed int64, ww uint8) bool {
		workers := 1 + int(ww%6)
		rng := rand.New(rand.NewSource(seed))
		flows, all := genFlows(rng, 3, 200, 11)
		win, _ := window.NewTumbling(250)
		q := &core.Query{Name: "quick", Codec: testCodec, Window: win, Agg: crdt.Sum{}}
		col := &core.Collector{}
		if _, err := Run(Config{Workers: workers, MorselRecords: 32}, q, flows, col); err != nil {
			return false
		}
		oracle := map[uint64]map[uint64]int64{}
		var wins []uint64
		for i := range all {
			r := all[i]
			wins = win.Assign(r.Time, wins[:0])
			for _, w := range wins {
				if oracle[w] == nil {
					oracle[w] = map[uint64]int64{}
				}
				oracle[w][r.Key] += r.V0
			}
		}
		for _, r := range col.Aggs() {
			if oracle[r.Win][r.Key] != r.Value {
				return false
			}
		}
		total := 0
		for _, keys := range oracle {
			total += len(keys)
		}
		return len(col.Aggs()) == total
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
