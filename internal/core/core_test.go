package core

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/stream"
	"github.com/slash-stream/slash/internal/window"
)

var testCodec = stream.MustCodec(32)

// genFlows builds per-node, per-thread flows with non-decreasing timestamps
// and returns the flat record list for oracle computation.
func genFlows(rng *rand.Rand, nodes, threads, recsPerFlow, keyRange int) ([][]Flow, []stream.Record) {
	var all []stream.Record
	flows := make([][]Flow, nodes)
	for n := 0; n < nodes; n++ {
		flows[n] = make([]Flow, threads)
		for th := 0; th < threads; th++ {
			recs := make([]stream.Record, recsPerFlow)
			ts := int64(0)
			for i := range recs {
				ts += rng.Int63n(20)
				recs[i] = stream.Record{
					Key:  uint64(rng.Intn(keyRange)),
					Time: ts,
					V0:   rng.Int63n(100) - 50,
					V1:   int64(rng.Intn(2)),
				}
			}
			all = append(all, recs...)
			flows[n][th] = NewColumnarFlow(recs)
		}
	}
	return flows, all
}

func smallConfig(nodes, threads int) Config {
	return Config{
		Nodes:          nodes,
		ThreadsPerNode: threads,
		EpochBytes:     4 << 10, // frequent epochs stress the protocol
		ChunkSize:      2 << 10,
	}
}

func TestQueryValidation(t *testing.T) {
	win, _ := window.NewTumbling(100)
	cases := []struct {
		q    Query
		want error
	}{
		{Query{Codec: testCodec, Agg: crdt.Sum{}}, ErrNoWindow},
		{Query{Codec: testCodec, Window: win}, ErrNoStateful},
		{Query{Codec: testCodec, Window: win, Agg: crdt.Sum{}, JoinSide: func(*stream.Record) uint8 { return 0 }}, ErrBothStateful},
	}
	for i, c := range cases {
		flows := [][]Flow{{NewColumnarFlow(nil)}}
		_, err := Run(smallConfig(1, 1), &c.q, flows, nil)
		if !errors.Is(err, c.want) {
			t.Fatalf("case %d: err = %v, want %v", i, err, c.want)
		}
	}
}

func TestRunValidatesFlowShape(t *testing.T) {
	win, _ := window.NewTumbling(100)
	q := &Query{Name: "q", Codec: testCodec, Window: win, Agg: crdt.Sum{}}
	if _, err := Run(smallConfig(2, 1), q, [][]Flow{{NewColumnarFlow(nil)}}, nil); err == nil {
		t.Fatal("wrong node count accepted")
	}
	if _, err := Run(smallConfig(1, 2), q, [][]Flow{{NewColumnarFlow(nil)}}, nil); err == nil {
		t.Fatal("wrong thread count accepted")
	}
}

// oracleAgg computes the sequential reference result for a windowed
// aggregation.
func oracleAgg(recs []stream.Record, assigner window.Assigner, agg crdt.Aggregate, filter func(*stream.Record) bool) map[uint64]map[uint64]int64 {
	states := map[uint64]map[uint64][]byte{}
	var wins []uint64
	for i := range recs {
		r := recs[i]
		if filter != nil && !filter(&r) {
			continue
		}
		wins = assigner.Assign(r.Time, wins[:0])
		for _, w := range wins {
			if states[w] == nil {
				states[w] = map[uint64][]byte{}
			}
			st := states[w][r.Key]
			if st == nil {
				st = make([]byte, agg.Size())
				agg.Init(st)
				states[w][r.Key] = st
			}
			agg.Update(st, &r)
		}
	}
	out := map[uint64]map[uint64]int64{}
	for w, keys := range states {
		out[w] = map[uint64]int64{}
		for k, st := range keys {
			out[w][k] = agg.Result(st)
		}
	}
	return out
}

func checkAggAgainstOracle(t *testing.T, col *Collector, oracle map[uint64]map[uint64]int64) {
	t.Helper()
	got := map[uint64]map[uint64]int64{}
	for _, r := range col.Aggs() {
		if got[r.Win] == nil {
			got[r.Win] = map[uint64]int64{}
		}
		if _, dup := got[r.Win][r.Key]; dup {
			t.Fatalf("duplicate emission win=%d key=%d", r.Win, r.Key)
		}
		got[r.Win][r.Key] = r.Value
	}
	if len(got) != len(oracle) {
		t.Fatalf("windows: got %d, want %d", len(got), len(oracle))
	}
	for w, keys := range oracle {
		if len(got[w]) != len(keys) {
			t.Fatalf("window %d: got %d keys, want %d", w, len(got[w]), len(keys))
		}
		for k, v := range keys {
			if got[w][k] != v {
				t.Fatalf("window %d key %d: got %d, want %d", w, k, got[w][k], v)
			}
		}
	}
}

func TestDistributedSumEqualsSequential(t *testing.T) {
	// P2 end to end: the full cluster path (channels, epochs, CRDT merge,
	// vector clocks) must equal a single-threaded fold.
	rng := rand.New(rand.NewSource(42))
	flows, all := genFlows(rng, 3, 2, 400, 37)
	win, _ := window.NewTumbling(500)
	q := &Query{Name: "sum", Codec: testCodec, Window: win, Agg: crdt.Sum{}}
	col := &Collector{}
	rep, err := Run(smallConfig(3, 2), q, flows, col)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != int64(len(all)) {
		t.Fatalf("records = %d, want %d", rep.Records, len(all))
	}
	checkAggAgainstOracle(t, col, oracleAgg(all, win, crdt.Sum{}, nil))
	if rep.WindowsOutput == 0 || rep.ChunksMerged == 0 {
		t.Fatalf("suspicious report: %+v", rep)
	}
}

func TestFilterAndMapFuseIntoPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	flows, all := genFlows(rng, 2, 1, 500, 20)
	win, _ := window.NewTumbling(300)
	filter := func(r *stream.Record) bool { return r.V1 == 0 }
	double := func(r *stream.Record) { r.V0 *= 2 }
	q := &Query{Name: "fm", Codec: testCodec, Window: win, Agg: crdt.Sum{}, Filter: filter, Map: double}
	col := &Collector{}
	if _, err := Run(smallConfig(2, 1), q, flows, col); err != nil {
		t.Fatal(err)
	}
	// Oracle applies the same filter and doubling.
	doubled := make([]stream.Record, 0, len(all))
	for _, r := range all {
		if r.V1 == 0 {
			r.V0 *= 2
			doubled = append(doubled, r)
		}
	}
	checkAggAgainstOracle(t, col, oracleAgg(doubled, win, crdt.Sum{}, nil))
}

func TestSlidingWindowsDistributed(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	flows, all := genFlows(rng, 2, 2, 300, 15)
	win, _ := window.NewSliding(400, 100)
	q := &Query{Name: "slide", Codec: testCodec, Window: win, Agg: crdt.Count{}}
	col := &Collector{}
	if _, err := Run(smallConfig(2, 2), q, flows, col); err != nil {
		t.Fatal(err)
	}
	checkAggAgainstOracle(t, col, oracleAgg(all, win, crdt.Count{}, nil))
}

func TestDistributedJoinCardinalities(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	flows, all := genFlows(rng, 2, 2, 300, 10)
	win, _ := window.NewTumbling(1000)
	side := func(r *stream.Record) uint8 { return uint8(r.V1) }
	q := &Query{Name: "join", Codec: testCodec, Window: win, JoinSide: side}
	col := &Collector{}
	if _, err := Run(smallConfig(2, 2), q, flows, col); err != nil {
		t.Fatal(err)
	}
	// Oracle: per (win, key) bag sizes per side.
	type wk struct {
		w, k uint64
	}
	oracleLeft := map[wk]int{}
	oracleRight := map[wk]int{}
	var wins []uint64
	for i := range all {
		r := all[i]
		wins = win.Assign(r.Time, wins[:0])
		for _, w := range wins {
			if side(&r) == 0 {
				oracleLeft[wk{w, r.Key}]++
			} else {
				oracleRight[wk{w, r.Key}]++
			}
		}
	}
	rows := col.Joins()
	seen := map[wk]bool{}
	for _, jr := range rows {
		k := wk{jr.Win, jr.Key}
		if seen[k] {
			t.Fatalf("duplicate join emission %v", k)
		}
		seen[k] = true
		if jr.Left != oracleLeft[k] || jr.Right != oracleRight[k] {
			t.Fatalf("join %v: got (%d,%d), want (%d,%d)", k, jr.Left, jr.Right, oracleLeft[k], oracleRight[k])
		}
		if jr.Pairs != jr.Left*jr.Right {
			t.Fatalf("pairs %d != %d*%d", jr.Pairs, jr.Left, jr.Right)
		}
	}
	// Every (win,key) with at least one record must have been emitted.
	keys := map[wk]bool{}
	for k := range oracleLeft {
		keys[k] = true
	}
	for k := range oracleRight {
		keys[k] = true
	}
	if len(seen) != len(keys) {
		t.Fatalf("emitted %d join keys, want %d", len(seen), len(keys))
	}
}

func TestQuickClusterShapes(t *testing.T) {
	// Sweep deployment shapes: result correctness must be independent of
	// nodes, threads, epoch size, and chunk size. The property returns false
	// only after recording in why what went wrong for that input.
	var why string
	prop := func(seed int64, nn, tt, ep uint8) bool {
		nodes := 1 + int(nn%4)
		threads := 1 + int(tt%3)
		rng := rand.New(rand.NewSource(seed))
		flows, all := genFlows(rng, nodes, threads, 150, 25)
		win, _ := window.NewTumbling(400)
		q := &Query{Name: "quick", Codec: testCodec, Window: win, Agg: crdt.Sum{}}
		cfg := smallConfig(nodes, threads)
		cfg.EpochBytes = int64(1+ep%8) << 10
		shape := fmt.Sprintf("%d nodes × %d threads, %d KiB epochs", nodes, threads, cfg.EpochBytes>>10)
		col := &Collector{}
		if _, err := Run(cfg, q, flows, col); err != nil {
			why = shape + ": Run: " + err.Error()
			return false
		}
		if d := diffAggRows(col.Aggs(), oracleAgg(all, win, crdt.Sum{}, nil)); d != "" {
			why = shape + ": " + d
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatalf("%v\n%s", err, why)
	}
}

// diffAggRows describes the first difference between the sink's rows,
// sorted by (win, key) as Collector.Aggs returns them, and the oracle: a row
// emitted twice, a row the oracle lacks, or a wrong value; failing those,
// the smallest (win, key) of the oracle that no row has. It returns "" when
// the two agree.
func diffAggRows(rows []AggResult, oracle map[uint64]map[uint64]int64) string {
	seen := map[[2]uint64]bool{}
	for _, r := range rows {
		wk := [2]uint64{r.Win, r.Key}
		want, ok := oracle[r.Win][r.Key]
		switch {
		case seen[wk]:
			return fmt.Sprintf("row (win %d, key %d) emitted twice", r.Win, r.Key)
		case !ok:
			return fmt.Sprintf("extra row (win %d, key %d) = %d", r.Win, r.Key, r.Value)
		case r.Value != want:
			return fmt.Sprintf("row (win %d, key %d) = %d, want %d", r.Win, r.Key, r.Value, want)
		}
		seen[wk] = true
	}
	var missing [][2]uint64
	for w, keys := range oracle {
		for k := range keys {
			if !seen[[2]uint64{w, k}] {
				missing = append(missing, [2]uint64{w, k})
			}
		}
	}
	if len(missing) == 0 {
		return ""
	}
	first := slices.MinFunc(missing, func(a, b [2]uint64) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	return fmt.Sprintf("missing row (win %d, key %d) = %d; %d rows missing in all", first[0], first[1], oracle[first[0]][first[1]], len(missing))
}

func TestEmptyFlows(t *testing.T) {
	win, _ := window.NewTumbling(100)
	q := &Query{Name: "empty", Codec: testCodec, Window: win, Agg: crdt.Sum{}}
	flows := [][]Flow{{NewColumnarFlow(nil)}, {NewColumnarFlow(nil)}}
	col := &Collector{}
	rep, err := Run(smallConfig(2, 1), q, flows, col)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 0 || len(col.Aggs()) != 0 {
		t.Fatalf("empty run produced records=%d rows=%d", rep.Records, len(col.Aggs()))
	}
}

func TestCountingSink(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	flows, all := genFlows(rng, 2, 1, 200, 10)
	win, _ := window.NewTumbling(250)
	q := &Query{Name: "count", Codec: testCodec, Window: win, Agg: crdt.Count{}}
	sink := &CountingSink{}
	rep, err := Run(smallConfig(2, 1), q, flows, sink)
	if err != nil {
		t.Fatal(err)
	}
	oracle := oracleAgg(all, win, crdt.Count{}, nil)
	wantRows := 0
	for _, keys := range oracle {
		wantRows += len(keys)
	}
	if int(sink.AggRows.Load()) != wantRows {
		t.Fatalf("sink rows = %d, want %d", sink.AggRows.Load(), wantRows)
	}
	if rep.Records != int64(len(all)) {
		t.Fatalf("records = %d", rep.Records)
	}
}
