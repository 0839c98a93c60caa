package repart_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/slash-stream/slash/internal/channel"
	"github.com/slash-stream/slash/internal/core"
	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/flinksim"
	"github.com/slash-stream/slash/internal/stream"
	"github.com/slash-stream/slash/internal/uppar"
	"github.com/slash-stream/slash/internal/window"
)

var testCodec = stream.MustCodec(32)

// shape is a small deployment. tinyBatch shrinks the engine's batch region
// below one record.
type shape struct {
	nodes, producers, consumers int
	tinyBatch                   bool
}

// engines are the two baselines over the shared engine, each on a small
// config with frequent flushes that stress watermark handling.
var engines = []struct {
	name string
	run  func(s shape, q *core.Query, flows [][]core.Flow, sink core.Sink) (*core.Report, error)
}{
	{"flinksim", func(s shape, q *core.Query, flows [][]core.Flow, sink core.Sink) (*core.Report, error) {
		cfg := flinksim.Config{Nodes: s.nodes, ProducersPerNode: s.producers, ConsumersPerNode: s.consumers,
			BatchBytes: 1024, QueueDepth: 8, FlushRecords: 64}
		if s.tinyBatch {
			cfg.BatchBytes = 8
		}
		return flinksim.Run(cfg, q, flows, sink)
	}},
	{"uppar", func(s shape, q *core.Query, flows [][]core.Flow, sink core.Sink) (*core.Report, error) {
		cfg := uppar.Config{Nodes: s.nodes, ProducersPerNode: s.producers, ConsumersPerNode: s.consumers,
			Channel: channel.Config{Credits: 4, SlotSize: 2048}, FlushRecords: 64}
		if s.tinyBatch {
			cfg.Channel.SlotSize = 16
		}
		return uppar.Run(cfg, q, flows, sink)
	}},
}

func genFlows(rng *rand.Rand, nodes, producers, recsPerFlow, keyRange int) ([][]core.Flow, []stream.Record) {
	var all []stream.Record
	flows := make([][]core.Flow, nodes)
	for n := 0; n < nodes; n++ {
		flows[n] = make([]core.Flow, producers)
		for p := 0; p < producers; p++ {
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
			flows[n][p] = core.NewColumnarFlow(recs)
		}
	}
	return flows, all
}

func oracleSum(recs []stream.Record, w window.Assigner) map[uint64]map[uint64]int64 {
	out := map[uint64]map[uint64]int64{}
	var wins []uint64
	for i := range recs {
		r := recs[i]
		wins = w.Assign(r.Time, wins[:0])
		for _, win := range wins {
			if out[win] == nil {
				out[win] = map[uint64]int64{}
			}
			out[win][r.Key] += r.V0
		}
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	win, _ := window.NewTumbling(100)
	q := &core.Query{Name: "q", Codec: testCodec, Window: win, Agg: crdt.Sum{}}
	flows := [][]core.Flow{{core.NewColumnarFlow(nil)}, {core.NewColumnarFlow(nil)}}
	small := shape{nodes: 2, producers: 1, consumers: 1}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			if _, err := e.run(shape{}, q, nil, nil); err == nil {
				t.Fatal("empty config accepted")
			}
			if _, err := e.run(small, q, [][]core.Flow{{core.NewColumnarFlow(nil)}}, nil); err == nil {
				t.Fatal("wrong flow shape accepted")
			}
			tiny := small
			tiny.tinyBatch = true
			if _, err := e.run(tiny, q, flows, nil); err == nil {
				t.Fatal("batch region too small for one record accepted")
			}
			if _, err := e.run(small, &core.Query{Codec: testCodec, Window: win}, flows, nil); err == nil {
				t.Fatal("stateless query accepted")
			}
			if _, err := e.run(small, &core.Query{Codec: testCodec, Agg: crdt.Sum{}}, flows, nil); err == nil {
				t.Fatal("query without window accepted")
			}
		})
	}
}

func TestDistributedSumEqualsSequential(t *testing.T) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			flows, all := genFlows(rand.New(rand.NewSource(21)), 3, 2, 400, 29)
			win, _ := window.NewTumbling(500)
			q := &core.Query{Name: "sum", Codec: testCodec, Window: win, Agg: crdt.Sum{}}
			col := &core.Collector{}
			rep, err := e.run(shape{nodes: 3, producers: 2, consumers: 2}, q, flows, col)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Records != int64(len(all)) {
				t.Fatalf("records = %d, want %d", rep.Records, len(all))
			}
			oracle := oracleSum(all, win)
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
					t.Fatalf("window %d: %d keys, want %d", w, len(got[w]), len(keys))
				}
				for k, v := range keys {
					if got[w][k] != v {
						t.Fatalf("window %d key %d: got %d, want %d", w, k, got[w][k], v)
					}
				}
			}
			if rep.NetTxBytes == 0 {
				t.Fatal("no network traffic despite multi-node repartitioning")
			}
		})
	}
}

func TestFilterMapApplied(t *testing.T) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			flows, all := genFlows(rand.New(rand.NewSource(8)), 2, 1, 300, 12)
			win, _ := window.NewTumbling(400)
			q := &core.Query{
				Name: "fm", Codec: testCodec, Window: win, Agg: crdt.Sum{},
				Filter: func(r *stream.Record) bool { return r.V1 == 0 },
				Map:    func(r *stream.Record) { r.V0 *= 3 },
			}
			col := &core.Collector{}
			if _, err := e.run(shape{nodes: 2, producers: 1, consumers: 1}, q, flows, col); err != nil {
				t.Fatal(err)
			}
			kept := make([]stream.Record, 0, len(all))
			for _, r := range all {
				if r.V1 == 0 {
					r.V0 *= 3
					kept = append(kept, r)
				}
			}
			oracle := oracleSum(kept, win)
			rows := col.Aggs()
			for _, r := range rows {
				if oracle[r.Win][r.Key] != r.Value {
					t.Fatalf("win %d key %d: got %d, want %d", r.Win, r.Key, r.Value, oracle[r.Win][r.Key])
				}
			}
			want := 0
			for _, keys := range oracle {
				want += len(keys)
			}
			if len(rows) != want {
				t.Fatalf("rows = %d, want %d", len(rows), want)
			}
		})
	}
}

func TestJoinCardinalities(t *testing.T) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			flows, all := genFlows(rand.New(rand.NewSource(31)), 2, 2, 250, 8)
			win, _ := window.NewTumbling(800)
			side := func(r *stream.Record) uint8 { return uint8(r.V1) }
			q := &core.Query{Name: "join", Codec: testCodec, Window: win, JoinSide: side}
			col := &core.Collector{}
			if _, err := e.run(shape{nodes: 2, producers: 2, consumers: 2}, q, flows, col); err != nil {
				t.Fatal(err)
			}
			type wk struct{ w, k uint64 }
			oracleL, oracleR := map[wk]int{}, map[wk]int{}
			var wins []uint64
			for i := range all {
				r := all[i]
				wins = win.Assign(r.Time, wins[:0])
				for _, w := range wins {
					if r.V1 == 0 {
						oracleL[wk{w, r.Key}]++
					} else {
						oracleR[wk{w, r.Key}]++
					}
				}
			}
			for _, jr := range col.Joins() {
				k := wk{jr.Win, jr.Key}
				if jr.Left != oracleL[k] || jr.Right != oracleR[k] {
					t.Fatalf("join %v: (%d,%d), want (%d,%d)", k, jr.Left, jr.Right, oracleL[k], oracleR[k])
				}
			}
		})
	}
}

func TestQuickShapes(t *testing.T) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			prop := func(seed int64, nn, pp, cc uint8) bool {
				s := shape{nodes: 1 + int(nn%3), producers: 1 + int(pp%2), consumers: 1 + int(cc%2)}
				flows, all := genFlows(rand.New(rand.NewSource(seed)), s.nodes, s.producers, 150, 17)
				win, _ := window.NewTumbling(300)
				q := &core.Query{Name: "quick", Codec: testCodec, Window: win, Agg: crdt.Sum{}}
				col := &core.Collector{}
				if _, err := e.run(s, q, flows, col); err != nil {
					return false
				}
				oracle := oracleSum(all, win)
				rows := col.Aggs()
				total := 0
				for _, keys := range oracle {
					total += len(keys)
				}
				if len(rows) != total {
					return false
				}
				for _, r := range rows {
					if oracle[r.Win][r.Key] != r.Value {
						return false
					}
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
