package harness

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/slash-stream/slash/internal/core"
	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/flinksim"
	"github.com/slash-stream/slash/internal/lightsaber"
	"github.com/slash-stream/slash/internal/stream"
	"github.com/slash-stream/slash/internal/uppar"
	"github.com/slash-stream/slash/internal/window"
)

// The cross-system differential suite: every engine in this repository must
// produce byte-identical window results on the same dataset — Slash's lazy
// CRDT merging, UpPar's and Flink's co-partitioned state, and LightSaber's
// single-node late merge are different executions of the same semantics
// (property P2 extended across systems).

var diffCodec = stream.MustCodec(32)

func diffDataset(seed int64, flowsN, perFlow, keyRange int) [][]stream.Record {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]stream.Record, flowsN)
	for f := range out {
		recs := make([]stream.Record, perFlow)
		ts := int64(0)
		for i := range recs {
			ts += rng.Int63n(25)
			recs[i] = stream.Record{
				Key:  uint64(rng.Intn(keyRange)),
				Time: ts,
				V0:   rng.Int63n(200) - 100,
				V1:   int64(rng.Intn(2)),
			}
		}
		out[f] = recs
	}
	return out
}

func sliceFlows(data [][]stream.Record, nodes, threads int) [][]core.Flow {
	flows := make([][]core.Flow, nodes)
	i := 0
	for n := range flows {
		flows[n] = make([]core.Flow, threads)
		for t := range flows[n] {
			flows[n][t] = core.NewColumnarFlow(data[i])
			i++
		}
	}
	return flows
}

func aggMap(col *core.Collector) map[[2]uint64]int64 {
	out := map[[2]uint64]int64{}
	for _, r := range col.Aggs() {
		out[[2]uint64{r.Win, r.Key}] = r.Value
	}
	return out
}

func joinMap(col *core.Collector) map[[2]uint64][2]int {
	out := map[[2]uint64][2]int{}
	for _, r := range col.Joins() {
		out[[2]uint64{r.Win, r.Key}] = [2]int{r.Left, r.Right}
	}
	return out
}

func TestAllSystemsAgreeOnAggregation(t *testing.T) {
	for _, agg := range []crdt.Aggregate{crdt.Sum{}, crdt.Count{}, crdt.Min{}, crdt.Max{}, crdt.Avg{}} {
		agg := agg
		t.Run(agg.Name(), func(t *testing.T) {
			const nodes, threads = 2, 2
			data := diffDataset(17, nodes*threads, 400, 31)
			win, _ := window.NewTumbling(600)
			q := &core.Query{Name: "diff-" + agg.Name(), Codec: diffCodec, Window: win, Agg: agg}

			slashCol := &core.Collector{}
			if _, err := core.Run(core.Config{Nodes: nodes, ThreadsPerNode: threads, EpochBytes: 4 << 10},
				q, sliceFlows(data, nodes, threads), slashCol); err != nil {
				t.Fatalf("slash: %v", err)
			}
			want := aggMap(slashCol)
			if len(want) == 0 {
				t.Fatal("slash produced no rows")
			}

			upCol := &core.Collector{}
			if _, err := uppar.Run(uppar.Config{Nodes: nodes, ProducersPerNode: threads, ConsumersPerNode: 2},
				q, sliceFlows(data, nodes, threads), upCol); err != nil {
				t.Fatalf("uppar: %v", err)
			}
			if got := aggMap(upCol); !reflect.DeepEqual(got, want) {
				t.Fatalf("uppar diverged from slash: %d vs %d rows", len(got), len(want))
			}

			flCol := &core.Collector{}
			if _, err := flinksim.Run(flinksim.Config{Nodes: nodes, ProducersPerNode: threads, ConsumersPerNode: 2, BatchBytes: 2048},
				q, sliceFlows(data, nodes, threads), flCol); err != nil {
				t.Fatalf("flink: %v", err)
			}
			if got := aggMap(flCol); !reflect.DeepEqual(got, want) {
				t.Fatalf("flink diverged from slash: %d vs %d rows", len(got), len(want))
			}

			lsCol := &core.Collector{}
			var all []core.Flow
			for _, d := range data {
				all = append(all, core.NewColumnarFlow(d))
			}
			if _, err := lightsaber.Run(lightsaber.Config{Workers: 3}, q, all, lsCol); err != nil {
				t.Fatalf("lightsaber: %v", err)
			}
			if got := aggMap(lsCol); !reflect.DeepEqual(got, want) {
				t.Fatalf("lightsaber diverged from slash: %d vs %d rows", len(got), len(want))
			}
		})
	}
}

func TestScaleOutSystemsAgreeOnJoin(t *testing.T) {
	const nodes, threads = 2, 2
	data := diffDataset(23, nodes*threads, 300, 12)
	win, _ := window.NewTumbling(900)
	side := func(r *stream.Record) uint8 { return uint8(r.V1) }
	q := &core.Query{Name: "diff-join", Codec: diffCodec, Window: win, JoinSide: side}

	slashCol := &core.Collector{}
	if _, err := core.Run(core.Config{Nodes: nodes, ThreadsPerNode: threads, EpochBytes: 4 << 10},
		q, sliceFlows(data, nodes, threads), slashCol); err != nil {
		t.Fatalf("slash: %v", err)
	}
	want := joinMap(slashCol)
	if len(want) == 0 {
		t.Fatal("slash produced no join rows")
	}

	upCol := &core.Collector{}
	if _, err := uppar.Run(uppar.Config{Nodes: nodes, ProducersPerNode: threads, ConsumersPerNode: 2},
		q, sliceFlows(data, nodes, threads), upCol); err != nil {
		t.Fatalf("uppar: %v", err)
	}
	if got := joinMap(upCol); !reflect.DeepEqual(got, want) {
		t.Fatalf("uppar join diverged: %d vs %d rows", len(got), len(want))
	}

	flCol := &core.Collector{}
	if _, err := flinksim.Run(flinksim.Config{Nodes: nodes, ProducersPerNode: threads, ConsumersPerNode: 2, BatchBytes: 2048},
		q, sliceFlows(data, nodes, threads), flCol); err != nil {
		t.Fatalf("flink: %v", err)
	}
	if got := joinMap(flCol); !reflect.DeepEqual(got, want) {
		t.Fatalf("flink join diverged: %d vs %d rows", len(got), len(want))
	}
}

// scaleOut runs q on the two re-partitioning baselines, each with one
// consumer per node, for the sliding and session differentials.
var scaleOut = []struct {
	name string
	run  func(q *core.Query, flows [][]core.Flow, sink core.Sink) error
}{
	{"uppar", func(q *core.Query, flows [][]core.Flow, sink core.Sink) error {
		_, err := uppar.Run(uppar.Config{Nodes: len(flows), ProducersPerNode: len(flows[0]), ConsumersPerNode: 1}, q, flows, sink)
		return err
	}},
	{"flink", func(q *core.Query, flows [][]core.Flow, sink core.Sink) error {
		_, err := flinksim.Run(flinksim.Config{Nodes: len(flows), ProducersPerNode: len(flows[0]), ConsumersPerNode: 1, BatchBytes: 2048}, q, flows, sink)
		return err
	}},
}

func TestSystemsAgreeUnderSlidingWindows(t *testing.T) {
	const nodes, threads = 2, 1
	data := diffDataset(31, nodes*threads, 300, 9)
	// 400/150: the slide does not divide the size.
	for _, sz := range [][2]int64{{400, 100}, {400, 150}} {
		win, _ := window.NewSliding(sz[0], sz[1])
		q := &core.Query{Name: "diff-slide", Codec: diffCodec, Window: win, Agg: crdt.Sum{}}
		t.Run(fmt.Sprintf("size%d_slide%d", sz[0], sz[1]), func(t *testing.T) {
			slashCol := &core.Collector{}
			if _, err := core.Run(core.Config{Nodes: nodes, ThreadsPerNode: threads, EpochBytes: 2 << 10},
				q, sliceFlows(data, nodes, threads), slashCol); err != nil {
				t.Fatalf("slash: %v", err)
			}
			want := aggMap(slashCol)
			for _, sys := range scaleOut {
				col := &core.Collector{}
				if err := sys.run(q, sliceFlows(data, nodes, threads), col); err != nil {
					t.Fatalf("%s: %v", sys.name, err)
				}
				if !reflect.DeepEqual(aggMap(col), want) {
					t.Fatalf("sliding-window results diverge between slash and %s", sys.name)
				}
			}
		})
	}
}

func TestSystemsAgreeUnderSessionWindows(t *testing.T) {
	const nodes, threads = 2, 1
	data := diffDataset(37, nodes*threads, 300, 9)
	win, _ := window.NewSession(250)
	side := func(r *stream.Record) uint8 { return uint8(r.V1) }
	q := &core.Query{Name: "diff-session", Codec: diffCodec, Window: win, JoinSide: side}

	slashCol := &core.Collector{}
	if _, err := core.Run(core.Config{Nodes: nodes, ThreadsPerNode: threads, EpochBytes: 2 << 10},
		q, sliceFlows(data, nodes, threads), slashCol); err != nil {
		t.Fatalf("slash: %v", err)
	}
	want := joinMap(slashCol)
	for _, sys := range scaleOut {
		col := &core.Collector{}
		if err := sys.run(q, sliceFlows(data, nodes, threads), col); err != nil {
			t.Fatalf("%s: %v", sys.name, err)
		}
		if !reflect.DeepEqual(joinMap(col), want) {
			t.Fatalf("session-window results diverge between slash and %s", sys.name)
		}
	}
}
