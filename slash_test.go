package slash_test

import (
	"math/rand"
	"testing"
	"time"

	slash "github.com/slash-stream/slash"
	"github.com/slash-stream/slash/internal/window"
)

// TestQuickstartAPI exercises the public API end to end the way the README
// shows it.
func TestQuickstartAPI(t *testing.T) {
	cluster, err := slash.NewCluster(slash.ClusterConfig{Nodes: 2, ThreadsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Two nodes × two threads of word-count-ish records.
	mkFlow := func(base uint64) slash.Flow {
		recs := make([]slash.Record, 1000)
		for i := range recs {
			recs[i] = slash.Record{
				Key:  base + uint64(i%10),
				Time: int64(i) * 1000, // 1ms apart
				V0:   1,
			}
		}
		return slash.NewSliceFlow(recs)
	}
	flows := [][]slash.Flow{
		{mkFlow(0), mkFlow(5)},
		{mkFlow(0), mkFlow(5)},
	}
	q := slash.NewQuery("wordcount", 16).
		TumblingWindow(250 * time.Millisecond).
		CountPerKey()
	col := &slash.Collector{}
	rep, err := cluster.Run(q, flows, col)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 4000 {
		t.Fatalf("records = %d", rep.Records)
	}
	rows := col.Aggs()
	if len(rows) == 0 {
		t.Fatal("no results")
	}
	total := int64(0)
	for _, r := range rows {
		total += r.Value
	}
	if total != 4000 {
		t.Fatalf("counted %d records in windows, want 4000", total)
	}
}

func TestBuilderValidation(t *testing.T) {
	cluster, _ := slash.NewCluster(slash.ClusterConfig{Nodes: 1, ThreadsPerNode: 1})
	flows := [][]slash.Flow{{slash.NewSliceFlow(nil)}}
	cases := []*slash.Query{
		slash.NewQuery("tiny", 4).TumblingWindow(time.Second).CountPerKey(),
		slash.NewQuery("nowin", 16).CountPerKey(),
		slash.NewQuery("nostate", 16).TumblingWindow(time.Second),
		slash.NewQuery("badwin", 16).TumblingWindow(0).CountPerKey(),
		slash.NewQuery("both", 16).TumblingWindow(time.Second).CountPerKey().
			JoinPerKey(func(*slash.Record) uint8 { return 0 }),
	}
	for i, q := range cases {
		if _, err := cluster.Run(q, flows, nil); err == nil {
			t.Fatalf("case %d: invalid query accepted", i)
		}
	}
}

func TestPublicWorkloads(t *testing.T) {
	// The re-exported YSB workload drives the public engine.
	w := slash.YSBWorkload{Keys: 100, RecordsPerFlow: 2000, Seed: 3}
	cluster, _ := slash.NewCluster(slash.ClusterConfig{Nodes: 2, ThreadsPerNode: 1})
	flows := w.Flows(2, 1)
	q := slash.NewQuery("ysb", 78).
		Filter(func(r *slash.Record) bool { return r.V0 == 0 }).
		TumblingWindowMicros(5000).
		CountPerKey()
	sink := &slash.CountingSink{}
	rep, err := cluster.Run(q, flows, sink)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 4000 {
		t.Fatalf("records = %d", rep.Records)
	}
	if sink.AggRows.Load() == 0 {
		t.Fatal("no aggregate rows")
	}
}

func TestJoinViaPublicAPI(t *testing.T) {
	cluster, _ := slash.NewCluster(slash.ClusterConfig{Nodes: 2, ThreadsPerNode: 1})
	mk := func() slash.Flow {
		recs := make([]slash.Record, 400)
		for i := range recs {
			recs[i] = slash.Record{Key: uint64(i % 5), Time: int64(i) * 100, V1: int64(i % 2)}
		}
		return slash.NewSliceFlow(recs)
	}
	q := slash.NewQuery("join", 32).
		TumblingWindow(20 * time.Millisecond).
		JoinPerKey(func(r *slash.Record) uint8 { return uint8(r.V1) })
	sink := &slash.CountingSink{}
	if _, err := cluster.Run(q, [][]slash.Flow{{mk()}, {mk()}}, sink); err != nil {
		t.Fatal(err)
	}
	if sink.JoinRows.Load() == 0 || sink.Pairs.Load() == 0 {
		t.Fatalf("join produced rows=%d pairs=%d", sink.JoinRows.Load(), sink.Pairs.Load())
	}
}

func TestThrottledCluster(t *testing.T) {
	cluster, err := slash.NewCluster(slash.ClusterConfig{
		Nodes:          2,
		ThreadsPerNode: 1,
		LinkBandwidth:  64 << 20,
		BaseLatency:    5 * time.Microsecond,
		Throttle:       true,
		EpochBytes:     8 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := slash.ROWorkload{Keys: 1000, RecordsPerFlow: 5000, Seed: 1}
	q := slash.NewQuery("ro", 16).TumblingWindowMicros(1 << 40).CountPerKey()
	rep, err := cluster.Run(q, w.Flows(2, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NetTxBytes == 0 {
		t.Fatal("no network traffic")
	}
}

// windowedAggMatchesOracle runs q on a 2-node, 2-thread cluster over seeded
// flows (16 keys, V0 in [-50, 50), 25 µs apart) and requires its rows to
// equal an oracle that assigns every record to windows with a, the
// assigner the query was built with, and folds V0 per (window, key).
func windowedAggMatchesOracle(t *testing.T, q *slash.Query, a window.Assigner, fold func(acc, v int64) int64) {
	t.Helper()
	cluster, err := slash.NewCluster(slash.ClusterConfig{Nodes: 2, ThreadsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	want := map[[2]uint64]int64{}
	flows := make([][]slash.Flow, 2)
	for n := range flows {
		for th := 0; th < 2; th++ {
			recs := make([]slash.Record, 2000)
			for i := range recs {
				r := slash.Record{Key: uint64(rng.Intn(16)), Time: int64(i) * 25, V0: rng.Int63n(100) - 50}
				recs[i] = r
				for _, win := range a.Assign(r.Time, nil) {
					k := [2]uint64{win, r.Key}
					if acc, ok := want[k]; ok {
						want[k] = fold(acc, r.V0)
					} else {
						want[k] = r.V0
					}
				}
			}
			flows[n] = append(flows[n], slash.NewSliceFlow(recs))
		}
	}
	col := &slash.Collector{}
	if _, err := cluster.Run(q, flows, col); err != nil {
		t.Fatal(err)
	}
	got := map[[2]uint64]int64{}
	for _, r := range col.Aggs() {
		k := [2]uint64{r.Win, r.Key}
		if _, dup := got[k]; dup {
			t.Fatalf("window %d key %d emitted twice", r.Win, r.Key)
		}
		got[k] = r.Value
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows, oracle has %d", len(got), len(want))
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			t.Fatalf("window %d key %d: got %d (present %v), oracle %d", k[0], k[1], g, ok, v)
		}
	}
}

// TestSlidingSumViaPublicAPI: SlidingWindow with SumPerKey sums V0 into
// every overlapping window a record falls in.
func TestSlidingSumViaPublicAPI(t *testing.T) {
	q := slash.NewQuery("sliding-sum", 32).
		SlidingWindow(10*time.Millisecond, 4*time.Millisecond).
		SumPerKey()
	a, err := window.NewSliding(10_000, 4_000)
	if err != nil {
		t.Fatal(err)
	}
	windowedAggMatchesOracle(t, q, a, func(acc, v int64) int64 { return acc + v })
}

// TestSessionMinViaPublicAPI: SessionWindow with MinPerKey keeps the least
// V0 per session bucket.
func TestSessionMinViaPublicAPI(t *testing.T) {
	q := slash.NewQuery("session-min", 32).
		SessionWindow(3 * time.Millisecond).
		MinPerKey()
	a, err := window.NewSession(3_000)
	if err != nil {
		t.Fatal(err)
	}
	windowedAggMatchesOracle(t, q, a, func(acc, v int64) int64 { return min(acc, v) })
}
