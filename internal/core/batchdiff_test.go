package core

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/rdma"
	"github.com/slash-stream/slash/internal/recovery"
	"github.com/slash-stream/slash/internal/stream"
	"github.com/slash-stream/slash/internal/window"
)

// Differential tests of the columnar operator loop against the sequential
// oracle (oracleAgg) on every deployment shape: static, window-aligned
// epochs, elastic join, and node restart.

// columnarFlowsOf materializes per-flow record slices into batch-native
// ColumnarFlow sources, so the batch run exercises the native column-copy
// fill rather than the per-record adapter.
func columnarFlowsOf(recs [][]stream.Record, threads int) [][]Flow {
	nodes := len(recs) / threads
	flows := make([][]Flow, nodes)
	for n := 0; n < nodes; n++ {
		flows[n] = make([]Flow, threads)
		for th := 0; th < threads; th++ {
			flows[n][th] = NewColumnarFlow(recs[n*threads+th])
		}
	}
	return flows
}

// TestBatchPathMatchesOracleBothEngines runs a filtered, mapped aggregation
// over BatchFlow sources on both fabric engines. Results must match the
// sequential oracle.
func TestBatchPathMatchesOracleBothEngines(t *testing.T) {
	for _, ec := range []struct {
		name string
		cfg  rdma.Config
	}{
		{"inline", rdma.Config{}},
		{"pipelined", rdma.Config{Throttle: true}},
	} {
		t.Run(ec.name, func(t *testing.T) {
			const nodes, threads, per = 3, 2, 2000
			rng := rand.New(rand.NewSource(77))
			recs, all := genPhase(rng, nodes*threads, per, 48, 0, 4000)
			win, _ := window.NewTumbling(500)
			filter := func(r *stream.Record) bool { return r.V1 == 0 }
			double := func(r *stream.Record) { r.V0 *= 2 }
			cfg := smallConfig(nodes, threads)
			cfg.Fabric = ec.cfg
			col := &Collector{}
			q := &Query{Name: "diff", Codec: testCodec, Window: win, Agg: crdt.Sum{}, Filter: filter, Map: double}
			rep, err := Run(cfg, q, columnarFlowsOf(recs, threads), col)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if rep.Records != int64(len(all)) {
				t.Fatalf("records = %d, want %d", rep.Records, len(all))
			}
			mapped := make([]stream.Record, 0, len(all))
			for _, r := range all {
				if r.V1 == 0 {
					r.V0 *= 2
					mapped = append(mapped, r)
				}
			}
			if !reflect.DeepEqual(aggMap(t, col), oracleAgg(mapped, win, crdt.Sum{}, nil)) {
				t.Fatal("batch-path results diverge from the sequential oracle")
			}
		})
	}
}

// TestBatchPathWindowFlushes puts the window ends mid-epoch (a window holds
// about 500 records per flow, an epoch 320), so epochs end for both reasons:
// the volume bound and the watermark crossing a window end
// (sourceTask.endStep). Each inner window end must cost exactly one flush,
// and results must match the oracle. The band filter drops every record
// within 50 time units of a window end — whole batches around each crossing —
// so there the watermark advances through ObserveTime alone and the flush
// carries nothing but heartbeats.
func TestBatchPathWindowFlushes(t *testing.T) {
	const nodes, threads, per, winSize = 2, 2, 4000, 500
	rng := rand.New(rand.NewSource(101))
	recs, all := genPhase(rng, nodes*threads, per, 48, 0, 8*winSize)
	win, _ := window.NewTumbling(winSize)
	band := func(r *stream.Record) bool { m := r.Time % winSize; return m >= 50 && m < winSize-50 }

	for _, tc := range []struct {
		name   string
		filter func(*stream.Record) bool
	}{
		{"unfiltered", nil},
		{"crossing-batches-dropped", band},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(nodes, threads)
			cfg.EpochBytes = 10 << 10
			cfg.BatchRecords = 16
			col := &Collector{}
			q := &Query{Name: "diff-window", Codec: testCodec, Window: win, Agg: crdt.Sum{}, Filter: tc.filter}
			rep, err := Run(cfg, q, columnarFlowsOf(recs, threads), col)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !reflect.DeepEqual(aggMap(t, col), oracleAgg(all, win, crdt.Sum{}, tc.filter)) {
				t.Fatal("results diverge from the sequential oracle")
			}
			// 8 windows per flow: the 7 inner ends are each crossed once, with
			// volume flushes in between and one finishing flush per flow.
			if want := int64(7 * nodes * threads); rep.WindowFlushes != want {
				t.Fatalf("window-closed flushes = %d, want %d", rep.WindowFlushes, want)
			}
			if rep.Flushes <= rep.WindowFlushes+nodes*threads {
				t.Fatalf("flushes = %d with %d window-closed: no volume flush in the mix", rep.Flushes, rep.WindowFlushes)
			}
		})
	}
}

// TestBatchPathElasticJoinMatchesOracle scales 4 → 8 mid-run: the joiners'
// flows and the cutover placement must not change the window results.
func TestBatchPathElasticJoinMatchesOracle(t *testing.T) {
	const winSize = 500
	win, _ := window.NewTumbling(winSize)
	rng := rand.New(rand.NewSource(83))
	phaseA, allA := genPhase(rng, 4, 250, 64, 0, 5*winSize)
	phaseB, allB := genPhase(rng, 8, 250, 64, 5*winSize, 10*winSize)

	cfg := smallConfig(4, 1)
	cfg.MaxNodes = 8
	gates := make([]*GatedFlow, 4)
	initial := make([][]Flow, 4)
	for i := range gates {
		recs := append(append([]stream.Record(nil), phaseA[i]...), phaseB[i]...)
		gates[i] = NewGatedFlow(recs, 5*winSize)
		initial[i] = []Flow{gates[i]}
	}
	q := &Query{Name: "diff-elastic", Codec: testCodec, Window: win, Agg: crdt.Sum{}}
	col := &Collector{}
	c, err := NewController(cfg, q, initial, col)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	c.Start()
	waitFor(t, "phase A drained", func() bool {
		for _, g := range gates {
			if !g.AtFence(0) {
				return false
			}
		}
		return true
	})
	joiners := make([][]Flow, 4)
	for i := range joiners {
		joiners[i] = []Flow{NewColumnarFlow(phaseB[4+i])}
	}
	ids, err := c.AddNodes(joiners, AutoCutover)
	if err != nil {
		t.Fatalf("AddNodes: %v", err)
	}
	if !reflect.DeepEqual(ids, []int{4, 5, 6, 7}) {
		t.Fatalf("joined ids = %v", ids)
	}
	for _, g := range gates {
		g.Open()
	}
	rep, err := waitReport(t, c)
	if err != nil {
		t.Fatalf("elastic run: %v", err)
	}
	if want := int64(len(allA) + len(allB)); rep.Records != want {
		t.Fatalf("records = %d, want %d", rep.Records, want)
	}
	oracle := oracleAgg(append(append([]stream.Record(nil), allA...), allB...), win, crdt.Sum{}, nil)
	if !reflect.DeepEqual(aggMap(t, col), oracle) {
		t.Fatal("elastic results diverge from the sequential oracle")
	}
}

// TestBatchPathRecoveryMatchesRecordPath kills and restores a node mid-run.
// Recovery replays journaled flush boundaries through the replay plan, which
// must truncate batches at exactly the journaled record counts — so the
// restored results must match the fault-free baseline. The name and the
// "batch" case are kept from when a per-record loop ran beside the batch
// loop; the per-record loop is gone, so the baseline is the reference.
func TestBatchPathRecoveryMatchesRecordPath(t *testing.T) {
	t.Run("batch", testBatchPathRecoveryMatchesBaseline)
}

func testBatchPathRecoveryMatchesBaseline(t *testing.T) {
	const nodes, threads, per = 3, 2, 8000
	rng := rand.New(rand.NewSource(91))
	recs, _ := genPhase(rng, nodes*threads, per, 64, 0, 1000)
	want := baselineAggs(t, "diff-recover", recs, nodes, threads)

	cfg := recoveryConfig(nodes, threads, recovery.NewMemStore())
	col := &Collector{}
	ctrl, err := NewController(cfg, sumQuery("diff-recover"), sliceFlowsOf(recs, threads), col)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	ctrl.Start()
	waitFor(t, "node 1 merge progress", func() bool { return mergedChunks(ctrl, 1) > 40 })
	if err := ctrl.RestartNode(1); err != nil {
		t.Fatalf("RestartNode: %v", err)
	}
	rep, err := waitReport(t, ctrl)
	if err != nil {
		t.Fatalf("run failed after restart: %v", err)
	}
	if got := aggMap(t, col); !reflect.DeepEqual(got, want) {
		t.Fatal("recovered results diverge from fault-free baseline")
	}
	if want := int64(nodes * threads * per); rep.Records != want {
		t.Fatalf("records = %d, want %d (exactly-once accounting)", rep.Records, want)
	}
	if len(rep.Recoveries) != 1 || rep.Recoveries[0].Node != 1 {
		t.Fatalf("recoveries = %+v, want one restart of node 1", rep.Recoveries)
	}
}
