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

// Differential tests of the columnar batch path against the legacy per-record
// loop (Config.RecordPath), extending the PR 4/PR 5 differential harnesses:
// the two operator loops share every boundary (flush points, gate fences,
// replay-plan truncation), so their window results — and the fragment bytes
// that produce them — must be identical on every deployment shape.

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

// TestBatchPathMatchesRecordPathBothEngines runs the same filtered, mapped
// aggregation over BatchFlow sources with the batch loop and over plain
// flows with the per-record loop, on both fabric engines. Results must be
// identical to each other and to the sequential oracle.
func TestBatchPathMatchesRecordPathBothEngines(t *testing.T) {
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
			mkQuery := func() *Query {
				return &Query{Name: "diff", Codec: testCodec, Window: win, Agg: crdt.Sum{}, Filter: filter, Map: double}
			}
			run := func(recordPath bool, flows [][]Flow) (map[uint64]map[uint64]int64, *Report) {
				cfg := smallConfig(nodes, threads)
				cfg.Fabric = ec.cfg
				cfg.RecordPath = recordPath
				col := &Collector{}
				rep, err := Run(cfg, mkQuery(), flows, col)
				if err != nil {
					t.Fatalf("run(recordPath=%v): %v", recordPath, err)
				}
				return aggMap(t, col), rep
			}
			batchAggs, batchRep := run(false, columnarFlowsOf(recs, threads))
			recAggs, recRep := run(true, sliceFlowsOf(recs, threads))
			if !reflect.DeepEqual(batchAggs, recAggs) {
				t.Fatal("batch-path window results diverge from the per-record path")
			}
			if batchRep.Records != recRep.Records || batchRep.Records != int64(len(all)) {
				t.Fatalf("records: batch=%d record=%d want=%d", batchRep.Records, recRep.Records, len(all))
			}
			// Same flush boundaries and fragment bytes ⇒ the same chunks merge.
			if batchRep.ChunksMerged != recRep.ChunksMerged {
				t.Fatalf("chunks merged: batch=%d record=%d (flush boundaries diverged)", batchRep.ChunksMerged, recRep.ChunksMerged)
			}
			mapped := make([]stream.Record, 0, len(all))
			for _, r := range all {
				if r.V1 == 0 {
					r.V0 *= 2
					mapped = append(mapped, r)
				}
			}
			oracle := oracleAgg(mapped, win, crdt.Sum{}, nil)
			if !reflect.DeepEqual(batchAggs, oracle) {
				t.Fatal("batch-path results diverge from the sequential oracle")
			}
		})
	}
}

// TestBatchPathWindowFlushesMatchRecordPath puts the window ends mid-epoch (a
// window holds about 500 records per flow, an epoch 320), so epochs end for
// both reasons: the volume bound and the watermark crossing a window end.
// Both loops share that decision
// (sourceTask.endStep): they must take the same number of flushes, for the
// same causes, and merge the same chunks. The band filter drops every record
// within 50 time units of a window end — whole batches around each crossing —
// so there the watermark advances through ObserveTime alone and the flush
// carries nothing but heartbeats.
func TestBatchPathWindowFlushesMatchRecordPath(t *testing.T) {
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
			run := func(recordPath bool, flows [][]Flow) (map[uint64]map[uint64]int64, *Report) {
				cfg := smallConfig(nodes, threads)
				cfg.EpochBytes = 10 << 10
				cfg.BatchRecords = 16
				cfg.RecordPath = recordPath
				col := &Collector{}
				q := &Query{Name: "diff-window", Codec: testCodec, Window: win, Agg: crdt.Sum{}, Filter: tc.filter}
				rep, err := Run(cfg, q, flows, col)
				if err != nil {
					t.Fatalf("run(recordPath=%v): %v", recordPath, err)
				}
				return aggMap(t, col), rep
			}
			batchAggs, batchRep := run(false, columnarFlowsOf(recs, threads))
			recAggs, recRep := run(true, sliceFlowsOf(recs, threads))
			if !reflect.DeepEqual(batchAggs, recAggs) {
				t.Fatal("batch-path window results diverge from the per-record path")
			}
			if !reflect.DeepEqual(batchAggs, oracleAgg(all, win, crdt.Sum{}, tc.filter)) {
				t.Fatal("results diverge from the sequential oracle")
			}
			if batchRep.Flushes != recRep.Flushes || batchRep.WindowFlushes != recRep.WindowFlushes {
				t.Fatalf("flushes (window-closed): batch=%d (%d) record=%d (%d)",
					batchRep.Flushes, batchRep.WindowFlushes, recRep.Flushes, recRep.WindowFlushes)
			}
			if batchRep.ChunksMerged != recRep.ChunksMerged {
				t.Fatalf("chunks merged: batch=%d record=%d (flush boundaries diverged)", batchRep.ChunksMerged, recRep.ChunksMerged)
			}
			// 8 windows per flow: the 7 inner ends are each crossed once, with
			// volume flushes in between and one finishing flush per flow.
			if want := int64(7 * nodes * threads); batchRep.WindowFlushes != want {
				t.Fatalf("window-closed flushes = %d, want %d", batchRep.WindowFlushes, want)
			}
			if batchRep.Flushes <= batchRep.WindowFlushes+nodes*threads {
				t.Fatalf("flushes = %d with %d window-closed: no volume flush in the mix", batchRep.Flushes, batchRep.WindowFlushes)
			}
		})
	}
}

// TestBatchPathElasticJoinMatchesRecordPath scales 4 → 8 mid-run on both
// operator loops: the joiners' flows, the cutover placement, and the window
// results must not depend on which loop consumed the records.
func TestBatchPathElasticJoinMatchesRecordPath(t *testing.T) {
	const winSize = 500
	win, _ := window.NewTumbling(winSize)
	rng := rand.New(rand.NewSource(83))
	phaseA, allA := genPhase(rng, 4, 250, 64, 0, 5*winSize)
	phaseB, allB := genPhase(rng, 8, 250, 64, 5*winSize, 10*winSize)

	run := func(recordPath bool) map[uint64]map[uint64]int64 {
		cfg := smallConfig(4, 1)
		cfg.MaxNodes = 8
		cfg.RecordPath = recordPath
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
			t.Fatalf("NewController(recordPath=%v): %v", recordPath, err)
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
			t.Fatalf("AddNodes(recordPath=%v): %v", recordPath, err)
		}
		if !reflect.DeepEqual(ids, []int{4, 5, 6, 7}) {
			t.Fatalf("joined ids = %v", ids)
		}
		for _, g := range gates {
			g.Open()
		}
		rep, err := waitReport(t, c)
		if err != nil {
			t.Fatalf("elastic run(recordPath=%v): %v", recordPath, err)
		}
		if want := int64(len(allA) + len(allB)); rep.Records != want {
			t.Fatalf("records = %d, want %d", rep.Records, want)
		}
		return aggMap(t, col)
	}

	batchAggs := run(false)
	recAggs := run(true)
	if !reflect.DeepEqual(batchAggs, recAggs) {
		t.Fatal("elastic batch-path results diverge from the per-record path")
	}
	oracle := oracleAgg(append(append([]stream.Record(nil), allA...), allB...), win, crdt.Sum{}, nil)
	if !reflect.DeepEqual(batchAggs, oracle) {
		t.Fatal("elastic results diverge from the sequential oracle")
	}
}

// TestBatchPathRecoveryMatchesRecordPath kills and restores a node mid-run on
// both operator loops. Recovery replays journaled flush boundaries through
// the replay plan, which must truncate batches at exactly the journaled
// record counts — so the restored results must match the fault-free baseline
// regardless of loop.
func TestBatchPathRecoveryMatchesRecordPath(t *testing.T) {
	const nodes, threads, per = 3, 2, 8000
	rng := rand.New(rand.NewSource(91))
	recs, _ := genPhase(rng, nodes*threads, per, 64, 0, 1000)
	want := baselineAggs(t, "diff-recover", recs, nodes, threads)

	for _, tc := range []struct {
		name       string
		recordPath bool
	}{
		{"batch", false},
		{"record", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := recoveryConfig(nodes, threads, recovery.NewMemStore())
			cfg.RecordPath = tc.recordPath
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
		})
	}
}
