package core

import (
	"math/rand"
	"testing"
	"time"

	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/rdma"
	"github.com/slash-stream/slash/internal/stream"
	"github.com/slash-stream/slash/internal/window"
)

// Additional engine coverage: every aggregate kind end to end, session
// windows, throttled fabrics, tiny channel slots forcing chunk splits, and
// degenerate deployments.

func TestAllAggregatesEndToEnd(t *testing.T) {
	for _, agg := range []crdt.Aggregate{crdt.Min{}, crdt.Max{}, crdt.Avg{}} {
		agg := agg
		t.Run(agg.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			flows, all := genFlows(rng, 2, 2, 300, 13)
			win, _ := window.NewTumbling(400)
			q := &Query{Name: agg.Name(), Codec: testCodec, Window: win, Agg: agg}
			col := &Collector{}
			if _, err := Run(smallConfig(2, 2), q, flows, col); err != nil {
				t.Fatal(err)
			}
			checkAggAgainstOracle(t, col, oracleAgg(all, win, agg, nil))
		})
	}
}

func TestSessionWindowAggregation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	flows, all := genFlows(rng, 2, 1, 400, 9)
	win, _ := window.NewSession(150)
	q := &Query{Name: "session", Codec: testCodec, Window: win, Agg: crdt.Count{}}
	col := &Collector{}
	if _, err := Run(smallConfig(2, 1), q, flows, col); err != nil {
		t.Fatal(err)
	}
	checkAggAgainstOracle(t, col, oracleAgg(all, win, crdt.Count{}, nil))
}

func TestThrottledFabricPreservesResults(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	flows, all := genFlows(rng, 2, 1, 400, 11)
	win, _ := window.NewTumbling(500)
	q := &Query{Name: "throttled", Codec: testCodec, Window: win, Agg: crdt.Sum{}}
	cfg := smallConfig(2, 1)
	cfg.Fabric = rdma.Config{
		LinkBandwidth: 8 << 20,
		BaseLatency:   20 * time.Microsecond,
		Throttle:      true,
	}
	col := &Collector{}
	rep, err := Run(cfg, q, flows, col)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NetTxBytes == 0 {
		t.Fatal("throttled run moved no bytes")
	}
	checkAggAgainstOracle(t, col, oracleAgg(all, win, crdt.Sum{}, nil))
}

func TestTinyChunksForceSplits(t *testing.T) {
	// Chunk payloads barely larger than one log entry split every delta
	// into many chunks; results must be unchanged.
	rng := rand.New(rand.NewSource(5))
	flows, all := genFlows(rng, 2, 2, 300, 40)
	win, _ := window.NewTumbling(600)
	q := &Query{Name: "tiny", Codec: testCodec, Window: win, Agg: crdt.Sum{}}
	cfg := smallConfig(2, 2)
	cfg.ChunkSize = 32 // a handful of varint entries per chunk
	cfg.EpochBytes = 2 << 10
	col := &Collector{}
	rep, err := Run(cfg, q, flows, col)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChunksMerged < 50 {
		t.Fatalf("only %d chunks merged — splitting not exercised", rep.ChunksMerged)
	}
	checkAggAgainstOracle(t, col, oracleAgg(all, win, crdt.Sum{}, nil))
}

func TestSingleNodeSingleThread(t *testing.T) {
	// The degenerate 1×1 deployment: pure loopback, no channels at all.
	rng := rand.New(rand.NewSource(8))
	flows, all := genFlows(rng, 1, 1, 500, 7)
	win, _ := window.NewTumbling(300)
	q := &Query{Name: "solo", Codec: testCodec, Window: win, Agg: crdt.Sum{}}
	col := &Collector{}
	rep, err := Run(smallConfig(1, 1), q, flows, col)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NetTxBytes != 0 {
		t.Fatalf("1×1 deployment sent %d bytes over the fabric", rep.NetTxBytes)
	}
	checkAggAgainstOracle(t, col, oracleAgg(all, win, crdt.Sum{}, nil))
}

func TestManyWindowsInFlight(t *testing.T) {
	// A small window size keeps dozens of windows in flight concurrently,
	// stressing trigger bookkeeping and table pooling.
	rng := rand.New(rand.NewSource(10))
	flows, all := genFlows(rng, 2, 2, 600, 10)
	win, _ := window.NewTumbling(50)
	q := &Query{Name: "many", Codec: testCodec, Window: win, Agg: crdt.Count{}}
	col := &Collector{}
	rep, err := Run(smallConfig(2, 2), q, flows, col)
	if err != nil {
		t.Fatal(err)
	}
	oracle := oracleAgg(all, win, crdt.Count{}, nil)
	if len(oracle) < 20 {
		t.Fatalf("test setup produced only %d windows", len(oracle))
	}
	checkAggAgainstOracle(t, col, oracle)
	if rep.WindowsOutput == 0 {
		t.Fatal("no window triggers recorded")
	}
}

func TestReportFieldsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	flows, _ := genFlows(rng, 2, 1, 300, 9)
	win, _ := window.NewTumbling(400)
	q := &Query{Name: "report", Codec: testCodec, Window: win, Agg: crdt.Sum{}}
	rep, err := Run(smallConfig(2, 1), q, flows, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Query != "report" || rep.Nodes != 2 || rep.Threads != 1 {
		t.Fatalf("identity fields: %+v", rep)
	}
	if rep.Records != 600 || rep.Updates == 0 {
		t.Fatalf("volume fields: records=%d updates=%d", rep.Records, rep.Updates)
	}
	if rep.Elapsed <= 0 || rep.RecordsPerSec <= 0 {
		t.Fatalf("timing fields: %v %f", rep.Elapsed, rep.RecordsPerSec)
	}
	if rep.Sched.Steps == 0 {
		t.Fatal("scheduler stats missing")
	}
	if rep.ChunksMerged == 0 || rep.BytesMerged == 0 {
		t.Fatalf("SSB stats missing: %+v", rep)
	}
}

func TestMonotonicTimestampsNotRequiredAcrossFlows(t *testing.T) {
	// Flows may be mutually unaligned in event time; only intra-flow
	// monotonicity matters. One flow runs far ahead of the other.
	early := make([]stream.Record, 200)
	late := make([]stream.Record, 200)
	for i := range early {
		early[i] = stream.Record{Key: uint64(i % 5), Time: int64(i), V0: 1}
		late[i] = stream.Record{Key: uint64(i % 5), Time: int64(i) + 100_000, V0: 1}
	}
	flows := [][]Flow{{NewColumnarFlow(early)}, {NewColumnarFlow(late)}}
	win, _ := window.NewTumbling(100)
	q := &Query{Name: "skewed-time", Codec: testCodec, Window: win, Agg: crdt.Count{}}
	col := &Collector{}
	if _, err := Run(smallConfig(2, 1), q, flows, col); err != nil {
		t.Fatal(err)
	}
	all := append(append([]stream.Record{}, early...), late...)
	checkAggAgainstOracle(t, col, oracleAgg(all, win, crdt.Count{}, nil))
}
