// Package slash is the public API of the Slash stream processing engine — a
// Go reproduction of "Rethinking Stateful Stream Processing with RDMA"
// (SIGMOD 2022). Slash executes stateful streaming queries over a simulated
// rack-scale RDMA cluster without re-partitioning data: executor threads
// eagerly compute partial state into a distributed, log-structured state
// backend, and epoch-based lazy merging over one-sided RDMA writes produces
// exactly the results a sequential execution would.
//
// A minimal query:
//
//	cluster, _ := slash.NewCluster(slash.ClusterConfig{Nodes: 2, ThreadsPerNode: 2})
//	q := slash.NewQuery("wordcount", 16).
//		TumblingWindow(time.Minute).
//		CountPerKey()
//	report, err := cluster.Run(q, flows, sink)
//
// Flows supply records (implement Flow or use SliceFlow); results arrive at
// a Sink (Collector retains rows, CountingSink only counts). The benchmark
// workloads of the paper (YSB, NEXMark, Cluster Monitoring, Read-Only) are
// available as generators, see workloads.go.
package slash

import (
	"fmt"
	"time"

	"github.com/slash-stream/slash/internal/channel"
	"github.com/slash-stream/slash/internal/core"
	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/rdma"
	"github.com/slash-stream/slash/internal/stateq"
	"github.com/slash-stream/slash/internal/stream"
	"github.com/slash-stream/slash/internal/window"
)

// Record is one stream record: an event-time timestamp (microseconds), a
// primary key, and two attribute slots.
type Record = stream.Record

// Watermark is an event-time low watermark in microseconds.
type Watermark = stream.Watermark

// Flow is a per-thread record source; see core.Flow for the contract
// (non-decreasing timestamps within a flow).
type Flow = core.Flow

// SliceFlow replays a pre-generated record slice from columns.
type SliceFlow = core.ColumnarFlow

// NewSliceFlow copies recs into a replayable Flow.
func NewSliceFlow(recs []Record) *SliceFlow { return core.NewColumnarFlow(recs) }

// FuncFlow adapts a generator function to Flow.
type FuncFlow = core.FuncFlow

// Sink receives triggered window results.
type Sink = core.Sink

// Collector is a Sink that retains every emitted row.
type Collector = core.Collector

// CountingSink is a Sink that counts rows without retaining them.
type CountingSink = core.CountingSink

// AggResult and JoinResult are the row types produced by Collector.
type (
	AggResult  = core.AggResult
	JoinResult = core.JoinResult
)

// Report summarizes an execution (throughput, network traffic, SSB
// activity).
type Report = core.Report

// ClusterConfig shapes a simulated Slash deployment.
type ClusterConfig struct {
	// Nodes is the number of simulated cluster nodes (default 2).
	Nodes int
	// ThreadsPerNode is the number of source worker threads per node
	// (default 2); each node additionally runs one service worker for
	// delta merging and window triggering.
	ThreadsPerNode int
	// EpochBytes is the per-thread epoch length of the SSB coherence
	// protocol in ingested bytes (default 1 MiB).
	EpochBytes int64
	// ChunkSize caps one state delta chunk (default 16 KiB).
	ChunkSize int
	// Credits is the RDMA channel pipelining depth c (default 8).
	Credits int
	// LinkBandwidth throttles the simulated fabric to this many bytes/s
	// when Throttle is set; zero leaves transfers unthrottled.
	LinkBandwidth int64
	// BaseLatency is the simulated one-way message latency (with
	// Throttle).
	BaseLatency time.Duration
	// Throttle enables wall-clock pacing of the simulated fabric.
	Throttle bool
	// QueryableState arms the queryable-state plane: every leader publishes
	// its live and recently-sealed window state into versioned snapshot
	// regions, and StateClient readers fetch them over one-sided RDMA READs
	// (docs/STATE_PROTOCOL.md). Requires Start (a Run tears the fabric down
	// before any client could read).
	QueryableState bool
	// StateSlots is the per-node snapshot directory capacity when
	// QueryableState is set (default 16).
	StateSlots int
	// StatePublishBytes throttles live-window republication to once per this
	// many merged delta bytes when QueryableState is set (default 256 KiB).
	StatePublishBytes int
}

// Cluster is a reusable handle for running queries on a deployment shape.
// Each Run builds a fresh simulated fabric, so runs are independent.
type Cluster struct {
	cfg ClusterConfig
}

// NewCluster validates the configuration and returns a cluster handle.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 2
	}
	if cfg.ThreadsPerNode == 0 {
		cfg.ThreadsPerNode = 2
	}
	if cfg.Nodes < 1 || cfg.ThreadsPerNode < 1 {
		return nil, fmt.Errorf("slash: invalid cluster shape %d×%d", cfg.Nodes, cfg.ThreadsPerNode)
	}
	return &Cluster{cfg: cfg}, nil
}

// Nodes returns the configured node count.
func (c *Cluster) Nodes() int { return c.cfg.Nodes }

// ThreadsPerNode returns the configured source threads per node.
func (c *Cluster) ThreadsPerNode() int { return c.cfg.ThreadsPerNode }

// coreConfig lowers the cluster configuration to the engine's.
func (c *Cluster) coreConfig() core.Config {
	cfg := core.Config{
		Nodes:          c.cfg.Nodes,
		ThreadsPerNode: c.cfg.ThreadsPerNode,
		EpochBytes:     c.cfg.EpochBytes,
		ChunkSize:      c.cfg.ChunkSize,
		Channel:        channel.Config{Credits: c.cfg.Credits},
		Fabric: rdma.Config{
			LinkBandwidth: c.cfg.LinkBandwidth,
			BaseLatency:   c.cfg.BaseLatency,
			Throttle:      c.cfg.Throttle,
		},
	}
	if c.cfg.QueryableState {
		cfg.State = &stateq.Options{Slots: c.cfg.StateSlots, PublishBytes: c.cfg.StatePublishBytes}
	}
	return cfg
}

// Run executes the query over flows[node][thread] and streams results into
// sink (nil discards results and only measures).
func (c *Cluster) Run(q *Query, flows [][]Flow, sink Sink) (*Report, error) {
	cq, err := q.build()
	if err != nil {
		return nil, err
	}
	return core.Run(c.coreConfig(), cq, flows, sink)
}

// StateClient reads published window state over one-sided RDMA READs: point
// lookups routed by the partition map, window scans unioned across leaders,
// and top-K over the pre-hashed key column. Obtain one from LiveRun.
type StateClient = stateq.Client

// StateEntry is one (key, finalized value) pair served by a StateClient.
type StateEntry = stateq.Entry

// StateWindowInfo describes one published window snapshot.
type StateWindowInfo = stateq.WindowInfo

// Errors surfaced by StateClient reads.
var (
	ErrStateNotFound    = stateq.ErrNotFound
	ErrStateNoSnapshot  = stateq.ErrNoSnapshot
	ErrStateUnavailable = stateq.ErrUnavailable
)

// LiveRun is a started execution: results stream into the sink while state
// clients query live window state. Wait blocks for completion exactly like
// Run.
type LiveRun struct {
	ctrl *core.Controller
}

// Start launches the query like Run but returns before completion, exposing
// the live deployment. The caller must Wait.
func (c *Cluster) Start(q *Query, flows [][]Flow, sink Sink) (*LiveRun, error) {
	cq, err := q.build()
	if err != nil {
		return nil, err
	}
	ctrl, err := core.NewController(c.coreConfig(), cq, flows, sink)
	if err != nil {
		return nil, err
	}
	ctrl.Start()
	return &LiveRun{ctrl: ctrl}, nil
}

// StateClient creates a reader against the run's queryable-state plane.
// Errors unless the cluster was configured with QueryableState.
func (r *LiveRun) StateClient(name string) (*StateClient, error) {
	return r.ctrl.NewStateClient(name)
}

// Controller exposes the underlying elastic controller (reconfiguration,
// recovery, state registry).
func (r *LiveRun) Controller() *core.Controller { return r.ctrl }

// Wait blocks until the run completes and returns its report.
func (r *LiveRun) Wait() (*Report, error) { return r.ctrl.Wait() }

// Query is a declarative streaming query under construction. Methods
// return the receiver for chaining; errors surface at Run.
type Query struct {
	name     string
	size     int
	filter   func(*Record) bool
	mapFn    func(*Record)
	window   window.Assigner
	winErr   error
	agg      crdt.Aggregate
	joinSide core.SideFunc
	err      error
}

// NewQuery starts a query named name over records of recordSize wire bytes
// (min 16: key and timestamp).
func NewQuery(name string, recordSize int) *Query {
	q := &Query{name: name, size: recordSize}
	if _, err := stream.NewCodec(recordSize); err != nil {
		q.err = err
	}
	return q
}

// Filter keeps only records for which fn returns true.
func (q *Query) Filter(fn func(*Record) bool) *Query {
	q.filter = fn
	return q
}

// Map transforms each record in place (projection).
func (q *Query) Map(fn func(*Record)) *Query {
	q.mapFn = fn
	return q
}

// TumblingWindow groups records into fixed, non-overlapping event-time
// windows of the given duration.
func (q *Query) TumblingWindow(size time.Duration) *Query {
	q.window, q.winErr = window.NewTumbling(size.Microseconds())
	return q
}

// TumblingWindowMicros is TumblingWindow with an explicit microsecond size.
func (q *Query) TumblingWindowMicros(size int64) *Query {
	q.window, q.winErr = window.NewTumbling(size)
	return q
}

// SlidingWindow groups records into overlapping windows of the given size
// advancing by slide.
func (q *Query) SlidingWindow(size, slide time.Duration) *Query {
	q.window, q.winErr = window.NewSliding(size.Microseconds(), slide.Microseconds())
	return q
}

// SessionWindow groups records into gap-separated sessions (sliced
// approximation; see package window).
func (q *Query) SessionWindow(gap time.Duration) *Query {
	q.window, q.winErr = window.NewSession(gap.Microseconds())
	return q
}

// CountPerKey terminates the pipeline with a per-key count aggregation.
func (q *Query) CountPerKey() *Query { q.agg = crdt.Count{}; return q }

// SumPerKey terminates the pipeline with a per-key sum over V0.
func (q *Query) SumPerKey() *Query { q.agg = crdt.Sum{}; return q }

// MinPerKey terminates the pipeline with a per-key minimum of V0.
func (q *Query) MinPerKey() *Query { q.agg = crdt.Min{}; return q }

// MaxPerKey terminates the pipeline with a per-key maximum of V0.
func (q *Query) MaxPerKey() *Query { q.agg = crdt.Max{}; return q }

// AvgPerKey terminates the pipeline with a per-key mean of V0.
func (q *Query) AvgPerKey() *Query { q.agg = crdt.Avg{}; return q }

// JoinPerKey terminates the pipeline with a windowed per-key join; side
// tells which input stream a record belongs to (0 build, 1 probe).
func (q *Query) JoinPerKey(side func(*Record) uint8) *Query {
	q.joinSide = side
	return q
}

// build lowers the builder to the engine query.
func (q *Query) build() (*core.Query, error) {
	if q.err != nil {
		return nil, q.err
	}
	if q.winErr != nil {
		return nil, q.winErr
	}
	cq := &core.Query{
		Name:     q.name,
		Codec:    stream.MustCodec(q.size),
		Filter:   q.filter,
		Map:      q.mapFn,
		Window:   q.window,
		Agg:      q.agg,
		JoinSide: q.joinSide,
	}
	if cq.Window == nil {
		return nil, core.ErrNoWindow
	}
	if cq.Agg == nil && cq.JoinSide == nil {
		return nil, core.ErrNoStateful
	}
	if cq.Agg != nil && cq.JoinSide != nil {
		return nil, core.ErrBothStateful
	}
	return cq, nil
}
