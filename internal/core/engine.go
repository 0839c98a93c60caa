package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/slash-stream/slash/internal/channel"
	"github.com/slash-stream/slash/internal/metrics"
	"github.com/slash-stream/slash/internal/rdma"
	"github.com/slash-stream/slash/internal/recovery"
	"github.com/slash-stream/slash/internal/sched"
	"github.com/slash-stream/slash/internal/ssb"
	"github.com/slash-stream/slash/internal/stateq"
)

// Config describes a Slash deployment: a rack-scale cluster simulated in
// process, one executor per node, each with ThreadsPerNode source workers
// plus one service worker that interleaves delta reception, merging, and
// window triggering.
type Config struct {
	// Nodes is the number of executors (one per simulated node).
	Nodes int
	// MaxNodes is the deployment capacity for elastic runs (§7.2, §8):
	// the number of node-id slots the vector clocks and sender tables are
	// sized for. Controller.AddNodes can grow the deployment up to this
	// many distinct node ids over the run's lifetime (ids are never
	// reused). Zero defaults to Nodes — a static deployment.
	MaxNodes int
	// ThreadsPerNode is the number of source worker threads per executor.
	ThreadsPerNode int
	// Fabric configures the simulated RDMA interconnect.
	Fabric rdma.Config
	// Channel configures the n² state-synchronization RDMA channels
	// (§7.2.2 setup phase). SlotSize is derived from ChunkSize when zero.
	// Ignored when Trunk is set.
	Channel channel.Config
	// Trunk, when non-nil, replaces the per-pair channel mesh with the
	// trunk transport: every node attaches Lanes shared queue pairs and
	// shared receive queues, and each directed link rides them as one
	// logical channel — O(n·lanes) QPs and registered memory instead of the
	// per-pair mesh's O(n²). SlotSize is derived from ChunkSize when zero.
	Trunk *channel.TrunkConfig
	// EpochBytes is the per-thread epoch length in ingested bytes
	// (§8.1.1; the paper uses 64 MB cluster-wide).
	EpochBytes int64
	// ChunkSize caps one state delta chunk.
	ChunkSize int
	// BatchRecords is the number of records a source task processes per
	// scheduler step — also the capacity of the columnar record batches the
	// batch path fills. Defaults to 256.
	BatchRecords int
	// Metrics, when non-nil, collects engine- and fabric-level metrics for
	// the run: per-task step latency, merge backlog high-water marks, and —
	// unless Fabric.Metrics is set separately — all verbs/channel counters.
	Metrics *metrics.Registry
	// Recovery, when non-nil, arms the checkpoint and crash-recovery plane:
	// every leader journals epoch-aligned incremental checkpoints to
	// Recovery.Store, the controller keeps per-link replay rings, and a
	// failed node can be fenced, restored, and re-joined mid-run (see
	// Controller.RestartNode). Nil keeps the engine exactly on its
	// fault-free fast path: no journaling, no rings, no extra branches in
	// the source loop.
	Recovery *RecoveryOptions
	// State, when non-nil, arms the queryable-state plane: every leader
	// publishes its live and recently-sealed window state into versioned
	// snapshot regions that reader QPs fetch with one-sided READs (see
	// internal/stateq and docs/STATE_PROTOCOL.md). Nil keeps the merge path
	// free of publication work.
	State *stateq.Options
	// Placement, when non-nil, runs this controller as ONE member of a
	// multi-process deployment: it builds only the nodes Placement.Owned
	// claims, wires every owned<->remote link through Placement.Link (ports
	// pre-built by an external bootstrap, e.g. internal/cluster over the
	// netfab transport), and forwards link-failure reports to
	// Placement.OnLinkDown instead of restarting nodes itself. Config.Nodes
	// stays the CLUSTER-wide node count; membership changes go through the
	// Cluster* methods, driven by the external control plane, and
	// AddNodes/RemoveNodes are rejected.
	Placement *Placement
}

// Placement is a controller's view of a multi-process deployment (see
// Config.Placement). The zero-config in-process engine is the special case
// Placement == nil: every node is owned and links come from the local
// transport.
type Placement struct {
	// Owned reports whether this process hosts node id. Exactly one process
	// of the deployment must own each node.
	Owned func(id int) bool
	// Link returns the locally-available halves of the directed channel
	// src -> dst: the send half when src is owned, the receive half when dst
	// is owned (the other return is nil — it lives in the peer's process).
	// Ports are pre-built by the cluster bootstrap, so this is a lookup, not
	// a bring-up; after a peer restart the bootstrap re-exchanges endpoints
	// and Link returns the rebuilt ports.
	Link func(src, dst int) (channel.SendPort, channel.RecvPort, error)
	// OnLinkDown, when non-nil, receives link-failure reports the local
	// failure manager would otherwise vote on: in a multi-process deployment
	// only the external coordinator sees every process's reports, so the
	// vote moves there. The incarnation stamps let it discard reports about
	// links a completed restart already replaced.
	OnLinkDown func(src, dst, srcInc, dstInc int, err error)
	// Restore leaves the owned nodes unbuilt at NewController: a respawned
	// process restores them from the journal via ClusterRestore once the
	// coordinator hands it the cluster's committed-epoch horizon.
	Restore bool
}

// RecoveryOptions configures the checkpoint/recovery plane.
type RecoveryOptions struct {
	// Store receives every node's journal: incremental checkpoints, window
	// trigger marks, and source-progress records. It must survive node
	// failures (it models cluster storage / a replicated log). Required.
	Store recovery.Store
	// CheckpointCommits is the periodic checkpoint cadence in epoch commits
	// observed by a leader: after this many sender-epoch commits since the
	// last checkpoint, the merge task writes one and lets the controller
	// prune its replay rings. Defaults to 32.
	CheckpointCommits int
	// AutoRestart lets the failure manager restart the voted suspect on its
	// own. When false, link failures still route to the manager but fail the
	// run (operators can only restart via RestartNode before that).
	AutoRestart bool
}

func (o *RecoveryOptions) fill() error {
	if o.Store == nil {
		return errors.New("core: RecoveryOptions.Store is required")
	}
	if o.CheckpointCommits <= 0 {
		o.CheckpointCommits = 32
	}
	return nil
}

func (c *Config) fill() error {
	if c.Nodes < 1 {
		return fmt.Errorf("core: %d nodes", c.Nodes)
	}
	if c.ThreadsPerNode < 1 {
		return fmt.Errorf("core: %d threads per node", c.ThreadsPerNode)
	}
	if c.MaxNodes == 0 {
		c.MaxNodes = c.Nodes
	}
	if c.MaxNodes < c.Nodes {
		return fmt.Errorf("core: capacity %d below %d nodes", c.MaxNodes, c.Nodes)
	}
	if c.ChunkSize == 0 {
		c.ChunkSize = ssb.DefaultChunkSize
	}
	if c.EpochBytes == 0 {
		c.EpochBytes = ssb.DefaultEpochBytes
	}
	if c.BatchRecords == 0 {
		c.BatchRecords = 256
	}
	need := c.ChunkSize + ssb.ChunkHeaderSize + channel.FooterSize
	if c.Channel.SlotSize == 0 {
		c.Channel.SlotSize = need
	}
	if c.Channel.SlotSize < need {
		return fmt.Errorf("core: channel slot %d cannot fit chunk of %d", c.Channel.SlotSize, need)
	}
	if c.Trunk != nil {
		needT := c.ChunkSize + ssb.ChunkHeaderSize + channel.TrunkHeaderSize
		if c.Trunk.SlotSize == 0 {
			c.Trunk.SlotSize = needT
		}
		if c.Trunk.SlotSize < needT {
			return fmt.Errorf("core: trunk slot %d cannot fit chunk of %d", c.Trunk.SlotSize, needT)
		}
	}
	if c.Recovery != nil {
		if err := c.Recovery.fill(); err != nil {
			return err
		}
	}
	if c.Placement != nil {
		if c.Placement.Owned == nil || c.Placement.Link == nil {
			return errors.New("core: Placement needs Owned and Link")
		}
		if c.Trunk != nil {
			return errors.New("core: Placement does not support the trunk transport")
		}
		if c.MaxNodes != c.Nodes {
			return errors.New("core: Placement deployments have a fixed membership (MaxNodes == Nodes)")
		}
	}
	return nil
}

// ChannelSlotSize returns the channel slot size the engine derives for a
// chunk-size configuration (Config.fill's geometry: chunk + SSB header +
// channel footer). The cluster bootstrap sizes its netfab ring regions with
// this before NewController runs, so both sides of a cross-process link agree
// byte for byte with the in-process mesh.
func ChannelSlotSize(chunkSize int) int {
	if chunkSize == 0 {
		chunkSize = ssb.DefaultChunkSize
	}
	return chunkSize + ssb.ChunkHeaderSize + channel.FooterSize
}

// Errors surfaced by the recovery plane.
var (
	// ErrRecovering rejects a reconfiguration while a node restart is in
	// progress: the restart's hold pre-empts the join or leave's flush
	// barrier, since held sources never flush. Callers retry once the
	// restart finished.
	ErrRecovering = errors.New("core: node restart in progress")
	// ErrUnrecoverable marks a failure the recovery plane cannot mask: the
	// replay horizon was exhausted (a ring evicted un-checkpointed chunks),
	// an input flow cannot rewind, the restart budget ran out, or a fenced
	// node's tasks never exited.
	ErrUnrecoverable = errors.New("core: unrecoverable failure")
)

// Report summarizes one query execution.
type Report struct {
	// Query is the query name.
	Query string
	// Nodes and Threads echo the deployment shape.
	Nodes, Threads int
	// Records is the number of ingested records across all flows.
	Records int64
	// Updates is the number of state updates applied.
	Updates int64
	// Flushes is the number of epochs the source threads ended, whatever
	// the cause (EpochBytes reached, window end crossed, end of flow,
	// reconfiguration barrier, recovery replay boundary); WindowFlushes is
	// the share cut early because the thread watermark crossed a window end.
	Flushes, WindowFlushes int64
	// Elapsed is the wall-clock execution time.
	Elapsed time.Duration
	// RecordsPerSec is the end-to-end processing throughput.
	RecordsPerSec float64
	// NetTxBytes is the total bytes pushed through the simulated fabric.
	NetTxBytes int64
	// NetTxMsgs is the number of RDMA messages posted.
	NetTxMsgs int64
	// ChunksMerged and BytesMerged aggregate the leader-side SSB counters.
	ChunksMerged uint64
	BytesMerged  uint64
	// WindowsOutput is the number of windows triggered cluster-wide.
	WindowsOutput uint64
	// ChunksDeduped counts replayed chunks the leaders' epoch-commit
	// trackers discarded as already merged (recovery runs only).
	ChunksDeduped uint64
	// ReplayedChunks sums the ring entries this controller re-delivered to
	// restored nodes across all restarts. In a multi-process deployment the
	// survivors replay, so the count lands in their reports.
	ReplayedChunks int
	// Recoveries lists every node restart the recovery plane completed.
	Recoveries []Recovery
	// Sched aggregates scheduler counters across all workers.
	Sched sched.WorkerStats
}

// Run executes query q over the given per-node, per-thread flows on a fresh
// simulated cluster and reports execution statistics. flows must be
// [Nodes][ThreadsPerNode]. Results stream into sink; pass nil to discard.
//
// Run is the static special case of the elastic deployment: it builds a
// Controller over the initial membership, starts it, and waits. Use
// NewController directly to reconfigure mid-run (§7.2, §8).
func Run(cfg Config, q *Query, flows [][]Flow, sink Sink) (*Report, error) {
	c, err := NewController(cfg, q, flows, sink)
	if err != nil {
		return nil, err
	}
	c.Start()
	return c.Wait()
}

// runState carries cross-task execution state: first error wins and stops
// the pool so no task spins forever after a failure.
type runState struct {
	pool   *sched.Pool
	sink   Sink
	onFail func()
	// barrier is the source barrier in force, nil while sources run
	// freely: a join or leave's flush barrier, or a restart's hold.
	barrier atomic.Pointer[barrier]
	// retryGen counts released restart holds. A source task that parks on a
	// failed flush records the generation it saw and retries the flush once
	// the generation advanced (the failed link was rebuilt by then).
	retryGen atomic.Uint64
	// fenced marks nodes the recovery plane is tearing down; their tasks
	// exit at the next step instead of touching the dying mesh. Nil when
	// recovery is off (never fenced).
	fenced []atomic.Bool
	// failed closes with the first failure, so waits inside the recovery
	// plane end as soon as the run died.
	failed  chan struct{}
	errOnce sync.Once
	errVal  atomic.Value
}

func newRunState(pool *sched.Pool, sink Sink) *runState {
	return &runState{pool: pool, sink: sink, failed: make(chan struct{})}
}

// isFenced reports whether node's tasks must exit for a restart.
func (r *runState) isFenced(node int) bool {
	return r.fenced != nil && r.fenced[node].Load()
}

func (r *runState) fail(err error) {
	r.errOnce.Do(func() {
		r.errVal.Store(err)
		close(r.failed)
		r.pool.Stop()
		if r.onFail != nil {
			r.onFail()
		}
	})
}

func (r *runState) err() error {
	if v := r.errVal.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// FailedQP extracts the fabric-level identity of the queue pair whose death
// caused err, when there is one. Run wraps channel failures with the logical
// link (node i -> node j); the QP id underneath pins down the exact endpoint
// ("node0->node1#3") and the work-completion status that killed it, which
// chaos harnesses and operators use to assert *which* link died.
func FailedQP(err error) (*rdma.QPFailure, bool) {
	var qf *rdma.QPFailure
	if errors.As(err, &qf) {
		return qf, true
	}
	return nil, false
}
