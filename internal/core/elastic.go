package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/slash-stream/slash/internal/channel"
	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/metrics"
	"github.com/slash-stream/slash/internal/rdma"
	"github.com/slash-stream/slash/internal/sched"
	"github.com/slash-stream/slash/internal/ssb"
	"github.com/slash-stream/slash/internal/stateq"
	"github.com/slash-stream/slash/internal/stream"
	"github.com/slash-stream/slash/internal/window"
)

// Errors surfaced by reconfiguration.
var (
	// ErrCapacity rejects a join that would exceed Config.MaxNodes. Node ids
	// are never reused within a run — every joined node consumes one of the
	// MaxNodes vector-clock and sender-table slots for the run's lifetime.
	ErrCapacity = errors.New("core: deployment capacity exhausted")
	// ErrCutoverInPast rejects a reconfiguration whose cutover window some
	// leader already triggered or holds merged state for: re-routing such a
	// window would split its state across two owners (§7.2 epoch-aligned
	// activation — the barrier must precede the cutover everywhere).
	ErrCutoverInPast = errors.New("core: reconfiguration cutover window is not in the future")
	// ErrSourcesActive rejects removing a node whose source threads are
	// still ingesting. Scale-in is drain-then-leave: the node's flows finish
	// (their +inf watermarks release every window they fed), then the leader
	// drains its remaining windows through ordinary late merging.
	ErrSourcesActive = errors.New("core: cannot remove a node with active source threads")
	// ErrNotRunning rejects reconfiguring a deployment that has not started
	// or has already been waited on.
	ErrNotRunning = errors.New("core: deployment is not running")
	// ErrPlacementMembership rejects AddNodes/RemoveNodes on a placement
	// (multi-process) member: each process owns a fixed slice of the
	// deployment, and membership changes run through the external control
	// plane's Cluster* sequence instead (see internal/cluster).
	ErrPlacementMembership = errors.New("core: placement member has a fixed membership")
)

// AutoCutover, passed as the cutover window of AddNodes or RemoveNodes,
// selects the earliest window no source thread has ingested state into —
// resolved at the flush barrier, once every thread flushed and answered. It
// is the tightest cutover the epoch-aligned activation rule permits, chosen
// without coordinating with the input flows; the resolved window is reported
// in the Reconfig record.
const AutoCutover = ^uint64(0)

// Reconfig records one membership change for reporting: the harness's
// elastic experiment and the metrics registry both read these.
type Reconfig struct {
	// Kind is "add" or "remove".
	Kind string
	// Gen is the partition-map generation the change installed.
	Gen uint64
	// Cutover is the first window id routed under the new generation.
	Cutover uint64
	// Nodes lists the node ids that joined or left.
	Nodes []int
	// Duration is barrier-to-active for a join, and install-to-drained for
	// a leave (the last removed leader covering its final window).
	Duration time.Duration
	// InflightChunks is the number of delta chunks that were in flight in
	// the channel mesh at the install barrier — the state the late-merge
	// path absorbed instead of a migration (§7.2/§8: zero state copy).
	InflightChunks int
}

// retireBatch tracks one in-progress RemoveNodes call until every removed
// leader has drained and detached.
type retireBatch struct {
	rec       *Reconfig
	remaining int
	start     time.Time
}

// Controller owns an elastic Slash deployment: the paper's claim that an
// RDMA-resident state backend makes reconfiguration cheap (§7.2, §8) made
// operational. AddNodes registers a joining node's memory regions, brings up
// its row and column of the channel mesh, and activates it at an
// epoch-aligned barrier — every source flushes its fragments under the old
// partition-map generation, then a new generation with a future cutover
// window is installed, so no delta is ever double-counted. RemoveNodes
// installs a generation without the leaving nodes and lets their leaders
// drain pre-cutover windows through ordinary late merging — zero state is
// copied in either direction.
//
// The zero-migration property comes from window-aligned generations
// (ssb.PartitionMap): a (window, key) pair's owner never changes once its
// governing generation is installed, so scale-out and scale-in redistribute
// only future windows.
type Controller struct {
	cfg  Config
	q    *Query
	sink Sink
	reg  *metrics.Registry
	agg  crdt.Aggregate

	fabric    *rdma.Fabric
	transport meshTransport
	pmap      *ssb.PartitionMap
	pool      *sched.Pool
	run       *runState
	stateReg  *stateq.Registry // nil unless Config.State is set

	// link brings up (or, in placement mode, looks up) the locally-held
	// halves of one directed link: Placement.Link or transport.Link.
	link func(src, dst int) (channel.SendPort, channel.RecvPort, error)

	// reconfigMu serializes AddNodes/RemoveNodes end to end: each call is
	// one barrier, one generation. restartMu serializes restarts, so at most
	// one hold is raised at a time; it is taken before reconfigMu.
	reconfigMu sync.Mutex
	restartMu  sync.Mutex

	mu        sync.Mutex
	nics      []*rdma.NIC
	producers [][]channel.SendPort // [src][dst]
	senders   [][]*chanSender      // [src][dst]
	consumers [][]consEntry        // by receiving node, for teardown and recovery unwiring
	backends  []*ssb.Backend
	sources   [][]*sourceTask // by node
	merges    []*mergeTask    // by node
	flows     [][]Flow        // by node, retained for recovery replay
	live      []int           // nodes whose mesh row/column is up (incl. draining leavers)
	used      int             // node ids handed out; ids are never reused
	started   bool
	startAt   time.Time
	reconfigs []*Reconfig
	retiring  map[int]*retireBatch

	// Recovery plane (rings/journals/mgr nil when Config.Recovery is nil).
	nodeInc    []int // per-node incarnation; bumped by each restart
	journals   []*nodeJournal
	rings      [][]*replayRing // [src][dst]
	mgr        *recoveryMgr
	recoveries []Recovery
	restarts   int
	replayed   int // ring entries this controller re-delivered (Report.ReplayedChunks)
	// Counters of NICs that died with a restarted incarnation, folded into
	// the final Report (their live counters vanish with RemoveNIC).
	deadTx, deadMsgs int64

	records atomic.Int64
	updates atomic.Int64
	flushes flushCounts

	mSourceStep, mMergeStep *metrics.Histogram
	mGen, mInflight         *metrics.Gauge
	mCkpts, mReplayed       *metrics.Counter
	mRecDur                 *metrics.Histogram
}

// consEntry tags a consumer endpoint with the node id it receives from, so
// recovery can unwire exactly the dead node's links.
type consEntry struct {
	src  int
	cons channel.RecvPort
}

// NewController builds a deployment of cfg.Nodes executors (capacity
// cfg.MaxNodes) without starting it. flows must be [Nodes][ThreadsPerNode],
// the initial nodes' input partitions; joining nodes bring their own flows.
func NewController(cfg Config, q *Query, flows [][]Flow, sink Sink) (*Controller, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if err := q.validate(); err != nil {
		return nil, err
	}
	if len(flows) != cfg.Nodes {
		return nil, fmt.Errorf("core: %d flow groups for %d nodes", len(flows), cfg.Nodes)
	}
	for i, fs := range flows {
		if len(fs) != cfg.ThreadsPerNode {
			return nil, fmt.Errorf("core: node %d has %d flows, want %d", i, len(fs), cfg.ThreadsPerNode)
		}
	}
	if sink == nil {
		sink = &CountingSink{}
	}
	if cfg.Metrics != nil && cfg.Fabric.Metrics == nil {
		cfg.Fabric.Metrics = cfg.Metrics
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = cfg.Fabric.Metrics
	}

	var agg crdt.Aggregate
	if !q.holistic() {
		agg = q.Agg
	}
	c := &Controller{
		cfg:       cfg,
		q:         q,
		sink:      sink,
		reg:       reg,
		agg:       agg,
		fabric:    rdma.NewFabric(cfg.Fabric),
		pmap:      ssb.StaticPartitionMap(cfg.Nodes),
		pool:      sched.NewPool(0),
		nics:      make([]*rdma.NIC, cfg.MaxNodes),
		producers: make([][]channel.SendPort, cfg.MaxNodes),
		senders:   make([][]*chanSender, cfg.MaxNodes),
		consumers: make([][]consEntry, cfg.MaxNodes),
		backends:  make([]*ssb.Backend, cfg.MaxNodes),
		sources:   make([][]*sourceTask, cfg.MaxNodes),
		merges:    make([]*mergeTask, cfg.MaxNodes),
		flows:     make([][]Flow, cfg.MaxNodes),
		nodeInc:   make([]int, cfg.MaxNodes),
		retiring:  map[int]*retireBatch{},
	}
	for i := range c.producers {
		c.producers[i] = make([]channel.SendPort, cfg.MaxNodes)
		c.senders[i] = make([]*chanSender, cfg.MaxNodes)
	}
	if cfg.Trunk != nil {
		c.transport = newTrunkTransport(c.fabric, *cfg.Trunk, cfg.MaxNodes)
	} else {
		c.transport = newPairTransport(c.fabric, cfg.Channel, cfg.MaxNodes)
	}
	c.link = c.transport.Link
	if cfg.Placement != nil {
		c.link = cfg.Placement.Link
	}
	if cfg.State != nil {
		cfg.State.Fill()
		c.stateReg = stateq.NewRegistry(c.fabric, c.pmap)
	}
	c.run = newRunState(c.pool, sink)
	// On failure, closing the producers unblocks any sender spinning for
	// credit from a consumer that will never poll again.
	c.run.onFail = func() { c.closeProducers() }
	if cfg.Recovery != nil {
		c.run.fenced = make([]atomic.Bool, cfg.MaxNodes)
		c.journals = make([]*nodeJournal, cfg.MaxNodes)
		c.rings = make([][]*replayRing, cfg.MaxNodes)
		for i := range c.journals {
			c.journals[i] = &nodeJournal{store: cfg.Recovery.Store, node: i}
			c.rings[i] = make([]*replayRing, cfg.MaxNodes)
			for j := range c.rings[i] {
				c.rings[i][j] = newReplayRing(replayRingEntries)
			}
		}
		c.mgr = newRecoveryMgr(c)
	}
	if reg != nil {
		for cause, name := range flushCauseNames {
			c.flushes.m[cause] = reg.Counter(fmt.Sprintf(`core_epoch_flush_total{cause=%q}`, name))
		}
		c.mSourceStep = reg.Histogram(`core_step_ns{task="source"}`)
		c.mMergeStep = reg.Histogram(`core_step_ns{task="merge"}`)
		c.mGen = reg.Gauge("core_generation")
		c.mInflight = reg.Gauge("core_reconfig_inflight_chunks")
		if cfg.Recovery != nil {
			c.mCkpts = reg.Counter("recovery_checkpoints_total")
			c.mReplayed = reg.Counter("recovery_replayed_chunks_total")
			// Unitless registry; observed in nanoseconds like every engine
			// histogram, the conventional _seconds name notwithstanding.
			c.mRecDur = reg.Histogram("recovery_duration_seconds")
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if pl := cfg.Placement; pl != nil {
		// Placement mode: remote nodes' mesh halves came up the moment the
		// external bootstrap exchanged endpoints, so they are live from
		// birth; only owned nodes get local backends and tasks. A respawned
		// process (Restore) leaves its owned nodes unbuilt until the
		// coordinator drives ClusterRestore with the cluster's committed
		// horizon.
		for i := 0; i < cfg.Nodes; i++ {
			if !pl.Owned(i) {
				c.live = append(c.live, i)
			}
		}
		for i := 0; i < cfg.Nodes; i++ {
			if !pl.Owned(i) {
				continue
			}
			c.flows[i] = flows[i]
			if pl.Restore {
				continue
			}
			if err := c.buildNode(i, flows[i], nil); err != nil {
				return nil, err
			}
		}
	} else {
		for i := 0; i < cfg.Nodes; i++ {
			if err := c.buildNode(i, flows[i], nil); err != nil {
				return nil, err
			}
		}
	}
	c.used = cfg.Nodes
	// Activate every initial node's clock entries on every backend before
	// the first record flows (§5.1 property P1: an unactivated live node
	// could let a window trigger without its data).
	for _, be := range c.backends[:cfg.Nodes] {
		if be == nil {
			continue // placement mode: remote or not-yet-restored node
		}
		for _, n := range c.live {
			be.ActivateNode(n)
		}
		be.SetPeers(c.live)
	}
	return c, nil
}

// buildNode brings up node id's row and column of the channel mesh, its
// backend, and its tasks, and launches them (§7.2.2 setup phase, performed
// online for joiners: NIC registration = MR registration, channel.New = QP
// bring-up). A restart passes restore, which replays the node's journal into
// the fresh backend and returns the sources' replay plans before any task
// exists (see Controller.restore). Callers hold c.mu.
func (c *Controller) buildNode(id int, nodeFlows []Flow, restore func(*ssb.Backend) ([]*threadRestore, error)) error {
	c.flows[id] = nodeFlows
	be, myIn, err := c.buildMesh(id)
	if err != nil {
		return err
	}
	c.activateNode(id, be)
	var plans []*threadRestore
	if restore != nil {
		if plans, err = restore(be); err != nil {
			return err
		}
	}
	if err := c.makeTasks(id, be, myIn, nodeFlows, plans); err != nil {
		return err
	}
	c.launchNode(id)
	c.live = append(c.live, id)
	return nil
}

// nicName returns node id's fabric identity under its current incarnation.
// Restarted incarnations get a fresh name: the old one stays fenced at the
// fabric (RemoveNIC), and injector fault state keyed on it dies with it.
func (c *Controller) nicName(id int) string {
	if c.nodeInc[id] == 0 {
		return fmt.Sprintf("node%d", id)
	}
	return fmt.Sprintf("node%d@%d", id, c.nodeInc[id])
}

// newSender wires one directed link's sender, tagged with both endpoints'
// incarnations and the link's replay ring when the recovery plane is armed.
func (c *Controller) newSender(src, dst int, p channel.SendPort) *chanSender {
	s := &chanSender{src: src, dst: dst, prod: p}
	if c.mgr != nil {
		s.mgr = c.mgr
		s.ring = c.rings[src][dst]
		s.srcInc = c.nodeInc[src]
		s.dstInc = c.nodeInc[dst]
	}
	return s
}

// wirePair brings up both directed links between node x, (re)joining, and
// live node m, and hands each locally-held half to its owner: m's backend
// sends to x and m's merge task receives from x, while x's send half is
// recorded in c.senders[x][m] and its inbound half returned, for x's backend
// and merge task to pick up once they exist. A half held by a peer process
// (placement mode) is nil and skipped. Callers hold c.mu.
func (c *Controller) wirePair(x, m int) (inbound, error) {
	toM, fromX, err := c.link(x, m)
	if err != nil {
		return inbound{}, fmt.Errorf("core: channel %d->%d: %w", x, m, err)
	}
	toX, fromM, err := c.link(m, x)
	if err != nil {
		return inbound{}, fmt.Errorf("core: channel %d->%d: %w", m, x, err)
	}
	if toM != nil {
		c.producers[x][m], c.senders[x][m] = toM, c.newSender(x, m, toM)
	}
	if fromX != nil {
		c.consumers[m] = append(c.consumers[m], consEntry{src: x, cons: fromX})
		c.merges[m].AddInbound(inbound{src: x, inc: c.nodeInc[x], cons: fromX})
	}
	if toX != nil {
		c.producers[m][x], c.senders[m][x] = toX, c.newSender(m, x, toX)
		c.backends[m].SetSender(x, c.senders[m][x])
	}
	in := inbound{src: m, inc: c.nodeInc[m], cons: fromM}
	if fromM != nil {
		c.consumers[x] = append(c.consumers[x], consEntry{src: m, cons: fromM})
	}
	return in, nil
}

// buildMesh brings up node id's NIC, its row and column of the channel mesh,
// and its backend. Callers hold c.mu.
func (c *Controller) buildMesh(id int) (*ssb.Backend, []inbound, error) {
	nic, err := c.transport.AddNode(id, c.nicName(id))
	if err != nil {
		return nil, nil, fmt.Errorf("core: joining node %d: %w", id, err)
	}
	c.nics[id] = nic
	var myIn []inbound
	for _, m := range c.live {
		in, err := c.wirePair(id, m)
		if err != nil {
			return nil, nil, err
		}
		myIn = append(myIn, in)
	}

	sbs := make([]ssb.Sender, c.cfg.MaxNodes)
	for _, m := range c.live {
		sbs[m] = c.senders[id][m]
	}
	var jrn ssb.Journal
	if c.journals != nil {
		jrn = c.journals[id]
	}
	be, err := ssb.New(ssb.Config{
		Node:           id,
		Nodes:          c.cfg.Nodes,
		MaxNodes:       c.cfg.MaxNodes,
		Map:            c.pmap,
		ThreadsPerNode: c.cfg.ThreadsPerNode,
		Agg:            c.agg,
		ChunkSize:      c.cfg.ChunkSize,
		EpochBytes:     c.cfg.EpochBytes,
		WindowEnd:      c.q.Window.End,
		Journal:        jrn,
	}, sbs)
	if err != nil {
		return nil, nil, err
	}
	c.backends[id] = be
	if c.stateReg != nil {
		// Queryable-state plane: register this incarnation's snapshot
		// directory on the node's NIC and route the merge path's publications
		// into it. A restart builds a fresh publisher here; the old
		// incarnation's regions were fenced before its NIC was removed.
		pub, err := stateq.NewPublisher(nic, id, c.nodeInc[id], *c.cfg.State)
		if err != nil {
			return nil, nil, err
		}
		c.stateReg.Install(pub)
		be.SetStatePublisher(pub, c.cfg.State.PublishBytes)
	}
	return be, myIn, nil
}

// activateNode activates a (re)joining backend's clock entries for its own
// threads and every live, still-ingesting thread before its merge task can
// take a first step. A merge task launched against an all-retired (+inf)
// clock would conclude the stream already ended and exit, leaving its
// inbound channels undrained — wedging every sender to this node. AddNodes
// re-runs the activation across all backends under the same barrier;
// Activate is idempotent. For a restored node, the subsequent checkpoint
// replay overwrites these entries with the journaled clock. Callers hold
// c.mu (id is not yet in c.live).
func (c *Controller) activateNode(id int, be *ssb.Backend) {
	be.ActivateNode(id)
	for _, m := range c.live {
		if c.sources[m] == nil {
			// Placement mode: a remote node's thread states are not visible
			// here; activate them all. Finished threads are re-retired by
			// the FIN heartbeats the mesh (or ring replay) delivers.
			for th := 0; th < c.cfg.ThreadsPerNode; th++ {
				be.Clock().Activate(m*c.cfg.ThreadsPerNode + th)
			}
			continue
		}
		for th := 0; th < c.cfg.ThreadsPerNode; th++ {
			if !c.sources[m][th].done.Load() {
				be.Clock().Activate(m*c.cfg.ThreadsPerNode + th)
			}
		}
	}
}

// makeTasks builds node id's source and merge tasks. plans is nil for a
// fresh node; a restart passes per-thread replay plans, and a thread whose
// flow cannot rewind to its plan boundary fails typed (ErrUnrecoverable).
// Callers hold c.mu.
func (c *Controller) makeTasks(id int, be *ssb.Backend, myIn []inbound, nodeFlows []Flow, plans []*threadRestore) error {
	sts := make([]*sourceTask, c.cfg.ThreadsPerNode)
	for th := range sts {
		gate, _ := nodeFlows[th].(ReadyFlow)
		st := &sourceTask{
			run:      c.run,
			q:        c.q,
			node:     id,
			gate:     gate,
			ts:       be.Thread(th),
			batch:    c.cfg.BatchRecords,
			recSize:  c.q.Codec.Size(),
			records:  &c.records,
			updates:  &c.updates,
			flushes:  &c.flushes,
			mStep:    c.mSourceStep,
			nextEnd:  stream.NoWatermark,
			bflow:    batchFlowFor(nodeFlows[th]),
			rb:       stream.NewRecordBatch(c.cfg.BatchRecords),
			assign:   window.ForRuns(c.q.Window),
			selTimes: make([]int64, 0, c.cfg.BatchRecords),
		}
		if c.q.holistic() {
			st.sides = make([]uint8, c.cfg.BatchRecords)
		}
		if c.mgr != nil {
			st.mgr = c.mgr
			st.jrn = c.journals[id]
		}
		if plans != nil {
			pr := plans[th]
			st.counted = pr.counted
			st.localRecords, st.localUpdates = pr.rewind, pr.updates
			if pr.done {
				// The thread's finishing flush is committed cluster-wide:
				// nothing to replay. Restore its final progress and retire
				// the task without ever scheduling it.
				st.ts.RestoreProgress(pr.epoch, stream.Watermark(math.MaxInt64), pr.inc)
				st.done.Store(true)
			} else {
				rw, ok := nodeFlows[th].(RewindableFlow)
				if !ok {
					return fmt.Errorf("%w: node %d thread %d flow %T cannot rewind",
						ErrUnrecoverable, id, th, nodeFlows[th])
				}
				rw.Rewind(pr.rewind)
				st.ts.RestoreProgress(pr.epoch, stream.Watermark(pr.wm), pr.inc)
				st.armNextEnd()
				st.plan = append([]planFlush(nil), pr.plan...)
			}
		}
		sts[th] = st
	}
	mt := &mergeTask{
		run:      c.run,
		node:     id,
		be:       be,
		cons:     myIn,
		q:        c.q,
		mStep:    c.mMergeStep,
		onRetire: c.nodeRetired,
	}
	if c.mgr != nil {
		mt.mgr = c.mgr
		mt.selfInc = c.nodeInc[id]
		mt.ckptEvery = c.cfg.Recovery.CheckpointCommits
		mt.onCkpt = c.onCheckpoint
		if c.durableEmits() {
			c.journals[id].durable = true
			mt.jrn = c.journals[id]
		}
	}
	// Stagger each node's initial rotation so the cluster's merge tasks do
	// not all start their round-robin on the same peer.
	if len(myIn) > 0 {
		mt.rr = id % len(myIn)
	}
	if c.reg != nil {
		mt.mBacklog = c.reg.Gauge(fmt.Sprintf(`core_merge_backlog_slots_max{node="%d"}`, id))
	}
	if b := c.retiring[id]; b != nil {
		// The node was draining out of the membership when it died; re-arm
		// the early exit at its last owned window.
		mt.retire(c.q.Window.End(b.rec.Cutover - 1))
	}
	c.sources[id] = sts
	c.merges[id] = mt
	return nil
}

// launchNode schedules node id's tasks under one exit signal. Workers carry
// their tasks from birth: AddWorker enqueues before launching, so a worker
// added to a live pool cannot drain-and-exit before its task arrives. Source
// threads already finished (restored as done) get no worker and are not
// waited for. Callers hold c.mu.
func (c *Controller) launchNode(id int) {
	mt := c.merges[id]
	var launch []*sourceTask
	for _, st := range c.sources[id] {
		if !st.done.Load() {
			launch = append(launch, st)
		}
	}
	mt.exits = newExitGroup(len(launch) + 1)
	for _, st := range launch {
		st.exits = mt.exits
		c.pool.AddWorker(st)
	}
	c.pool.AddWorker(mt)
}

// Start launches the deployment. Use Wait for completion; reconfigure with
// AddNodes/RemoveNodes in between.
func (c *Controller) Start() {
	c.mu.Lock()
	c.started = true
	c.startAt = time.Now()
	c.mu.Unlock()
	if c.mgr != nil {
		c.mgr.start()
	}
	c.pool.Start()
}

// StateRegistry returns the queryable-state control plane, or nil when
// Config.State is unset.
func (c *Controller) StateRegistry() *stateq.Registry { return c.stateReg }

// NewStateClient creates a reader client on the deployment's queryable-state
// plane: its own NIC on the fabric, one reader QP per publishing node, all
// reads one-sided. Errors when Config.State is unset.
func (c *Controller) NewStateClient(name string) (*stateq.Client, error) {
	if c.stateReg == nil {
		return nil, errors.New("core: queryable-state plane not configured (set Config.State)")
	}
	return stateq.NewClient(c.stateReg, name)
}

// Wait blocks until every flow finished and every window fired, tears the
// mesh down, and reports execution statistics.
func (c *Controller) Wait() (*Report, error) {
	c.pool.Wait()
	return c.Teardown()
}

// WaitIdle blocks until the local task pool drained without tearing the mesh
// down. Placement members call it between phases: a survivor's pool goes idle
// when its owned nodes finished, but its consumers must stay pollable until
// the whole cluster finished (or a restart re-arms it with replay work).
func (c *Controller) WaitIdle() error {
	c.pool.Wait()
	return c.run.err()
}

// Teardown closes the mesh and assembles the final Report. Wait = pool.Wait +
// Teardown; placement members interleave WaitIdle/re-arm cycles before the
// coordinator's finish message finally drives Teardown.
func (c *Controller) Teardown() (*Report, error) {
	if c.mgr != nil {
		// The failure manager re-adds workers mid-restart, so the pool can go
		// busy again after a Wait returns. Retire the manager (it finishes any
		// in-flight restart first), then re-wait for the tasks it scheduled.
		c.mgr.shutdown()
		c.pool.Wait()
	}
	elapsed := time.Since(c.startAt)
	c.closeProducers()
	c.mu.Lock()
	consumers := append([][]consEntry(nil), c.consumers...)
	nics := append([]*rdma.NIC(nil), c.nics...)
	backends := append([]*ssb.Backend(nil), c.backends...)
	deadTx, deadMsgs := c.deadTx, c.deadMsgs
	recoveries := append([]Recovery(nil), c.recoveries...)
	replayed := c.replayed
	c.mu.Unlock()
	for _, cs := range consumers {
		for _, e := range cs {
			e.cons.Close()
		}
	}
	// Trunk endpoints close their lane QPs and deregister their memory here;
	// the NICs (and the traffic counters read below) survive the shutdown.
	c.transport.Shutdown()
	// No checkpoint record follows the run: staged logs go back to the
	// free list for the next deployment in this process.
	for _, be := range backends {
		if be != nil {
			be.DropCheckpointLog()
		}
	}
	// The snapshot directories are deliberately NOT fenced here: after a
	// clean run their sealed contents are the final window results, and they
	// stay readable until the deployment is discarded (slashd keeps serving
	// them after the report). Mid-run fences — restart, retire — still apply.
	if err := c.run.err(); err != nil {
		return nil, err
	}
	rep := &Report{
		Query:         c.q.Name,
		Nodes:         c.cfg.Nodes,
		Threads:       c.cfg.ThreadsPerNode,
		Records:       c.records.Load(),
		Updates:       c.updates.Load(),
		WindowFlushes: c.flushes.n[flushWindow].Load(),
		Elapsed:       elapsed,
		Sched:         c.pool.Stats(),
	}
	if elapsed > 0 {
		rep.RecordsPerSec = float64(rep.Records) / elapsed.Seconds()
	}
	for cause := range c.flushes.n {
		rep.Flushes += c.flushes.n[cause].Load()
	}
	rep.NetTxBytes += deadTx
	rep.NetTxMsgs += deadMsgs
	rep.Recoveries = recoveries
	rep.ReplayedChunks = replayed
	for _, nic := range nics {
		if nic == nil {
			continue
		}
		s := nic.Stats()
		rep.NetTxBytes += s.TxBytes
		rep.NetTxMsgs += s.TxMsgs
	}
	for _, be := range backends {
		if be == nil {
			continue
		}
		s := be.Stats()
		rep.ChunksMerged += s.ChunksMerged
		rep.BytesMerged += s.BytesMerged
		rep.WindowsOutput += s.WindowsOutput
		rep.ChunksDeduped += be.ChunksDeduped()
	}
	return rep, nil
}

// closeProducers closes every producer endpoint (idempotent).
func (c *Controller) closeProducers() {
	c.mu.Lock()
	var ps []channel.SendPort
	for _, row := range c.producers {
		for _, p := range row {
			if p != nil {
				ps = append(ps, p)
			}
		}
	}
	c.mu.Unlock()
	for _, p := range ps {
		p.Close()
	}
}

// Generation returns the current partition-map generation.
func (c *Controller) Generation() uint64 { return c.pmap.CurrentGen() }

// Fabric exposes the deployment's simulated interconnect — scaling harnesses
// read its QP and registered-memory accounting to assert transport cost.
func (c *Controller) Fabric() *rdma.Fabric { return c.fabric }

// Err returns the first failure of the run, if any, without waiting —
// orchestration loops poll it so they stop waiting on a run that died.
func (c *Controller) Err() error { return c.run.err() }

// Reconfigs returns a snapshot of every membership change so far.
func (c *Controller) Reconfigs() []Reconfig {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Reconfig, len(c.reconfigs))
	for i, r := range c.reconfigs {
		out[i] = *r
		out[i].Nodes = append([]int(nil), r.Nodes...)
	}
	return out
}

// SourcesDone reports whether every source thread of node finished its flow.
func (c *Controller) SourcesDone(node int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return node < len(c.sources) && sourcesDone(c.sources[node])
}

func sourcesDone(sts []*sourceTask) bool {
	if sts == nil {
		return false
	}
	for _, st := range sts {
		if !st.done.Load() {
			return false
		}
	}
	return true
}

// liveSources returns the source tasks of every live node but except (-1
// names none) — the tasks a barrier waits for.
func (c *Controller) liveSources(except int) []*sourceTask {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sts []*sourceTask
	for _, m := range c.live {
		if m != except {
			sts = append(sts, c.sources[m]...)
		}
	}
	return sts
}

// resolveCutover maps AutoCutover to one past the highest window any source
// thread created state for (at least 1, and never below the current
// generation's cutover). Must run at the flush barrier — every source
// answered or finished, so every thread's window high-water mark is stable
// and published. Callers hold c.mu.
func (c *Controller) resolveCutover(cutover uint64) uint64 {
	if cutover != AutoCutover {
		return cutover
	}
	cut := uint64(1)
	if fw := c.pmap.Current().FromWindow; fw > cut {
		cut = fw
	}
	for _, sts := range c.sources {
		for _, st := range sts {
			if w, ok := st.ts.MaxWindow(); ok && w+1 > cut {
				cut = w + 1
			}
		}
	}
	return cut
}

// checkCutover verifies no live leader already triggered or merged state for
// a window the new generation would re-route. Called at the flush barrier,
// so the set of windows with state is stable. Callers hold c.mu.
func (c *Controller) checkCutover(cutover uint64) error {
	for _, m := range c.live {
		be := c.backends[m]
		if be.TriggeredAtOrAfter(cutover) || be.HasPendingAtOrAfter(cutover) {
			return fmt.Errorf("%w: node %d has state at or past window %d", ErrCutoverInPast, m, cutover)
		}
	}
	return nil
}

// inflightChunks sums channel backlogs across the mesh. Callers hold c.mu.
func (c *Controller) inflightChunks() int {
	total := 0
	for _, cs := range c.consumers {
		for _, e := range cs {
			total += e.cons.Backlog()
		}
	}
	return total
}

// AddNodes joins len(flowGroups) nodes in one reconfiguration: one barrier,
// one partition-map generation taking effect at window id cutover. Joining
// is fully online — running sources hold only for the flush barrier, and
// the returned node ids ingest their flows as soon as the barrier lifts. The
// cutover must be a window no leader has state for yet (pass AutoCutover to
// pick the earliest such window at the barrier): the join redistributes only
// future windows, so no state moves (§7.2, §8). Joining flows should carry
// records for windows at or after the cutover — earlier windows may already
// have fired and would reject the late data.
func (c *Controller) AddNodes(flowGroups [][]Flow, cutover uint64) ([]int, error) {
	k := len(flowGroups)
	var ids []int
	err := c.reconfigure("add", cutover, func() error {
		if k == 0 {
			return errors.New("core: no nodes to add")
		}
		for i, fs := range flowGroups {
			if len(fs) != c.cfg.ThreadsPerNode {
				return fmt.Errorf("core: joining node %d has %d flows, want %d", i, len(fs), c.cfg.ThreadsPerNode)
			}
		}
		if c.used+k > c.cfg.MaxNodes {
			return fmt.Errorf("%w: %d nodes joined of %d capacity, %d more requested",
				ErrCapacity, c.used, c.cfg.MaxNodes, k)
		}
		return nil
	}, func() ([]int, []int, error) {
		ids = make([]int, k)
		for i := range ids {
			ids[i] = c.used + i
			if err := c.buildNode(ids[i], flowGroups[i], nil); err != nil {
				return nil, nil, err
			}
		}
		c.used += k
		// Activate clock entries before the install and before any new
		// source ingests: a window the joiners can still contribute to must
		// not trigger without them (P1 across membership changes). Existing
		// nodes' live threads are (re-)activated on the new backends;
		// threads that already finished stay retired everywhere — their +inf
		// watermarks were final.
		for _, be := range c.backends {
			if be == nil {
				continue
			}
			for _, m := range c.live {
				for th := 0; th < c.cfg.ThreadsPerNode; th++ {
					isNew := m >= c.used-k
					if isNew || !c.sources[m][th].done.Load() {
						be.Clock().Activate(m*c.cfg.ThreadsPerNode + th)
					}
				}
			}
			be.SetPeers(c.live)
		}
		return ids, append(c.pmap.Current().Active, ids...), nil
	})
	if err != nil {
		return nil, err
	}
	return ids, nil
}

// RemoveNodes retires the given nodes in one reconfiguration: windows from
// id cutover on route to the remaining membership, while the leaving
// leaders keep merging their pre-cutover windows until the cluster's vector
// clock covers them — late merging absorbs the remainder, no state is
// copied (§7.2, §8). The nodes' source threads must have finished their
// flows (drain-then-leave); each leaving leader detaches from the mesh the
// moment its last window fires.
func (c *Controller) RemoveNodes(ids []int, cutover uint64) error {
	var remaining []int
	return c.reconfigure("remove", cutover, func() error {
		if len(ids) == 0 {
			return errors.New("core: no nodes to remove")
		}
		if cutover == 0 {
			return fmt.Errorf("%w: cutover window 0", ErrCutoverInPast)
		}
		cur := c.pmap.Current()
		leaving := map[int]bool{}
		for _, id := range ids {
			if leaving[id] {
				return fmt.Errorf("core: node %d listed twice", id)
			}
			leaving[id] = true
			if !cur.Contains(id) {
				return fmt.Errorf("core: node %d is not in the active set", id)
			}
			if !sourcesDone(c.sources[id]) {
				return fmt.Errorf("%w: node %d", ErrSourcesActive, id)
			}
		}
		for _, n := range cur.Active {
			if !leaving[n] {
				remaining = append(remaining, n)
			}
		}
		if len(remaining) == 0 {
			return errors.New("core: cannot remove every node")
		}
		return nil
	}, func() ([]int, []int, error) {
		return append([]int(nil), ids...), remaining, nil
	})
}

// reconfigure is the one driver of a membership change. check validates the
// request under c.mu; then, at the flush barrier, the cutover is resolved and
// checked, the in-flight chunks are counted, apply changes the membership
// and returns the nodes that joined or left and the new generation's active
// set, and the generation is installed and recorded before the barrier is
// released. A join is complete at install; a leave arms its leaders'
// retirement and completes when the last one drained (nodeRetired).
func (c *Controller) reconfigure(kind string, cutover uint64, check func() error, apply func() (nodes, active []int, err error)) error {
	c.reconfigMu.Lock()
	defer c.reconfigMu.Unlock()
	c.mu.Lock()
	var err error
	switch {
	case !c.started:
		err = ErrNotRunning
	case c.cfg.Placement != nil:
		err = ErrPlacementMembership
	default:
		err = check()
	}
	c.mu.Unlock()
	if err != nil {
		return err
	}

	start := time.Now()
	b, err := c.run.raise(barrierFlush)
	if err != nil {
		return err
	}
	defer c.run.release(b)
	if err := c.run.await(b, c.liveSources(-1)); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cutover = c.resolveCutover(cutover)
	if err := c.checkCutover(cutover); err != nil {
		return err
	}
	inflight := c.inflightChunks()
	nodes, active, err := apply()
	if err == nil {
		err = c.pmap.Install(ssb.Generation{Gen: c.pmap.CurrentGen() + 1, FromWindow: cutover, Active: active})
	}
	if err != nil {
		c.run.fail(err)
		return err
	}
	rec := &Reconfig{Kind: kind, Gen: c.pmap.CurrentGen(), Cutover: cutover, Nodes: nodes, InflightChunks: inflight}
	c.reconfigs = append(c.reconfigs, rec)
	c.mGen.Set(int64(rec.Gen))
	c.mInflight.SetMax(int64(inflight))
	if kind == "add" {
		rec.Duration = time.Since(start)
		c.observeReconfig(rec)
		return nil
	}
	batch := &retireBatch{rec: rec, remaining: len(nodes), start: start}
	retireEnd := c.q.Window.End(cutover - 1)
	for _, id := range nodes {
		c.retiring[id] = batch
		c.merges[id].retire(retireEnd)
	}
	return nil
}

// observeReconfig counts one completed membership change (the generation
// and in-flight gauges were set at its install). Callers hold c.mu.
func (c *Controller) observeReconfig(rec *Reconfig) {
	if c.reg != nil {
		c.reg.Counter(fmt.Sprintf(`core_reconfigs_total{kind=%q}`, rec.Kind)).Inc()
		c.reg.Histogram(fmt.Sprintf(`core_reconfig_duration_ns{kind=%q}`, rec.Kind)).ObserveDuration(rec.Duration)
	}
}

// nodeRetired runs on a leaving leader's worker the moment the leader
// drained: it detaches the node from the mesh (heartbeats to it are dropped,
// its channels close) and narrows every backend's heartbeat peer set.
func (c *Controller) nodeRetired(node int) {
	if c.stateReg != nil {
		// Retired leaders serve no state: fence the snapshot directory so
		// readers re-resolve instead of reading a frozen final image.
		c.stateReg.Fence(node)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.live = without(c.live, node)
	for _, row := range c.senders {
		if s := row[node]; s != nil {
			s.detach()
		}
	}
	for _, s := range c.senders[node] {
		if s != nil {
			s.detach()
		}
	}
	c.setPeers()
	if batch := c.retiring[node]; batch != nil {
		delete(c.retiring, node)
		batch.remaining--
		if batch.remaining == 0 {
			batch.rec.Duration = time.Since(batch.start)
			c.observeReconfig(batch.rec)
		}
	}
}

// setPeers hands the live set to every owned live backend as its heartbeat
// peer set. Callers hold c.mu.
func (c *Controller) setPeers() {
	for _, m := range c.live {
		if be := c.backends[m]; be != nil {
			be.SetPeers(c.live)
		}
	}
}
