package core

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/rdma"
	"github.com/slash-stream/slash/internal/recovery"
	"github.com/slash-stream/slash/internal/stream"
	"github.com/slash-stream/slash/internal/window"
)

// recoveryConfig is smallConfig plus an armed recovery plane. The credit
// timeout bounds how long a producer spins against a dead peer before its
// link error reaches the failure manager.
func recoveryConfig(nodes, threads int, store recovery.Store) Config {
	cfg := smallConfig(nodes, threads)
	cfg.Channel.CreditWaitTimeout = 500 * time.Millisecond
	cfg.Recovery = &RecoveryOptions{Store: store, CheckpointCommits: 8}
	return cfg
}

func sumQuery(name string) *Query {
	win, _ := window.NewTumbling(100)
	return &Query{Name: name, Codec: testCodec, Window: win, Agg: crdt.Sum{}}
}

// cloneRecs deep-copies per-flow record slices so a run and its baseline
// each get fresh flows over identical data.
func sliceFlowsOf(recs [][]stream.Record, threads int) [][]Flow {
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

// baselineAggs runs the query fault-free, without the recovery plane, and
// returns the canonical result map.
func baselineAggs(t *testing.T, name string, recs [][]stream.Record, nodes, threads int) map[uint64]map[uint64]int64 {
	t.Helper()
	col := &Collector{}
	if _, err := Run(smallConfig(nodes, threads), sumQuery(name), sliceFlowsOf(recs, threads), col); err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	return aggMap(t, col)
}

// mergedChunks snapshots a node's leader-side merge counter (the backend
// pointer moves during restarts, so it is read under the controller lock).
func mergedChunks(c *Controller, node int) uint64 {
	c.mu.Lock()
	be := c.backends[node]
	c.mu.Unlock()
	if be == nil {
		return 0
	}
	return be.Stats().ChunksMerged
}

// waitReport runs Wait with a deadline so a recovery bug cannot hang the
// whole test binary.
func waitReport(t *testing.T, c *Controller) (*Report, error) {
	t.Helper()
	type res struct {
		rep *Report
		err error
	}
	ch := make(chan res, 1)
	go func() {
		rep, err := c.Wait()
		ch <- res{rep, err}
	}()
	select {
	case r := <-ch:
		return r.rep, r.err
	case <-time.After(60 * time.Second):
		t.Fatal("Wait did not return")
		return nil, nil
	}
}

// TestRecoveryManualRestartMatchesBaseline is the core differential test of
// the checkpoint plane: killing and restoring a healthy node mid-run must
// leave the window results byte-identical to a fault-free execution, with
// every record counted exactly once.
func TestRecoveryManualRestartMatchesBaseline(t *testing.T) {
	const nodes, threads, per = 3, 2, 8000
	rng := rand.New(rand.NewSource(71))
	recs, _ := genPhase(rng, nodes*threads, per, 64, 0, 1000)
	want := baselineAggs(t, "recover-manual", recs, nodes, threads)

	cfg := recoveryConfig(nodes, threads, recovery.NewMemStore())
	col := &Collector{}
	ctrl, err := NewController(cfg, sumQuery("recover-manual"), sliceFlowsOf(recs, threads), col)
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
	if len(rep.Recoveries) != 1 || rep.Recoveries[0].Node != 1 || rep.Recoveries[0].Incarnation != 1 {
		t.Fatalf("recoveries = %+v, want one restart of node 1", rep.Recoveries)
	}
	if rep.Recoveries[0].Duration <= 0 {
		t.Fatalf("recovery duration not recorded: %+v", rep.Recoveries[0])
	}
}

// TestRecoveryAutoRestartOnIsolatedNode kills a node for real — its NIC drops
// every op in both directions — and asserts the failure manager detects the
// dead links, votes the right suspect, and restores the run to the baseline
// result without operator involvement.
func TestRecoveryAutoRestartOnIsolatedNode(t *testing.T) {
	const nodes, threads, per = 3, 2, 8000
	rng := rand.New(rand.NewSource(29))
	recs, _ := genPhase(rng, nodes*threads, per, 64, 0, 1000)
	want := baselineAggs(t, "recover-auto", recs, nodes, threads)

	fi := rdma.NewFaultInjector(29)
	cfg := recoveryConfig(nodes, threads, recovery.NewMemStore())
	cfg.Fabric.Faults = fi
	col := &Collector{}
	ctrl, err := NewController(cfg, sumQuery("recover-auto"), sliceFlowsOf(recs, threads), col)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	ctrl.Start()
	waitFor(t, "node 1 merge progress", func() bool { return mergedChunks(ctrl, 1) > 40 })
	fi.IsolateNIC("node1")
	rep, err := waitReport(t, ctrl)
	if err != nil {
		t.Fatalf("run failed despite auto-recovery: %v", err)
	}
	if got := aggMap(t, col); !reflect.DeepEqual(got, want) {
		t.Fatal("auto-recovered results diverge from fault-free baseline")
	}
	if want := int64(nodes * threads * per); rep.Records != want {
		t.Fatalf("records = %d, want %d", rep.Records, want)
	}
	restarted := false
	for _, rc := range rep.Recoveries {
		if rc.Node == 1 {
			restarted = true
		}
	}
	if !restarted {
		t.Fatalf("recoveries = %+v, want node 1 restarted", rep.Recoveries)
	}
}

// TestRecoveryDoubleFailureSameNode fails the same node twice: once mid-phase
// and once — deterministically — while every source is parked at a fence, so
// the second incarnation's NIC dies before the phase that would use it. Both
// restores must stack (incarnations 1 and 2) and the result must still match
// the baseline.
func TestRecoveryDoubleFailureSameNode(t *testing.T) {
	const nodes, threads, per = 3, 2, 2000
	rng := rand.New(rand.NewSource(53))
	phaseA, _ := genPhase(rng, nodes*threads, per, 64, 0, 500)
	phaseB, _ := genPhase(rng, nodes*threads, per, 64, 500, 1000)
	recs := make([][]stream.Record, nodes*threads)
	for i := range recs {
		recs[i] = append(append([]stream.Record(nil), phaseA[i]...), phaseB[i]...)
	}
	want := baselineAggs(t, "recover-double", recs, nodes, threads)

	fi := rdma.NewFaultInjector(53)
	cfg := recoveryConfig(nodes, threads, recovery.NewMemStore())
	cfg.Fabric.Faults = fi
	flows, gates := gatedFlows(recs, threads, 500, func(g *ColumnarFlow) Flow { return g })
	col := &Collector{}
	ctrl, err := NewController(cfg, sumQuery("recover-double"), flows, col)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	ctrl.Start()
	waitFor(t, "node 1 merge progress", func() bool { return mergedChunks(ctrl, 1) > 20 })
	fi.IsolateNIC("node1")
	waitFor(t, "first recovery", func() bool { return len(ctrl.Recoveries()) >= 1 })
	waitFor(t, "all sources parked at the fence", func() bool {
		for _, g := range gates {
			if !g.AtFence(0) {
				return false
			}
		}
		return true
	})
	// No traffic moves while the sources are parked, so the second kill is
	// guaranteed to land before incarnation 1 sends a single phase-B chunk.
	fi.IsolateNIC("node1@1")
	for _, g := range gates {
		g.Open()
	}
	rep, err := waitReport(t, ctrl)
	if err != nil {
		t.Fatalf("run failed after double failure: %v", err)
	}
	if got := aggMap(t, col); !reflect.DeepEqual(got, want) {
		t.Fatal("double-failure results diverge from fault-free baseline")
	}
	if want := int64(nodes * threads * 2 * per); rep.Records != want {
		t.Fatalf("records = %d, want %d", rep.Records, want)
	}
	node1 := 0
	for _, rc := range rep.Recoveries {
		if rc.Node == 1 {
			node1++
		}
	}
	if node1 < 2 {
		t.Fatalf("recoveries = %+v, want node 1 restarted twice", rep.Recoveries)
	}
}

// flakyStore delegates to a MemStore until its append budget runs out, then
// fails every append — a journal device dying mid-run.
type flakyStore struct {
	inner *recovery.MemStore
	mu    sync.Mutex
	left  int
	err   error
}

func (s *flakyStore) Append(node int, rec *recovery.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.left <= 0 {
		return s.err
	}
	s.left--
	return s.inner.Append(node, rec)
}

func (s *flakyStore) Load(node int) ([]recovery.Record, error) { return s.inner.Load(node) }

// TestRecoveryCheckpointFailureFailsRun: a checkpoint plane that cannot reach
// its store must fail the run with the store's error — never hang, never
// silently continue without durability.
func TestRecoveryCheckpointFailureFailsRun(t *testing.T) {
	const nodes, threads, per = 3, 2, 8000
	rng := rand.New(rand.NewSource(17))
	recs, _ := genPhase(rng, nodes*threads, per, 64, 0, 1000)

	store := &flakyStore{inner: recovery.NewMemStore(), left: 60, err: errors.New("checkpoint device gone")}
	cfg := recoveryConfig(nodes, threads, store)
	cfg.Recovery.CheckpointCommits = 2
	ctrl, err := NewController(cfg, sumQuery("recover-badstore"), sliceFlowsOf(recs, threads), &Collector{})
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	ctrl.Start()
	_, err = waitReport(t, ctrl)
	if err == nil || !strings.Contains(err.Error(), "checkpoint device gone") {
		t.Fatalf("err = %v, want the store failure surfaced", err)
	}
}

// gatedFlows wraps each flow's records in a ColumnarFlow fenced at ts, passed
// through wrap, and returns the flows with their gates.
func gatedFlows(recs [][]stream.Record, threads int, ts int64, wrap func(*ColumnarFlow) Flow) ([][]Flow, []*ColumnarFlow) {
	nodes := len(recs) / threads
	gates := make([]*ColumnarFlow, len(recs))
	flows := make([][]Flow, nodes)
	for n := 0; n < nodes; n++ {
		flows[n] = make([]Flow, threads)
		for th := 0; th < threads; th++ {
			g := NewColumnarFlow(recs[n*threads+th], ts)
			gates[n*threads+th] = g
			flows[n][th] = wrap(g)
		}
	}
	return flows, gates
}

// TestRecoveryReplayHorizonExhausted starves the plane on purpose: no
// checkpoints ever, replay rings two entries deep. By the time a node needs
// restoring, its peers' rings have evicted un-checkpointed chunks, and the
// restart must refuse with ErrUnrecoverable instead of silently dropping
// state. The sources park at a fence on the first window's end until the
// restart returns, so it always lands mid-run; and since no window can
// trigger before it, no trigger writes a checkpoint record either.
func TestRecoveryReplayHorizonExhausted(t *testing.T) {
	const nodes, threads, per = 3, 2, 8000
	rng := rand.New(rand.NewSource(83))
	recs, _ := genPhase(rng, nodes*threads, per, 64, 0, 1000)
	flows, gates := gatedFlows(recs, threads, 100, func(g *ColumnarFlow) Flow { return g })

	cfg := recoveryConfig(nodes, threads, recovery.NewMemStore())
	cfg.Recovery.CheckpointCommits = 1 << 30 // never checkpoint
	ctrl, err := NewController(cfg, sumQuery("recover-horizon"), flows, &Collector{})
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	ctrl.setReplayRing(2) // evict almost immediately
	ctrl.Start()
	waitFor(t, "all sources parked at the fence", func() bool {
		for _, g := range gates {
			if !g.AtFence(0) {
				return false
			}
		}
		return true
	})
	err = ctrl.RestartNode(1)
	for _, g := range gates {
		g.Open()
	}
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("RestartNode = %v, want ErrUnrecoverable", err)
	}
	if _, err := waitReport(t, ctrl); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("Wait = %v, want ErrUnrecoverable", err)
	}
}

// unrewindableFlow is a gated flow that cannot rewind: it has Next and
// Ready, but no Rewind.
type unrewindableFlow struct{ g *ColumnarFlow }

func (f unrewindableFlow) Next(rec *stream.Record) bool { return f.g.Next(rec) }
func (f unrewindableFlow) Ready() bool                  { return f.g.Ready() }

// TestRecoveryUnrewindableFlow: a flow that cannot rewind makes its node
// unrecoverable — the restart must say so rather than re-ingest from a wrong
// position. The flows are gated like the horizon test's, so the restart
// always finds them holding records.
func TestRecoveryUnrewindableFlow(t *testing.T) {
	const nodes, threads, per = 2, 2, 8000
	rng := rand.New(rand.NewSource(37))
	recs, _ := genPhase(rng, nodes*threads, per, 64, 0, 1000)
	flows, gates := gatedFlows(recs, threads, 500, func(g *ColumnarFlow) Flow { return unrewindableFlow{g} })

	cfg := recoveryConfig(nodes, threads, recovery.NewMemStore())
	ctrl, err := NewController(cfg, sumQuery("recover-norewind"), flows, &Collector{})
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	ctrl.Start()
	waitFor(t, "node 1 merge progress", func() bool { return mergedChunks(ctrl, 1) > 20 })
	err = ctrl.RestartNode(1)
	for _, g := range gates {
		g.Open()
	}
	if !errors.Is(err, ErrUnrecoverable) || !strings.Contains(err.Error(), "cannot rewind") {
		t.Fatalf("RestartNode = %v, want ErrUnrecoverable (cannot rewind)", err)
	}
	if _, err := waitReport(t, ctrl); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("Wait = %v, want ErrUnrecoverable", err)
	}
}

// TestRecoveryRestartDrainingLeaver restarts a node that is mid-drain from a
// RemoveNodes cutover: its sources are done, its leader still owns pre-cutover
// windows, and the survivors are fenced below the timestamps that would let it
// retire. The restore must re-arm the retirement and the run must converge to
// the static baseline.
func TestRecoveryRestartDrainingLeaver(t *testing.T) {
	const threads = 2
	rng := rand.New(rand.NewSource(97))
	// Nodes 0 and 1 carry two gated phases with a gap: everything below 490,
	// a fence at 500, then phase B. Node 2's flows end at 499 — it finishes
	// first, and the survivors' watermark (489) keeps every window it owns
	// un-retirable until the gates open.
	phaseA, _ := genPhase(rng, 2*threads, 2500, 64, 0, 490)
	phaseB, _ := genPhase(rng, 2*threads, 2500, 64, 500, 1000)
	leaver, _ := genPhase(rng, threads, 2500, 64, 0, 500)
	stayRecs := make([][]stream.Record, 2*threads)
	for i := range stayRecs {
		stayRecs[i] = append(append([]stream.Record(nil), phaseA[i]...), phaseB[i]...)
	}
	baseline := append(append([][]stream.Record(nil), stayRecs...), leaver...)
	want := baselineAggs(t, "recover-drain", baseline, 3, threads)

	cfg := recoveryConfig(3, threads, recovery.NewMemStore())
	flows, gates := gatedFlows(stayRecs, threads, 500, func(g *ColumnarFlow) Flow { return g })
	flows = append(flows, make([]Flow, threads))
	for th := 0; th < threads; th++ {
		flows[2][th] = NewColumnarFlow(leaver[th])
	}
	col := &Collector{}
	ctrl, err := NewController(cfg, sumQuery("recover-drain"), flows, col)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	ctrl.Start()
	waitFor(t, "leaver sources done", func() bool { return ctrl.SourcesDone(2) })
	if err := ctrl.RemoveNodes([]int{2}, AutoCutover); err != nil {
		t.Fatalf("RemoveNodes: %v", err)
	}
	ctrl.mu.Lock()
	draining := ctrl.retiring[2] != nil
	ctrl.mu.Unlock()
	if !draining {
		t.Fatal("node 2 retired before the survivors advanced — fence geometry broken")
	}
	if err := ctrl.RestartNode(2); err != nil {
		t.Fatalf("RestartNode mid-drain: %v", err)
	}
	for _, g := range gates {
		g.Open()
	}
	rep, err := waitReport(t, ctrl)
	if err != nil {
		t.Fatalf("run failed after mid-drain restart: %v", err)
	}
	if got := aggMap(t, col); !reflect.DeepEqual(got, want) {
		t.Fatal("mid-drain restart results diverge from static baseline")
	}
	if want := int64(2*threads*2*2500 + threads*2500); rep.Records != want {
		t.Fatalf("records = %d, want %d", rep.Records, want)
	}
	restarted := false
	for _, rc := range rep.Recoveries {
		if rc.Node == 2 {
			restarted = true
		}
	}
	if !restarted {
		t.Fatalf("recoveries = %+v, want node 2 restarted", rep.Recoveries)
	}
}
