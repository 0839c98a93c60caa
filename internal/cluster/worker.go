package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"github.com/slash-stream/slash/internal/channel"
	"github.com/slash-stream/slash/internal/core"
	"github.com/slash-stream/slash/internal/recovery"
	"github.com/slash-stream/slash/internal/workload"
)

// WorkerOptions configures one cluster member.
type WorkerOptions struct {
	// Coordinator is the control-plane address to dial.
	Coordinator string
	// Rank is the node id this member owns.
	Rank int
	// Store receives the owned node's journal. It must outlive the process
	// (slashd uses a DirStore); nil falls back to an in-memory store, which is
	// only correct for members that share it across respawns in-binary.
	Store recovery.Store
	// ClaimIncarnation makes the Hello claim Incarnation instead of joining
	// fresh — the hook the incarnation-fence rejection test uses to present a
	// stale identity.
	ClaimIncarnation bool
	Incarnation      int
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Worker runs one member of a multi-process deployment: it bootstraps through
// the coordinator (registration, MR exchange, QP bring-up), runs the engine
// over the netfab mesh, serves the coordinator's restart orders, and reports
// its sink rows at the end.
type Worker struct {
	opts WorkerOptions

	mu     sync.Mutex
	sess   *session
	fab    *fabric
	ctrl   *core.Controller
	killed atomic.Bool
}

// errKilled marks a test-ordered kill; the respawned incarnation reports the
// real result.
var errKilled = errors.New("cluster: worker killed")

// NewWorker prepares a member; Run does all the work.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.Store == nil {
		opts.Store = recovery.NewMemStore()
	}
	return &Worker{opts: opts}
}

// Kill simulates a process death for the differential chaos test: the run is
// aborted and the control connection and fabric drop without any goodbye, so
// the coordinator and the peers observe exactly what a SIGKILL would produce.
func (w *Worker) Kill() {
	w.killed.Store(true)
	w.mu.Lock()
	sess, fab, ctrl := w.sess, w.fab, w.ctrl
	w.mu.Unlock()
	// Conn first: once it is closed nothing — not even the abort's error
	// report — can escape, exactly like a SIGKILL.
	sess.close()
	if fab != nil {
		fab.close()
	}
	if ctrl != nil {
		ctrl.ClusterAbort(errKilled)
	}
}

// Run executes the member to completion. A fresh member returns its Result
// error state; a killed member returns errKilled (or a transport error racing
// with the kill).
func (w *Worker) Run() error {
	rank := w.opts.Rank
	conn, err := net.Dial("tcp", w.opts.Coordinator)
	if err != nil {
		return fmt.Errorf("cluster: dial coordinator: %w", err)
	}
	sess := newSession(conn)
	w.mu.Lock()
	w.sess = sess
	w.mu.Unlock()
	defer sess.close()

	// Registration. Inc -1 = fresh join; a claimed incarnation is fenced by
	// the coordinator unless it matches the expected respawn.
	inc := -1
	if w.opts.ClaimIncarnation {
		inc = w.opts.Incarnation
	}
	if err := sess.send(&msg{Kind: kHello, Rank: rank, Inc: inc}); err != nil {
		return fmt.Errorf("cluster: hello: %w", err)
	}
	welcome, err := sess.read()
	if err != nil {
		return fmt.Errorf("cluster: awaiting welcome: %w", err)
	}
	if welcome.Kind != kWelcome {
		return fmt.Errorf("cluster: expected welcome, got kind %d", welcome.Kind)
	}
	if welcome.Err != "" {
		return fmt.Errorf("cluster: join rejected: %s", welcome.Err)
	}
	spec := welcome.Spec
	if spec == nil || rank < 0 || rank >= spec.Nodes {
		return fmt.Errorf("cluster: rank %d outside spec", rank)
	}
	w.opts.Logf("worker %d: joined (restore=%v)", rank, welcome.Restore)

	// MR registration and exchange. Every member derives the identical
	// channel geometry from the spec, so rkeys address matching layouts.
	credits := spec.Credits
	if credits <= 0 {
		credits = channel.DefaultCredits
	}
	chCfg := channel.Config{
		Credits:  credits,
		SlotSize: core.ChannelSlotSize(0),
		// Bounded credit wait: a dead peer's consumer stops returning credits
		// without any completion failing, and the timeout is what converts
		// that silence into a link error the coordinator can vote on.
		CreditWaitTimeout: DefaultCreditWait,
	}
	fab, err := newFabric(rank, spec.Nodes, chCfg)
	if err != nil {
		return fmt.Errorf("cluster: fabric: %w", err)
	}
	w.mu.Lock()
	w.fab = fab
	w.mu.Unlock()
	defer fab.close()
	if err := sess.send(&msg{Kind: kHalves, Rank: rank, Halves: fab.halves()}); err != nil {
		return fmt.Errorf("cluster: publish halves: %w", err)
	}

	// QP bring-up against every peer's published halves.
	wire, err := sess.read()
	if err != nil {
		return fmt.Errorf("cluster: awaiting wire: %w", err)
	}
	if wire.Kind != kWire {
		return fmt.Errorf("cluster: expected wire, got kind %d", wire.Kind)
	}
	if err := fab.wire(wire.Peers); err != nil {
		return fmt.Errorf("cluster: wire: %w", err)
	}

	// Engine bring-up: the same controller the in-process oracle runs, owning
	// exactly this rank, with every cross-link resolved through the fabric.
	q, flows, err := workload.Build(spec.Workload, spec.Nodes, spec.Threads, spec.Records, spec.Seed)
	if err != nil {
		return err
	}
	sink := &core.Collector{}
	cfg := core.Config{
		Nodes:          spec.Nodes,
		MaxNodes:       spec.Nodes,
		ThreadsPerNode: spec.Threads,
		Channel:        chCfg,
		EpochBytes:     spec.EpochBytes,
		Recovery: &core.RecoveryOptions{
			Store:             w.opts.Store,
			CheckpointCommits: spec.CheckpointCommits,
		},
		Placement: &core.Placement{
			Owned: func(id int) bool { return id == rank },
			Link:  fab.link,
			OnLinkDown: func(src, dst, srcInc, dstInc int, err error) {
				// The coordinator holds the only cluster-wide view, so the
				// vote happens there; send errors mean the control plane is
				// gone and the conn-death path will abort the run.
				_ = sess.send(&msg{
					Kind: kLinkDown, Rank: rank,
					Src: src, Dst: dst, SrcInc: srcInc, DstInc: dstInc,
					Err: errStr(err),
				})
			},
			Restore: welcome.Restore,
		},
	}
	ctrl, err := core.NewController(cfg, q, flows, sink)
	if err != nil {
		return err
	}
	w.mu.Lock()
	w.ctrl = ctrl
	if w.killed.Load() {
		w.mu.Unlock()
		return errKilled
	}
	w.mu.Unlock()

	if welcome.Restore {
		// Respawn path: start an empty pool, then rebuild the owned node from
		// the journal under the welcome's incarnation view, at the commit
		// horizon the coordinator gathered from the survivors.
		ctrl.Start()
		restoreMsg, err := sess.read()
		if err != nil {
			return fmt.Errorf("cluster: awaiting restore: %w", err)
		}
		if restoreMsg.Kind != kRestore {
			return fmt.Errorf("cluster: expected restore, got kind %d", restoreMsg.Kind)
		}
		restored, err := ctrl.ClusterRestore(rank, welcome.Incs, restoreMsg.Committed)
		ack := &msg{Kind: kRestoreAck, Rank: rank, Restored: restored, Err: errStr(err)}
		if sendErr := sess.send(ack); sendErr != nil {
			return sendErr
		}
		if err != nil {
			return err
		}
		w.opts.Logf("worker %d: restored", rank)
	} else {
		if err := sess.send(&msg{Kind: kReady, Rank: rank}); err != nil {
			return err
		}
		start, err := sess.read()
		if err != nil {
			return fmt.Errorf("cluster: awaiting start: %w", err)
		}
		if start.Kind != kStart {
			return fmt.Errorf("cluster: expected start, got kind %d", start.Kind)
		}
		ctrl.Start()
	}

	// Steady state: the control handler owns every conn read from here; the
	// main loop owns the task pool and the teardown.
	finishCh := make(chan struct{}, 1)
	rearmCh := make(chan struct{}, 1)
	failCh := make(chan error, 1)
	go w.control(sess, fab, ctrl, finishCh, rearmCh, failCh)

	for {
		if err := ctrl.WaitIdle(); err != nil {
			_ = sess.send(&msg{Kind: kResult, Rank: rank, Err: errStr(err)})
			return err
		}
		if err := sess.send(&msg{Kind: kIdle, Rank: rank}); err != nil {
			return err
		}
		select {
		case <-finishCh:
			rep, err := ctrl.Teardown()
			if err != nil {
				_ = sess.send(&msg{Kind: kResult, Rank: rank, Err: errStr(err)})
				return err
			}
			res := &msg{Kind: kResult, Rank: rank, Rows: packRows(CollectRows(sink)), Report: &MemberReport{
				Records:        rep.Records,
				Updates:        rep.Updates,
				NetTxBytes:     rep.NetTxBytes,
				NetTxMsgs:      rep.NetTxMsgs,
				ChunksMerged:   rep.ChunksMerged,
				WindowsOutput:  rep.WindowsOutput,
				ChunksDeduped:  rep.ChunksDeduped,
				ReplayedChunks: rep.ReplayedChunks,
				Recoveries:     len(rep.Recoveries),
			}}
			w.opts.Logf("worker %d: finished (%d rows)", rank, len(res.Rows)/packedRowSize)
			return sess.send(res)
		case <-rearmCh:
			// A restart completed while this member was idle; the coordinator
			// reset its idle bookkeeping, so report idleness again.
		case err := <-failCh:
			return err
		}
	}
}

// control serves the coordinator's orders for the steady state and the
// restart sequence. It is the only reader of the control connection once the
// run is started.
func (w *Worker) control(sess *session, fab *fabric, ctrl *core.Controller, finishCh, rearmCh chan struct{}, failCh chan error) {
	fail := func(err error) {
		ctrl.ClusterAbort(err)
		select {
		case failCh <- err:
		default:
		}
	}
	for {
		m, err := sess.read()
		if err != nil {
			if w.killed.Load() {
				fail(errKilled)
			} else {
				fail(fmt.Errorf("cluster: control connection lost: %w", err))
			}
			return
		}
		switch m.Kind {
		case kFence:
			// The fence severed the old links to Node, so its regions can be
			// replaced: fresh ones start the rebuilt channels from clean
			// credit and ring state.
			committed, err := ctrl.ClusterFence(m.Node, m.Inc)
			var h *Halves
			if err == nil {
				h, err = fab.relink(m.Node)
			}
			_ = sess.send(&msg{Kind: kFenceAck, Rank: w.opts.Rank, Committed: committed, Halves: h, Err: errStr(err)})
		case kAdopt:
			err := fab.wire(m.Peers)
			if err == nil {
				err = ctrl.ClusterAdopt(m.Node)
			}
			_ = sess.send(&msg{Kind: kAck, Rank: w.opts.Rank, Err: errStr(err)})
		case kReplay:
			n, err := ctrl.ClusterReplay(m.Node, m.Restored)
			_ = sess.send(&msg{Kind: kReplayAck, Rank: w.opts.Rank, Chunks: n, Err: errStr(err)})
		case kRelease:
			_ = ctrl.ClusterRelease()
			select {
			case rearmCh <- struct{}{}:
			default:
			}
		case kFinish:
			finishCh <- struct{}{}
			return
		default:
			fail(fmt.Errorf("cluster: unexpected control message kind %d", m.Kind))
			return
		}
	}
}
