package cluster

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/slash-stream/slash/internal/core"
	"github.com/slash-stream/slash/internal/recovery"
	"github.com/slash-stream/slash/internal/workload"
)

// runOracle executes the same spec on the in-process engine — the reference
// the multi-process deployment must match byte-for-byte.
func runOracle(t *testing.T, spec Spec) []Row {
	t.Helper()
	q, flows, err := workload.Build(spec.Workload, spec.Nodes, spec.Threads, spec.Records, spec.Seed)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	sink := &core.Collector{}
	ctrl, err := core.NewController(core.Config{
		Nodes:          spec.Nodes,
		ThreadsPerNode: spec.Threads,
		EpochBytes:     spec.EpochBytes,
	}, q, flows, sink)
	if err != nil {
		t.Fatalf("oracle controller: %v", err)
	}
	ctrl.Start()
	if _, err := ctrl.Wait(); err != nil {
		t.Fatalf("oracle run: %v", err)
	}
	return CollectRows(sink)
}

func diffRows(t *testing.T, got, want []Row) {
	t.Helper()
	g, w := RenderRows(got), RenderRows(want)
	if g == w {
		return
	}
	gl, wl := strings.Split(g, "\n"), strings.Split(w, "\n")
	shown := 0
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var gi, wi string
		if i < len(gl) {
			gi = gl[i]
		}
		if i < len(wl) {
			wi = wl[i]
		}
		if gi != wi {
			t.Errorf("row %d: cluster %q, oracle %q", i, gi, wi)
			if shown++; shown >= 10 {
				break
			}
		}
	}
	t.Fatalf("cluster output diverges from oracle: %d vs %d rows", len(got), len(want))
}

// TestClusterMatchesOracle is the differential smoke in-binary: a 3-member
// deployment over real TCP loopback must produce byte-identical sink output
// to the in-process engine.
func TestClusterMatchesOracle(t *testing.T) {
	spec := Spec{Workload: "ysb", Nodes: 3, Threads: 2, Records: 2500, Seed: 42}
	co, err := NewCoordinator(CoordinatorOptions{Spec: spec, Logf: t.Logf})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer co.Close()
	var wg sync.WaitGroup
	errs := make([]error, spec.Nodes)
	for r := 0; r < spec.Nodes; r++ {
		w := NewWorker(WorkerOptions{Coordinator: co.Addr(), Rank: r})
		wg.Add(1)
		go func(r int, w *Worker) {
			defer wg.Done()
			errs[r] = w.Run()
		}(r, w)
	}
	res, err := co.Run()
	wg.Wait()
	for r, e := range errs {
		if e != nil {
			t.Errorf("worker %d: %v", r, e)
		}
	}
	if err != nil {
		t.Fatalf("coordinator run: %v", err)
	}
	if res.Restarts != 0 {
		t.Fatalf("unexpected restarts: %d", res.Restarts)
	}
	diffRows(t, res.Rows, runOracle(t, spec))
}

// TestClusterSurvivesKillAndRestart kills a member mid-run, respawns it
// against the same journal, and requires the merged output to still match the
// oracle byte-for-byte — the chaos half of the differential smoke.
func TestClusterSurvivesKillAndRestart(t *testing.T) {
	const victim = 2
	// Small epochs: frequent flushes journal progress early (so the kill
	// lands mid-run, not at end-of-stream) and stress the replay protocol.
	spec := Spec{Workload: "nb7", Nodes: 3, Threads: 2, Records: 20000, Seed: 7, EpochBytes: 8 << 10}
	stores := make([]recovery.Store, spec.Nodes)
	for r := range stores {
		stores[r] = recovery.NewMemStore()
	}
	co, err := NewCoordinator(CoordinatorOptions{Spec: spec, Logf: t.Logf})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer co.Close()
	var wg sync.WaitGroup
	workers := make([]*Worker, spec.Nodes)
	for r := 0; r < spec.Nodes; r++ {
		workers[r] = NewWorker(WorkerOptions{Coordinator: co.Addr(), Rank: r, Store: stores[r]})
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			_ = w.Run() // the victim returns errKilled; the coordinator's diff is the oracle
		}(workers[r])
	}
	resCh := make(chan *Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := co.Run()
		resCh <- res
		errCh <- err
	}()

	// Kill once the victim has journaled progress, so the restore path has
	// real state to rebuild (not a from-scratch rerun).
	deadline := time.Now().Add(15 * time.Second)
	for {
		recs, err := stores[victim].Load(victim)
		if err != nil {
			t.Fatalf("journal load: %v", err)
		}
		if len(recs) >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim journal never grew; run finished too fast to kill?")
		}
		time.Sleep(2 * time.Millisecond)
	}
	workers[victim].Kill()
	// Let the coordinator observe the connection death before the respawn
	// dials in, matching real process timing (SIGKILL EOF precedes re-exec).
	time.Sleep(100 * time.Millisecond)
	respawn := NewWorker(WorkerOptions{Coordinator: co.Addr(), Rank: victim, Store: stores[victim]})
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := respawn.Run(); err != nil {
			t.Errorf("respawned worker: %v", err)
		}
	}()

	res := <-resCh
	runErr := <-errCh
	if runErr != nil || res == nil || res.Restarts < 1 {
		// Unblock every goroutine before failing so the test exits instead
		// of hanging at wg.Wait.
		co.Close()
		respawn.Kill()
		wg.Wait()
		if runErr != nil {
			t.Fatalf("coordinator run: %v", runErr)
		}
		t.Fatalf("expected at least one restart, got %+v", res)
	}
	wg.Wait()
	if res.Reports[victim].Recoveries < 1 {
		t.Fatalf("victim reported no recovery")
	}
	// The survivors replay their rings to the victim, so the count lands in
	// their reports and must sum to what the coordinator saw acked. It is 0
	// only when the kill landed after the victim had checkpointed every chunk
	// sent to it.
	replayed := 0
	for _, r := range res.Reports {
		replayed += r.ReplayedChunks
	}
	if replayed != res.ReplayedChunks {
		t.Fatalf("members reported %d replayed chunks, the coordinator saw %d acked: %+v", replayed, res.ReplayedChunks, res.Reports)
	}
	if replayed == 0 {
		t.Log("nothing to replay: the kill landed after the victim checkpointed everything")
	}
	diffRows(t, res.Rows, runOracle(t, spec))
}

// TestJoinFencedByIncarnation: a stale identity (an old incarnation dialing
// back in) is rejected at registration.
func TestJoinFencedByIncarnation(t *testing.T) {
	spec := Spec{Workload: "ysb", Nodes: 2, Threads: 1, Records: 10, Seed: 1}
	co, err := NewCoordinator(CoordinatorOptions{Spec: spec})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer co.Close()
	go func() { _, _ = co.Run() }()
	w := NewWorker(WorkerOptions{Coordinator: co.Addr(), Rank: 1, ClaimIncarnation: true, Incarnation: 5})
	err = w.Run()
	if err == nil || !strings.Contains(err.Error(), "incarnation fence") {
		t.Fatalf("expected incarnation-fence rejection, got %v", err)
	}
}

// TestDuplicateRegistrationRejected: a second Hello for a live rank is turned
// away without disturbing the incumbent.
func TestDuplicateRegistrationRejected(t *testing.T) {
	spec := Spec{Workload: "ysb", Nodes: 2, Threads: 1, Records: 10, Seed: 1}
	co, err := NewCoordinator(CoordinatorOptions{Spec: spec})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer co.Close()
	go func() { _, _ = co.Run() }()
	incumbent := NewWorker(WorkerOptions{Coordinator: co.Addr(), Rank: 0})
	incumbentErr := make(chan error, 1)
	go func() { incumbentErr <- incumbent.Run() }()

	// The duplicate must lose regardless of how far the incumbent got, but
	// give the incumbent's Hello time to land first.
	time.Sleep(50 * time.Millisecond)
	dup := NewWorker(WorkerOptions{Coordinator: co.Addr(), Rank: 0})
	err = dup.Run()
	if err == nil || !strings.Contains(err.Error(), "duplicate registration") {
		t.Fatalf("expected duplicate-registration rejection, got %v", err)
	}
	co.Close() // unwind the incumbent, which is waiting for rank 1
	if err := <-incumbentErr; err == nil {
		t.Fatal("incumbent should have been unblocked with an error on close")
	}
}

// TestPartialMRExchange: a member that registers and then dies before
// publishing its halves fails the bootstrap instead of wedging it.
func TestPartialMRExchange(t *testing.T) {
	spec := Spec{Workload: "ysb", Nodes: 2, Threads: 1, Records: 10, Seed: 1}
	co, err := NewCoordinator(CoordinatorOptions{Spec: spec, HandshakeTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer co.Close()
	errCh := make(chan error, 1)
	go func() {
		_, err := co.Run()
		errCh <- err
	}()
	healthy := NewWorkerOptionsRunner(t, co.Addr(), 0)
	defer healthy.stop()

	// Rank 1 says hello and vanishes mid-handshake.
	conn, err := net.Dial("tcp", co.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	sess := newSession(conn)
	if err := sess.send(&msg{Kind: kHello, Rank: 1, Inc: -1}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	if _, err := sess.read(); err != nil { // wait for the welcome so the join registered
		t.Fatalf("welcome: %v", err)
	}
	sess.close()

	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "lost") {
			t.Fatalf("expected a lost-connection bootstrap failure, got %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("coordinator wedged on the partial MR exchange")
	}
}

// TestCloseUnblocksPendingJoin: closing the coordinator releases a member
// blocked mid-handshake (the listener-close path).
func TestCloseUnblocksPendingJoin(t *testing.T) {
	spec := Spec{Workload: "ysb", Nodes: 2, Threads: 1, Records: 10, Seed: 1}
	co, err := NewCoordinator(CoordinatorOptions{Spec: spec})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		w := NewWorker(WorkerOptions{Coordinator: co.Addr(), Rank: 0})
		done <- w.Run() // blocks awaiting a welcome that never comes (Run not driving)
	}()
	time.Sleep(50 * time.Millisecond)
	co.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("pending join returned without error after close")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("close did not unblock the pending join")
	}
}

// workerRunner runs a worker in the background for tests that only need it as
// scenery, and reaps it on stop.
type workerRunner struct {
	w    *Worker
	done chan struct{}
}

func NewWorkerOptionsRunner(t *testing.T, addr string, rank int) *workerRunner {
	t.Helper()
	w := NewWorker(WorkerOptions{Coordinator: addr, Rank: rank})
	r := &workerRunner{w: w, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		_ = w.Run()
	}()
	return r
}

func (r *workerRunner) stop() {
	r.w.Kill()
	<-r.done
}
