package core

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/rdma"
	"github.com/slash-stream/slash/internal/window"
)

// TestRunAbortsOnKilledLink is the seeded chaos acceptance scenario: a link
// between two executors dies mid-run (deterministically, after a fixed
// number of ops), and the run must terminate within bounded time with a
// typed error naming the failed link — no wedged workers, no goroutine leak.
func TestRunAbortsOnKilledLink(t *testing.T) {
	before := runtime.NumGoroutine()

	fi := rdma.NewFaultInjector(11)
	// Every epoch flush crosses node0<->node1; the 10th op on the link hits
	// the cut, the transport exhausts its retries, and the QP dies.
	fi.CutLinkAfterOps("node0", "node1", 10)

	win, _ := window.NewTumbling(100)
	q := &Query{Name: "chaos", Codec: testCodec, Window: win, Agg: crdt.Sum{}}
	rng := rand.New(rand.NewSource(11))
	flows, _ := genFlows(rng, 2, 2, 20_000, 64)

	cfg := smallConfig(2, 2)
	cfg.Fabric.Faults = fi
	// Bounded producer waits: if the failure manifests as credits that never
	// come back (the consumer side died first), Acquire must not spin
	// forever.
	cfg.Channel.CreditWaitTimeout = 500 * time.Millisecond

	done := make(chan struct{})
	var rep *Report
	var err error
	go func() {
		defer close(done)
		rep, err = Run(cfg, q, flows, nil)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("run did not terminate after the link was killed")
	}

	if err == nil {
		t.Fatalf("run succeeded across a dead link (report %+v)", rep)
	}
	if !strings.Contains(err.Error(), "node0->node1") && !strings.Contains(err.Error(), "node1->node0") {
		t.Fatalf("error does not name the failed link: %v", err)
	}
	// The root cause is either the QP that died (retry exhaustion surfaces
	// as a QPFailure naming the exact endpoint) or a credit timeout on the
	// producer starved by the dead reverse path.
	if qf, ok := FailedQP(err); ok {
		if qf.Status != rdma.StatusRetryExceeded && qf.Status != rdma.StatusWRFlush {
			t.Fatalf("QP %s died with status %v, want retry-exceeded or flush", qf.QP, qf.Status)
		}
		if !strings.Contains(qf.QP, "node0") || !strings.Contains(qf.QP, "node1") {
			t.Fatalf("QPFailure names %q, want an endpoint of the cut link", qf.QP)
		}
	} else if !strings.Contains(err.Error(), "timed out waiting for credit") {
		t.Fatalf("failure carries neither a QPFailure nor a credit timeout: %v", err)
	}

	// All workers, QP engines, and deliverers must have wound down.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak after failed run: %d -> %d\n%s",
			before, after, buf[:runtime.Stack(buf, true)])
	}
}

// TestRunSurvivesLinkFlap: a flap shorter than the transport retry budget is
// absorbed and the run completes with every record accounted for. The flap is
// counted in ops, not time (every 4th work request on the link loses its
// first 3 attempts; the budget is 7 retries), so no scheduling delay can turn
// it into a dead link.
func TestRunSurvivesLinkFlap(t *testing.T) {
	fi := rdma.NewFaultInjector(13)
	fi.FlapLinkByOps("node0", "node1", 4, 3)

	win, _ := window.NewTumbling(100)
	q := &Query{Name: "flap", Codec: testCodec, Window: win, Agg: crdt.Sum{}}
	rng := rand.New(rand.NewSource(13))
	const records = 2 * 2 * 5_000
	flows, _ := genFlows(rng, 2, 2, 5_000, 64)

	cfg := smallConfig(2, 2)
	cfg.Fabric.Faults = fi

	rep, err := Run(cfg, q, flows, nil)
	if err != nil {
		t.Fatalf("run died on a transient flap: %v", err)
	}
	if rep.Records != records {
		t.Fatalf("records = %d, want %d", rep.Records, records)
	}
	if s := fi.Stats(); s.Drops == 0 {
		t.Fatal("flap injector never dropped an op — test exercised nothing")
	}
}
