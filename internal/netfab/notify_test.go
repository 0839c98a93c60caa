package netfab

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/slash-stream/slash/internal/rdma"
)

// Tests for arm/notify over the TCP backend, mirroring the in-process
// engine's: one arm yields one token, a write racing the arm is never lost,
// and an error ack wakes a waiter armed on the CQ.

// pollN polls n completions from cq, failing after a generous guard.
func pollN(t *testing.T, cq *CQ, n int) []rdma.Completion {
	t.Helper()
	var out []rdma.Completion
	deadline := time.Now().Add(10 * time.Second)
	for len(out) < n {
		if c, ok := cq.TryPoll(); ok {
			out = append(out, c)
			continue
		}
		if time.Now().After(deadline) {
			t.Fatalf("polled %d of %d completions", len(out), n)
		}
		runtime.Gosched()
	}
	return out
}

func TestArmYieldsOneToken(t *testing.T) {
	h := newHost(t)
	r, err := h.Register(8)
	if err != nil {
		t.Fatal(err)
	}
	q := dial(t, h, "arm")
	// Room for more tokens than one arm may send, so an extra one shows.
	wake := make(chan struct{}, 4)
	postU64 := func(n int, signaled bool) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := q.PostWriteU64(uint64(i), r.RKey(), 0, uint64(i), signaled); err != nil {
				t.Fatal(err)
			}
		}
		// The host applies a write before it acks, so Drain returning means
		// every store — and its notify — has run.
		q.Drain()
	}

	r.Arm(wake)
	postU64(3, false)
	if got := len(wake); got != 1 {
		t.Fatalf("region: one arm, three writes sent %d tokens, want 1", got)
	}
	<-wake
	postU64(1, false)
	if got := len(wake); got != 0 {
		t.Fatalf("region: a write after the token sent %d more, want 0 (disarmed)", got)
	}

	q.CQ().Arm(wake)
	postU64(3, true)
	// The reader pushes a completion after retiring its request, so wait
	// for the completions themselves; the first push's notify precedes the
	// second push.
	pollN(t, q.CQ(), 3)
	if got := len(wake); got != 1 {
		t.Fatalf("cq: one arm, three completions sent %d tokens, want 1", got)
	}
	<-wake
	postU64(1, true)
	pollN(t, q.CQ(), 1)
	if got := len(wake); got != 0 {
		t.Fatalf("cq: a completion after the token sent %d more, want 0 (disarmed)", got)
	}

	// Nothing writes a LocalBuffer remotely: arming it is a no-op.
	NewLocalBuffer(8).Arm(wake)
}

// TestArmRaceNeverLosesWrite races 10k inline WRITEs from the host's
// connection goroutine against arm → re-check → sleep on the credit-word
// pattern. A lost wakeup trips the guard instead of hanging.
func TestArmRaceNeverLosesWrite(t *testing.T) {
	const n = 10_000
	h := newHost(t)
	r, err := h.Register(8)
	if err != nil {
		t.Fatal(err)
	}
	q := dial(t, h, "race")
	// The writer blocks on a handoff rather than spinning: a spinning
	// goroutine keeps every P busy, and the host's connection goroutine then
	// waits on the runtime's background network poll for each frame.
	round := make(chan uint64, 1)
	errc := make(chan error, 1)
	go func() {
		for i := range round {
			if err := q.PostWriteU64(i, r.RKey(), 0, i, false); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	wake := make(chan struct{}, 1)
	guard := time.NewTimer(60 * time.Second)
	defer guard.Stop()
	for i := uint64(1); i <= n; i++ {
		round <- i
		for {
			select {
			case <-wake:
			default:
			}
			r.Arm(wake)
			if v, err := r.AtomicLoad(0); err == nil && v >= i {
				break
			}
			select {
			case <-wake:
			case <-guard.C:
				t.Fatalf("round %d: the write never woke the armed waiter (lost wakeup)", i)
			}
		}
	}
	close(round)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestCQErrorPushWakesArmedWaiter: a WRITE to an rkey the host does not
// know acks with a remote-access error, and that completion wakes a waiter
// armed on the CQ.
func TestCQErrorPushWakesArmedWaiter(t *testing.T) {
	h := newHost(t)
	q := dial(t, h, "err")
	wake := make(chan struct{}, 1)
	q.CQ().Arm(wake)
	if err := q.PostWrite(1, []byte{1}, 0xdead, 0, false); err != nil {
		t.Fatal(err)
	}
	select {
	case <-wake:
	case <-time.After(10 * time.Second):
		t.Fatal("error completion did not wake the armed waiter")
	}
	c, ok := q.CQ().TryPoll()
	var qf *rdma.QPFailure
	if !ok || c.Status != rdma.StatusRemoteAccessErr || !errors.As(c.Err, &qf) {
		t.Fatalf("after the wake the CQ holds %+v (ok=%v), want the remote-access failure", c, ok)
	}
}
