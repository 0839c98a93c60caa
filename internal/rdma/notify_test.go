package rdma

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the arm/notify primitive on both engines: one arm yields one
// token, a publication racing the arm is never lost, and an error
// completion wakes a waiter armed on the CQ.

// TestArmYieldsOneToken: after one arm, any number of publications send
// exactly one token, and the endpoint is disarmed afterwards.
func TestArmYieldsOneToken(t *testing.T) {
	for _, ec := range engineConfigs {
		t.Run(ec.name, func(t *testing.T) {
			_, b, qa, _ := newPair(t, Config{Throttle: ec.throttle})
			dst := b.MustRegister(8)
			// Room for more tokens than one arm may send, so an extra one shows.
			wake := make(chan struct{}, 4)
			postU64 := func(n int, signaled bool) {
				t.Helper()
				for i := 0; i < n; i++ {
					if err := qa.PostWriteU64(uint64(i), dst.RKey(), 0, uint64(i), signaled); err != nil {
						t.Fatal(err)
					}
				}
				qa.Drain()
			}

			dst.Arm(wake)
			postU64(3, false)
			if got := len(wake); got != 1 {
				t.Fatalf("region: one arm, three writes sent %d tokens, want 1", got)
			}
			<-wake
			postU64(1, false)
			if got := len(wake); got != 0 {
				t.Fatalf("region: a write after the token sent %d more, want 0 (disarmed)", got)
			}

			cq := qa.SendCQ()
			cq.Arm(wake)
			postU64(3, true)
			if got := len(wake); got != 1 {
				t.Fatalf("cq: one arm, three completions sent %d tokens, want 1", got)
			}
			<-wake
			postU64(1, true)
			if got := len(wake); got != 0 {
				t.Fatalf("cq: a completion after the token sent %d more, want 0 (disarmed)", got)
			}
		})
	}
}

// armRace runs n rounds of a writer and a waiter on separate goroutines.
// In round i the waiter lets the writer publish write i, then arms, then
// re-checks with ready(i), and sleeps only if the re-check fails — so write
// i lands before the arm, between arm and re-check, or during the sleep,
// as the scheduler pleases. A lost wakeup leaves the waiter asleep; the
// guard turns that into a failure instead of a hang.
func armRace(t *testing.T, n uint64, arm func(chan<- struct{}), ready func(i uint64) bool, write func(i uint64) error) {
	t.Helper()
	var round atomic.Uint64
	errc := make(chan error, 1)
	go func() {
		for i := uint64(1); i <= n; i++ {
			for round.Load() < i {
				runtime.Gosched()
			}
			if err := write(i); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	wake := make(chan struct{}, 1)
	guard := time.NewTimer(30 * time.Second)
	defer guard.Stop()
	for i := uint64(1); i <= n; i++ {
		round.Store(i)
		for {
			select { // drop a token an earlier round's arm left behind
			case <-wake:
			default:
			}
			arm(wake)
			if ready(i) {
				break
			}
			select {
			case <-wake:
			case <-guard.C:
				t.Fatalf("round %d: the write never woke the armed waiter (lost wakeup)", i)
			}
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestArmRaceNeverLosesWrite races 10k writes against arm → re-check on
// the credit-word pattern (region) and on signaled completions (CQ).
func TestArmRaceNeverLosesWrite(t *testing.T) {
	const n = 10_000
	for _, ec := range engineConfigs {
		t.Run(ec.name+"/region", func(t *testing.T) {
			_, b, qa, _ := newPair(t, Config{Throttle: ec.throttle})
			dst := b.MustRegister(8)
			armRace(t, n, dst.Arm,
				func(i uint64) bool {
					v, err := dst.AtomicLoad(0)
					return err == nil && v >= i
				},
				func(i uint64) error { return qa.PostWriteU64(i, dst.RKey(), 0, i, false) })
		})
		t.Run(ec.name+"/cq", func(t *testing.T) {
			_, b, qa, _ := newPair(t, Config{Throttle: ec.throttle})
			dst := b.MustRegister(8)
			cq := qa.SendCQ()
			var polled uint64
			armRace(t, n, cq.Arm,
				func(i uint64) bool {
					for {
						if _, ok := cq.TryPoll(); !ok {
							return polled >= i
						}
						polled++
					}
				},
				func(i uint64) error { return qa.PostWriteU64(i, dst.RKey(), 0, i, true) })
		})
	}
}

// TestCQErrorPushWakesArmedWaiter: an error completion — here a WRITE the
// fault injector kills — wakes a waiter armed on the CQ, and the CQ then
// holds the failure.
func TestCQErrorPushWakesArmedWaiter(t *testing.T) {
	for _, ec := range engineConfigs {
		t.Run(ec.name, func(t *testing.T) {
			fi := NewFaultInjector(1)
			_, b, qa, _ := newPair(t, Config{Throttle: ec.throttle, Faults: fi})
			dst := b.MustRegister(8)
			wake := make(chan struct{}, 1)
			qa.SendCQ().Arm(wake)
			fi.FailQP(qa.ID())
			if err := qa.PostWrite(1, []byte{1}, dst.RKey(), 0, false); err != nil {
				t.Fatal(err)
			}
			select {
			case <-wake:
			case <-time.After(10 * time.Second):
				t.Fatal("error completion did not wake the armed waiter")
			}
			c, ok := qa.SendCQ().TryPoll()
			if !ok || !errors.Is(c.Err, ErrRetryExceeded) {
				t.Fatalf("after the wake the CQ holds %+v (ok=%v), want the retry-exceeded completion", c, ok)
			}
		})
	}
}
