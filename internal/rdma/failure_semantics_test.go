package rdma

import (
	"errors"
	"testing"
	"time"

	"github.com/slash-stream/slash/internal/metrics"
)

// newFaultyPair builds a two-NIC fabric with a fault injector attached and
// fast failure knobs, so retry-exhaustion scenarios resolve in microseconds.
func newFaultyPair(t *testing.T, cfg Config, opt QPOptions) (*FaultInjector, *NIC, *NIC, *QueuePair, *QueuePair) {
	t.Helper()
	fi := NewFaultInjector(1)
	cfg.Faults = fi
	f := NewFabric(cfg)
	a := f.MustNIC("a")
	b := f.MustNIC("b")
	if opt.Timeout == 0 {
		opt.Timeout = 5 * time.Microsecond
	}
	qa, qb, err := Connect(a, b, opt, opt)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	t.Cleanup(func() {
		qa.Close()
		qb.Close()
	})
	return fi, a, b, qa, qb
}

// TestErrorStateTransition pins down the core semantics on both engines: the
// first failed request completes with its real status, moves the QP into the
// error state, and everything behind it flushes in post order.
func TestErrorStateTransition(t *testing.T) {
	for _, ec := range engineConfigs {
		t.Run(ec.name, func(t *testing.T) {
			_, b, qa, _ := newPair(t, Config{Throttle: ec.throttle})
			dst := b.MustRegister(8)

			if qa.State() != QPStateRTS {
				t.Fatalf("fresh QP state = %v, want RTS", qa.State())
			}
			if qa.Err() != nil {
				t.Fatalf("fresh QP Err = %v, want nil", qa.Err())
			}

			if err := qa.PostWrite(1, []byte{1}, dst.RKey(), 0, true); err != nil {
				t.Fatal(err)
			}
			if c := qa.SendCQ().Wait(); c.Err != nil || c.Status != StatusSuccess {
				t.Fatalf("healthy completion %+v", c)
			}

			// Bad rkey: the root-cause failure.
			if err := qa.PostWrite(2, []byte{1}, 0xdead, 0, true); err != nil {
				t.Fatal(err)
			}
			// Requests behind it flush, signaled or not.
			for i := uint64(3); i <= 6; i++ {
				if err := qa.PostWrite(i, []byte{1}, dst.RKey(), 0, false); err != nil {
					t.Fatal(err)
				}
			}
			qa.Drain()

			c := qa.SendCQ().Wait()
			if !errors.Is(c.Err, ErrInvalidRKey) || c.Status != StatusRemoteAccessErr || c.WRID != 2 {
				t.Fatalf("root-cause completion %+v", c)
			}
			for i := uint64(3); i <= 6; i++ {
				c := qa.SendCQ().Wait()
				if !errors.Is(c.Err, ErrWRFlush) || c.Status != StatusWRFlush || c.WRID != i {
					t.Fatalf("flush completion %+v, want WRID %d", c, i)
				}
			}

			if qa.State() != QPStateError {
				t.Fatalf("state = %v, want ERROR", qa.State())
			}
			var qf *QPFailure
			if !errors.As(qa.Err(), &qf) {
				t.Fatalf("Err() = %v, want *QPFailure", qa.Err())
			}
			if qf.QP != qa.ID() || qf.Status != StatusRemoteAccessErr || !errors.Is(qf, ErrInvalidRKey) {
				t.Fatalf("QPFailure %+v", qf)
			}

			// Flushed writes never landed: only WRID 1 reached the region.
			if v := dst.WriteVersion(); v != 1 {
				t.Fatalf("write version = %d, want 1 (flushed writes executed)", v)
			}
		})
	}
}

// TestErrBeforeCompletionVisible verifies the ordering guarantee the channel
// layer relies on: by the time an error completion can be polled, Err()
// already reports the cause.
func TestErrBeforeCompletionVisible(t *testing.T) {
	for _, ec := range engineConfigs {
		t.Run(ec.name, func(t *testing.T) {
			_, _, qa, _ := newPair(t, Config{Throttle: ec.throttle})
			if err := qa.PostWrite(1, []byte{1}, 0xdead, 0, true); err != nil {
				t.Fatal(err)
			}
			c := qa.SendCQ().Wait()
			if c.Err == nil {
				t.Fatalf("completion %+v, want error", c)
			}
			if qa.Err() == nil {
				t.Fatal("error completion polled but Err() is still nil")
			}
		})
	}
}

// TestReset exercises the ERR→RTS recycle on both engines.
func TestReset(t *testing.T) {
	for _, ec := range engineConfigs {
		t.Run(ec.name, func(t *testing.T) {
			_, b, qa, _ := newPair(t, Config{Throttle: ec.throttle})
			dst := b.MustRegister(8)

			if err := qa.Reset(); !errors.Is(err, ErrQPNotInError) {
				t.Fatalf("Reset on healthy QP = %v, want ErrQPNotInError", err)
			}

			if err := qa.PostWrite(1, []byte{1}, 0xdead, 0, true); err != nil {
				t.Fatal(err)
			}
			qa.Drain()
			qa.SendCQ().Wait()
			if err := qa.Reset(); err != nil {
				t.Fatalf("Reset: %v", err)
			}
			if qa.State() != QPStateRTS || qa.Err() != nil {
				t.Fatalf("after Reset: state=%v err=%v", qa.State(), qa.Err())
			}

			if err := qa.PostWrite(2, []byte{7}, dst.RKey(), 0, true); err != nil {
				t.Fatal(err)
			}
			if c := qa.SendCQ().Wait(); c.Err != nil {
				t.Fatalf("post-Reset completion %+v", c)
			}
			if v := dst.WriteVersion(); v != 1 {
				t.Fatalf("post-Reset write not delivered (version %d)", v)
			}
		})
	}
}

// TestInjectorDropsAbsorbedByRetry: a burst of drops shorter than the retry
// budget is invisible to the application — the transport retries through it.
func TestInjectorDropsAbsorbedByRetry(t *testing.T) {
	for _, ec := range engineConfigs {
		t.Run(ec.name, func(t *testing.T) {
			fi, _, b, qa, _ := newFaultyPair(t, Config{Throttle: ec.throttle}, QPOptions{})
			dst := b.MustRegister(8)

			fi.DropNext(3) // budget is DefaultRetryCount = 7
			if err := qa.PostWrite(1, []byte{1}, dst.RKey(), 0, true); err != nil {
				t.Fatal(err)
			}
			if c := qa.SendCQ().Wait(); c.Err != nil {
				t.Fatalf("completion %+v, want drops absorbed by retry", c)
			}
			if s := fi.Stats(); s.Drops != 3 {
				t.Fatalf("injector drops = %d, want 3", s.Drops)
			}
			if qa.State() != QPStateRTS {
				t.Fatalf("state = %v, want RTS", qa.State())
			}
		})
	}
}

// TestInjectorRetryExhaustion: more consecutive drops than the budget kill
// the request and the QP.
func TestInjectorRetryExhaustion(t *testing.T) {
	for _, ec := range engineConfigs {
		t.Run(ec.name, func(t *testing.T) {
			fi, _, b, qa, _ := newFaultyPair(t, Config{Throttle: ec.throttle}, QPOptions{RetryCount: 2})
			dst := b.MustRegister(8)

			fi.DropNext(10)
			if err := qa.PostWrite(1, []byte{1}, dst.RKey(), 0, true); err != nil {
				t.Fatal(err)
			}
			c := qa.SendCQ().Wait()
			if !errors.Is(c.Err, ErrRetryExceeded) || c.Status != StatusRetryExceeded {
				t.Fatalf("completion %+v, want retry exceeded", c)
			}
			// Attempts consumed: 1 initial + 2 retries.
			if s := fi.Stats(); s.Drops != 3 {
				t.Fatalf("injector drops = %d, want 3 (1 attempt + 2 retries)", s.Drops)
			}
			if qa.State() != QPStateError {
				t.Fatalf("state = %v, want ERROR", qa.State())
			}
		})
	}
}

// TestCutLinkAfterOps arms a deterministic mid-stream kill: the first ops
// succeed, the op that hits the cut dies with retry-exceeded, and everything
// behind it flushes — on both engines.
func TestCutLinkAfterOps(t *testing.T) {
	for _, ec := range engineConfigs {
		t.Run(ec.name, func(t *testing.T) {
			fi, _, b, qa, _ := newFaultyPair(t, Config{Throttle: ec.throttle}, QPOptions{RetryCount: 1})
			dst := b.MustRegister(8)

			fi.CutLinkAfterOps("a", "b", 4) // 3 ops pass; attempt 4 hits the cut
			const n = 8
			for i := uint64(1); i <= n; i++ {
				if err := qa.PostWrite(i, []byte{byte(i)}, dst.RKey(), 0, true); err != nil {
					t.Fatal(err)
				}
			}
			qa.Drain()

			for i := uint64(1); i <= 3; i++ {
				if c := qa.SendCQ().Wait(); c.Err != nil || c.WRID != i {
					t.Fatalf("completion %+v, want success WRID %d", c, i)
				}
			}
			if c := qa.SendCQ().Wait(); !errors.Is(c.Err, ErrRetryExceeded) || c.WRID != 4 {
				t.Fatalf("completion %+v, want retry-exceeded WRID 4", c)
			}
			for i := uint64(5); i <= n; i++ {
				if c := qa.SendCQ().Wait(); !errors.Is(c.Err, ErrWRFlush) || c.WRID != i {
					t.Fatalf("completion %+v, want flush WRID %d", c, i)
				}
			}
			if v := dst.WriteVersion(); v != 3 {
				t.Fatalf("write version = %d, want 3", v)
			}
		})
	}
}

// TestLinkFlapAbsorbed: a cut shorter than the retry budget heals invisibly.
func TestLinkFlapAbsorbed(t *testing.T) {
	fi, _, b, qa, _ := newFaultyPair(t, Config{}, QPOptions{Timeout: 200 * time.Microsecond})
	dst := b.MustRegister(8)

	fi.CutLink("a", "b")
	if !fi.LinkDown("a", "b") {
		t.Fatal("LinkDown false after CutLink")
	}
	done := make(chan Completion, 1)
	go func() {
		// Inline path: PostWrite blocks for the retry sleeps, so run it off
		// the test goroutine and heal the link while it retries.
		if err := qa.PostWrite(1, []byte{1}, dst.RKey(), 0, true); err != nil {
			t.Errorf("PostWrite: %v", err)
		}
		done <- qa.SendCQ().Wait()
	}()
	time.Sleep(500 * time.Microsecond) // a couple of retry timeouts
	fi.RestoreLink("a", "b")
	c := <-done
	if c.Err != nil {
		t.Fatalf("completion %+v, want flap absorbed", c)
	}
	if qa.State() != QPStateRTS {
		t.Fatalf("state = %v, want RTS", qa.State())
	}
}

// TestFlapLinkByOps: an op-counted flap costs every period-th request exactly
// drops attempts and nothing else, on both engines, with no clock involved.
func TestFlapLinkByOps(t *testing.T) {
	for _, ec := range engineConfigs {
		t.Run(ec.name, func(t *testing.T) {
			fi, _, b, qa, _ := newFaultyPair(t, Config{Throttle: ec.throttle}, QPOptions{})
			dst := b.MustRegister(8)

			fi.FlapLinkByOps("a", "b", 3, 2) // requests 3, 6, 9 lose 2 attempts each
			const n = 10
			for i := uint64(1); i <= n; i++ {
				if err := qa.PostWrite(i, []byte{byte(i)}, dst.RKey(), 0, true); err != nil {
					t.Fatal(err)
				}
			}
			qa.Drain()
			for i := uint64(1); i <= n; i++ {
				if c := qa.SendCQ().Wait(); c.Err != nil || c.WRID != i {
					t.Fatalf("completion %+v, want success WRID %d", c, i)
				}
			}
			if s := fi.Stats(); s.Drops != 6 {
				t.Fatalf("injector drops = %d, want 6 (3 flapped requests x 2 attempts)", s.Drops)
			}
			fi.RestoreLink("a", "b")
			if err := qa.PostWrite(n+1, []byte{1}, dst.RKey(), 0, true); err != nil {
				t.Fatal(err)
			}
			if err := qa.PostWrite(n+2, []byte{1}, dst.RKey(), 0, true); err != nil {
				t.Fatal(err)
			}
			qa.Drain()
			if s := fi.Stats(); s.Drops != 6 {
				t.Fatalf("injector drops = %d after RestoreLink, want still 6", s.Drops)
			}
		})
	}
}

// TestFailQP kills one QP by id without consuming the retry budget.
func TestFailQP(t *testing.T) {
	fi, _, b, qa, qb := newFaultyPair(t, Config{}, QPOptions{})
	dst := b.MustRegister(8)
	src := qa.LocalNIC().MustRegister(8)

	fi.FailQP(qa.ID())
	if err := qa.PostWrite(1, []byte{1}, dst.RKey(), 0, true); err != nil {
		t.Fatal(err)
	}
	c := qa.SendCQ().Wait()
	if !errors.Is(c.Err, ErrRetryExceeded) || c.Status != StatusRetryExceeded {
		t.Fatalf("completion %+v, want immediate retry-exceeded", c)
	}
	if s := fi.Stats(); s.QPFailures != 1 || s.Drops != 0 {
		t.Fatalf("stats %+v, want 1 QP failure and no drops", s)
	}
	// The reverse direction is untouched.
	if err := qb.PostWrite(2, []byte{2}, src.RKey(), 0, true); err != nil {
		t.Fatal(err)
	}
	if c := qb.SendCQ().Wait(); c.Err != nil {
		t.Fatalf("peer completion %+v, want success", c)
	}
}

// TestIsolateNIC drops traffic in both directions until restored.
func TestIsolateNIC(t *testing.T) {
	fi, _, b, qa, _ := newFaultyPair(t, Config{}, QPOptions{RetryCount: 1})
	dst := b.MustRegister(8)

	fi.IsolateNIC("b")
	if err := qa.PostWrite(1, []byte{1}, dst.RKey(), 0, true); err != nil {
		t.Fatal(err)
	}
	if c := qa.SendCQ().Wait(); !errors.Is(c.Err, ErrRetryExceeded) {
		t.Fatalf("completion %+v, want retry-exceeded", c)
	}
	fi.RestoreNIC("b")
	if err := qa.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if err := qa.PostWrite(2, []byte{2}, dst.RKey(), 0, true); err != nil {
		t.Fatal(err)
	}
	if c := qa.SendCQ().Wait(); c.Err != nil {
		t.Fatalf("post-restore completion %+v", c)
	}
}

// TestInjectorDelay stalls ops without failing them.
func TestInjectorDelay(t *testing.T) {
	fi, _, b, qa, _ := newFaultyPair(t, Config{}, QPOptions{})
	dst := b.MustRegister(8)

	fi.SetDelay(1.0, 2*time.Millisecond)
	start := time.Now()
	if err := qa.PostWrite(1, []byte{1}, dst.RKey(), 0, true); err != nil {
		t.Fatal(err)
	}
	c := qa.SendCQ().Wait()
	if c.Err != nil {
		t.Fatalf("completion %+v", c)
	}
	if el := time.Since(start); el < 2*time.Millisecond {
		t.Fatalf("delayed op finished in %v, want >= 2ms", el)
	}
	if s := fi.Stats(); s.Delays != 1 {
		t.Fatalf("delays = %d, want 1", s.Delays)
	}
}

// TestRNRRetryExhaustion: with a finite RNR budget a SEND against a peer
// that never posts a receive completes with StatusRNRRetryExceeded.
func TestRNRRetryExhaustion(t *testing.T) {
	for _, ec := range engineConfigs {
		t.Run(ec.name, func(t *testing.T) {
			f := NewFabric(Config{Throttle: ec.throttle})
			a := f.MustNIC("a")
			b := f.MustNIC("b")
			qa, qb, err := Connect(a, b,
				QPOptions{RNRRetry: 2, RNRTimeout: 10 * time.Microsecond},
				QPOptions{})
			if err != nil {
				t.Fatalf("Connect: %v", err)
			}
			defer qb.Close()
			defer qa.Close()

			if err := qa.PostSend(1, []byte("ping"), true); err != nil {
				t.Fatal(err)
			}
			c := qa.SendCQ().Wait()
			if !errors.Is(c.Err, ErrRNRRetryExceeded) || c.Status != StatusRNRRetryExceeded {
				t.Fatalf("completion %+v, want RNR retry exceeded", c)
			}
			if qa.State() != QPStateError {
				t.Fatalf("state = %v, want ERROR", qa.State())
			}
		})
	}
}

// TestRNRRetryRecovers: a receive posted inside the backoff window lets the
// SEND land.
func TestRNRRetryRecovers(t *testing.T) {
	f := NewFabric(Config{})
	a := f.MustNIC("a")
	b := f.MustNIC("b")
	qa, qb, err := Connect(a, b,
		QPOptions{RNRRetry: 6, RNRTimeout: 100 * time.Microsecond},
		QPOptions{})
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	defer qb.Close()
	defer qa.Close()

	if err := qa.PostSend(1, []byte("ping"), true); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Microsecond)
	if err := qb.PostRecv(9, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if c := qa.SendCQ().Wait(); c.Err != nil {
		t.Fatalf("send completion %+v", c)
	}
	if c := qb.RecvCQ().Wait(); c.Err != nil || c.Bytes != 4 {
		t.Fatalf("recv completion %+v", c)
	}
}

// TestStatusMetrics checks the fabric-wide per-status completion counters
// and the per-QP state gauge.
func TestStatusMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	fi := NewFaultInjector(7)
	f := NewFabric(Config{Metrics: reg, Faults: fi})
	a := f.MustNIC("a")
	b := f.MustNIC("b")
	qa, qb, err := Connect(a, b, QPOptions{RetryCount: 1, Timeout: 5 * time.Microsecond}, QPOptions{})
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	defer qb.Close()
	defer qa.Close()
	dst := b.MustRegister(8)

	// Two successes, then a link cut kills the third and flushes the fourth.
	for i := uint64(1); i <= 2; i++ {
		if err := qa.PostWrite(i, []byte{1}, dst.RKey(), 0, true); err != nil {
			t.Fatal(err)
		}
	}
	fi.CutLink("a", "b")
	for i := uint64(3); i <= 4; i++ {
		if err := qa.PostWrite(i, []byte{1}, dst.RKey(), 0, true); err != nil {
			t.Fatal(err)
		}
	}
	qa.Drain()

	stateGauge := reg.Gauge(`rdma_qp_state{qp="` + qa.ID() + `"}`)
	if got := QPState(stateGauge.Load()); got != QPStateError {
		t.Fatalf("rdma_qp_state = %v, want ERROR", got)
	}
	check := func(s Status, want uint64) {
		t.Helper()
		name := `rdma_completions_total{status="` + s.String() + `"}`
		if got := reg.Counter(name).Load(); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
	check(StatusSuccess, 2)
	check(StatusRetryExceeded, 1)
	check(StatusWRFlush, 1)
	if got := reg.Counter(`rdma_faults_injected_total{kind="drop"}`).Load(); got != 2 {
		t.Fatalf("injected drops = %d, want 2 (1 attempt + 1 retry)", got)
	}
}

// TestSeededInjectorIsDeterministic replays the same probabilistic scenario
// twice and expects identical drop decisions.
func TestSeededInjectorIsDeterministic(t *testing.T) {
	run := func() []bool {
		fi := NewFaultInjector(42)
		fi.SetDropRate(0.3)
		var outcomes []bool
		for i := 0; i < 64; i++ {
			act, _ := fi.decide("a", "b", "qp", 0)
			outcomes = append(outcomes, act == faultDrop)
		}
		return outcomes
	}
	first, second := run(), run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("decision %d diverged between identically-seeded runs", i)
		}
	}
}
