package core

import (
	"fmt"
	"time"

	"github.com/slash-stream/slash/internal/sched"
)

// barrier is the control plane's one acknowledged source barrier (§7.2). A
// join or leave installs a new partition-map generation only after every
// source flushed under the old one; a restart cuts at the same epoch
// boundary without the flush. Every source answers it once, at its next
// step (sourceTask.step), and idles until it is released; merge tasks keep
// draining throughout.
type barrier struct {
	mode barrierMode
	// wake is poked, never blocking, when a source answers or exits or a
	// hold pre-empts this barrier; the waiter re-checks on every poke.
	wake chan struct{}
}

type barrierMode uint8

const (
	// barrierFlush (join, leave): flush dirty fragments, then answer.
	barrierFlush barrierMode = iota
	// barrierHold (restart): answer without flushing — a flush could target
	// a link mid-teardown.
	barrierHold
)

// holdTimeout bounds a restart's wait for its hold: every live source
// answers at its next step, so one still silent after this is wedged.
const holdTimeout = 5 * time.Second

func (b *barrier) poke() {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// raise installs a barrier of mode. A hold pre-empts a pending flush barrier
// (held sources never flush, so its waiter wakes to ErrRecovering); a flush
// barrier cannot be raised over a hold.
func (r *runState) raise(mode barrierMode) (*barrier, error) {
	b := &barrier{mode: mode, wake: make(chan struct{}, 1)}
	if mode == barrierFlush {
		if !r.barrier.CompareAndSwap(nil, b) {
			return nil, ErrRecovering
		}
	} else if old := r.barrier.Swap(b); old != nil {
		old.poke()
	}
	return b, nil
}

// release lifts b only if it is still in force, so a waiter a hold
// pre-empted never lifts the hold. Lifting a hold first bumps the retry
// generation: the restart behind it rebuilt the links parked flushes wait
// for.
func (r *runState) release(b *barrier) {
	if b.mode == barrierHold {
		r.retryGen.Add(1)
	}
	r.barrier.CompareAndSwap(b, nil)
}

// await blocks until every task in sts answered b or exited. It returns
// ErrRecovering once a hold pre-empted b, the run's error once the run
// failed, and, for a hold, ErrUnrecoverable after holdTimeout.
func (r *runState) await(b *barrier, sts []*sourceTask) error {
	var expired <-chan time.Time
	if b.mode == barrierHold {
		tm := time.NewTimer(holdTimeout)
		defer tm.Stop()
		expired = tm.C
	}
	for {
		if r.barrier.Load() != b {
			return ErrRecovering
		}
		if answeredAll(b, sts) {
			return nil
		}
		select {
		case <-b.wake:
		case <-r.failed:
			return r.err()
		case <-expired:
			err := fmt.Errorf("%w: sources did not answer the restart's hold", ErrUnrecoverable)
			r.fail(err)
			return err
		}
	}
}

func answeredAll(b *barrier, sts []*sourceTask) bool {
	for _, st := range sts {
		if !st.done.Load() && !st.exited.Load() && st.answered.Load() != b {
			return false
		}
	}
	return true
}

// answer acknowledges b and idles until it is released.
func (t *sourceTask) answer(b *barrier) sched.Status {
	if t.answered.Load() != b {
		t.answered.Store(b)
		b.poke()
	}
	return sched.Idle
}
