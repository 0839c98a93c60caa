package rdma

import (
	"sync/atomic"

	"github.com/slash-stream/slash/internal/metrics"
)

// Opcode identifies the verb a completion refers to.
type Opcode uint8

// Verbs supported by the simulator.
const (
	OpWrite Opcode = iota + 1
	OpRead
	OpSend
	OpRecv
	OpCompareSwap
	OpFetchAdd
)

// String implements fmt.Stringer.
func (op Opcode) String() string {
	switch op {
	case OpWrite:
		return "WRITE"
	case OpRead:
		return "READ"
	case OpSend:
		return "SEND"
	case OpRecv:
		return "RECV"
	case OpCompareSwap:
		return "CMP_SWAP"
	case OpFetchAdd:
		return "FETCH_ADD"
	default:
		return "UNKNOWN"
	}
}

// Completion reports the outcome of a work request.
type Completion struct {
	// WRID is the caller-chosen work request identifier.
	WRID uint64
	// Op is the verb that completed.
	Op Opcode
	// Bytes is the payload length transferred.
	Bytes int
	// Status classifies the outcome in ibverbs wc-status terms. The zero
	// value is StatusSuccess, so success completions cost nothing extra.
	Status Status
	// Err is non-nil if the request failed (bad rkey, bounds, retries
	// exhausted, flushed, ...). Err and Status always agree: Err == nil
	// iff Status == StatusSuccess.
	Err error
	// Imm carries verb-specific immediate data: the original value for
	// atomics, the sender-provided immediate for writes-with-imm.
	Imm uint64
}

// CompletionQueue collects completions. It is safe for one consumer and many
// producer queue pairs, matching the common one-CQ-per-thread deployment.
//
// As on hardware, a CQ that is not polled fast enough overruns: completions
// beyond the queue depth are dropped and the sticky Overrun flag is raised.
// Protocols that rely on completions (selective signaling surfaces errors
// this way) must poll regularly and check Overrun in their spin loops.
type CompletionQueue struct {
	ch      chan Completion
	overrun atomic.Bool
	// notify wakes a waiter armed on the CQ at the next push.
	notify Notifier

	// Optional instrumentation, attached by the owning queue pair. Atomic
	// pointers because a caller-provided CQ can be shared by QPs connecting
	// concurrently.
	depthHW atomic.Pointer[metrics.Gauge]
	dropped atomic.Pointer[metrics.Counter]
}

// NewCompletionQueue creates a CQ with the given depth.
func NewCompletionQueue(depth int) *CompletionQueue {
	if depth <= 0 {
		depth = DefaultSendQueueDepth
	}
	return &CompletionQueue{ch: make(chan Completion, depth)}
}

// TryPoll returns a completion without blocking.
func (cq *CompletionQueue) TryPoll() (Completion, bool) {
	select {
	case c := <-cq.ch:
		return c, true
	default:
		return Completion{}, false
	}
}

// Wait blocks until a completion is available.
func (cq *CompletionQueue) Wait() Completion {
	return <-cq.ch
}

// Drain polls up to max completions without blocking and returns them.
func (cq *CompletionQueue) Drain(max int) []Completion {
	var out []Completion
	for len(out) < max {
		c, ok := cq.TryPoll()
		if !ok {
			break
		}
		out = append(out, c)
	}
	return out
}

// DrainInto polls up to len(out) completions without blocking into out and
// returns how many it wrote. Unlike Drain it allocates nothing, so hot-path
// error sweeps can reuse one scratch slice across calls.
func (cq *CompletionQueue) DrainInto(out []Completion) int {
	n := 0
	for n < len(out) {
		c, ok := cq.TryPoll()
		if !ok {
			break
		}
		out[n] = c
		n++
	}
	return n
}

// Overrun reports whether any completion was ever dropped because the queue
// was full. The flag is sticky: once raised, the completion stream has a
// gap and polling-based protocols must treat the queue pair as failed.
func (cq *CompletionQueue) Overrun() bool { return cq.overrun.Load() }

// push enqueues a completion. It never blocks: when the CQ is full the
// completion is dropped and the sticky overrun flag is raised, mirroring the
// IBV_EVENT_CQ_ERR overrun semantics of real hardware. Blocking here would
// let a full CQ wedge the QP's deliverer goroutine — and with up to 2×depth
// requests in flight against a CQ of depth, a producer that only drains its
// CQ inside Post could deadlock the whole channel. Either way an armed
// waiter is woken: a dropped completion is news too.
func (cq *CompletionQueue) push(c Completion) {
	select {
	case cq.ch <- c:
		if g := cq.depthHW.Load(); g != nil {
			g.SetMax(int64(len(cq.ch)))
		}
	default:
		cq.overrun.Store(true)
		if ctr := cq.dropped.Load(); ctr != nil {
			ctr.Inc()
		}
	}
	cq.notify.Notify()
}

// Arm requests one token on wake at the CQ's next push, including one the
// queue drops on overrun. The waiter polls the CQ afterwards (see Notifier).
func (cq *CompletionQueue) Arm(wake chan<- struct{}) { cq.notify.Arm(wake) }

// attachMetrics wires the CQ's depth high-water gauge and dropped-completion
// counter. The first attachment wins when a CQ is shared across queue pairs.
func (cq *CompletionQueue) attachMetrics(depthHW *metrics.Gauge, dropped *metrics.Counter) {
	cq.depthHW.CompareAndSwap(nil, depthHW)
	cq.dropped.CompareAndSwap(nil, dropped)
}
