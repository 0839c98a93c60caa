package rdma

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/slash-stream/slash/internal/metrics"
)

// QueuePair is one endpoint of a reliable RDMA connection. Work requests
// posted to a QP execute strictly in order, so writes never overtake each
// other — the delivery property the Slash channel protocol depends on
// (§6.2).
//
// Two execution paths provide that order. On an unthrottled fabric (the
// default accounting mode) requests run *inline* on the posting goroutine:
// post → charge → execute with zero hand-offs, serialized by a per-QP order
// mutex. On a throttled fabric, or whenever requests are already queued
// (a SEND stalled on receiver-not-ready keeps FIFO order by queueing
// everything behind it), requests take the pipelined engine → deliverer
// path that paces wall-clock time. Both paths deliver identical semantics:
// FIFO, selective signaling, CQ-overrun, and Drain behave the same.
//
// As with hardware verbs, buffers handed to PostWrite/PostSend must stay
// untouched until the corresponding completion is polled: the transfer is
// zero-copy on the posting side.
type QueuePair struct {
	local  *NIC
	remote *NIC
	peer   *QueuePair
	id     string

	sendCQ *CompletionQueue
	recvCQ *CompletionQueue

	wq      chan workRequest
	deliver chan delivery
	recvs   chan postedRecv

	closed atomic.Bool
	done   chan struct{}
	wg     sync.WaitGroup

	posted   atomic.Uint64
	executed atomic.Uint64

	// orderMu serializes request execution: the inline fast path holds it
	// across charge+execute, and the deliverer holds it per execution, so
	// the two paths can never interleave and the QP stays FIFO.
	orderMu sync.Mutex
	// queued counts requests accepted into the goroutine pipeline that have
	// not executed yet. The inline fast path runs only when it is zero:
	// queued == 0 under orderMu proves nothing is in flight ahead of us.
	queued atomic.Int64
	// inlineOK enables the zero-hop fast path; it is false on throttled
	// fabrics, where pacing must happen off the posting goroutine to keep
	// propagation delay from serializing back-to-back posts.
	inlineOK bool

	closeOnce sync.Once

	// errState is non-zero once the QP entered the error state; fatal then
	// holds the QPFailure that caused it. The transition happens under
	// orderMu (every execution path holds it), so by the time the failing
	// request's completion is visible, Err() already reports the cause.
	errState atomic.Uint32
	fatal    atomic.Pointer[QPFailure]

	// Failure-semantics knobs resolved from QPOptions; faults is the
	// fabric's injector, captured once so the per-request check is a plain
	// field test.
	faults     *FaultInjector
	retryCount int
	timeout    time.Duration
	rnrRetry   int // -1 = infinite (the IB rnr_retry=7 idiom)
	rnrTimeout time.Duration

	// Per-QP instrumentation; all nil when the fabric has no registry.
	mOps    [OpFetchAdd + 1]*metrics.Counter
	mErrors *metrics.Counter
	mLat    *metrics.Histogram
	mState  *metrics.Gauge
}

type workRequest struct {
	op        Opcode
	wrID      uint64
	signaled  bool
	local     []byte
	rkey      uint32
	remoteOff int
	expect    uint64
	value     uint64

	// dst is the per-request destination of a SEND posted on a dynamic
	// initiator QP (see NewInitiator); nil on connected QPs, whose
	// destination is fixed at Connect time.
	dst *SRQ

	// inline8 marks an 8-byte inline WRITE (IBV_SEND_INLINE): the payload is
	// value, carried in the request itself, and no local buffer is involved.
	inline8 bool

	// postedNanos timestamps the post for the post→completion latency
	// histogram; zero when latency tracking is off.
	postedNanos int64
}

type delivery struct {
	at time.Time
	wr workRequest
}

type postedRecv struct {
	wrID uint64
	buf  []byte
}

// Failure-semantics defaults, mirroring the IB verbs attribute ranges
// (retry_cnt and rnr_retry are 3-bit fields; rnr_retry 7 means "retry
// forever"). The timeouts are scaled to the simulator's microsecond regime.
const (
	// DefaultRetryCount is the transport retry budget when
	// QPOptions.RetryCount is zero.
	DefaultRetryCount = 7
	// RNRRetryInfinite requests unbounded receiver-not-ready retries; it
	// is also the default, matching hardware setups that never want a send
	// to fail just because the receiver is slow.
	RNRRetryInfinite = 7
	// DefaultTransportTimeout is the per-attempt ACK timeout when
	// QPOptions.Timeout is zero.
	DefaultTransportTimeout = 200 * time.Microsecond
	// DefaultRNRTimeout is the base receiver-not-ready backoff when
	// QPOptions.RNRTimeout is zero; it doubles per retry.
	DefaultRNRTimeout = 50 * time.Microsecond
)

// QPOptions configures one endpoint of a connection.
type QPOptions struct {
	// SendCQ receives completions for posted requests. Created if nil.
	SendCQ *CompletionQueue
	// RecvCQ receives completions for posted receives. Created if nil.
	RecvCQ *CompletionQueue
	// QueueDepth overrides the fabric's send queue depth if positive.
	QueueDepth int

	// RetryCount is the transport retry budget: how many times a
	// transmission attempt the fault injector dropped is retried (after
	// Timeout each) before the request completes with
	// StatusRetryExceeded. Zero selects DefaultRetryCount; negative means
	// no retries. Irrelevant without a fault injector — a healthy
	// simulated fabric never loses a packet.
	RetryCount int
	// Timeout is the per-attempt ACK timeout before a retransmit. Zero
	// selects DefaultTransportTimeout.
	Timeout time.Duration
	// RNRRetry bounds receiver-not-ready retries for SENDs: how many
	// times the sender re-arms after RNRTimeout (doubling each retry,
	// exponential backoff) while the peer has no receive posted, before
	// the send completes with StatusRNRRetryExceeded. Zero or
	// RNRRetryInfinite (7) and above mean retry forever, as on hardware;
	// negative means no retries.
	RNRRetry int
	// RNRTimeout is the base receiver-not-ready backoff. Zero selects
	// DefaultRNRTimeout.
	RNRTimeout time.Duration
}

// Connect establishes a reliable connection between two NICs and returns the
// two queue pair endpoints. This corresponds to the out-of-band QP exchange
// of the setup phase (§6.2).
func Connect(a, b *NIC, aOpt, bOpt QPOptions) (*QueuePair, *QueuePair, error) {
	if a == b {
		return nil, nil, ErrSameNIC
	}
	if a.fabric != b.fabric {
		return nil, nil, ErrOtherFabric
	}
	qa := newQP(a, b, aOpt)
	qb := newQP(b, a, bOpt)
	qa.peer, qb.peer = qb, qa
	qa.start()
	qb.start()
	return qa, qb, nil
}

// NewInitiator creates a dynamic initiator queue pair on the NIC: a send-only
// endpoint with no fixed remote, the DC-transport idiom that makes QP count
// grow with nodes instead of node pairs. Each SEND names its destination SRQ
// per request (PostSendTo); one initiator can therefore reach every node on
// the fabric. One-sided verbs (WRITE/READ/atomics) and PostRecv need a
// connected remote and are rejected with ErrNotConnected.
func NewInitiator(nic *NIC, opt QPOptions) *QueuePair {
	qp := newQP(nic, nil, opt)
	qp.start()
	return qp
}

func newQP(local, remote *NIC, opt QPOptions) *QueuePair {
	depth := opt.QueueDepth
	if depth <= 0 {
		depth = local.fabric.cfg.SendQueueDepth
	}
	qp := &QueuePair{
		local:   local,
		remote:  remote,
		sendCQ:  opt.SendCQ,
		recvCQ:  opt.RecvCQ,
		wq:      make(chan workRequest, depth),
		deliver: make(chan delivery, depth),
		recvs:   make(chan postedRecv, depth),
		done:    make(chan struct{}),
	}
	qp.inlineOK = !local.fabric.cfg.Throttle
	qp.faults = local.fabric.cfg.Faults
	qp.retryCount = opt.RetryCount
	if qp.retryCount == 0 {
		qp.retryCount = DefaultRetryCount
	} else if qp.retryCount < 0 {
		qp.retryCount = 0
	}
	qp.timeout = opt.Timeout
	if qp.timeout == 0 {
		qp.timeout = DefaultTransportTimeout
	}
	switch {
	case opt.RNRRetry == 0 || opt.RNRRetry >= RNRRetryInfinite:
		qp.rnrRetry = -1
	case opt.RNRRetry < 0:
		qp.rnrRetry = 0
	default:
		qp.rnrRetry = opt.RNRRetry
	}
	qp.rnrTimeout = opt.RNRTimeout
	if qp.rnrTimeout == 0 {
		qp.rnrTimeout = DefaultRNRTimeout
	}
	if qp.sendCQ == nil {
		qp.sendCQ = NewCompletionQueue(depth)
	}
	if qp.recvCQ == nil {
		qp.recvCQ = NewCompletionQueue(depth)
	}
	rname := "*" // dynamic initiator: the destination varies per request
	if remote != nil {
		rname = remote.name
	}
	qp.id = fmt.Sprintf("%s->%s#%d", local.name, rname, local.fabric.qpSeq.Add(1))
	if reg := local.fabric.cfg.Metrics; reg != nil {
		for _, op := range []Opcode{OpWrite, OpRead, OpSend, OpCompareSwap, OpFetchAdd} {
			qp.mOps[op] = reg.Counter(fmt.Sprintf("rdma_qp_%ss_total{qp=%q}", opMetricName(op), qp.id))
		}
		qp.mErrors = reg.Counter(fmt.Sprintf("rdma_qp_errors_total{qp=%q}", qp.id))
		qp.mLat = reg.Histogram(fmt.Sprintf("rdma_qp_post_to_completion_ns{qp=%q}", qp.id))
		qp.mState = reg.Gauge(fmt.Sprintf("rdma_qp_state{qp=%q}", qp.id))
		qp.sendCQ.attachMetrics(
			reg.Gauge(fmt.Sprintf("rdma_cq_depth_max{cq=%q}", qp.id+"/send")),
			reg.Counter(fmt.Sprintf("rdma_cq_dropped_total{cq=%q}", qp.id+"/send")),
		)
		qp.recvCQ.attachMetrics(
			reg.Gauge(fmt.Sprintf("rdma_cq_depth_max{cq=%q}", qp.id+"/recv")),
			reg.Counter(fmt.Sprintf("rdma_cq_dropped_total{cq=%q}", qp.id+"/recv")),
		)
	}
	return qp
}

// opMetricName is the lowercase metric stem for an opcode.
func opMetricName(op Opcode) string {
	switch op {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpSend:
		return "send"
	case OpCompareSwap:
		return "compare_swap"
	case OpFetchAdd:
		return "fetch_add"
	default:
		return "op"
	}
}

func (qp *QueuePair) start() {
	qp.wg.Add(2)
	go qp.engine()
	go qp.deliverer()
}

// SendCQ returns the completion queue for posted requests.
func (qp *QueuePair) SendCQ() *CompletionQueue { return qp.sendCQ }

// RecvCQ returns the completion queue for posted receives.
func (qp *QueuePair) RecvCQ() *CompletionQueue { return qp.recvCQ }

// ID returns the fabric-unique identifier of this endpoint, e.g.
// "node0->node1#3". It labels the QP's metric series.
func (qp *QueuePair) ID() string { return qp.id }

// LocalNIC returns the NIC this endpoint posts from.
func (qp *QueuePair) LocalNIC() *NIC { return qp.local }

// RemoteNIC returns the NIC on the passive side of this endpoint.
func (qp *QueuePair) RemoteNIC() *NIC { return qp.remote }

// State reports the endpoint's lifecycle state. The error state takes
// precedence over closed so a post-mortem still shows why the QP died.
func (qp *QueuePair) State() QPState {
	if qp.errState.Load() != 0 {
		return QPStateError
	}
	if qp.closed.Load() {
		return QPStateClosed
	}
	return QPStateRTS
}

// Err returns the QPFailure that moved this endpoint into the error state,
// or nil while it is healthy. The failure names the link (the QP id embeds
// both NIC names) and the work-completion status of the request that died.
func (qp *QueuePair) Err() error {
	if f := qp.fatal.Load(); f != nil {
		return f
	}
	return nil
}

// enterError transitions the QP into the error state. Called under orderMu
// (all execution paths hold it), so the first failure wins and the recorded
// cause is the completion that actually triggered the transition.
func (qp *QueuePair) enterError(err error) {
	if qp.errState.CompareAndSwap(0, 1) {
		qp.fatal.Store(&QPFailure{QP: qp.id, Status: statusOf(err), Err: err})
		qp.mState.Set(int64(QPStateError))
	}
}

// Reset returns an errored queue pair to service — the simulator's stand-in
// for the ERR→RESET→INIT→RTR→RTS ibv_modify_qp recycle an application
// performs to reuse a connection after a failure. It waits for the pipeline
// to finish flushing so no pre-failure request can execute after the reset.
// The caller must quiesce its own posts for the duration.
func (qp *QueuePair) Reset() error {
	if qp.closed.Load() {
		return ErrQPClosed
	}
	if qp.errState.Load() == 0 {
		return ErrQPNotInError
	}
	for qp.queued.Load() != 0 {
		runtime.Gosched()
	}
	qp.orderMu.Lock()
	qp.fatal.Store(nil)
	qp.errState.Store(0)
	qp.mState.Set(int64(QPStateRTS))
	qp.orderMu.Unlock()
	return nil
}

// Close tears the endpoint down. In-flight requests may be dropped.
func (qp *QueuePair) Close() {
	qp.closeOnce.Do(func() {
		qp.closed.Store(true)
		close(qp.done)
	})
	qp.wg.Wait()
	// Quiesce the inline path: an inline execution that won the closed-check
	// race finishes under orderMu before Close returns.
	qp.orderMu.Lock()
	qp.orderMu.Unlock() //nolint:staticcheck // empty critical section is the barrier
}

func (qp *QueuePair) post(wr workRequest) error {
	if qp.closed.Load() {
		return ErrQPClosed
	}
	if qp.remote == nil && wr.dst == nil {
		return ErrNotConnected
	}
	if qp.mLat != nil {
		wr.postedNanos = time.Now().UnixNano()
	}
	// Zero-hop fast path: on an unthrottled fabric with an empty pipeline the
	// request executes inline on the posting goroutine — no engine/deliverer
	// hand-offs. SENDs always take the pipeline: they stall on
	// receiver-not-ready and must not block the poster. queued is re-checked
	// under orderMu — zero there proves nothing can execute ahead of this
	// request, so FIFO order holds across path switches. TryLock keeps post
	// non-blocking: if the deliverer (or another poster) holds the order
	// mutex the request simply queues behind it.
	if qp.inlineOK && wr.op != OpSend && qp.queued.Load() == 0 && qp.orderMu.TryLock() {
		if qp.queued.Load() == 0 && !qp.closed.Load() {
			// Count the post before executing so a concurrent Drain never
			// observes executed > posted.
			qp.posted.Add(1)
			qp.mOps[wr.op].Inc()
			// Requests destined to flush never hit the wire, so they are
			// not charged against the fabric.
			if qp.errState.Load() == 0 {
				qp.charge(wr)
			}
			qp.execute(wr)
			qp.orderMu.Unlock()
			return nil
		}
		qp.orderMu.Unlock()
		if qp.closed.Load() {
			return ErrQPClosed
		}
	}
	// Pipelined slow path. Count the post before handing the request to the
	// engine. The reverse order would let the engine bump executed past
	// posted, and a concurrent Drain could then return while this post is
	// still in flight. queued is bumped before the enqueue so a later inline
	// post cannot overtake a request that is already committed to the
	// pipeline.
	qp.posted.Add(1)
	qp.queued.Add(1)
	select {
	case qp.wq <- wr:
		qp.mOps[wr.op].Inc()
		return nil
	case <-qp.done:
		qp.posted.Add(^uint64(0)) // roll back: the request was never enqueued
		qp.queued.Add(-1)
		return ErrQPClosed
	}
}

// Drain blocks until every posted work request has been executed. Use it
// before Close for a graceful shutdown that delivers in-flight writes.
//
// The engine only increments executed after receiving a request whose post
// already incremented posted, so executed can never overtake posted and
// Drain cannot return early while a post is in flight.
func (qp *QueuePair) Drain() {
	for qp.executed.Load() < qp.posted.Load() {
		if qp.closed.Load() {
			return
		}
		runtime.Gosched()
	}
}

// PostWrite posts a one-sided RDMA WRITE of buf into the remote region
// identified by rkey at remoteOff. The remote CPU is not involved. If
// signaled is false, no completion is generated on success (selective
// signaling, §2.1); failures always complete with an error.
func (qp *QueuePair) PostWrite(wrID uint64, buf []byte, rkey uint32, remoteOff int, signaled bool) error {
	if len(buf) == 0 {
		return ErrZeroLength
	}
	return qp.post(workRequest{op: OpWrite, wrID: wrID, signaled: signaled, local: buf, rkey: rkey, remoteOff: remoteOff})
}

// PostWriteU64 posts an inline one-sided WRITE of an 8-byte little-endian
// value to an 8-byte-aligned remote offset. The value travels inside the
// work request (the IBV_SEND_INLINE idiom), so the caller needs no
// registered source buffer and is free to forget the value as soon as the
// post returns. The store is performed under the target region's atomic
// lock, so a peer reading the location with AtomicLoad never observes a
// torn value — the property the channel's cumulative credit counter relies
// on (§6.2).
func (qp *QueuePair) PostWriteU64(wrID uint64, rkey uint32, remoteOff int, value uint64, signaled bool) error {
	return qp.post(workRequest{op: OpWrite, wrID: wrID, signaled: signaled, rkey: rkey, remoteOff: remoteOff, value: value, inline8: true})
}

// PostRead posts a one-sided RDMA READ of len(buf) bytes from the remote
// region at remoteOff into buf. Reads cost a full round trip (§6.3). The
// data in buf is valid once the completion is polled.
func (qp *QueuePair) PostRead(wrID uint64, buf []byte, rkey uint32, remoteOff int) error {
	if len(buf) == 0 {
		return ErrZeroLength
	}
	return qp.post(workRequest{op: OpRead, wrID: wrID, signaled: true, local: buf, rkey: rkey, remoteOff: remoteOff})
}

// PostSend posts a two-sided SEND. It is matched with a receive buffer
// posted on the peer; the engine stalls (receiver-not-ready) until one is
// available.
func (qp *QueuePair) PostSend(wrID uint64, buf []byte, signaled bool) error {
	if len(buf) == 0 {
		return ErrZeroLength
	}
	return qp.post(workRequest{op: OpSend, wrID: wrID, signaled: signaled, local: buf})
}

// PostSendTo posts a two-sided SEND on a dynamic initiator QP (NewInitiator)
// to the given destination SRQ. The request keeps the initiator's FIFO
// order relative to every other request on the same QP regardless of
// destination, exactly like DC transport: one send queue, many targets.
func (qp *QueuePair) PostSendTo(dst *SRQ, wrID uint64, buf []byte, signaled bool) error {
	if len(buf) == 0 {
		return ErrZeroLength
	}
	if dst == nil {
		return ErrNotConnected
	}
	if qp.remote != nil {
		return ErrNotDynamic
	}
	return qp.post(workRequest{op: OpSend, wrID: wrID, signaled: signaled, local: buf, dst: dst})
}

// SendWR describes one WQE of a doorbell batch.
type SendWR struct {
	// WRID identifies the request's completion.
	WRID uint64
	// Buf is the payload; it must stay untouched until the completion.
	Buf []byte
	// Signaled requests a success completion (errors always complete).
	Signaled bool
}

// PostSendBatchTo posts a chain of SENDs to one destination with a single
// doorbell: the whole chain is validated and committed under one closed
// check, modelling the ibv_post_send linked-WR idiom where the HCA fetches
// n WQEs per doorbell ring. Returns how many WRs were accepted; on error
// the remaining WRs were not posted.
func (qp *QueuePair) PostSendBatchTo(dst *SRQ, wrs []SendWR) (int, error) {
	if dst == nil {
		return 0, ErrNotConnected
	}
	if qp.remote != nil {
		return 0, ErrNotDynamic
	}
	for i, w := range wrs {
		if len(w.Buf) == 0 {
			return i, ErrZeroLength
		}
		if err := qp.post(workRequest{op: OpSend, wrID: w.WRID, signaled: w.Signaled, local: w.Buf, dst: dst}); err != nil {
			return i, err
		}
	}
	return len(wrs), nil
}

// PostRecv posts a receive buffer for incoming SENDs. The completion on the
// receive CQ reports the number of bytes written into buf.
func (qp *QueuePair) PostRecv(wrID uint64, buf []byte) error {
	if len(buf) == 0 {
		return ErrZeroLength
	}
	if qp.remote == nil {
		return ErrNotConnected // a dynamic initiator never receives; use an SRQ
	}
	if qp.closed.Load() {
		return ErrQPClosed
	}
	select {
	case qp.recvs <- postedRecv{wrID: wrID, buf: buf}:
		return nil
	case <-qp.done:
		return ErrQPClosed
	}
}

// PostCompareSwap posts a remote 8-byte compare-and-swap at remoteOff. The
// completion's Imm field carries the original value.
func (qp *QueuePair) PostCompareSwap(wrID uint64, rkey uint32, remoteOff int, expect, swap uint64) error {
	return qp.post(workRequest{op: OpCompareSwap, wrID: wrID, signaled: true, rkey: rkey, remoteOff: remoteOff, expect: expect, value: swap})
}

// PostFetchAdd posts a remote 8-byte fetch-and-add at remoteOff. The
// completion's Imm field carries the value before the add.
func (qp *QueuePair) PostFetchAdd(wrID uint64, rkey uint32, remoteOff int, delta uint64) error {
	return qp.post(workRequest{op: OpFetchAdd, wrID: wrID, signaled: true, rkey: rkey, remoteOff: remoteOff, value: delta})
}

// remoteNICOf resolves the responder NIC of a request: the per-request SRQ
// destination on a dynamic initiator, the connected peer otherwise.
func (qp *QueuePair) remoteNICOf(wr workRequest) *NIC {
	if wr.dst != nil {
		return wr.dst.nic
	}
	return qp.remote
}

// charge accounts the transfer cost of wr against the fabric and returns
// the propagation latency a throttled deliverer must pace (meaningless when
// the fabric is unthrottled). Reads and atomics are responder-driven: the
// payload is serialized by the remote NIC and they pay a round trip.
func (qp *QueuePair) charge(wr workRequest) time.Duration {
	size := len(wr.local)
	if wr.op == OpCompareSwap || wr.op == OpFetchAdd || wr.inline8 {
		size = 8
	}
	lat := qp.local.fabric.cfg.BaseLatency
	switch wr.op {
	case OpRead:
		qp.remoteNICOf(wr).chargeTx(size)
		lat *= 2
	case OpCompareSwap, OpFetchAdd:
		qp.local.chargeTx(size)
		lat *= 2
	default:
		qp.local.chargeTx(size)
	}
	return lat
}

// engine drains the send work queue in FIFO order, charging transfer costs
// and handing requests to the deliverer for (possibly delayed) execution.
func (qp *QueuePair) engine() {
	defer qp.wg.Done()
	defer close(qp.deliver)
	cfg := qp.local.fabric.cfg
	for {
		select {
		case wr := <-qp.wq:
			var lat time.Duration
			// Requests that will flush are neither charged nor paced: a
			// dead QP flushes its queue at host speed.
			if qp.errState.Load() == 0 {
				lat = qp.charge(wr)
			}
			at := time.Time{}
			if cfg.Throttle && lat > 0 {
				at = time.Now().Add(lat)
			}
			select {
			case qp.deliver <- delivery{at: at, wr: wr}:
			case <-qp.done:
				return
			}
		case <-qp.done:
			return
		}
	}
}

// deliverer executes requests in order, optionally waiting for their
// simulated arrival time. Keeping delivery separate from pacing preserves
// pipelining: a message's propagation delay does not block the next
// message's serialization. Execution happens under the per-QP order mutex
// so the pipeline can never interleave with the inline fast path; queued is
// only decremented after the request executes, keeping later inline posts
// behind everything committed to the pipeline.
func (qp *QueuePair) deliverer() {
	defer qp.wg.Done()
	for d := range qp.deliver {
		if !d.at.IsZero() {
			pace(d.at)
		}
		qp.orderMu.Lock()
		qp.execute(d.wr)
		qp.queued.Add(-1)
		qp.orderMu.Unlock()
	}
}

// execute runs one work request under orderMu. On a QP already in the error
// state the request flushes: it never touches the wire or remote memory and
// completes with StatusWRFlush, preserving post order because every request
// behind it flushes too. A fresh failure — injected or a genuine remote
// access error — completes with its real status and transitions the QP, so
// exactly one completion per error-state episode carries the root cause.
func (qp *QueuePair) execute(wr workRequest) {
	if qp.errState.Load() != 0 {
		qp.completeError(wr, ErrWRFlush)
		return
	}
	if qp.faults != nil {
		if err := qp.preflight(wr); err != nil {
			qp.enterError(err)
			qp.completeError(wr, err)
			return
		}
	}
	var comp Completion
	comp.WRID = wr.wrID
	comp.Op = wr.op
	switch wr.op {
	case OpWrite:
		comp.Bytes = len(wr.local)
		if wr.inline8 {
			comp.Bytes = 8
		}
		comp.Err = qp.doWrite(wr)
	case OpRead:
		comp.Bytes = len(wr.local)
		comp.Err = qp.doRead(wr)
	case OpSend:
		comp.Bytes = len(wr.local)
		comp.Err = qp.doSend(wr)
	case OpCompareSwap, OpFetchAdd:
		comp.Bytes = 8
		comp.Imm, comp.Err = qp.doAtomic(wr)
	}
	if comp.Err != nil {
		comp.Status = statusOf(comp.Err)
		// A SEND aborted by Close completes with ErrQPClosed but is a
		// teardown, not a failure: it must not latch the error state.
		if comp.Err != ErrQPClosed {
			qp.enterError(comp.Err)
		}
		qp.mErrors.Inc()
	}
	if wr.postedNanos != 0 {
		qp.mLat.Observe(time.Now().UnixNano() - wr.postedNanos)
	}
	if wr.signaled || comp.Err != nil {
		qp.sendCQ.push(comp)
		qp.local.fabric.countCompletion(comp.Status)
	}
	qp.executed.Add(1)
}

// completeError finishes a work request with an error completion without
// executing it. Error completions are always pushed, signaled or not.
func (qp *QueuePair) completeError(wr workRequest, err error) {
	st := statusOf(err)
	qp.mErrors.Inc()
	if wr.postedNanos != 0 {
		qp.mLat.Observe(time.Now().UnixNano() - wr.postedNanos)
	}
	qp.sendCQ.push(Completion{WRID: wr.wrID, Op: wr.op, Status: st, Err: err})
	qp.local.fabric.countCompletion(st)
	qp.executed.Add(1)
}

// preflight consults the fault injector before a request touches remote
// memory, modelling the requester-side transport loop: a dropped attempt is
// retried after the ACK timeout until the retry budget runs out. It returns
// nil when the request may execute, or the transport error it must complete
// with. Sleeps happen under orderMu — retransmission head-of-line blocks the
// QP exactly like real RC transport.
func (qp *QueuePair) preflight(wr workRequest) error {
	for attempt := 0; ; attempt++ {
		act, d := qp.faults.decide(qp.local.name, qp.remoteNICOf(wr).name, qp.id, attempt)
		switch act {
		case faultNone:
			return nil
		case faultDelay:
			time.Sleep(d)
			return nil
		case faultFailQP:
			return ErrRetryExceeded
		case faultDrop:
			if attempt >= qp.retryCount {
				return ErrRetryExceeded
			}
			time.Sleep(qp.timeout)
		}
	}
}

func (qp *QueuePair) doWrite(wr workRequest) error {
	mr, err := qp.remote.lookupRegion(wr.rkey)
	if err != nil {
		return err
	}
	if !mr.allows(AccessRemoteWrite) {
		return ErrAccessDenied
	}
	if wr.inline8 {
		if err := mr.checkRange(wr.remoteOff, 8); err != nil {
			return err
		}
		if wr.remoteOff%8 != 0 {
			return ErrMisaligned
		}
		// The inline payload lands as one aligned 8-byte store under the
		// region's atomic lock, so AtomicLoad on the peer can never observe
		// a torn value.
		mr.atomicMu.Lock()
		putLEU64(mr.buf[wr.remoteOff:], wr.value)
		mr.atomicMu.Unlock()
		mr.publish()
		qp.remote.chargeRx(8)
		return nil
	}
	if err := mr.checkRange(wr.remoteOff, len(wr.local)); err != nil {
		return err
	}
	// Payload lands from lower to higher addresses, then the region's
	// write version is published with release semantics. A poller that
	// observes the new version observes every payload byte (§6.3).
	copy(mr.buf[wr.remoteOff:], wr.local)
	mr.publish()
	qp.remote.chargeRx(len(wr.local))
	return nil
}

func (qp *QueuePair) doRead(wr workRequest) error {
	mr, err := qp.remote.lookupRegion(wr.rkey)
	if err != nil {
		return err
	}
	if !mr.allows(AccessRemoteRead) {
		return ErrAccessDenied
	}
	if err := mr.checkRange(wr.remoteOff, len(wr.local)); err != nil {
		return err
	}
	// Reads serialize against the region's atomic lock so that a passive
	// producer can publish local writes to remote readers through
	// AtomicStore (the pull-transfer pattern of the §6.3 ablation).
	mr.atomicMu.Lock()
	copy(wr.local, mr.buf[wr.remoteOff:wr.remoteOff+len(wr.local)])
	mr.atomicMu.Unlock()
	qp.local.chargeRx(len(wr.local))
	return nil
}

// doSend matches a two-sided SEND with a receive posted on the target: the
// connected peer's receive queue, or the per-request destination SRQ on a
// dynamic initiator. With the default infinite RNR budget the sender stalls
// until one appears (receiver-not-ready, the behavior the FIFO tests pin
// down); with a finite QPOptions.RNRRetry it re-arms with exponentially
// growing backoff and completes with StatusRNRRetryExceeded once the budget
// is spent. A destination torn down mid-wait completes with ErrQPClosed —
// a teardown, not a failure (see execute).
func (qp *QueuePair) doSend(wr workRequest) error {
	var (
		recvs chan postedRecv
		rdone chan struct{}
		rcq   *CompletionQueue
	)
	if wr.dst != nil {
		recvs, rdone, rcq = wr.dst.recvs, wr.dst.done, wr.dst.cq
	} else {
		recvs, rdone, rcq = qp.peer.recvs, qp.peer.done, qp.peer.recvCQ
	}
	var pr postedRecv
	if qp.rnrRetry < 0 {
		select {
		case pr = <-recvs:
		case <-qp.done:
			return ErrQPClosed
		case <-rdone:
			return ErrQPClosed
		}
	} else {
		backoff := qp.rnrTimeout
		matched := false
		for attempt := 0; attempt <= qp.rnrRetry && !matched; attempt++ {
			timer := time.NewTimer(backoff)
			select {
			case pr = <-recvs:
				matched = true
			case <-qp.done:
				timer.Stop()
				return ErrQPClosed
			case <-rdone:
				timer.Stop()
				return ErrQPClosed
			case <-timer.C:
				backoff *= 2
				continue
			}
			timer.Stop()
		}
		if !matched {
			return ErrRNRRetryExceeded
		}
	}
	if len(pr.buf) < len(wr.local) {
		rcq.push(Completion{WRID: pr.wrID, Op: OpRecv, Status: StatusRemoteAccessErr, Err: ErrRecvTooSmall})
		qp.local.fabric.countCompletion(StatusRemoteAccessErr)
		return ErrRecvTooSmall
	}
	copy(pr.buf, wr.local)
	qp.remoteNICOf(wr).chargeRx(len(wr.local))
	rcq.push(Completion{WRID: pr.wrID, Op: OpRecv, Bytes: len(wr.local)})
	qp.local.fabric.countCompletion(StatusSuccess)
	return nil
}

func (qp *QueuePair) doAtomic(wr workRequest) (uint64, error) {
	mr, err := qp.remote.lookupRegion(wr.rkey)
	if err != nil {
		return 0, err
	}
	if !mr.allows(AccessRemoteAtomic) {
		return 0, ErrAccessDenied
	}
	if err := mr.checkRange(wr.remoteOff, 8); err != nil {
		return 0, err
	}
	if wr.remoteOff%8 != 0 {
		return 0, ErrMisaligned
	}
	mr.atomicMu.Lock()
	orig := leU64(mr.buf[wr.remoteOff:])
	switch wr.op {
	case OpCompareSwap:
		if orig == wr.expect {
			putLEU64(mr.buf[wr.remoteOff:], wr.value)
		}
	case OpFetchAdd:
		putLEU64(mr.buf[wr.remoteOff:], orig+wr.value)
	}
	mr.atomicMu.Unlock()
	mr.publish()
	qp.remote.chargeRx(8)
	return orig, nil
}
