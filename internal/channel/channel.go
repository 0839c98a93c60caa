// Package channel implements the Slash RDMA channel (§6): a point-to-point,
// FIFO, zero-copy data channel built on an RDMA-shared circular queue with
// credit-based flow control.
//
// The circular queue lives in the consumer's registered memory as c
// contiguous fixed-size slots (a flat layout: the payload is packed
// right-aligned against the footer, so one RDMA WRITE of used+footer
// bytes transfers both, §6.3). The producer stages
// outgoing buffers in its own registered ring and pushes them with one-sided
// RDMA WRITEs; the consumer polls local memory for arrival and processes the
// data region in place. Credits flow back through a cumulative 8-byte
// counter in the producer's registered memory: the consumer coalesces up to
// c/2 releases into one inline WRITE of its running release total (flushing
// early on an idle poll and on Close), and the producer computes available
// credits from the counter — never involving the consumer's CPU beyond the
// post. A producer out of credits spins briefly, then parks on a wake armed
// at its credit region and send CQ instead of taking the core its consumer
// needs to return the credit.
//
// Protocol invariants (§6.2), enforced and tested here:
//
//  1. A producer decrements its credit on every posted buffer.
//  2. A consumer returns exactly one credit per processed buffer — the
//     credit counter always equals the number of released buffers, even
//     though several releases may travel in one WRITE.
//  3. A producer with zero credits cannot acquire a slot, so it can never
//     overwrite a buffer the consumer has not released.
//
// Under these rules delivery is FIFO at a self-adjusting rate.
package channel

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/slash-stream/slash/internal/metrics"
	"github.com/slash-stream/slash/internal/rdma"
)

// FooterSize is the per-slot metadata footer: a 4-byte payload length, three
// reserved bytes, and the final polling byte (§6.3 — polling the last byte
// of the footer guarantees the whole buffer has landed, because RDMA WRITEs
// fill memory from lower to higher addresses).
const FooterSize = 8

// DefaultCredits is the slot count used when Config.Credits is zero. The
// paper finds c = 8 best on its hardware (§8.3.2).
const DefaultCredits = 8

// DefaultSlotSize is the per-slot size used when Config.SlotSize is zero.
// 32 KB saturates the simulated link in the paper's Fig. 8a sweep.
const DefaultSlotSize = 32 * 1024

// Config describes one RDMA channel.
type Config struct {
	// Credits is the number of slots c in the circular queue. It bounds
	// the producer's in-flight buffers (the pipelining depth).
	Credits int
	// SlotSize is the size m of one slot in bytes, including the footer.
	SlotSize int
	// CreditWaitTimeout bounds how long Acquire waits for a credit.
	// Zero (the default) waits forever — correct for healthy fabrics, where
	// a credit always comes back. With a fault injector in play a dead
	// consumer or cut link makes credits stop flowing without any completion
	// ever failing on the producer's QP, so a bounded wait is the only way a
	// producer notices. On expiry the endpoint latches ErrCreditTimeout and
	// Acquire returns nil.
	CreditWaitTimeout time.Duration
}

func (c *Config) fill() error {
	if c.Credits == 0 {
		c.Credits = DefaultCredits
	}
	if c.SlotSize == 0 {
		c.SlotSize = DefaultSlotSize
	}
	if c.Credits < 1 {
		return fmt.Errorf("channel: credits %d < 1", c.Credits)
	}
	if c.SlotSize < FooterSize+1 {
		return fmt.Errorf("channel: slot size %d too small", c.SlotSize)
	}
	return nil
}

// Errors returned by the channel API.
var (
	ErrPayloadSize   = errors.New("channel: payload exceeds data region")
	ErrReleaseOrder  = errors.New("channel: buffers must be released in FIFO order")
	ErrClosed        = errors.New("channel: closed")
	ErrDoubleRelease = errors.New("channel: buffer already released")
	// ErrCreditTimeout is latched when Acquire waited longer than
	// Config.CreditWaitTimeout for a credit — the signature of a consumer
	// (or the link to it) dying silently from the producer's perspective.
	ErrCreditTimeout = errors.New("channel: timed out waiting for credit")
)

// stickyErr latches the first fatal error of a channel endpoint. Every entry
// point checks it, so after one failure the endpoint refuses further work
// with the root cause rather than a cascade of secondary errors. The box
// indirection keeps CompareAndSwap safe: error values of differing concrete
// types cannot be CASed directly.
type stickyErr struct {
	p atomic.Pointer[errBox]
}

type errBox struct{ err error }

// get returns the latched error, or nil while the endpoint is healthy.
func (s *stickyErr) get() error {
	if b := s.p.Load(); b != nil {
		return b.err
	}
	return nil
}

// latch records err if no error is latched yet and reports whether this call
// won the race. A nil err never latches.
func (s *stickyErr) latch(err error) bool {
	if err == nil {
		return false
	}
	return s.p.CompareAndSwap(nil, &errBox{err: err})
}

// New builds an RDMA channel from the producer's NIC to the consumer's NIC.
// This is the setup phase of the protocol (§6.2): it allocates the circular
// queues in registered memory on both sides and establishes the reliable
// connection.
func New(prodNIC, consNIC *rdma.NIC, cfg Config) (*Producer, *Consumer, error) {
	if err := cfg.fill(); err != nil {
		return nil, nil, err
	}
	ring, err := consNIC.RegisterMemory(cfg.Credits * cfg.SlotSize)
	if err != nil {
		return nil, nil, err
	}
	staging, err := prodNIC.RegisterMemory(cfg.Credits * cfg.SlotSize)
	if err != nil {
		ring.Deregister()
		return nil, nil, err
	}
	// The credit region is the cumulative release counter: one 8-byte
	// little-endian total, written inline by the consumer and read with
	// AtomicLoad by the producer.
	creditMR, err := prodNIC.RegisterMemory(8)
	if err != nil {
		ring.Deregister()
		staging.Deregister()
		return nil, nil, err
	}
	qpProd, qpCons, err := rdma.Connect(prodNIC, consNIC, rdma.QPOptions{}, rdma.QPOptions{})
	if err != nil {
		ring.Deregister()
		staging.Deregister()
		creditMR.Deregister()
		return nil, nil, err
	}
	p, err := NewProducer(cfg, qpProd, qpProd.SendCQ(), staging, creditMR, ring.RKey())
	if err != nil {
		return nil, nil, err
	}
	c, err := NewConsumer(cfg, qpCons, qpCons.SendCQ(), ring, creditMR.RKey())
	if err != nil {
		return nil, nil, err
	}
	if reg := prodNIC.Fabric().Metrics(); reg != nil {
		// The producer QP id is fabric-unique, so it doubles as the
		// channel label even when several channels share a NIC pair.
		ch := fmt.Sprintf("{ch=%q}", qpProd.ID())
		p.mStallNs = reg.Counter("channel_credit_stall_ns_total" + ch)
		p.mStalls = reg.Counter("channel_credit_stalls_total" + ch)
		p.mSpins = reg.Counter("channel_acquire_spins_total" + ch)
		p.mParks = reg.Counter("channel_credit_parks_total" + ch)
		p.mPosted = reg.Counter("channel_slots_posted_total" + ch)
		c.mReleased = reg.Counter("channel_slots_released_total" + ch)
		c.mCreditWrites = reg.Counter("channel_credit_writes_total" + ch)
		c.mPollMisses = reg.Counter("channel_poll_misses_total" + ch)
		c.mBacklogMax = reg.Gauge("channel_backlog_slots_max" + ch)
		p.mEndpErrs = reg.Counter(fmt.Sprintf("channel_endpoint_errors_total{ch=%q,side=\"producer\"}", qpProd.ID()))
		c.mEndpErrs = reg.Counter(fmt.Sprintf("channel_endpoint_errors_total{ch=%q,side=\"consumer\"}", qpProd.ID()))
	}
	return p, c, nil
}

// Producer is the sending endpoint of an RDMA channel.
type Producer struct {
	cfg      Config
	qp       Verbs
	cq       CompletionSource
	staging  Memory
	ringRKey uint32
	creditMR Memory

	// bufs is the preallocated SendBuffer ring, one per staging slot;
	// Acquire hands out &bufs[seq%c] without allocating.
	bufs []SendBuffer

	sent     atomic.Uint64 // buffers posted so far
	acquired bool
	closed   atomic.Bool

	// wake is the one channel a parked Acquire sleeps on. Arming the credit
	// region and the send CQ hands it out (see arm); Close sends on it too.
	// Buffered so no waker ever blocks. timer bounds a park by
	// CreditWaitTimeout; it is made on the first timed park and reused.
	wake  chan struct{}
	timer *time.Timer

	// err latches the first fatal endpoint error (async completion failure,
	// CQ overrun, credit timeout); see stickyErr.
	err stickyErr

	// Credit-stall instrumentation (§6.2 step 3: wait for credit); all nil
	// without a fabric metrics registry.
	mStallNs  *metrics.Counter
	mStalls   *metrics.Counter
	mSpins    *metrics.Counter
	mParks    *metrics.Counter
	mPosted   *metrics.Counter
	mEndpErrs *metrics.Counter
}

// fail latches err as the endpoint's sticky error and returns the error the
// endpoint actually died with (the first latched one wins).
func (p *Producer) fail(err error) error {
	if p.err.latch(err) {
		p.mEndpErrs.Inc()
	}
	return p.err.get()
}

// SendBuffer is a slot acquired from the producer's staging ring. Data is
// the writable data region (slot minus footer).
type SendBuffer struct {
	Data []byte
	// Thread and Epoch tag the chunk for transports that frame per logical
	// channel (the trunk's 24-byte header). The per-pair producer ignores
	// them — its payload already carries the chunk header — so setting them
	// is free on both transports.
	Thread uint32
	Epoch  uint64
	seq    uint64
}

// DataSize returns the usable payload bytes per slot.
func (p *Producer) DataSize() int { return p.cfg.SlotSize - FooterSize }

// Credits returns the producer's currently available credits. The credit
// region holds the consumer's cumulative release total; reading it with
// AtomicLoad is coherent with the consumer's inline counter WRITEs, so the
// value can never be torn and never exceeds the true release count
// (invariant 3 stays safe even while a flush is in flight).
func (p *Producer) Credits() int {
	returned, _ := p.creditMR.AtomicLoad(0)
	return p.cfg.Credits - int(p.sent.Load()-returned)
}

// TryAcquire hands out the next staging slot if a credit is available.
// Invariant 3: with zero credits no slot is handed out.
func (p *Producer) TryAcquire() (*SendBuffer, bool) {
	if p.closed.Load() || p.acquired || p.Credits() <= 0 {
		return nil, false
	}
	p.acquired = true
	seq := p.sent.Load()
	b := &p.bufs[seq%uint64(p.cfg.Credits)]
	b.seq = seq
	return b, true
}

// acquireSpins is how many Gosched rounds Acquire re-checks for a credit
// before it parks. A credit one merge step away usually lands inside the
// budget, and catching it there is cheaper than a park and a wake; past it,
// spinning only takes the core the consumer needs to return the credit. A
// constant, like the scheduler's idle spin count: too short a budget parks
// on credits that were about to land, which paced workloads see as latency.
const acquireSpins = 64

// Acquire waits until a credit is available (step 3 of the transfer phase:
// wait for credit). It spins acquireSpins rounds, then arms the credit
// region and the send CQ, re-checks, and parks until one of them is written
// to, Close is called, or CreditWaitTimeout expires. A wake is only a reason
// to re-read the credit word, never a credit itself. Acquire returns nil
// once the channel is closed, a fatal asynchronous error — including a
// send-CQ overrun — is observed, or the timeout expires; Err reports which.
func (p *Producer) Acquire() *SendBuffer {
	var (
		stallStart, deadline int64
		spins, parks, wakes  int
		armed, expired       bool
	)
	trackStall := p.mStallNs != nil || p.cfg.CreditWaitTimeout > 0
	for {
		// Drain completions before handing out a slot: a credit that never
		// comes back often means the data write failed or the CQ overran,
		// and only the CQ knows. Checking up front also keeps a broken
		// channel from handing out buffers while credits remain.
		if err := p.drainErrors(); err != nil {
			return nil
		}
		if b, ok := p.TryAcquire(); ok {
			if stallStart != 0 {
				p.mStallNs.Add(uint64(time.Now().UnixNano() - stallStart))
				p.mStalls.Inc()
			}
			return b
		}
		if p.closed.Load() {
			return nil
		}
		if expired {
			p.fail(p.creditTimeout(parks, wakes))
			return nil
		}
		if trackStall && stallStart == 0 {
			stallStart = time.Now().UnixNano()
			if d := p.cfg.CreditWaitTimeout; d > 0 {
				deadline = stallStart + int64(d)
			}
		}
		switch {
		case spins < acquireSpins:
			spins++
			p.mSpins.Inc()
			runtime.Gosched()
		case !armed:
			// Arm, then go round once more: the checks above are the
			// re-check that catches a credit, failure or Close that landed
			// before the arm took effect.
			p.arm()
			armed = true
		default:
			parks++
			p.mParks.Inc()
			if p.park(deadline) {
				wakes++
			} else {
				expired = true
			}
			armed = false
		}
	}
}

// arm hands p.wake to the credit region, whose next write is a credit
// flush, and to the send CQ, whose next push is an error completion — the
// way a latched failure reaches a parked producer. A token still buffered
// from an earlier arm that fired after its waiter had moved on is dropped
// first, so it cannot cut the coming park short.
func (p *Producer) arm() {
	select {
	case <-p.wake:
	default:
	}
	p.creditMR.Arm(p.wake)
	p.cq.Arm(p.wake)
}

// park sleeps until a token arrives on p.wake or the deadline (unix ns; 0 =
// none) passes, and reports whether a token woke it.
func (p *Producer) park(deadline int64) bool {
	if deadline == 0 {
		<-p.wake
		return true
	}
	d := time.Duration(deadline - time.Now().UnixNano())
	if d <= 0 {
		return false
	}
	if p.timer == nil {
		p.timer = time.NewTimer(d)
	} else {
		p.timer.Reset(d)
	}
	select {
	case <-p.wake:
		// go.mod says go 1.22, so the timer keeps pre-1.23 semantics: a
		// value that fired before Stop stays in the channel and would end
		// the next park at once. Drain it.
		if !p.timer.Stop() {
			select {
			case <-p.timer.C:
			default:
			}
		}
		return true
	case <-p.timer.C:
		return false
	}
}

// creditTimeout builds the ErrCreditTimeout a stalled Acquire latches. It
// runs only after the post-deadline re-check found no credit, so the
// timeout is never a lost wake; sent against the credit word says how many
// credits never came back, and parks against wakes whether any credit
// WRITE (or error completion) landed while the producer slept.
func (p *Producer) creditTimeout(parks, wakes int) error {
	word, _ := p.creditMR.AtomicLoad(0)
	sent := p.sent.Load()
	return fmt.Errorf("%w (waited %v, %d credits outstanding: sent %d, credit word %d; %d parks, %d wakes since the stall began)",
		ErrCreditTimeout, p.cfg.CreditWaitTimeout, sent-word, sent, word, parks, wakes)
}

// Post transfers the acquired buffer with used payload bytes as a single
// RDMA WRITE (§6.3). The payload is packed right-aligned against the
// footer, so the write covers exactly used+FooterSize bytes ending at the
// slot boundary: a small message costs wire bytes proportional to its
// payload rather than the slot size, while the footer's polling byte is
// still the last byte written (WRITEs fill memory from lower to higher
// addresses) and still sits at a fixed offset for the consumer to poll.
// Invariant 1: posting consumes one credit.
func (p *Producer) Post(b *SendBuffer, used int) error {
	if p.closed.Load() {
		return ErrClosed
	}
	if b == nil || !p.acquired || b.seq != p.sent.Load() {
		return fmt.Errorf("channel: posting a stale buffer")
	}
	if used < 0 || used > p.DataSize() {
		return ErrPayloadSize
	}
	if err := p.drainErrors(); err != nil {
		return err
	}
	slot := int(p.sent.Load() % uint64(p.cfg.Credits))
	base := slot * p.cfg.SlotSize
	buf := p.staging.Bytes()[base : base+p.cfg.SlotSize]
	// Right-align the payload against the footer. The caller filled
	// Data[:used] at the slot start; the overlapping copy is memmove-safe.
	pay := p.cfg.SlotSize - FooterSize - used
	copy(buf[pay:], buf[:used])
	foot := buf[p.cfg.SlotSize-FooterSize:]
	foot[0] = byte(used)
	foot[1] = byte(used >> 8)
	foot[2] = byte(used >> 16)
	foot[3] = byte(used >> 24)
	foot[4], foot[5], foot[6] = 0, 0, 0
	foot[7] = generation(b.seq, p.cfg.Credits) // the polling byte
	// Selective signaling: success needs no completion, errors always
	// complete and are surfaced by drainErrors on a later call.
	if err := p.qp.PostWrite(b.seq, buf[pay:], p.ringRKey, base+pay, false); err != nil {
		return p.fail(fmt.Errorf("channel: post failed: %w", err))
	}
	p.sent.Add(1)
	p.acquired = false
	p.mPosted.Inc()
	return nil
}

// drainErrors surfaces asynchronous completion errors (bad rkey, bounds,
// CQ overrun). When the queue pair itself died, the QPFailure — which names
// the link and the work-completion status — is preferred over the raw
// completion error, so layers above can report which connection failed.
func (p *Producer) drainErrors() error {
	if err := p.err.get(); err != nil {
		return err
	}
	if p.cq.Overrun() {
		return p.fail(fmt.Errorf("channel: send %w", rdma.ErrCQOverrun))
	}
	for {
		c, ok := p.cq.TryPoll()
		if !ok {
			return nil
		}
		if c.Err != nil {
			return p.fail(fmt.Errorf("channel: async write failure: %w", qpCause(p.qp, c)))
		}
	}
}

// qpCause picks the most informative error for a failed completion: the QP's
// recorded failure (a *rdma.QPFailure naming the link and root-cause status)
// when the QP is in the error state, the bare completion error otherwise.
// Flush completions in particular carry only ErrWRFlush; the QPFailure behind
// them explains why the QP was flushing.
func qpCause(qp Verbs, c rdma.Completion) error {
	if err := qp.Err(); err != nil {
		return err
	}
	return c.Err
}

// Err returns the endpoint's sticky fatal error, or nil while it is healthy.
// Safe to call from any goroutine.
func (p *Producer) Err() error { return p.err.get() }

// Sent returns the number of buffers posted.
func (p *Producer) Sent() uint64 { return p.sent.Load() }

// Close shuts the producer side down gracefully: posted buffers still in
// the queue pair are delivered before the connection tears down, so a
// consumer can drain everything the producer sent. On a dead QP the drain
// completes with flush semantics instead (nothing more reaches the wire),
// so Close terminates in bounded time even mid-failure. Safe to call from
// another goroutine: a parked Acquire wakes and returns nil.
func (p *Producer) Close() {
	if p.closed.CompareAndSwap(false, true) {
		select {
		case p.wake <- struct{}{}:
		default:
		}
		p.qp.Drain()
		p.qp.Close()
	}
}

// Consumer is the receiving endpoint of an RDMA channel.
type Consumer struct {
	cfg        Config
	qp         Verbs
	cq         CompletionSource
	ring       Memory
	creditRKey uint32

	// bufs is the preallocated RecvBuffer ring, one per slot; TryPoll hands
	// out &bufs[seq%c] without allocating.
	bufs []RecvBuffer

	received atomic.Uint64 // buffers observed via polling
	released atomic.Uint64 // credits returned (total releases, invariant 2)

	// Credit coalescing state: flushed is the release total last written to
	// the producer's counter; a flush is due once released-flushed reaches
	// flushAt (= max(1, c/2)), the poll loop misses, or the consumer closes. flushMu serializes flushes so the
	// cumulative totals post in nondecreasing order.
	flushAt      int
	flushed      atomic.Uint64
	flushMu      sync.Mutex
	creditWrites atomic.Uint64

	closed atomic.Bool

	// err latches the first fatal endpoint error (credit-write failure, CQ
	// overrun, footer corruption); see stickyErr.
	err stickyErr

	// Poll instrumentation; all nil without a fabric metrics registry.
	mReleased     *metrics.Counter
	mCreditWrites *metrics.Counter
	mPollMisses   *metrics.Counter
	mBacklogMax   *metrics.Gauge
	mEndpErrs     *metrics.Counter
}

// fail latches err as the endpoint's sticky error and returns the error the
// endpoint actually died with (the first latched one wins).
func (c *Consumer) fail(err error) error {
	if c.err.latch(err) {
		c.mEndpErrs.Inc()
	}
	return c.err.get()
}

// RecvBuffer is a received slot. Data aliases the ring slot's payload; it is
// valid until Release.
type RecvBuffer struct {
	Data []byte
	// Thread and Epoch mirror the sender-side tags on framing transports
	// (see SendBuffer); zero on the per-pair channel.
	Thread uint32
	Epoch  uint64
	seq    uint64
	done   bool
}

// TryPoll checks local memory for the next inbound buffer (step 1 of the
// consumer protocol). The ring region's write version counts published slot
// writes; because the QP is FIFO, version v proves slots [0, v) have fully
// landed, making the footer's polling byte readable without a data race.
func (c *Consumer) TryPoll() (*RecvBuffer, bool) {
	if c.closed.Load() {
		return nil, false
	}
	// Back-pressure the producer: do not run more than Credits buffers
	// ahead of releases, mirroring hardware where un-released slots are
	// simply not rewritten yet.
	backlog := int64(c.ring.WriteVersion() - c.received.Load())
	if backlog <= 0 {
		// Footer-poll miss: the write version has not advanced. Push out any
		// coalesced credits — an idle poll loop means the producer may be
		// waiting on them — and drain the send CQ so a credit-write failure
		// or CQ overrun surfaces through Err instead of stalling forever.
		// A failed flush latches the sticky error the same way: silently
		// dropping it here once cost the producer an unbounded stall.
		c.mPollMisses.Inc()
		if c.released.Load() != c.flushed.Load() {
			if err := c.flushCredits(); err != nil {
				c.fail(err)
			}
		}
		c.drainErrors()
		return nil, false
	}
	c.mBacklogMax.SetMax(backlog)
	slot := int(c.received.Load() % uint64(c.cfg.Credits))
	base := slot * c.cfg.SlotSize
	buf := c.ring.Bytes()[base : base+c.cfg.SlotSize]
	foot := buf[c.cfg.SlotSize-FooterSize:]
	if foot[7] != generation(c.received.Load(), c.cfg.Credits) {
		// The version advanced for a later pipelined write while this
		// slot's content is from a previous round — cannot happen on a
		// FIFO QP; treat as corruption.
		c.fail(fmt.Errorf("channel: polling byte mismatch at seq %d", c.received.Load()))
		return nil, false
	}
	used := int(uint32(foot[0]) | uint32(foot[1])<<8 | uint32(foot[2])<<16 | uint32(foot[3])<<24)
	if used > c.cfg.SlotSize-FooterSize {
		c.fail(fmt.Errorf("channel: corrupt footer length %d at seq %d", used, c.received.Load()))
		return nil, false
	}
	seq := c.received.Load()
	rb := &c.bufs[seq%uint64(c.cfg.Credits)]
	rb.Data = buf[c.cfg.SlotSize-FooterSize-used : c.cfg.SlotSize-FooterSize]
	rb.seq = seq
	rb.done = false
	c.received.Add(1) // step 2: mark the buffer for processing
	return rb, true
}

// Release returns one credit to the producer (step 3, invariant 2). Credits
// are coalesced: the release is counted locally and the cumulative total is
// written to the producer's credit region once flushAt releases are pending.
// Release itself never flushes early. What keeps coalescing from
// deadlocking the channel is TryPoll: a poll that misses — the state a
// starved producer leaves its consumer in — flushes whatever is pending,
// and Close flushes unconditionally. Buffers must be released in FIFO
// order: the slot only becomes overwritable once the credit is returned.
func (c *Consumer) Release(b *RecvBuffer) error {
	if c.closed.Load() {
		return ErrClosed
	}
	if b.done {
		return ErrDoubleRelease
	}
	if b.seq != c.released.Load() {
		return ErrReleaseOrder
	}
	if err := c.drainErrors(); err != nil {
		return err
	}
	b.done = true
	rel := c.released.Add(1)
	c.mReleased.Inc()
	// Flush once half the ring's worth of releases is pending. A starved
	// producer never waits longer than c/2 releases of an actively-working
	// consumer; an idle consumer flushes from the poll loop instead (see
	// TryPoll), and Close flushes unconditionally.
	if int(rel-c.flushed.Load()) >= c.flushAt {
		return c.flushCredits()
	}
	return nil
}

// flushCredits writes the cumulative release total into the producer's
// credit region as one inline 8-byte WRITE. One flush covers every release
// since the previous flush; because the total is cumulative and posts are
// serialized under flushMu, the producer's counter is always a value the
// release count actually passed through — invariants 1–3 hold unchanged.
//
// A failed post latches the endpoint error and stops further coalescing: a
// flush that cannot reach the producer makes every pending and future
// release undeliverable, so pretending to accumulate them would only delay
// the diagnosis.
func (c *Consumer) flushCredits() error {
	if err := c.err.get(); err != nil {
		return err
	}
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	rel := c.released.Load()
	if rel == c.flushed.Load() {
		return nil
	}
	if err := c.qp.PostWriteU64(rel, c.creditRKey, 0, rel, false); err != nil {
		return c.fail(fmt.Errorf("channel: credit flush failed: %w", err))
	}
	c.flushed.Store(rel)
	c.creditWrites.Add(1)
	c.mCreditWrites.Inc()
	return nil
}

// CreditWrites returns how many credit-counter WRITEs the consumer has
// posted — the reverse-path message count that coalescing minimizes.
func (c *Consumer) CreditWrites() uint64 { return c.creditWrites.Load() }

func (c *Consumer) drainErrors() error {
	if err := c.err.get(); err != nil {
		return err
	}
	if c.cq.Overrun() {
		return c.fail(fmt.Errorf("channel: credit %w", rdma.ErrCQOverrun))
	}
	for {
		comp, ok := c.cq.TryPoll()
		if !ok {
			return nil
		}
		if comp.Err != nil {
			return c.fail(fmt.Errorf("channel: async credit failure: %w", qpCause(c.qp, comp)))
		}
	}
}

// Backlog returns the number of buffers that have landed in the ring but
// have not been polled yet — the channel's inbound queue depth.
func (c *Consumer) Backlog() int {
	return int(c.ring.WriteVersion() - c.received.Load())
}

// Err returns the endpoint's sticky fatal error, or nil while it is healthy.
// Safe to call from any goroutine.
func (c *Consumer) Err() error { return c.err.get() }

// Received returns the number of buffers polled so far.
func (c *Consumer) Received() uint64 { return c.received.Load() }

// DiscardBacklog polls and releases every buffer that has landed in the ring
// but was never consumed, returning how many were dropped. This is the
// fence-teardown path of the recovery plane: chunks queued toward a node
// being torn down are discarded — replay from upstream journals regenerates
// them — but the controller still needs the count for replay accounting.
// Credit-return failures are swallowed (not latched) because the peer of a
// fenced link is typically already dead and the slots will never be reused.
func (c *Consumer) DiscardBacklog() int {
	n := 0
	for c.Backlog() > 0 {
		b, ok := c.TryPoll()
		if !ok {
			break
		}
		b.done = true
		c.released.Add(1)
		c.mReleased.Inc()
		n++
	}
	if n > 0 {
		c.flushMu.Lock()
		rel := c.released.Load()
		if rel != c.flushed.Load() {
			// Best-effort credit return, bypassing flushCredits so a failed
			// post on the dead link does not latch the sticky error.
			if err := c.qp.PostWriteU64(rel, c.creditRKey, 0, rel, false); err == nil {
				c.flushed.Store(rel)
				c.creditWrites.Add(1)
				c.mCreditWrites.Inc()
			}
		}
		c.flushMu.Unlock()
	}
	return n
}

// Close shuts the consumer side down. Credits coalesced but not yet flushed
// are written out and drained first, so a producer that outlives this
// consumer observes every release that happened before Close. On a dead QP
// the drain completes with flush semantics (queued requests complete with
// StatusWRFlush at host speed), so Close terminates in bounded time; a
// failed final flush is latched so post-mortem Err still reports it.
func (c *Consumer) Close() {
	if c.closed.CompareAndSwap(false, true) {
		if err := c.flushCredits(); err != nil {
			c.fail(err)
		}
		c.qp.Drain()
		c.qp.Close()
	}
}

// generation derives the polling byte for a slot write: it changes every
// time the ring wraps, so a stale footer from a previous round can never be
// mistaken for a fresh one.
func generation(seq uint64, credits int) byte {
	return byte((seq/uint64(credits))%255) + 1
}
