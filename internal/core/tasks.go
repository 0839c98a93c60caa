package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/slash-stream/slash/internal/channel"
	"github.com/slash-stream/slash/internal/metrics"
	"github.com/slash-stream/slash/internal/sched"
	"github.com/slash-stream/slash/internal/ssb"
	"github.com/slash-stream/slash/internal/stream"
	"github.com/slash-stream/slash/internal/window"
)

// chanSender ships SSB chunks over an RDMA channel. Threads of one node
// share the producer endpoint, so sends serialize on a mutex; they happen at
// epoch granularity, not per record, so contention is negligible (§7.1.2:
// the common case is the local partial-state update).
type chanSender struct {
	mu       sync.Mutex
	src, dst int
	prod     channel.SendPort
	// detached flips when dst retired from the deployment (§7.2/§8 elastic
	// scale-in): heartbeats to it are silently dropped — a retired leader
	// already covered every window it owns, so no trigger can depend on
	// them — while a data chunk is a routing-invariant violation and fails
	// the run loudly. Checked without s.mu so a detach can interrupt a
	// sender blocked in Acquire (detach closes the producer, which unblocks
	// Acquire with nil).
	detached atomic.Bool

	// Recovery plumbing; all zero when the recovery plane is off. ring
	// retains posted chunks for re-delivery to a restarted dst; mgr receives
	// link-failure reports; the incarnation stamps let the failure manager
	// discard reports about links that a restart already replaced.
	mgr            *recoveryMgr
	ring           *replayRing
	srcInc, dstInc int
}

// Send implements ssb.Sender. It encodes the chunk directly into the
// channel's staging slot (zero further copies) and posts it. Failures are
// wrapped with the link's endpoints so a run that dies reports *which*
// channel killed it; the underlying *rdma.QPFailure (when the queue pair
// itself died) stays reachable through errors.As — see FailedQP.
func (s *chanSender) Send(c *ssb.Chunk) error {
	if s.detached.Load() {
		if c.Kind == ssb.ChunkHeartbeat {
			return nil
		}
		return s.wrap(fmt.Errorf("data chunk to retired node: %w", channel.ErrClosed))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Size-check before acquiring: bailing out after Acquire would leave the
	// slot held forever and wedge every later send on this channel.
	if c.EncodedSize() > s.prod.DataSize() {
		return fmt.Errorf("core: chunk of %d bytes exceeds channel slot %d", c.EncodedSize(), s.prod.DataSize())
	}
	sb := s.prod.Acquire()
	if sb == nil {
		// Acquire returns nil both on a graceful close and on asynchronous
		// transfer failures (bad rkey, CQ overrun, retry exhaustion, credit
		// timeout); prefer the real cause.
		if err := s.prod.Err(); err != nil {
			return s.failed(c, err)
		}
		return s.failed(c, channel.ErrClosed)
	}
	// Tag the buffer with the chunk's sender thread and epoch: the trunk
	// transport carries both in its frame header (per-pair channels ignore
	// them), so multiplexed frames stay attributable without decoding.
	sb.Thread, sb.Epoch = uint32(c.Thread), c.Epoch
	n := c.Encode(sb.Data)
	if s.ring != nil {
		// Retain the encoded bytes before Post recycles the slot. A chunk
		// whose post then fails stays in the ring: it is the next canonical
		// chunk of its epoch, so re-delivering it to a restarted dst is
		// exactly what the replay contract wants.
		s.ring.push(c.Thread, c.Epoch, sb.Data[:n])
	}
	if err := s.prod.Post(sb, n); err != nil {
		return s.failed(c, err)
	}
	return nil
}

// failed handles a send whose acquire or post failed. A detach that raced
// the send closed the producer under it, and a heartbeat to the newly
// retired node is droppable (see detach); anything else is a link failure.
func (s *chanSender) failed(c *ssb.Chunk, err error) error {
	if s.detached.Load() && c.Kind == ssb.ChunkHeartbeat {
		return nil
	}
	return s.report(s.wrap(err))
}

// sendEncoded posts pre-encoded chunk bytes — the ring-replay path of a node
// restart. It does not re-append to the ring (the bytes came from it); thread
// and epoch re-tag the frame exactly as the original post did.
func (s *chanSender) sendEncoded(buf []byte, thread uint32, epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(buf) > s.prod.DataSize() {
		return fmt.Errorf("core: replayed chunk of %d bytes exceeds channel slot %d", len(buf), s.prod.DataSize())
	}
	sb := s.prod.Acquire()
	if sb == nil {
		if err := s.prod.Err(); err != nil {
			return s.wrap(err)
		}
		return s.wrap(channel.ErrClosed)
	}
	sb.Thread, sb.Epoch = thread, epoch
	copy(sb.Data, buf)
	if err := s.prod.Post(sb, len(buf)); err != nil {
		return s.wrap(err)
	}
	return nil
}

// report routes a link failure to the failure manager (recovery mode only)
// and passes the error through for the caller's own handling.
func (s *chanSender) report(err error) error {
	if s.mgr != nil {
		s.mgr.reportLink(s.src, s.dst, s.srcInc, s.dstInc, err)
	}
	return err
}

// wrap names the failed link.
func (s *chanSender) wrap(err error) error {
	return fmt.Errorf("core: state channel node%d->node%d: %w", s.src, s.dst, err)
}

// detach marks dst retired and closes the producer. Safe while other threads
// send: the flag is observed before (or after a nil Acquire inside) Send, and
// closing the producer unblocks a send currently spinning for credit.
func (s *chanSender) detach() {
	s.detached.Store(true)
	s.prod.Close()
}

// sourceTask is the stateful operator pipeline of one executor thread: it
// ingests its physical data flow, applies the fused filter/map operators,
// assigns windows, and eagerly updates thread-local SSB fragments — the
// common-case fast path that replaces per-record re-partitioning (§5.1).
type sourceTask struct {
	run     *runState
	q       *Query
	node    int
	gate    ReadyFlow // the flow, when it implements ReadyFlow; else nil
	ts      *ssb.ThreadState
	batch   int
	recSize int

	// Columnar operator loop: bflow fills rb, the compiled batch operators
	// filter/map/side it, runs holds the run-length window assignment,
	// selTimes gathers the live timestamp column when a selection is active.
	bflow    BatchFlow
	rb       *stream.RecordBatch
	runs     window.Runs
	assign   window.RunAssigner
	selTimes []int64
	sides    []uint8

	records *atomic.Int64
	updates *atomic.Int64
	flushes *flushCounts
	mStep   *metrics.Histogram

	// nextEnd is the earliest window end the thread watermark has not reached
	// yet: crossing it ends the epoch early (see endStep). It is re-armed
	// from the watermark after every successful flush; NoWatermark means not
	// armed yet (a fresh thread that has seen no record).
	nextEnd stream.Watermark

	// done reports the flow finished (FinishStream completed).
	done atomic.Bool
	// exits is raised when Step returned Done for any reason — the recovery
	// plane's signal that a fenced node's worker let go of the task.
	exits *exitGroup
	// answered is the last barrier the task answered; exited is set once
	// Step returned Done. A barrier's waiter counts a task that is done,
	// exited, or answered its barrier (see barrier).
	answered atomic.Pointer[barrier]
	exited   atomic.Bool

	// Recovery plumbing; all nil/zero when the plane is off. jrn journals a
	// source-progress intent before every flush; plan replays a restarted
	// thread's journaled flush boundaries so re-sent epochs are byte-
	// identical to the originals; flushPend/finishPend/parkedGen park a
	// flush that hit a dead link until the failed node was rebuilt.
	mgr        *recoveryMgr
	jrn        *nodeJournal
	plan       []planFlush
	flushPend  bool
	finishPend bool
	parkedGen  uint64
	// counted marks a restored task whose predecessor already published its
	// record/update totals (its FinishStream succeeded before the restart);
	// the replacement re-finishes the stream but must not publish again.
	counted bool

	localRecords int64
	localUpdates int64
}

// planFlush is one replayed flush boundary: flush (or finish the stream)
// exactly when the thread's consumed-record count reaches consumed.
type planFlush struct {
	consumed int64
	done     bool
}

// Name implements sched.Task.
func (t *sourceTask) Name() string {
	return fmt.Sprintf("source(%s,gtid=%d)", t.q.Name, t.ts.GlobalThreadID())
}

// Step implements sched.Task: process one batch of records, flushing state
// at epoch boundaries.
func (t *sourceTask) Step() sched.Status {
	st := t.step()
	if st == sched.Done {
		t.exited.Store(true)
		if b := t.run.barrier.Load(); b != nil {
			b.poke()
		}
		t.exits.exit()
	}
	return st
}

// step checks, in order: fenced, a restart's hold, a parked flush, a join or
// leave's flush barrier, the flow gate — and only then runs the operators.
func (t *sourceTask) step() sched.Status {
	if t.run.isFenced(t.node) {
		// The recovery plane is tearing this node down; a replacement task
		// over restored state takes over. Publish nothing — the replacement
		// republishes counts from its journaled rewind point.
		return sched.Done
	}
	b := t.run.barrier.Load()
	if b != nil && b.mode == barrierHold {
		// A restart is rebuilding part of the mesh: answer WITHOUT flushing
		// (the flush could target a link mid-teardown).
		return t.answer(b)
	}
	if t.flushPend {
		// A flush died on a failed link. Retry only after a completed
		// restart rebuilt it; the epoch keeps its number and content, and
		// the bumped incarnation lets leaders drop the re-sent prefix.
		if t.run.retryGen.Load() == t.parkedGen {
			return sched.Idle
		}
		return t.runFlush(t.finishPend)
	}
	if b != nil && len(t.plan) == 0 {
		// Flush barrier: end the epoch under the pre-barrier generation,
		// then answer. An active replay plan overrides it — planned flush
		// boundaries must land exactly where the pre-failure run put them,
		// and a barrier flush here would split an epoch early — so the
		// barrier waits the few steps until the plan drains.
		if t.answered.Load() != b && t.ts.Dirty() {
			if st := t.endEpoch(flushBarrier, false); st != sched.Ready {
				return st
			}
		}
		return t.answer(b)
	}
	if t.gate != nil && !t.gate.Ready() {
		// The flow is fenced (see ColumnarFlow): park without ending the stream.
		return sched.Idle
	}
	return t.stepBatch()
}

// observe records the step latency. It is called only on steps that did
// work (consumed records or ran a flush): no-op Idle steps would otherwise
// dominate the histogram and bury the latencies that matter.
func (t *sourceTask) observe(start time.Time) {
	t.mStep.Observe(time.Since(start).Nanoseconds())
}

// stepBatch is the columnar hot loop: fill one record batch from the flow,
// run the batch-form operators (filter into a selection vector, map in
// place, run-length window assignment), and apply each (window, run) group
// to the SSB with per-record routing hoisted out.
//
// Every boundary lands on an exact record: a replayed flush boundary
// truncates the fill via the batch limit, a gate fence stops the producing
// flow at exactly the fenced record, and end-of-flow finishes in the same
// step that consumed the final record — so a replay re-takes the journaled
// flush points and re-sends byte-identical chunks.
func (t *sourceTask) stepBatch() sched.Status {
	var start time.Time
	if t.mStep != nil {
		start = time.Now()
	}
	limit := t.batch
	if len(t.plan) > 0 {
		rem := t.plan[0].consumed - t.localRecords
		if rem <= 0 {
			// Already at the replayed boundary (it can sit at 0 records).
			if t.mStep != nil {
				defer t.observe(start)
			}
			return t.replayFlush()
		}
		if rem < int64(limit) {
			limit = int(rem)
		}
	}
	rb := t.rb
	rb.Reset(limit)
	more := t.bflow.Batch(rb)
	n := rb.Len()
	if n == 0 {
		if more {
			// Gated or momentarily dry: a genuine no-op step.
			return sched.Idle
		}
		if t.mStep != nil {
			defer t.observe(start)
		}
		return t.endEpoch(flushFinish, true)
	}
	if t.mStep != nil {
		defer t.observe(start)
	}
	t.localRecords += int64(n)
	if st, failed := t.processBatch(rb); failed {
		return st
	}
	// One watermark advance covers the whole batch: times are non-decreasing
	// and no flush happens mid-batch, so per-record advances would be
	// observationally identical to this single one.
	t.ts.ObserveTime(rb.Times[n-1])
	if len(t.plan) > 0 && t.localRecords >= t.plan[0].consumed {
		return t.replayFlush()
	}
	if !more {
		return t.endEpoch(flushFinish, true)
	}
	return t.endStep(n)
}

// endStep is the one place an epoch ends on the engine's own initiative;
// the operator loop calls it at the end of a step that consumed n records.
// An epoch ends when the thread ingested EpochBytes since its last flush
// (the volume bound, §8.1.1) or when its watermark crossed a window end (the
// latency bound, §7.2.2: the leaders learn that the window closed from this
// flush's heartbeat instead of an epoch later). At most one flush per step.
//
// While a replay plan is active neither fires: the journaled boundaries
// govern (they sit at or before this cadence, and every planned flush resets
// the byte accumulator and re-arms the window end).
func (t *sourceTask) endStep(n int) sched.Status {
	full := t.ts.Ingest(n * t.recSize)
	if len(t.plan) > 0 {
		return sched.Ready
	}
	switch {
	case full:
		return t.endEpoch(flushBytes, false)
	case t.nextEnd == stream.NoWatermark:
		// First records of a fresh thread: there is a watermark to arm from.
		t.armNextEnd()
	case t.ts.Watermark() >= t.nextEnd:
		return t.endEpoch(flushWindow, false)
	}
	return sched.Ready
}

// armNextEnd points nextEnd at the earliest window end past the thread
// watermark. With no watermark yet it stays unarmed.
func (t *sourceTask) armNextEnd() {
	if wm := t.ts.Watermark(); wm != stream.NoWatermark {
		t.nextEnd = window.NextEnd(t.q.Window, wm)
	}
}

// replayFlush takes the replay plan's next journaled flush boundary.
func (t *sourceTask) replayFlush() sched.Status {
	p := t.plan[0]
	t.plan = t.plan[1:]
	return t.endEpoch(flushReplay, p.done)
}

// flushCause says why an epoch ended.
type flushCause uint8

const (
	flushBytes   flushCause = iota // EpochBytes ingested since the last flush
	flushWindow                    // the thread watermark crossed a window end
	flushFinish                    // end of flow
	flushBarrier                   // join or leave flush barrier
	flushReplay                    // journaled boundary of a recovery replay plan
	nFlushCauses
)

// flushCauseNames are the cause label values of core_epoch_flush_total.
var flushCauseNames = [nFlushCauses]string{"bytes", "window", "finish", "barrier", "replay"}

// flushCounts counts one deployment's epoch flushes by cause: n feeds its
// Report; m (nil handles without a registry) is core_epoch_flush_total, which
// keeps counting across deployments that share a registry.
type flushCounts struct {
	n [nFlushCauses]atomic.Int64
	m [nFlushCauses]*metrics.Counter
}

// endEpoch counts a new flush under its cause and runs it. Retries of a
// parked flush go to runFlush directly and are not counted again.
func (t *sourceTask) endEpoch(cause flushCause, finish bool) sched.Status {
	t.flushes.n[cause].Add(1)
	t.flushes.m[cause].Inc()
	return t.runFlush(finish)
}

// processBatch runs the operator pipeline over one filled batch. It returns
// failed=true (with the terminal status) when a state update failed.
func (t *sourceTask) processBatch(rb *stream.RecordBatch) (st sched.Status, failed bool) {
	q := t.q
	if q.Filter != nil || q.FilterBatch != nil {
		q.runFilterBatch(rb)
		if rb.Live() == 0 {
			return 0, false
		}
	}
	q.runMapBatch(rb)
	// Gather the live timestamp column; with no selection the batch's own
	// column serves directly (zero copies).
	times := rb.Times[:rb.Len()]
	if rb.Sel != nil {
		gathered := t.selTimes[:0]
		for _, i := range rb.Sel {
			gathered = append(gathered, rb.Times[i])
		}
		t.selTimes = gathered
		times = gathered
	}
	t.runs.Reset()
	t.assign.AssignRuns(times, &t.runs)
	var sides []uint8
	if q.JoinSide != nil || q.JoinSideBatch != nil {
		sides = t.sides[:rb.Len()]
		q.runSideBatch(rb, sides)
	}
	for r := 0; r < t.runs.N(); r++ {
		p0, p1 := t.runs.Span(r)
		for _, win := range t.runs.Windows(r) {
			var err error
			if sides != nil {
				err = t.ts.AppendBagBatch(win, rb, p0, p1, sides)
			} else {
				err = t.ts.UpdateAggBatch(win, rb, p0, p1)
			}
			if err != nil {
				t.run.fail(err)
				t.done.Store(true)
				return sched.Done, true
			}
			t.localUpdates += int64(p1 - p0)
		}
	}
	return 0, false
}

// runFlush journals a source-progress intent (recovery mode) and runs the
// flush; finish selects FinishStream. The intent is written ahead of the
// flush so a crash mid-flush still leaves the boundary on record — replay
// then reproduces the interrupted epoch byte-for-byte and the leaders'
// positional dedup drops the prefix they already merged. Returns Ready on a
// plain flush success, Done when the stream finished or the run failed, and
// Idle when the flush parked on a dead link.
func (t *sourceTask) runFlush(finish bool) sched.Status {
	gen := t.run.retryGen.Load()
	if t.jrn != nil {
		// The epoch and incarnation the flush is about to use: a fresh flush
		// bumps the epoch and keeps the incarnation; a retry keeps the epoch
		// and bumps the incarnation.
		epoch, inc := t.ts.Epoch()+1, t.ts.Inc()
		if t.flushPend {
			epoch, inc = t.ts.Epoch(), t.ts.Inc()+1
		}
		err := t.jrn.source(sourceMark{
			Thread:   t.ts.GlobalThreadID(),
			Consumed: t.localRecords,
			Updates:  t.localUpdates,
			Epoch:    epoch,
			Wm:       int64(t.ts.Watermark()),
			Inc:      inc,
			Done:     finish,
		})
		if err != nil {
			t.run.fail(err)
			t.done.Store(true)
			return sched.Done
		}
	}
	var err error
	if finish {
		err = t.ts.FinishStream()
	} else {
		err = t.ts.Flush()
	}
	if err != nil {
		if t.mgr != nil {
			// The sender already reported the link; park for retry. gen was
			// read before the flush, so a restart that raced it advances the
			// generation past gen and the retry fires immediately.
			t.flushPend, t.finishPend = true, finish
			t.parkedGen = gen
			return sched.Idle
		}
		t.run.fail(err)
		t.done.Store(true)
		return sched.Done
	}
	t.flushPend, t.finishPend = false, false
	if finish {
		// Publish counts only after FinishStream landed: a crash between
		// publish and finish would double-count once the replacement task
		// replays the finish.
		if !t.counted {
			t.records.Add(t.localRecords)
			t.updates.Add(t.localUpdates)
		}
		t.done.Store(true)
		return sched.Done
	}
	t.armNextEnd()
	return sched.Ready
}

// inbound pairs a consumer endpoint with the node it receives from, so a
// consumer-side failure can name the link. inc is the source node's
// incarnation when the link was wired (recovery mode), letting the failure
// manager discard reports about links a restart already replaced.
type inbound struct {
	src  int
	inc  int
	cons channel.RecvPort
}

// mergeTask is one node's service coroutine: it polls the inbound RDMA
// channels for delta chunks, merges them into the primary partition, and
// evaluates window triggers. It terminates once every thread in the cluster
// has finished its stream and all pending windows have fired.
type mergeTask struct {
	run      *runState
	node     int
	be       *ssb.Backend
	cons     []inbound
	q        *Query
	mStep    *metrics.Histogram
	mBacklog *metrics.Gauge

	// rr is the consumer index the next Step starts polling from. It
	// advances every step so that under backlog the per-step chunk budget
	// rotates round-robin across peers instead of always feeding the
	// lowest-numbered ones first.
	rr int

	// addMu/added/removed stage inbound-link changes from the controller:
	// added brings links from executors that joined after this task started
	// (§7.2 scale-out) or were rebuilt by a restart; removed retires a dead
	// incarnation's link. Step applies removals before additions, so a
	// restarted peer's old backlog can never interleave with its new
	// chunks — the positional dedup depends on that order.
	addMu   sync.Mutex
	added   []inbound
	removed []channel.RecvPort

	// Recovery plumbing; nil/zero when the plane is off. selfInc stamps
	// failure reports; ckptEvery is the periodic checkpoint cadence in epoch
	// commits; onCkpt hands the durable commit vector to the controller for
	// replay-ring pruning; exits signals a fenced task let go.
	mgr       *recoveryMgr
	selfInc   int
	ckptEvery int
	onCkpt    func(node int, committed []uint64)
	exits     *exitGroup
	// jrn buffers sink rows for durable emits (Placement mode only): every row
	// of a window is staged before the window's trigger mark is journaled, so
	// a restored process can re-emit what its dead predecessor's sink lost.
	jrn *nodeJournal

	// retiring marks this node as removed from the partition map at cutover
	// window retireCut: once the clock covers retireEnd — the end timestamp
	// of the last window this leader still owns — and every owned window
	// fired, the task calls onRetire (detach from the mesh) and exits early
	// instead of waiting for the whole stream to finish (§7.2/§8 scale-in
	// with zero state copy: the remainder drains through ordinary late
	// merging).
	retiring  atomic.Bool
	retireEnd atomic.Int64
	onRetire  func(node int)
}

// chunksPerMergeStep bounds total merge work per scheduler step to keep the
// task cooperative. The budget is shared across the inbound channels: a
// single backlogged peer can use all of it, but only for the one step in
// the rotation that starts at that peer.
const chunksPerMergeStep = 32

// Name implements sched.Task.
func (t *mergeTask) Name() string { return fmt.Sprintf("merge(node=%d)", t.node) }

// Step implements sched.Task.
func (t *mergeTask) Step() sched.Status {
	st := t.step()
	if st == sched.Done {
		t.exits.exit()
	}
	return st
}

func (t *mergeTask) step() sched.Status {
	if t.run.isFenced(t.node) {
		// The recovery plane is tearing this node down; a replacement task
		// over journal-restored state takes over.
		return sched.Done
	}
	if t.mStep != nil {
		start := time.Now()
		defer func() { t.mStep.Observe(time.Since(start).Nanoseconds()) }()
	}
	t.addMu.Lock()
	if len(t.removed) > 0 {
		for _, rc := range t.removed {
			t.dropCons(rc)
		}
		t.removed = t.removed[:0]
	}
	if len(t.added) > 0 {
		t.cons = append(t.cons, t.added...)
		t.added = t.added[:0]
	}
	t.addMu.Unlock()
	progress := false
	budget := chunksPerMergeStep
	var dead []inbound
	for i := 0; i < len(t.cons) && budget > 0; i++ {
		in := t.cons[(t.rr+i)%len(t.cons)]
		cons := in.cons
		if t.mBacklog != nil {
			t.mBacklog.SetMax(int64(cons.Backlog()))
		}
		for budget > 0 {
			rb, ok := cons.TryPoll()
			if !ok {
				if err := cons.Err(); err != nil {
					if t.mgr != nil {
						// Dead link: report, stop polling it, keep merging
						// the healthy peers. The failure manager decides who
						// actually died and rebuilds the link.
						t.mgr.reportLink(in.src, t.node, in.inc, t.selfInc, t.wrap(in, err))
						dead = append(dead, in)
						break
					}
					t.run.fail(t.wrap(in, err))
					return sched.Done
				}
				break
			}
			chunk, err := ssb.DecodeChunk(rb.Data)
			if err == nil {
				err = t.be.HandleChunk(&chunk)
			}
			if err != nil {
				// Corrupt or unroutable chunks are logic errors, not link
				// failures — recovery cannot mask them.
				t.run.fail(t.wrap(in, err))
				return sched.Done
			}
			if err := cons.Release(rb); err != nil {
				if t.mgr != nil {
					t.mgr.reportLink(in.src, t.node, in.inc, t.selfInc, t.wrap(in, err))
					dead = append(dead, in)
					break
				}
				t.run.fail(t.wrap(in, err))
				return sched.Done
			}
			budget--
			progress = true
		}
	}
	for _, d := range dead {
		t.dropCons(d.cons)
	}
	if len(t.cons) > 0 {
		t.rr = (t.rr + 1) % len(t.cons)
	}
	if n := t.be.TriggerSides(t.emitAgg, t.emitJoin); n > 0 {
		progress = true
	}
	// Republish live window snapshots touched by this step's merges (no-op
	// unless the queryable-state plane is armed; sealed windows published
	// inside TriggerSides).
	t.be.PublishDirty()
	if t.ckptEvery > 0 {
		// A journal that fell behind voids the recovery contract: fail loudly
		// rather than risk an unrecoverable restore later.
		if err := t.be.JournalErr(); err != nil {
			t.run.fail(err)
			return sched.Done
		}
		if t.be.CheckpointDue(t.ckptEvery) {
			committed, err := t.be.Checkpoint()
			if err != nil {
				t.run.fail(err)
				return sched.Done
			}
			if t.onCkpt != nil {
				t.onCkpt(t.node, committed)
			}
			progress = true
		}
	}
	if t.be.PendingWindows() == 0 {
		if t.be.Clock().Covers(math.MaxInt64) {
			if t.retiring.Load() && t.onRetire != nil {
				t.onRetire(t.node)
			}
			return sched.Done
		}
		// A retired leader owns no window at or past the cutover, so it can
		// leave as soon as the cluster covered the last window it does own —
		// FIFO channels plus the heartbeat-after-data flush order guarantee
		// no data chunk for a covered window is still in flight to it.
		if t.retiring.Load() && t.be.Clock().Covers(stream.Watermark(t.retireEnd.Load())) {
			if t.onRetire != nil {
				t.onRetire(t.node)
			}
			return sched.Done
		}
	}
	if progress {
		return sched.Ready
	}
	return sched.Idle
}

// AddInbound hands the task a consumer endpoint from a newly-joined
// executor; the task adopts it at its next step.
func (t *mergeTask) AddInbound(in inbound) {
	t.addMu.Lock()
	t.added = append(t.added, in)
	t.addMu.Unlock()
}

// RemoveInbound stages retirement of one consumer endpoint (a dead
// incarnation's link). The task discards its backlog and closes it at its
// next step, always before adopting any staged addition.
func (t *mergeTask) RemoveInbound(cons channel.RecvPort) {
	t.addMu.Lock()
	t.removed = append(t.removed, cons)
	t.addMu.Unlock()
}

// dropCons removes one consumer from the live set, discards whatever the
// dead incarnation left in its backlog, and closes it.
func (t *mergeTask) dropCons(cons channel.RecvPort) {
	for i := range t.cons {
		if t.cons[i].cons == cons {
			t.cons = append(t.cons[:i], t.cons[i+1:]...)
			break
		}
	}
	cons.DiscardBacklog()
	cons.Close()
}

// retire schedules early exit: this node's last owned window is the one
// ending at end (see mergeTask.retiring).
func (t *mergeTask) retire(end stream.Watermark) {
	t.retireEnd.Store(int64(end))
	t.retiring.Store(true)
}

// wrap names the inbound link a consumer-side failure arrived on. Errors
// from HandleChunk/Decode get the same attribution: corrupt or unmergeable
// chunks are a property of the link that delivered them.
func (t *mergeTask) wrap(in inbound, err error) error {
	return fmt.Errorf("core: state channel node%d->node%d (inbound): %w", in.src, t.node, err)
}

func (t *mergeTask) emitAgg(win, key uint64, value int64) {
	if t.jrn != nil {
		// Buffered ahead of the sink emit: TriggerSides emits every row of
		// the windows it fires and then journals their trigger marks within
		// the same call, so each window's KindEmit flush sees its full set.
		t.jrn.bufferEmit(win, emitRec{tag: 0, key: key, a: value})
	}
	t.run.sink.EmitAgg(t.node, win, key, value)
}

func (t *mergeTask) emitJoin(win, key uint64, left, right int) {
	if t.jrn != nil {
		t.jrn.bufferEmit(win, emitRec{tag: 1, key: key, a: int64(left), b: int64(right)})
	}
	t.run.sink.EmitJoin(t.node, win, key, left, right)
}
