package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/slash-stream/slash/internal/channel"
	"github.com/slash-stream/slash/internal/recovery"
	"github.com/slash-stream/slash/internal/ssb"
	"github.com/slash-stream/slash/internal/stream"
)

// This file is the controller half of the checkpoint/recovery plane. The
// division of labour:
//
//   - ssb journals what a LEADER merged (incremental checkpoints of the
//     inbound delta stream, window-trigger marks) — see internal/ssb.
//   - this file journals what a SOURCE produced (a progress mark ahead of
//     every flush), keeps per-link replay rings of everything posted into
//     the mesh, detects failed nodes from link reports, and runs the
//     fence → restore → replay → rejoin sequence.
//
// Restart correctness rests on two replay sources. The restored node's own
// past output is re-produced by re-ingesting its input flows from the last
// journaled flush boundary that committed cluster-wide: flushes serialize
// fragments in sorted order, so re-ingesting the same record ranges and
// flushing at the same journaled boundaries re-sends byte-identical epochs,
// which the leaders' epoch-commit trackers deduplicate exactly. The
// survivors' past output TO the restored node is re-delivered from the
// replay rings, filtered by the restored checkpoint's committed-epoch
// vector. Ring pruning advances only at the node's durable checkpoints, so
// an evicted entry above the restored horizon is unrecoverable by
// construction and fails the run typed (ErrUnrecoverable).

// maxRestarts bounds node restarts for the run (automatic and manual); beyond
// it the run fails with ErrUnrecoverable.
const maxRestarts = 8

// durableEmits reports whether every window trigger journals its result rows
// (recovery.KindEmit, written immediately before the window's trigger mark)
// and journal replay re-emits them into the sink. In-process a restarted
// node's past emits already reached the shared sink, but a cluster member's
// sink dies with its process, so a respawned member must replay its own
// output.
func (c *Controller) durableEmits() bool { return c.cfg.Placement != nil }

// Recovery records one completed node restart for reporting.
type Recovery struct {
	// Node is the restarted node id.
	Node int
	// Incarnation is the node's new incarnation (1 for the first restart).
	Incarnation int
	// Duration is fence-to-rejoin wall-clock time.
	Duration time.Duration
	// ReplayedChunks counts ring entries re-delivered to the restored node
	// (data chunks and heartbeats above its durable checkpoint horizon). A
	// restored cluster member records 0: its survivors replay, and count it
	// in their own Report.ReplayedChunks.
	ReplayedChunks int
}

// nodeJournal adapts one node's slice of the recovery store to the ssb
// Journal interface and adds the engine's own source-progress records. It
// outlives the node: a restarted incarnation keeps appending under the same
// node id with a continuous sequence, so the journal stays a single ordered
// replay log across failures.
type nodeJournal struct {
	store recovery.Store
	node  int
	// durable turns on durable emits: sink rows buffered per window are
	// journaled as a KindEmit record immediately ahead of the window's
	// trigger mark, and replay re-emits them. Only placement (multi-process)
	// deployments set it — there the sink dies with the process, so replay
	// must re-produce the lost rows; in-process restarts share one sink and
	// re-emitting would double-count.
	durable bool

	mu      sync.Mutex
	seq     uint64
	pending map[uint64][]emitRec // window -> buffered sink rows (durable only)
}

func (j *nodeJournal) append(rec recovery.Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(rec)
}

// appendLocked stamps rec with the next sequence number and appends it.
func (j *nodeJournal) appendLocked(rec recovery.Record) error {
	j.seq++
	rec.Seq = j.seq
	return j.store.Append(j.node, &rec)
}

// setSeq raises the journal's sequence counter to n. Replay calls it so a
// restored incarnation keeps appending with a continuous sequence.
func (j *nodeJournal) setSeq(n uint64) {
	j.mu.Lock()
	if n > j.seq {
		j.seq = n
	}
	j.mu.Unlock()
}

// bufferEmit stages one sink row of win until the window's trigger mark is
// journaled. Rows are buffered, not appended eagerly, so the journal carries
// exactly one KindEmit record per fired window, written atomically ahead of
// its trigger mark.
func (j *nodeJournal) bufferEmit(win uint64, r emitRec) {
	j.mu.Lock()
	if j.pending == nil {
		j.pending = map[uint64][]emitRec{}
	}
	j.pending[win] = append(j.pending[win], r)
	j.mu.Unlock()
}

// Checkpoint implements ssb.Journal. The store copies the payload regions
// once, before Append returns.
func (j *nodeJournal) Checkpoint(gen uint64, clock []int64, payload [][]byte) error {
	return j.append(recovery.Record{Kind: recovery.KindCheckpoint, Gen: gen, Clock: clock, Regions: payload})
}

// Trigger implements ssb.Journal. With durable emits armed, the window's
// buffered sink rows are journaled first: a replayed KindTrigger then knows
// its rows are on record. A crash after the sink emitted but before this
// append leaves no trigger mark, so the window re-fires (and re-emits) on
// restore — lossless either way, deduplicated by the KindEmit overwrite.
func (j *nodeJournal) Trigger(gen uint64, win uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.durable {
		if rows := j.pending[win]; len(rows) > 0 {
			delete(j.pending, win)
			if err := j.appendLocked(recovery.Record{Kind: recovery.KindEmit, Gen: gen, Payload: encodeEmits(win, rows)}); err != nil {
				return err
			}
		}
	}
	return j.appendLocked(recovery.Record{Kind: recovery.KindTrigger, Gen: gen, Payload: ssb.EncodeTriggerPayload(win)})
}

// source appends a source-progress mark. Written AHEAD of the flush it
// describes, so even an interrupted flush leaves its boundary on record and
// replay reproduces the epoch byte-for-byte. Retries re-journal the same
// epoch with the bumped incarnation; replay keeps the last mark per epoch.
func (j *nodeJournal) source(m sourceMark) error {
	return j.append(recovery.Record{Kind: recovery.KindSource, Payload: m.encode()})
}

// sourceMark is one source thread's journaled flush intent.
type sourceMark struct {
	// Thread is the global thread id (vector clock slot).
	Thread int
	// Consumed is the number of records the thread had read from its flow
	// when the flush started — the replay boundary.
	Consumed int64
	// Updates is the thread's state-update count at the boundary (restored
	// into the replacement task so run totals stay exact).
	Updates int64
	// Epoch is the epoch number the flush uses.
	Epoch uint64
	// Wm is the thread watermark at the boundary.
	Wm int64
	// Inc is the incarnation the flush stamps on its chunks.
	Inc uint8
	// Done marks the stream-finishing flush (FinishStream).
	Done bool
}

const sourceMarkSize = 38

func (m sourceMark) encode() []byte {
	b := make([]byte, sourceMarkSize)
	binary.LittleEndian.PutUint32(b[0:], uint32(m.Thread))
	binary.LittleEndian.PutUint64(b[4:], uint64(m.Consumed))
	binary.LittleEndian.PutUint64(b[12:], uint64(m.Updates))
	binary.LittleEndian.PutUint64(b[20:], m.Epoch)
	binary.LittleEndian.PutUint64(b[28:], uint64(m.Wm))
	b[36] = m.Inc
	if m.Done {
		b[37] = 1
	}
	return b
}

func decodeSourceMark(p []byte) (sourceMark, error) {
	if len(p) != sourceMarkSize {
		return sourceMark{}, fmt.Errorf("core: source mark of %d bytes, want %d", len(p), sourceMarkSize)
	}
	return sourceMark{
		Thread:   int(binary.LittleEndian.Uint32(p[0:])),
		Consumed: int64(binary.LittleEndian.Uint64(p[4:])),
		Updates:  int64(binary.LittleEndian.Uint64(p[12:])),
		Epoch:    binary.LittleEndian.Uint64(p[20:]),
		Wm:       int64(binary.LittleEndian.Uint64(p[28:])),
		Inc:      p[36],
		Done:     p[37] != 0,
	}, nil
}

// emitRec is one journaled sink row: an aggregate value (tag 0, a=value) or a
// join cardinality pair (tag 1, a=left, b=right). The window id lives in the
// enclosing KindEmit record, one per fired window.
type emitRec struct {
	tag  uint8
	key  uint64
	a, b int64
}

const emitRecSize = 25

// encodeEmits serializes a window's sink rows: win u64 | count u32 | rows.
func encodeEmits(win uint64, rows []emitRec) []byte {
	b := make([]byte, 12+len(rows)*emitRecSize)
	binary.LittleEndian.PutUint64(b[0:], win)
	binary.LittleEndian.PutUint32(b[8:], uint32(len(rows)))
	off := 12
	for _, r := range rows {
		b[off] = r.tag
		binary.LittleEndian.PutUint64(b[off+1:], r.key)
		binary.LittleEndian.PutUint64(b[off+9:], uint64(r.a))
		binary.LittleEndian.PutUint64(b[off+17:], uint64(r.b))
		off += emitRecSize
	}
	return b
}

func decodeEmits(p []byte) (uint64, []emitRec, error) {
	if len(p) < 12 {
		return 0, nil, fmt.Errorf("core: emit record of %d bytes, want >= 12", len(p))
	}
	win := binary.LittleEndian.Uint64(p[0:])
	n := int(binary.LittleEndian.Uint32(p[8:]))
	if len(p) != 12+n*emitRecSize {
		return 0, nil, fmt.Errorf("core: emit record of %d bytes, want %d rows", len(p), n)
	}
	rows := make([]emitRec, n)
	off := 12
	for i := range rows {
		rows[i] = emitRec{
			tag: p[off],
			key: binary.LittleEndian.Uint64(p[off+1:]),
			a:   int64(binary.LittleEndian.Uint64(p[off+9:])),
			b:   int64(binary.LittleEndian.Uint64(p[off+17:])),
		}
		off += emitRecSize
	}
	return win, rows, nil
}

// ringEntry is one retained post: the encoded chunk bytes plus the sender
// thread and epoch that filter replay against the restored commit horizon.
type ringEntry struct {
	thread int
	epoch  uint64
	buf    []byte
}

// replayRingEntries bounds each per-link replay ring. A recovering node
// needs every chunk above its last durable checkpoint re-delivered; if the
// ring evicted one, the node is beyond the replay horizon and the run fails
// with ErrUnrecoverable.
const replayRingEntries = 4096

// replayRing retains the most recent posts of one directed link (src→dst)
// for re-delivery after dst restarts. Entries are pruned when dst writes a
// durable checkpoint (everything at or below the committed vector is folded
// into the journal) and evicted by capacity; an eviction above dst's
// restored horizon makes dst unrecoverable. The ring lives in the
// controller, not the channel, so it survives both endpoints' restarts.
type replayRing struct {
	mu      sync.Mutex
	cap     int
	head    int
	entries []ringEntry
	// evicted tracks, per sender thread, the highest epoch that fell off the
	// ring by capacity — the replay-horizon check.
	evicted map[int]uint64
}

func newReplayRing(capacity int) *replayRing {
	return &replayRing{cap: capacity, evicted: map[int]uint64{}}
}

// push retains one posted chunk (bytes are copied).
func (r *replayRing) push(thread int, epoch uint64, buf []byte) {
	cp := append([]byte(nil), buf...)
	r.mu.Lock()
	r.entries = append(r.entries, ringEntry{thread: thread, epoch: epoch, buf: cp})
	for len(r.entries)-r.head > r.cap {
		e := r.entries[r.head]
		r.entries[r.head] = ringEntry{}
		r.head++
		if e.epoch > r.evicted[e.thread] {
			r.evicted[e.thread] = e.epoch
		}
	}
	if r.head > r.cap {
		r.entries = append(r.entries[:0], r.entries[r.head:]...)
		r.head = 0
	}
	r.mu.Unlock()
}

// prune drops every entry whose epoch the receiver durably checkpointed.
// Relative order of the kept entries is preserved (FIFO replay).
func (r *replayRing) prune(committed []uint64) {
	r.mu.Lock()
	kept := make([]ringEntry, 0, len(r.entries)-r.head)
	for _, e := range r.entries[r.head:] {
		if e.thread < len(committed) && e.epoch <= committed[e.thread] {
			continue
		}
		kept = append(kept, e)
	}
	r.entries = kept
	r.head = 0
	r.mu.Unlock()
}

// clear empties the ring (the sender restarts and will re-produce its
// un-committed epochs itself, so retained entries would only duplicate).
func (r *replayRing) clear() {
	r.mu.Lock()
	r.entries, r.head = nil, 0
	r.evicted = map[int]uint64{}
	r.mu.Unlock()
}

// horizonErr reports the replay-horizon check: an entry above the restored
// committed vector was evicted, so the receiver's journal is too far behind
// this ring to recover.
func (r *replayRing) horizonErr(committed []uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for th, ep := range r.evicted {
		var c uint64
		if th < len(committed) {
			c = committed[th]
		}
		if ep > c {
			return fmt.Errorf("%w: replay ring evicted epoch %d of thread %d, checkpoint horizon is %d", ErrUnrecoverable, ep, th, c)
		}
	}
	return nil
}

// replayTo re-delivers every retained entry above the restored commit
// horizon, in order, through the rebuilt link.
func (r *replayRing) replayTo(s *chanSender, committed []uint64) (int, error) {
	r.mu.Lock()
	entries := append([]ringEntry(nil), r.entries[r.head:]...)
	r.mu.Unlock()
	n := 0
	for _, e := range entries {
		if e.thread < len(committed) && e.epoch <= committed[e.thread] {
			continue
		}
		if err := s.sendEncoded(e.buf, uint32(e.thread), e.epoch); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// isLinkError reports whether err is a transport-layer link failure the
// failure manager can vote on — a dead queue pair, a closed endpoint, or a
// credit/slot wait that timed out against a non-draining peer — as opposed
// to a logic error (e.g. an oversized chunk) recovery cannot mask.
func isLinkError(err error) bool {
	if _, ok := FailedQP(err); ok {
		return true
	}
	return errors.Is(err, channel.ErrClosed) || errors.Is(err, channel.ErrCreditTimeout)
}

// linkReport is one task's observation of a dead link, stamped with the
// incarnations it was wired against so reports about already-replaced links
// can be discarded.
type linkReport struct {
	src, dst       int
	srcInc, dstInc int
	err            error
}

// recoveryMgr is the failure manager: it collects link reports, votes on
// the failed node (every broken link names it as one endpoint, so the dead
// node dominates the tally), and drives the restart. One goroutine,
// started with the deployment and drained by Wait.
type recoveryMgr struct {
	c       *Controller
	reports chan linkReport
	stopCh  chan struct{}
	doneCh  chan struct{}
	// last is the node the previous vote restarted. Ties (a two-node
	// deployment, where one broken link votes both endpoints equally) break
	// AWAY from it, so alternating attempts reach the genuinely dead node
	// within the restart budget.
	last int
	// delay is how long a vote collects link reports: fenceDelay.
	delay time.Duration
}

// fenceDelay is how long the failure manager collects link reports before
// voting on a suspect — long enough for every task touching the dead node to
// observe its own link error.
const fenceDelay = 2 * time.Millisecond

func newRecoveryMgr(c *Controller) *recoveryMgr {
	return &recoveryMgr{
		c:       c,
		reports: make(chan linkReport, 1024),
		stopCh:  make(chan struct{}),
		doneCh:  make(chan struct{}),
		last:    -1,
		delay:   fenceDelay,
	}
}

// reportLink routes one link failure to the manager. Non-blocking: under a
// report storm the queued burst already identifies the failure.
func (m *recoveryMgr) reportLink(src, dst, srcInc, dstInc int, err error) {
	select {
	case m.reports <- linkReport{src: src, dst: dst, srcInc: srcInc, dstInc: dstInc, err: err}:
	default:
	}
}

func (m *recoveryMgr) start() { go m.run() }

// shutdown stops the manager after it finished any in-flight restart.
func (m *recoveryMgr) shutdown() {
	select {
	case <-m.stopCh:
	default:
		close(m.stopCh)
	}
	<-m.doneCh
}

func (m *recoveryMgr) run() {
	defer close(m.doneCh)
	// Placement mode: the vote moves to the external coordinator, which sees
	// every process's reports. Forward each non-stale observation (the
	// incarnation filter still discards reports about replaced links) and
	// never fence locally — the coordinator drives the Cluster* sequence.
	var forward func(src, dst, srcInc, dstInc int, err error)
	if pl := m.c.cfg.Placement; pl != nil {
		forward = pl.OnLinkDown
	}
	for {
		select {
		case <-m.stopCh:
			return
		case r := <-m.reports:
			if m.stale(r) {
				continue
			}
			if forward != nil {
				forward(r.src, r.dst, r.srcInc, r.dstInc, r.err)
				continue
			}
			m.handle(r)
		}
	}
}

// stale reports whether a restart already replaced either endpoint's link
// incarnation since the report was generated.
func (m *recoveryMgr) stale(r linkReport) bool {
	c := m.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.src >= len(c.nodeInc) || r.dst >= len(c.nodeInc) {
		return true
	}
	return r.srcInc != c.nodeInc[r.src] || r.dstInc != c.nodeInc[r.dst]
}

// handle fences and restarts the node the report burst votes for.
func (m *recoveryMgr) handle(first linkReport) {
	burst := []linkReport{first}
	deadline := time.After(m.delay)
collect:
	for {
		select {
		case r := <-m.reports:
			burst = append(burst, r)
		case <-deadline:
			break collect
		case <-m.stopCh:
			break collect
		}
	}
	// A restart in progress (manual, or racing from a previous burst) tears
	// links down on purpose; its reports look exactly like a failure until
	// the incarnation bump marks them stale. restartMu spans every restart,
	// so judging under it waits one out without polling, and no manual
	// restart slips in between the vote and the restart it triggers.
	m.c.restartMu.Lock()
	restarted := m.judge(burst)
	m.c.restartMu.Unlock()
	if !restarted {
		return
	}
	// Discard reports that raced the restart; a fresh one means a new
	// failure and is handled immediately.
	for {
		select {
		case r := <-m.reports:
			if !m.stale(r) {
				m.handle(r)
				return
			}
		default:
			return
		}
	}
}

// judge votes on a report burst and restarts the suspect, reporting whether
// it did. Callers hold c.restartMu.
func (m *recoveryMgr) judge(burst []linkReport) bool {
	c := m.c
	votes := map[int]int{}
	incOf := map[int]int{}
	for _, r := range burst {
		if m.stale(r) {
			continue
		}
		// Both endpoints observe a broken link; only the dead node is an
		// endpoint of EVERY broken link, so it wins the tally. (A two-node
		// deployment cannot disambiguate — restarting the wrong, healthy
		// node is still safe: it restores losslessly, and the genuinely
		// dead node keeps reporting until its own turn, bounded by
		// maxRestarts.)
		votes[r.src]++
		votes[r.dst]++
		incOf[r.src], incOf[r.dst] = r.srcInc, r.dstInc
	}
	suspect, best := -1, 0
	for n, v := range votes {
		switch {
		case v > best:
			suspect, best = n, v
		case v == best:
			if suspect == m.last || (n != m.last && n > suspect) {
				suspect = n
			}
		}
	}
	if suspect < 0 {
		return false // every report was stale
	}
	m.last = suspect
	// Condition the restart on the incarnation the reports accused: if a
	// concurrent (manual) restart already replaced it, the failure is gone
	// and restarting the fresh incarnation would only lose time. Fatal
	// errors already failed the run inside the restart.
	return c.restartLocked(suspect, incOf[suspect]) == nil
}

// RestartNode fences node id, restores it from its journal, replays the
// survivors' rings to it, and rejoins it to the mesh — the manual entry
// point of the same sequence the failure manager runs automatically.
// Serialized with other restarts via restartMu and with reconfigurations via
// reconfigMu; sources are held throughout (merge tasks keep draining so
// restored traffic lands).
func (c *Controller) RestartNode(id int) error {
	if c.cfg.Recovery == nil {
		return fmt.Errorf("core: recovery is not configured")
	}
	c.restartMu.Lock()
	defer c.restartMu.Unlock()
	return c.restartLocked(id, -1)
}

// Recoveries returns a snapshot of every completed node restart.
func (c *Controller) Recoveries() []Recovery {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Recovery(nil), c.recoveries...)
}

// threadRestore is one source thread's restoration: where to rewind its
// flow, the progress counters to resume, and the journaled flush boundaries
// to replay.
type threadRestore struct {
	rewind  int64
	updates int64
	epoch   uint64
	wm      int64
	inc     uint8
	done    bool
	counted bool
	plan    []planFlush
}

// restartLocked is RestartNode conditioned on an incarnation: when expect is
// non-negative and node x's incarnation already moved past it, the restart
// is a stale request (a concurrent restart handled the failure) and returns
// nil without touching the node. Callers hold c.restartMu.
//
// The sequence is hold → kill → fence → restore → replay → release. kill is
// the in-process stand-in for a member process dying; the hold and its
// release, fence, restore and replay are the steps the cluster coordinator
// drives through the Cluster* wrappers (cluster.go), fed here from the
// co-located survivors.
func (c *Controller) restartLocked(x, expect int) error {
	c.mu.Lock()
	if !c.started {
		c.mu.Unlock()
		return ErrNotRunning
	}
	if expect >= 0 && c.nodeInc[x] != expect {
		c.mu.Unlock()
		return nil
	}
	if x < 0 || x >= c.cfg.MaxNodes || !containsNode(c.live, x) {
		c.mu.Unlock()
		return fmt.Errorf("core: node %d is not live", x)
	}
	c.restarts++
	if c.restarts > maxRestarts {
		c.mu.Unlock()
		err := fmt.Errorf("%w: restart budget of %d exhausted", ErrUnrecoverable, maxRestarts)
		c.run.fail(err)
		return err
	}
	c.mu.Unlock()

	// Raised ahead of reconfigMu: the hold pre-empts a join or leave waiting
	// at its flush barrier, which returns ErrRecovering and lets go.
	hold, _ := c.run.raise(barrierHold)
	defer c.run.release(hold)
	c.reconfigMu.Lock()
	defer c.reconfigMu.Unlock()
	start := time.Now()
	oldDone, err := c.kill(x)
	if err != nil {
		return err
	}
	if err := c.awaitHold(hold, x); err != nil {
		return err
	}
	c.mu.Lock()
	horizon := c.fence(x, c.nodeInc[x]+1)
	restored, err := c.restore(x, horizon, oldDone)
	c.mu.Unlock()
	var n int
	if err == nil {
		n, err = c.replay(x, restored)
	}
	if err != nil {
		c.run.fail(err)
		return err
	}
	c.recordRecovery(x, start, n)
	return nil
}

// awaitHold is the wait of the fence step, shared by both drivers. The hold
// gates only each source's next step; one already running may still be
// flushing, and a flush that outlived the fence would post its next chunk
// through the rebuilt link to x ahead of the ring replay — the restored
// leader would then commit an epoch whose data is still queued in the ring,
// or skip a live chunk as a replayed one. So it first closes every send half
// toward x, which makes a step blocked on x's credit fail and park (it
// retries once the hold's release bumps the retry generation), then blocks
// until every live source but x's answered hold.
func (c *Controller) awaitHold(hold *barrier, x int) error {
	c.mu.Lock()
	for m := range c.senders {
		if s := c.senders[m][x]; s != nil {
			s.prod.Close()
		}
	}
	c.mu.Unlock()
	return c.run.await(hold, c.liveSources(x))
}

// exitGroup is one node incarnation's task-exit signal. Every launched task
// raises it once, when its Step returns Done (the scheduler never steps a
// task again after that); done closes when the last one did. Tasks restored
// as done are never launched and are not counted.
type exitGroup struct {
	left atomic.Int32
	done chan struct{}
}

func newExitGroup(launched int) *exitGroup {
	g := &exitGroup{done: make(chan struct{})}
	g.left.Store(int32(launched))
	if launched == 0 {
		close(g.done)
	}
	return g
}

// exit records one task's exit. Nil-safe for tasks stepped outside a pool.
func (g *exitGroup) exit() {
	if g != nil && g.left.Add(-1) == 0 {
		close(g.done)
	}
}

// kill does to node x's running incarnation what SIGKILL does to a member
// process: its tasks stop, its endpoints close, and its NIC leaves the
// fabric. It is the one restart step without a cluster counterpart. It
// returns which of x's source threads had finished — those already
// published their run totals.
func (c *Controller) kill(x int) ([]bool, error) {
	c.mu.Lock()
	// The node's tasks exit at their next step. Closing every producer
	// endpoint touching the node unblocks any sender spinning for credit on a
	// channel whose far end will never poll again.
	c.run.fenced[x].Store(true)
	for m := range c.senders {
		for _, s := range []*chanSender{c.senders[x][m], c.senders[m][x]} {
			if s != nil {
				s.prod.Close()
			}
		}
	}
	exits := c.merges[x].exits
	oldSources := c.sources[x]
	c.mu.Unlock()

	// Wait for the fenced tasks' workers to let go of them.
	timeout := time.NewTimer(5 * time.Second)
	defer timeout.Stop()
	select {
	case <-exits.done:
	case <-c.run.failed:
		return nil, c.run.err() // the run died under the restart (e.g. journal failure)
	case <-timeout.C:
		err := fmt.Errorf("%w: node %d tasks did not exit after fencing", ErrUnrecoverable, x)
		c.run.fail(err)
		return nil, err
	}
	oldDone := make([]bool, len(oldSources))
	for i, st := range oldSources {
		oldDone[i] = st.done.Load()
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.consumers[x] {
		e.cons.Close()
	}
	c.consumers[x] = nil
	// The dead incarnation's backend is discarded: the deltas it merged
	// since its last checkpoint record reach the replacement again (replay
	// rings, rewound sources), so its staged log goes back to the free list.
	if be := c.backends[x]; be != nil {
		be.DropCheckpointLog()
	}
	clear(c.senders[x])
	// The dead NIC's counters would vanish with it; fold them into the
	// run-level accumulators the final Report reads.
	if nic := c.nics[x]; nic != nil {
		s := nic.Stats()
		c.deadTx += s.TxBytes
		c.deadMsgs += s.TxMsgs
		c.nics[x] = nil
	}
	// Detach the dead incarnation from the transport first: its trunk
	// endpoint (when trunking) closes, completing survivors' in-flight
	// frames to it with teardown semantics instead of poisoning shared
	// lanes, and every survivor forgets its trunk to the old name.
	c.transport.DropNode(x)
	// Fence the dead incarnation's snapshot directory before its NIC goes:
	// state readers observe the fence word (or a deregistered region), drop
	// their cached endpoint, and re-resolve to the incarnation restore is
	// about to install. They never see pre-crash state as current.
	if c.stateReg != nil {
		c.stateReg.Fence(x)
	}
	// Fence at the fabric: the old name can never be reconnected, and any
	// injector fault state keyed on it stays with the dead incarnation.
	c.fabric.RemoveNIC(c.nicName(x))
	// The node's own outbound rings restart empty: its journaled source
	// plan re-produces every epoch the receivers have not committed, so
	// retained entries would only duplicate epochs in the ring.
	for _, r := range c.rings[x] {
		if r != nil {
			r.clear()
		}
	}
	// Unfence before the replacement tasks are born.
	c.run.fenced[x].Store(false)
	return oldDone, nil
}

// fence severs every owned survivor's links to dead node x, installs x's new
// incarnation, and removes x from the live set. Survivor merge tasks discard
// the old link's backlog before adopting the rebuilt one (RemoveInbound
// stages ahead of AddInbound), so the dead incarnation's chunks can never
// interleave with the restart's — the positional dedup depends on it. The
// rings feeding x are kept for replay. It returns the element-wise minimum
// of the survivors' committed-epoch vectors: the commit horizon x's sources
// restore to. Callers hold c.mu.
func (c *Controller) fence(x, newInc int) []uint64 {
	var committed []uint64
	for _, m := range c.live {
		if m == x || c.backends[m] == nil {
			continue
		}
		// awaitHold already closed the send half toward x.
		c.senders[m][x] = nil
		kept := c.consumers[m][:0]
		for _, e := range c.consumers[m] {
			if e.src == x {
				c.merges[m].RemoveInbound(e.cons)
			} else {
				kept = append(kept, e)
			}
		}
		c.consumers[m] = kept
		v := c.backends[m].CommittedEpochs()
		if committed == nil {
			committed = append([]uint64(nil), v...)
			continue
		}
		for i := range committed {
			if i < len(v) && v[i] < committed[i] {
				committed[i] = v[i]
			}
		}
	}
	c.nodeInc[x] = newInc
	c.live = without(c.live, x)
	return committed
}

// restore rebuilds node x from its journal under its new incarnation. It is
// buildNode with the journal replay and the sources' replay plans placed
// before the tasks exist: checkpoints and trigger marks restore the backend,
// and each thread's plan is cut at the minimum of the restored vector and
// horizon, the survivors' vector from fence. oldDone marks threads whose
// predecessor already published its run totals; nil means none did (a dead
// process publishes nothing). Returns the restored committed-epoch vector
// the survivors filter their ring replay with. Callers hold c.mu.
func (c *Controller) restore(x int, horizon []uint64, oldDone []bool) ([]uint64, error) {
	var restored []uint64
	err := c.buildNode(x, c.flows[x], func(be *ssb.Backend) ([]*threadRestore, error) {
		marks, err := c.replayJournal(x, be)
		if err != nil {
			return nil, fmt.Errorf("%w: node %d journal replay: %v", ErrUnrecoverable, x, err)
		}
		be.FinishRestore()
		restored = be.CommittedEpochs()
		return buildPlans(x, c.cfg.ThreadsPerNode, marks, restored, horizon, oldDone), nil
	})
	if err != nil {
		return nil, err
	}
	c.setPeers()
	return restored, nil
}

// replay re-delivers every owned survivor's retained ring entries above
// restored node x's commit horizon, in order, through the rebuilt links, and
// adds the count to this controller's Report.ReplayedChunks. Horizon check
// first: an evicted entry above the horizon makes x unrecoverable and fails
// the run.
func (c *Controller) replay(x int, restored []uint64) (int, error) {
	type replaySrc struct {
		s *chanSender
		r *replayRing
	}
	var replays []replaySrc
	c.mu.Lock()
	for _, m := range c.live {
		if m == x || c.backends[m] == nil {
			continue
		}
		if s, r := c.senders[m][x], c.rings[m][x]; s != nil && r != nil {
			replays = append(replays, replaySrc{s, r})
		}
	}
	c.mu.Unlock()
	// The posts below run outside c.mu: they flow against the restored merge
	// task's draining.
	for _, rp := range replays {
		if err := rp.r.horizonErr(restored); err != nil {
			c.run.fail(err)
			return 0, err
		}
	}
	replayed := 0
	for _, rp := range replays {
		n, err := rp.r.replayTo(rp.s, restored)
		replayed += n
		if err == nil {
			continue
		}
		if c.cfg.Placement == nil && isLinkError(err) {
			// The replaying SENDER's link died mid-replay — the usual cause is
			// that the vote fenced the wrong suspect and the sender is the
			// genuinely dead node. Its restart clears its own rings and
			// re-produces every uncommitted epoch from its journal, so the
			// entries skipped here are re-sent by construction. Route the
			// report back to the manager instead of failing the run. (A
			// placement member returns the error: the coordinator decides.)
			c.mgr.reportLink(rp.s.src, rp.s.dst, rp.s.srcInc, rp.s.dstInc, err)
			continue
		}
		return replayed, fmt.Errorf("core: ring replay to node %d: %w", x, err)
	}
	c.mu.Lock()
	c.replayed += replayed
	c.mu.Unlock()
	c.mReplayed.Add(uint64(replayed))
	return replayed, nil
}

// recordRecovery logs one completed restart of node x, begun at start.
func (c *Controller) recordRecovery(x int, start time.Time, replayed int) {
	c.mu.Lock()
	rec := Recovery{Node: x, Incarnation: c.nodeInc[x], Duration: time.Since(start), ReplayedChunks: replayed}
	c.recoveries = append(c.recoveries, rec)
	c.mu.Unlock()
	// The registry is unitless; like every engine histogram this one
	// observes nanoseconds despite the conventional _seconds suffix.
	c.mRecDur.ObserveDuration(rec.Duration)
}

// replayJournal replays node x's journal into its fresh backend, in order:
// checkpoints merge their staged deltas and fast-forward tracker and clock,
// trigger marks re-mark fired windows — without re-emitting in-process (the
// shared sink already holds the rows), re-emitting from the journaled
// KindEmit records when durable emits are armed (the dead process's sink is
// gone). Source marks are collected for buildPlans.
func (c *Controller) replayJournal(x int, be *ssb.Backend) ([]sourceMark, error) {
	recs, err := c.cfg.Recovery.Store.Load(x)
	if err != nil {
		return nil, err
	}
	durable := c.durableEmits()
	var marks []sourceMark
	// Stash of journaled sink rows keyed by window: overwriting on a repeat
	// KindEmit (a pre-crash restart replayed the window too) deduplicates.
	var stashed map[uint64][]emitRec
	for i := range recs {
		rec := &recs[i]
		switch rec.Kind {
		case recovery.KindCheckpoint:
			if err := be.RestoreCheckpoint(rec.Clock, rec.Payload); err != nil {
				return nil, err
			}
		case recovery.KindTrigger:
			win, err := ssb.DecodeTriggerPayload(rec.Payload)
			if err != nil {
				return nil, err
			}
			if durable {
				for _, r := range stashed[win] {
					if r.tag == 0 {
						c.run.sink.EmitAgg(x, win, r.key, r.a)
					} else {
						c.run.sink.EmitJoin(x, win, r.key, int(r.a), int(r.b))
					}
				}
				delete(stashed, win)
			}
			if err := be.RestoreTrigger(win); err != nil {
				return nil, err
			}
		case recovery.KindEmit:
			win, rows, err := decodeEmits(rec.Payload)
			if err != nil {
				return nil, err
			}
			if durable {
				if stashed == nil {
					stashed = map[uint64][]emitRec{}
				}
				stashed[win] = rows
			}
		case recovery.KindSource:
			m, err := decodeSourceMark(rec.Payload)
			if err != nil {
				return nil, err
			}
			marks = append(marks, m)
		default:
			return nil, fmt.Errorf("core: journal record of unknown kind %d", rec.Kind)
		}
	}
	// A stale KindEmit stash (trigger append lost to the crash) is dropped:
	// the window never marked fired, so the restored backend re-fires it and
	// journals a fresh KindEmit then.
	if n := len(recs); n > 0 && c.journals != nil {
		c.journals[x].setSeq(recs[n-1].Seq)
	}
	return marks, nil
}

// buildPlans turns node x's journaled source marks into per-thread replay
// plans (tpn threads per node). The rewind point per thread is the last
// flush boundary whose epoch is committed everywhere: at the restored
// backend (restored) and at every survivor (horizon, the fence step's
// minimum). Epochs at or below it need no re-send; everything above is
// re-produced by re-ingesting from the boundary and flushing at the
// journaled boundaries. A horizon lower than the truth only re-sends more,
// which the leaders' dedup drops. oldDone[th] marks a thread whose
// predecessor already published its run totals.
func buildPlans(x, tpn int, marks []sourceMark, restored, horizon []uint64, oldDone []bool) []*threadRestore {
	plans := make([]*threadRestore, tpn)
	for th := 0; th < tpn; th++ {
		gtid := x*tpn + th
		// Last mark per epoch wins: flush retries and earlier incarnations
		// re-journal an epoch's boundary verbatim with a bumped incarnation.
		byEpoch := map[uint64]sourceMark{}
		maxInc := uint8(0)
		for _, mk := range marks {
			if mk.Thread != gtid {
				continue
			}
			byEpoch[mk.Epoch] = mk
			if mk.Inc > maxInc {
				maxInc = mk.Inc
			}
		}
		epochs := make([]uint64, 0, len(byEpoch))
		for e := range byEpoch {
			epochs = append(epochs, e)
		}
		sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })

		eMin := uint64(math.MaxUint64)
		if gtid < len(restored) {
			eMin = restored[gtid]
		}
		if gtid < len(horizon) && horizon[gtid] < eMin {
			eMin = horizon[gtid]
		}
		if eMin == math.MaxUint64 {
			eMin = 0
		}
		r := &threadRestore{wm: int64(stream.NoWatermark), inc: maxInc + 1}
		if th < len(oldDone) {
			r.counted = oldDone[th]
		}
		cut := -1
		for i, e := range epochs {
			if e <= eMin {
				cut = i
			}
		}
		if cut >= 0 {
			base := byEpoch[epochs[cut]]
			r.rewind = base.Consumed
			r.updates = base.Updates
			r.epoch = base.Epoch
			r.wm = base.Wm
			r.done = base.Done
		}
		for _, e := range epochs[cut+1:] {
			mk := byEpoch[e]
			r.plan = append(r.plan, planFlush{consumed: mk.Consumed, done: mk.Done})
		}
		plans[th] = r
	}
	return plans
}

// onCheckpoint receives a node's durable commit vector after a periodic
// checkpoint and prunes every ring feeding it: entries at or below the
// vector are folded into the journal and need never replay.
func (c *Controller) onCheckpoint(node int, committed []uint64) {
	for src := range c.rings {
		if r := c.rings[src][node]; r != nil {
			r.prune(committed)
		}
	}
	c.mCkpts.Inc()
}

func containsNode(set []int, n int) bool {
	for _, m := range set {
		if m == n {
			return true
		}
	}
	return false
}

// without returns a fresh copy of set with n removed.
func without(set []int, n int) []int {
	out := set[:0:0]
	for _, m := range set {
		if m != n {
			out = append(out, m)
		}
	}
	return out
}
