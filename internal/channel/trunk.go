// Trunk transport: many logical channels multiplexed over a few shared
// physical queue pairs per node.
//
// The per-pair channel (channel.go) dedicates two QPs and a private credit
// ring to every producer/consumer pair, so a mesh of n nodes costs O(n²)
// QPs and O(n²) registered credit memory. The trunk transport makes both
// O(n·lanes): each node owns a fixed set of lanes — dynamic initiator QPs
// (rdma.NewInitiator) that can address any destination — and an equal set of
// shared receive queues (rdma.SRQ) with a fixed pool of posted buffers. A
// Trunk is the purely logical per-pair object: it holds no QPs of its own,
// only the sticky failure state shared by every logical channel riding the
// node pair.
//
// Framing: each chunk travels as one two-sided SEND carrying a 24-byte
// header (channel id, payload length, thread, epoch) followed by the
// payload. The receiving endpoint demultiplexes frames to per-channel
// receive ports by channel id; thread and epoch surface on the RecvBuffer
// so the engine's replay plane needs no side channel.
//
// Doorbell batching: senders enqueue frames on their lane and one of them
// becomes the flusher, which drains everything queued in the same poll
// cycle and posts consecutive same-destination frames as a single WR chain
// (rdma.PostSendBatchTo) — one doorbell for the chain, the ibv_post_send
// linked-WR idiom. trunk_doorbells_total / trunk_frames_total measures the
// coalescing ratio.
//
// Failure semantics: a lane completion error latches the failing frame's
// Trunk (every logical channel between that node pair observes the same
// *rdma.QPFailure, attributed by lane id), the lane drains, resets the QP
// (ERR→RTS), and replays the flushed frames of healthy trunks in FIFO
// order. A destination torn down mid-flight (SRQ closed) completes with
// rdma.ErrQPClosed, which latches only the trunk to that destination and
// leaves the shared lane healthy — a fenced node must not poison its
// survivors' lanes.
package channel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/slash-stream/slash/internal/metrics"
	"github.com/slash-stream/slash/internal/rdma"
)

// TrunkHeaderSize is the per-frame header: channel id (4), payload length
// (4), thread (4), reserved (4), epoch (8).
const TrunkHeaderSize = 24

// Defaults for TrunkConfig zero values.
const (
	// DefaultLanes is the physical QP count per node ("a small fixed set").
	DefaultLanes = 4
	// DefaultLaneDepth is the staging slot count per lane, shared by every
	// logical channel pinned to it.
	DefaultLaneDepth = 16
	// DefaultRecvSlots is the posted receive buffer count per SRQ. It is
	// deliberately O(1) in the cluster size: fan-in beyond it is absorbed
	// by receiver-not-ready backpressure, not by memory.
	DefaultRecvSlots = 64
	// defaultLaneRNRRetry bounds how long a SEND waits for the destination
	// to post a receive buffer before the lane treats it as failed. With
	// the 50µs base backoff doubling per retry this is ~400ms of continuous
	// non-draining — a live consumer reposts in microseconds.
	defaultLaneRNRRetry = 12
)

// TrunkConfig describes one node's trunk endpoint.
type TrunkConfig struct {
	// Lanes is the number of physical QPs (and SRQs) per node.
	Lanes int
	// SlotSize is the frame slot size in bytes, including TrunkHeaderSize.
	SlotSize int
	// LaneDepth is the number of staging slots per lane.
	LaneDepth int
	// RecvSlots is the number of posted receive buffers per SRQ.
	RecvSlots int
	// SendTimeout bounds how long Acquire waits for a staging slot. Zero
	// waits forever. On expiry the sender latches ErrCreditTimeout, the
	// same silent-death signature as the per-pair channel's credit wait.
	SendTimeout time.Duration
	// QP configures the lane queue pairs. A zero RNRRetry selects the
	// trunk's finite default (defaultLaneRNRRetry) rather than the verbs
	// layer's infinite one: a lane must not wedge forever behind one dead
	// destination.
	QP rdma.QPOptions
}

func (c *TrunkConfig) fill() error {
	if c.Lanes == 0 {
		c.Lanes = DefaultLanes
	}
	if c.SlotSize == 0 {
		c.SlotSize = DefaultSlotSize
	}
	if c.LaneDepth == 0 {
		c.LaneDepth = DefaultLaneDepth
	}
	if c.RecvSlots == 0 {
		c.RecvSlots = DefaultRecvSlots
	}
	if c.Lanes < 1 || c.LaneDepth < 1 || c.RecvSlots < 1 {
		return fmt.Errorf("channel: trunk lanes/depth/slots must be positive")
	}
	if c.SlotSize < TrunkHeaderSize+1 {
		return fmt.Errorf("channel: trunk slot size %d too small", c.SlotSize)
	}
	if c.QP.RNRRetry == 0 {
		c.QP.RNRRetry = defaultLaneRNRRetry
	}
	return nil
}

func putTrunkHeader(b []byte, chID, used, thread uint32, epoch uint64) {
	_ = b[TrunkHeaderSize-1]
	b[0], b[1], b[2], b[3] = byte(chID), byte(chID>>8), byte(chID>>16), byte(chID>>24)
	b[4], b[5], b[6], b[7] = byte(used), byte(used>>8), byte(used>>16), byte(used>>24)
	b[8], b[9], b[10], b[11] = byte(thread), byte(thread>>8), byte(thread>>16), byte(thread>>24)
	b[12], b[13], b[14], b[15] = 0, 0, 0, 0
	for i := 0; i < 8; i++ {
		b[16+i] = byte(epoch >> (8 * i))
	}
}

func trunkHeader(b []byte) (chID, used, thread uint32, epoch uint64) {
	_ = b[TrunkHeaderSize-1]
	chID = uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	used = uint32(b[4]) | uint32(b[5])<<8 | uint32(b[6])<<16 | uint32(b[7])<<24
	thread = uint32(b[8]) | uint32(b[9])<<8 | uint32(b[10])<<16 | uint32(b[11])<<24
	for i := 0; i < 8; i++ {
		epoch |= uint64(b[16+i]) << (8 * i)
	}
	return
}

// frameDesc tracks one staged frame through post → completion → free (or
// replay). One desc exists per staging slot, so the hot path allocates
// nothing.
type frameDesc struct {
	slot int
	wrID uint64
	n    int // frame bytes including header
	tr   *Trunk
	dst  *rdma.SRQ
}

// lane is one physical QP plus its staging memory. All logical channels
// pinned to it (chID % Lanes) share its slots, its flusher, and its fate.
type lane struct {
	ep      *Endpoint
	idx     int
	qp      *rdma.QueuePair
	staging *rdma.MemoryRegion
	descs   []frameDesc

	mu       sync.Mutex
	free     []int // free staging slot indices
	pending  []*frameDesc
	pendSwap []*frameDesc // double buffer for pending, so flush reuses capacity
	replay   []*frameDesc // flushed frames of healthy trunks awaiting repost
	wrs      []rdma.SendWR
	seq      uint64
	flushing bool
	down     bool // error observed; posting parked until the QP recycles

	// inflight is a FIFO ring of posted descs awaiting completion, sized
	// LaneDepth (a desc needs a slot, so at most LaneDepth are in flight).
	inflight []*frameDesc
	inHead   int
	inLen    int

	pumpMu sync.Mutex
}

// srqRing is one shared receive queue plus the registered slab backing its
// posted buffers.
type srqRing struct {
	srq  *rdma.SRQ
	slab *rdma.MemoryRegion
}

// Endpoint is one node's trunk attachment: cfg.Lanes initiator QPs for
// sending and as many SRQs for receiving. Its physical footprint is fixed —
// independent of how many peers or logical channels it serves.
type Endpoint struct {
	nic *rdma.NIC
	cfg TrunkConfig

	lanes []*lane
	srqs  []*srqRing

	mu     sync.Mutex
	trunks map[string]*Trunk // by remote NIC name

	recvMu sync.Mutex
	ports  map[uint32]*Receiver
	rbPool []*RecvBuffer // free RecvBuffers, one per posted receive slot

	closed atomic.Bool

	// Instrumentation; all nil without a fabric metrics registry.
	mFrames    *metrics.Counter
	mDoorbells *metrics.Counter
	mRecycles  *metrics.Counter
	mDropped   *metrics.Counter
}

// NewEndpoint attaches a trunk endpoint to the NIC.
func NewEndpoint(nic *rdma.NIC, cfg TrunkConfig) (*Endpoint, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	ep := &Endpoint{
		nic:    nic,
		cfg:    cfg,
		trunks: make(map[string]*Trunk),
		ports:  make(map[uint32]*Receiver),
	}
	if reg := nic.Fabric().Metrics(); reg != nil {
		lbl := fmt.Sprintf("{ep=%q}", nic.Name())
		ep.mFrames = reg.Counter("trunk_frames_total" + lbl)
		ep.mDoorbells = reg.Counter("trunk_doorbells_total" + lbl)
		ep.mRecycles = reg.Counter("trunk_lane_recycles_total" + lbl)
		ep.mDropped = reg.Counter("trunk_dropped_frames_total" + lbl)
	}
	// Lane QPs carry at most LaneDepth outstanding frames, so a queue depth
	// of LaneDepth keeps every post non-blocking; errors always complete,
	// so the send CQ needs the same bound.
	qpOpt := cfg.QP
	if qpOpt.QueueDepth < cfg.LaneDepth {
		qpOpt.QueueDepth = cfg.LaneDepth
	}
	for i := 0; i < cfg.Lanes; i++ {
		staging, err := nic.RegisterMemory(cfg.LaneDepth * cfg.SlotSize)
		if err != nil {
			ep.teardown()
			return nil, err
		}
		l := &lane{
			ep:       ep,
			idx:      i,
			qp:       rdma.NewInitiator(nic, qpOpt),
			staging:  staging,
			descs:    make([]frameDesc, cfg.LaneDepth),
			free:     make([]int, 0, cfg.LaneDepth),
			pending:  make([]*frameDesc, 0, cfg.LaneDepth),
			pendSwap: make([]*frameDesc, 0, cfg.LaneDepth),
			replay:   make([]*frameDesc, 0, cfg.LaneDepth),
			wrs:      make([]rdma.SendWR, 0, cfg.LaneDepth),
			inflight: make([]*frameDesc, cfg.LaneDepth),
		}
		for s := 0; s < cfg.LaneDepth; s++ {
			l.free = append(l.free, s)
			l.descs[s].slot = s
		}
		ep.lanes = append(ep.lanes, l)
	}
	for i := 0; i < cfg.Lanes; i++ {
		slab, err := nic.RegisterMemory(cfg.RecvSlots * cfg.SlotSize)
		if err != nil {
			ep.teardown()
			return nil, err
		}
		srq, err := nic.NewSRQ(cfg.RecvSlots, nil)
		if err != nil {
			slab.Deregister()
			ep.teardown()
			return nil, err
		}
		r := &srqRing{srq: srq, slab: slab}
		for s := 0; s < cfg.RecvSlots; s++ {
			base := s * cfg.SlotSize
			if err := srq.PostRecv(uint64(s), slab.Bytes()[base:base+cfg.SlotSize]); err != nil {
				srq.Close()
				slab.Deregister()
				ep.teardown()
				return nil, err
			}
			ep.rbPool = append(ep.rbPool, &RecvBuffer{})
		}
		ep.srqs = append(ep.srqs, r)
	}
	return ep, nil
}

// NIC returns the endpoint's NIC.
func (ep *Endpoint) NIC() *rdma.NIC { return ep.nic }

// DataSize returns the usable payload bytes per frame.
func (ep *Endpoint) DataSize() int { return ep.cfg.SlotSize - TrunkHeaderSize }

func (ep *Endpoint) teardown() {
	for _, l := range ep.lanes {
		l.qp.Close()
		l.staging.Deregister()
	}
	for _, r := range ep.srqs {
		r.srq.Close()
		r.slab.Deregister()
	}
}

// Close tears the endpoint down: lanes close (frames still queued complete
// with flush semantics), SRQs close (remote senders stalled on them complete
// with ErrQPClosed without latching their lanes), and registered memory is
// released. Idempotent.
func (ep *Endpoint) Close() {
	if !ep.closed.CompareAndSwap(false, true) {
		return
	}
	ep.teardown()
}

// Closed reports whether the endpoint was torn down.
func (ep *Endpoint) Closed() bool { return ep.closed.Load() }

// Trunk is the logical bundle of every channel between one node pair. It
// owns no physical resources — only the shared sticky failure state, so a
// lane failure observed by any one channel fans out to all of them.
type Trunk struct {
	src  *Endpoint
	dst  *Endpoint
	name string
	err  stickyErr
}

// TrunkTo returns the trunk from this endpoint to the remote one, creating
// it on first use. Trunks are keyed by the remote NIC name, which the engine
// incarnation-stamps — a restarted node gets a fresh trunk, never a stale
// latched one.
func (ep *Endpoint) TrunkTo(remote *Endpoint) *Trunk {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	key := remote.nic.Name()
	if tr, ok := ep.trunks[key]; ok {
		return tr
	}
	tr := &Trunk{
		src:  ep,
		dst:  remote,
		name: fmt.Sprintf("%s=>%s", ep.nic.Name(), key),
	}
	ep.trunks[key] = tr
	return tr
}

// DropTrunk forgets the trunk to the named remote NIC, so a future TrunkTo
// builds a fresh one. The recovery plane calls this when fencing a node.
func (ep *Endpoint) DropTrunk(remoteNIC string) {
	ep.mu.Lock()
	delete(ep.trunks, remoteNIC)
	ep.mu.Unlock()
}

// Name returns the trunk's "src=>dst" label.
func (tr *Trunk) Name() string { return tr.name }

// Err returns the trunk's sticky failure, shared by all its channels.
func (tr *Trunk) Err() error { return tr.err.get() }

// fail latches err on the trunk: the fan-out point — after this, every
// logical channel on the trunk reports the same root cause.
func (tr *Trunk) fail(err error) {
	tr.err.latch(err)
}

// Open creates the sending end of logical channel chID on this trunk. The
// channel is pinned to lane chID % Lanes and its frames land in the same
// index SRQ on the destination, so per-channel FIFO rides the lane QP's
// FIFO. Channel ids must be unique per destination endpoint across trunk
// lifetimes (the engine allocates them from one monotonic sequence).
func (tr *Trunk) Open(chID uint32) *Sender {
	l := tr.src.lanes[int(chID)%tr.src.cfg.Lanes]
	s := &Sender{
		tr:   tr,
		lane: l,
		dst:  tr.dst.srqs[int(chID)%tr.dst.cfg.Lanes].srq,
		chID: chID,
	}
	s.buf.Data = nil
	return s
}

// Sender is the sending end of one logical channel — a SendPort over the
// trunk transport.
type Sender struct {
	tr   *Trunk
	lane *lane
	dst  *rdma.SRQ
	chID uint32

	buf      SendBuffer
	slot     int
	acquired bool
	closed   atomic.Bool
	err      stickyErr
}

// ChannelID returns the logical channel id.
func (s *Sender) ChannelID() uint32 { return s.chID }

// DataSize returns the usable payload bytes per frame.
func (s *Sender) DataSize() int { return s.lane.ep.cfg.SlotSize - TrunkHeaderSize }

// Err returns the first fatal error of this channel: its own (timeout,
// post failure) or the trunk's shared one.
func (s *Sender) Err() error {
	if err := s.err.get(); err != nil {
		return err
	}
	return s.tr.Err()
}

// Close shuts the sending end down. The trunk and lane live on — they are
// shared — so Close only stops this channel from acquiring further slots.
func (s *Sender) Close() {
	s.closed.Store(true)
}

// stallSampleSpins is how many Sender.Acquire spins pass between clock
// samples in the slot-wait loop. Sampling every spin would tax the whole
// wait with one vDSO clock read per iteration even when no timeout is
// configured to fire; every 64th spin keeps timeout detection bounded (a
// Gosched-paced spin is microseconds) at 1/64 the clock cost.
const stallSampleSpins = 64

// Acquire reserves a staging slot on the channel's lane, spinning until one
// frees up. It returns nil once the channel closes, the trunk latches a
// failure, or SendTimeout expires (Err reports which). The spin pumps the
// lane's completion queue, so a lane failure surfaces here in bounded time
// even when no other channel is active.
func (s *Sender) Acquire() *SendBuffer {
	var stallStart int64
	var spins uint
	timeout := s.lane.ep.cfg.SendTimeout
	for {
		if s.closed.Load() || s.lane.ep.closed.Load() {
			return nil
		}
		if s.Err() != nil {
			return nil
		}
		s.lane.pump()
		if slot, ok := s.lane.reserve(); ok {
			// The pump that freed this slot may be the one that latched the
			// trunk; never hand out a buffer after the failure.
			if s.Err() != nil {
				s.lane.release(slot)
				return nil
			}
			s.slot = slot
			s.acquired = true
			base := slot * s.lane.ep.cfg.SlotSize
			s.buf.Data = s.lane.staging.Bytes()[base+TrunkHeaderSize : base+s.lane.ep.cfg.SlotSize]
			s.buf.Thread, s.buf.Epoch = 0, 0
			return &s.buf
		}
		if timeout > 0 && spins%stallSampleSpins == 0 {
			now := time.Now().UnixNano()
			if stallStart == 0 {
				stallStart = now
			} else if now-stallStart > int64(timeout) {
				s.err.latch(fmt.Errorf("%w (trunk %s lane %d, waited %v)",
					ErrCreditTimeout, s.tr.name, s.lane.idx, timeout))
				return nil
			}
		}
		spins++
		runtime.Gosched()
	}
}

// Post frames the acquired buffer (channel id, length, thread, epoch) and
// enqueues it on the lane. The caller that finds the lane idle becomes the
// flusher and posts everything queued meanwhile — frames accumulated behind
// one flush go out as WR chains with one doorbell per destination group.
func (s *Sender) Post(b *SendBuffer, used int) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if err := s.Err(); err != nil {
		return err
	}
	if b != &s.buf || !s.acquired {
		return fmt.Errorf("channel: posting a stale buffer")
	}
	if used < 0 || used > s.DataSize() {
		return ErrPayloadSize
	}
	l := s.lane
	base := s.slot * l.ep.cfg.SlotSize
	putTrunkHeader(l.staging.Bytes()[base:], s.chID, uint32(used), b.Thread, b.Epoch)
	desc := &l.descs[s.slot]
	desc.n = TrunkHeaderSize + used
	desc.tr = s.tr
	desc.dst = s.dst
	s.acquired = false
	l.enqueue(desc)
	l.ep.mFrames.Inc()
	return nil
}

// reserve pops a free staging slot.
func (l *lane) reserve() (int, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		slot := l.free[n-1]
		l.free = l.free[:n-1]
		return slot, true
	}
	return 0, false
}

// release returns a staging slot to the free list.
func (l *lane) release(slot int) {
	l.mu.Lock()
	l.free = append(l.free, slot)
	l.mu.Unlock()
}

// enqueue appends the frame to the lane's pending queue and flushes unless
// another sender already is (that flusher will pick this frame up in its
// next sweep — the doorbell coalescing window).
func (l *lane) enqueue(desc *frameDesc) {
	l.mu.Lock()
	l.pending = append(l.pending, desc)
	if l.flushing || l.down {
		l.mu.Unlock()
		return
	}
	l.flushing = true
	l.mu.Unlock()
	l.flushLoop()
}

// flushLoop drains the pending queue, posting consecutive same-destination
// frames as one WR chain per doorbell. Runs with l.flushing held; exits when
// the queue is empty or the lane goes down.
func (l *lane) flushLoop() {
	for {
		l.mu.Lock()
		if len(l.pending) == 0 || l.down {
			l.flushing = false
			l.mu.Unlock()
			return
		}
		batch := l.pending
		l.pending, l.pendSwap = l.pendSwap[:0], batch
		// Commit the batch to the inflight FIFO before posting: completions
		// match against the ring head, so a desc must be there first.
		for _, d := range batch {
			l.seq++
			d.wrID = l.seq
			l.inflight[(l.inHead+l.inLen)%len(l.inflight)] = d
			l.inLen++
		}
		l.mu.Unlock()
		i := 0
		for i < len(batch) {
			j := i + 1
			for j < len(batch) && batch[j].dst == batch[i].dst {
				j++
			}
			l.wrs = l.wrs[:0]
			for _, d := range batch[i:j] {
				base := d.slot * l.ep.cfg.SlotSize
				l.wrs = append(l.wrs, rdma.SendWR{
					WRID:     d.wrID,
					Buf:      l.staging.Bytes()[base : base+d.n],
					Signaled: true,
				})
			}
			// A synchronous post error means the lane QP itself is closed
			// (the endpoint is tearing down); the committed descs complete
			// with flush semantics and the pump reclaims them.
			if _, err := l.qp.PostSendBatchTo(batch[i].dst, l.wrs); err != nil {
				l.ep.mDoorbells.Inc()
				break
			}
			l.ep.mDoorbells.Inc()
			i = j
		}
	}
}

// pump drains the lane's send CQ, reclaiming slots and driving the failure
// protocol. TryLock keeps concurrent senders from convoying on it.
func (l *lane) pump() {
	if !l.pumpMu.TryLock() {
		return
	}
	defer l.pumpMu.Unlock()
	for {
		c, ok := l.qp.SendCQ().TryPoll()
		if !ok {
			break
		}
		l.complete(c)
	}
	l.maybeRecycle()
}

// complete processes one send completion against the inflight FIFO head.
func (l *lane) complete(c rdma.Completion) {
	l.mu.Lock()
	if l.inLen == 0 {
		l.mu.Unlock()
		return
	}
	d := l.inflight[l.inHead]
	if d.wrID != c.WRID {
		// Cannot happen on a FIFO lane with every WR signaled; treat as a
		// wedged lane rather than corrupting slot accounting.
		l.mu.Unlock()
		d.tr.fail(fmt.Errorf("channel: trunk %s lane %d completion out of order (wr %d, want %d)",
			d.tr.name, l.idx, c.WRID, d.wrID))
		return
	}
	l.inHead = (l.inHead + 1) % len(l.inflight)
	l.inLen--
	l.mu.Unlock()

	switch {
	case c.Err == nil:
		l.release(d.slot)
	case c.Err == rdma.ErrQPClosed:
		// Destination torn down mid-send: the fate of one trunk, not the
		// lane. The lane QP never latched, so no recycle is needed.
		d.tr.fail(fmt.Errorf("channel: trunk %s: destination closed: %w",
			d.tr.name, &rdma.QPFailure{QP: l.qp.ID(), Status: c.Status, Err: c.Err}))
		l.release(d.slot)
		l.ep.mDropped.Inc()
	case c.Status == rdma.StatusWRFlush:
		// Collateral of an earlier failure. Frames of healthy trunks are
		// replayed after the recycle, in order; frames of latched trunks
		// are dropped (their channels already report the root cause).
		if d.tr.Err() == nil {
			l.mu.Lock()
			l.replay = append(l.replay, d)
			l.mu.Unlock()
		} else {
			l.release(d.slot)
			l.ep.mDropped.Inc()
		}
	default:
		// Genuine failure: latch the failing frame's trunk with the lane's
		// recorded QPFailure (it names the lane and root-cause status) and
		// park the lane until the queue drains and the QP resets.
		cause := qpCause(l.qp, c)
		d.tr.fail(fmt.Errorf("channel: trunk %s: %w", d.tr.name, cause))
		l.release(d.slot)
		l.ep.mDropped.Inc()
		l.mu.Lock()
		l.down = true
		l.mu.Unlock()
	}
}

// maybeRecycle resets a downed lane once every inflight frame has completed,
// then replays the flushed frames of still-healthy trunks in their original
// order ahead of anything enqueued since.
func (l *lane) maybeRecycle() {
	l.mu.Lock()
	if !l.down || l.inLen != 0 {
		l.mu.Unlock()
		return
	}
	l.mu.Unlock()
	// Reset outside the lane mutex: it waits for the QP's queued count to
	// reach zero, which needs the deliverer to keep executing.
	if err := l.qp.Reset(); err != nil && err != rdma.ErrQPNotInError {
		return
	}
	l.mu.Lock()
	if len(l.replay) > 0 {
		merged := make([]*frameDesc, 0, len(l.replay)+len(l.pending))
		merged = append(merged, l.replay...)
		merged = append(merged, l.pending...)
		l.pending = merged
		l.replay = l.replay[:0]
	}
	l.down = false
	l.ep.mRecycles.Inc()
	if l.flushing || len(l.pending) == 0 {
		l.mu.Unlock()
		return
	}
	l.flushing = true
	l.mu.Unlock()
	l.flushLoop()
}

// Listen creates the receiving end of logical channel chID on this endpoint.
func (ep *Endpoint) Listen(chID uint32) (*Receiver, error) {
	ep.recvMu.Lock()
	defer ep.recvMu.Unlock()
	if _, ok := ep.ports[chID]; ok {
		return nil, fmt.Errorf("channel: trunk channel %d already has a receiver", chID)
	}
	r := &Receiver{ep: ep, chID: chID}
	ep.ports[chID] = r
	return r, nil
}

// Receiver is the receiving end of one logical channel — a RecvPort over
// the trunk transport. Frames are demultiplexed from the endpoint's shared
// receive queues by channel id.
type Receiver struct {
	ep   *Endpoint
	chID uint32

	// pending is the demultiplexed frame queue, owned by ep.recvMu.
	pending []*RecvBuffer
	head    int

	released atomic.Uint64
	closed   atomic.Bool
	err      stickyErr
}

// ChannelID returns the logical channel id.
func (r *Receiver) ChannelID() uint32 { return r.chID }

// Err returns the port's sticky fatal error, or nil while healthy.
func (r *Receiver) Err() error { return r.err.get() }

// pumpRecv drains every SRQ completion queue, routing frames to their ports.
// Caller holds ep.recvMu. Frames for unknown or closed channels — stale
// traffic from a fenced incarnation — are dropped and their buffers
// reposted.
func (ep *Endpoint) pumpRecv() {
	for laneIdx, ring := range ep.srqs {
		for {
			c, ok := ring.srq.CQ().TryPoll()
			if !ok {
				break
			}
			slot := int(c.WRID)
			base := slot * ep.cfg.SlotSize
			frame := ring.slab.Bytes()[base : base+c.Bytes]
			if c.Err != nil || c.Bytes < TrunkHeaderSize {
				ep.repost(laneIdx, slot)
				ep.mDropped.Inc()
				continue
			}
			chID, used, thread, epoch := trunkHeader(frame)
			port := ep.ports[chID]
			if port == nil || port.closed.Load() || int(used) > c.Bytes-TrunkHeaderSize {
				ep.repost(laneIdx, slot)
				ep.mDropped.Inc()
				continue
			}
			rb := ep.rbPool[len(ep.rbPool)-1]
			ep.rbPool = ep.rbPool[:len(ep.rbPool)-1]
			rb.Data = frame[TrunkHeaderSize : TrunkHeaderSize+int(used)]
			rb.Thread, rb.Epoch = thread, epoch
			rb.seq = uint64(laneIdx)<<32 | uint64(slot)
			rb.done = false
			port.pending = append(port.pending, rb)
		}
	}
}

// repost returns a receive slot to its SRQ. The SRQ holds at most RecvSlots
// posted buffers and each is reposted exactly once per consume, so this
// never blocks. A closed SRQ (endpoint teardown) makes it a no-op.
func (ep *Endpoint) repost(laneIdx, slot int) {
	ring := ep.srqs[laneIdx]
	base := slot * ep.cfg.SlotSize
	if err := ring.srq.PostRecv(uint64(slot), ring.slab.Bytes()[base:base+ep.cfg.SlotSize]); err != nil && err != rdma.ErrQPClosed {
		ep.mDropped.Inc()
	}
}

// TryPoll returns the next inbound frame for this channel without blocking.
func (r *Receiver) TryPoll() (*RecvBuffer, bool) {
	if r.closed.Load() {
		return nil, false
	}
	ep := r.ep
	ep.recvMu.Lock()
	ep.pumpRecv()
	if r.head >= len(r.pending) {
		if r.head > 0 {
			r.pending = r.pending[:0]
			r.head = 0
		}
		ep.recvMu.Unlock()
		return nil, false
	}
	rb := r.pending[r.head]
	r.head++
	ep.recvMu.Unlock()
	return rb, true
}

// Release returns the frame's receive slot to its SRQ and its RecvBuffer to
// the endpoint pool.
func (r *Receiver) Release(b *RecvBuffer) error {
	if b.done {
		return ErrDoubleRelease
	}
	b.done = true
	laneIdx, slot := int(b.seq>>32), int(b.seq&0xffffffff)
	ep := r.ep
	ep.recvMu.Lock()
	ep.rbPool = append(ep.rbPool, b)
	ep.recvMu.Unlock()
	ep.repost(laneIdx, slot)
	r.released.Add(1)
	return nil
}

// Backlog returns how many frames have landed for this channel but have not
// been polled yet.
func (r *Receiver) Backlog() int {
	ep := r.ep
	ep.recvMu.Lock()
	ep.pumpRecv()
	n := len(r.pending) - r.head
	ep.recvMu.Unlock()
	return n
}

// DiscardBacklog drops every pending frame, reposting the buffers, and
// returns the count — the fence-teardown path of the recovery plane.
func (r *Receiver) DiscardBacklog() int {
	ep := r.ep
	ep.recvMu.Lock()
	ep.pumpRecv()
	n := r.drainLocked()
	ep.recvMu.Unlock()
	return n
}

// drainLocked reposts and pools every pending frame. Caller holds recvMu.
func (r *Receiver) drainLocked() int {
	n := 0
	for ; r.head < len(r.pending); r.head++ {
		b := r.pending[r.head]
		b.done = true
		ep := r.ep
		ep.rbPool = append(ep.rbPool, b)
		ep.repost(int(b.seq>>32), int(b.seq&0xffffffff))
		n++
	}
	r.pending = r.pending[:0]
	r.head = 0
	return n
}

// Close mutes the channel: pending frames are discarded and later arrivals
// for its id are dropped at the demultiplexer. Idempotent.
func (r *Receiver) Close() {
	if !r.closed.CompareAndSwap(false, true) {
		return
	}
	ep := r.ep
	ep.recvMu.Lock()
	r.drainLocked()
	delete(ep.ports, r.chID)
	ep.recvMu.Unlock()
}

// The trunk endpoints are ports.
var (
	_ SendPort = (*Sender)(nil)
	_ RecvPort = (*Receiver)(nil)
)
