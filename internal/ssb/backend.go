package ssb

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/stream"
	"github.com/slash-stream/slash/internal/vclock"
)

// ChunkKind tags state-synchronization messages.
type ChunkKind uint8

// Chunk kinds: data chunks carry a raw log region of one (window, partition)
// fragment; heartbeats carry only the sender's watermark so progress flows
// even when a thread produced no state for a leader.
const (
	ChunkData ChunkKind = iota + 1
	ChunkHeartbeat
)

// Chunk is one unit of the epoch-based coherence protocol (§7.2.2): a delta
// of a helper fragment in flight from a helper thread to a partition leader,
// with the vector-clock update piggybacked on it.
type Chunk struct {
	// Window identifies the window bucket whose state this chunk carries.
	Window uint64
	// Epoch is the sender's epoch counter at flush time; it versions the
	// partition content and orders updates from the same sender.
	Epoch uint64
	// Watermark is the sender thread's event-time low watermark.
	Watermark stream.Watermark
	// Gen is the partition-map generation the sender routed this chunk
	// under. Leaders reject data chunks whose generation disagrees with
	// their map's generation for the chunk's window, so a delta routed
	// across a membership change can never be double-counted silently
	// (the elastic reconfiguration invariant, §7.2/§8).
	Gen uint64
	// Thread is the global id of the sending executor thread.
	Thread int
	// Partition is the destination key-space partition.
	Partition int
	// Kind distinguishes data chunks from heartbeats.
	Kind ChunkKind
	// Inc is the sender thread's incarnation: bumped when a failed flush is
	// retried and when a recovered node re-flushes after a restart. Leaders
	// in recoverable mode use an incarnation bump to arm duplicate
	// suppression for the prefix of the epoch they already merged. The wire
	// field is one byte; restart counts are bounded far below 255 (see
	// core's MaxRestarts), so saturation is a non-issue in practice.
	Inc uint8
	// Payload is a raw log region (ChunkData only).
	Payload []byte
}

// ChunkHeaderSize is the wire size of an encoded chunk header:
// window u64 | epoch u64 | watermark i64 | gen u64 | thread u32 |
// partition u32 | kind u8 | inc u8 | reserved [2]u8 | paylen u32.
const ChunkHeaderSize = 48

// EncodedSize returns the wire size of the chunk.
func (c *Chunk) EncodedSize() int { return ChunkHeaderSize + len(c.Payload) }

// Encode writes the chunk into dst, returning the bytes used.
func (c *Chunk) Encode(dst []byte) int {
	putU64(dst[0:], c.Window)
	putU64(dst[8:], c.Epoch)
	putU64(dst[16:], uint64(c.Watermark))
	putU64(dst[24:], c.Gen)
	putU32(dst[32:], uint32(c.Thread))
	putU32(dst[36:], uint32(c.Partition))
	dst[40] = byte(c.Kind)
	dst[41] = c.Inc
	dst[42], dst[43] = 0, 0
	putU32(dst[44:], uint32(len(c.Payload)))
	copy(dst[ChunkHeaderSize:], c.Payload)
	return ChunkHeaderSize + len(c.Payload)
}

// DecodeChunk parses src. The payload aliases src; callers that retain the
// chunk beyond the life of src must copy it.
func DecodeChunk(src []byte) (Chunk, error) {
	if len(src) < ChunkHeaderSize {
		return Chunk{}, ErrChunkFormat
	}
	c := Chunk{
		Window:    getU64(src[0:]),
		Epoch:     getU64(src[8:]),
		Watermark: stream.Watermark(getU64(src[16:])),
		Gen:       getU64(src[24:]),
		Thread:    int(getU32(src[32:])),
		Partition: int(getU32(src[36:])),
		Kind:      ChunkKind(src[40]),
		Inc:       src[41],
	}
	if c.Kind != ChunkData && c.Kind != ChunkHeartbeat {
		return Chunk{}, fmt.Errorf("%w: kind %d", ErrChunkFormat, c.Kind)
	}
	plen := int(getU32(src[44:]))
	if ChunkHeaderSize+plen > len(src) {
		return Chunk{}, fmt.Errorf("%w: payload overflows buffer", ErrChunkFormat)
	}
	c.Payload = src[ChunkHeaderSize : ChunkHeaderSize+plen]
	return c, nil
}

// Sender ships encoded chunks to one destination executor. The Slash core
// implements it over RDMA channels; tests use an in-memory loopback.
type Sender interface {
	Send(c *Chunk) error
}

// Config describes one executor's view of the SSB deployment.
type Config struct {
	// Node is this executor's id; it is the leader of partition Node.
	Node int
	// Nodes is the number of executors at construction time (= number of
	// primary partitions in a static deployment).
	Nodes int
	// MaxNodes is the deployment capacity: the number of node slots the
	// vector clock, epoch table, and sender table are sized for. An
	// elastic deployment (§7.2, §8: workers join and leave without state
	// migration) sets it above Nodes; zero defaults to Nodes (static).
	MaxNodes int
	// Map is the shared, generation-stamped partition map routing
	// (window, key) pairs to leader executors. Nil builds a private
	// static map over nodes 0..Nodes-1 and activates all their clock
	// entries — the fixed deployment of the paper's evaluation (§8).
	// Non-nil marks an elastic deployment: the controller owns membership
	// and must activate clock entries explicitly (see ActivateNode).
	Map *PartitionMap
	// ThreadsPerNode is the worker thread count per executor; vector
	// clocks carry one entry per thread cluster-wide.
	ThreadsPerNode int
	// Agg selects the CRDT: a commutative aggregate, or nil for holistic
	// (bag) state.
	Agg crdt.Aggregate
	// ChunkSize caps one data chunk's payload. Defaults to 16 KiB.
	ChunkSize int
	// EpochBytes is the epoch length in ingested bytes per thread (§8.1.1
	// configures 64 MB cluster-wide; scale per deployment). Defaults to
	// 1 MiB.
	EpochBytes int64
	// WindowEnd maps a window id to its end timestamp, provided by the
	// window assigner. A window triggers once the vector clock covers it.
	WindowEnd func(win uint64) stream.Watermark
	// Recoverable enables the epoch-commit tracker: the leader tracks, per
	// sender thread, which epochs are fully merged (committed by their
	// trailing heartbeat) and suppresses duplicates when chunks are replayed
	// after a failure — from upstream replay rings or from a re-flushing,
	// incarnation-bumped sender. Off (the default), replayed traffic is a
	// protocol violation and duplicate checks cost nothing.
	Recoverable bool
	// Journal, when non-nil, receives this leader's durable recovery
	// records: incremental checkpoints (the inbound delta log since the
	// previous checkpoint, with the vector clock and tracker state) and
	// window-trigger marks. Setting it implies Recoverable.
	Journal Journal
}

// DefaultChunkSize caps chunk payloads when Config.ChunkSize is zero.
const DefaultChunkSize = 16 * 1024

// DefaultEpochBytes is the per-thread epoch length when unset.
const DefaultEpochBytes = 1 << 20

// Errors surfaced by the protocol.
var (
	// ErrStaleEpoch reports a chunk whose epoch counter regressed — the
	// FIFO channel contract (§6.2) makes this impossible on a healthy
	// deployment, so it indicates corruption or a routing bug.
	ErrStaleEpoch = errors.New("ssb: chunk epoch regressed")
	// ErrLateChunk reports a data chunk for a window the leader already
	// triggered — a violation of property P1 (§5.1).
	ErrLateChunk = errors.New("ssb: data chunk for an already-triggered window")
	// ErrBadDestination reports a chunk delivered to an executor that is
	// not the leader of the chunk's partition.
	ErrBadDestination = errors.New("ssb: chunk routed to wrong leader")
	// ErrStaleGeneration reports a data chunk routed under a partition-map
	// generation that no longer governs its window: the sender held
	// unflushed fragments across a reconfiguration cutover instead of
	// flushing at the epoch-aligned barrier. Rejecting the chunk turns a
	// silent double-count into a loud failure (§7.2/§8 elasticity).
	ErrStaleGeneration = errors.New("ssb: chunk generation does not govern its window")
)

// Backend is one executor's state backend instance. It plays two roles:
// helper threads (ThreadState) eagerly maintain fragments of every
// partition, and the leader side merges inbound deltas of its own primary
// partition and triggers windows.
type Backend struct {
	cfg  Config
	pmap *PartitionMap

	// sendMu guards the sender and heartbeat-peer tables, which an elastic
	// controller rewrites while helper threads flush (§7.2/§8).
	sendMu  sync.RWMutex
	senders []Sender
	peers   []int

	mu        sync.Mutex
	primary   map[uint64]*Table
	triggered map[uint64]bool
	clock     *vclock.Clock
	lastEpoch []uint64
	tablePool []*Table

	// Queryable-state publication (nil unless SetStatePublisher was called):
	// the stateq publisher, the live-republication threshold, per-window
	// un-published delta bytes, and the windows published at least once.
	statePub       StatePublisher
	stateMinDelta  int
	stateDirty     map[uint64]int
	statePublished map[uint64]bool

	// Recovery state (nil / empty unless Config.Recoverable): the
	// epoch-commit tracker, the pending incremental-checkpoint log (inbound
	// deltas merged since the last checkpoint record), and the first journal
	// error, latched because a trigger cannot return it.
	tracker *epochTracker
	ckptLog []byte
	jErr    error

	// statistics
	chunksMerged  uint64
	bytesMerged   uint64
	windowsOutput uint64
}

// New creates a backend. senders[i] must ship chunks to executor i; the
// entry for the own node may be nil (local flushes short-circuit). senders
// must have MaxNodes entries (Nodes when MaxNodes is zero) and is aliased,
// not copied — callers may fill entries after construction, but once threads
// flush concurrently they must go through SetSender.
func New(cfg Config, senders []Sender) (*Backend, error) {
	if cfg.MaxNodes == 0 {
		cfg.MaxNodes = cfg.Nodes
	}
	if cfg.Nodes < 1 || cfg.MaxNodes < cfg.Nodes {
		return nil, fmt.Errorf("ssb: invalid deployment %d nodes of %d capacity", cfg.Nodes, cfg.MaxNodes)
	}
	if cfg.Node < 0 || cfg.Node >= cfg.MaxNodes {
		return nil, fmt.Errorf("ssb: invalid node %d of %d", cfg.Node, cfg.MaxNodes)
	}
	if cfg.ThreadsPerNode < 1 {
		return nil, fmt.Errorf("ssb: invalid threads per node %d", cfg.ThreadsPerNode)
	}
	if cfg.ChunkSize == 0 {
		cfg.ChunkSize = DefaultChunkSize
	}
	if cfg.EpochBytes == 0 {
		cfg.EpochBytes = DefaultEpochBytes
	}
	if cfg.WindowEnd == nil {
		return nil, errors.New("ssb: WindowEnd is required")
	}
	if len(senders) != cfg.MaxNodes {
		return nil, fmt.Errorf("ssb: %d senders for capacity %d", len(senders), cfg.MaxNodes)
	}
	if cfg.Journal != nil {
		cfg.Recoverable = true
	}
	static := cfg.Map == nil
	if static {
		cfg.Map = StaticPartitionMap(cfg.Nodes)
	}
	b := &Backend{
		cfg:       cfg,
		pmap:      cfg.Map,
		senders:   senders,
		primary:   make(map[uint64]*Table),
		triggered: make(map[uint64]bool),
		clock:     vclock.NewRetired(cfg.MaxNodes * cfg.ThreadsPerNode),
		lastEpoch: make([]uint64, cfg.MaxNodes*cfg.ThreadsPerNode),
	}
	if cfg.Recoverable {
		b.tracker = newEpochTracker(cfg.MaxNodes * cfg.ThreadsPerNode)
	}
	// Every clock entry starts retired (+inf: never holds a trigger back);
	// membership activation flips a node's entries live. A static
	// deployment activates all of its nodes here; an elastic controller
	// activates nodes as they join (ActivateNode) before they ingest.
	if static {
		for n := 0; n < cfg.Nodes; n++ {
			b.ActivateNode(n)
		}
		b.peers = b.pmap.Current().Active
	}
	return b, nil
}

// Partition maps a key to its primary partition (and thus leader executor)
// under the latest partition-map generation, using the multiply-shift hash
// with a high-bits range reduction. The previous modulo-based mapping
// concentrated strided key populations (YSB campaign ids are dense
// multiples, §8.2.1) onto few partitions; see TestPartitionDistribution.
// Elastic routing is per window — use Owner for window-aware placement.
func (b *Backend) Partition(key uint64) int {
	g := b.pmap.Current()
	return g.Active[partitionIndex(PartitionHash(key), len(g.Active))]
}

// Owner routes (win, key) to its leader executor and reports the governing
// partition-map generation — the placement decision of the stateful fast
// path (§7.1.2), stable per (window, key) across reconfigurations.
func (b *Backend) Owner(win, key uint64) (node int, gen uint64) {
	return b.pmap.Owner(win, key)
}

// Map exposes the backend's partition map.
func (b *Backend) Map() *PartitionMap { return b.pmap }

// ActivateNode flips a node's vector-clock entries from retired (+inf) to
// live (no watermark). An elastic controller calls it on every backend when
// the node joins, before the node ingests a single record, so windows the
// new node can still contribute to cannot trigger early (§5.1 property P1
// across membership changes).
func (b *Backend) ActivateNode(node int) {
	base := node * b.cfg.ThreadsPerNode
	for i := 0; i < b.cfg.ThreadsPerNode; i++ {
		b.clock.Activate(base + i)
	}
}

// SetSender installs the sender shipping chunks to executor node — the
// data-plane half of a node join (§7.2.2 setup phase, performed online).
func (b *Backend) SetSender(node int, s Sender) {
	b.sendMu.Lock()
	b.senders[node] = s
	b.sendMu.Unlock()
}

// SetPeers replaces the heartbeat target set: the executors every flush
// sends a watermark to. The controller narrows it when a node retires so
// no traffic targets a torn-down channel.
func (b *Backend) SetPeers(peers []int) {
	p := append([]int(nil), peers...)
	sort.Ints(p)
	b.sendMu.Lock()
	b.peers = p
	b.sendMu.Unlock()
}

// Peers returns the current heartbeat target set.
func (b *Backend) Peers() []int {
	b.sendMu.RLock()
	defer b.sendMu.RUnlock()
	return append([]int(nil), b.peers...)
}

// sender returns the sender for node, or nil.
func (b *Backend) sender(node int) Sender {
	b.sendMu.RLock()
	defer b.sendMu.RUnlock()
	return b.senders[node]
}

// TriggeredAtOrAfter reports whether any window with id >= win has already
// triggered — the controller's guard that a reconfiguration cutover still
// lies in the future of every leader (ErrCutoverInPast in core).
func (b *Backend) TriggeredAtOrAfter(win uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for w := range b.triggered {
		if w >= win {
			return true
		}
	}
	return false
}

// HasPendingAtOrAfter reports whether this leader holds un-triggered state
// for any window with id >= win. Together with TriggeredAtOrAfter it lets
// the controller verify a reconfiguration cutover lies strictly in the
// future: data already merged at or past the cutover means the barrier came
// too late (the generation stamp would split the window across two owners).
func (b *Backend) HasPendingAtOrAfter(win uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for w := range b.primary {
		if w >= win {
			return true
		}
	}
	return false
}

// Clock exposes the leader's progress clock (for diagnostics and tests).
func (b *Backend) Clock() *vclock.Clock { return b.clock }

// newTable builds a fragment table matching the configured CRDT.
func (b *Backend) newTable() *Table {
	if b.cfg.Agg != nil {
		return NewAggTable(b.cfg.Agg)
	}
	return NewBagTable()
}

// takeTable reuses a pooled, reset table if available. Pooling avoids
// rebuilding hash-index bucket arrays and reallocating logs for every
// window and epoch (the log "adaptively resizes" and keeps its capacity,
// §7.2.1). Callers must hold b.mu.
func (b *Backend) takeTable() *Table {
	if n := len(b.tablePool); n > 0 {
		t := b.tablePool[n-1]
		b.tablePool = b.tablePool[:n-1]
		return t
	}
	return b.newTable()
}

// putTable resets and pools a table. Callers must hold b.mu.
func (b *Backend) putTable(t *Table) {
	if len(b.tablePool) < 64 {
		t.Reset()
		b.tablePool = append(b.tablePool, t)
	}
}

// HandleChunk is the leader half of the synchronization phase: it merges a
// delta into the primary partition and folds the piggybacked watermark into
// the vector clock. Chunks from one sender must arrive in FIFO order (the
// RDMA channel guarantees this).
func (b *Backend) HandleChunk(c *Chunk) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if c.Thread < 0 || c.Thread >= b.cfg.MaxNodes*b.cfg.ThreadsPerNode {
		return fmt.Errorf("%w: thread %d", ErrChunkFormat, c.Thread)
	}
	if b.tracker != nil {
		return b.handleChunkRecoverable(c)
	}
	if c.Epoch < b.lastEpoch[c.Thread] {
		return fmt.Errorf("%w: epoch %d after %d from thread %d", ErrStaleEpoch, c.Epoch, b.lastEpoch[c.Thread], c.Thread)
	}
	b.lastEpoch[c.Thread] = c.Epoch
	if c.Kind == ChunkData {
		if c.Partition != b.cfg.Node {
			return fmt.Errorf("%w: partition %d at leader %d", ErrBadDestination, c.Partition, b.cfg.Node)
		}
		if g := b.pmap.GenFor(c.Window); c.Gen != g {
			return fmt.Errorf("%w: window %d carries gen %d, map says %d", ErrStaleGeneration, c.Window, c.Gen, g)
		}
		if b.triggered[c.Window] {
			return fmt.Errorf("%w: window %d", ErrLateChunk, c.Window)
		}
		tbl := b.primary[c.Window]
		if tbl == nil {
			tbl = b.takeTable()
			b.primary[c.Window] = tbl
		}
		if err := tbl.MergeDelta(c.Payload); err != nil {
			return err
		}
		b.chunksMerged++
		b.bytesMerged += uint64(len(c.Payload))
		b.markStateDirty(c.Window, len(c.Payload))
	}
	// Merging happens before the watermark becomes visible, so a trigger
	// that observes the new clock entry also observes the merged state.
	b.clock.Observe(c.Thread, c.Watermark)
	return nil
}

// EmitAgg receives one aggregate group of a triggered window.
type EmitAgg func(win uint64, key uint64, result int64)

// EmitBag receives one key's merged bag of a triggered window.
type EmitBag func(win uint64, key uint64, elems []crdt.BagElem)

// EmitJoin receives one key of a triggered bag window: how many of its
// elements are on each join side (see Table.ForEachSides).
type EmitJoin func(win uint64, key uint64, left, right int)

// TriggerReady fires ready windows like TriggerSides, but hands each bag to
// emitBag as decoded elements (Table.ForEachBag). The engine triggers through
// TriggerSides; this entry point stays, with EmitBag, for tests and for the
// frozen bench mirror (bench/layertrace.go), which still calls it.
func (b *Backend) TriggerReady(emitAgg EmitAgg, emitBag EmitBag) int {
	return b.trigger(emitAgg, func(win uint64, tbl *Table) {
		if emitBag != nil {
			tbl.ForEachBag(func(key uint64, elems []crdt.BagElem) {
				emitBag(win, key, elems)
			})
		}
	})
}

// TriggerSides fires every pending window whose end timestamp the vector
// clock covers (property P1: no result at timestamp t may be computed from
// records with timestamps greater than t — covered means every thread in
// the cluster has moved past the window end). An aggregate window goes to
// emitAgg one group at a time, a bag window to emitJoin one key and its side
// counts at a time. Triggered windows are discarded; the number of windows
// fired is returned.
func (b *Backend) TriggerSides(emitAgg EmitAgg, emitJoin EmitJoin) int {
	return b.trigger(emitAgg, func(win uint64, tbl *Table) {
		if emitJoin != nil {
			tbl.ForEachSides(func(key uint64, left, right int) {
				emitJoin(win, key, left, right)
			})
		}
	})
}

// trigger is the one trigger loop behind TriggerReady and TriggerSides;
// emitBags reads a ready bag window's table.
func (b *Backend) trigger(emitAgg EmitAgg, emitBags func(win uint64, tbl *Table)) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	var ready []uint64
	for win := range b.primary {
		if b.clock.Covers(b.cfg.WindowEnd(win)) {
			ready = append(ready, win)
		}
	}
	// Deterministic output order across runs.
	sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	if len(ready) > 0 && b.cfg.Journal != nil {
		// Make everything merged so far durable before the trigger marks:
		// a restore replays the journal in order, so the deltas a trigger
		// consumed must precede it or the restored tracker undercounts the
		// epoch prefix already applied.
		b.flushCheckpointLocked()
	}
	for _, win := range ready {
		tbl := b.primary[win]
		if b.cfg.Agg == nil {
			emitBags(win, tbl)
		} else if emitAgg != nil {
			tbl.forEachAggResult(func(key uint64, result int64) {
				emitAgg(win, key, result)
			})
		}
		// Publish the final image before the table is recycled: sealed
		// snapshots are the byte-exact state the sink was fed from.
		b.sealStateLocked(win, tbl)
		b.putTable(tbl)
		delete(b.primary, win)
		b.triggered[win] = true
		b.windowsOutput++
		if b.cfg.Journal != nil {
			// The trigger mark is appended in the same merge step that
			// emitted the window, so a restore never re-emits it. The
			// emit-then-append gap is unreachable in-process: a fenced node's
			// merge task finishes its step before teardown proceeds, so both
			// happen or neither. A future out-of-process port would need a
			// transactional sink to close it.
			if err := b.cfg.Journal.Trigger(b.pmap.GenFor(win), win); err != nil && b.jErr == nil {
				b.jErr = err
			}
		}
	}
	return len(ready)
}

// PendingWindows returns the number of un-triggered windows with state.
func (b *Backend) PendingWindows() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.primary)
}

// Stats reports merge-side counters.
type Stats struct {
	ChunksMerged  uint64
	BytesMerged   uint64
	WindowsOutput uint64
}

// Stats snapshots the leader-side counters.
func (b *Backend) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return Stats{ChunksMerged: b.chunksMerged, BytesMerged: b.bytesMerged, WindowsOutput: b.windowsOutput}
}

// tableKey identifies one helper fragment: a window bucket of one partition
// under one partition-map generation. The generation is part of the key so
// a flush after a reconfiguration stamps each delta with the generation
// that actually routed it — a fragment held across a cutover is rejected by
// its leader (ErrStaleGeneration) instead of being merged twice.
type tableKey struct {
	win  uint64
	gen  uint64
	part int
}

// ThreadState is the helper half of the SSB owned by a single executor
// thread: eager, thread-local partial state for every partition (§7.1.2).
// Per-record updates touch only thread-local memory — no queueing, no
// skew-sensitive partitioning — and epochs lazily reconcile the fragments
// with their leaders.
type ThreadState struct {
	be     *Backend
	gtid   int
	tables map[tableKey]*Table
	pool   []*Table
	// cache is a small direct-mapped (window → per-partition tables)
	// cache that keeps the per-record fast path off the Go map for the
	// common case of consecutive records hitting the same few windows. An
	// entry is valid for one partition-map generation: a reconfiguration
	// changes gen and the stale entry misses, falling back to the map.
	cache [tableCacheSlots]winTables

	// batch holds the reusable scratch of the columnar update path
	// (scatter buffers, hash column) and aggKind the deployment aggregate's
	// specialized batch dispatch; see batch.go.
	batch   batchScratch
	aggKind aggKind
	wm    stream.Watermark
	epoch uint64
	pend  int64 // bytes ingested since last flush

	// inc is the thread's incarnation, stamped on every chunk: bumped when a
	// failed flush is retried and restored (pre-bumped) after a node
	// restart, so leaders can suppress the prefix of the epoch they already
	// merged (see epochTracker).
	inc uint8
	// inFlight / dataDone are the flush state machine for retries: a flush
	// that failed mid-transfer keeps its epoch (inFlight) and, once the data
	// phase completed and the fragments were recycled, retries resume at the
	// heartbeat phase (dataDone).
	inFlight bool
	dataDone bool
	// flushKeys is the scratch slice for deterministic flush ordering.
	flushKeys []tableKey

	// maxWin is the highest window id this thread ever created state for
	// (hasWin guards window 0). The controller reads it at the flush
	// barrier to resolve an automatic reconfiguration cutover; the source
	// task's barrier answer (or its done flag) publishes it across goroutines.
	maxWin uint64
	hasWin bool

	// statistics for the drill-down experiments
	updates      uint64
	flushes      uint64
	chunksSent   uint64
	bytesShipped uint64
}

// Thread creates the state handle for local thread index i.
func (b *Backend) Thread(i int) *ThreadState {
	if i < 0 || i >= b.cfg.ThreadsPerNode {
		panic(fmt.Sprintf("ssb: thread %d out of range", i))
	}
	return &ThreadState{
		be:      b,
		gtid:    b.cfg.Node*b.cfg.ThreadsPerNode + i,
		tables:  make(map[tableKey]*Table),
		wm:      stream.NoWatermark,
		aggKind: kindOfAgg(b.cfg.Agg),
	}
}

// GlobalThreadID returns the cluster-wide thread id (the vector clock slot).
func (ts *ThreadState) GlobalThreadID() int { return ts.gtid }

// Watermark returns the thread's current low watermark.
func (ts *ThreadState) Watermark() stream.Watermark { return ts.wm }

// tableCacheSlots sizes the direct-mapped window cache (enough for the
// in-flight windows of tumbling and small sliding assigners).
const tableCacheSlots = 4

// winTables is one direct-mapped cache entry: the per-partition table
// pointers of one (window, generation).
type winTables struct {
	win    uint64
	gen    uint64
	valid  bool
	tables []*Table
}

// cacheEntry returns the cache entry primed for (win, gen), tracking maxWin.
// Entries whose slot held a different window or generation restart empty;
// missing partitions resolve through tableSlow.
func (ts *ThreadState) cacheEntry(win, gen uint64) *winTables {
	if !ts.hasWin || win > ts.maxWin {
		ts.maxWin = win
		ts.hasWin = true
	}
	c := &ts.cache[win%tableCacheSlots]
	if !(c.valid && c.win == win && c.gen == gen) {
		c.win = win
		c.gen = gen
		c.valid = true
		if c.tables == nil {
			c.tables = make([]*Table, ts.be.cfg.MaxNodes)
		} else {
			for i := range c.tables {
				c.tables[i] = nil
			}
		}
	}
	return c
}

// tableSlow resolves (win, gen, part) through the fragment map — creating
// the fragment on first touch — and installs it in the cache entry.
func (ts *ThreadState) tableSlow(c *winTables, win, gen uint64, part int) *Table {
	k := tableKey{win: win, gen: gen, part: part}
	t := ts.tables[k]
	if t == nil {
		if n := len(ts.pool); n > 0 {
			t = ts.pool[n-1]
			ts.pool = ts.pool[:n-1]
		} else {
			t = ts.be.newTable()
		}
		ts.tables[k] = t
	}
	c.tables[part] = t
	return t
}

func (ts *ThreadState) table(win, gen uint64, part int) *Table {
	c := ts.cacheEntry(win, gen)
	if t := c.tables[part]; t != nil {
		return t
	}
	return ts.tableSlow(c, win, gen, part)
}

// invalidateCache drops the window cache (after Flush recycled tables).
func (ts *ThreadState) invalidateCache() {
	for i := range ts.cache {
		ts.cache[i].valid = false
	}
}

// UpdateAgg is the stateful fast path for aggregations: fold rec into the
// thread-local fragment of rec.Key's partition (§7.1.2 — the common case
// never leaves thread-local memory).
func (ts *ThreadState) UpdateAgg(win uint64, rec *stream.Record) error {
	ts.updates++
	if rec.Time > ts.wm {
		ts.wm = rec.Time
	}
	part, gen := ts.be.Owner(win, rec.Key)
	return ts.table(win, gen, part).UpdateAgg(rec)
}

// AppendBag is the stateful fast path for holistic state: append an element
// to key's bag in the thread-local fragment (§7.1.2).
func (ts *ThreadState) AppendBag(win uint64, key uint64, e *crdt.BagElem) error {
	ts.updates++
	if e.Time > ts.wm {
		ts.wm = e.Time
	}
	part, gen := ts.be.Owner(win, key)
	return ts.table(win, gen, part).AppendBag(key, e)
}

// ObserveTime advances the thread watermark for records that did not update
// state (e.g. filtered out), keeping progress flowing.
func (ts *ThreadState) ObserveTime(t stream.Watermark) {
	if t > ts.wm {
		ts.wm = t
	}
}

// Ingest accounts n ingested bytes and reports whether the epoch boundary
// was reached, in which case the caller should Flush. Epoch length is a
// data volume, matching the paper's 64 MB epochs (§8.1.1).
func (ts *ThreadState) Ingest(n int) bool {
	ts.pend += int64(n)
	return ts.pend >= ts.be.cfg.EpochBytes
}

// StateBytes returns the total log bytes held by this thread's fragments.
func (ts *ThreadState) StateBytes() int {
	total := 0
	for _, t := range ts.tables {
		total += t.LogBytes()
	}
	return total
}

// Flush runs the helper side of the synchronization phase (§7.2.2):
//
//  1. increment the epoch counter,
//  2. freeze each modified fragment (the executor thread owns the table, so
//     freezing is implicit in the synchronous flush),
//  3. transfer the delta — the raw log region — to each partition leader in
//     chunks over the RDMA channels, piggybacking the thread watermark,
//  4. invalidate the transferred fragments so later RMWs restart from the
//     CRDT identity.
//
// A heartbeat chunk goes to every leader so the vector clock advances even
// where no data flowed.
//
// A flush that returns an error may be retried (the recovery plane does,
// after the failed link is rebuilt): the retry keeps the same epoch and
// content — callers must not ingest between failure and retry — but bumps
// the thread incarnation, and because fragments serialize in sorted key
// order the retried chunk sequence is byte-identical, letting leaders drop
// exactly the prefix they already merged.
func (ts *ThreadState) Flush() error {
	if !ts.inFlight {
		ts.epoch++
		ts.flushes++
		ts.pend = 0
		ts.inFlight = true
		ts.dataDone = false
	} else {
		// Retrying the failed epoch: same content, next incarnation.
		ts.inc++
	}
	if !ts.dataDone {
		keys := ts.flushKeys[:0]
		for k := range ts.tables {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			a, b := keys[i], keys[j]
			if a.win != b.win {
				return a.win < b.win
			}
			if a.part != b.part {
				return a.part < b.part
			}
			return a.gen < b.gen
		})
		ts.flushKeys = keys
		for _, key := range keys {
			tbl := ts.tables[key]
			if tbl.LogBytes() == 0 {
				continue
			}
			// Data chunks deliberately carry no watermark promise: the flush's
			// remaining chunks still hold records below ts.wm, so advancing the
			// leader's clock here could trigger a window whose data is still in
			// flight. The trailing heartbeat (sent last, FIFO behind all data)
			// carries the real watermark.
			c := Chunk{
				Window:    key.win,
				Epoch:     ts.epoch,
				Watermark: stream.NoWatermark,
				Gen:       key.gen,
				Thread:    ts.gtid,
				Partition: key.part,
				Kind:      ChunkData,
				Inc:       ts.inc,
			}
			err := tbl.SerializeDelta(ts.be.cfg.ChunkSize, func(region []byte) error {
				c.Payload = region
				ts.chunksSent++
				ts.bytesShipped += uint64(len(region))
				return ts.deliver(&c, key.part)
			})
			if err != nil {
				return err
			}
		}
		// Invalidate everything shipped (§7.2.2 step 4) and recycle the table
		// capacity for the next epoch's fragments.
		ts.invalidateCache()
		for k, t := range ts.tables {
			if len(ts.pool) < 64 {
				t.Reset()
				ts.pool = append(ts.pool, t)
			}
			delete(ts.tables, k)
		}
		ts.dataDone = true
	}
	// Heartbeats carry the watermark to every live leader. The peer set —
	// not the partition map — decides who hears heartbeats: a retired
	// leader keeps draining pre-cutover windows but is removed from the
	// peer set once covered, so no traffic targets a torn-down channel.
	hb := Chunk{Epoch: ts.epoch, Watermark: ts.wm, Gen: ts.be.pmap.CurrentGen(), Thread: ts.gtid, Kind: ChunkHeartbeat, Inc: ts.inc}
	for _, part := range ts.be.Peers() {
		hb.Partition = part
		if err := ts.deliver(&hb, part); err != nil {
			return err
		}
	}
	ts.inFlight = false
	return nil
}

// MaxWindow returns the highest window id this thread ingested state into
// and whether any window was touched at all. Only meaningful once the owning
// source task answered the controller's flush barrier or finished — those
// atomics order the cross-goroutine read.
func (ts *ThreadState) MaxWindow() (uint64, bool) { return ts.maxWin, ts.hasWin }

// Dirty reports whether the thread holds unflushed fragments or unaccounted
// epoch bytes — a dirty source flushes before it answers the controller's
// flush barrier (a dirty thread could stamp a stale generation on a later
// flush).
func (ts *ThreadState) Dirty() bool {
	return len(ts.tables) > 0 || ts.pend > 0
}

// Epoch returns the thread's epoch counter (the epoch of the last flush).
func (ts *ThreadState) Epoch() uint64 { return ts.epoch }

// Inc returns the thread's current incarnation.
func (ts *ThreadState) Inc() uint8 { return ts.inc }

// RestoreProgress rewinds a fresh thread to journaled source progress: the
// epoch counter resumes so re-flushed epochs carry their original numbers
// (the leaders' commit tracking dedups them), the watermark resumes at the
// rewind point (re-ingested records re-derive it monotonically), and the
// incarnation is the restart's — callers pass the journaled incarnation
// plus one so leaders arm duplicate suppression on first contact.
func (ts *ThreadState) RestoreProgress(epoch uint64, wm stream.Watermark, inc uint8) {
	ts.epoch = epoch
	ts.wm = wm
	ts.inc = inc
}

// FinishStream flushes remaining state with a watermark of +infinity,
// letting every pending window trigger.
func (ts *ThreadState) FinishStream() error {
	ts.wm = math.MaxInt64
	return ts.Flush()
}

func (ts *ThreadState) deliver(c *Chunk, dest int) error {
	if dest == ts.be.cfg.Node {
		// Loopback: the local leader merges directly; no network transfer.
		return ts.be.HandleChunk(c)
	}
	s := ts.be.sender(dest)
	if s == nil {
		return fmt.Errorf("ssb: no sender for node %d", dest)
	}
	return s.Send(c)
}

// ThreadStats reports helper-side counters.
type ThreadStats struct {
	Updates      uint64
	Flushes      uint64
	ChunksSent   uint64
	BytesShipped uint64
}

// Stats snapshots the thread counters.
func (ts *ThreadState) Stats() ThreadStats {
	return ThreadStats{
		Updates:      ts.updates,
		Flushes:      ts.flushes,
		ChunksSent:   ts.chunksSent,
		BytesShipped: ts.bytesShipped,
	}
}
