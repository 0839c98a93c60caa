package ssb

import (
	"encoding/binary"
	"fmt"
)

// This file is the recoverable half of the state backend: epoch-aligned
// incremental checkpoints and the epoch-commit tracker that makes replayed
// traffic idempotent. A journaled leader has no merge path of its own:
// HandleChunk runs the tracker's admission step (epochTracker.admit) ahead
// of the one merge every leader does, and RestoreCheckpoint folds journaled
// deltas through the same mergeLocked as live chunks.
//
// The checkpoint design leans on the epoch protocol (§7.2.2) instead of
// quiescing: a leader's primary state is exactly the fold of the data chunks
// it merged, and chunks from one sender arrive FIFO, so the journal only has
// to record the inbound delta stream in merge order. A checkpoint record is
// "every payload merged since the previous record" — append-only, cheap, and
// consistent at any point between two HandleChunk calls, with no barrier and
// no cooperation from the helper threads. Replaying the journal in order
// rebuilds the table state, the trigger marks, the vector clock, and the
// tracker; everything merged after the last record is re-delivered by the
// controller's replay rings and deduplicated by the tracker.
//
// Commit rule: a sender's epoch E is committed at a leader once the trailing
// heartbeat of E arrives (heartbeats travel FIFO behind the epoch's data, so
// the heartbeat proves every data chunk of E was merged). Data chunks carry
// NoWatermark, so only commits advance the clock — which is what makes
// "replay everything above the committed epoch" sufficient.

// Journal receives a recoverable leader's durable records. The core engine
// implements it over a recovery.Store, stamping sequence numbers; tests use
// in-memory fakes. Calls are made with the backend lock held, in exactly the
// order a restore must replay them.
type Journal interface {
	// Checkpoint appends an incremental checkpoint: the opaque payload
	// (tracker state plus the delta log since the previous record), the
	// partition-map generation, and the vector clock at the cut. The
	// payload is given as consecutive regions, which the backend reuses once
	// the call returns: an implementation copies them before it returns and
	// keeps no reference to them.
	Checkpoint(gen uint64, clock []int64, payload [][]byte) error
	// Trigger appends a window-trigger mark.
	Trigger(gen uint64, win uint64) error
}

// threadEpoch is one sender thread's commit state at this leader.
type threadEpoch struct {
	// committed is the highest epoch whose trailing heartbeat arrived:
	// every data chunk of epochs <= committed is merged, so replayed chunks
	// at or below it are duplicates.
	committed uint64
	// cur / count identify the partially merged epoch: count data chunks of
	// epoch cur are in (FIFO makes cur <= committed+1). count is what
	// duplicate suppression skips when the epoch is re-sent.
	cur   uint64
	count uint32
	// inc is the highest sender incarnation seen. A bump means the sender
	// is re-sending the current epoch from the top (flush retry or node
	// restart); the already-merged prefix must be dropped positionally.
	inc uint8
	// skip / skipEpoch arm the positional drop: the next skip data chunks
	// of epoch skipEpoch are duplicates of the merged prefix. Sound because
	// flushes serialize fragments in sorted order, so a re-sent epoch is
	// byte-identical and each receiver sees the same subsequence again.
	skip      uint32
	skipEpoch uint64
}

// epochTracker is the per-leader recovery state: one threadEpoch per sender
// thread slot, plus checkpoint cadence and dedup accounting. Guarded by the
// backend mutex.
type epochTracker struct {
	threads []threadEpoch
	// sinceCkpt counts epoch commits since the last periodic checkpoint —
	// the controller's cadence signal (CheckpointDue).
	sinceCkpt int
	// deduped counts suppressed duplicate data chunks.
	deduped uint64
}

func newEpochTracker(threads int) *epochTracker {
	return &epochTracker{threads: make([]threadEpoch, threads)}
}

// admit runs the tracker's steps for one inbound chunk ahead of the merge
// and reports whether the chunk is a replayed duplicate, which it counts and
// the caller drops: a new sender incarnation arms the positional skip of the
// epoch prefix already merged; a data chunk of a committed epoch, or one of
// the armed prefix, is a duplicate; a data chunk of a later epoch opens it;
// and a heartbeat commits its epoch. Callers hold b.mu and have
// bounds-checked c.Thread.
func (tr *epochTracker) admit(c *Chunk) (dup bool) {
	t := &tr.threads[c.Thread]
	if c.Inc > t.inc {
		// New sender incarnation: the current epoch restarts from its first
		// chunk, so arm the positional skip for the prefix already merged.
		t.inc = c.Inc
		t.skip = t.count
		t.skipEpoch = t.cur
	}
	if c.Kind != ChunkData {
		if c.Epoch > t.committed {
			t.committed = c.Epoch
			tr.sinceCkpt++
		}
		if t.committed >= t.cur {
			t.cur = t.committed
			t.count = 0
			t.skip = 0
		}
		return false
	}
	switch {
	case c.Epoch <= t.committed:
	case c.Epoch == t.skipEpoch && t.skip > 0:
		t.skip--
	default:
		if c.Epoch > t.cur {
			t.cur = c.Epoch
			t.count = 0
			t.skip = 0
		}
		return false
	}
	tr.deduped++
	return true
}

// ckptLog is the pending checkpoint log: the deltas merged since the last
// checkpoint record, as win u64 | len u32 | payload events in merge order.
// The bytes are staged in segments from the process-wide free list
// (bagseg.go) instead of one growing array, so a log that reaches several MB
// between records never regrows or recopies what it holds, and a fresh
// deployment's log fills from segments an earlier one released. A record
// hands the filled spans to the journal, which copies them once, and the
// segments go straight back to the free list.
type ckptLog struct {
	segs []*bagSeg
	n    int // bytes staged; every segment but the tail is full
}

// write appends p, taking a segment whenever the tail one is full.
func (l *ckptLog) write(p []byte) {
	for len(p) > 0 {
		s := l.n / bagSegBytes
		if s == len(l.segs) {
			l.segs = append(l.segs, takeSeg())
		}
		c := copy(l.segs[s][l.n%bagSegBytes:], p)
		p = p[c:]
		l.n += c
	}
}

// appendSpans appends the staged bytes to dst as one region per segment.
func (l *ckptLog) appendSpans(dst [][]byte) [][]byte {
	for s, seg := range l.segs {
		dst = append(dst, seg[:min(l.n-s*bagSegBytes, bagSegBytes)])
	}
	return dst
}

// reset empties the log and returns its segments to the free list.
func (l *ckptLog) reset() {
	putSegs(l.segs)
	clear(l.segs)
	l.segs = l.segs[:0]
	l.n = 0
}

// appendCkptLog stages one merged delta in the pending checkpoint log:
// win u64 | len u32 | payload. Callers hold b.mu.
func (b *Backend) appendCkptLog(win uint64, payload []byte) {
	var hdr [12]byte
	putU64(hdr[0:], win)
	putU32(hdr[8:], uint32(len(payload)))
	b.ckptLog.write(hdr[:])
	b.ckptLog.write(payload)
}

// trackerEntrySize is the encoded size of one threadEpoch:
// committed u64 | cur u64 | count u32 | inc u8.
const trackerEntrySize = 21

// checkpointRegionsLocked lays out a checkpoint payload as regions: the
// tracker header (u32 thread count, then the tracker entries), encoded into
// the backend's reused scratch, then the staged delta log's spans. The
// regions alias backend memory and are valid until the log is next changed.
// Callers hold b.mu.
func (b *Backend) checkpointRegionsLocked() [][]byte {
	n := len(b.tracker.threads)
	hdr := b.ckptHdr[:0]
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(n))
	for i := range b.tracker.threads {
		t := &b.tracker.threads[i]
		hdr = binary.LittleEndian.AppendUint64(hdr, t.committed)
		hdr = binary.LittleEndian.AppendUint64(hdr, t.cur)
		hdr = binary.LittleEndian.AppendUint32(hdr, t.count)
		hdr = append(hdr, t.inc)
	}
	b.ckptHdr = hdr
	b.ckptRegions = b.ckptLog.appendSpans(append(b.ckptRegions[:0], hdr))
	return b.ckptRegions
}

// journalCheckpointLocked appends one checkpoint record of the tracker
// state and the staged delta log. On success the log is emptied and its
// segments freed; on failure it is kept. Callers hold b.mu.
func (b *Backend) journalCheckpointLocked() error {
	err := b.cfg.Journal.Checkpoint(b.pmap.CurrentGen(), b.clock.Snapshot(), b.checkpointRegionsLocked())
	clear(b.ckptRegions)
	if err != nil {
		return err
	}
	b.ckptLog.reset()
	return nil
}

// flushCheckpointLocked writes the pending delta log as a checkpoint record
// and clears it. A journal error is latched (a trigger cannot return it);
// JournalErr surfaces it. No-op when nothing is staged — the durable state
// is already current. Callers hold b.mu.
func (b *Backend) flushCheckpointLocked() {
	if b.cfg.Journal == nil || b.ckptLog.n == 0 {
		return
	}
	if err := b.journalCheckpointLocked(); err != nil {
		if b.jErr == nil {
			b.jErr = err
		}
		// A failed record's deltas are not retried: the latched error fails
		// the run before another record could be missing them.
		b.ckptLog.reset()
	}
}

// DropCheckpointLog discards the pending checkpoint log without journaling
// it and returns its segments to the free list. The controller calls it on
// a backend it is discarding: a dead node's, whose unjournaled deltas are
// sent to its replacement again (by the survivors' replay rings and its own
// rewound sources), and every node's at teardown, when no record follows.
func (b *Backend) DropCheckpointLog() {
	b.mu.Lock()
	b.ckptLog.reset()
	b.mu.Unlock()
}

// Checkpoint writes a periodic checkpoint record — staged deltas or not —
// advancing the durable commit horizon, and returns the committed epoch per
// sender thread at the cut. The controller prunes its replay rings with
// exactly this vector: entries at or below it are durably folded into the
// journal and need never be replayed. Written while a trigger is emitting,
// the record lands between that trigger's own checkpoint record and its
// trigger marks; it holds no delta of the windows being emitted (their
// chunks are refused), so every mark still follows the deltas of its window.
func (b *Backend) Checkpoint() ([]uint64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tracker == nil {
		return nil, fmt.Errorf("ssb: node %d is not recoverable", b.cfg.Node)
	}
	if err := b.journalCheckpointLocked(); err != nil {
		if b.jErr == nil {
			b.jErr = err
		}
		return nil, err
	}
	b.tracker.sinceCkpt = 0
	committed := make([]uint64, len(b.tracker.threads))
	for i := range b.tracker.threads {
		committed[i] = b.tracker.threads[i].committed
	}
	return committed, nil
}

// CheckpointDue reports whether at least interval epoch commits landed since
// the last periodic checkpoint — the merge task's cadence check.
func (b *Backend) CheckpointDue(interval int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tracker != nil && b.tracker.sinceCkpt >= interval
}

// JournalErr returns the first journal-append failure, if any. Durability
// silently falling behind would void the recovery contract, so the merge
// task treats this as fatal.
func (b *Backend) JournalErr() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.jErr
}

// ChunksDeduped returns how many replayed duplicate data chunks the tracker
// suppressed (recovery accounting).
func (b *Backend) ChunksDeduped() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tracker == nil {
		return 0
	}
	return b.tracker.deduped
}

// CommittedEpochs snapshots the committed epoch per sender thread.
func (b *Backend) CommittedEpochs() []uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tracker == nil {
		return nil
	}
	out := make([]uint64, len(b.tracker.threads))
	for i := range b.tracker.threads {
		out[i] = b.tracker.threads[i].committed
	}
	return out
}

// RestoreCheckpoint replays one checkpoint record into a fresh recoverable
// backend: merge the staged deltas in their original order, then overwrite
// the tracker and vector clock with the states stamped at the cut. Records
// must replay in journal order, interleaved with RestoreTrigger. The journal
// is read from storage, so a record that does not fit the deployment or does
// not parse returns ErrChunkFormat; the clock length is checked before
// anything is merged.
func (b *Backend) RestoreCheckpoint(clock []int64, payload []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tracker == nil {
		return fmt.Errorf("ssb: node %d is not recoverable", b.cfg.Node)
	}
	if len(clock) != b.clock.Size() {
		return fmt.Errorf("%w: checkpoint clock of %d entries, deployment has %d", ErrChunkFormat, len(clock), b.clock.Size())
	}
	if len(payload) < 4 {
		return fmt.Errorf("%w: checkpoint record too short", ErrChunkFormat)
	}
	n := int(getU32(payload))
	if n != len(b.tracker.threads) {
		return fmt.Errorf("%w: checkpoint for %d threads, deployment has %d", ErrChunkFormat, n, len(b.tracker.threads))
	}
	off := 4
	if off+n*trackerEntrySize > len(payload) {
		return fmt.Errorf("%w: truncated tracker state", ErrChunkFormat)
	}
	trackerState := payload[off : off+n*trackerEntrySize]
	off += n * trackerEntrySize
	// Delta events, in merge order.
	for off < len(payload) {
		if off+12 > len(payload) {
			return fmt.Errorf("%w: truncated checkpoint event", ErrChunkFormat)
		}
		win := getU64(payload[off:])
		plen := int(getU32(payload[off+8:]))
		off += 12
		if off+plen > len(payload) {
			return fmt.Errorf("%w: checkpoint event overflows record", ErrChunkFormat)
		}
		if !b.triggered[win] {
			if err := b.mergeLocked(win, payload[off:off+plen]); err != nil {
				return err
			}
		}
		off += plen
	}
	for i := range b.tracker.threads {
		e := trackerState[i*trackerEntrySize:]
		t := &b.tracker.threads[i]
		t.committed = getU64(e[0:])
		t.cur = getU64(e[8:])
		t.count = getU32(e[16:])
		t.inc = e[20]
		t.skip, t.skipEpoch = 0, 0
		b.lastEpoch[i] = t.cur
	}
	b.clock.RestoreSnapshot(clock)
	return nil
}

// RestoreTrigger replays one window-trigger mark: the window fired and its
// results were emitted before the crash, so the restore discards its state
// and never re-emits it.
func (b *Backend) RestoreTrigger(win uint64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tracker == nil {
		return fmt.Errorf("ssb: node %d is not recoverable", b.cfg.Node)
	}
	if tbl := b.primary[win]; tbl != nil {
		b.putTable(tbl)
		delete(b.primary, win)
	}
	b.triggered[win] = true
	b.windowsOutput++
	return nil
}

// FinishRestore completes a journal replay: for every sender thread the
// partially merged epoch's prefix (count chunks of epoch cur) is armed for
// positional skip, because the controller's replay rings retain and will
// re-deliver those very chunks — pruning only advances at checkpoint
// granularity. Chunks above the prefix merge normally.
func (b *Backend) FinishRestore() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tracker == nil {
		return
	}
	for i := range b.tracker.threads {
		t := &b.tracker.threads[i]
		t.skip = t.count
		t.skipEpoch = t.cur
	}
	b.tracker.sinceCkpt = 0
}

// EncodeTriggerPayload encodes a trigger record's payload (the window id),
// keeping the journal wire format owned by this package.
func EncodeTriggerPayload(win uint64) []byte {
	var p [8]byte
	putU64(p[:], win)
	return p[:]
}

// DecodeTriggerPayload parses a trigger record's payload.
func DecodeTriggerPayload(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("%w: trigger record of %d bytes", ErrChunkFormat, len(p))
	}
	return getU64(p), nil
}
