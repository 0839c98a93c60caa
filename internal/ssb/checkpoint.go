package ssb

import (
	"fmt"
)

// This file is the recoverable half of the state backend: epoch-aligned
// incremental checkpoints and the epoch-commit tracker that makes replayed
// traffic idempotent.
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
	// partition-map generation, and the vector clock at the cut.
	Checkpoint(gen uint64, clock []int64, payload []byte) error
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

// handleChunkRecoverable is HandleChunk with the epoch-commit tracker in
// force. Callers hold b.mu and have bounds-checked c.Thread. Unlike the
// strict path it tolerates regressed epochs and chunks for triggered
// windows — both are the signature of post-failure replay, and both drop
// silently — while keeping the destination and generation checks hard
// errors (replay never changes routing).
func (b *Backend) handleChunkRecoverable(c *Chunk) error {
	t := &b.tracker.threads[c.Thread]
	if c.Inc > t.inc {
		// New sender incarnation: the current epoch restarts from its first
		// chunk, so arm the positional skip for the prefix already merged.
		t.inc = c.Inc
		t.skip = t.count
		t.skipEpoch = t.cur
	}
	if c.Kind == ChunkData {
		if c.Epoch <= t.committed {
			b.tracker.deduped++
			return nil
		}
		if c.Epoch == t.skipEpoch && t.skip > 0 {
			t.skip--
			b.tracker.deduped++
			return nil
		}
		if c.Epoch > t.cur {
			t.cur = c.Epoch
			t.count = 0
			t.skip = 0
		}
		if c.Partition != b.cfg.Node {
			return fmt.Errorf("%w: partition %d at leader %d", ErrBadDestination, c.Partition, b.cfg.Node)
		}
		if g := b.pmap.GenFor(c.Window); c.Gen != g {
			return fmt.Errorf("%w: window %d carries gen %d, map says %d", ErrStaleGeneration, c.Window, c.Gen, g)
		}
		if b.triggered[c.Window] {
			// A replayed chunk of a window that triggered before the crash.
			// Its content is already in the emitted result; dropping it
			// without counting is deterministic because live operation never
			// reaches here (P1: data beats the covering watermark).
			b.tracker.deduped++
			return nil
		}
		tbl := b.primary[c.Window]
		if tbl == nil {
			tbl = b.takeTable()
			b.primary[c.Window] = tbl
		}
		if err := tbl.MergeDelta(c.Payload); err != nil {
			return err
		}
		t.count++
		b.chunksMerged++
		b.bytesMerged += uint64(len(c.Payload))
		b.markStateDirty(c.Window, len(c.Payload))
		if b.cfg.Journal != nil {
			b.appendCkptLog(c.Window, c.Payload)
		}
	} else {
		if c.Epoch > t.committed {
			t.committed = c.Epoch
			b.tracker.sinceCkpt++
		}
		if t.committed >= t.cur {
			t.cur = t.committed
			t.count = 0
			t.skip = 0
		}
	}
	// Merging happens before the watermark becomes visible, so a trigger
	// that observes the new clock entry also observes the merged state.
	b.clock.Observe(c.Thread, c.Watermark)
	return nil
}

// appendCkptLog stages one merged delta in the pending checkpoint log:
// win u64 | len u32 | payload. Callers hold b.mu.
func (b *Backend) appendCkptLog(win uint64, payload []byte) {
	var hdr [12]byte
	putU64(hdr[0:], win)
	putU32(hdr[8:], uint32(len(payload)))
	b.ckptLog = append(b.ckptLog, hdr[:]...)
	b.ckptLog = append(b.ckptLog, payload...)
}

// trackerEntrySize is the encoded size of one threadEpoch:
// committed u64 | cur u64 | count u32 | inc u8.
const trackerEntrySize = 21

// encodeCheckpointLocked builds a checkpoint payload: u32 thread count, the
// tracker entries, then the staged delta log. Callers hold b.mu.
func (b *Backend) encodeCheckpointLocked() []byte {
	n := len(b.tracker.threads)
	out := make([]byte, 0, 4+n*trackerEntrySize+len(b.ckptLog))
	var hdr [4]byte
	putU32(hdr[:], uint32(n))
	out = append(out, hdr[:]...)
	for i := range b.tracker.threads {
		t := &b.tracker.threads[i]
		var e [trackerEntrySize]byte
		putU64(e[0:], t.committed)
		putU64(e[8:], t.cur)
		putU32(e[16:], t.count)
		e[20] = t.inc
		out = append(out, e[:]...)
	}
	return append(out, b.ckptLog...)
}

// flushCheckpointLocked writes the pending delta log as a checkpoint record
// and clears it. A journal error is latched (a trigger cannot return it);
// JournalErr surfaces it. No-op when nothing is staged — the durable state
// is already current. Callers hold b.mu.
func (b *Backend) flushCheckpointLocked() {
	if b.cfg.Journal == nil || len(b.ckptLog) == 0 {
		return
	}
	payload := b.encodeCheckpointLocked()
	if err := b.cfg.Journal.Checkpoint(b.pmap.CurrentGen(), b.clock.Snapshot(), payload); err != nil && b.jErr == nil {
		b.jErr = err
	}
	b.ckptLog = b.ckptLog[:0]
}

// Checkpoint writes a periodic checkpoint record — staged deltas or not —
// advancing the durable commit horizon, and returns the committed epoch per
// sender thread at the cut. The controller prunes its replay rings with
// exactly this vector: entries at or below it are durably folded into the
// journal and need never be replayed.
func (b *Backend) Checkpoint() ([]uint64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tracker == nil || b.cfg.Journal == nil {
		return nil, fmt.Errorf("ssb: node %d is not recoverable", b.cfg.Node)
	}
	payload := b.encodeCheckpointLocked()
	if err := b.cfg.Journal.Checkpoint(b.pmap.CurrentGen(), b.clock.Snapshot(), payload); err != nil {
		if b.jErr == nil {
			b.jErr = err
		}
		return nil, err
	}
	b.ckptLog = b.ckptLog[:0]
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
// must replay in journal order, interleaved with RestoreTrigger.
func (b *Backend) RestoreCheckpoint(clock []int64, payload []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tracker == nil {
		return fmt.Errorf("ssb: node %d is not recoverable", b.cfg.Node)
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
			tbl := b.primary[win]
			if tbl == nil {
				tbl = b.takeTable()
				b.primary[win] = tbl
			}
			if err := tbl.MergeDelta(payload[off : off+plen]); err != nil {
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
