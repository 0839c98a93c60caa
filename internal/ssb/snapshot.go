package ssb

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"github.com/slash-stream/slash/internal/stream"
)

// Epoch-based checkpointing. The paper observes that epoch protocols are
// the standard substrate for consistent snapshots (§7.2.2, citing Flink's
// and FASTER's checkpointing); this extension materializes that: because
// every helper fragment is empty at an epoch boundary and all in-flight
// state lives in the leaders' primary partitions, a leader-local snapshot
// taken between HandleChunk calls is a consistent cut of the distributed
// state. Snapshot and Restore serialize a Backend's primary partitions,
// vector clock, epoch counters, and triggered-window set; a restored
// backend resumes exactly where the snapshot was taken.

// snapshotMagic identifies the checkpoint format.
var snapshotMagic = [8]byte{'S', 'S', 'B', 'S', 'N', 'A', 'P', '1'}

// Errors returned by checkpointing.
var (
	ErrSnapshotFormat   = errors.New("ssb: malformed snapshot")
	ErrSnapshotMismatch = errors.New("ssb: snapshot does not match backend configuration")
)

// Snapshot writes a consistent checkpoint of the leader state to w. It
// must be called at an epoch boundary from the merge task's context (no
// concurrent HandleChunk). A bag trigger still emitting is waited for, so
// the snapshot never holds a window that is triggered but unfinished.
func (b *Backend) Snapshot(w io.Writer) error {
	b.trigMu.Lock()
	defer b.trigMu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	var scratch [8]byte
	writeU64 := func(v uint64) error {
		putU64(scratch[:], v)
		_, err := w.Write(scratch[:])
		return err
	}
	if _, err := w.Write(snapshotMagic[:]); err != nil {
		return err
	}
	holistic := uint64(0)
	if b.cfg.Agg == nil {
		holistic = 1
	}
	for _, v := range []uint64{uint64(b.cfg.Node), uint64(b.cfg.Nodes), uint64(b.cfg.ThreadsPerNode), holistic} {
		if err := writeU64(v); err != nil {
			return err
		}
	}
	// Vector clock entries.
	clock := b.clock.Snapshot()
	if err := writeU64(uint64(len(clock))); err != nil {
		return err
	}
	for _, wm := range clock {
		if err := writeU64(uint64(wm)); err != nil {
			return err
		}
	}
	// Per-sender epoch counters.
	if err := writeU64(uint64(len(b.lastEpoch))); err != nil {
		return err
	}
	for _, e := range b.lastEpoch {
		if err := writeU64(e); err != nil {
			return err
		}
	}
	// Triggered windows (sorted for deterministic snapshots).
	trig := make([]uint64, 0, len(b.triggered))
	for win := range b.triggered {
		trig = append(trig, win)
	}
	sort.Slice(trig, func(i, j int) bool { return trig[i] < trig[j] })
	if err := writeU64(uint64(len(trig))); err != nil {
		return err
	}
	for _, win := range trig {
		if err := writeU64(win); err != nil {
			return err
		}
	}
	// Primary partitions: window id + raw log (self-describing entries).
	wins := make([]uint64, 0, len(b.primary))
	for win := range b.primary {
		wins = append(wins, win)
	}
	sort.Slice(wins, func(i, j int) bool { return wins[i] < wins[j] })
	if err := writeU64(uint64(len(wins))); err != nil {
		return err
	}
	var regions [][]byte
	for _, win := range wins {
		tbl := b.primary[win]
		if err := writeU64(win); err != nil {
			return err
		}
		if err := writeU64(uint64(tbl.LogBytes())); err != nil {
			return err
		}
		// A bag log goes out segment by segment; the bytes are the log's.
		regions = tbl.appendLog(regions[:0])
		for _, r := range regions {
			if _, err := w.Write(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// Restore loads a checkpoint previously written by Snapshot into this
// backend, replacing its leader state. The backend must be configured with
// the same deployment shape and CRDT kind as the snapshotted one. A
// truncated or malformed snapshot leaves the backend unchanged. Like
// Snapshot, it waits for a bag trigger still emitting.
func (b *Backend) Restore(r io.Reader) (err error) {
	b.trigMu.Lock()
	defer b.trigMu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	var scratch [8]byte
	readU64 := func() (uint64, error) {
		if _, err := io.ReadFull(r, scratch[:]); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrSnapshotFormat, err)
		}
		return getU64(scratch[:]), nil
	}
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrSnapshotFormat, err)
	}
	if magic != snapshotMagic {
		return fmt.Errorf("%w: bad magic", ErrSnapshotFormat)
	}
	hdr := make([]uint64, 4)
	for i := range hdr {
		v, err := readU64()
		if err != nil {
			return err
		}
		hdr[i] = v
	}
	holistic := uint64(0)
	if b.cfg.Agg == nil {
		holistic = 1
	}
	if hdr[0] != uint64(b.cfg.Node) || hdr[1] != uint64(b.cfg.Nodes) ||
		hdr[2] != uint64(b.cfg.ThreadsPerNode) || hdr[3] != holistic {
		return fmt.Errorf("%w: snapshot for node %d/%d (%d threads)", ErrSnapshotMismatch, hdr[0], hdr[1], hdr[2])
	}
	// Vector clock.
	n, err := readU64()
	if err != nil {
		return err
	}
	if n != uint64(b.cfg.Nodes*b.cfg.ThreadsPerNode) {
		return fmt.Errorf("%w: clock size %d", ErrSnapshotMismatch, n)
	}
	clock := make([]stream.Watermark, n)
	for i := range clock {
		v, err := readU64()
		if err != nil {
			return err
		}
		clock[i] = stream.Watermark(v)
	}
	// Epoch counters.
	n, err = readU64()
	if err != nil {
		return err
	}
	if n != uint64(len(b.lastEpoch)) {
		return fmt.Errorf("%w: epoch vector size %d", ErrSnapshotMismatch, n)
	}
	epochs := make([]uint64, n)
	for i := range epochs {
		if epochs[i], err = readU64(); err != nil {
			return err
		}
	}
	// Triggered windows.
	n, err = readU64()
	if err != nil {
		return err
	}
	triggered := make(map[uint64]bool, n)
	for i := uint64(0); i < n; i++ {
		win, err := readU64()
		if err != nil {
			return err
		}
		triggered[win] = true
	}
	// Primary partitions.
	n, err = readU64()
	if err != nil {
		return err
	}
	primary := make(map[uint64]*Table, n)
	defer func() {
		if err != nil {
			// Return the segments of every table read so far.
			for _, tbl := range primary {
				tbl.Reset()
			}
		}
	}()
	for i := uint64(0); i < n; i++ {
		win, err := readU64()
		if err != nil {
			return err
		}
		size, err := readU64()
		if err != nil {
			return err
		}
		if size > maxLogSize {
			return fmt.Errorf("%w: table of %d bytes", ErrSnapshotFormat, size)
		}
		tbl := b.newTable()
		primary[win] = tbl
		if err := tbl.readLog(r, int(size)); err != nil {
			return err
		}
	}
	// Swap the restored state in atomically under the lock.
	fresh := make([]stream.Watermark, len(clock))
	copy(fresh, clock)
	b.clock.MergeSnapshot(fresh)
	b.lastEpoch = epochs
	b.triggered = triggered
	for _, tbl := range b.primary {
		b.putTable(tbl)
	}
	b.primary = primary
	return nil
}
