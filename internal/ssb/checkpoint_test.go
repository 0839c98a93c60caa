package ssb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/stream"
)

// memJournal records Journal appends in order, like core's store-backed
// implementation but in memory and without sequence stamping.
type memJournal struct {
	recs []memJournalRec
	fail error
}

type memJournalRec struct {
	trigger bool
	gen     uint64
	win     uint64
	clock   []int64
	payload []byte
}

func (j *memJournal) Checkpoint(gen uint64, clock []int64, payload [][]byte) error {
	if j.fail != nil {
		return j.fail
	}
	var flat []byte
	for _, p := range payload {
		flat = append(flat, p...)
	}
	j.recs = append(j.recs, memJournalRec{
		gen:     gen,
		clock:   append([]int64(nil), clock...),
		payload: flat,
	})
	return nil
}

func (j *memJournal) Trigger(gen, win uint64) error {
	if j.fail != nil {
		return j.fail
	}
	j.recs = append(j.recs, memJournalRec{trigger: true, gen: gen, win: win})
	return nil
}

// deltaPayload serializes a single-entry aggregate delta for key/v.
func deltaPayload(t testing.TB, key uint64, v int64) []byte {
	t.Helper()
	tbl := NewAggTable(crdt.Sum{})
	if err := tbl.UpdateAgg(&stream.Record{Key: key, Time: 1, V0: v}); err != nil {
		t.Fatal(err)
	}
	var out []byte
	err := tbl.SerializeDelta(1<<20, func(r []byte) error {
		out = append([]byte(nil), r...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// recoverableBackend builds a one-node, two-thread sum leader journaling to
// j, or to a fresh memJournal when j is nil: a journal arms the leader's
// epoch-commit tracker.
func recoverableBackend(t testing.TB, j *memJournal) *Backend {
	t.Helper()
	if j == nil {
		j = &memJournal{}
	}
	return newLeader(t, 2, j)
}

// newLeader builds a one-node sum leader of threads sender threads. It is
// recoverable when j is non-nil and strict otherwise.
func newLeader(t testing.TB, threads int, j Journal) *Backend {
	t.Helper()
	b, err := New(Config{
		Node: 0, Nodes: 1, ThreadsPerNode: threads,
		Agg: crdt.Sum{}, WindowEnd: fixedWindowEnd, Journal: j,
	}, make([]Sender, 1))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// leaderModes runs fn on a strict leader and on a recoverable one; j is the
// Journal to build the leader with, nil for the strict one.
func leaderModes(t *testing.T, fn func(t *testing.T, j Journal)) {
	t.Run("strict", func(t *testing.T) { fn(t, nil) })
	t.Run("recoverable", func(t *testing.T) { fn(t, &memJournal{}) })
}

func sumAt(t *testing.T, b *Backend, win, key uint64) int64 {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	tbl := b.primary[win]
	if tbl == nil {
		return 0
	}
	state, ok := tbl.GetAgg(key)
	if !ok {
		return 0
	}
	return crdt.Sum{}.Result(state)
}

// TestRecoverableDedup drives the epoch-commit tracker by hand: a partial
// epoch from incarnation 0, a full incarnation-1 re-send (the flush-retry
// wire pattern), and replays of a committed epoch. Every payload must merge
// exactly once.
func TestRecoverableDedup(t *testing.T) {
	b := recoverableBackend(t, nil)
	data := func(epoch uint64, inc uint8, key uint64) *Chunk {
		return &Chunk{
			Window: 0, Epoch: epoch, Watermark: stream.NoWatermark,
			Thread: 1, Partition: 0, Kind: ChunkData, Inc: inc,
			Payload: deltaPayload(t, key, 1),
		}
	}
	hb := func(epoch uint64, inc uint8, wm stream.Watermark) *Chunk {
		return &Chunk{Epoch: epoch, Watermark: wm, Thread: 1, Partition: 0, Kind: ChunkHeartbeat, Inc: inc}
	}
	// Incarnation 0 delivers a partial epoch 1: keys 1 and 2.
	for _, k := range []uint64{1, 2} {
		if err := b.HandleChunk(data(1, 0, k)); err != nil {
			t.Fatal(err)
		}
	}
	// The sender's flush failed mid-epoch and retries: incarnation 1 re-sends
	// the whole epoch (keys 1, 2, 3) plus the trailing heartbeat.
	for _, k := range []uint64{1, 2, 3} {
		if err := b.HandleChunk(data(1, 1, k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.HandleChunk(hb(1, 1, 100)); err != nil {
		t.Fatal(err)
	}
	// A replayed chunk of the now-committed epoch drops silently.
	if err := b.HandleChunk(data(1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{1, 2, 3} {
		if got := sumAt(t, b, 0, k); got != 1 {
			t.Fatalf("key %d merged %d times, want 1", k, got)
		}
	}
	if got := b.ChunksDeduped(); got != 3 {
		t.Fatalf("ChunksDeduped = %d, want 3", got)
	}
	// A fresh epoch from the new incarnation merges normally.
	if err := b.HandleChunk(data(2, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if got := sumAt(t, b, 0, 1); got != 2 {
		t.Fatalf("key 1 after epoch 2 = %d, want 2", got)
	}
}

// TestRecoverableRejectsBadRouting checks the hard errors hold on both
// leaders: replay tolerates duplicates, not misrouted traffic.
func TestRecoverableRejectsBadRouting(t *testing.T) {
	leaderModes(t, func(t *testing.T, j Journal) {
		b := newLeader(t, 2, j)
		c := &Chunk{Window: 0, Epoch: 1, Thread: 1, Partition: 5, Kind: ChunkData, Payload: deltaPayload(t, 1, 1)}
		if err := b.HandleChunk(c); !errors.Is(err, ErrBadDestination) {
			t.Fatalf("misrouted chunk: %v", err)
		}
		c = &Chunk{Window: 0, Epoch: 1, Gen: 7, Thread: 1, Partition: 0, Kind: ChunkData, Payload: deltaPayload(t, 1, 1)}
		if err := b.HandleChunk(c); !errors.Is(err, ErrStaleGeneration) {
			t.Fatalf("stale generation: %v", err)
		}
	})
}

// TestCheckpointRestoreRoundTrip runs a two-epoch, two-window workload on a
// journaled leader — window 0 triggers mid-run — then replays the journal
// into a fresh backend and checks the restored state: trigger marks, pending
// window content, commit tracking, and duplicate suppression for replayed
// traffic.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	j := &memJournal{}
	b := recoverableBackend(t, j)
	ts := b.Thread(0) // thread 0 flushes via loopback into its own leader
	other := func(epoch uint64, wm stream.Watermark) *Chunk {
		return &Chunk{Epoch: epoch, Watermark: wm, Thread: 1, Partition: 0, Kind: ChunkHeartbeat}
	}

	// Epoch 1: state in windows 0 and 1, watermark past window 0's end.
	for i := 0; i < 4; i++ {
		if err := ts.UpdateAgg(0, &stream.Record{Key: uint64(i), Time: 900, V0: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ts.UpdateAgg(1, &stream.Record{Key: 9, Time: 1500, V0: 5}); err != nil {
		t.Fatal(err)
	}
	if err := ts.Flush(); err != nil {
		t.Fatal(err)
	}
	// Thread 1's heartbeat completes coverage of window 0.
	if err := b.HandleChunk(other(1, 1200)); err != nil {
		t.Fatal(err)
	}
	emitted := map[uint64]int64{}
	if n := b.TriggerReady(func(_, key uint64, res int64) { emitted[key] = res }, nil); n != 1 {
		t.Fatalf("triggered %d windows, want 1", n)
	}
	if err := b.JournalErr(); err != nil {
		t.Fatal(err)
	}

	// Epoch 2: more window-1 state, then a periodic checkpoint.
	if err := ts.UpdateAgg(1, &stream.Record{Key: 9, Time: 1600, V0: 3}); err != nil {
		t.Fatal(err)
	}
	if err := ts.Flush(); err != nil {
		t.Fatal(err)
	}
	if !b.CheckpointDue(1) {
		t.Fatal("checkpoint not due after two commits")
	}
	committed, err := b.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if committed[0] != 2 || committed[1] != 1 {
		t.Fatalf("committed = %v, want [2 1]", committed)
	}
	if b.CheckpointDue(1) {
		t.Fatal("cadence not reset by checkpoint")
	}

	// Restore: replay the journal in order into a fresh backend.
	r := recoverableBackend(t, nil)
	for _, rec := range j.recs {
		if rec.trigger {
			if err := r.RestoreTrigger(rec.win); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := r.RestoreCheckpoint(rec.clock, rec.payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	r.FinishRestore()

	if !r.TriggeredAtOrAfter(0) {
		t.Fatal("restored backend lost the window-0 trigger mark")
	}
	if got := sumAt(t, r, 1, 9); got != 8 {
		t.Fatalf("restored window-1 sum = %d, want 8", got)
	}
	if got := sumAt(t, r, 0, 1); got != 0 {
		t.Fatal("restored backend resurrected triggered window state")
	}
	if got := r.CommittedEpochs(); got[0] != 2 || got[1] != 1 {
		t.Fatalf("restored committed = %v, want [2 1]", got)
	}
	if got, want := r.Stats().WindowsOutput, uint64(1); got != want {
		t.Fatalf("restored WindowsOutput = %d, want %d", got, want)
	}
	// Replayed committed traffic (thread 1's heartbeat, an old-epoch data
	// chunk) must be suppressed, not double-merged.
	if err := r.HandleChunk(other(1, 1200)); err != nil {
		t.Fatal(err)
	}
	old := &Chunk{Window: 1, Epoch: 1, Thread: 1, Partition: 0, Kind: ChunkData, Payload: deltaPayload(t, 9, 99)}
	if err := r.HandleChunk(old); err != nil {
		t.Fatal(err)
	}
	if got := sumAt(t, r, 1, 9); got != 8 {
		t.Fatalf("replay changed restored state: sum = %d, want 8", got)
	}
	if r.ChunksDeduped() == 0 {
		t.Fatal("replayed duplicate not counted")
	}
	// The restored clock matches the last durable cut.
	if got, want := r.Clock().Entry(0), b.Clock().Entry(0); got != want {
		t.Fatalf("restored clock entry 0 = %d, want %d", got, want)
	}
}

// journaledCheckpoint returns the record a recoverableBackend journals after
// one epoch over two windows: a 2-entry clock and a payload holding the
// tracker state and both windows' deltas.
func journaledCheckpoint(t testing.TB) memJournalRec {
	t.Helper()
	j := &memJournal{}
	b := recoverableBackend(t, j)
	ts := b.Thread(0)
	for i, win := range []uint64{0, 0, 1} {
		if err := ts.UpdateAgg(win, &stream.Record{Key: uint64(i), Time: 900, V0: 4}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ts.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if len(j.recs) != 1 || j.recs[0].trigger {
		t.Fatalf("journal holds %d records, want one checkpoint", len(j.recs))
	}
	return j.recs[0]
}

// TestRestoreRejectsMismatch: a checkpoint record that does not fit the
// restoring deployment — a clock of another length, a tracker for another
// thread count, a truncated record — is rejected with ErrChunkFormat. A
// wrong clock length is caught before any delta is merged, so the backend
// is left as it was. The record itself restores.
func TestRestoreRejectsMismatch(t *testing.T) {
	rec := journaledCheckpoint(t)
	n := len(rec.clock)
	threads := append([]byte(nil), rec.payload...)
	putU32(threads, 3)
	for name, c := range map[string]struct {
		clock   []int64
		payload []byte
	}{
		"longer clock":  {make([]int64, n+3), rec.payload},
		"shorter clock": {make([]int64, n-1), rec.payload},
		"no clock":      {nil, rec.payload},
		"thread count":  {rec.clock, threads},
		"no tracker":    {rec.clock, rec.payload[:3]},
		"cut tracker":   {rec.clock, rec.payload[:4+trackerEntrySize]},
	} {
		r := recoverableBackend(t, nil)
		if err := r.RestoreCheckpoint(c.clock, c.payload); !errors.Is(err, ErrChunkFormat) {
			t.Fatalf("%s: err = %v, want ErrChunkFormat", name, err)
		}
		if got := r.PendingWindows(); got != 0 {
			t.Fatalf("%s: a rejected record left %d windows", name, got)
		}
	}
	r := recoverableBackend(t, nil)
	if err := r.RestoreCheckpoint(make([]int64, n+3), rec.payload); !errors.Is(err, ErrChunkFormat) {
		t.Fatal(err)
	}
	if err := r.RestoreCheckpoint(rec.clock, rec.payload); err != nil {
		t.Fatal(err)
	}
	if got := sumAt(t, r, 0, 1); got != 4 {
		t.Fatalf("restored window-0 sum = %d, want 4", got)
	}
	if got := r.PendingWindows(); got != 2 {
		t.Fatalf("restored %d windows, want 2", got)
	}
}

// FuzzRestoreCheckpoint feeds a fresh recoverable backend a checkpoint
// record of arbitrary clock length and payload. The journal is read from
// storage, so the restore must return nil or ErrChunkFormat, never panic,
// and a restored backend must finish its restore.
func FuzzRestoreCheckpoint(f *testing.F) {
	rec := journaledCheckpoint(f)
	n := uint8(len(rec.clock))
	f.Add(n, rec.payload)
	f.Add(n+3, rec.payload)
	f.Add(uint8(0), rec.payload)
	f.Add(n, rec.payload[:len(rec.payload)-1])
	f.Add(n, rec.payload[:4+2*trackerEntrySize+12])
	f.Add(n, []byte{})
	f.Fuzz(func(t *testing.T, clockLen uint8, payload []byte) {
		r := recoverableBackend(t, nil)
		if err := r.RestoreCheckpoint(make([]int64, clockLen), payload); err != nil {
			if !errors.Is(err, ErrChunkFormat) {
				t.Fatalf("unexpected error %v", err)
			}
			return
		}
		r.FinishRestore()
	})
}

// TestJournalErrorLatched: a failing journal surfaces through JournalErr and
// Checkpoint, and does not panic the trigger path.
func TestJournalErrorLatched(t *testing.T) {
	j := &memJournal{fail: errors.New("disk gone")}
	b := recoverableBackend(t, j)
	ts := b.Thread(0)
	if err := ts.UpdateAgg(0, &stream.Record{Key: 1, Time: 900, V0: 1}); err != nil {
		t.Fatal(err)
	}
	if err := ts.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Checkpoint(); err == nil {
		t.Fatal("Checkpoint swallowed the journal error")
	}
	if b.JournalErr() == nil {
		t.Fatal("journal error not latched")
	}
}

// TestFlushRetryResends: a flush that fails mid-transfer retries with the
// same epoch and a bumped incarnation, and the receiving leader merges the
// epoch exactly once.
func TestFlushRetryResends(t *testing.T) {
	n := 2
	backends := make([]*Backend, n)
	senders := make([][]Sender, n)
	for i := range senders {
		senders[i] = make([]Sender, n)
	}
	for i := 0; i < n; i++ {
		var err error
		backends[i], err = New(Config{
			Node: i, Nodes: n, ThreadsPerNode: 1,
			Agg: crdt.Sum{}, WindowEnd: fixedWindowEnd,
			ChunkSize: 64, Journal: &memJournal{},
		}, senders[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	flaky := &flakySender{dst: backends[1], failAfter: 2}
	senders[0][1] = flaky
	senders[1][0] = &directSender{dst: backends[0]}

	ts := backends[0].Thread(0)
	// Enough remote-partition keys that the compact delta splits into
	// several 64-byte chunks (varint entries run ~3 bytes each).
	var remote []uint64
	for k := uint64(0); len(remote) < 80; k++ {
		if p, _ := backends[0].Owner(0, k); p == 1 {
			remote = append(remote, k)
		}
	}
	for _, k := range remote {
		if err := ts.UpdateAgg(0, &stream.Record{Key: k, Time: 500, V0: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ts.Flush(); err == nil {
		t.Fatal("flush succeeded despite dead link")
	}
	if ts.Inc() != 0 || ts.Epoch() != 1 {
		t.Fatalf("after failed flush: inc=%d epoch=%d", ts.Inc(), ts.Epoch())
	}
	// The link heals; the retry re-sends the identical epoch.
	flaky.failAfter = -1
	if err := ts.Flush(); err != nil {
		t.Fatal(err)
	}
	if ts.Inc() != 1 || ts.Epoch() != 1 {
		t.Fatalf("after retry: inc=%d epoch=%d, want 1/1", ts.Inc(), ts.Epoch())
	}
	for _, k := range remote {
		if got := sumAt(t, backends[1], 0, k); got != 1 {
			t.Fatalf("key %d merged %d times, want exactly 1", k, got)
		}
	}
	if backends[1].ChunksDeduped() == 0 {
		t.Fatal("retry prefix not deduplicated")
	}
}

// flakySender delivers the first failAfter chunks then fails until healed
// (failAfter < 0 delivers everything).
type flakySender struct {
	dst       *Backend
	sent      int
	failAfter int
}

func (s *flakySender) Send(c *Chunk) error {
	if s.failAfter >= 0 && s.sent >= s.failAfter {
		return errors.New("link down")
	}
	s.sent++
	cc := *c
	cc.Payload = append([]byte(nil), c.Payload...)
	return s.dst.HandleChunk(&cc)
}

// flatCheckpoint is the reference encoder of a checkpoint payload: the
// tracker header as the backend holds it, then the staged events of one
// flat log — the layout every record has, however the log is staged.
func flatCheckpoint(b *Backend, events []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(b.tracker.threads)))
	for _, t := range b.tracker.threads {
		out = binary.LittleEndian.AppendUint64(out, t.committed)
		out = binary.LittleEndian.AppendUint64(out, t.cur)
		out = binary.LittleEndian.AppendUint32(out, t.count)
		out = append(out, t.inc)
	}
	return append(out, events...)
}

// flatEvent appends one staged delta event to a flat log.
func flatEvent(log []byte, win uint64, payload []byte) []byte {
	log = binary.LittleEndian.AppendUint64(log, win)
	log = binary.LittleEndian.AppendUint32(log, uint32(len(payload)))
	return append(log, payload...)
}

// checkCkptLog requires the pending log to hold exactly the flat events, in
// exactly the segments its bytes occupy.
func checkCkptLog(t *testing.T, what string, b *Backend, events []byte) {
	t.Helper()
	l := &b.ckptLog
	if want := (len(events) + bagSegBytes - 1) / bagSegBytes; l.n != len(events) || len(l.segs) != want {
		t.Fatalf("%s: log of %d bytes in %d segments, want %d bytes in %d", what, l.n, len(l.segs), len(events), want)
	}
	var got []byte
	for _, span := range l.appendSpans(nil) {
		got = append(got, span...)
	}
	if !bytes.Equal(got, events) {
		t.Fatalf("%s: staged log differs from the flat events", what)
	}
}

// checkSegmentOwners requires that no segment is held twice by the tables
// and pending logs of the backends, and that none they hold is also on the
// free list.
func checkSegmentOwners(t *testing.T, what string, bs ...*Backend) {
	t.Helper()
	owner := map[*bagSeg]string{}
	own := func(who string, segs []*bagSeg) {
		for _, seg := range segs {
			if prev, dup := owner[seg]; dup {
				t.Fatalf("%s: segment %p belongs to %s and %s", what, seg, prev, who)
			}
			owner[seg] = who
		}
	}
	for i, b := range bs {
		b.mu.Lock()
		own(fmt.Sprintf("backend %d checkpoint log", i), b.ckptLog.segs)
		for win, tbl := range b.primary {
			own(fmt.Sprintf("backend %d window %d", i, win), tbl.bag.segs)
		}
		for j, tbl := range b.tablePool {
			own(fmt.Sprintf("backend %d pool %d", i, j), tbl.bag.segs)
		}
		b.mu.Unlock()
	}
	freeSegs.mu.Lock()
	defer freeSegs.mu.Unlock()
	for _, seg := range freeSegs.segs {
		if who, live := owner[seg]; live {
			t.Fatalf("%s: segment %p belongs to %s and is on the free list", what, seg, who)
		}
	}
}

// TestCheckpointLogSegments stages bag deltas in a journaled leader's
// pending log — events that cross segment ends and one larger than a whole
// segment — and requires every record to carry the bytes the flat reference
// encoder gives, a periodic checkpoint with nothing staged to carry the
// tracker header alone, and the segments to go back to the free list after
// each record, never to be held twice, through a record, a restore and a
// drop.
func TestCheckpointLogSegments(t *testing.T) {
	j := &memJournal{}
	b, err := New(Config{
		Node: 0, Nodes: 1, ThreadsPerNode: 2,
		WindowEnd: fixedWindowEnd, Journal: j,
	}, make([]Sender, 1))
	if err != nil {
		t.Fatal(err)
	}
	chunk := func(win, epoch uint64, entries int) *Chunk {
		elems := make([]crdt.BagElem, entries)
		for i := range elems {
			elems[i] = crdt.BagElem{Time: int64(i), Val: int64(win), Side: uint8(i % 2)}
		}
		return &Chunk{
			Window: win, Epoch: epoch, Watermark: stream.NoWatermark, Thread: 1,
			Partition: 0, Kind: ChunkData, Payload: bagRegion(t, win*100+uint64(entries), elems...),
		}
	}
	var events []byte
	stage := func(c *Chunk) {
		t.Helper()
		if err := b.HandleChunk(c); err != nil {
			t.Fatal(err)
		}
		events = flatEvent(events, c.Window, c.Payload)
		checkCkptLog(t, fmt.Sprintf("after a %d-byte delta", len(c.Payload)), b, events)
		checkSegmentOwners(t, "staging", b)
	}
	record := func(what string) {
		t.Helper()
		want := flatCheckpoint(b, events)
		n := len(j.recs)
		if _, err := b.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if len(j.recs) != n+1 || !bytes.Equal(j.recs[n].payload, want) {
			t.Fatalf("%s: record does not match the flat reference encoder", what)
		}
		events = nil
		checkCkptLog(t, what, b, nil)
		checkSegmentOwners(t, what, b)
	}

	// 1,300 entries (52 KB) fill most of the first segment; the next delta
	// crosses its end, and so do the event headers of the small ones after.
	stage(chunk(0, 1, 1300))
	stage(chunk(1, 1, 700))
	for i := 0; i < 40; i++ {
		stage(chunk(uint64(i%3), 1, 1+i*7))
	}
	record("record of segment-crossing deltas")
	// One delta larger than a whole segment, landing mid-segment.
	stage(chunk(2, 2, 11))
	stage(chunk(1, 2, 2*bagSegEntries+17))
	record("record of a delta larger than a segment")
	// Nothing staged: the periodic record is the tracker header alone.
	record("header-only record")
	if got, want := len(j.recs[len(j.recs)-1].payload), 4+2*trackerEntrySize; got != want {
		t.Fatalf("header-only record of %d bytes, want %d", got, want)
	}

	// Replay the journal into a fresh leader: its tables take segments of
	// their own, and it holds the same windows byte for byte.
	r, err := New(Config{
		Node: 0, Nodes: 1, ThreadsPerNode: 2,
		WindowEnd: fixedWindowEnd, Journal: &memJournal{},
	}, make([]Sender, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range j.recs {
		if err := r.RestoreCheckpoint(rec.clock, rec.payload); err != nil {
			t.Fatal(err)
		}
	}
	for win, tbl := range b.primary {
		if !bytes.Equal(logBytes(r.primary[win]), logBytes(tbl)) {
			t.Fatalf("restored window %d differs", win)
		}
	}
	checkSegmentOwners(t, "restore", b, r)

	// A discarded leader's staged log goes back to the free list unwritten.
	stage(chunk(0, 3, bagSegEntries+5))
	stage(chunk(2, 3, 9))
	n := len(j.recs)
	b.DropCheckpointLog()
	if len(j.recs) != n {
		t.Fatal("dropping the log journaled a record")
	}
	checkCkptLog(t, "drop", b, nil)
	checkSegmentOwners(t, "drop", b, r)
}
