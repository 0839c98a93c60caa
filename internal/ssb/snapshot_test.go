package ssb

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/stream"
)

// buildLoadedBackend drives a 2-node cluster partway through a stream and
// returns one backend with pending leader state plus the threads to finish
// the stream with.
func buildLoadedBackend(t *testing.T, agg crdt.Aggregate) ([]*Backend, []*ThreadState) {
	t.Helper()
	bs := newCluster(t, 2, 1, agg, fixedWindowEnd)
	threads := []*ThreadState{bs[0].Thread(0), bs[1].Thread(0)}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 600; i++ {
		win := uint64(i / 200)
		r := stream.Record{
			Key:  uint64(rng.Intn(40)),
			Time: int64(i) * 5,
			V0:   rng.Int63n(50),
		}
		ts := threads[i%2]
		var err error
		if agg != nil {
			err = ts.UpdateAgg(win, &r)
		} else {
			e := crdt.BagElem{Time: r.Time, Val: r.V0, Side: uint8(i % 2)}
			err = ts.AppendBag(win, r.Key, &e)
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%150 == 149 {
			if err := ts.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, ts := range threads {
		if err := ts.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return bs, threads
}

func collectAgg(b *Backend) map[[2]uint64]int64 {
	out := map[[2]uint64]int64{}
	b.TriggerReady(func(win, key uint64, res int64) {
		out[[2]uint64{win, key}] = res
	}, nil)
	return out
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	bs, threads := buildLoadedBackend(t, crdt.Sum{})
	leader := bs[0]

	var buf bytes.Buffer
	if err := leader.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	// A fresh backend (a recovered node) restores the checkpoint.
	senders := make([]Sender, 2)
	restored, err := New(Config{
		Node: 0, Nodes: 2, ThreadsPerNode: 1,
		Agg: crdt.Sum{}, WindowEnd: fixedWindowEnd,
	}, senders)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if restored.PendingWindows() != leader.PendingWindows() {
		t.Fatalf("pending windows %d, want %d", restored.PendingWindows(), leader.PendingWindows())
	}

	// Both the original and the restored leader finish the stream
	// identically: feed the final heartbeats to both.
	for _, ts := range threads {
		_ = ts
	}
	final := &Chunk{Epoch: 99, Watermark: math.MaxInt64, Kind: ChunkHeartbeat}
	for gtid := 0; gtid < 2; gtid++ {
		final.Thread = gtid
		if err := leader.HandleChunk(final); err != nil {
			t.Fatal(err)
		}
		if err := restored.HandleChunk(final); err != nil {
			t.Fatal(err)
		}
	}
	got := collectAgg(restored)
	want := collectAgg(leader)
	if len(want) == 0 {
		t.Fatal("no rows from original leader")
	}
	if len(got) != len(want) {
		t.Fatalf("restored emitted %d rows, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("row %v: restored %d, want %d", k, got[k], v)
		}
	}
}

func TestSnapshotRestoreBags(t *testing.T) {
	bs, _ := buildLoadedBackend(t, nil)
	leader := bs[1]
	var buf bytes.Buffer
	if err := leader.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := New(Config{
		Node: 1, Nodes: 2, ThreadsPerNode: 1,
		WindowEnd: fixedWindowEnd,
	}, make([]Sender, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	final := &Chunk{Epoch: 99, Watermark: math.MaxInt64, Kind: ChunkHeartbeat}
	counts := func(b *Backend) map[[2]uint64][2]int {
		for gtid := 0; gtid < 2; gtid++ {
			final.Thread = gtid
			if err := b.HandleChunk(final); err != nil {
				t.Fatal(err)
			}
		}
		out := map[[2]uint64][2]int{}
		b.TriggerReady(nil, func(win, key uint64, elems []crdt.BagElem) {
			l, r := 0, 0
			for _, e := range elems {
				if e.Side == 0 {
					l++
				} else {
					r++
				}
			}
			out[[2]uint64{win, key}] = [2]int{l, r}
		})
		return out
	}
	want := counts(leader)
	got := counts(restored)
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("rows: got %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("bag %v: got %v, want %v", k, got[k], v)
		}
	}
}

func TestRestoreRejectsMismatch(t *testing.T) {
	bs, _ := buildLoadedBackend(t, crdt.Sum{})
	var buf bytes.Buffer
	if err := bs[0].Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Wrong node id.
	other, _ := New(Config{Node: 1, Nodes: 2, ThreadsPerNode: 1, Agg: crdt.Sum{}, WindowEnd: fixedWindowEnd}, make([]Sender, 2))
	if err := other.Restore(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("node mismatch err = %v", err)
	}
	// Wrong CRDT kind.
	holistic, _ := New(Config{Node: 0, Nodes: 2, ThreadsPerNode: 1, WindowEnd: fixedWindowEnd}, make([]Sender, 2))
	if err := holistic.Restore(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("kind mismatch err = %v", err)
	}
	// Corrupt stream.
	same, _ := New(Config{Node: 0, Nodes: 2, ThreadsPerNode: 1, Agg: crdt.Sum{}, WindowEnd: fixedWindowEnd}, make([]Sender, 2))
	if err := same.Restore(bytes.NewReader(buf.Bytes()[:16])); !errors.Is(err, ErrSnapshotFormat) {
		t.Fatalf("truncated err = %v", err)
	}
	bad := append([]byte(nil), buf.Bytes()...)
	bad[0] = 'X'
	if err := same.Restore(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotFormat) {
		t.Fatalf("bad magic err = %v", err)
	}
}

func TestSnapshotIsDeterministic(t *testing.T) {
	bs, _ := buildLoadedBackend(t, crdt.Sum{})
	var a, b bytes.Buffer
	if err := bs[0].Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := bs[0].Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two snapshots of the same state differ")
	}
}

// TestRestoreBagSegmentsAtomic restores a bag snapshot whose first window
// spans three segments. A copy cut off inside the third segment, and one
// whose third segment holds a malformed entry, are rejected, leave the
// backend's state as it was and hand every segment they took back to the
// free list; the whole snapshot restores to the same bytes.
func TestRestoreBagSegmentsAtomic(t *testing.T) {
	const big, small = 2*bagSegEntries + 700, 10
	loaded := func(wins map[uint64]int) *Backend {
		b := newCluster(t, 1, 1, nil, fixedWindowEnd)[0]
		ts := b.Thread(0)
		for win, n := range wins {
			for i := 0; i < n; i++ {
				e := crdt.BagElem{Time: int64(win)*1000 + int64(i%1000), Val: int64(i), Side: uint8(i & 1)}
				if err := ts.AppendBag(win, uint64(i%97), &e); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := ts.Flush(); err != nil {
			t.Fatal(err)
		}
		return b
	}
	snapshot := func(b *Backend) []byte {
		var buf bytes.Buffer
		if err := b.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	src := loaded(map[uint64]int{0: big, 1: small})
	full := snapshot(src)
	// Window 1's section (id, size, log) closes the snapshot; window 0's log
	// sits right before it.
	log0 := len(full) - 16 - small*bagEntrySize - big*bagEntrySize
	truncated := full[:log0+2*bagSegBytes+500]
	garbled := append([]byte(nil), full...)
	putU32(garbled[log0+(2*bagSegEntries+3)*bagEntrySize+12:], 8)

	target := loaded(map[uint64]int{5: 30})
	before := snapshot(target)
	for name, c := range map[string]struct {
		snap []byte
		want error
	}{
		"truncated": {truncated, ErrSnapshotFormat},
		"garbled":   {garbled, ErrChunkFormat},
	} {
		free := len(freeSegs.segs)
		if err := target.Restore(bytes.NewReader(c.snap)); !errors.Is(err, c.want) {
			t.Fatalf("%s: err = %v, want %v", name, err, c.want)
		}
		if got := snapshot(target); !bytes.Equal(got, before) {
			t.Fatalf("%s: a failed restore changed the backend", name)
		}
		if len(freeSegs.segs) < free {
			t.Fatalf("%s: the free list fell from %d to %d segments", name, free, len(freeSegs.segs))
		}
	}
	if err := target.Restore(bytes.NewReader(full)); err != nil {
		t.Fatal(err)
	}
	if len(target.primary) != 2 {
		t.Fatalf("restored %d windows, want 2", len(target.primary))
	}
	for win, tbl := range src.primary {
		if !bytes.Equal(logBytes(target.primary[win]), logBytes(tbl)) {
			t.Fatalf("window %d restored to different bytes", win)
		}
	}
	if n := len(target.primary[0].bag.segs); n != 3 {
		t.Fatalf("window 0 restored into %d segments, want 3", n)
	}
	fresh := newCluster(t, 1, 1, nil, fixedWindowEnd)[0]
	if err := fresh.Restore(bytes.NewReader(full)); err != nil {
		t.Fatal(err)
	}
	if got := snapshot(fresh); !bytes.Equal(got, full) {
		t.Fatal("a restored backend snapshots to different bytes")
	}
}
