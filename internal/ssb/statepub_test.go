package ssb

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/stream"
)

// recPublisher records every publication the backend emits, copying the
// snapshot (the contract: Log aliases merge memory and is only valid during
// the call).
type recPublisher struct {
	snaps []StateSnapshot
}

func (p *recPublisher) PublishState(s *StateSnapshot) {
	c := *s
	var flat []byte
	for _, r := range s.Log {
		flat = append(flat, r...)
	}
	c.Log = [][]byte{flat}
	p.snaps = append(p.snaps, c)
}

// pubBackend builds a two-thread leader (see newLeader) with a recPublisher
// attached.
func pubBackend(t *testing.T, minDelta int, j Journal) (*Backend, *recPublisher) {
	t.Helper()
	b := newLeader(t, 2, j)
	p := &recPublisher{}
	b.SetStatePublisher(p, minDelta)
	return b, p
}

func pubChunk(t *testing.T, win, epoch uint64, thread int, key uint64, v int64) *Chunk {
	t.Helper()
	return &Chunk{
		Window: win, Epoch: epoch, Watermark: stream.NoWatermark,
		Thread: thread, Partition: 0, Kind: ChunkData,
		Payload: deltaPayload(t, key, v),
	}
}

// TestStatePublishDirtyAndSeal drives the publication hooks end to end:
// merged deltas mark windows dirty, PublishDirty publishes them live with
// the byte threshold throttling republication, and TriggerReady publishes a
// final sealed snapshot whose log decodes to the merged state.
func TestStatePublishDirtyAndSeal(t *testing.T) {
	b, p := pubBackend(t, 1, nil)

	if err := b.HandleChunk(pubChunk(t, 0, 1, 0, 7, 5)); err != nil {
		t.Fatal(err)
	}
	b.PublishDirty()
	if len(p.snaps) != 1 {
		t.Fatalf("publications after first merge: %d, want 1", len(p.snaps))
	}
	s := p.snaps[0]
	if s.Window != 0 || s.Sealed || s.AggKind != StateAggSum || s.Stride != 24 {
		t.Fatalf("live snapshot %+v", s)
	}
	if key := binary.LittleEndian.Uint64(s.Log[0][0:]); key != 7 {
		t.Fatalf("log key = %d, want 7", key)
	}
	if v := binary.LittleEndian.Uint64(s.Log[0][16:]); v != 5 {
		t.Fatalf("log state = %d, want 5", v)
	}

	// Nothing new merged: PublishDirty is a no-op.
	b.PublishDirty()
	if len(p.snaps) != 1 {
		t.Fatalf("republication with no dirty bytes: %d snaps", len(p.snaps))
	}

	// Seal: both threads pass the window end; the trigger publishes the
	// final sealed snapshot before recycling the table.
	if err := b.HandleChunk(pubChunk(t, 0, 2, 0, 7, 2)); err != nil {
		t.Fatal(err)
	}
	for th := 0; th < 2; th++ {
		if err := b.HandleChunk(&Chunk{
			Epoch: 3, Watermark: 10_000, Thread: th, Partition: 0, Kind: ChunkHeartbeat,
		}); err != nil {
			t.Fatal(err)
		}
	}
	var got []int64
	n := b.TriggerReady(func(win, key uint64, v int64) { got = append(got, v) }, nil)
	if n != 1 || len(got) != 1 || got[0] != 7 {
		t.Fatalf("trigger fired %d windows, emitted %v; want one window, sum 7", n, got)
	}
	last := p.snaps[len(p.snaps)-1]
	if !last.Sealed || last.Window != 0 {
		t.Fatalf("last publication not the sealed window 0: %+v", last)
	}
	if v := binary.LittleEndian.Uint64(last.Log[0][16:]); v != 7 {
		t.Fatalf("sealed log state = %d, want 7", v)
	}

	// The sealed window left the dirty tracking; PublishDirty stays quiet.
	count := len(p.snaps)
	b.PublishDirty()
	if len(p.snaps) != count {
		t.Fatal("PublishDirty republished a sealed window")
	}
}

// TestStatePublishThrottle checks the minDeltaBytes throttle: below the
// threshold a window republishes only on its first PublishDirty; crossing it
// republishes again.
func TestStatePublishThrottle(t *testing.T) {
	b, p := pubBackend(t, 1<<20, nil) // 1 MiB threshold
	if err := b.HandleChunk(pubChunk(t, 0, 1, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	b.PublishDirty()
	if len(p.snaps) != 1 {
		t.Fatalf("first publish: %d snaps, want 1 (first publication bypasses the throttle)", len(p.snaps))
	}
	if err := b.HandleChunk(pubChunk(t, 0, 2, 0, 2, 1)); err != nil {
		t.Fatal(err)
	}
	b.PublishDirty()
	if len(p.snaps) != 1 {
		t.Fatalf("sub-threshold republish happened: %d snaps", len(p.snaps))
	}
}

// TestStateSnapshotEpoch: a live snapshot's Epoch is the highest sender
// epoch merged so far, on a strict leader and on a journaled one alike.
func TestStateSnapshotEpoch(t *testing.T) {
	leaderModes(t, func(t *testing.T, j Journal) {
		b, p := pubBackend(t, 0, j)
		for epoch := uint64(1); epoch <= 3; epoch++ {
			if err := b.HandleChunk(pubChunk(t, 0, epoch, 0, 7, 1)); err != nil {
				t.Fatal(err)
			}
			b.PublishDirty()
		}
		var got []uint64
		for _, s := range p.snaps {
			got = append(got, s.Epoch)
		}
		if !slices.Equal(got, []uint64{1, 2, 3}) {
			t.Fatalf("published epochs %v, want [1 2 3]", got)
		}
	})
}

// TestStatePublishOrder drives one leader from a single goroutine through
// merges into many windows, live publications and a trigger, twice: both
// runs must publish the same (window, sealed) sequence, live windows in
// ascending window order.
func TestStatePublishOrder(t *testing.T) {
	const windows = 24
	run := func() []string {
		b, p := pubBackend(t, 0, nil)
		var seq []string
		publish := func() {
			from := len(p.snaps)
			b.PublishDirty()
			for i := from + 1; i < len(p.snaps); i++ {
				if p.snaps[i].Window <= p.snaps[i-1].Window {
					t.Fatalf("live windows published out of order: %d after %d", p.snaps[i].Window, p.snaps[i-1].Window)
				}
			}
		}
		for epoch := uint64(1); epoch <= 2; epoch++ {
			for i := uint64(0); i < windows; i++ {
				win := i * 7 % windows // scattered arrival order
				if err := b.HandleChunk(pubChunk(t, win, epoch, 0, win, 1)); err != nil {
					t.Fatal(err)
				}
			}
			publish()
		}
		// Both threads pass the first half of the windows: they seal.
		for th := 0; th < 2; th++ {
			if err := b.HandleChunk(&Chunk{Epoch: 3, Watermark: fixedWindowEnd(windows/2 - 1), Thread: th, Kind: ChunkHeartbeat}); err != nil {
				t.Fatal(err)
			}
		}
		if n := b.TriggerReady(nil, nil); n != windows/2 {
			t.Fatalf("fired %d windows, want %d", n, windows/2)
		}
		for win := uint64(windows / 2); win < windows; win++ {
			if err := b.HandleChunk(pubChunk(t, win, 4, 0, win, 1)); err != nil {
				t.Fatal(err)
			}
		}
		publish()
		for _, s := range p.snaps {
			seq = append(seq, fmt.Sprintf("%d/%t", s.Window, s.Sealed))
		}
		return seq
	}
	first, second := run(), run()
	if !slices.Equal(first, second) {
		t.Fatalf("two runs published\n%v\n%v", first, second)
	}
}

// TestStatePublisherDisarmed asserts the hooks cost nothing when no
// publisher is attached.
func TestStatePublisherDisarmed(t *testing.T) {
	b, err := New(Config{
		Node: 0, Nodes: 1, ThreadsPerNode: 1,
		Agg: crdt.Sum{}, WindowEnd: fixedWindowEnd,
	}, make([]Sender, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.HandleChunk(pubChunk(t, 0, 1, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	b.PublishDirty() // must not panic with nil maps
	if b.stateDirty != nil {
		t.Fatal("dirty tracking allocated without a publisher")
	}
}
