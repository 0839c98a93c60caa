package ssb

import (
	"encoding/binary"
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

func pubBackend(t *testing.T, minDelta int) (*Backend, *recPublisher) {
	t.Helper()
	b, err := New(Config{
		Node: 0, Nodes: 1, ThreadsPerNode: 2,
		Agg: crdt.Sum{}, WindowEnd: fixedWindowEnd,
	}, make([]Sender, 1))
	if err != nil {
		t.Fatal(err)
	}
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
	b, p := pubBackend(t, 1)

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
	b, p := pubBackend(t, 1<<20) // 1 MiB threshold
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
