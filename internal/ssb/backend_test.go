package ssb

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/stream"
)

// directSender delivers chunks straight into the destination backend,
// copying the payload like a real transport would serialize it.
type directSender struct{ dst *Backend }

func (s *directSender) Send(c *Chunk) error {
	cc := *c
	cc.Payload = append([]byte(nil), c.Payload...)
	return s.dst.HandleChunk(&cc)
}

// cluster wires n backends with direct senders.
func newCluster(t testing.TB, n, threads int, agg crdt.Aggregate, winEnd func(uint64) stream.Watermark) []*Backend {
	t.Helper()
	backends := make([]*Backend, n)
	senders := make([][]Sender, n)
	for i := range senders {
		senders[i] = make([]Sender, n)
	}
	for i := 0; i < n; i++ {
		var err error
		backends[i], err = New(Config{
			Node:           i,
			Nodes:          n,
			ThreadsPerNode: threads,
			Agg:            agg,
			WindowEnd:      winEnd,
			EpochBytes:     1 << 10,
		}, senders[i])
		if err != nil {
			t.Fatalf("New backend %d: %v", i, err)
		}
	}
	// Patch senders now that all backends exist.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				senders[i][j] = &directSender{dst: backends[j]}
			}
		}
	}
	return backends
}

func fixedWindowEnd(win uint64) stream.Watermark { return stream.Watermark(win+1) * 1000 }

func TestChunkEncodeDecode(t *testing.T) {
	prop := func(win, epoch, gen uint64, wm int64, thread, part uint16, payload []byte) bool {
		in := Chunk{
			Window: win, Epoch: epoch, Watermark: wm, Gen: gen,
			Thread: int(thread), Partition: int(part),
			Kind: ChunkData, Payload: payload,
		}
		buf := make([]byte, in.EncodedSize())
		if in.Encode(buf) != len(buf) {
			return false
		}
		out, err := DecodeChunk(buf)
		if err != nil {
			return false
		}
		if out.Window != in.Window || out.Epoch != in.Epoch || out.Watermark != in.Watermark ||
			out.Gen != in.Gen || out.Thread != in.Thread || out.Partition != in.Partition ||
			out.Kind != in.Kind {
			return false
		}
		if len(out.Payload) != len(in.Payload) {
			return false
		}
		for i := range out.Payload {
			if out.Payload[i] != in.Payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeChunkErrors(t *testing.T) {
	if _, err := DecodeChunk(make([]byte, 5)); !errors.Is(err, ErrChunkFormat) {
		t.Fatalf("short chunk err = %v", err)
	}
	buf := make([]byte, ChunkHeaderSize)
	buf[40] = 99 // invalid kind
	if _, err := DecodeChunk(buf); !errors.Is(err, ErrChunkFormat) {
		t.Fatalf("bad kind err = %v", err)
	}
	buf[40] = byte(ChunkData)
	putU32(buf[44:], 100) // payload overflows
	if _, err := DecodeChunk(buf); !errors.Is(err, ErrChunkFormat) {
		t.Fatalf("overflow err = %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	we := fixedWindowEnd
	if _, err := New(Config{Node: 0, Nodes: 0, ThreadsPerNode: 1, WindowEnd: we}, nil); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := New(Config{Node: 2, Nodes: 2, ThreadsPerNode: 1, WindowEnd: we}, make([]Sender, 2)); err == nil {
		t.Fatal("node out of range accepted")
	}
	if _, err := New(Config{Node: 0, Nodes: 1, ThreadsPerNode: 0, WindowEnd: we}, make([]Sender, 1)); err == nil {
		t.Fatal("zero threads accepted")
	}
	if _, err := New(Config{Node: 0, Nodes: 1, ThreadsPerNode: 1}, make([]Sender, 1)); err == nil {
		t.Fatal("missing WindowEnd accepted")
	}
	if _, err := New(Config{Node: 0, Nodes: 2, ThreadsPerNode: 1, WindowEnd: we}, make([]Sender, 1)); err == nil {
		t.Fatal("wrong sender count accepted")
	}
}

func TestSingleNodeAggTrigger(t *testing.T) {
	bs := newCluster(t, 1, 1, crdt.Sum{}, fixedWindowEnd)
	ts := bs[0].Thread(0)
	for i := 0; i < 10; i++ {
		r := stream.Record{Key: uint64(i % 2), Time: int64(i * 10), V0: 1}
		if err := ts.UpdateAgg(0, &r); err != nil {
			t.Fatal(err)
		}
	}
	// Watermark (90) does not cover window end (1000): no trigger.
	if err := ts.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := bs[0].TriggerReady(nil, nil); n != 0 {
		t.Fatalf("premature trigger of %d windows", n)
	}
	if err := ts.FinishStream(); err != nil {
		t.Fatal(err)
	}
	got := map[uint64]int64{}
	n := bs[0].TriggerReady(func(win, key uint64, res int64) {
		if win != 0 {
			t.Fatalf("unexpected window %d", win)
		}
		got[key] = res
	}, nil)
	if n != 1 {
		t.Fatalf("triggered %d windows", n)
	}
	if got[0] != 5 || got[1] != 5 {
		t.Fatalf("results = %v", got)
	}
	if bs[0].PendingWindows() != 0 {
		t.Fatal("window not discarded after trigger")
	}
}

func TestTriggerWaitsForAllThreads(t *testing.T) {
	// P1: a window must not fire while any thread in the cluster may still
	// contribute records with smaller timestamps.
	bs := newCluster(t, 2, 2, crdt.Count{}, fixedWindowEnd)
	threads := []*ThreadState{
		bs[0].Thread(0), bs[0].Thread(1), bs[1].Thread(0), bs[1].Thread(1),
	}
	for _, ts := range threads[:3] {
		r := stream.Record{Key: 1, Time: 10}
		if err := ts.UpdateAgg(0, &r); err != nil {
			t.Fatal(err)
		}
		if err := ts.FinishStream(); err != nil {
			t.Fatal(err)
		}
	}
	// Thread 3 lags: nothing may trigger anywhere.
	for i, b := range bs {
		if n := b.TriggerReady(nil, nil); n != 0 {
			t.Fatalf("backend %d triggered with a lagging thread", i)
		}
	}
	if err := threads[3].FinishStream(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range bs {
		b.TriggerReady(func(_, _ uint64, res int64) { total += int(res) }, nil)
	}
	if total != 3 {
		t.Fatalf("total count = %d, want 3", total)
	}
}

func TestKeyRoutedToOneLeader(t *testing.T) {
	// The same key updated on every node must surface exactly once, at its
	// partition leader, with the globally merged value.
	const nodes = 4
	bs := newCluster(t, nodes, 1, crdt.Sum{}, fixedWindowEnd)
	const key = 1234567
	for _, b := range bs {
		ts := b.Thread(0)
		r := stream.Record{Key: key, Time: 5, V0: 10}
		if err := ts.UpdateAgg(0, &r); err != nil {
			t.Fatal(err)
		}
		if err := ts.FinishStream(); err != nil {
			t.Fatal(err)
		}
	}
	leader := bs[0].Partition(key)
	emitted := 0
	for i, b := range bs {
		b.TriggerReady(func(_, k uint64, res int64) {
			emitted++
			if i != leader {
				t.Fatalf("key emitted at node %d, leader is %d", i, leader)
			}
			if k != key || res != 10*nodes {
				t.Fatalf("emitted k=%d res=%d", k, res)
			}
		}, nil)
	}
	if emitted != 1 {
		t.Fatalf("key emitted %d times", emitted)
	}
}

func TestDistributedSumMatchesOracle(t *testing.T) {
	// P2: distributed execution with random routing of records to threads
	// equals a sequential fold.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := 1 + rng.Intn(4)
		threadsPer := 1 + rng.Intn(2)
		bs := newCluster(t, nodes, threadsPer, crdt.Sum{}, fixedWindowEnd)
		var threads []*ThreadState
		for _, b := range bs {
			for i := 0; i < threadsPer; i++ {
				threads = append(threads, b.Thread(i))
			}
		}
		oracle := map[uint64]map[uint64]int64{} // win -> key -> sum
		n := rng.Intn(2000)
		for i := 0; i < n; i++ {
			win := uint64(rng.Intn(3))
			r := stream.Record{
				Key:  uint64(rng.Intn(50)),
				Time: int64(rng.Intn(1000)) + int64(win)*1000,
				V0:   rng.Int63n(100) - 50,
			}
			ts := threads[rng.Intn(len(threads))]
			if err := ts.UpdateAgg(win, &r); err != nil {
				return false
			}
			// Random mid-stream epoch flushes.
			if rng.Intn(100) == 0 {
				if err := ts.Flush(); err != nil {
					return false
				}
			}
			if oracle[win] == nil {
				oracle[win] = map[uint64]int64{}
			}
			oracle[win][r.Key] += r.V0
		}
		for _, ts := range threads {
			if err := ts.FinishStream(); err != nil {
				return false
			}
		}
		got := map[uint64]map[uint64]int64{}
		for _, b := range bs {
			b.TriggerReady(func(win, key uint64, res int64) {
				if got[win] == nil {
					got[win] = map[uint64]int64{}
				}
				if _, dup := got[win][key]; dup {
					t.Errorf("duplicate emission win=%d key=%d", win, key)
				}
				got[win][key] = res
			}, nil)
		}
		if len(got) != len(oracle) {
			return false
		}
		for win, keys := range oracle {
			if len(got[win]) != len(keys) {
				return false
			}
			for k, v := range keys {
				if got[win][k] != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDistributedBagsMatchOracle(t *testing.T) {
	const nodes = 3
	bs := newCluster(t, nodes, 1, nil, fixedWindowEnd)
	rng := rand.New(rand.NewSource(11))
	oracle := map[uint64][]int64{} // key -> sorted vals
	var threads []*ThreadState
	for _, b := range bs {
		threads = append(threads, b.Thread(0))
	}
	for i := 0; i < 500; i++ {
		key := uint64(rng.Intn(10))
		e := crdt.BagElem{Time: int64(i), Val: rng.Int63n(1000), Side: uint8(i % 2)}
		ts := threads[rng.Intn(nodes)]
		if err := ts.AppendBag(0, key, &e); err != nil {
			t.Fatal(err)
		}
		oracle[key] = append(oracle[key], e.Val)
	}
	for _, ts := range threads {
		if err := ts.FinishStream(); err != nil {
			t.Fatal(err)
		}
	}
	got := map[uint64][]int64{}
	for _, b := range bs {
		b.TriggerReady(nil, func(win, key uint64, elems []crdt.BagElem) {
			for _, e := range elems {
				got[key] = append(got[key], e.Val)
			}
		})
	}
	if len(got) != len(oracle) {
		t.Fatalf("got %d keys, want %d", len(got), len(oracle))
	}
	for k, want := range oracle {
		g := got[k]
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(g) != len(want) {
			t.Fatalf("key %d: %d elems, want %d", k, len(g), len(want))
		}
		for i := range g {
			if g[i] != want[i] {
				t.Fatalf("key %d elem %d = %d, want %d", k, i, g[i], want[i])
			}
		}
	}
}

// TestEpochRegressionRejected: a regressed epoch is ErrStaleEpoch on a
// strict leader; a recoverable one takes it for replay and leaves its
// commit state as it was.
func TestEpochRegressionRejected(t *testing.T) {
	leaderModes(t, func(t *testing.T, j Journal) {
		b := newLeader(t, 1, j)
		c := &Chunk{Epoch: 5, Thread: 0, Kind: ChunkHeartbeat, Watermark: 1}
		if err := b.HandleChunk(c); err != nil {
			t.Fatal(err)
		}
		c.Epoch = 3
		err := b.HandleChunk(c)
		if j == nil {
			if !errors.Is(err, ErrStaleEpoch) {
				t.Fatalf("err = %v, want ErrStaleEpoch", err)
			}
			return
		}
		if got := b.CommittedEpochs(); err != nil || got[0] != 5 {
			t.Fatalf("err = %v, committed %v; want nil and [5]", err, got)
		}
	})
}

// TestLateChunkRejected: a data chunk for a triggered window is ErrLateChunk
// on a strict leader and a counted drop on a recoverable one.
func TestLateChunkRejected(t *testing.T) {
	leaderModes(t, func(t *testing.T, j Journal) {
		b := newLeader(t, 1, j)
		ts := b.Thread(0)
		r := stream.Record{Key: 1, Time: 10, V0: 1}
		_ = ts.UpdateAgg(0, &r)
		_ = ts.FinishStream()
		if n := b.TriggerReady(nil, nil); n != 1 {
			t.Fatalf("triggered %d", n)
		}
		// A data chunk for the triggered window violates the protocol.
		tbl := NewAggTable(crdt.Sum{})
		_ = tbl.UpdateAgg(&r)
		var payload []byte
		_ = tbl.SerializeDelta(1024, func(region []byte) error {
			payload = append([]byte(nil), region...)
			return nil
		})
		late := &Chunk{Window: 0, Epoch: 99, Thread: 0, Partition: 0, Kind: ChunkData, Watermark: math.MaxInt64, Payload: payload}
		err := b.HandleChunk(late)
		if j == nil {
			if !errors.Is(err, ErrLateChunk) {
				t.Fatalf("err = %v, want ErrLateChunk", err)
			}
			return
		}
		if err != nil || b.ChunksDeduped() != 1 {
			t.Fatalf("err = %v, %d deduped; want nil and 1", err, b.ChunksDeduped())
		}
	})
}

func TestWrongLeaderRejected(t *testing.T) {
	bs := newCluster(t, 2, 1, crdt.Sum{}, fixedWindowEnd)
	c := &Chunk{Window: 0, Epoch: 1, Thread: 0, Partition: 1, Kind: ChunkData}
	if err := bs[0].HandleChunk(c); !errors.Is(err, ErrBadDestination) {
		t.Fatalf("err = %v, want ErrBadDestination", err)
	}
}

func TestIngestEpochBoundary(t *testing.T) {
	bs := newCluster(t, 1, 1, crdt.Sum{}, fixedWindowEnd)
	ts := bs[0].Thread(0)
	if ts.Ingest(512) {
		t.Fatal("boundary reported early")
	}
	if !ts.Ingest(512) {
		t.Fatal("boundary missed at EpochBytes")
	}
	if err := ts.Flush(); err != nil {
		t.Fatal(err)
	}
	if ts.Ingest(100) {
		t.Fatal("counter not reset by Flush")
	}
}

func TestHelperFragmentsInvalidatedAfterFlush(t *testing.T) {
	bs := newCluster(t, 2, 1, crdt.Sum{}, fixedWindowEnd)
	ts := bs[0].Thread(0)
	r := stream.Record{Key: 42, Time: 1, V0: 7}
	_ = ts.UpdateAgg(0, &r)
	if ts.StateBytes() == 0 {
		t.Fatal("no state before flush")
	}
	if err := ts.Flush(); err != nil {
		t.Fatal(err)
	}
	if ts.StateBytes() != 0 {
		t.Fatal("fragments not invalidated after transfer")
	}
	st := ts.Stats()
	if st.Flushes != 1 || st.Updates != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
