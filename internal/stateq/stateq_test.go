package stateq

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/slash-stream/slash/internal/rdma"
	"github.com/slash-stream/slash/internal/ssb"
)

// mkLog builds a snapshot payload in the ssb table-log entry format: a
// 16-byte header (key u64, prev i32, vlen u32) followed by vlen state bytes
// per entry. state8 entries carry one u64 state word (count/sum/min/max).
func mkLog(entries map[uint64]uint64) []byte {
	var out []byte
	for k, v := range entries {
		var e [24]byte
		binary.LittleEndian.PutUint64(e[0:], k)
		binary.LittleEndian.PutUint32(e[8:], ^uint32(0)) // prev = -1
		binary.LittleEndian.PutUint32(e[12:], 8)
		binary.LittleEndian.PutUint64(e[16:], v)
		out = append(out, e[:]...)
	}
	return out
}

// mkAvgLog builds entries with the 16-byte avg state {sum, count}.
func mkAvgLog(entries map[uint64][2]uint64) []byte {
	var out []byte
	for k, sc := range entries {
		var e [32]byte
		binary.LittleEndian.PutUint64(e[0:], k)
		binary.LittleEndian.PutUint32(e[8:], ^uint32(0))
		binary.LittleEndian.PutUint32(e[12:], 16)
		binary.LittleEndian.PutUint64(e[16:], sc[0])
		binary.LittleEndian.PutUint64(e[24:], sc[1])
		out = append(out, e[:]...)
	}
	return out
}

// testPlane brings up a registry over a fresh fabric with one publisher per
// node.
func testPlane(t testing.TB, nodes int, opts Options) (*Registry, []*Publisher) {
	t.Helper()
	fab := rdma.NewFabric(rdma.Config{})
	reg := NewRegistry(fab, ssb.StaticPartitionMap(nodes))
	pubs := make([]*Publisher, nodes)
	for n := 0; n < nodes; n++ {
		nic, err := fab.NewNIC(fmt.Sprintf("node%d", n))
		if err != nil {
			t.Fatalf("NewNIC: %v", err)
		}
		p, err := NewPublisher(nic, n, 0, opts)
		if err != nil {
			t.Fatalf("NewPublisher: %v", err)
		}
		reg.Install(p)
		pubs[n] = p
	}
	return reg, pubs
}

func snap(win uint64, kind uint8, log []byte, sealed bool) *ssb.StateSnapshot {
	return &ssb.StateSnapshot{Window: win, AggKind: kind, Sealed: sealed, Log: [][]byte{log}, Keys: len(log) / 24}
}

func TestLookupScanTopK(t *testing.T) {
	const nodes = 2
	reg, pubs := testPlane(t, nodes, Options{})

	// Partition keys 0..63 of window 100 by owner, as the merge path would.
	perNode := make([]map[uint64]uint64, nodes)
	for n := range perNode {
		perNode[n] = map[uint64]uint64{}
	}
	want := map[uint64]uint64{}
	for k := uint64(0); k < 64; k++ {
		owner, _ := reg.Map().Owner(100, k)
		perNode[owner][k] = k * 3
		want[k] = k * 3
	}
	for n, p := range pubs {
		p.PublishState(snap(100, ssb.StateAggCount, mkLog(perNode[n]), true))
	}

	cl, err := NewClient(reg, "t")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer cl.Close()

	for _, k := range []uint64{0, 17, 63} {
		v, err := cl.Lookup(100, k)
		if err != nil {
			t.Fatalf("Lookup(%d): %v", k, err)
		}
		if uint64(v) != want[k] {
			t.Fatalf("Lookup(%d) = %d, want %d", k, v, want[k])
		}
	}
	if _, err := cl.Lookup(100, 9999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Lookup(missing) err = %v, want ErrNotFound", err)
	}
	if _, err := cl.Lookup(55, 1); !errors.Is(err, ErrUnavailable) && !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("Lookup(missing window) err = %v", err)
	}

	got, err := cl.Scan(100)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("Scan returned %d entries, want %d", len(got), len(want))
	}
	for i, e := range got {
		if i > 0 && got[i-1].Key >= e.Key {
			t.Fatalf("Scan not sorted at %d", i)
		}
		if uint64(e.Value) != want[e.Key] {
			t.Fatalf("Scan key %d = %d, want %d", e.Key, e.Value, want[e.Key])
		}
	}

	top, err := cl.TopK(100, 3)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	if len(top) != 3 || top[0].Key != 63 || top[1].Key != 62 || top[2].Key != 61 {
		t.Fatalf("TopK = %+v", top)
	}

	entries, hits, err := cl.ScanSealed(100)
	if err != nil || hits != nodes || len(entries) != len(want) {
		t.Fatalf("ScanSealed = %d entries, %d hits, %v", len(entries), hits, err)
	}

	if cl.Reads() == 0 {
		t.Fatal("client issued no one-sided READs")
	}
}

func TestAvgFinalization(t *testing.T) {
	reg, pubs := testPlane(t, 1, Options{})
	pubs[0].PublishState(snap(7, ssb.StateAggAvg, mkAvgLog(map[uint64][2]uint64{
		1: {100, 8}, // avg 12 (integer division)
		2: {5, 0},   // count 0 -> 0, matching the trigger emit path
	}), true))
	cl, err := NewClient(reg, "t")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer cl.Close()
	if v, err := cl.Lookup(7, 1); err != nil || v != 12 {
		t.Fatalf("avg Lookup(1) = %d, %v; want 12", v, err)
	}
	if v, err := cl.Lookup(7, 2); err != nil || v != 0 {
		t.Fatalf("avg Lookup(2) = %d, %v; want 0", v, err)
	}
}

func TestHolisticRejected(t *testing.T) {
	reg, pubs := testPlane(t, 1, Options{})
	s := snap(3, ssb.StateAggGeneric, mkLog(map[uint64]uint64{1: 1}), true)
	s.Holistic = true
	pubs[0].PublishState(s)
	cl, err := NewClient(reg, "t")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer cl.Close()
	if _, err := cl.Scan(3); !errors.Is(err, ErrHolistic) {
		t.Fatalf("Scan(holistic) err = %v, want ErrHolistic", err)
	}
}

func TestWindowsAndEviction(t *testing.T) {
	reg, pubs := testPlane(t, 1, Options{Slots: 4})
	p := pubs[0]
	// 6 sealed windows through 4 slots: the two oldest evict.
	for w := uint64(1); w <= 6; w++ {
		p.PublishState(snap(w, ssb.StateAggSum, mkLog(map[uint64]uint64{w: w}), true))
	}
	cl, err := NewClient(reg, "t")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer cl.Close()
	wins, err := cl.Windows()
	if err != nil {
		t.Fatalf("Windows: %v", err)
	}
	if len(wins) != 4 {
		t.Fatalf("Windows returned %d slots, want 4", len(wins))
	}
	got := map[uint64]bool{}
	for _, w := range wins {
		if !w.Sealed {
			t.Fatalf("window %d not sealed", w.Window)
		}
		got[w.Window] = true
	}
	for w := uint64(3); w <= 6; w++ {
		if !got[w] {
			t.Fatalf("window %d missing after eviction, have %v", w, got)
		}
	}
	if _, err := cl.Scan(1); !errors.Is(err, ErrNoSnapshot) && !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Scan(evicted) err = %v", err)
	}
}

func TestFence(t *testing.T) {
	reg, pubs := testPlane(t, 1, Options{})
	pubs[0].PublishState(snap(5, ssb.StateAggCount, mkLog(map[uint64]uint64{1: 2}), true))
	cl, err := NewClient(reg, "t")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer cl.Close()
	if _, err := cl.Lookup(5, 1); err != nil {
		t.Fatalf("pre-fence Lookup: %v", err)
	}
	// Fence the publisher but leave it installed: reads now hit deregistered
	// regions, and the client must drop the connection, redial, and report
	// exhaustion rather than validating anything.
	pubs[0].Fence()
	if _, err := cl.Lookup(5, 1); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Lookup against fenced-but-installed err = %v, want ErrUnavailable", err)
	}
	if _, err := cl.Windows(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Windows against fenced-but-installed err = %v, want ErrUnavailable", err)
	}
	reg.Fence(0)
	if _, err := cl.Lookup(5, 1); !errors.Is(err, ErrNoEndpoint) && !errors.Is(err, ErrUnavailable) {
		t.Fatalf("post-fence Lookup err = %v", err)
	}
	pubs[0].Fence() // idempotent
}

// TestPartialPlane drives a 2-node partition map with only node 0
// publishing: routed lookups to the missing node fail typed, while scans
// and listings serve what exists.
func TestPartialPlane(t *testing.T) {
	fab := rdma.NewFabric(rdma.Config{})
	pm := ssb.StaticPartitionMap(2)
	reg := NewRegistry(fab, pm)
	nic, err := fab.NewNIC("node0")
	if err != nil {
		t.Fatalf("NewNIC: %v", err)
	}
	p, err := NewPublisher(nic, 0, 0, Options{})
	if err != nil {
		t.Fatalf("NewPublisher: %v", err)
	}
	reg.Install(p)

	// Find one key node 0 owns and one node 1 owns.
	var k0, k1 uint64
	found := 0
	for k := uint64(0); found < 2; k++ {
		if n, _ := pm.Owner(6, k); n == 0 && k0 == 0 && k != 0 {
			k0, found = k, found+1
		} else if n == 1 && k1 == 0 {
			k1, found = k, found+1
		}
	}
	p.PublishState(snap(6, ssb.StateAggCount, mkLog(map[uint64]uint64{k0: 10}), true))

	cl, err := NewClient(reg, "t")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer cl.Close()
	if v, err := cl.Lookup(6, k0); err != nil || v != 10 {
		t.Fatalf("Lookup(owned) = %d, %v", v, err)
	}
	if _, err := cl.Lookup(6, k1); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Lookup(unpublished owner) err = %v, want ErrUnavailable", err)
	}
	if got, err := cl.Scan(6); err != nil || len(got) != 1 {
		t.Fatalf("Scan = %v, %v", got, err)
	}
	if got, hits, err := cl.ScanSealed(6); err != nil || hits != 1 || len(got) != 1 {
		t.Fatalf("ScanSealed = %v, %d, %v", got, hits, err)
	}
	if got, err := cl.TopK(6, 5); err != nil || len(got) != 1 {
		t.Fatalf("TopK = %v, %v", got, err)
	}
	if wins, err := cl.Windows(); err != nil || len(wins) != 1 || wins[0].Node != 0 {
		t.Fatalf("Windows = %v, %v", wins, err)
	}
}

// TestReadOnlyRegions asserts readers cannot mutate snapshot regions: a
// WRITE and an ATOMIC against the directory complete with a remote access
// error (the regions register with AccessRemoteRead only), and the merge
// thread keeps publishing untouched.
func TestReadOnlyRegions(t *testing.T) {
	fab := rdma.NewFabric(rdma.Config{})
	reg := NewRegistry(fab, ssb.StaticPartitionMap(1))
	nic, err := fab.NewNIC("node0")
	if err != nil {
		t.Fatalf("NewNIC: %v", err)
	}
	p, err := NewPublisher(nic, 0, 0, Options{})
	if err != nil {
		t.Fatalf("NewPublisher: %v", err)
	}
	reg.Install(p)
	p.PublishState(snap(1, ssb.StateAggCount, mkLog(map[uint64]uint64{1: 1}), true))

	attacker, err := fab.NewNIC("attacker")
	if err != nil {
		t.Fatalf("NewNIC: %v", err)
	}
	qp, rq, err := rdma.Connect(attacker, nic, rdma.QPOptions{}, rdma.QPOptions{})
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	defer qp.Close()
	defer rq.Close()
	ep, _ := reg.Endpoint(0)
	if err := qp.PostWriteU64(1, ep.DirRKey, 0, 0xdead, true); err != nil {
		t.Fatalf("PostWriteU64: %v", err)
	}
	if comp := qp.SendCQ().Wait(); comp.Status != rdma.StatusRemoteAccessErr {
		t.Fatalf("WRITE to read-only region completed %v, want StatusRemoteAccessErr", comp.Status)
	}
	if err := qp.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}

	// The region is intact: a fresh client still reads the snapshot.
	cl, err := NewClient(reg, "t")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer cl.Close()
	if v, err := cl.Lookup(1, 1); err != nil || v != 1 {
		t.Fatalf("post-attack Lookup = %d, %v", v, err)
	}
}

// TestRedialAcrossIncarnations covers a reader following a node through a
// fence-and-reinstall cycle: reads against the fenced incarnation fail, a
// replacement under a bumped incarnation takes over, and the same client
// resolves and validates it without being rebuilt.
func TestRedialAcrossIncarnations(t *testing.T) {
	reg, pubs := testPlane(t, 1, Options{})
	pubs[0].PublishState(snap(9, ssb.StateAggCount, mkLog(map[uint64]uint64{4: 4}), true))
	cl, err := NewClient(reg, "t")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer cl.Close()
	if _, err := cl.Lookup(9, 4); err != nil {
		t.Fatalf("pre-fence Lookup: %v", err)
	}
	reg.Fence(0)
	if _, ok := reg.Publisher(0); ok {
		t.Fatal("fenced publisher still installed")
	}
	if _, err := cl.Lookup(9, 4); err == nil {
		t.Fatal("Lookup succeeded against a fenced node")
	}

	// Restarted incarnation: fresh NIC, inc 1, republished sealed state.
	nic, err := reg.Fabric().NewNIC("node0@1")
	if err != nil {
		t.Fatalf("NewNIC: %v", err)
	}
	p2, err := NewPublisher(nic, 0, 1, Options{})
	if err != nil {
		t.Fatalf("NewPublisher: %v", err)
	}
	reg.Install(p2)
	p2.PublishState(snap(9, ssb.StateAggCount, mkLog(map[uint64]uint64{4: 44}), true))
	v, err := cl.Lookup(9, 4)
	if err != nil || v != 44 {
		t.Fatalf("post-restart Lookup = %d, %v; want 44", v, err)
	}
	if cl.Redials() < 2 {
		t.Fatalf("Redials = %d, want at least initial dial + redial", cl.Redials())
	}
	if cl.TornReads() != 0 {
		t.Fatalf("TornReads = %d on an uncontended plane", cl.TornReads())
	}
	reg.FenceAll()
	if eps := reg.Endpoints(); len(eps) != 0 {
		t.Fatalf("endpoints after FenceAll: %v", eps)
	}
}

// TestPayloadGrowth exercises the double buffers' pow2 reallocation: the
// same slot republishes with payloads crossing the buffer floor, and each
// republication serves exactly the latest content.
func TestPayloadGrowth(t *testing.T) {
	reg, pubs := testPlane(t, 1, Options{})
	cl, err := NewClient(reg, "t")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer cl.Close()
	for _, keys := range []int{4, 400, 4000, 40} {
		entries := map[uint64]uint64{}
		for k := 0; k < keys; k++ {
			entries[uint64(k)] = uint64(keys)
		}
		pubs[0].PublishState(snap(11, ssb.StateAggSum, mkLog(entries), false))
		got, err := cl.Scan(11)
		if err != nil {
			t.Fatalf("Scan after %d-key publish: %v", keys, err)
		}
		if len(got) != keys || got[0].Value != int64(keys) {
			t.Fatalf("after %d-key publish: %d entries, first value %d", keys, len(got), got[0].Value)
		}
	}
	if pubs[0].Published() != 4 {
		t.Fatalf("Published = %d, want 4", pubs[0].Published())
	}
	// Window 11 is still live: ScanSealed must refuse it.
	if _, _, err := cl.ScanSealed(11); !errors.Is(err, ErrNotSealed) {
		t.Fatalf("ScanSealed(live) err = %v, want ErrNotSealed", err)
	}
}

// TestMalformedPayload publishes a log whose last entry's vlen overflows the
// payload; the client must fail typed instead of mis-decoding.
func TestMalformedPayload(t *testing.T) {
	reg, pubs := testPlane(t, 1, Options{})
	log := mkLog(map[uint64]uint64{1: 1})
	log = log[:len(log)-4] // truncate the value: header promises 8 state bytes
	pubs[0].PublishState(snap(2, ssb.StateAggCount, log, true))
	cl, err := NewClient(reg, "t")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer cl.Close()
	if _, err := cl.Scan(2); !errors.Is(err, ErrBadRegion) {
		t.Fatalf("Scan(malformed) err = %v, want ErrBadRegion", err)
	}
	// Unknown finalization kind fails typed too.
	pubs[0].PublishState(snap(3, 200, mkLog(map[uint64]uint64{1: 1}), true))
	if _, err := cl.Scan(3); !errors.Is(err, ErrAggKind) {
		t.Fatalf("Scan(unknown kind) err = %v, want ErrAggKind", err)
	}
	// Truncated avg state (needs 16 bytes).
	pubs[0].PublishState(snap(4, ssb.StateAggAvg, mkLog(map[uint64]uint64{1: 1}), true))
	if _, err := cl.Scan(4); !errors.Is(err, ErrBadRegion) {
		t.Fatalf("Scan(short avg state) err = %v, want ErrBadRegion", err)
	}
}

// TestTornReadTorture races readers against a publisher republishing the
// same window with self-consistent payloads: every entry of publication g
// carries value g. A reader must only ever observe a payload whose values
// all agree — a mix of two publications is a torn read the version check
// must have rejected. Run with -race this also proves the publisher's
// Store/AtomicStore discipline keeps one-sided READs data-race-free.
func TestTornReadTorture(t *testing.T) {
	const (
		readers = 4
		keys    = 32
		pubs    = 400
	)
	reg, pp := testPlane(t, 1, Options{})
	p := pp[0]

	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cl, err := NewClient(reg, fmt.Sprintf("torture%d", r))
			if err != nil {
				errCh <- err
				return
			}
			defer cl.Close()
			var last int64 = -1
			for !stop.Load() {
				got, err := cl.Scan(42)
				if err != nil {
					// Unavailable only under extreme scheduling (the retry
					// budget rides out normal republication races).
					if errors.Is(err, ErrUnavailable) || errors.Is(err, ErrNoSnapshot) {
						continue
					}
					errCh <- err
					return
				}
				if len(got) != keys {
					errCh <- fmt.Errorf("reader %d: %d keys, want %d", r, len(got), keys)
					return
				}
				g := got[0].Value
				for _, e := range got {
					if e.Value != g {
						errCh <- fmt.Errorf("reader %d: torn payload: values %d and %d in one snapshot", r, g, e.Value)
						return
					}
				}
				if g < last {
					errCh <- fmt.Errorf("reader %d: generation went backward %d -> %d", r, last, g)
					return
				}
				last = g
			}
		}(r)
	}

	entries := map[uint64]uint64{}
	for g := uint64(1); g <= pubs; g++ {
		for k := uint64(0); k < keys; k++ {
			entries[k] = g
		}
		p.PublishState(snap(42, ssb.StateAggSum, mkLog(entries), false))
	}
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if p.Published() != pubs {
		t.Fatalf("published %d, want %d", p.Published(), pubs)
	}
}

// TestTornReadYieldsToPublisher: a publisher preempted mid-publication (slot
// version odd) on a box with no spare core must get the core back from a
// retrying reader. On one P the holder below only ever runs when the reader
// yields, and it needs fewer turns than the reader's retry budget — so the
// read succeeds if and only if torn retries yield.
func TestTornReadYieldsToPublisher(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const holdYields = defaultRetries / 2

	reg, pp := testPlane(t, 1, Options{})
	p := pp[0]
	p.PublishState(snap(42, ssb.StateAggSum, mkLog(map[uint64]uint64{7: 70}), false))
	cl, err := NewClient(reg, "yield")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Lookup(42, 7); err != nil { // dial before the slot goes odd
		t.Fatal(err)
	}

	off := slotOffset(p.byWin[42]) + slotVersion
	even := p.state[p.byWin[42]].version
	if err := p.dir.AtomicStore(off, even+1); err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	go func() {
		defer close(released)
		for i := 0; i < holdYields; i++ {
			runtime.Gosched()
		}
		_ = p.dir.AtomicStore(off, even+2)
	}()
	got, err := cl.Lookup(42, 7)
	<-released
	if err != nil {
		t.Fatalf("Lookup across a held-odd slot: %v", err)
	}
	if got != 70 {
		t.Fatalf("Lookup = %d, want 70", got)
	}
	if cl.TornReads() == 0 {
		t.Fatal("reader never saw the odd slot — test exercised nothing")
	}
}

// TestEndpointDescriptors: the wire-serializable descriptor carries the same
// identity as the in-process endpoint (with the NIC flattened to its name)
// and survives a gob round-trip — what a cross-process bootstrap exchange
// needs from it.
func TestEndpointDescriptors(t *testing.T) {
	const nodes = 3
	reg, _ := testPlane(t, nodes, Options{})
	eps := reg.Endpoints()
	ds := reg.Descriptors()
	if len(ds) != nodes {
		t.Fatalf("got %d descriptors, want %d", len(ds), nodes)
	}
	for i, d := range ds {
		e := eps[i]
		if d.Node != e.Node || d.Inc != e.Inc || d.DirRKey != e.DirRKey || d.Slots != e.Slots {
			t.Errorf("descriptor %d = %+v does not match endpoint %+v", i, d, e)
		}
		if d.NICName != e.NIC.Name() {
			t.Errorf("descriptor %d NICName = %q, want %q", i, d.NICName, e.NIC.Name())
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ds); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	var back []EndpointDescriptor
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
	if !reflect.DeepEqual(ds, back) {
		t.Errorf("gob round-trip changed descriptors:\n got %+v\nwant %+v", back, ds)
	}
	// A fenced node drops out of the descriptor list like it drops out of
	// the endpoint list.
	reg.Fence(1)
	if ds = reg.Descriptors(); len(ds) != nodes-1 {
		t.Fatalf("after fence: %d descriptors, want %d", len(ds), nodes-1)
	}
}
