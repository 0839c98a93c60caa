package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

var kindNames = map[kind]string{
	kHello: "kHello", kWelcome: "kWelcome", kHalves: "kHalves", kWire: "kWire",
	kReady: "kReady", kStart: "kStart", kIdle: "kIdle", kFinish: "kFinish",
	kResult: "kResult", kLinkDown: "kLinkDown", kFence: "kFence",
	kFenceAck: "kFenceAck", kAdopt: "kAdopt", kRestore: "kRestore",
	kRestoreAck: "kRestoreAck", kReplay: "kReplay", kReplayAck: "kReplayAck",
	kRelease: "kRelease", kAck: "kAck",
}

func kindList(ks ...kind) string {
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = kindNames[k]
	}
	return strings.Join(names, " → ")
}

// fakeMember speaks the control protocol over a real session with no engine
// behind it: it answers every order with canned data and records what it
// was sent, so a test can pin the coordinator's message sequence.
type fakeMember struct {
	rank int
	sess *session
	// fenceErr, when set, is the Err of this member's kFenceAck.
	fenceErr string
	// result, when non-nil, is the kResult's packed rows; nil sends one
	// aggregate row in a window named after the rank.
	result []byte
	// idleAtStart makes the member report idle as soon as it is started.
	idleAtStart bool
	// fenced is closed when the member receives kFence.
	fenced chan struct{}
	done   chan struct{}

	mu      sync.Mutex
	got     []*msg
	restore bool
}

func dialFake(t *testing.T, addr string, rank int, fenceErr string) *fakeMember {
	t.Helper()
	return dialFakeMember(t, addr, &fakeMember{rank: rank, fenceErr: fenceErr})
}

// dialFakeMember registers f, whose scripted fields are set, and serves it.
func dialFakeMember(t *testing.T, addr string, f *fakeMember) *fakeMember {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	f.sess, f.fenced, f.done = newSession(conn), make(chan struct{}), make(chan struct{})
	rank := f.rank
	if err := f.sess.send(&msg{Kind: kHello, Rank: rank, Inc: -1}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	go f.serve()
	return f
}

func (f *fakeMember) serve() {
	defer close(f.done)
	for {
		m, err := f.sess.read()
		if err != nil {
			return
		}
		f.mu.Lock()
		f.got = append(f.got, m)
		f.mu.Unlock()
		for _, r := range f.answer(m) {
			r.Rank = f.rank
			if f.sess.send(r) != nil {
				return
			}
		}
		if m.Kind == kFinish {
			return
		}
	}
}

// fakeHalves are a member's made-up registered halves, distinct per rank.
func fakeHalves(rank int) *Halves {
	return &Halves{
		Addr:        fmt.Sprintf("fake-%d", rank),
		RingRKeys:   map[int]uint32{0: uint32(100 + rank)},
		CreditRKeys: map[int]uint32{0: uint32(200 + rank)},
	}
}

func (f *fakeMember) answer(m *msg) []*msg {
	switch m.Kind {
	case kWelcome:
		f.restore = m.Restore
		return []*msg{{Kind: kHalves, Halves: fakeHalves(f.rank)}}
	case kWire:
		if f.restore {
			return nil // a respawn reads its restore order next
		}
		return []*msg{{Kind: kReady}}
	case kStart:
		if f.idleAtStart {
			return []*msg{{Kind: kIdle}}
		}
	case kFence:
		close(f.fenced)
		return []*msg{{Kind: kFenceAck, Committed: []uint64{uint64(10 + f.rank), uint64(20 - f.rank), 5}, Halves: fakeHalves(f.rank), Err: f.fenceErr}}
	case kAdopt:
		return []*msg{{Kind: kAck}}
	case kRestore:
		return []*msg{{Kind: kRestoreAck, Restored: []uint64{7, 8, 9}}}
	case kReplay:
		return []*msg{{Kind: kReplayAck, Chunks: 3}}
	case kRelease:
		return []*msg{{Kind: kIdle}}
	case kFinish:
		rows := f.result
		if rows == nil {
			rows = packRows([]Row{{Win: uint64(f.rank), Key: 1, Value: 1}})
		}
		return []*msg{{Kind: kResult, Rows: rows}}
	}
	return nil
}

func (f *fakeMember) received() []*msg {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*msg(nil), f.got...)
}

func (f *fakeMember) kinds() string {
	var ks []kind
	for _, m := range f.received() {
		ks = append(ks, m.Kind)
	}
	return kindList(ks...)
}

// find returns the first message of kind k f received.
func (f *fakeMember) find(t *testing.T, k kind) *msg {
	t.Helper()
	for _, m := range f.received() {
		if m.Kind == k {
			return m
		}
	}
	t.Fatalf("rank %d never received %s (got %s)", f.rank, kindNames[k], f.kinds())
	return nil
}

// scriptedRestart bootstraps three fake members, kills rank 2 once every
// member was started, and dials its respawn as soon as a survivor is fenced
// (the coordinator retired rank 2 by then). fenceErrs gives each rank's
// kFenceAck error. It returns Run's outcome, the three originals and the
// respawn.
func scriptedRestart(t *testing.T, fenceErrs map[int]string) (*Result, error, []*fakeMember, *fakeMember) {
	t.Helper()
	const victim = 2
	spec := Spec{Workload: "ysb", Nodes: 3, Threads: 1, Records: 1, Seed: 1}
	co, err := NewCoordinator(CoordinatorOptions{Spec: spec, HandshakeTimeout: 10 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer co.Close()
	type outcome struct {
		res *Result
		err error
	}
	ran := make(chan outcome, 1)
	go func() {
		res, err := co.Run()
		ran <- outcome{res, err}
	}()
	members := make([]*fakeMember, spec.Nodes)
	for r := range members {
		members[r] = dialFake(t, co.Addr(), r, fenceErrs[r])
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, f := range members {
		for !strings.HasSuffix(f.kinds(), "kStart") {
			if time.Now().After(deadline) {
				t.Fatalf("rank %d never started: got %s", f.rank, f.kinds())
			}
			time.Sleep(time.Millisecond)
		}
	}
	members[victim].sess.close()
	select {
	case <-members[0].fenced:
	case <-time.After(10 * time.Second):
		t.Fatal("no survivor was fenced after the kill")
	}
	respawn := dialFake(t, co.Addr(), victim, "")
	var o outcome
	select {
	case o = <-ran:
	case <-time.After(20 * time.Second):
		t.Fatal("coordinator did not finish")
	}
	co.Close()
	for _, f := range append(members, respawn) {
		f.sess.close()
		<-f.done
	}
	return o.res, o.err, members, respawn
}

// TestRestartProtocol pins the coordinator's message sequence with fake
// members and no engine: bootstrap, then one restart that sends each survivor
// one message per step (fence, adopt, replay, release) and the respawn its
// welcome, wire and restore orders.
func TestRestartProtocol(t *testing.T) {
	res, err, members, respawn := scriptedRestart(t, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	boot := kindList(kWelcome, kWire, kStart)
	if got := members[2].kinds(); got != boot {
		t.Errorf("victim saw %s, want %s", got, boot)
	}
	survivor := kindList(kWelcome, kWire, kStart, kFence, kAdopt, kReplay, kRelease, kFinish)
	for _, f := range members[:2] {
		if got := f.kinds(); got != survivor {
			t.Errorf("survivor %d saw %s, want %s", f.rank, got, survivor)
		}
	}
	if got, want := respawn.kinds(), kindList(kWelcome, kWire, kRestore, kRelease, kFinish); got != want {
		t.Errorf("respawn saw %s, want %s", got, want)
	}

	// What the orders carry: the bumped incarnation, each side's halves for
	// the other, the survivors' minimum horizon, the respawn's restored
	// vector.
	if w := respawn.find(t, kWelcome); !w.Restore || !reflect.DeepEqual(w.Incs, []int{0, 0, 1}) {
		t.Errorf("respawn welcome: Restore=%v Incs=%v, want true [0 0 1]", w.Restore, w.Incs)
	}
	wire := respawn.find(t, kWire)
	for _, f := range members[:2] {
		fence := f.find(t, kFence)
		if fence.Node != 2 || fence.Inc != 1 {
			t.Errorf("survivor %d fence: Node=%d Inc=%d, want 2 1", f.rank, fence.Node, fence.Inc)
		}
		if h, ok := wire.Peers[f.rank]; !ok || !reflect.DeepEqual(h, *fakeHalves(f.rank)) {
			t.Errorf("respawn wire for rank %d: %+v, want the survivor's fence halves", f.rank, wire.Peers)
		}
		adopt := f.find(t, kAdopt)
		if h, ok := adopt.Peers[2]; adopt.Node != 2 || len(adopt.Peers) != 1 || !ok || !reflect.DeepEqual(h, *fakeHalves(2)) {
			t.Errorf("survivor %d adopt: Node=%d Peers=%+v, want rank 2's halves", f.rank, adopt.Node, adopt.Peers)
		}
		if r := f.find(t, kReplay); r.Node != 2 || !reflect.DeepEqual(r.Restored, []uint64{7, 8, 9}) {
			t.Errorf("survivor %d replay: Node=%d Restored=%v, want 2 [7 8 9]", f.rank, r.Node, r.Restored)
		}
	}
	if got := respawn.find(t, kRestore).Committed; !reflect.DeepEqual(got, []uint64{10, 19, 5}) {
		t.Errorf("restore horizon %v, want the survivors' minimum [10 19 5]", got)
	}
	if res.Restarts != 1 || res.ReplayedChunks != 6 || len(res.Rows) != 3 {
		t.Errorf("result: %d restarts, %d replayed, %d rows; want 1, 6, 3", res.Restarts, res.ReplayedChunks, len(res.Rows))
	}
}

// TestRestartFenceErrorFailsRun: a survivor that fails its fence step fails
// the run, and the error names the step.
func TestRestartFenceErrorFailsRun(t *testing.T) {
	_, err, members, respawn := scriptedRestart(t, map[int]string{1: "sources wedged"})
	if err == nil || !strings.HasPrefix(err.Error(), "cluster: fence:") || !strings.Contains(err.Error(), "sources wedged") {
		t.Fatalf("run error %v, want a fence-step failure carrying the member's error", err)
	}
	for _, f := range append(members[:2], respawn) {
		for _, m := range f.received() {
			if m.Kind == kAdopt || m.Kind == kRestore || m.Kind == kReplay || m.Kind == kRelease {
				t.Errorf("rank %d got %s after a failed fence: %s", f.rank, kindNames[m.Kind], f.kinds())
			}
		}
	}
}

// TestPickSuspect pins the vote: far-endpoint tally, stale reports dropped,
// ties broken away from the last restarted rank and then toward the higher
// rank, independent of report order.
func TestPickSuspect(t *testing.T) {
	// link reports rank `from` observing its link src->dst fail.
	link := func(from, src, dst int) *msg {
		return &msg{Kind: kLinkDown, Rank: from, Src: src, Dst: dst}
	}
	stale := func(m *msg) *msg { m.DstInc = 7; return m }
	cases := []struct {
		name    string
		reports []*msg
		incs    []int
		last    int
		want    int
		ok      bool
	}{
		{"2-node tie, no restart yet", []*msg{link(0, 0, 1), link(1, 1, 0)}, []int{0, 0}, -1, 1, true},
		{"2-node tie, away from last", []*msg{link(0, 0, 1), link(1, 1, 0)}, []int{0, 0}, 1, 0, true},
		{"2-node tie, last is the loser already", []*msg{link(0, 0, 1), link(1, 1, 0)}, []int{0, 0}, 0, 1, true},
		{"3-node tie", []*msg{link(0, 0, 1), link(0, 2, 0)}, []int{0, 0, 0}, -1, 2, true},
		{"3-node tie, away from last", []*msg{link(0, 0, 1), link(0, 2, 0)}, []int{0, 0, 0}, 2, 1, true},
		{"3-node three-way tie, away from last", []*msg{link(1, 1, 0), link(2, 2, 1), link(0, 0, 2)}, []int{0, 0, 0}, 2, 1, true},
		{"3-node majority beats last", []*msg{link(0, 0, 2), link(1, 2, 1), link(0, 2, 0)}, []int{0, 0, 0}, 2, 2, true},
		{"stale reports dropped", []*msg{link(0, 0, 1), stale(link(1, 1, 0)), stale(link(2, 2, 0))}, []int{0, 0, 0}, -1, 1, true},
		{"restarted incarnation counts", []*msg{{Rank: 0, Src: 0, Dst: 1, DstInc: 1}, link(1, 1, 2)}, []int{0, 1, 0}, 2, 1, true},
		{"every report stale", []*msg{stale(link(0, 0, 1)), stale(link(1, 1, 0))}, []int{0, 0}, -1, -1, false},
		{"out-of-range endpoints dropped", []*msg{link(0, 0, 5), link(0, -1, 0)}, []int{0, 0}, -1, -1, false},
		{"no reports", nil, []int{0, 0, 0}, -1, -1, false},
	}
	for _, tc := range cases {
		got, ok := pickSuspect(tc.reports, tc.incs, tc.last)
		if got != tc.want || ok != tc.ok {
			t.Errorf("%s: pickSuspect = %d, %v; want %d, %v", tc.name, got, ok, tc.want, tc.ok)
		}
	}

	// The same four-way tie, in 100 report orders, has one answer.
	reports := []*msg{link(0, 0, 1), link(1, 1, 2), link(2, 2, 3), link(3, 3, 0)}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		rng.Shuffle(len(reports), func(a, b int) { reports[a], reports[b] = reports[b], reports[a] })
		if got, _ := pickSuspect(reports, []int{0, 0, 0, 0}, 3); got != 2 {
			t.Fatalf("run %d: pickSuspect = %d, want 2", i, got)
		}
	}
}

// finishWith bootstraps one fake member per packed result, each reporting
// idle as soon as it is started, and returns what Run made of their results.
func finishWith(t *testing.T, results ...[]byte) (*Result, error) {
	t.Helper()
	spec := Spec{Workload: "nb8", Nodes: len(results), Threads: 1, Records: 1, Seed: 1}
	co, err := NewCoordinator(CoordinatorOptions{Spec: spec, HandshakeTimeout: 10 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer co.Close()
	members := make([]*fakeMember, len(results))
	for r, rows := range results {
		members[r] = dialFakeMember(t, co.Addr(), &fakeMember{rank: r, result: rows, idleAtStart: true})
	}
	res, err := co.Run()
	co.Close()
	for _, f := range members {
		f.sess.close()
		<-f.done
	}
	return res, err
}

// TestFinishMergesMemberRows: the coordinator merges the members' packed,
// sorted rows into the canonical order, interleaving them by window.
func TestFinishMergesMemberRows(t *testing.T) {
	res, err := finishWith(t,
		packRows([]Row{{Win: 0, Key: 4, Value: 1}, {Win: 2, Key: 0, Value: 2}, {Join: true, Win: 1, Key: 3, Left: 1, Right: 2}}),
		packRows([]Row{{Win: 1, Key: 9, Value: 3}, {Join: true, Win: 0, Key: 8, Left: 2, Right: 2}}),
	)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	want := "A 0 4 1\nA 1 9 3\nA 2 0 2\nJ 0 8 2 2 4\nJ 1 3 1 2 2\n"
	if got := RenderRows(res.Rows); got != want {
		t.Fatalf("merged rows\n%swant\n%s", got, want)
	}
}

// TestFinishRejectsUnorderedRows: a member whose rows arrive out of order
// fails the run with ErrRowOrder, naming the member, instead of returning a
// misordered result.
func TestFinishRejectsUnorderedRows(t *testing.T) {
	res, err := finishWith(t,
		packRows([]Row{{Win: 0, Key: 1, Value: 1}, {Win: 1, Key: 1, Value: 1}}),
		packRows([]Row{{Win: 1, Key: 5, Value: 1}, {Win: 0, Key: 2, Value: 1}}),
	)
	if !errors.Is(err, ErrRowOrder) || !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("run returned %v, %v; want ErrRowOrder naming rank 1", res, err)
	}
}
