package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/recovery"
	"github.com/slash-stream/slash/internal/stream"
	"github.com/slash-stream/slash/internal/window"
)

// TestSourceBarrier steps the source tasks of a two-node deployment by hand,
// with no pool running, through both barrier modes: when each source
// answers, what it flushes first, and when the waiter returns.
func TestSourceBarrier(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	recs, _ := genPhase(rng, 2, 4096, 16, 0, 100)
	win, _ := window.NewTumbling(1000)
	cfg := recoveryConfig(2, 1, recovery.NewMemStore())
	cfg.EpochBytes = 1 << 30 // no byte-volume flushes: every flush below is one the test asks for
	q := &Query{Name: "barrier", Codec: testCodec, Window: win, Agg: crdt.Sum{}}
	c, err := NewController(cfg, q, sliceFlowsOf(recs, 1), &Collector{})
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	r := c.run
	a, b := c.sources[0][0], c.sources[1][0]
	both := []*sourceTask{a, b}
	flushes := func() (total int64) {
		for cause := range c.flushes.n {
			total += c.flushes.n[cause].Load()
		}
		return total
	}
	a.Step()
	b.Step()
	if !a.ts.Dirty() || !b.ts.Dirty() || flushes() != 0 {
		t.Fatalf("after one batch: dirty %v/%v, %d flushes; want dirty, unflushed", a.ts.Dirty(), b.ts.Dirty(), flushes())
	}

	// hold: answer without flushing; the fragment stays.
	hold, _ := r.raise(barrierHold)
	a.Step()
	if a.answered.Load() != hold || flushes() != 0 || !a.ts.Dirty() {
		t.Fatalf("held source: answered %v, %d flushes, dirty %v; want an answer with the fragment kept",
			a.answered.Load() == hold, flushes(), a.ts.Dirty())
	}
	if answeredAll(hold, both) {
		t.Fatal("hold complete before source b stepped")
	}
	b.Step()
	if err := r.await(hold, both); err != nil {
		t.Fatalf("await hold: %v", err)
	}
	gen := r.retryGen.Load()
	r.release(hold)
	if r.barrier.Load() != nil || r.retryGen.Load() != gen+1 {
		t.Fatal("releasing a hold must lift it and bump the retry generation")
	}

	// flush: answer only after a barrier flush.
	fb, err := r.raise(barrierFlush)
	if err != nil {
		t.Fatalf("raise flush: %v", err)
	}
	a.Step()
	b.Step()
	if got := c.flushes.n[flushBarrier].Load(); got != 2 || a.ts.Dirty() || b.ts.Dirty() {
		t.Fatalf("flush barrier: %d barrier flushes, dirty %v/%v; want 2, clean", got, a.ts.Dirty(), b.ts.Dirty())
	}
	if err := r.await(fb, both); err != nil {
		t.Fatalf("await flush: %v", err)
	}
	r.release(fb)

	// A parked flush delays the answer until a restart bumped the retry
	// generation and the retry landed.
	fb, _ = r.raise(barrierFlush)
	a.flushPend, a.parkedGen = true, r.retryGen.Load()
	a.Step()
	if a.answered.Load() == fb {
		t.Fatal("source with a parked flush answered the flush barrier")
	}
	r.retryGen.Add(1)
	a.Step() // the retry
	if a.flushPend || a.answered.Load() == fb {
		t.Fatalf("retry step: parked %v, answered %v; want the retry alone", a.flushPend, a.answered.Load() == fb)
	}
	a.Step()
	if a.answered.Load() != fb {
		t.Fatal("source did not answer once its parked flush landed")
	}
	r.release(fb)

	// An active replay plan delays the answer until its boundary flushed.
	fb, _ = r.raise(barrierFlush)
	a.plan = []planFlush{{consumed: a.localRecords + 10}}
	a.Step()
	if a.answered.Load() == fb || c.flushes.n[flushReplay].Load() != 1 || len(a.plan) != 0 {
		t.Fatalf("replaying source: answered %v, %d replay flushes; want the planned flush first",
			a.answered.Load() == fb, c.flushes.n[flushReplay].Load())
	}
	a.Step()
	if a.answered.Load() != fb {
		t.Fatal("source did not answer once its replay plan drained")
	}

	// A task that returns Done counts as answered.
	r.fenced[1].Store(true)
	b.Step()
	if err := r.await(fb, both); err != nil {
		t.Fatalf("await with an exited task: %v", err)
	}
	r.fenced[1].Store(false)
	r.release(fb)

	// A hold pre-empts a pending flush barrier, and the pre-empted waiter's
	// release leaves the hold in force.
	fb, _ = r.raise(barrierFlush)
	hold, _ = r.raise(barrierHold)
	if err := r.await(fb, both); !errors.Is(err, ErrRecovering) {
		t.Fatalf("await pre-empted flush barrier = %v, want ErrRecovering", err)
	}
	r.release(fb)
	if r.barrier.Load() != hold {
		t.Fatal("pre-empted waiter lifted the hold")
	}
	if _, err := r.raise(barrierFlush); !errors.Is(err, ErrRecovering) {
		t.Fatalf("raise flush over a hold = %v, want ErrRecovering", err)
	}
	r.release(hold)

	// The wait returns promptly when the run fails.
	fb, _ = r.raise(barrierFlush)
	boom := errors.New("boom")
	done := make(chan error, 1)
	go func() { done <- r.await(fb, both) }()
	r.fail(boom)
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("await after failure = %v, want the run's error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("await did not return after the run failed")
	}
}

// TestElasticJoinPreemptedByRestart raises a join's flush barrier while a
// survivor's barrier flush is parked on a dead link, so the barrier cannot
// complete, then restarts the link's far end. The restart's hold pre-empts
// the join (ErrRecovering), the restart rebuilds the link and the parked
// flush retries, a second join succeeds, and the run still matches a static
// run at the final size.
func TestElasticJoinPreemptedByRestart(t *testing.T) {
	const winSize, per = 500, 2000
	win, _ := window.NewTumbling(winSize)
	rng := rand.New(rand.NewSource(61))
	phaseA, _ := genPhase(rng, 2, per, 64, 0, 5*winSize)
	phaseB, _ := genPhase(rng, 4, per, 64, 5*winSize, 10*winSize)
	mkQuery := func() *Query {
		return &Query{Name: "elastic-preempt", Codec: testCodec, Window: win, Agg: crdt.Sum{}}
	}
	stay := [][]stream.Record{
		append(append([]stream.Record(nil), phaseA[0]...), phaseB[0]...),
		append(append([]stream.Record(nil), phaseA[1]...), phaseB[1]...),
	}
	joiners := func() [][]Flow { return [][]Flow{{NewSliceFlow(phaseB[2])}, {NewSliceFlow(phaseB[3])}} }

	staticCol := &Collector{}
	staticFlows := append([][]Flow{{NewSliceFlow(stay[0])}, {NewSliceFlow(stay[1])}}, joiners()...)
	if _, err := Run(smallConfig(4, 1), mkQuery(), staticFlows, staticCol); err != nil {
		t.Fatalf("static run: %v", err)
	}

	cfg := recoveryConfig(2, 1, recovery.NewMemStore())
	cfg.MaxNodes = 4
	// No byte-volume flushes: each source reaches the fence holding the
	// fragment of its last phase-A window, which the barrier must flush.
	cfg.EpochBytes = 1 << 30
	gates := []*GatedFlow{NewGatedFlow(stay[0], 5*winSize), NewGatedFlow(stay[1], 5*winSize)}
	col := &Collector{}
	c, err := NewController(cfg, mkQuery(), [][]Flow{{gates[0]}, {gates[1]}}, col)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	// The failure manager sits this one out; the restart is the operator's.
	c.setFenceDelay(time.Hour)
	c.Start()
	waitFor(t, "phase A drained", func() bool { return gates[0].AtFence(0) && gates[1].AtFence(0) })

	// Kill link 0->1 under node 0: its barrier flush fails at the first send
	// and parks until a restart rebuilds the link.
	c.mu.Lock()
	c.producers[0][1].Close()
	c.mu.Unlock()
	joined := make(chan error, 1)
	go func() {
		_, err := c.AddNodes(joiners(), AutoCutover)
		joined <- err
	}()
	waitFor(t, "both barrier flushes", func() bool { return c.flushes.n[flushBarrier].Load() == 2 })
	select {
	case err := <-joined:
		t.Fatalf("AddNodes returned %v while a barrier flush was parked", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := c.RestartNode(1); err != nil {
		t.Fatalf("RestartNode: %v", err)
	}
	if err := <-joined; !errors.Is(err, ErrRecovering) {
		t.Fatalf("pre-empted AddNodes = %v, want ErrRecovering", err)
	}
	ids, err := c.AddNodes(joiners(), AutoCutover)
	if err != nil || !reflect.DeepEqual(ids, []int{2, 3}) {
		t.Fatalf("AddNodes after the restart: ids=%v err=%v", ids, err)
	}
	gates[0].Open()
	gates[1].Open()
	rep, err := waitReport(t, c)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if want := int64(2*2*per + 2*per); rep.Records != want {
		t.Fatalf("records = %d, want %d", rep.Records, want)
	}
	if len(rep.Recoveries) != 1 || rep.Recoveries[0].Node != 1 {
		t.Fatalf("recoveries = %+v, want one restart of node 1", rep.Recoveries)
	}
	if got, want := aggMap(t, col), aggMap(t, staticCol); !reflect.DeepEqual(got, want) {
		t.Fatal("results differ from the static run at the final size")
	}
}
