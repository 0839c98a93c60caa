package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/metrics"
	"github.com/slash-stream/slash/internal/rdma"
	"github.com/slash-stream/slash/internal/recovery"
	"github.com/slash-stream/slash/internal/stream"
	"github.com/slash-stream/slash/internal/window"
)

// Tests of window-aligned epochs (DESIGN §4 item 5): an epoch ends when the
// thread watermark crosses a window end, not only when EpochBytes fills. They
// wait on events (sink rows, leader clocks), never on elapsed time.

// heard returns what node's leader has heard of thread gtid's watermark.
func heard(c *Controller, node, gtid int) stream.Watermark {
	c.mu.Lock()
	be := c.backends[node]
	c.mu.Unlock()
	if be == nil {
		return stream.NoWatermark
	}
	return be.Clock().Entry(gtid)
}

// windowRows filters the collector's rows of one window into a key → value map.
func windowRows(col *Collector, win uint64) map[uint64]int64 {
	rows := map[uint64]int64{}
	for _, r := range col.Aggs() {
		if r.Win == win {
			rows[r.Key] = r.Value
		}
	}
	return rows
}

// TestWindowEndEndsEpoch: with the volume bound out of reach, releasing
// exactly one batch past a window end must be enough for that window to reach
// the sink — while the rest of the input is still fenced off. The
// "recordPath=false" case name is kept from when a per-record loop was a
// second case.
func TestWindowEndEndsEpoch(t *testing.T) {
	t.Run("recordPath=false", testWindowEndEndsEpoch)
}

func testWindowEndEndsEpoch(t *testing.T) {
	const (
		nodes   = 2
		batch   = 16
		winSize = 1000
		fence   = 1100
	)
	win, _ := window.NewTumbling(winSize)
	rng := rand.New(rand.NewSource(5))
	recs := make([][]stream.Record, nodes)
	var all []stream.Record
	for f := range recs {
		add := func(ts int64) {
			recs[f] = append(recs[f], stream.Record{Key: uint64(rng.Intn(24)), Time: ts, V0: rng.Int63n(100)})
		}
		for i := 0; i < 4*batch; i++ { // window 0, whole batches
			add(int64(i) * 15)
		}
		for i := 0; i < batch; i++ { // the one batch past the window end
			add(winSize + int64(i))
		}
		for i := 0; i < 4*batch; i++ { // fenced: windows 1 and 2
			add(fence + int64(i)*20)
		}
		all = append(all, recs[f]...)
	}
	oracle := oracleAgg(all, win, crdt.Sum{}, nil)

	cfg := smallConfig(nodes, 1)
	cfg.EpochBytes = 1 << 30
	cfg.BatchRecords = batch
	reg := metrics.NewRegistry()
	cfg.Metrics = reg
	gates := make([]*GatedFlow, nodes)
	flows := make([][]Flow, nodes)
	for n := range gates {
		gates[n] = NewGatedFlow(recs[n], fence)
		flows[n] = []Flow{gates[n]}
	}
	col := &Collector{}
	q := &Query{Name: "window-end", Codec: testCodec, Window: win, Agg: crdt.Sum{}}
	ctrl, err := NewController(cfg, q, flows, col)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	ctrl.Start()
	waitFor(t, "window 0 at the sink", func() bool {
		return reflect.DeepEqual(windowRows(col, 0), oracle[0])
	})
	for n, g := range gates {
		if !g.AtFence(0) || g.pos.Load() != 5*batch {
			t.Fatalf("flow %d released %d records, want %d and parked", n, g.pos.Load(), 5*batch)
		}
	}
	for _, g := range gates {
		g.Open()
	}
	rep, err := waitReport(t, ctrl)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	checkAggAgainstOracle(t, col, oracle)
	// Per thread: window ends 1000 and 2000 crossed, then end of flow.
	if rep.WindowFlushes != 2*nodes || rep.Flushes != 3*nodes {
		t.Fatalf("flushes = %d (window %d), want %d (window %d)", rep.Flushes, rep.WindowFlushes, 3*nodes, 2*nodes)
	}
	for cause, want := range map[string]uint64{"bytes": 0, "window": 2 * nodes, "finish": nodes, "barrier": 0, "replay": 0} {
		name := fmt.Sprintf(`core_epoch_flush_total{cause=%q}`, cause)
		if got := reg.Counter(name).Load(); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestWindowFlushSurvivesRestart kills a node between a window-closed flush
// and the next volume flush, by operator restart and by voted auto-restart,
// on both transports. The restarted threads replay a plan that spans three
// window ends; results must match the fault-free baseline, and the journal
// must show that replay re-took exactly the original boundaries — no
// window-closed flush of its own while the plan was active.
func TestWindowFlushSurvivesRestart(t *testing.T) {
	const (
		nodes, threads = 3, 2
		winSize        = 500
		span           = 5 * winSize
		slowFence      = winSize + 20   // every flow parks just past window 0's end
		fastFence      = 4*winSize + 20 // node 1 then runs on past three more ends
	)
	rng := rand.New(rand.NewSource(97))
	recs, _ := genPhase(rng, nodes*threads, span, 64, 0, span)
	win, _ := window.NewTumbling(winSize)
	mkQuery := func() *Query {
		return &Query{Name: "window-restart", Codec: testCodec, Window: win, Agg: crdt.Sum{}}
	}
	col := &Collector{}
	if _, err := Run(smallConfig(nodes, threads), mkQuery(), sliceFlowsOf(recs, threads), col); err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	want := aggMap(t, col)

	for _, tc := range []struct {
		name  string
		trunk bool
		voted bool
	}{
		{"pair/manual", false, false},
		{"pair/voted", false, true},
		{"trunk/manual", true, false},
		{"trunk/voted", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := recovery.NewMemStore()
			cfg := recoveryConfig(nodes, threads, store)
			if tc.trunk {
				cfg = trunkRecoveryConfig(nodes, threads, store)
			}
			// Checkpoints only at window triggers: node 1's durable horizon
			// stays at window 0 while its threads run ahead.
			cfg.Recovery.CheckpointCommits = 1 << 20
			cfg.Recovery.AutoRestart = tc.voted
			fi := rdma.NewFaultInjector(97)
			cfg.Fabric.Faults = fi

			gates := make([]*GatedFlow, nodes*threads)
			flows := make([][]Flow, nodes)
			for n := 0; n < nodes; n++ {
				flows[n] = make([]Flow, threads)
				for th := 0; th < threads; th++ {
					fences := []int64{slowFence}
					if n == 1 {
						fences = append(fences, fastFence)
					}
					g := NewGatedFlow(recs[n*threads+th], fences...)
					gates[n*threads+th], flows[n][th] = g, g
				}
			}
			col := &Collector{}
			ctrl, err := NewController(cfg, mkQuery(), flows, col)
			if err != nil {
				t.Fatalf("NewController: %v", err)
			}
			ctrl.Start()
			// Window 0 fires everywhere, which checkpoints every journal.
			waitFor(t, "window 0 at the sink", func() bool {
				return reflect.DeepEqual(windowRows(col, 0), want[0])
			})
			// Node 1 alone runs on: every window end it crosses is a flush the
			// leaders merge but — the other sources sit before end 1 — cannot
			// trigger on, so nothing past window 0 is checkpointed.
			for th := 0; th < threads; th++ {
				gates[threads+th].Open()
			}
			waitFor(t, "node 1's window-closed flush at end 4 heard everywhere", func() bool {
				for n := 0; n < nodes; n++ {
					for th := 0; th < threads; th++ {
						if heard(ctrl, n, threads+th) < 4*winSize {
							return false
						}
					}
				}
				return true
			})
			// Node 1's sources are parked 20 time units (far less than an
			// epoch of records) past their last window-closed flush.
			if tc.voted {
				fi.IsolateNIC("node1")
			} else if err := ctrl.RestartNode(1); err != nil {
				t.Fatalf("RestartNode: %v", err)
			}
			for _, g := range gates {
				g.Open()
			}
			rep, err := waitReport(t, ctrl)
			if err != nil {
				t.Fatalf("run failed after restart: %v", err)
			}
			if got := aggMap(t, col); !reflect.DeepEqual(got, want) {
				t.Fatal("recovered results diverge from fault-free baseline")
			}
			if want := int64(nodes * threads * span); rep.Records != want {
				t.Fatalf("records = %d, want %d (exactly-once accounting)", rep.Records, want)
			}
			restarted := false
			for _, rc := range rep.Recoveries {
				restarted = restarted || rc.Node == 1
			}
			if !restarted {
				t.Fatalf("recoveries = %+v, want node 1 restarted", rep.Recoveries)
			}
			if rep.WindowFlushes == 0 {
				t.Fatal("no window-closed flush was taken — test exercised nothing")
			}
			if n := ctrl.flushes.n[flushReplay].Load(); n < 3*threads {
				t.Fatalf("replayed flushes = %d, want the plan to span 3 window ends on %d threads", n, threads)
			}

			// Every journaled intent of one (thread, epoch) names the same
			// boundary, whichever incarnation wrote it.
			journal, err := store.Load(1)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			type slot struct {
				thread int
				epoch  uint64
			}
			first := map[slot]sourceMark{}
			rejournaled := 0
			for i := range journal {
				if journal[i].Kind != recovery.KindSource {
					continue
				}
				mk, err := decodeSourceMark(journal[i].Payload)
				if err != nil {
					t.Fatal(err)
				}
				k := slot{mk.Thread, mk.Epoch}
				orig, seen := first[k]
				if !seen {
					first[k] = mk
					continue
				}
				rejournaled++
				if mk.Consumed != orig.Consumed || mk.Wm != orig.Wm || mk.Done != orig.Done {
					t.Fatalf("thread %d epoch %d re-flushed at a different boundary: %+v, originally %+v", mk.Thread, mk.Epoch, mk, orig)
				}
			}
			if rejournaled == 0 {
				t.Fatal("no epoch was journaled twice — the replay plan was empty")
			}
		})
	}
}
