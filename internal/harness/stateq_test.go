package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/slash-stream/slash/internal/core"
	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/rdma"
	recstore "github.com/slash-stream/slash/internal/recovery"
	"github.com/slash-stream/slash/internal/stateq"
	"github.com/slash-stream/slash/internal/stream"
	"github.com/slash-stream/slash/internal/window"
)

// TestStateQScenario runs the queryable-state experiment at smoke scale; the
// experiment itself enforces the hard contract (every captured window
// byte-matches the sink, READs issued, no merge-side read handler exists to
// bypass).
func TestStateQScenario(t *testing.T) {
	rows, err := StateQ(Options{Scale: 0.1, Threads: 2, Seed: 11})
	if err != nil {
		t.Fatalf("StateQ: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want baseline + readers", len(rows))
	}
	live := rows[1]
	if live.Metrics["reads"] == 0 || live.Metrics["windows_captured"] == 0 {
		t.Fatalf("live row shows no reader activity: %+v", live.Metrics)
	}
}

// TestStateQChaos is the chaos variant of the torn-read coverage: a reader
// hammers the state plane while node 1's NIC is killed mid-run and the
// failure manager fences, restores, and rejoins it. The reader must survive
// the whole episode on the documented error taxonomy alone, every
// publication it validates from node 1 after the kill must carry the
// restarted incarnation (the fence makes pre-crash regions permanently
// unvalidatable), and the sealed windows it captures at the end must
// byte-match a fault-free baseline over the same records.
func TestStateQChaos(t *testing.T) {
	const nodes = 3
	const T = 2
	perFlow := 4000
	rng := rand.New(rand.NewSource(23))

	const phaseSpan = elasticPhaseWins * elasticWinSize
	phaseA, _ := elasticPhase(rng, nodes*T, perFlow, 0, phaseSpan)
	phaseB, _ := elasticPhase(rng, nodes*T, perFlow, phaseSpan, 2*phaseSpan)
	win, err := window.NewTumbling(elasticWinSize)
	if err != nil {
		t.Fatal(err)
	}
	mkQuery := func() *core.Query {
		return &core.Query{Name: "stateq-chaos", Codec: stream.MustCodec(32), Window: win, Agg: crdt.Sum{}}
	}
	fullStream := func(n, th int) []stream.Record {
		f := n*T + th
		s := append([]stream.Record(nil), phaseA[f]...)
		return append(s, phaseB[f]...)
	}

	// Fault-free baseline for the byte-match oracle.
	baseFlows := make([][]core.Flow, nodes)
	for n := range baseFlows {
		baseFlows[n] = make([]core.Flow, T)
		for th := range baseFlows[n] {
			baseFlows[n][th] = core.NewColumnarFlow(fullStream(n, th))
		}
	}
	baseCol := &core.Collector{}
	if _, err := core.Run(core.Config{
		Nodes: nodes, ThreadsPerNode: T, EpochBytes: 8 << 10, Fabric: endToEndFabric(),
	}, mkQuery(), baseFlows, baseCol); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	want := aggSet(baseCol)

	// Chaos run: gated flows, fault injector, recovery plane, state plane.
	gates := make([][]*core.ColumnarFlow, nodes)
	flows := make([][]core.Flow, nodes)
	for n := range flows {
		gates[n] = make([]*core.ColumnarFlow, T)
		flows[n] = make([]core.Flow, T)
		for th := range flows[n] {
			gates[n][th] = core.NewColumnarFlow(fullStream(n, th), phaseSpan)
			flows[n][th] = gates[n][th]
		}
	}
	fi := rdma.NewFaultInjector(23)
	fab := endToEndFabric()
	fab.Faults = fi
	cfg := core.Config{
		Nodes: nodes, ThreadsPerNode: T, EpochBytes: 8 << 10, Fabric: fab,
		Recovery: &core.RecoveryOptions{Store: recstore.NewMemStore(), CheckpointCommits: 8},
		State:    &stateq.Options{},
	}
	cfg.Channel.CreditWaitTimeout = time.Second
	col := &core.Collector{}
	c, err := core.NewController(cfg, mkQuery(), flows, col)
	if err != nil {
		t.Fatal(err)
	}

	cl, err := c.NewStateClient("chaos-reader")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var (
		stop    atomic.Bool
		killed  atomic.Bool
		readErr atomic.Value
		mu      sync.Mutex
		// node1 incarnations in resolution order; fencing must make this
		// monotonic — once the restarted incarnation is visible, the dead
		// one can never be resolved (or validated) again.
		incSeq []int
	)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			wins, err := cl.Windows()
			if err != nil {
				if errors.Is(err, stateq.ErrUnavailable) || errors.Is(err, stateq.ErrNoEndpoint) ||
					errors.Is(err, stateq.ErrNoSnapshot) {
					continue // the documented churn taxonomy
				}
				readErr.Store(fmt.Errorf("undocumented reader error: %w", err))
				return
			}
			// Windows() validated each listed slot against its endpoint's
			// incarnation; record node 1's resolution history.
			if ep, ok := c.StateRegistry().Endpoint(1); ok {
				mu.Lock()
				if len(incSeq) == 0 || incSeq[len(incSeq)-1] != ep.Inc {
					incSeq = append(incSeq, ep.Inc)
				}
				mu.Unlock()
			}
			if killed.Load() {
				for _, w := range wins {
					_, _ = cl.Scan(w.Window) // exercise payload reads through the churn
					break
				}
			}
		}
	}()

	c.Start()
	if err := elasticWait(c, "phase A to drain", func() bool {
		for _, row := range gates {
			for _, g := range row {
				if !g.AtFence(0) {
					return false
				}
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	fi.IsolateNIC("node1")
	killed.Store(true)
	for _, row := range gates {
		for _, g := range row {
			g.Open()
		}
	}
	rep, err := c.Wait()
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatalf("run failed despite auto-recovery: %v", err)
	}
	if v := readErr.Load(); v != nil {
		t.Fatal(v.(error))
	}
	restarted := false
	for _, rc := range rep.Recoveries {
		if rc.Node == 1 {
			restarted = true
		}
	}
	if !restarted {
		t.Fatalf("node 1 was never restarted: %+v", rep.Recoveries)
	}

	// Fenced generations stay fenced: node 1's resolved incarnation sequence
	// must be monotonic — after the restarted incarnation became visible, the
	// dead one was never served again.
	mu.Lock()
	for i := 1; i < len(incSeq); i++ {
		if incSeq[i] < incSeq[i-1] {
			t.Fatalf("reader resolved a fenced incarnation again: sequence %v", incSeq)
		}
	}
	mu.Unlock()

	// Post-run: sealed finals still served; every complete capture must
	// byte-match the fault-free baseline.
	wins, err := cl.Windows()
	if err != nil {
		t.Fatalf("post-run Windows: %v", err)
	}
	onAll := map[uint64]int{}
	for _, w := range wins {
		if w.Sealed {
			onAll[w.Window]++
		}
	}
	captured := 0
	for w, n := range onAll {
		if n < nodes {
			continue
		}
		entries, hits, err := cl.ScanSealed(w)
		if err != nil || hits < nodes {
			continue
		}
		captured++
		seen := map[uint64]bool{}
		for _, e := range entries {
			if want[[2]uint64{w, e.Key}] != e.Value {
				t.Fatalf("window %d key %d: served %d, baseline %d", w, e.Key, e.Value, want[[2]uint64{w, e.Key}])
			}
			seen[e.Key] = true
		}
		for wk := range want {
			if wk[0] == w && !seen[wk[1]] {
				t.Fatalf("window %d: key %d missing from served state", w, wk[1])
			}
		}
	}
	if captured == 0 {
		t.Fatal("no sealed window survived to capture after recovery")
	}
}
