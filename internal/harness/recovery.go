package harness

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"github.com/slash-stream/slash/internal/core"
	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/rdma"
	recstore "github.com/slash-stream/slash/internal/recovery"
	"github.com/slash-stream/slash/internal/stream"
	"github.com/slash-stream/slash/internal/window"
)

// Recovery exercises the checkpoint/crash-recovery plane end to end
// (DESIGN.md §9): a phased sum workload runs on three nodes with epoch-aligned
// incremental checkpoints armed, node 1's NIC is killed at the phase boundary,
// and the failure manager must detect the dead links, fence the node, restore
// it from its journal, replay the survivors' rings, and finish the run with
// window results byte-identical to a fault-free baseline over the same data.
//
// The kill lands at a gated fence so the experiment is deterministic: every
// source has drained phase A when the NIC dies, and the first phase-B traffic
// is what trips the link reports. The reported rows carry the recovery
// latency (fence-to-rejoin), the chunks re-delivered from replay rings, the
// re-sent epochs the leaders deduplicated, and the checkpoints journaled.
func Recovery(o Options) ([]Row, error) {
	o = o.fill()
	const nodes = 3
	T := o.Threads
	perFlow := o.scaled(20_000)
	rng := rand.New(rand.NewSource(o.Seed))

	const phaseSpan = elasticPhaseWins * elasticWinSize
	phaseA, allA := elasticPhase(rng, nodes*T, perFlow, 0, phaseSpan)
	phaseB, allB := elasticPhase(rng, nodes*T, perFlow, phaseSpan, 2*phaseSpan)
	total := int64(len(allA) + len(allB))

	win, err := window.NewTumbling(elasticWinSize)
	if err != nil {
		return nil, err
	}
	mkQuery := func() *core.Query {
		return &core.Query{Name: "recovery", Codec: stream.MustCodec(32), Window: win, Agg: crdt.Sum{}}
	}
	fullStream := func(n, t int) []stream.Record {
		f := n*T + t
		s := append([]stream.Record(nil), phaseA[f]...)
		return append(s, phaseB[f]...)
	}

	// Fault-free baseline: same data, recovery plane off — it doubles as the
	// differential oracle and as proof the checkpoint plane is pay-as-you-go.
	baseFlows := make([][]core.Flow, nodes)
	for n := range baseFlows {
		baseFlows[n] = make([]core.Flow, T)
		for t := range baseFlows[n] {
			baseFlows[n][t] = core.NewColumnarFlow(fullStream(n, t))
		}
	}
	// Short epochs so the periodic, epoch-aligned checkpoint cadence engages
	// even at smoke scale: a leader checkpoints every CheckpointCommits epoch
	// commits, and commits only land at epoch boundaries.
	const epochBytes = 8 << 10

	baseCol := &core.Collector{}
	baseCfg := core.Config{
		Nodes: nodes, ThreadsPerNode: T, EpochBytes: epochBytes,
		Fabric: endToEndFabric(), Metrics: o.Metrics,
	}
	baseStart := time.Now()
	baseRep, err := core.Run(baseCfg, mkQuery(), baseFlows, baseCol)
	if err != nil {
		return nil, fmt.Errorf("recovery: fault-free baseline: %w", err)
	}
	o.logf("recovery baseline %12d recs  %8.3fs  %14.0f rec/s",
		baseRep.Records, time.Since(baseStart).Seconds(), baseRep.RecordsPerSec)

	// Recovery run: same flows behind a fence at the phase boundary, with
	// journaling armed and the failure manager allowed to restart on its own.
	gates := make([][]*core.ColumnarFlow, nodes)
	flows := make([][]core.Flow, nodes)
	for n := range flows {
		gates[n] = make([]*core.ColumnarFlow, T)
		flows[n] = make([]core.Flow, T)
		for t := range flows[n] {
			gates[n][t] = core.NewColumnarFlow(fullStream(n, t), phaseSpan)
			flows[n][t] = gates[n][t]
		}
	}
	fi := rdma.NewFaultInjector(o.Seed)
	store := recstore.NewMemStore()
	fab := endToEndFabric()
	fab.Faults = fi
	fab.Metrics = o.Metrics
	cfg := core.Config{
		Nodes: nodes, ThreadsPerNode: T, EpochBytes: epochBytes,
		Fabric: fab, Metrics: o.Metrics,
		Recovery: &core.RecoveryOptions{
			Store:             store,
			CheckpointCommits: 8,
		},
	}
	// Bounded producer waits: an isolated peer starves producers of credits;
	// the timeout turns that into a link report for the failure manager.
	cfg.Channel.CreditWaitTimeout = time.Second

	col := &core.Collector{}
	c, err := core.NewController(cfg, mkQuery(), flows, col)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
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
		return nil, err
	}
	// Kill node 1 for real: every op to or from its NIC now drops. The name
	// pins the incarnation — the restored node comes back as node1@1 on a
	// fresh NIC and is untouched by the isolation.
	fi.IsolateNIC("node1")
	o.logf("recovery: node1 NIC isolated at the phase boundary")
	for _, row := range gates {
		for _, g := range row {
			g.Open()
		}
	}
	rep, err := c.Wait()
	if err != nil {
		return nil, fmt.Errorf("recovery: run failed despite auto-recovery: %w", err)
	}
	if rep.Records != total {
		return nil, fmt.Errorf("recovery: ingested %d records, want %d (exactly-once accounting)", rep.Records, total)
	}
	if !reflect.DeepEqual(aggSet(col), aggSet(baseCol)) {
		return nil, fmt.Errorf("recovery: window results differ from the fault-free baseline")
	}
	restarted := false
	for _, rc := range rep.Recoveries {
		if rc.Node == 1 {
			restarted = true
		}
	}
	if !restarted {
		return nil, fmt.Errorf("recovery: node 1 was never restarted: %+v", rep.Recoveries)
	}

	checkpoints := 0
	for n := 0; n < nodes; n++ {
		recs, err := store.Load(n)
		if err != nil {
			return nil, fmt.Errorf("recovery: load journal %d: %w", n, err)
		}
		for _, r := range recs {
			if r.Kind == recstore.KindCheckpoint {
				checkpoints++
			}
		}
	}

	rows := []Row{{
		Experiment: "recovery", Workload: "phased-sum", System: "slash",
		Params:  fmt.Sprintf("nodes=%d kill=node1", nodes),
		Records: rep.Records, Elapsed: rep.Elapsed, RecsPerSec: rep.RecordsPerSec,
		Metrics: map[string]float64{
			"match_baseline":  1,
			"recoveries":      float64(len(rep.Recoveries)),
			"replayed_chunks": float64(rep.ReplayedChunks),
			"chunks_deduped":  float64(rep.ChunksDeduped),
			"checkpoints":     float64(checkpoints),
		},
	}}
	for _, rc := range rep.Recoveries {
		o.logf("recovery: node%d inc=%d restored in %8.3fms, %d chunks replayed",
			rc.Node, rc.Incarnation, float64(rc.Duration.Microseconds())/1e3, rc.ReplayedChunks)
		rows = append(rows, Row{
			Experiment: "recovery", Workload: "phased-sum", System: "slash",
			Params: fmt.Sprintf("restart node=%d inc=%d", rc.Node, rc.Incarnation),
			Metrics: map[string]float64{
				"recovery_ms":     float64(rc.Duration.Microseconds()) / 1e3,
				"replayed_chunks": float64(rc.ReplayedChunks),
			},
		})
	}
	rows = append(rows, Row{
		Experiment: "recovery", Workload: "phased-sum", System: "slash",
		Params:  fmt.Sprintf("nodes=%d fault-free-baseline", nodes),
		Records: baseRep.Records, Elapsed: baseRep.Elapsed, RecsPerSec: baseRep.RecordsPerSec,
		Metrics: map[string]float64{"match_baseline": 1},
	})
	return rows, nil
}
