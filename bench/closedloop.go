package main

import (
	"fmt"
	"time"

	"github.com/slash-stream/slash/internal/cluster"
	"github.com/slash-stream/slash/internal/core"
	"github.com/slash-stream/slash/internal/metrics"
	"github.com/slash-stream/slash/internal/recovery"
	gen "github.com/slash-stream/slash/internal/workload"
)

// inputs is a query with its materialized flows, one per node, and the
// reference result folded from them.
type inputs struct {
	q    *core.Query
	cols []*core.ColumnarFlow
	ref  *reference
}

// reference folds the inputs once, outside both set-up and measured time.
func (in *inputs) reference() (*reference, error) {
	if in.ref == nil {
		flows := make([]core.Flow, len(in.cols))
		for i, c := range in.cols {
			flows[i] = c.Clone()
		}
		ref, err := foldReference(in.q, flows, nodes)
		if err != nil {
			return nil, err
		}
		in.ref = ref
	}
	return in.ref, nil
}

// batchFlows returns fresh clones for the layer replay.
func (in *inputs) batchFlows() []core.BatchFlow {
	flows := make([]core.BatchFlow, len(in.cols))
	for i, c := range in.cols {
		flows[i] = c.Clone()
	}
	return flows
}

// replayRunner is a closed-loop, max-rate replay of materialized inputs
// through the in-process engine: a pass ends when the engine has read
// everything, so a slower engine takes longer over the same records.
type replayRunner struct{ inputs }

func newReplayRunner(q *core.Query, flows [][]core.Flow) *replayRunner {
	return &replayRunner{inputs{q: q, cols: materialize(flows)}}
}

func (r *replayRunner) pass(reg *metrics.Registry) (*passResult, error) {
	ref, err := r.reference()
	if err != nil {
		return nil, err
	}
	flows := make([][]core.Flow, nodes)
	for n := range flows {
		flows[n] = []core.Flow{r.cols[n].Clone()}
	}
	sink := newCheckSink(ref, nodes)
	t0 := time.Now()
	rep, err := core.Run(core.Config{Nodes: nodes, ThreadsPerNode: 1, Metrics: reg}, r.q, flows, sink)
	wall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	clock := []releaseClock{passStart(t0.UnixNano())}
	p := &passResult{records: rep.Records, wall: wall, latMs: sink.emitLatenciesMs(clock), rep: rep}
	p.attempted, p.failed = sink.check(ref)
	return p, nil
}

func (r *replayRunner) measure(cfg config) (*measured, error) {
	return measurePasses(cfg, func() (*passResult, error) { return r.pass(nil) })
}

func (r *replayRunner) trace(cfg config) (*traced, error) {
	ref, err := r.reference()
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	t, err := startTrace(cfg, replaySpec{q: r.q, flows: r.batchFlows(), ref: ref})
	if err != nil {
		return nil, err
	}

	// Engine counters: the real core.Run with the registry set, alternating
	// with registry-off passes so the tracing overhead is a paired figure.
	reg := metrics.NewRegistry()
	var tot engineTotals
	var on, off, lat []float64
	proc := startProcStats()
	for len(on) < 2 || time.Now().Before(deadline) {
		for _, g := range []*metrics.Registry{reg, nil} {
			p, err := r.pass(g)
			if err != nil {
				return nil, err
			}
			t.attempted += p.attempted
			t.failed += p.failed
			proc.records += p.records
			rps := float64(p.records) / p.wall.Seconds()
			if g == nil {
				off = append(off, rps)
				continue
			}
			on = append(on, rps)
			lat = append(lat, p.latMs...)
			tot.add(p.rep)
		}
	}
	proc.fill(t.values)
	fillEngineCounters(t.values, reg.Snapshot(), tot)
	t.values["sink.emit_latency_p99_ms"] = p99(lat)
	t.values["trace.overhead_pct"] = pctWorse(off, on)
	return t, nil
}

// clusterRunner drives the real multi-process machinery from one process: a
// coordinator and two workers speaking the gob control plane, with the channel
// mesh on netfab over loopback TCP. Workers make their own inputs from the
// spec, exactly as slashd members do; cols holds the same inputs for the
// reference fold.
type clusterRunner struct {
	inputs
	spec cluster.Spec
}

func newClusterRunner(cfg config) (*clusterRunner, error) {
	spec := cluster.Spec{Workload: "nb8", Nodes: nodes, Threads: 1, Records: cfg.scaled(200_000), Seed: cfg.seed}
	q, flows, err := gen.Build(spec.Workload, spec.Nodes, spec.Threads, spec.Records, spec.Seed)
	if err != nil {
		return nil, err
	}
	return &clusterRunner{inputs: inputs{q: q, cols: materialize(flows)}, spec: spec}, nil
}

// runCluster is one cluster run, bring-up and teardown included. stores, when
// non-nil, receive the members' journals.
func runCluster(spec cluster.Spec, stores []*recovery.MemStore) (*cluster.Result, time.Duration, error) {
	t0 := time.Now()
	co, err := cluster.NewCoordinator(cluster.CoordinatorOptions{Spec: spec})
	if err != nil {
		return nil, 0, err
	}
	defer co.Close()
	errs := make(chan error, spec.Nodes)
	for rank := 0; rank < spec.Nodes; rank++ {
		opts := cluster.WorkerOptions{Coordinator: co.Addr(), Rank: rank}
		if stores != nil {
			opts.Store = stores[rank]
		}
		w := cluster.NewWorker(opts)
		go func() { errs <- w.Run() }()
	}
	res, err := co.Run()
	if err != nil {
		co.Close() // unblocks members still waiting on the coordinator
	}
	for range spec.Nodes {
		if werr := <-errs; werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		return nil, 0, fmt.Errorf("cluster run: %w", err)
	}
	return res, time.Since(t0), nil
}

func (r *clusterRunner) pass(stores []*recovery.MemStore) (*passResult, *cluster.Result, error) {
	ref, err := r.reference()
	if err != nil {
		return nil, nil, err
	}
	res, wall, err := runCluster(r.spec, stores)
	if err != nil {
		return nil, nil, err
	}
	p := &passResult{wall: wall}
	for _, m := range res.Reports {
		p.records += m.Records
	}
	// Sink rows leave the worker processes only with the final result, so
	// every window of a cluster pass is emitted when the result arrives: one
	// latency per pass, from its start.
	p.latMs = []float64{float64(wall) / 1e6}
	p.attempted, p.failed = checkClusterRows(res.Rows, ref)
	return p, res, nil
}

func (r *clusterRunner) measure(cfg config) (*measured, error) {
	return measurePasses(cfg, func() (*passResult, error) {
		p, _, err := r.pass(nil)
		return p, err
	})
}

func (r *clusterRunner) trace(cfg config) (*traced, error) {
	ref, err := r.reference()
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	t, err := startTrace(cfg, replaySpec{q: r.q, flows: r.batchFlows(), ref: ref, tcp: true})
	if err != nil {
		return nil, err
	}

	// Control-plane bring-up gets its own row: the same spec with one record
	// per flow, so nearly all of the time is register, MR exchange, QP dial,
	// barrier and teardown.
	empty := r.spec
	empty.Records = 1
	var bringup []float64
	for i := 0; i < 3; i++ {
		_, wall, err := runCluster(empty, nil)
		if err != nil {
			return nil, err
		}
		bringup = append(bringup, float64(wall)/1e6)
	}
	t.values["cluster.bringup_teardown_ms"] = median(bringup)

	// Engine counters: the members take no metrics registry (ROADMAP item 5),
	// so the cluster ledger is what MemberReport and the journals carry, and
	// there is no traced/untraced pair to take an overhead from.
	var tot engineTotals
	var lat []float64
	var journal int64
	proc := startProcStats()
	for n := 0; n < 2 || time.Now().Before(deadline); n++ {
		stores := make([]*recovery.MemStore, nodes)
		for i := range stores {
			stores[i] = recovery.NewMemStore()
		}
		p, res, err := r.pass(stores)
		if err != nil {
			return nil, err
		}
		t.attempted += p.attempted
		t.failed += p.failed
		proc.records += p.records
		lat = append(lat, p.latMs...)
		for _, m := range res.Reports {
			tot.records += m.Records
			tot.netTxBytes += m.NetTxBytes
			tot.netTxMsgs += m.NetTxMsgs
			tot.chunksMerged += m.ChunksMerged
			tot.windows += m.WindowsOutput
		}
		for i, s := range stores {
			recs, err := s.Load(i)
			if err != nil {
				return nil, err
			}
			for _, rec := range recs {
				journal += int64(len(rec.Payload) + 8*len(rec.Clock))
			}
		}
	}
	proc.fill(t.values)
	fillEngineCounters(t.values, metrics.Snapshot{}, tot)
	t.values["recovery.journal_bytes_per_mrec"] = ratio(float64(journal), float64(tot.records)) * 1e6
	t.values["sink.emit_latency_p99_ms"] = p99(lat)
	return t, nil
}
