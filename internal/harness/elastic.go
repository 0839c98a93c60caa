package harness

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"time"

	"github.com/slash-stream/slash/internal/core"
	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/stream"
	"github.com/slash-stream/slash/internal/window"
)

// elasticWinSize is the tumbling window extent of the phased workload; each
// input phase spans elasticPhaseWins windows, so the scale-out cutover lands
// at window 5 and the scale-in cutover at window 10, deterministically.
const (
	elasticWinSize   = 500
	elasticPhaseWins = 5
)

// elasticPhase generates per-flow record slices whose timestamps all fall in
// [lo, hi), non-decreasing within a flow, with the last record pinned to
// hi-1 so every phase deterministically touches its final window (which pins
// where AutoCutover resolves).
func elasticPhase(rng *rand.Rand, flows, perFlow int, lo, hi int64) ([][]stream.Record, []stream.Record) {
	out := make([][]stream.Record, flows)
	var all []stream.Record
	for f := range out {
		times := make([]int64, perFlow)
		for i := range times {
			times[i] = lo + rng.Int63n(hi-lo)
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		times[len(times)-1] = hi - 1
		recs := make([]stream.Record, perFlow)
		for i := range recs {
			recs[i] = stream.Record{
				Key:  uint64(rng.Intn(4096)),
				Time: times[i],
				V0:   rng.Int63n(100) - 50,
			}
		}
		out[f] = recs
		all = append(all, recs...)
	}
	return out, all
}

// aggSet canonicalizes a collector's aggregation rows for comparison.
func aggSet(col *core.Collector) map[[2]uint64]int64 {
	out := map[[2]uint64]int64{}
	for _, r := range col.Aggs() {
		out[[2]uint64{r.Win, r.Key}] = r.Value
	}
	return out
}

// elasticWait polls cond until it holds, the controller fails, or a deadline
// passes — the harness-side half of the reconfiguration orchestration.
func elasticWait(c *core.Controller, what string, cond func() bool) error {
	deadline := time.Now().Add(2 * time.Minute)
	for !cond() {
		if err := c.Err(); err != nil {
			return fmt.Errorf("elastic: run failed while waiting for %s: %w", what, err)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("elastic: timeout waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// Elastic reproduces the paper's elasticity claim end to end (§7.2, §8:
// reconfiguration without state migration). A phased sum workload runs on 4
// nodes, scales out to 8 at the first phase boundary (AddNodes at an
// epoch-aligned barrier, AutoCutover), and back to 4 at the second
// (drain-then-leave RemoveNodes); a static 8-node run over the identical
// dataset provides the differential baseline. The experiment asserts the
// window results of the two runs are identical — membership changes must not
// leak into results — and reports barrier-to-active / install-to-drained
// reconfiguration durations plus the delta chunks left in flight at each
// barrier (the state the late-merge path absorbed instead of a migration).
func Elastic(o Options) ([]Row, error) {
	o = o.fill()
	const initial, joiners = 4, 4
	T := o.Threads
	perFlow := o.scaled(20_000)
	rng := rand.New(rand.NewSource(o.Seed))

	const phaseSpan = elasticPhaseWins * elasticWinSize
	phaseA, allA := elasticPhase(rng, initial*T, perFlow, 0, phaseSpan)
	phaseB, allB := elasticPhase(rng, (initial+joiners)*T, perFlow, phaseSpan, 2*phaseSpan)
	phaseC, allC := elasticPhase(rng, initial*T, perFlow, 2*phaseSpan, 3*phaseSpan)
	all := append(append(append([]stream.Record(nil), allA...), allB...), allC...)

	win, err := window.NewTumbling(elasticWinSize)
	if err != nil {
		return nil, err
	}
	mkQuery := func() *core.Query {
		return &core.Query{Name: "elastic", Codec: stream.MustCodec(32), Window: win, Agg: crdt.Sum{}}
	}
	// Node n thread t's full stream: phases A and C belong to the initial
	// nodes, phase B is split across all eight.
	fullStream := func(n, t int) []stream.Record {
		f := n*T + t
		s := append([]stream.Record(nil), phaseA[f]...)
		s = append(s, phaseB[f]...)
		return append(s, phaseC[f]...)
	}

	// Static baseline: all eight nodes active for the whole run.
	staticFlows := make([][]core.Flow, initial+joiners)
	for n := range staticFlows {
		staticFlows[n] = make([]core.Flow, T)
		for t := range staticFlows[n] {
			if n < initial {
				staticFlows[n][t] = core.NewColumnarFlow(fullStream(n, t))
			} else {
				staticFlows[n][t] = core.NewColumnarFlow(phaseB[n*T+t])
			}
		}
	}
	staticCol := &core.Collector{}
	staticCfg := core.Config{
		Nodes: initial + joiners, ThreadsPerNode: T,
		Fabric: endToEndFabric(), Metrics: o.Metrics,
	}
	staticStart := time.Now()
	staticRep, err := core.Run(staticCfg, mkQuery(), staticFlows, staticCol)
	if err != nil {
		return nil, fmt.Errorf("elastic: static baseline: %w", err)
	}
	o.logf("elastic static   %12d recs  %8.3fs  %14.0f rec/s",
		staticRep.Records, time.Since(staticStart).Seconds(), staticRep.RecordsPerSec)

	// Elastic run: 4 nodes, fenced at both phase boundaries.
	gates := make([][]*core.ColumnarFlow, initial)
	elasticFlows := make([][]core.Flow, initial)
	for n := range elasticFlows {
		gates[n] = make([]*core.ColumnarFlow, T)
		elasticFlows[n] = make([]core.Flow, T)
		for t := range elasticFlows[n] {
			gates[n][t] = core.NewColumnarFlow(fullStream(n, t), phaseSpan, 2*phaseSpan)
			elasticFlows[n][t] = gates[n][t]
		}
	}
	joinFlows := make([][]core.Flow, joiners)
	for j := range joinFlows {
		joinFlows[j] = make([]core.Flow, T)
		for t := range joinFlows[j] {
			joinFlows[j][t] = core.NewColumnarFlow(phaseB[(initial+j)*T+t])
		}
	}

	cfg := core.Config{
		Nodes: initial, MaxNodes: initial + joiners, ThreadsPerNode: T,
		Fabric: endToEndFabric(), Metrics: o.Metrics,
	}
	col := &core.Collector{}
	c, err := core.NewController(cfg, mkQuery(), elasticFlows, col)
	if err != nil {
		return nil, fmt.Errorf("elastic: %w", err)
	}
	c.Start()

	atFence := func(k int) func() bool {
		return func() bool {
			for _, row := range gates {
				for _, g := range row {
					if !g.AtFence(k) {
						return false
					}
				}
			}
			return true
		}
	}
	openFence := func() {
		for _, row := range gates {
			for _, g := range row {
				g.Open()
			}
		}
	}

	if err := elasticWait(c, "phase A to drain", atFence(0)); err != nil {
		return nil, err
	}
	ids, err := c.AddNodes(joinFlows, core.AutoCutover)
	if err != nil {
		return nil, fmt.Errorf("elastic: scale-out: %w", err)
	}
	o.logf("elastic scale-out 4->8 at gen %d", c.Generation())
	openFence()

	joinersDone := func() bool {
		for _, id := range ids {
			if !c.SourcesDone(id) {
				return false
			}
		}
		return true
	}
	if err := elasticWait(c, "phase B to drain", func() bool { return joinersDone() && atFence(1)() }); err != nil {
		return nil, err
	}
	if err := c.RemoveNodes(ids, core.AutoCutover); err != nil {
		return nil, fmt.Errorf("elastic: scale-in: %w", err)
	}
	o.logf("elastic scale-in  8->4 at gen %d", c.Generation())
	openFence()

	rep, err := c.Wait()
	if err != nil {
		return nil, fmt.Errorf("elastic: %w", err)
	}
	if want := int64(len(all)); rep.Records != want {
		return nil, fmt.Errorf("elastic: ingested %d records, want %d", rep.Records, want)
	}

	// The differential assertion: results must be byte-identical to the
	// static baseline — placement and membership history leak nothing.
	if !reflect.DeepEqual(aggSet(col), aggSet(staticCol)) {
		return nil, fmt.Errorf("elastic: window results differ from the static %d-node baseline", initial+joiners)
	}

	recs := c.Reconfigs()
	if len(recs) != 2 || recs[0].Kind != "add" || recs[1].Kind != "remove" {
		return nil, fmt.Errorf("elastic: unexpected reconfiguration history %+v", recs)
	}
	rows := []Row{{
		Experiment: "elastic", Workload: "phased-sum", System: "slash",
		Params:  fmt.Sprintf("nodes=%d->%d->%d", initial, initial+joiners, initial),
		Records: rep.Records, Elapsed: rep.Elapsed, RecsPerSec: rep.RecordsPerSec,
		Metrics: map[string]float64{"match_static": 1, "generation": float64(c.Generation())},
	}}
	for _, r := range recs {
		rows = append(rows, Row{
			Experiment: "elastic", Workload: "phased-sum", System: "slash",
			Params: fmt.Sprintf("reconfig=%s cutover=%d", r.Kind, r.Cutover),
			Metrics: map[string]float64{
				"core_reconfig_duration_seconds": r.Duration.Seconds(),
				"inflight_chunks":                float64(r.InflightChunks),
				"generation":                     float64(r.Gen),
			},
		})
		o.logf("elastic reconfig %-6s cutover=%d gen=%d  %8.3fms  inflight=%d",
			r.Kind, r.Cutover, r.Gen, float64(r.Duration.Microseconds())/1e3, r.InflightChunks)
	}
	rows = append(rows, Row{
		Experiment: "elastic", Workload: "phased-sum", System: "slash",
		Params:  fmt.Sprintf("nodes=%d static-baseline", initial+joiners),
		Records: staticRep.Records, Elapsed: staticRep.Elapsed, RecsPerSec: staticRep.RecordsPerSec,
		Metrics: map[string]float64{"match_static": 1},
	})
	return rows, nil
}
