// Package harness regenerates every table and figure of the paper's
// evaluation (§8) on the simulated cluster. Each experiment returns rows in
// the shape the paper reports (throughput series per system and node count,
// latency-vs-buffer-size curves, top-down breakdowns, Table 1 metrics), and
// both cmd/slash-bench and the root bench_test.go drive it.
//
// Absolute numbers are not comparable to the paper's 16-node InfiniBand
// testbed — this runs on one host (often one core) against a simulated
// fabric. The reproduction target, recorded in EXPERIMENTS.md, is the shape:
// which system wins, by roughly what factor, and where the crossovers are.
package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"github.com/slash-stream/slash/internal/metrics"
)

// Row is one reported measurement.
type Row struct {
	// Experiment is the figure/table id, e.g. "fig6a".
	Experiment string
	// Workload names the benchmark (ysb, cm, nb7, nb8, nb11, ro).
	Workload string
	// System names the SUT (slash, uppar, flink, lightsaber).
	System string
	// Params describes the configuration point, e.g. "nodes=4".
	Params string
	// Records is the number of ingested records.
	Records int64
	// Elapsed is the wall-clock run time.
	Elapsed time.Duration
	// RecsPerSec is the headline throughput.
	RecsPerSec float64
	// Metrics carries experiment-specific extra columns (latency µs,
	// breakdown fractions, ...), printed in key order.
	Metrics map[string]float64
}

// Options shapes an experiment run.
type Options struct {
	// Scale multiplies the per-flow record volumes (1.0 = harness
	// defaults, sized for a laptop-class host). The paper streams 1 GB
	// per thread; pass larger scales on beefier machines.
	Scale float64
	// Nodes overrides the node counts swept by the scaling experiments
	// (default 2, 4, 8, 16).
	Nodes []int
	// Threads is the per-node source thread count (default 2; the paper
	// uses 10 on 10-core nodes — scale to your host's cores).
	Threads int
	// Seed makes datasets reproducible across systems.
	Seed int64
	// Progress, when non-nil, receives one line per finished run.
	Progress io.Writer
	// Metrics, when non-nil, collects fabric, channel, and engine counters
	// across every run of the experiment (cmd/slash-bench --metrics).
	Metrics *metrics.Registry
}

func (o Options) fill() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if len(o.Nodes) == 0 {
		o.Nodes = []int{2, 4, 8, 16}
	}
	if o.Threads <= 0 {
		o.Threads = 2
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// scaled applies the volume scale with a floor of 1000 records.
func (o Options) scaled(base int) int {
	n := int(float64(base) * o.Scale)
	if n < 1000 {
		n = 1000
	}
	return n
}

// Experiment is a named, runnable experiment.
type Experiment struct {
	// Name is the id accepted by cmd/slash-bench -experiment.
	Name string
	// Title describes what the experiment reproduces.
	Title string
	// Run executes it.
	Run func(Options) ([]Row, error)
}

// Experiments lists every experiment in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig6a", "Fig. 6a: YSB throughput, weak scaling, Flink vs UpPar vs Slash", Fig6a},
		{"fig6b", "Fig. 6b: CM throughput, weak scaling", Fig6b},
		{"fig6c", "Fig. 6c: NB7 throughput, weak scaling", Fig6c},
		{"fig6d", "Fig. 6d: NB8 (join) throughput, weak scaling", Fig6d},
		{"fig6e", "Fig. 6e: NB11 (session join) throughput, weak scaling", Fig6e},
		{"fig7", "Fig. 7: COST analysis vs LightSaber (YSB, CM, NB7)", Fig7},
		{"fig8a", "Fig. 8a: RO throughput vs buffer size (Slash vs UpPar)", Fig8a},
		{"fig8b", "Fig. 8b: RO latency vs buffer size", Fig8b},
		{"fig8c", "Fig. 8c: RO throughput vs parallelism", Fig8c},
		{"fig8d", "Fig. 8d: throughput vs key skew (RO and YSB)", Fig8d},
		{"fig9", "Fig. 9: execution breakdown of RO (modelled)", Fig9},
		{"fig10", "Fig. 10: execution breakdown of YSB (modelled)", Fig10},
		{"table1", "Tab. 1: resource utilization on YSB (modelled)", Table1},
		{"credits", "§8.3.2: credit sweep c ∈ {4,8,16,64}", CreditSweep},
		{"ablations", "Design ablations: WRITE vs READ transfer, polling, epoch length", Ablations},
		{"chaos", "Failure semantics: seeded fault injection (drops, flaps, link kill)", Chaos},
		{"elastic", "§7.2/§8: elastic 4->8->4 scale at epoch-aligned cutovers, zero state migration", Elastic},
		{"recovery", "Failure handling: epoch-aligned checkpoint, node kill, fence-restore-replay", Recovery},
		{"scale", "§7.2.2 setup cost: QP count and registered memory, trunk vs per-pair mesh", Scale},
		{"batchsweep", "Columnar batch size sweep 1→4096 on YSB", BatchSweep},
		{"stateq", "Queryable state: 8 readers over one-sided READs vs a live YSB run, sink byte-match", StateQ},
		{"multiproc", "Multi-process cluster over TCP-framed verbs vs in-process oracle, byte-identical incl. kill+restart", MultiProc},
	}
}

// ByName finds an experiment.
func ByName(name string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// FormatTable renders rows as an aligned text table, one section per
// experiment, with stable column order.
func FormatTable(rows []Row) string {
	var b strings.Builder
	byExp := map[string][]Row{}
	var order []string
	for _, r := range rows {
		if _, ok := byExp[r.Experiment]; !ok {
			order = append(order, r.Experiment)
		}
		byExp[r.Experiment] = append(byExp[r.Experiment], r)
	}
	for _, exp := range order {
		rs := byExp[exp]
		fmt.Fprintf(&b, "== %s ==\n", exp)
		// Collect metric columns.
		metricCols := map[string]bool{}
		for _, r := range rs {
			for k := range r.Metrics {
				metricCols[k] = true
			}
		}
		var cols []string
		for k := range metricCols {
			cols = append(cols, k)
		}
		sort.Strings(cols)
		fmt.Fprintf(&b, "%-10s %-8s %-22s %12s %10s %14s", "workload", "system", "params", "records", "sec", "rec/s")
		for _, c := range cols {
			fmt.Fprintf(&b, " %14s", c)
		}
		b.WriteByte('\n')
		for _, r := range rs {
			fmt.Fprintf(&b, "%-10s %-8s %-22s %12d %10.3f %14.0f",
				r.Workload, r.System, r.Params, r.Records, r.Elapsed.Seconds(), r.RecsPerSec)
			for _, c := range cols {
				if v, ok := r.Metrics[c]; ok {
					fmt.Fprintf(&b, " %14.4f", v)
				} else {
					fmt.Fprintf(&b, " %14s", "-")
				}
			}
			b.WriteByte('\n')
		}
		b.WriteByte('\n')
	}
	return b.String()
}
