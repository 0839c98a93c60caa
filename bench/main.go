// Command bench is the repository's benchmark: five workloads, end-to-end
// throughput and emit latency with tracing off, and an outside-in per-layer
// trace taken in separate passes. See README.md in this directory.
//
//	go run -C bench . --workload ysb_replay --seed 42 --seconds 10 --trace 0
//	go run -C bench . -seed 42 -out r.json        # all five, both passes
//	go run -C bench . compare a.json b.json
//
// The fabric is the in-process rdma simulator; nb8_cluster_tcp crosses
// loopback TCP, not a link.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this workload and print one result line; empty runs all five, both passes")
	seed := fs.Int64("seed", 42, "seed the inputs are made from")
	seconds := fs.Float64("seconds", 10, "how long one workload measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced passes")
	out := fs.String("out", "", "write the full report of an all-workload run to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, scale: 1, outDir: "out"}

	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		res, err := runWorkload(w, cfg, *trace != 0)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		res.print(stdout)
		line, _ := json.Marshal(res.driverLine())
		fmt.Fprintf(stdout, "%s\n", line)
		return 0
	}

	rep := report{
		Seed: *seed, Seconds: *seconds,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Fabric: "in-process rdma simulator; nb8_cluster_tcp crosses loopback TCP, not a link",
	}
	failed := false
	for _, w := range workloads {
		wr := workloadReport{Name: w.name, Why: w.why}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, cfg, traced)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			res.print(stdout)
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			if traced {
				wr.PerLayer = res.PerLayer
			} else {
				wr.EndToEnd = res.EndToEnd
			}
		}
		wr.FailedRatio = ratio(float64(wr.Failed), float64(wr.Attempted))
		failed = failed || wr.Failed > 0
		rep.Workloads = append(rep.Workloads, wr)
	}
	if *out != "" {
		data, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if failed {
		fmt.Fprintln(stderr, "bench: outputs differ from the reference")
		return 1
	}
	return 0
}

// report is what an all-workload run writes with -out and what compare reads.
type report struct {
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	GoVersion  string           `json:"go_version"`
	NumCPU     int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Fabric     string           `json:"fabric"`
	Workloads  []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name        string             `json:"name"`
	Why         string             `json:"why"`
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	FailedRatio float64            `json:"failed_ratio"`
	EndToEnd    map[string]sample  `json:"end_to_end"`
	PerLayer    map[string]layered `json:"per_layer"`
}

// layered is one per-layer metric with what it is expected to move.
type layered struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Moves string  `json:"moves"`
}

// result is one workload run in one mode.
type result struct {
	Workload  string
	Attempted int64
	Failed    int64
	EndToEnd  map[string]sample  // tracing off
	PerLayer  map[string]layered // traced passes
}

// setupRuns is how many times a run repeats the set-up; setup_s is their
// median, so one slow page-fault storm does not set the figure.
const setupRuns = 5

func runWorkload(w workload, cfg config, traced bool) (*result, error) {
	cfg.name = w.name
	res := &result{Workload: w.name}
	var r runner
	var setups []float64
	n := setupRuns
	if traced {
		n = 1 // setup_s is an end-to-end metric; a traced run only needs the inputs
	}
	for i := 0; i < n; i++ {
		r = nil
		runtime.GC() // the previous set-up's inputs are garbage; do not time collecting them
		t0 := time.Now()
		var err error
		if r, err = w.prepare(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if traced {
		t, err := r.trace(cfg)
		if err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = t.attempted, t.failed
		res.PerLayer = map[string]layered{}
		for _, d := range perLayer {
			res.PerLayer[d.Name] = layered{Value: t.values[d.Name], Unit: d.Unit, Moves: d.Moves}
		}
		return res, nil
	}
	m, err := r.measure(cfg)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = m.attempted, m.failed
	samples := map[string][]float64{
		"setup_s":             setups,
		"records_per_s":       m.recordsPerS,
		"emit_latency_p50_ms": m.latP50Ms,
		"emit_latency_p90_ms": m.latP90Ms,
	}
	res.EndToEnd = map[string]sample{}
	for _, d := range endToEnd {
		res.EndToEnd[d.Name] = summarize(samples[d.Name], d.Unit)
	}
	return res, nil
}

// driverMetric and driverResult are the last line of a one-workload run.
type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

func (r *result) driverLine() driverResult {
	d := driverResult{Correct: r.Failed == 0 && r.Attempted > 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverMetric{}}
	for name, s := range r.EndToEnd {
		d.Metrics[name] = driverMetric{s.Value, s.Unit}
	}
	for name, l := range r.PerLayer {
		d.Metrics[name] = driverMetric{l.Value, l.Unit}
	}
	return d
}

// print lists every metric by name and unit.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "## %s  GOMAXPROCS=%d  attempted=%d failed=%d failed_ratio=%g\n",
		r.Workload, runtime.GOMAXPROCS(0), r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)))
	for _, d := range endToEnd {
		if s, ok := r.EndToEnd[d.Name]; ok {
			fmt.Fprintf(w, "%-36s %16.6g %-6s q1=%.6g q3=%.6g n=%d\n", d.Name, s.Value, s.Unit, s.Q1, s.Q3, s.N)
		}
	}
	names := make([]string, 0, len(r.PerLayer))
	for name := range r.PerLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-36s %16.6g %s\n", name, r.PerLayer[name].Value, r.PerLayer[name].Unit)
	}
}
