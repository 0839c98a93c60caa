package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkJSON is ../BENCHMARK.json, the driver's view of the benchmark.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the program's own
// tables in step: same workloads with the same why, same metrics with the
// same unit, direction and bound, in the same order.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q (or their why differs)", i, b.Workloads[i].Name, w.name)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or why of %d characters", w.name, len(w.why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if g := b.EndToEnd[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, g, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		if g := b.PerLayer[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, g, d)
		}
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("per-layer name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmoke runs all five workloads, measured and traced, at about 1/100 size.
func TestSmoke(t *testing.T) {
	start := time.Now()
	cfg := config{seed: 7, seconds: 0.4, scale: 0.01, outDir: t.TempDir()}
	for _, w := range workloads {
		res, err := runWorkload(w, cfg, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: attempted %d failed %d", w.name, res.Attempted, res.Failed)
		}
		if len(res.EndToEnd) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.name, len(res.EndToEnd), len(endToEnd))
		}
		for _, d := range endToEnd {
			if s, ok := res.EndToEnd[d.Name]; !ok || s.Unit != d.Unit || s.N == 0 {
				t.Errorf("%s: end-to-end metric %s missing, without unit or without samples: %+v", w.name, d.Name, s)
			}
		}

		res, err = runWorkload(w, cfg, true)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s traced: attempted %d failed %d", w.name, res.Attempted, res.Failed)
		}
		if len(res.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.name, len(res.PerLayer), len(perLayer))
		}
		for _, d := range perLayer {
			if l, ok := res.PerLayer[d.Name]; !ok || l.Unit != d.Unit {
				t.Errorf("%s: per-layer metric %s missing or without unit", w.name, d.Name)
			}
		}
		if c := res.PerLayer["trace.coverage_pct"].Value; c < 95 {
			t.Errorf("%s: trace.coverage_pct = %.1f, want >= 95", w.name, c)
		}

		data, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			Spans []span `json:"spans"`
		}
		if err := json.Unmarshal(data, &tr); err != nil {
			t.Fatalf("%s: trace file: %v", w.name, err)
		}
		if len(tr.Spans) == 0 || tr.Spans[0].Parent != -1 {
			t.Fatalf("%s: trace has %d spans or no root", w.name, len(tr.Spans))
		}
		for i, s := range tr.Spans[1:] {
			if s.Parent < 0 || int(s.Parent) >= len(tr.Spans) || s.End < s.Start {
				t.Fatalf("%s: span %d (%s) has parent %d of %d spans, or ends before it starts", w.name, i+1, s.Name, s.Parent, len(tr.Spans))
			}
		}
	}
	t.Logf("smoke run took %v", time.Since(start)) // meant to stay well under 20 s
}

// TestVerdict pins the compare rule: worse beyond the bound, unresolved when
// a run's own spread exceeds it, otherwise not worse.
func TestVerdict(t *testing.T) {
	higher := metricDef{Name: "records_per_s", Better: "higher", Bound: 0.10}
	lower := metricDef{Name: "emit_latency_p50_ms", Better: "lower", Bound: 0.10}
	tight := func(v float64) sample { return sample{Value: v, Q1: v * 0.99, Q3: v * 1.01, N: 20} }
	wide := func(v float64) sample { return sample{Value: v, Q1: v * 0.9, Q3: v * 1.1, N: 20} }
	for _, c := range []struct {
		d             metricDef
		parent, child sample
		want          string
	}{
		{higher, tight(100), tight(95), notWorse},
		{higher, tight(100), tight(85), worse},
		{higher, tight(100), tight(130), notWorse},
		{lower, tight(10), tight(10.5), notWorse},
		{lower, tight(10), tight(11.5), worse},
		{lower, tight(10), wide(11.5), unresolved},
		{lower, sample{}, tight(1), unresolved},
	} {
		if got := verdict(c.d, c.parent, c.child); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.parent.Value, c.child.Value, got, c.want)
		}
	}
}
