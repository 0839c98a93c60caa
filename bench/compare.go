package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one (workload, metric) row.
const (
	notWorse   = "not worse"
	worse      = "worse"
	unresolved = "unresolved"
)

// verdict applies one end-to-end metric's bound to a parent and a change. The
// change is worse when its median is worse than the parent's by more than the
// bound. Where either run's own quartile spread is wider than the bound, the
// two medians cannot be told apart at that resolution: unresolved, not
// unchanged.
func verdict(d metricDef, parent, change sample) string {
	if parent.Value == 0 {
		return unresolved
	}
	delta := (change.Value - parent.Value) / parent.Value
	if d.Better == "higher" {
		delta = -delta
	}
	spread := func(s sample) float64 { return ratio(s.Q3-s.Q1, s.Value) }
	switch {
	case max(spread(parent), spread(change)) > d.Bound:
		return unresolved
	case delta > d.Bound:
		return worse
	}
	return notWorse
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareMain is `bench compare parent.json change.json`: one row per
// (workload, end-to-end metric), exit 1 on any worse row or a higher
// failed_ratio.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare parent.json change.json")
		return 2
	}
	parent, err := readReport(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	change, err := readReport(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	changed := map[string]workloadReport{}
	for _, w := range change.Workloads {
		changed[w.Name] = w
	}
	bad := false
	for _, pw := range parent.Workloads {
		cw, ok := changed[pw.Name]
		if !ok {
			fmt.Fprintf(stdout, "%-18s %-22s missing from %s\n", pw.Name, "", args[1])
			bad = true
			continue
		}
		for _, d := range endToEnd {
			p, c := pw.EndToEnd[d.Name], cw.EndToEnd[d.Name]
			v := verdict(d, p, c)
			bad = bad || v == worse
			fmt.Fprintf(stdout, "%-18s %-22s %14.6g -> %14.6g %-5s bound %2.0f%%  %s\n", pw.Name, d.Name, p.Value, c.Value, d.Unit, d.Bound*100, v)
		}
		v := notWorse
		if cw.FailedRatio > pw.FailedRatio {
			v, bad = worse, true
		}
		fmt.Fprintf(stdout, "%-18s %-22s %14.6g -> %14.6g %-5s any rise    %s\n", pw.Name, "failed_ratio", pw.FailedRatio, cw.FailedRatio, "ratio", v)
	}
	if bad {
		return 1
	}
	return 0
}
