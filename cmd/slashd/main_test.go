package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/slash-stream/slash/internal/cluster"
	"github.com/slash-stream/slash/internal/core"
	"github.com/slash-stream/slash/internal/workload"
)

// TestWriteDumpMatchesOracle: the dump a coordinator writes of a cluster
// Result is byte-identical to the dump of the same spec run in-process, for
// an aggregate workload and a join workload.
func TestWriteDumpMatchesOracle(t *testing.T) {
	for _, name := range []string{"ysb", "nb8"} {
		spec := cluster.Spec{Workload: name, Nodes: 2, Threads: 2, Records: 3000, Seed: 5}

		q, flows, err := workload.Build(spec.Workload, spec.Nodes, spec.Threads, spec.Records, spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		oracle := &core.Collector{}
		if _, err := core.Run(core.Config{Nodes: spec.Nodes, ThreadsPerNode: spec.Threads}, q, flows, oracle); err != nil {
			t.Fatal(err)
		}
		want := cluster.RenderRows(cluster.CollectRows(oracle))

		co, err := cluster.NewCoordinator(cluster.CoordinatorOptions{Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		errs := make(chan error, spec.Nodes)
		for rank := 0; rank < spec.Nodes; rank++ {
			w := cluster.NewWorker(cluster.WorkerOptions{Coordinator: co.Addr(), Rank: rank})
			go func() { errs <- w.Run() }()
		}
		res, err := co.Run()
		co.Close()
		for range spec.Nodes {
			if werr := <-errs; werr != nil && err == nil {
				err = werr
			}
		}
		if err != nil {
			t.Fatalf("%s: cluster run: %v", name, err)
		}

		path := filepath.Join(t.TempDir(), name+".dump")
		if err := writeDump(path, res.Rows); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%s: the cluster emitted no rows", name)
		}
		if string(got) != want {
			t.Fatalf("%s: dump of %d cluster rows differs from the oracle's %d-byte dump", name, len(res.Rows), len(want))
		}
	}
}

// TestModeFlags: each mode accepts the flags it honours — including the ones
// scripts/multiproc-smoke.sh passes — and rejects, naming flag and mode, a
// flag it would silently ignore.
func TestModeFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string // "" accepts; otherwise a substring of the error
	}{
		{[]string{"-workload", "nb7", "-nodes", "3", "-threads", "2", "-records", "100000", "-seed", "7", "-epoch", "8192", "-dump", "x.rows"}, ""},
		{[]string{"-metrics", "-metrics-addr", ":0", "-state-addr", ":0", "-state-readers", "2", "-throttle", "-results", "3", "-credits", "4"}, ""},
		{[]string{"-checkpoint-dir", "j", "-checkpoint-interval", "4"}, ""},
		{[]string{"-rank", "1"}, "-rank has no effect in in-process mode"},
		{[]string{"-listen", "127.0.0.1:0", "-workload", "nb7", "-nodes", "3", "-threads", "2", "-records", "100000", "-seed", "7", "-epoch", "8192", "-dump", "x.rows"}, ""},
		{[]string{"-listen", "127.0.0.1:0", "-credits", "4", "-checkpoint-interval", "4"}, ""},
		{[]string{"-listen", "127.0.0.1:0", "-metrics"}, "-metrics has no effect in -listen mode"},
		{[]string{"-listen", "127.0.0.1:0", "-metrics-addr", ":0"}, "-metrics-addr has no effect in -listen mode"},
		{[]string{"-listen", "127.0.0.1:0", "-state-addr", ":0"}, "-state-addr has no effect in -listen mode"},
		{[]string{"-listen", "127.0.0.1:0", "-state-readers", "2"}, "-state-readers has no effect in -listen mode"},
		{[]string{"-listen", "127.0.0.1:0", "-throttle"}, "-throttle has no effect in -listen mode"},
		{[]string{"-listen", "127.0.0.1:0", "-results", "3"}, "-results has no effect in -listen mode"},
		{[]string{"-listen", "127.0.0.1:0", "-checkpoint-dir", "j"}, "-checkpoint-dir has no effect in -listen mode"},
		{[]string{"-listen", "127.0.0.1:0", "-rank", "1"}, "-rank has no effect in -listen mode"},
		{[]string{"-join", "127.0.0.1:7070", "-rank", "2", "-checkpoint-dir", "j"}, ""},
		{[]string{"-join", "127.0.0.1:7070", "-rank", "0", "-workload", "nb8"}, "-workload has no effect in -join mode"},
		{[]string{"-join", "127.0.0.1:7070", "-rank", "0", "-dump", "-"}, "-dump has no effect in -join mode"},
		{[]string{"-join", "127.0.0.1:7070", "-checkpoint-interval", "4"}, "-checkpoint-interval has no effect in -join mode"},
		{[]string{"-join", "127.0.0.1:7070", "-listen", "127.0.0.1:0"}, "mutually exclusive"},
	} {
		fs := flag.NewFlagSet("slashd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		defineFlags(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("%v: parse: %v", c.args, err)
		}
		err := checkModeFlags(fs)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%v: rejected: %v", c.args, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%v: err = %v, want %q", c.args, err, c.want)
		}
	}
}
