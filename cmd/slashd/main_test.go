package main

import (
	"os"
	"path/filepath"
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
