package harness

import (
	"fmt"
	"sync"
	"time"

	"github.com/slash-stream/slash/internal/cluster"
	"github.com/slash-stream/slash/internal/core"
	"github.com/slash-stream/slash/internal/recovery"
	"github.com/slash-stream/slash/internal/workload"
)

// multiprocNodes is the deployment shape: 3 members is the smallest mesh
// where a voted restart has a quorum of survivors reporting on the victim.
const multiprocNodes = 3

// MultiProc is the multi-process differential smoke, in-binary: the same
// spec runs once on the in-process engine (the oracle) and twice as a real
// coordinator-plus-workers cluster over the TCP-framed verbs backend on
// loopback — once clean, once with a member killed mid-run and respawned
// against its journal. Both cluster runs must produce sink output
// byte-identical to the oracle; any divergence is an error, which is what
// lets CI gate on it. The process-granular version of the same check (real
// slashd processes, SIGKILL) is scripts/multiproc-smoke.sh.
func MultiProc(o Options) ([]Row, error) {
	o = o.fill()
	// Small epochs journal progress early, so the chaos kill lands mid-run
	// with real state to restore instead of a from-scratch rerun.
	spec := cluster.Spec{
		Workload:   "nb7",
		Nodes:      multiprocNodes,
		Threads:    o.Threads,
		Records:    o.scaled(20000),
		Seed:       o.Seed,
		EpochBytes: 8 << 10,
	}

	oracle, oracleElapsed, err := multiprocOracle(spec)
	if err != nil {
		return nil, fmt.Errorf("multiproc: oracle: %w", err)
	}
	want := cluster.RenderRows(oracle)
	total := int64(spec.Nodes * spec.Threads * spec.Records)
	rows := []Row{{
		Experiment: "multiproc",
		Workload:   spec.Workload,
		System:     "slash",
		Params:     "mode=in-process",
		Records:    total,
		Elapsed:    oracleElapsed,
		RecsPerSec: float64(total) / oracleElapsed.Seconds(),
		Metrics:    map[string]float64{"rows": float64(len(oracle)), "restarts": 0},
	}}
	o.logf("multiproc oracle     %8d recs  %7.3fs  %5d rows",
		total, oracleElapsed.Seconds(), len(oracle))

	for _, chaos := range []bool{false, true} {
		res, elapsed, err := multiprocCluster(spec, chaos)
		if err != nil {
			return nil, err
		}
		mode := "cluster"
		if chaos {
			mode = "cluster+kill"
		}
		if got := cluster.RenderRows(res.Rows); got != want {
			return nil, fmt.Errorf("multiproc: %s output diverges from oracle (%d vs %d rows)",
				mode, len(res.Rows), len(oracle))
		}
		var recoveries, replayed int
		for _, r := range res.Reports {
			recoveries += r.Recoveries
			replayed += r.ReplayedChunks
		}
		if chaos && (res.Restarts < 1 || recoveries < 1) {
			return nil, fmt.Errorf("multiproc: chaos run saw %d restarts, %d recoveries; want >=1 of each",
				res.Restarts, recoveries)
		}
		rows = append(rows, Row{
			Experiment: "multiproc",
			Workload:   spec.Workload,
			System:     "slash",
			Params:     "mode=" + mode,
			Records:    total,
			Elapsed:    elapsed,
			RecsPerSec: float64(total) / elapsed.Seconds(),
			Metrics: map[string]float64{
				"rows":       float64(len(res.Rows)),
				"restarts":   float64(res.Restarts),
				"recoveries": float64(recoveries),
				"replayed":   float64(replayed),
			},
		})
		o.logf("multiproc %-11s%8d recs  %7.3fs  %5d rows  byte-identical (restarts=%d)",
			mode, total, elapsed.Seconds(), len(res.Rows), res.Restarts)
	}
	return rows, nil
}

// multiprocOracle runs the spec on the in-process engine.
func multiprocOracle(spec cluster.Spec) ([]cluster.Row, time.Duration, error) {
	q, flows, err := workload.Build(spec.Workload, spec.Nodes, spec.Threads, spec.Records, spec.Seed)
	if err != nil {
		return nil, 0, err
	}
	sink := &core.Collector{}
	start := time.Now()
	if _, err := core.Run(core.Config{
		Nodes:          spec.Nodes,
		ThreadsPerNode: spec.Threads,
		EpochBytes:     spec.EpochBytes,
	}, q, flows, sink); err != nil {
		return nil, 0, err
	}
	return cluster.CollectRows(sink), time.Since(start), nil
}

// multiprocCluster runs the spec as one coordinator plus spec.Nodes workers
// (each an independent goroutine speaking the real control plane over TCP).
// With chaos set, the last rank is killed once its journal shows progress
// and respawned against the same store.
func multiprocCluster(spec cluster.Spec, chaos bool) (*cluster.Result, time.Duration, error) {
	co, err := cluster.NewCoordinator(cluster.CoordinatorOptions{Spec: spec})
	if err != nil {
		return nil, 0, err
	}
	defer co.Close()
	stores := make([]recovery.Store, spec.Nodes)
	for r := range stores {
		stores[r] = recovery.NewMemStore()
	}
	var wg sync.WaitGroup
	workerErrs := make([]error, spec.Nodes)
	workers := make([]*cluster.Worker, spec.Nodes)
	start := time.Now()
	for r := 0; r < spec.Nodes; r++ {
		workers[r] = cluster.NewWorker(cluster.WorkerOptions{Coordinator: co.Addr(), Rank: r, Store: stores[r]})
		wg.Add(1)
		go func(r int, w *cluster.Worker) {
			defer wg.Done()
			workerErrs[r] = w.Run()
		}(r, workers[r])
	}
	resCh := make(chan *cluster.Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := co.Run()
		resCh <- res
		errCh <- err
	}()

	var respawn *cluster.Worker
	if chaos {
		const victim = multiprocNodes - 1
		deadline := time.Now().Add(20 * time.Second)
		for {
			recs, err := stores[victim].Load(victim)
			if err != nil {
				co.Close()
				wg.Wait()
				return nil, 0, fmt.Errorf("multiproc: journal load: %w", err)
			}
			if len(recs) >= 3 {
				break
			}
			if time.Now().After(deadline) {
				co.Close()
				wg.Wait()
				return nil, 0, fmt.Errorf("multiproc: victim journal never grew; run finished too fast to kill")
			}
			time.Sleep(2 * time.Millisecond)
		}
		workers[victim].Kill()
		// Let the coordinator observe the death before the respawn dials in,
		// matching real process timing (SIGKILL EOF precedes re-exec).
		time.Sleep(100 * time.Millisecond)
		respawn = cluster.NewWorker(cluster.WorkerOptions{Coordinator: co.Addr(), Rank: victim, Store: stores[victim]})
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The killed goroutine still owns workerErrs[victim]; the chaos
			// gate is the coordinator's merged result, not this error.
			_ = respawn.Run()
		}()
	}

	res := <-resCh
	runErr := <-errCh
	elapsed := time.Since(start)
	if runErr != nil {
		// Unblock every worker goroutine before reporting, so a failed run
		// returns instead of leaking a wedged cluster.
		co.Close()
		if respawn != nil {
			respawn.Kill()
		}
		wg.Wait()
		return nil, 0, fmt.Errorf("multiproc: coordinator: %w", runErr)
	}
	// A kill that landed after the victim reported leaves the respawn waiting
	// for a welcome that never comes; closing the finished coordinator
	// releases it, and the restart check below names the miss.
	co.Close()
	wg.Wait()
	if !chaos {
		for r, e := range workerErrs {
			if e != nil {
				return nil, 0, fmt.Errorf("multiproc: worker %d: %w", r, e)
			}
		}
	}
	return res, elapsed, nil
}
