// Command slashd runs one Slash deployment end to end: it builds the
// simulated rack-scale cluster (one executor per node, RDMA channels between
// all pairs), executes a benchmark query over generated flows, and prints
// the execution report — the single-binary equivalent of launching the
// paper's prototype on a cluster.
//
// Usage:
//
//	slashd -workload ysb -nodes 4 -threads 2
//	slashd -workload nb8 -nodes 8 -epoch 4194304 -results 20
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"github.com/slash-stream/slash/internal/cluster"
	"github.com/slash-stream/slash/internal/core"
	"github.com/slash-stream/slash/internal/metrics"
	"github.com/slash-stream/slash/internal/rdma"
	"github.com/slash-stream/slash/internal/recovery"
	"github.com/slash-stream/slash/internal/stateq"
	"github.com/slash-stream/slash/internal/workload"
)

func main() {
	var (
		name     = flag.String("workload", "ysb", "workload: ysb, nb7, nb8, nb11, cm, ro")
		nodes    = flag.Int("nodes", 2, "simulated cluster nodes")
		threads  = flag.Int("threads", 2, "source worker threads per node")
		records  = flag.Int("records", 500_000, "records per thread")
		epoch    = flag.Int64("epoch", 0, "SSB epoch length in bytes (0 = default)")
		credits  = flag.Int("credits", 0, "RDMA channel credits (0 = default 8)")
		throttle = flag.Bool("throttle", false, "pace the simulated fabric at a scaled EDR line rate")
		results  = flag.Int("results", 5, "sample result rows to print")
		seed     = flag.Int64("seed", 42, "workload seed")
		withMx   = flag.Bool("metrics", false, "print a metrics snapshot after the report")
		mxAddr   = flag.String("metrics-addr", "", "serve /metrics (plaintext) and /metrics.json on this address, e.g. :9090")
		ckptDir  = flag.String("checkpoint-dir", "", "arm the recovery plane, journaling epoch-aligned checkpoints under this directory")
		ckptIval = flag.Int("checkpoint-interval", 0, "checkpoint cadence in epoch commits per leader (0 = default 32; needs -checkpoint-dir)")
		stAddr   = flag.String("state-addr", "", "arm the queryable-state plane and serve /state/{windows,lookup,scan,topk} on this address, e.g. :9091")
		stReader = flag.Int("state-readers", 4, "reader clients (reader QPs) backing the -state-addr server")
		listen   = flag.String("listen", "", "coordinate a multi-process cluster on this address (e.g. 127.0.0.1:7070), waiting for -nodes workers")
		join     = flag.String("join", "", "join a coordinator at this address as one worker process (needs -rank; the run spec comes from the coordinator)")
		rank     = flag.Int("rank", 0, "this worker's node rank (with -join)")
		dump     = flag.String("dump", "", "write canonical result rows to this file (\"-\" = stdout) for differential comparison")
	)
	flag.Parse()

	if *listen != "" && *join != "" {
		fatal(fmt.Errorf("-listen and -join are mutually exclusive"))
	}
	if *join != "" {
		runWorker(*join, *rank, *ckptDir)
		return
	}
	if *listen != "" {
		runCoordinator(*listen, cluster.Spec{
			Workload:          *name,
			Nodes:             *nodes,
			Threads:           *threads,
			Records:           *records,
			Seed:              *seed,
			EpochBytes:        *epoch,
			Credits:           *credits,
			CheckpointCommits: *ckptIval,
		}, *dump)
		return
	}

	q, flows, err := workload.Build(*name, *nodes, *threads, *records, *seed)
	if err != nil {
		fatal(err)
	}

	cfg := core.Config{
		Nodes:          *nodes,
		ThreadsPerNode: *threads,
		EpochBytes:     *epoch,
	}
	cfg.Channel.Credits = *credits
	if *throttle {
		cfg.Fabric = rdma.Config{
			LinkBandwidth: rdma.EDRLinkBandwidth / 100,
			BaseLatency:   2 * time.Microsecond,
			Throttle:      true,
		}
	}

	var store *recovery.DirStore
	if *ckptDir != "" {
		store, err = recovery.NewDirStore(*ckptDir)
		if err != nil {
			fatal(err)
		}
		cfg.Recovery = &core.RecoveryOptions{
			Store:             store,
			CheckpointCommits: *ckptIval,
			AutoRestart:       true,
		}
		ival := *ckptIval
		if ival <= 0 {
			ival = 32
		}
		fmt.Fprintf(os.Stderr, "slashd: checkpointing to %s every %d epoch commits\n", store.Dir(), ival)
	} else if *ckptIval != 0 {
		fatal(fmt.Errorf("-checkpoint-interval needs -checkpoint-dir"))
	}

	var reg *metrics.Registry
	if *withMx || *mxAddr != "" {
		reg = metrics.NewRegistry()
		cfg.Metrics = reg
	}
	if *mxAddr != "" {
		ln, err := net.Listen("tcp", *mxAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "slashd: serving metrics on http://%s/metrics\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, metrics.Handler(reg)); err != nil {
				fmt.Fprintln(os.Stderr, "slashd: metrics server:", err)
			}
		}()
	}

	col := &core.Collector{}
	fmt.Fprintf(os.Stderr, "slashd: %d nodes × %d threads, %s, %d records/thread\n",
		*nodes, *threads, q.Name, *records)
	var rep *core.Report
	if *stAddr != "" {
		// Queryable state needs the controller alive while the HTTP surface
		// serves, so run start and wait explicitly instead of core.Run.
		cfg.State = &stateq.Options{}
		ctrl, err := core.NewController(cfg, q, flows, col)
		if err != nil {
			fatal(err)
		}
		srv, err := newStateServer(ctrl, *stReader)
		if err != nil {
			fatal(err)
		}
		ln, err := net.Listen("tcp", *stAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "slashd: serving window state on http://%s/state/windows\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, srv.handler()); err != nil {
				fmt.Fprintln(os.Stderr, "slashd: state server:", err)
			}
		}()
		ctrl.Start()
		rep, err = ctrl.Wait()
		if err != nil {
			fatal(err)
		}
	} else if rep, err = core.Run(cfg, q, flows, col); err != nil {
		fatal(err)
	}

	fmt.Printf("query:            %s\n", rep.Query)
	fmt.Printf("deployment:       %d nodes × %d source threads (+1 service worker each)\n", rep.Nodes, rep.Threads)
	fmt.Printf("records:          %d\n", rep.Records)
	fmt.Printf("state updates:    %d\n", rep.Updates)
	fmt.Printf("elapsed:          %v\n", rep.Elapsed.Round(time.Millisecond))
	fmt.Printf("throughput:       %.0f records/s\n", rep.RecordsPerSec)
	fmt.Printf("network:          %.1f MB in %d RDMA messages\n", float64(rep.NetTxBytes)/1e6, rep.NetTxMsgs)
	fmt.Printf("SSB:              %d delta chunks (%.1f MB) merged, %d windows triggered\n",
		rep.ChunksMerged, float64(rep.BytesMerged)/1e6, rep.WindowsOutput)
	fmt.Printf("epochs:           %d flushes, %d of them cut early at a window end\n", rep.Flushes, rep.WindowFlushes)
	fmt.Printf("scheduler:        %d task steps, %d idle rounds\n", rep.Sched.Steps, rep.Sched.IdleRounds)
	if store != nil {
		if err := store.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("recovery:         journals in %s; %d restarts, %d chunks replayed, %d deduped\n",
			store.Dir(), len(rep.Recoveries), rep.ReplayedChunks, rep.ChunksDeduped)
	}

	if *dump != "" {
		// Same canonical row format the cluster coordinator dumps, so the two
		// files diff byte-for-byte when the deployments agree.
		if err := writeDump(*dump, cluster.CollectRows(col)); err != nil {
			fatal(err)
		}
	}

	aggs := col.Aggs()
	joins := col.Joins()
	if len(aggs) > 0 {
		fmt.Printf("\nresults:          %d aggregate rows; first %d:\n", len(aggs), min(*results, len(aggs)))
		for i := 0; i < *results && i < len(aggs); i++ {
			r := aggs[i]
			fmt.Printf("  window %-6d key %-12d value %d\n", r.Win, r.Key, r.Value)
		}
	}
	if len(joins) > 0 {
		fmt.Printf("\nresults:          %d join rows; first %d:\n", len(joins), min(*results, len(joins)))
		for i := 0; i < *results && i < len(joins); i++ {
			r := joins[i]
			fmt.Printf("  window %-6d key %-12d left %d right %d pairs %d\n", r.Win, r.Key, r.Left, r.Right, r.Pairs)
		}
	}

	if *withMx {
		fmt.Printf("\nmetrics:\n")
		reg.WriteText(os.Stdout)
	}
	if *mxAddr != "" || *stAddr != "" {
		// Sealed snapshots outlive a clean run (docs/STATE_PROTOCOL.md), so
		// the state surface keeps answering until the deployment is torn down.
		what := "metrics"
		if *stAddr != "" {
			what = "window state"
			if *mxAddr != "" {
				what = "metrics and window state"
			}
		}
		fmt.Fprintf(os.Stderr, "slashd: run finished; %s still served (interrupt to exit)\n", what)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "slashd:", err)
	os.Exit(1)
}
