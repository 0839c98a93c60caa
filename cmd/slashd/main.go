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
	"slices"
	"time"

	"github.com/slash-stream/slash/internal/cluster"
	"github.com/slash-stream/slash/internal/core"
	"github.com/slash-stream/slash/internal/metrics"
	"github.com/slash-stream/slash/internal/rdma"
	"github.com/slash-stream/slash/internal/recovery"
	"github.com/slash-stream/slash/internal/stateq"
	"github.com/slash-stream/slash/internal/workload"
)

// options holds slashd's flags.
type options struct {
	workload string
	nodes    int
	threads  int
	records  int
	epoch    int64
	credits  int
	throttle bool
	results  int
	seed     int64
	metrics  bool
	mxAddr   string
	ckptDir  string
	ckptIval int
	stAddr   string
	stReader int
	listen   string
	join     string
	rank     int
	dump     string
}

// defineFlags registers slashd's flags on fs.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.workload, "workload", "ysb", "workload: ysb, nb7, nb8, nb11, cm, ro")
	fs.IntVar(&o.nodes, "nodes", 2, "simulated cluster nodes")
	fs.IntVar(&o.threads, "threads", 2, "source worker threads per node")
	fs.IntVar(&o.records, "records", 500_000, "records per thread")
	fs.Int64Var(&o.epoch, "epoch", 0, "SSB epoch length in bytes (0 = default)")
	fs.IntVar(&o.credits, "credits", 0, "RDMA channel credits (0 = default 8)")
	fs.BoolVar(&o.throttle, "throttle", false, "pace the simulated fabric at a scaled EDR line rate")
	fs.IntVar(&o.results, "results", 5, "sample result rows to print")
	fs.Int64Var(&o.seed, "seed", 42, "workload seed")
	fs.BoolVar(&o.metrics, "metrics", false, "print a metrics snapshot after the report")
	fs.StringVar(&o.mxAddr, "metrics-addr", "", "serve /metrics (plaintext) and /metrics.json on this address, e.g. :9090")
	fs.StringVar(&o.ckptDir, "checkpoint-dir", "", "arm the recovery plane, journaling epoch-aligned checkpoints under this directory")
	fs.IntVar(&o.ckptIval, "checkpoint-interval", 0, "checkpoint cadence in epoch commits per leader (0 = default 32; needs -checkpoint-dir)")
	fs.StringVar(&o.stAddr, "state-addr", "", "arm the queryable-state plane and serve /state/{windows,lookup,scan,topk} on this address, e.g. :9091")
	fs.IntVar(&o.stReader, "state-readers", 4, "reader clients (reader QPs) backing the -state-addr server")
	fs.StringVar(&o.listen, "listen", "", "coordinate a multi-process cluster on this address (e.g. 127.0.0.1:7070), waiting for -nodes workers")
	fs.StringVar(&o.join, "join", "", "join a coordinator at this address as one worker process (needs -rank; the run spec comes from the coordinator)")
	fs.IntVar(&o.rank, "rank", 0, "this worker's node rank (with -join)")
	fs.StringVar(&o.dump, "dump", "", "write canonical result rows to this file (\"-\" = stdout) for differential comparison")
	return o
}

// modeFlags lists the flags each mode honours. A coordinator fixes the run
// spec and dumps the merged rows; a worker takes the spec from its
// coordinator, so it needs only where to join, as which rank, and where to
// journal. The in-process mode honours every flag but -rank.
var modeFlags = map[string][]string{
	"-listen": {"listen", "workload", "nodes", "threads", "records", "seed", "epoch", "credits", "checkpoint-interval", "dump"},
	"-join":   {"join", "rank", "checkpoint-dir"},
}

// checkModeFlags rejects an explicitly set flag that fs's mode would
// silently ignore, naming the flag and the mode.
func checkModeFlags(fs *flag.FlagSet) error {
	listen, join := fs.Lookup("listen").Value.String(), fs.Lookup("join").Value.String()
	mode := "in-process"
	switch {
	case listen != "" && join != "":
		return fmt.Errorf("-listen and -join are mutually exclusive")
	case listen != "":
		mode = "-listen"
	case join != "":
		mode = "-join"
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		ok := f.Name != "rank"
		if honoured, only := modeFlags[mode]; only {
			ok = slices.Contains(honoured, f.Name)
		}
		if !ok && err == nil {
			err = fmt.Errorf("-%s has no effect in %s mode", f.Name, mode)
		}
	})
	return err
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()
	if err := checkModeFlags(flag.CommandLine); err != nil {
		fatal(err)
	}

	if o.join != "" {
		runWorker(o.join, o.rank, o.ckptDir)
		return
	}
	if o.listen != "" {
		runCoordinator(o.listen, cluster.Spec{
			Workload:          o.workload,
			Nodes:             o.nodes,
			Threads:           o.threads,
			Records:           o.records,
			Seed:              o.seed,
			EpochBytes:        o.epoch,
			Credits:           o.credits,
			CheckpointCommits: o.ckptIval,
		}, o.dump)
		return
	}

	q, flows, err := workload.Build(o.workload, o.nodes, o.threads, o.records, o.seed)
	if err != nil {
		fatal(err)
	}

	cfg := core.Config{
		Nodes:          o.nodes,
		ThreadsPerNode: o.threads,
		EpochBytes:     o.epoch,
	}
	cfg.Channel.Credits = o.credits
	if o.throttle {
		cfg.Fabric = rdma.Config{
			LinkBandwidth: rdma.EDRLinkBandwidth / 100,
			BaseLatency:   2 * time.Microsecond,
			Throttle:      true,
		}
	}

	var store *recovery.DirStore
	if o.ckptDir != "" {
		store, err = recovery.NewDirStore(o.ckptDir)
		if err != nil {
			fatal(err)
		}
		cfg.Recovery = &core.RecoveryOptions{
			Store:             store,
			CheckpointCommits: o.ckptIval,
			AutoRestart:       true,
		}
		ival := o.ckptIval
		if ival <= 0 {
			ival = 32
		}
		fmt.Fprintf(os.Stderr, "slashd: checkpointing to %s every %d epoch commits\n", store.Dir(), ival)
	} else if o.ckptIval != 0 {
		fatal(fmt.Errorf("-checkpoint-interval needs -checkpoint-dir"))
	}

	var reg *metrics.Registry
	if o.metrics || o.mxAddr != "" {
		reg = metrics.NewRegistry()
		cfg.Metrics = reg
	}
	if o.mxAddr != "" {
		ln, err := net.Listen("tcp", o.mxAddr)
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
		o.nodes, o.threads, q.Name, o.records)
	var rep *core.Report
	if o.stAddr != "" {
		// Queryable state needs the controller alive while the HTTP surface
		// serves, so run start and wait explicitly instead of core.Run.
		cfg.State = &stateq.Options{}
		ctrl, err := core.NewController(cfg, q, flows, col)
		if err != nil {
			fatal(err)
		}
		srv, err := newStateServer(ctrl, o.stReader)
		if err != nil {
			fatal(err)
		}
		ln, err := net.Listen("tcp", o.stAddr)
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

	if o.dump != "" {
		// Same canonical row format the cluster coordinator dumps, so the two
		// files diff byte-for-byte when the deployments agree.
		if err := writeDump(o.dump, cluster.CollectRows(col)); err != nil {
			fatal(err)
		}
	}

	aggs := col.Aggs()
	joins := col.Joins()
	if len(aggs) > 0 {
		fmt.Printf("\nresults:          %d aggregate rows; first %d:\n", len(aggs), min(o.results, len(aggs)))
		for i := 0; i < o.results && i < len(aggs); i++ {
			r := aggs[i]
			fmt.Printf("  window %-6d key %-12d value %d\n", r.Win, r.Key, r.Value)
		}
	}
	if len(joins) > 0 {
		fmt.Printf("\nresults:          %d join rows; first %d:\n", len(joins), min(o.results, len(joins)))
		for i := 0; i < o.results && i < len(joins); i++ {
			r := joins[i]
			fmt.Printf("  window %-6d key %-12d left %d right %d pairs %d\n", r.Win, r.Key, r.Left, r.Right, r.Pairs)
		}
	}

	if o.metrics {
		fmt.Printf("\nmetrics:\n")
		reg.WriteText(os.Stdout)
	}
	if o.mxAddr != "" || o.stAddr != "" {
		// Sealed snapshots outlive a clean run (docs/STATE_PROTOCOL.md), so
		// the state surface keeps answering until the deployment is torn down.
		what := "metrics"
		if o.stAddr != "" {
			what = "window state"
			if o.mxAddr != "" {
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
