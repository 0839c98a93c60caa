package harness

import (
	"fmt"

	"github.com/slash-stream/slash/internal/core"
)

// batchSweepSizes is the swept Config.BatchRecords range: from degenerate
// single-record batches (all batch-path overhead, no amortization) to 4096
// (columns spill the L1 working set).
var batchSweepSizes = []int{1, 4, 16, 64, 256, 1024, 4096}

// BatchSweep measures the columnar hot loop's sensitivity to batch size:
// YSB on the Slash engine with Config.BatchRecords swept 1→4096. The
// interesting shape is the knee: throughput should climb steeply out of
// batch=1 as per-batch costs (route lookup, window assignment, scheduler
// round trip) amortize, then flatten once the batch covers them — results
// are identical at every point by construction.
func BatchSweep(o Options) ([]Row, error) {
	o = o.fill()
	fw := ysbWorkload(o)
	nodes := o.Nodes[0]
	var rows []Row
	run := func(params string, cfg core.Config) error {
		q := fw.query(o)
		rep, err := core.Run(cfg, q, fw.mkFlows(o)(nodes, o.Threads), nil)
		if err != nil {
			return fmt.Errorf("batchsweep %s: %w", params, err)
		}
		o.logf("batchsweep %-12s nodes=%-2d %12d recs  %8.3fs  %14.0f rec/s",
			params, nodes, rep.Records, rep.Elapsed.Seconds(), rep.RecordsPerSec)
		rows = append(rows, Row{
			Experiment: "batchsweep",
			Workload:   fw.name,
			System:     "slash",
			Params:     params,
			Records:    rep.Records,
			Elapsed:    rep.Elapsed,
			RecsPerSec: rep.RecordsPerSec,
			Metrics:    map[string]float64{"windows": float64(rep.WindowsOutput)},
		})
		return nil
	}
	for _, batch := range batchSweepSizes {
		if err := run(fmt.Sprintf("batch=%d", batch), core.Config{
			Nodes:          nodes,
			ThreadsPerNode: o.Threads,
			Fabric:         endToEndFabric(),
			BatchRecords:   batch,
			Metrics:        o.Metrics,
		}); err != nil {
			return nil, err
		}
	}
	return rows, nil
}
