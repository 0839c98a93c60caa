// Package lightsaber implements the scale-up baseline of the paper's COST
// analysis (§8.2.4): a single-node SPE in the mold of LightSaber
// [Theodorakis et al., SIGMOD'20]. It uses task-based parallelism over a
// single shared task queue (morsels of records), eager thread-local partial
// aggregation, and late merge of partial window state — no repartitioning
// and no network. Like LightSaber, it supports windowed aggregations but
// not joins.
//
// Differences to the original, documented per DESIGN.md: execution is
// interpreted rather than compiled (as is Slash's in this repository, so the
// comparison stays fair), and partial windows merge when the input is
// exhausted rather than incrementally; only end-to-end throughput of the hot
// loop is compared against it.
package lightsaber

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/slash-stream/slash/internal/core"
	"github.com/slash-stream/slash/internal/ssb"
	"github.com/slash-stream/slash/internal/stream"
)

// Config describes the single-node deployment.
type Config struct {
	// Workers is the number of task-parallel worker threads.
	Workers int
	// MorselRecords is the task granularity: records per task pulled from
	// the shared queue. Defaults to 1024.
	MorselRecords int
	// QueueDepth bounds the shared task queue. Defaults to 4 × Workers.
	QueueDepth int
}

func (c *Config) fill() error {
	if c.Workers < 1 {
		return fmt.Errorf("lightsaber: %d workers", c.Workers)
	}
	if c.MorselRecords == 0 {
		c.MorselRecords = 1024
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.Workers
	}
	return nil
}

// ErrJoinsUnsupported mirrors the real system's limitation (§8.2.4: "we
// choose CM, NB7, and YSB as workloads supported by both SUTs, as LightSaber
// does not support joins").
var ErrJoinsUnsupported = fmt.Errorf("lightsaber: joins are not supported")

// Run executes the windowed aggregation query q over the given flows on one
// node.
func Run(cfg Config, q *core.Query, flows []core.Flow, sink core.Sink) (*core.Report, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if err := q.ValidateOperators(); err != nil {
		return nil, err
	}
	if q.JoinSide != nil {
		return nil, ErrJoinsUnsupported
	}
	if len(flows) == 0 {
		return nil, fmt.Errorf("lightsaber: no flows")
	}
	if sink == nil {
		sink = &core.CountingSink{}
	}

	tasks := make(chan []stream.Record, cfg.QueueDepth)
	var records atomic.Int64
	var updates atomic.Int64
	start := time.Now()

	// Dispatchers slice flows into morsels on the shared task queue (the
	// single-queue design the paper contrasts Slash's per-worker queues
	// with, §5.3).
	var dispatch sync.WaitGroup
	for _, f := range flows {
		dispatch.Add(1)
		go func(f core.Flow) {
			defer dispatch.Done()
			var rec stream.Record
			morsel := make([]stream.Record, 0, cfg.MorselRecords)
			for f.Next(&rec) {
				morsel = append(morsel, rec)
				if len(morsel) == cfg.MorselRecords {
					tasks <- morsel
					morsel = make([]stream.Record, 0, cfg.MorselRecords)
				}
			}
			if len(morsel) > 0 {
				tasks <- morsel
			}
		}(f)
	}
	go func() {
		dispatch.Wait()
		close(tasks)
	}()

	// Workers fold morsels into thread-local partial tables per window
	// (eager computation, late merge).
	partials := make(chan map[uint64]*ssb.Table, cfg.Workers)
	var work sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		work.Add(1)
		go func() {
			defer work.Done()
			local := map[uint64]*ssb.Table{}
			var wins []uint64
			var nRecs, nUpd int64
			for morsel := range tasks {
				for i := range morsel {
					rec := &morsel[i]
					nRecs++
					if q.Filter != nil && !q.Filter(rec) {
						continue
					}
					if q.Map != nil {
						q.Map(rec)
					}
					wins = q.Window.Assign(rec.Time, wins[:0])
					for _, win := range wins {
						tbl := local[win]
						if tbl == nil {
							tbl = ssb.NewAggTable(q.Agg)
							local[win] = tbl
						}
						if err := tbl.UpdateAgg(rec); err != nil {
							// Log-overflow is the only failure here; a
							// partial that cannot grow aborts the run via
							// panic in this single-process baseline.
							panic(err)
						}
						nUpd++
					}
				}
			}
			records.Add(nRecs)
			updates.Add(nUpd)
			partials <- local
		}()
	}
	go func() {
		work.Wait()
		close(partials)
	}()

	// Late merge: a single merger combines partial window state with the
	// aggregate's CRDT combine and emits final results.
	merged := map[uint64]*ssb.Table{}
	for local := range partials {
		for win, tbl := range local {
			dst := merged[win]
			if dst == nil {
				merged[win] = tbl
				continue
			}
			tbl.ForEachAgg(func(key uint64, st []byte) {
				if err := dst.MergeAggValue(key, st); err != nil {
					panic(err)
				}
			})
		}
	}
	for win, tbl := range merged {
		agg := q.Agg
		tbl.ForEachAgg(func(key uint64, st []byte) {
			sink.EmitAgg(0, win, key, agg.Result(st))
		})
	}
	elapsed := time.Since(start)

	rep := &core.Report{
		Query:   q.Name,
		Nodes:   1,
		Threads: cfg.Workers,
		Records: records.Load(),
		Updates: updates.Load(),
		Elapsed: elapsed,
	}
	if elapsed > 0 {
		rep.RecordsPerSec = float64(rep.Records) / elapsed.Seconds()
	}
	return rep, nil
}
