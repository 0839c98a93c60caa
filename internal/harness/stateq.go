package harness

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/slash-stream/slash/internal/core"
	"github.com/slash-stream/slash/internal/stateq"
)

// stateqNodes is the deployment shape of the queryable-state experiment; 4
// leaders is the smallest shape where a window scan genuinely unions
// partitions from multiple snapshot regions.
const (
	stateqNodes   = 4
	stateqReaders = 8
)

// StateQ validates the queryable-state plane against a live Fig6 (YSB) run:
// a baseline run measures merge throughput with the plane disarmed, then the
// same dataset runs with 8 reader clients hammering the snapshot regions
// over one-sided READs for the whole run. Every sealed window a reader
// captures (all leaders sealed, complete union) must be byte-identical to
// the rows the sink received for that window — the differential oracle that
// served state is exactly query output, never a torn or stale intermediate.
// The experiment reports the read/retry counters and the throughput ratio;
// the publication cost under a live reader is measured by the repository
// benchmark's cm_paced_stateq workload. One-sidedness is structural: merge
// threads have no read-path handler to bypass, so a nonzero read counter is
// itself the proof.
func StateQ(o Options) ([]Row, error) {
	o = o.fill()
	fw := ysbWorkload(o)
	q := fw.query(o)
	mkFlows := fw.mkFlows(o)

	// Baseline: identical run, state plane disarmed.
	baseCfg := core.Config{
		Nodes:          stateqNodes,
		ThreadsPerNode: o.Threads,
		ChunkSize:      4 << 10,
		Fabric:         endToEndFabric(),
		Metrics:        o.Metrics,
	}
	baseCol := &core.Collector{}
	baseRep, err := core.Run(baseCfg, q, mkFlows(stateqNodes, o.Threads), baseCol)
	if err != nil {
		return nil, fmt.Errorf("stateq: baseline: %w", err)
	}
	o.logf("stateq baseline  %12d recs  %8.3fs  %14.0f rec/s",
		baseRep.Records, baseRep.Elapsed.Seconds(), baseRep.RecordsPerSec)

	// Live run with the plane armed and readers attached.
	liveCfg := baseCfg
	liveCfg.State = &stateq.Options{}
	col := &core.Collector{}
	ctrl, err := core.NewController(liveCfg, fw.query(o), mkFlows(stateqNodes, o.Threads), col)
	if err != nil {
		return nil, fmt.Errorf("stateq: %w", err)
	}

	// captured[win] is the first complete sealed scan of win: every leader
	// contributed a sealed snapshot, so the union is the window's final
	// result. Sealed snapshots are immutable; first capture wins.
	var (
		capMu    sync.Mutex
		captured = map[uint64][]stateq.Entry{}
		done     atomic.Bool
	)
	var wg sync.WaitGroup
	clients := make([]*stateq.Client, stateqReaders)
	for i := range clients {
		cl, err := ctrl.NewStateClient(fmt.Sprintf("stateq-reader%d", i))
		if err != nil {
			return nil, fmt.Errorf("stateq: reader: %w", err)
		}
		clients[i] = cl
	}

	ctrl.Start()
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *stateq.Client) {
			defer wg.Done()
			for !done.Load() {
				wins, err := cl.Windows()
				if err != nil {
					// Teardown fences the regions under the readers; other
					// read errors are equally benign here (retries exhausted
					// against a window mid-eviction). The oracle below only
					// trusts successful complete scans.
					continue
				}
				sealedEverywhere := map[uint64]int{}
				for _, w := range wins {
					if w.Sealed {
						sealedEverywhere[w.Window]++
					}
				}
				for win, n := range sealedEverywhere {
					if n < stateqNodes {
						continue
					}
					capMu.Lock()
					_, have := captured[win]
					capMu.Unlock()
					if have {
						continue
					}
					entries, hits, err := cl.ScanSealed(win)
					if err != nil || hits < stateqNodes {
						continue // evicted or republished mid-scan; not a capture
					}
					capMu.Lock()
					if _, have := captured[win]; !have {
						captured[win] = entries
					}
					capMu.Unlock()
				}
			}
		}(cl)
	}

	rep, err := ctrl.Wait()
	done.Store(true)
	wg.Wait()
	if err != nil {
		for _, cl := range clients {
			cl.Close()
		}
		return nil, fmt.Errorf("stateq: live run: %w", err)
	}

	// Post-run pass: the directories stay readable after a clean Wait, now
	// holding only sealed finals. Capture whatever the live readers missed
	// (short runs can finish before a reader lands a complete scan).
	final := clients[0]
	if wins, err := final.Windows(); err == nil {
		onAll := map[uint64]int{}
		for _, w := range wins {
			if w.Sealed {
				onAll[w.Window]++
			}
		}
		for win, n := range onAll {
			if n < stateqNodes {
				continue
			}
			if _, have := captured[win]; have {
				continue
			}
			if entries, hits, err := final.ScanSealed(win); err == nil && hits >= stateqNodes {
				captured[win] = entries
			}
		}
	}
	for _, cl := range clients {
		cl.Close()
	}
	o.logf("stateq live      %12d recs  %8.3fs  %14.0f rec/s  (%d readers)",
		rep.Records, rep.Elapsed.Seconds(), rep.RecordsPerSec, stateqReaders)

	// The differential oracle: every captured window byte-matches the sink.
	sink := map[uint64]map[uint64]int64{}
	for _, r := range col.Aggs() {
		m := sink[r.Win]
		if m == nil {
			m = map[uint64]int64{}
			sink[r.Win] = m
		}
		m[r.Key] = r.Value
	}
	if len(captured) == 0 {
		return nil, fmt.Errorf("stateq: readers captured no sealed windows")
	}
	for win, entries := range captured {
		want := sink[win]
		if len(entries) != len(want) {
			return nil, fmt.Errorf("stateq: window %d: served %d keys, sink has %d", win, len(entries), len(want))
		}
		for _, e := range entries {
			if v, ok := want[e.Key]; !ok || v != e.Value {
				return nil, fmt.Errorf("stateq: window %d key %d: served %d, sink %d (present=%v)", win, e.Key, e.Value, v, ok)
			}
		}
	}

	var reads, torn, redials uint64
	for _, cl := range clients {
		reads += cl.Reads()
		torn += cl.TornReads()
		redials += cl.Redials()
	}
	if reads == 0 {
		return nil, fmt.Errorf("stateq: readers issued no READs")
	}
	o.logf("stateq captured %d/%d sealed windows  %d READs  %d torn  %d redials",
		len(captured), len(sink), reads, torn, redials)

	ratio := 1.0
	if baseRep.RecordsPerSec > 0 {
		ratio = rep.RecordsPerSec / baseRep.RecordsPerSec
	}
	return []Row{
		{
			Experiment: "stateq", Workload: fw.name, System: "slash",
			Params:  fmt.Sprintf("nodes=%d baseline", stateqNodes),
			Records: baseRep.Records, Elapsed: baseRep.Elapsed, RecsPerSec: baseRep.RecordsPerSec,
		},
		{
			Experiment: "stateq", Workload: fw.name, System: "slash",
			Params:  fmt.Sprintf("nodes=%d readers=%d", stateqNodes, stateqReaders),
			Records: rep.Records, Elapsed: rep.Elapsed, RecsPerSec: rep.RecordsPerSec,
			Metrics: map[string]float64{
				"throughput_ratio": ratio,
				"windows_captured": float64(len(captured)),
				"windows_total":    float64(len(sink)),
				"reads":            float64(reads),
				"torn_reads":       float64(torn),
				"redials":          float64(redials),
			},
		},
	}, nil
}
