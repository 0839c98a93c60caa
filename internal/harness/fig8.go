package harness

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/slash-stream/slash/internal/channel"
	"github.com/slash-stream/slash/internal/core"
	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/rdma"
	"github.com/slash-stream/slash/internal/ssb"
	"github.com/slash-stream/slash/internal/stream"
	"github.com/slash-stream/slash/internal/uppar"
	"github.com/slash-stream/slash/internal/workload"
)

// The drill-down micro-harness reproduces §8.3.2's two-server setup: a
// producer instance streams the RO benchmark over RDMA channels to a
// consumer instance that applies the stateful count. In Slash mode each
// producer thread feeds exactly one consumer thread over one channel (no
// partitioning); in UpPar mode each producer hash-partitions records across
// all consumer threads (fan-out channels).
type roConfig struct {
	threads   int
	slotSize  int
	credits   int
	perThread int // records per producer thread
	keys      uint64
	zipfS     float64 // 0 = uniform
	partition bool    // UpPar mode
	fabric    rdma.Config
	sampleLat bool
	seed      int64
}

type roResult struct {
	records   int64
	bytes     int64
	elapsed   time.Duration
	avgLatUs  float64
	pollRound int64
	imbalance float64 // max consumer records / mean consumer records
	// creditWrites counts reverse-path credit messages across all channels;
	// with batched credit returns it is a fraction of the buffer count.
	creditWrites int64
}

// scaledEDR is the throttled experiments' line rate: one tenth of the
// paper's measured 11.8 GB/s so a single host can saturate the simulated
// link (DESIGN.md, cost-model calibration).
const scaledEDR = rdma.EDRLinkBandwidth / 100

func runRO(cfg roConfig) (roResult, error) {
	codec := stream.MustCodec(workload.RORecordSize)
	fabric := rdma.NewFabric(cfg.fabric)
	prodNIC := fabric.MustNIC("producer")
	consNIC := fabric.MustNIC("consumer")
	chCfg := channel.Config{Credits: cfg.credits, SlotSize: cfg.slotSize}

	// Channel matrix: producers × consumers (diagonal only in Slash mode).
	type pair struct {
		prod *channel.Producer
		cons *channel.Consumer
	}
	p := cfg.threads
	mat := make([][]*pair, p)
	for i := range mat {
		mat[i] = make([]*pair, p)
		for j := range mat[i] {
			if !cfg.partition && i != j {
				continue
			}
			pr, co, err := channel.New(prodNIC, consNIC, chCfg)
			if err != nil {
				return roResult{}, err
			}
			mat[i][j] = &pair{prod: pr, cons: co}
		}
	}
	defer func() {
		for i := range mat {
			for j := range mat[i] {
				if mat[i][j] != nil {
					mat[i][j].prod.Close()
					mat[i][j].cons.Close()
				}
			}
		}
	}()

	var dist workload.KeyDist = workload.Uniform{N: cfg.keys}
	if cfg.zipfS > 0 {
		z, err := workload.NewZipf(cfg.keys, cfg.zipfS)
		if err != nil {
			return roResult{}, err
		}
		dist = z
	}

	var totalRecords, totalBytes, pollRounds atomic.Int64
	var latSum, latN atomic.Int64
	consRecords := make([]atomic.Int64, p)
	errCh := make(chan error, 2*p)
	var wg sync.WaitGroup
	start := time.Now()

	// Producers.
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(i)))
			outs := mat[i]
			// Per-destination open batches (UpPar) or a single stream
			// (Slash): track buffers per destination. The watermark slot of
			// each batch carries the send timestamp for the latency
			// measurement (Fig. 8b).
			writers := make([]*stream.BatchWriter, p)
			buffers := make([]*channel.SendBuffer, p)
			flushDest := func(dest int) error {
				w := writers[dest]
				if w == nil || w.Len() == 0 {
					return nil
				}
				used := w.FinishData(time.Now().UnixNano())
				writers[dest] = nil
				err := outs[dest].prod.Post(buffers[dest], used)
				buffers[dest] = nil
				return err
			}
			var rec stream.Record
			for n := 0; n < cfg.perThread; n++ {
				rec.Key = dist.Draw(rng)
				rec.Time = int64(n)
				dest := i
				if cfg.partition {
					dest = int(ssb.Mix64(rec.Key) % uint64(p))
				}
				w := writers[dest]
				if w == nil {
					sb := outs[dest].prod.Acquire()
					if sb == nil {
						return // closed
					}
					nw, err := stream.NewBatchWriter(sb.Data, codec)
					if err != nil {
						errCh <- err
						return
					}
					writers[dest] = nw
					buffers[dest] = sb
					w = nw
				}
				if err := w.Append(&rec); err == stream.ErrBatchFull {
					if err := flushDest(dest); err != nil {
						errCh <- err
						return
					}
					sb := outs[dest].prod.Acquire()
					if sb == nil {
						return
					}
					nw, werr := stream.NewBatchWriter(sb.Data, codec)
					if werr != nil {
						errCh <- werr
						return
					}
					writers[dest] = nw
					buffers[dest] = sb
					if err := nw.Append(&rec); err != nil {
						errCh <- err
						return
					}
				} else if err != nil {
					errCh <- err
					return
				}
			}
			for dest := range outs {
				if outs[dest] == nil {
					continue
				}
				if err := flushDest(dest); err != nil {
					errCh <- err
					return
				}
				sb := outs[dest].prod.Acquire()
				if sb == nil {
					return
				}
				w, err := stream.NewBatchWriter(sb.Data, codec)
				if err != nil {
					errCh <- err
					return
				}
				used := w.FinishEnd(time.Now().UnixNano())
				if err := outs[dest].prod.Post(sb, used); err != nil {
					errCh <- err
					return
				}
			}
		}(i)
	}

	// Consumers: count occurrences per key into a local table.
	for j := 0; j < p; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			var inbound []*channel.Consumer
			for i := 0; i < p; i++ {
				if mat[i][j] != nil {
					inbound = append(inbound, mat[i][j].cons)
				}
			}
			table := ssb.NewAggTable(crdt.Count{})
			ended := 0
			var rec stream.Record
			var polls int64
			for ended < len(inbound) {
				progress := false
				for _, cons := range inbound {
					rb, ok := cons.TryPoll()
					if !ok {
						if err := cons.Err(); err != nil {
							errCh <- err
							return
						}
						continue
					}
					progress = true
					r, err := stream.NewBatchReader(rb.Data, codec)
					if err != nil {
						errCh <- err
						return
					}
					if cfg.sampleLat {
						lat := time.Now().UnixNano() - r.Watermark()
						latSum.Add(lat)
						latN.Add(1)
					}
					if r.Kind() == stream.KindEnd {
						ended++
					} else {
						for r.Next(&rec) {
							if err := table.UpdateAgg(&rec); err != nil {
								errCh <- err
								return
							}
						}
						totalRecords.Add(int64(r.Count()))
						consRecords[j].Add(int64(r.Count()))
						totalBytes.Add(int64(len(rb.Data)))
					}
					if err := cons.Release(rb); err != nil {
						errCh <- err
						return
					}
				}
				if !progress {
					polls++
					runtime.Gosched()
				}
			}
			pollRounds.Add(polls)
		}(j)
	}

	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return roResult{}, err
	default:
	}
	res := roResult{
		records:   totalRecords.Load(),
		bytes:     totalBytes.Load(),
		elapsed:   elapsed,
		pollRound: pollRounds.Load(),
	}
	for i := range mat {
		for j := range mat[i] {
			if mat[i][j] != nil {
				res.creditWrites += int64(mat[i][j].cons.CreditWrites())
			}
		}
	}
	if n := latN.Load(); n > 0 {
		res.avgLatUs = float64(latSum.Load()) / float64(n) / 1e3
	}
	// Consumer load imbalance: the mechanism behind UpPar's skew
	// regression (§8.3.2) — on multi-core hardware the most loaded
	// consumer bounds throughput.
	max, sum := int64(0), int64(0)
	for i := range consRecords {
		v := consRecords[i].Load()
		sum += v
		if v > max {
			max = v
		}
	}
	if sum > 0 {
		res.imbalance = float64(max) * float64(p) / float64(sum)
	}
	return res, nil
}

func roRow(exp string, system string, params string, r roResult) Row {
	row := Row{
		Experiment: exp,
		Workload:   "ro",
		System:     system,
		Params:     params,
		Records:    r.records,
		Elapsed:    r.elapsed,
		Metrics: map[string]float64{
			"MB_per_s": float64(r.bytes) / r.elapsed.Seconds() / 1e6,
		},
	}
	if r.elapsed > 0 {
		row.RecsPerSec = float64(r.records) / r.elapsed.Seconds()
	}
	if r.avgLatUs > 0 {
		row.Metrics["latency_us"] = r.avgLatUs
	}
	if r.imbalance > 0 {
		row.Metrics["imbalance"] = r.imbalance
	}
	if r.creditWrites > 0 {
		row.Metrics["credit_msgs"] = float64(r.creditWrites)
	}
	return row
}

// throttledFabric is the Fig. 8 cost model: a link shaped to one tenth of
// the paper's EDR rate with a 2 µs one-way latency.
func throttledFabric() rdma.Config {
	return rdma.Config{LinkBandwidth: scaledEDR, BaseLatency: 2 * time.Microsecond, Throttle: true}
}

// throttled is throttledFabric with the experiment's metrics registry
// attached.
func (o Options) throttled() rdma.Config {
	cfg := throttledFabric()
	cfg.Metrics = o.Metrics
	return cfg
}

// Fig8a sweeps the channel buffer size and reports RO throughput for Slash
// (point-to-point) and UpPar (partitioned fan-out).
func Fig8a(o Options) ([]Row, error) {
	o = o.fill()
	var rows []Row
	for _, kb := range []int{4, 16, 32, 64, 128, 256, 1024} {
		for _, part := range []bool{false, true} {
			cfg := roConfig{
				threads:   2,
				slotSize:  kb << 10,
				credits:   8,
				perThread: o.scaled(150_000),
				keys:      1 << 20,
				partition: part,
				fabric:    o.throttled(),
				seed:      o.Seed,
			}
			res, err := runRO(cfg)
			if err != nil {
				return nil, fmt.Errorf("fig8a buf=%dKB part=%v: %w", kb, part, err)
			}
			system := "slash"
			if part {
				system = "uppar"
			}
			o.logf("fig8a %-6s buf=%-5dKB %10.1f MB/s", system, kb, float64(res.bytes)/res.elapsed.Seconds()/1e6)
			rows = append(rows, roRow("fig8a", system, fmt.Sprintf("bufKB=%d", kb), res))
		}
	}
	return rows, nil
}

// Fig8b sweeps the buffer size and reports per-buffer latency.
func Fig8b(o Options) ([]Row, error) {
	o = o.fill()
	var rows []Row
	for _, kb := range []int{4, 16, 32, 64, 128, 256, 1024} {
		for _, part := range []bool{false, true} {
			cfg := roConfig{
				threads:   2,
				slotSize:  kb << 10,
				credits:   8,
				perThread: o.scaled(40_000),
				keys:      1 << 20,
				partition: part,
				fabric:    o.throttled(),
				sampleLat: true,
				seed:      o.Seed,
			}
			res, err := runRO(cfg)
			if err != nil {
				return nil, fmt.Errorf("fig8b buf=%dKB part=%v: %w", kb, part, err)
			}
			system := "slash"
			if part {
				system = "uppar"
			}
			o.logf("fig8b %-6s buf=%-5dKB %10.1f us", system, kb, res.avgLatUs)
			rows = append(rows, roRow("fig8b", system, fmt.Sprintf("bufKB=%d", kb), res))
		}
	}
	return rows, nil
}

// Fig8c sweeps the thread count at fixed buffer size and reports aggregate
// throughput — the saturation experiment (§8.3.2: Slash saturates with two
// threads, UpPar needs ten).
func Fig8c(o Options) ([]Row, error) {
	o = o.fill()
	var rows []Row
	for _, threads := range []int{1, 2, 4, 8} {
		for _, part := range []bool{false, true} {
			cfg := roConfig{
				threads:   threads,
				slotSize:  32 << 10,
				credits:   8,
				perThread: o.scaled(100_000),
				keys:      1 << 20,
				partition: part,
				fabric:    o.throttled(),
				seed:      o.Seed,
			}
			res, err := runRO(cfg)
			if err != nil {
				return nil, fmt.Errorf("fig8c threads=%d part=%v: %w", threads, part, err)
			}
			system := "slash"
			if part {
				system = "uppar"
			}
			o.logf("fig8c %-6s threads=%d %10.1f MB/s", system, threads, float64(res.bytes)/res.elapsed.Seconds()/1e6)
			rows = append(rows, roRow("fig8c", system, fmt.Sprintf("threads=%d", threads), res))
		}
	}
	return rows, nil
}

// Fig8d sweeps key skew. For RO it reports the channel-level throughput and
// the consumer load imbalance (the paper's explanation for UpPar's
// regression); for YSB it runs the full systems with Zipfian campaign keys,
// where Slash's throughput rises with skew (fewer distinct groups to merge).
func Fig8d(o Options) ([]Row, error) {
	o = o.fill()
	var rows []Row
	zs := []float64{0.2, 0.6, 1.0, 1.4, 2.0}
	for _, z := range zs {
		for _, part := range []bool{false, true} {
			cfg := roConfig{
				threads:   2,
				slotSize:  32 << 10,
				credits:   8,
				perThread: o.scaled(100_000),
				keys:      1 << 20,
				zipfS:     z,
				partition: part,
				fabric:    rdma.Config{Metrics: o.Metrics},
				seed:      o.Seed,
			}
			res, err := runRO(cfg)
			if err != nil {
				return nil, fmt.Errorf("fig8d ro z=%.1f part=%v: %w", z, part, err)
			}
			system := "slash"
			if part {
				system = "uppar"
			}
			o.logf("fig8d ro  %-6s z=%.1f %12.0f rec/s imbalance=%.2f", system, z, float64(res.records)/res.elapsed.Seconds(), res.imbalance)
			rows = append(rows, roRow("fig8d", system, fmt.Sprintf("z=%.1f", z), res))
		}
	}
	// YSB under skew: full Slash vs full UpPar.
	perFlow := o.scaled(aggPerFlowBase)
	for _, z := range zs {
		w := workload.YSB{Keys: 100_000, RecordsPerFlow: perFlow, Seed: o.Seed, ZipfS: z, TimeStep: 10}
		q := w.Query()
		rep, err := core.Run(core.Config{Nodes: 2, ThreadsPerNode: o.Threads, Metrics: o.Metrics}, q, w.Flows(2, o.Threads), nil)
		if err != nil {
			return nil, fmt.Errorf("fig8d ysb slash z=%.1f: %w", z, err)
		}
		o.logf("fig8d ysb slash  z=%.1f %12.0f rec/s", z, rep.RecordsPerSec)
		rows = append(rows, Row{
			Experiment: "fig8d", Workload: "ysb", System: "slash", Params: fmt.Sprintf("z=%.1f", z),
			Records: rep.Records, Elapsed: rep.Elapsed, RecsPerSec: rep.RecordsPerSec,
		})
		producers, consumers := splitThreads(o.Threads)
		wu := w
		wu.RecordsPerFlow = perFlow * o.Threads / producers
		repU, err := uppar.Run(uppar.Config{Nodes: 2, ProducersPerNode: producers, ConsumersPerNode: consumers,
			Fabric: rdma.Config{Metrics: o.Metrics}},
			q, wu.Flows(2, producers), nil)
		if err != nil {
			return nil, fmt.Errorf("fig8d ysb uppar z=%.1f: %w", z, err)
		}
		o.logf("fig8d ysb uppar  z=%.1f %12.0f rec/s", z, repU.RecordsPerSec)
		rows = append(rows, Row{
			Experiment: "fig8d", Workload: "ysb", System: "uppar", Params: fmt.Sprintf("z=%.1f", z),
			Records: repU.Records, Elapsed: repU.Elapsed, RecsPerSec: repU.RecordsPerSec,
		})
	}
	return rows, nil
}

// CreditSweep reproduces the §8.3.2 observation that c = 8 credits performs
// best, c = 16 is within a few percent, and c = 64 regresses.
func CreditSweep(o Options) ([]Row, error) {
	o = o.fill()
	var rows []Row
	for _, c := range []int{4, 8, 16, 64} {
		cfg := roConfig{
			threads:   2,
			slotSize:  32 << 10,
			credits:   c,
			perThread: o.scaled(150_000),
			keys:      1 << 20,
			fabric:    o.throttled(),
			seed:      o.Seed,
		}
		res, err := runRO(cfg)
		if err != nil {
			return nil, fmt.Errorf("credits c=%d: %w", c, err)
		}
		o.logf("credits c=%-3d %10.1f MB/s", c, float64(res.bytes)/res.elapsed.Seconds()/1e6)
		rows = append(rows, roRow("credits", "slash", fmt.Sprintf("c=%d", c), res))
	}
	return rows, nil
}
