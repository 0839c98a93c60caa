// Package uppar implements RDMA UpPar, the paper's lightweight-integration
// strawman (§3.1): a scale-out SPE that keeps the classical design of
// re-partitioning streams before stateful operators, but replaces its
// socket transport with Slash's RDMA channels.
//
// Each node splits its threads between producers (filter/projection +
// hash-partitioning, the paper's sender half) and consumers (the window
// operator over co-partitioned local state, the receiver half). Every
// producer thread owns one RDMA channel to every consumer thread —
// records are serialized into per-destination batches selected by key hash,
// so the partitioning work (hashing, branching, data-dependent writes into
// fan-out buffers) sits on the critical per-record path. That is the cost
// Slash's design eliminates, and what Figs. 6, 8 and 9 measure.
package uppar

import (
	"errors"
	"fmt"
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
)

// Config describes an RDMA UpPar deployment.
type Config struct {
	// Nodes is the number of simulated nodes.
	Nodes int
	// ProducersPerNode and ConsumersPerNode split each node's threads
	// (the paper halves them, §8.2.2).
	ProducersPerNode int
	ConsumersPerNode int
	// Fabric configures the simulated RDMA interconnect.
	Fabric rdma.Config
	// Channel configures the re-partitioning RDMA channels.
	Channel channel.Config
	// FlushRecords forces open partial batches out every so many input
	// records, bounding watermark staleness. Defaults to 16384.
	FlushRecords int
}

func (c *Config) fill() error {
	if c.Nodes < 1 || c.ProducersPerNode < 1 || c.ConsumersPerNode < 1 {
		return fmt.Errorf("uppar: invalid shape %d nodes, %d producers, %d consumers",
			c.Nodes, c.ProducersPerNode, c.ConsumersPerNode)
	}
	if c.FlushRecords == 0 {
		c.FlushRecords = 16384
	}
	return nil
}

// exchange is a point-to-point batch transport: an RDMA channel across
// nodes, or an SPSC ring within a node (intra-node traffic does not cross
// the NIC).
type exchange interface {
	// acquire returns a writable data region, or false if no slot is free.
	acquire() ([]byte, bool)
	// post publishes the acquired region's first used bytes.
	post(used int) error
	// poll returns the next inbound batch, or false if none is ready.
	poll() ([]byte, bool)
	// release returns the polled batch's slot (FIFO order).
	release() error
	// err surfaces asynchronous transport errors.
	err() error
	// close tears the exchange down, unblocking spinners.
	close()
}

// rdmaExchange adapts a channel.Producer/Consumer pair.
type rdmaExchange struct {
	prod *channel.Producer
	cons *channel.Consumer
	sb   *channel.SendBuffer
	rb   *channel.RecvBuffer
}

func (e *rdmaExchange) acquire() ([]byte, bool) {
	sb, ok := e.prod.TryAcquire()
	if !ok {
		return nil, false
	}
	e.sb = sb
	return sb.Data, true
}

func (e *rdmaExchange) post(used int) error {
	sb := e.sb
	e.sb = nil
	return e.prod.Post(sb, used)
}

func (e *rdmaExchange) poll() ([]byte, bool) {
	rb, ok := e.cons.TryPoll()
	if !ok {
		return nil, false
	}
	e.rb = rb
	return rb.Data, true
}

func (e *rdmaExchange) err() error { return e.cons.Err() }

func (e *rdmaExchange) release() error {
	rb := e.rb
	e.rb = nil
	return e.cons.Release(rb)
}

func (e *rdmaExchange) close() {
	e.prod.Close()
	e.cons.Close()
}

// localExchange is a single-producer single-consumer slot ring used for
// intra-node repartitioning (in-memory data channels, §2.2).
type localExchange struct {
	slots  [][]byte
	used   []int
	posted atomic.Uint64
	freed  atomic.Uint64
	read   uint64
	closed atomic.Bool
}

func newLocalExchange(slots, slotSize int) *localExchange {
	e := &localExchange{slots: make([][]byte, slots), used: make([]int, slots)}
	for i := range e.slots {
		e.slots[i] = make([]byte, slotSize)
	}
	return e
}

func (e *localExchange) acquire() ([]byte, bool) {
	if e.closed.Load() {
		return nil, false
	}
	if e.posted.Load()-e.freed.Load() >= uint64(len(e.slots)) {
		return nil, false
	}
	return e.slots[e.posted.Load()%uint64(len(e.slots))], true
}

func (e *localExchange) post(used int) error {
	if e.closed.Load() {
		return channel.ErrClosed
	}
	e.used[e.posted.Load()%uint64(len(e.slots))] = used
	e.posted.Add(1)
	return nil
}

func (e *localExchange) poll() ([]byte, bool) {
	if e.read >= e.posted.Load() {
		return nil, false
	}
	i := e.read % uint64(len(e.slots))
	e.read++
	return e.slots[i][:e.used[i]], true
}

func (e *localExchange) release() error {
	e.freed.Add(1)
	return nil
}

func (e *localExchange) err() error { return nil }

func (e *localExchange) close() { e.closed.Store(true) }

// Run executes query q under the UpPar model. flows is indexed
// [node][producer]. Results stream into sink (nil discards).
func Run(cfg Config, q *core.Query, flows [][]core.Flow, sink core.Sink) (*core.Report, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if err := validateQuery(q); err != nil {
		return nil, err
	}
	if len(flows) != cfg.Nodes {
		return nil, fmt.Errorf("uppar: %d flow groups for %d nodes", len(flows), cfg.Nodes)
	}
	for i := range flows {
		if len(flows[i]) != cfg.ProducersPerNode {
			return nil, fmt.Errorf("uppar: node %d has %d flows, want %d", i, len(flows[i]), cfg.ProducersPerNode)
		}
	}
	if sink == nil {
		sink = &core.CountingSink{}
	}
	chCfg := cfg.Channel
	if err := checkSlot(&chCfg, q.Codec); err != nil {
		return nil, err
	}

	fabric := rdma.NewFabric(cfg.Fabric)
	nics := make([]*rdma.NIC, cfg.Nodes)
	for i := range nics {
		nics[i] = fabric.MustNIC(fmt.Sprintf("node%d", i))
	}

	nProd := cfg.Nodes * cfg.ProducersPerNode
	nCons := cfg.Nodes * cfg.ConsumersPerNode
	// exch[p][c] connects producer thread p to consumer thread c.
	exch := make([][]exchange, nProd)
	var all []exchange
	for p := 0; p < nProd; p++ {
		exch[p] = make([]exchange, nCons)
		pNode := p / cfg.ProducersPerNode
		for c := 0; c < nCons; c++ {
			cNode := c / cfg.ConsumersPerNode
			if pNode == cNode {
				exch[p][c] = newLocalExchange(chCfg.Credits, chCfg.SlotSize)
			} else {
				prod, cons, err := channel.New(nics[pNode], nics[cNode], chCfg)
				if err != nil {
					return nil, fmt.Errorf("uppar: channel %d->%d: %w", p, c, err)
				}
				exch[p][c] = &rdmaExchange{prod: prod, cons: cons}
			}
			all = append(all, exch[p][c])
		}
	}
	defer func() {
		for _, e := range all {
			e.close()
		}
	}()

	run := &runCtl{}
	run.closeAll = func() {
		for _, e := range all {
			e.close()
		}
	}

	var records, updates atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()

	// Consumers: the window-operator half.
	for c := 0; c < nCons; c++ {
		inbound := make([]exchange, nProd)
		for p := 0; p < nProd; p++ {
			inbound[p] = exch[p][c]
		}
		wg.Add(1)
		go func(cid int, inbound []exchange) {
			defer wg.Done()
			runConsumer(run, q, cid, inbound, sink, &updates)
		}(c, inbound)
	}

	// Producers: the partitioning half.
	for p := 0; p < nProd; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			node := pid / cfg.ProducersPerNode
			local := pid % cfg.ProducersPerNode
			runProducer(run, cfg, q, pid, flows[node][local], exch[pid], &records)
		}(p)
	}

	wg.Wait()
	elapsed := time.Since(start)
	if err := run.err(); err != nil {
		return nil, err
	}
	rep := &core.Report{
		Query:   q.Name,
		Nodes:   cfg.Nodes,
		Threads: cfg.ProducersPerNode + cfg.ConsumersPerNode,
		Records: records.Load(),
		Updates: updates.Load(),
		Elapsed: elapsed,
	}
	if elapsed > 0 {
		rep.RecordsPerSec = float64(rep.Records) / elapsed.Seconds()
	}
	for _, nic := range nics {
		s := nic.Stats()
		rep.NetTxBytes += s.TxBytes
		rep.NetTxMsgs += s.TxMsgs
	}
	return rep, nil
}

func validateQuery(q *core.Query) error {
	if q.Window == nil {
		return core.ErrNoWindow
	}
	if q.Agg == nil && q.JoinSide == nil {
		return core.ErrNoStateful
	}
	if q.Agg != nil && q.JoinSide != nil {
		return core.ErrBothStateful
	}
	return nil
}

func checkSlot(chCfg *channel.Config, codec stream.Codec) error {
	if chCfg.Credits == 0 {
		chCfg.Credits = channel.DefaultCredits
	}
	if chCfg.SlotSize == 0 {
		chCfg.SlotSize = channel.DefaultSlotSize
	}
	need := channel.FooterSize + stream.BatchHeaderSize + codec.Size()
	if chCfg.SlotSize < need {
		return fmt.Errorf("uppar: slot size %d cannot hold one record batch (%d)", chCfg.SlotSize, need)
	}
	return nil
}

// runCtl propagates the first error and tears the exchanges down so
// spinning producers exit.
type runCtl struct {
	once     sync.Once
	val      atomic.Value
	closeAll func()
	stopped  atomic.Bool
}

func (r *runCtl) fail(err error) {
	r.once.Do(func() {
		r.val.Store(err)
		r.stopped.Store(true)
		if r.closeAll != nil {
			r.closeAll()
		}
	})
}

func (r *runCtl) err() error {
	if v := r.val.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// openBatch is a partially filled per-destination buffer on the producer.
type openBatch struct {
	w    *stream.BatchWriter
	open bool
}

// runProducer reads the flow, applies filter/map, and hash-partitions
// records into per-consumer batches — the per-record work whose cost the
// paper's drill-down attributes UpPar's front-end stalls to (§8.3.3).
func runProducer(run *runCtl, cfg Config, q *core.Query, pid int, flow core.Flow, outs []exchange, records *atomic.Int64) {
	nCons := len(outs)
	batches := make([]openBatch, nCons)
	wm := stream.NoWatermark
	var rec stream.Record
	var local int64
	sinceFlush := 0

	ensure := func(dest int) (*stream.BatchWriter, error) {
		b := &batches[dest]
		if b.open {
			return b.w, nil
		}
		for {
			if run.stopped.Load() {
				return nil, errStopped
			}
			data, ok := outs[dest].acquire()
			if ok {
				w, err := stream.NewBatchWriter(data, q.Codec)
				if err != nil {
					return nil, err
				}
				b.w = w
				b.open = true
				return w, nil
			}
			runtime.Gosched()
		}
	}
	flush := func(dest int) error {
		b := &batches[dest]
		if !b.open || b.w.Len() == 0 {
			return nil
		}
		used := b.w.FinishData(wm)
		b.open = false
		return outs[dest].post(used)
	}
	flushAll := func() error {
		for d := range batches {
			if err := flush(d); err != nil {
				return err
			}
		}
		return nil
	}

	for {
		if run.stopped.Load() {
			return
		}
		if !flow.Next(&rec) {
			break
		}
		local++
		sinceFlush++
		if rec.Time > wm {
			wm = rec.Time
		}
		if q.Filter != nil && !q.Filter(&rec) {
			continue
		}
		if q.Map != nil {
			q.Map(&rec)
		}
		// The data-dependent destination select: this branch plus the
		// scattered fan-out buffer write is the partitioning cost.
		dest := int(hash64(rec.Key) % uint64(nCons))
		w, err := ensure(dest)
		if err != nil {
			if !errors.Is(err, errStopped) {
				run.fail(err)
			}
			return
		}
		if err := w.Append(&rec); err != nil {
			if errors.Is(err, stream.ErrBatchFull) {
				if err := flush(dest); err != nil {
					run.fail(err)
					return
				}
				w, err = ensure(dest)
				if err == nil {
					err = w.Append(&rec)
				}
			}
			if err != nil && !errors.Is(err, errStopped) {
				run.fail(err)
				return
			}
			if err != nil {
				return
			}
		}
		if sinceFlush >= cfg.FlushRecords {
			sinceFlush = 0
			if err := flushAll(); err != nil {
				run.fail(err)
				return
			}
		}
	}
	records.Add(local)
	if err := flushAll(); err != nil {
		run.fail(err)
		return
	}
	// End-of-stream tokens let consumers treat this source as fully
	// progressed.
	for dest := range outs {
		for {
			if run.stopped.Load() {
				return
			}
			data, ok := outs[dest].acquire()
			if !ok {
				runtime.Gosched()
				continue
			}
			w, err := stream.NewBatchWriter(data, q.Codec)
			if err != nil {
				run.fail(err)
				return
			}
			used := w.FinishEnd(wm)
			if err := outs[dest].post(used); err != nil {
				run.fail(err)
				return
			}
			break
		}
	}
}

var errStopped = errors.New("uppar: stopped")

// runConsumer is one window-operator thread: it polls its fan-in of
// exchanges (§8.3.3's "receivers poll on multiple RDMA channels"), applies
// stateful updates to co-partitioned local state, and triggers windows when
// every source's watermark passes their end.
func runConsumer(run *runCtl, q *core.Query, cid int, inbound []exchange, sink core.Sink, updates *atomic.Int64) {
	srcWM := make([]stream.Watermark, len(inbound))
	ended := make([]bool, len(inbound))
	for i := range srcWM {
		srcWM[i] = stream.NoWatermark
	}
	state := map[uint64]*ssb.Table{}
	newTable := func() *ssb.Table {
		if q.Agg != nil {
			return ssb.NewAggTable(q.Agg)
		}
		return ssb.NewBagTable()
	}
	var wins []uint64
	var rec stream.Record
	var local int64

	minWM := func() stream.Watermark {
		m := stream.Watermark(1<<63 - 1)
		for i := range srcWM {
			if !ended[i] && srcWM[i] < m {
				m = srcWM[i]
			}
		}
		return m
	}
	trigger := func(now stream.Watermark) {
		for win, tbl := range state {
			if q.Window.End(win) > now {
				continue
			}
			if q.Agg != nil {
				agg := q.Agg
				tbl.ForEachAgg(func(key uint64, st []byte) {
					sink.EmitAgg(cid, win, key, agg.Result(st))
				})
			} else {
				tbl.ForEachSides(func(key uint64, left, right int) {
					sink.EmitJoin(cid, win, key, left, right)
				})
			}
			delete(state, win)
		}
	}

	remaining := len(inbound)
	for remaining > 0 {
		if run.stopped.Load() {
			return
		}
		progress := false
		for i, ex := range inbound {
			if ended[i] {
				continue
			}
			data, ok := ex.poll()
			if !ok {
				if err := ex.err(); err != nil {
					run.fail(err)
					return
				}
				continue
			}
			progress = true
			r, err := stream.NewBatchReader(data, q.Codec)
			if err != nil {
				run.fail(err)
				return
			}
			switch r.Kind() {
			case stream.KindEnd:
				ended[i] = true
				remaining--
			default:
				if r.Watermark() > srcWM[i] {
					srcWM[i] = r.Watermark()
				}
				for r.Next(&rec) {
					wins = q.Window.Assign(rec.Time, wins[:0])
					for _, win := range wins {
						tbl := state[win]
						if tbl == nil {
							tbl = newTable()
							state[win] = tbl
						}
						var err error
						if q.Agg != nil {
							err = tbl.UpdateAgg(&rec)
						} else {
							e := crdt.BagFromRecord(&rec, q.JoinSide(&rec))
							err = tbl.AppendBag(rec.Key, &e)
						}
						if err != nil {
							run.fail(err)
							return
						}
						local++
					}
				}
			}
			if err := ex.release(); err != nil {
				run.fail(err)
				return
			}
		}
		if progress {
			trigger(minWM())
		} else {
			runtime.Gosched()
		}
	}
	// All sources ended: everything pending can fire.
	trigger(stream.Watermark(1<<63 - 1))
	updates.Add(local)
}

// hash64 is the partitioning hash (same mixer the SSB uses, so key
// distributions compare fairly across systems).
func hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
