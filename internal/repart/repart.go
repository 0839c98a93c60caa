// Package repart is the re-partitioning engine under the paper's two
// scale-out baselines (§3.1): the classical SPE design that hash
// re-partitions every stream before its stateful operator, so each consumer
// owns co-partitioned local state. Flink on IPoIB and RDMA UpPar are this
// one design over different transports, so the partitioning producer, the
// window operator and the run control live here once, and each baseline
// supplies only its Transport: flinksim's socket stack with queue hand-offs,
// uppar's RDMA channels and SPSC rings.
//
// A producer reads its flow, applies filter/map, picks the destination
// consumer by key hash and serializes the record into that destination's
// open batch — the per-record partitioning work whose cost the paper's
// drill-down attributes UpPar's front-end stalls to (§8.3.3). Batches go out
// when full and every Plan.FlushRecords input records (bounding watermark
// staleness), and an end token to every consumer closes the flow. A window
// operator keeps one watermark per source and one table per open window, and
// fires a window once every live source's watermark passed its end.
package repart

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/slash-stream/slash/internal/core"
	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/ssb"
	"github.com/slash-stream/slash/internal/stream"
)

// Plan is one deployment: Nodes × ProducersPerNode partitioning producers
// feed Nodes × ConsumersPerNode window operators.
type Plan struct {
	// Name prefixes error messages.
	Name                                      string
	Nodes, ProducersPerNode, ConsumersPerNode int
	// FlushRecords forces open batches out every so many input records.
	FlushRecords int
	// BatchBytes is the writable size of one batch region.
	BatchBytes int
}

// Check validates the plan against the query and flows, which are indexed
// [node][producer].
func (p Plan) Check(q *core.Query, flows [][]core.Flow) error {
	if p.Nodes < 1 || p.ProducersPerNode < 1 || p.ConsumersPerNode < 1 {
		return fmt.Errorf("%s: invalid shape %d nodes, %d producers, %d consumers",
			p.Name, p.Nodes, p.ProducersPerNode, p.ConsumersPerNode)
	}
	if err := q.ValidateOperators(); err != nil {
		return err
	}
	if len(flows) != p.Nodes {
		return fmt.Errorf("%s: %d flow groups for %d nodes", p.Name, len(flows), p.Nodes)
	}
	for i := range flows {
		if len(flows[i]) != p.ProducersPerNode {
			return fmt.Errorf("%s: node %d has %d flows, want %d", p.Name, i, len(flows[i]), p.ProducersPerNode)
		}
	}
	if need := stream.BatchHeaderSize + q.Codec.Size(); p.BatchBytes < need {
		return fmt.Errorf("%s: a %d-byte batch cannot hold one record (%d bytes)", p.Name, p.BatchBytes, need)
	}
	return nil
}

// Output is a producer's path to one consumer.
type Output interface {
	// Acquire returns a writable region for the next batch, or false while
	// none is free.
	Acquire() ([]byte, bool)
	// Post sends the first used bytes of the region Acquire returned last.
	Post(used int) error
}

// Transport moves batches from producers to consumers. Producer pid runs on
// node pid/ProducersPerNode and consumer cid on node cid/ConsumersPerNode.
type Transport interface {
	// Output returns producer pid's path to consumer cid.
	Output(pid, cid int) Output
	// Start launches the transport's own threads, counted on wg.
	Start(wg *sync.WaitGroup)
	// Consume is consumer cid's receive loop: it hands every inbound
	// batch to op.Apply, fires op as the transport's cadence dictates, and
	// returns once op.Done or the run stopped.
	Consume(cid int, op *Operator)
	// NodeDone reports that every producer on node returned.
	NodeDone(node int)
	// Sent reports the bytes and messages put on the network.
	Sent() (bytes, msgs int64)
}

// Ctl is a run's control: the first failure is kept and stops the run.
type Ctl struct {
	// OnStop tears the transport down so blocked threads exit.
	OnStop  func()
	once    sync.Once
	first   atomic.Value
	stopped atomic.Bool
}

// Fail records err if it is the run's first failure and stops the run.
func (c *Ctl) Fail(err error) {
	c.once.Do(func() {
		c.first.Store(err)
		c.stopped.Store(true)
		if c.OnStop != nil {
			c.OnStop()
		}
	})
}

// Stopped reports whether the run failed.
func (c *Ctl) Stopped() bool { return c.stopped.Load() }

// Err returns the run's first failure, if any.
func (c *Ctl) Err() error {
	if v := c.first.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// Run executes q over transport t: one window operator per consumer, one
// partitioning producer per flow. Call p.Check first. sink nil discards.
func Run(p Plan, ctl *Ctl, q *core.Query, flows [][]core.Flow, sink core.Sink, t Transport) (*core.Report, error) {
	if sink == nil {
		sink = &core.CountingSink{}
	}
	nProd := p.Nodes * p.ProducersPerNode
	nCons := p.Nodes * p.ConsumersPerNode

	var records, updates atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	t.Start(&wg)
	for c := 0; c < nCons; c++ {
		wg.Add(1)
		go func(cid int) {
			defer wg.Done()
			op := newOperator(q, cid, nProd, sink)
			t.Consume(cid, op)
			if op.Done() {
				updates.Add(op.Finish())
			}
		}(c)
	}
	for node := range flows {
		var nodeWG sync.WaitGroup
		for i, flow := range flows[node] {
			pid := node*p.ProducersPerNode + i
			outs := make([]Output, nCons)
			for c := range outs {
				outs[c] = t.Output(pid, c)
			}
			nodeWG.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer nodeWG.Done()
				records.Add(produce(ctl, q, flow, outs, p.FlushRecords))
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			nodeWG.Wait()
			t.NodeDone(node)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := ctl.Err(); err != nil {
		return nil, err
	}
	rep := &core.Report{
		Query:   q.Name,
		Nodes:   p.Nodes,
		Threads: p.ProducersPerNode + p.ConsumersPerNode,
		Records: records.Load(),
		Updates: updates.Load(),
		Elapsed: elapsed,
	}
	if elapsed > 0 {
		rep.RecordsPerSec = float64(rep.Records) / elapsed.Seconds()
	}
	rep.NetTxBytes, rep.NetTxMsgs = t.Sent()
	return rep, nil
}

// ErrStopped is what a blocked transport or producer step returns once the
// run failed elsewhere.
var ErrStopped = errors.New("repart: stopped")

// producer holds one partitioning producer's open batch per destination.
type producer struct {
	ctl   *Ctl
	codec stream.Codec
	outs  []Output
	open  []*stream.BatchWriter
	wm    stream.Watermark
}

// produce runs one producer over flow and returns the records it read.
// Errors, including those after the run stopped, go to ctl.
func produce(ctl *Ctl, q *core.Query, flow core.Flow, outs []Output, flushRecords int) int64 {
	p := &producer{ctl: ctl, codec: q.Codec, outs: outs, open: make([]*stream.BatchWriter, len(outs)), wm: stream.NoWatermark}
	nCons := uint64(len(outs))
	var rec stream.Record
	var records int64
	sinceFlush := 0
	for {
		if ctl.Stopped() {
			return records
		}
		if !flow.Next(&rec) {
			break
		}
		records++
		sinceFlush++
		if rec.Time > p.wm {
			p.wm = rec.Time
		}
		if q.Filter != nil && !q.Filter(&rec) {
			continue
		}
		if q.Map != nil {
			q.Map(&rec)
		}
		// The data-dependent destination select: this branch plus the
		// scattered fan-out buffer write is the partitioning cost.
		if err := p.append(int(ssb.Mix64(rec.Key)%nCons), &rec); err != nil {
			ctl.Fail(err)
			return records
		}
		if sinceFlush >= flushRecords {
			sinceFlush = 0
			if err := p.flushAll(); err != nil {
				ctl.Fail(err)
				return records
			}
		}
	}
	err := p.flushAll()
	// End-of-stream tokens let consumers treat this source as fully
	// progressed.
	for dest := 0; err == nil && dest < len(outs); dest++ {
		var w *stream.BatchWriter
		if w, err = p.acquire(dest); err == nil {
			p.open[dest] = nil
			err = outs[dest].Post(w.FinishEnd(p.wm))
		}
	}
	if err != nil {
		ctl.Fail(err)
	}
	return records
}

// append writes rec into dest's open batch, sending the batch first if it
// is full.
func (p *producer) append(dest int, rec *stream.Record) error {
	w := p.open[dest]
	if w == nil {
		var err error
		if w, err = p.acquire(dest); err != nil {
			return err
		}
	}
	err := w.Append(rec)
	if err == nil || !errors.Is(err, stream.ErrBatchFull) {
		return err
	}
	if err := p.flush(dest); err != nil {
		return err
	}
	if w, err = p.acquire(dest); err != nil {
		return err
	}
	return w.Append(rec)
}

// acquire opens a batch for dest, yielding while its output has no free
// region.
func (p *producer) acquire(dest int) (*stream.BatchWriter, error) {
	for {
		if p.ctl.Stopped() {
			return nil, ErrStopped
		}
		if data, ok := p.outs[dest].Acquire(); ok {
			w, err := stream.NewBatchWriter(data, p.codec)
			p.open[dest] = w
			return w, err
		}
		runtime.Gosched()
	}
}

// flush sends dest's open batch, if it holds records.
func (p *producer) flush(dest int) error {
	w := p.open[dest]
	if w == nil || w.Len() == 0 {
		return nil
	}
	p.open[dest] = nil
	return p.outs[dest].Post(w.FinishData(p.wm))
}

func (p *producer) flushAll() error {
	for dest := range p.open {
		if err := p.flush(dest); err != nil {
			return err
		}
	}
	return nil
}

// maxWatermark passes every window end.
const maxWatermark = stream.Watermark(1<<63 - 1)

// Operator is one window-operator task over co-partitioned local state.
type Operator struct {
	q       *core.Query
	cid     int
	sink    core.Sink
	srcWM   []stream.Watermark
	ended   []bool
	live    int // sources that have not ended
	state   map[uint64]*ssb.Table
	wins    []uint64
	rec     stream.Record
	sides   ssb.SideCounter // one for every window this task fires
	updates int64
}

func newOperator(q *core.Query, cid, sources int, sink core.Sink) *Operator {
	o := &Operator{
		q: q, cid: cid, sink: sink,
		srcWM: make([]stream.Watermark, sources),
		ended: make([]bool, sources),
		live:  sources,
		state: map[uint64]*ssb.Table{},
	}
	for i := range o.srcWM {
		o.srcWM[i] = stream.NoWatermark
	}
	return o
}

// Apply folds one inbound batch from source src into the window tables;
// an end token retires src.
func (o *Operator) Apply(src int, data []byte) error {
	if src < 0 || src >= len(o.srcWM) {
		return fmt.Errorf("repart: batch from unknown source %d", src)
	}
	r, err := stream.NewBatchReader(data, o.q.Codec)
	if err != nil {
		return err
	}
	if r.Kind() == stream.KindEnd {
		if !o.ended[src] {
			o.ended[src] = true
			o.live--
		}
		return nil
	}
	if r.Watermark() > o.srcWM[src] {
		o.srcWM[src] = r.Watermark()
	}
	q, rec := o.q, &o.rec
	for r.Next(rec) {
		o.wins = q.Window.Assign(rec.Time, o.wins[:0])
		for _, win := range o.wins {
			tbl := o.state[win]
			if tbl == nil {
				if q.Agg != nil {
					tbl = ssb.NewAggTable(q.Agg)
				} else {
					tbl = ssb.NewBagTable()
				}
				o.state[win] = tbl
			}
			var err error
			if q.Agg != nil {
				err = tbl.UpdateAgg(rec)
			} else {
				e := crdt.BagFromRecord(rec, q.JoinSide(rec))
				err = tbl.AppendBag(rec.Key, &e)
			}
			if err != nil {
				return err
			}
			o.updates++
		}
	}
	return nil
}

// Ended reports whether source src sent its end token.
func (o *Operator) Ended(src int) bool { return o.ended[src] }

// Done reports whether every source ended.
func (o *Operator) Done() bool { return o.live == 0 }

// Fire emits and drops every window the minimum watermark of the live
// sources has passed.
func (o *Operator) Fire() {
	m := maxWatermark
	for i, wm := range o.srcWM {
		if !o.ended[i] && wm < m {
			m = wm
		}
	}
	o.trigger(m)
}

// Finish fires every pending window and returns the number of state
// updates the operator applied.
func (o *Operator) Finish() int64 {
	o.trigger(maxWatermark)
	return o.updates
}

func (o *Operator) trigger(now stream.Watermark) {
	for win, tbl := range o.state {
		if o.q.Window.End(win) > now {
			continue
		}
		if agg := o.q.Agg; agg != nil {
			tbl.ForEachAgg(func(key uint64, st []byte) {
				o.sink.EmitAgg(o.cid, win, key, agg.Result(st))
			})
		} else {
			o.sides.Count(tbl, func(key uint64, left, right int) {
				o.sink.EmitJoin(o.cid, win, key, left, right)
			})
		}
		tbl.Reset() // returns a bag table's segments to the free list
		delete(o.state, win)
	}
}
