package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/slash-stream/slash/internal/channel"
	"github.com/slash-stream/slash/internal/core"
	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/rdma"
	"github.com/slash-stream/slash/internal/ssb"
	"github.com/slash-stream/slash/internal/stateq"
	"github.com/slash-stream/slash/internal/stream"
	"github.com/slash-stream/slash/internal/window"
)

// span is one timed call into a layer's public function. Times are ns since
// the trace began; Parent is the span that was open when this one began (-1
// for the root); Batch is the source batch being worked on, the identifier
// spans of one batch share.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Batch  int64  `json:"batch"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the replay ends.
// One goroutine uses it, so the open spans form a stack.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32
	batch int64
}

func (t *tracer) begin(name string) int32 {
	id := int32(len(t.spans))
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Batch: t.batch})
	t.open = append(t.open, id)
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int32) {
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns each layer's self time: the duration of its spans minus
// the part their child spans cover.
func selfTimes(spans []span) map[string]int64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]int64{}
	for i, s := range spans {
		self[s.Name] += s.End - s.Start - child[i]
	}
	return self
}

// Span names. The prefix before the first dot is the internal/ package whose
// public function the span times.
const (
	spanRoot       = "bench.loop"
	spanSourceStep = "core.source_step"
	spanMergeStep  = "core.merge_step"
	spanFill       = "workload.fill"
	spanOperators  = "core.operators"
	spanAssign     = "window.assign"
	spanUpdate     = "ssb.update"
	spanFlush      = "ssb.flush"
	spanEncode     = "ssb.chunk_encode"
	spanDecode     = "ssb.chunk_decode"
	spanMerge      = "ssb.merge"
	spanTrigger    = "ssb.trigger"
	spanSend       = "channel.send"
	spanRecv       = "channel.recv"
	spanStall      = "channel.credit_stall"
	spanPublish    = "stateq.publish"
	spanSink       = "sink.emit"
)

var (
	sourceLoopSpans = []string{spanSourceStep, spanFill, spanOperators, spanAssign, spanUpdate}
	syncSpans       = []string{spanMergeStep, spanFlush, spanEncode, spanDecode, spanMerge, spanSend, spanRecv, spanStall}
)

// replaySpec is one job for the layer replay.
type replaySpec struct {
	q     *core.Query
	flows []core.BatchFlow // one per node, read as fast as the loop goes
	ref   *reference       // of exactly these flows
	tcp   bool             // remote links on netfab over loopback TCP, not the in-process fabric
	state bool             // every leader publishes into a stateq region
}

// batchRecords is core.Config's default BatchRecords.
const batchRecords = 256

// sinkSample times one sink callback in this many; a clock read per row would
// cost more than the callback.
const sinkSample = 64

// replay rebuilds the engine's pipeline on one goroutine from the layers'
// public functions only, mirroring core's sourceTask.stepBatch and
// mergeTask.step, with a span around each call. What the engine's four
// workers overlap, this loop runs in turn: its wall time is the
// single-threaded baseline of the same job.
type replay struct {
	spec  replaySpec
	tr    *tracer
	nodes []*replayNode
	sink  *checkSink
	err   error

	records, sent, merged, windows, rows int64
	sinkNs, clockNs                      int64
}

type replayNode struct {
	id       int
	be       *ssb.Backend
	ts       *ssb.ThreadState
	flow     core.BatchFlow
	rb       *stream.RecordBatch
	runs     window.Runs
	assign   window.RunAssigner
	selTimes []int64
	sides    []uint8
	in       *channel.Consumer
	emitAgg  ssb.EmitAgg
	emitBag  ssb.EmitBag

	srcDone, mergeDone bool
}

// replaySender is the ssb.Sender of one directed link: what core's chanSender
// does, minus recovery, with the blocking Acquire replaced by a loop that
// runs the destination's merge step, because nobody else will.
type replaySender struct {
	r    *replay
	prod *channel.Producer
	dst  *replayNode
}

func (s *replaySender) Send(c *ssb.Chunk) error {
	if c.EncodedSize() > s.prod.DataSize() {
		return fmt.Errorf("replay: chunk of %d bytes exceeds channel slot %d", c.EncodedSize(), s.prod.DataSize())
	}
	tr := s.r.tr
	id := tr.begin(spanSend)
	sb, ok := s.prod.TryAcquire()
	tr.end(id)
	if !ok {
		id = tr.begin(spanStall)
		for ; !ok; sb, ok = s.prod.TryAcquire() {
			if err := errors.Join(s.prod.Err(), s.r.err); err != nil {
				tr.end(id)
				return err
			}
			if s.dst.in.Backlog() > 0 {
				s.r.mergeStep(s.dst)
			} else {
				runtime.Gosched() // the credit WRITE is still on the wire
			}
		}
		tr.end(id)
	}
	sb.Thread, sb.Epoch = uint32(c.Thread), c.Epoch
	id = tr.begin(spanEncode)
	n := c.Encode(sb.Data)
	tr.end(id)
	id = tr.begin(spanSend)
	err := s.prod.Post(sb, n)
	tr.end(id)
	s.r.sent++
	return err
}

// sourceStep mirrors sourceTask.stepBatch and reports whether it flushed.
func (r *replay) sourceStep(n *replayNode) (flushed bool) {
	tr := r.tr
	tr.batch++
	step := tr.begin(spanSourceStep)
	defer tr.end(step)

	rb := n.rb
	rb.Reset(batchRecords)
	id := tr.begin(spanFill)
	more := n.flow.Batch(rb)
	tr.end(id)
	cnt := rb.Len()
	if cnt > 0 {
		r.records += int64(cnt)
		if r.err = r.processBatch(n, rb); r.err != nil {
			return false
		}
		n.ts.ObserveTime(rb.Times[cnt-1])
	}
	finish := !more
	if !finish && !n.ts.Ingest(cnt*r.spec.q.Codec.Size()) {
		return false
	}
	id = tr.begin(spanFlush)
	if finish {
		r.err = n.ts.FinishStream()
		n.srcDone = true
	} else {
		r.err = n.ts.Flush()
	}
	tr.end(id)
	return true
}

// processBatch mirrors sourceTask.processBatch.
func (r *replay) processBatch(n *replayNode, rb *stream.RecordBatch) error {
	tr, q := r.tr, r.spec.q
	if q.FilterBatch != nil {
		id := tr.begin(spanOperators)
		q.FilterBatch(rb)
		tr.end(id)
		if rb.Live() == 0 {
			return nil
		}
	}
	if q.MapBatch != nil {
		id := tr.begin(spanOperators)
		q.MapBatch(rb)
		tr.end(id)
	}
	times := rb.Times[:rb.Len()]
	if rb.Sel != nil {
		gathered := n.selTimes[:0]
		for _, i := range rb.Sel {
			gathered = append(gathered, rb.Times[i])
		}
		n.selTimes = gathered
		times = gathered
	}
	n.runs.Reset()
	id := tr.begin(spanAssign)
	n.assign.AssignRuns(times, &n.runs)
	tr.end(id)
	var sides []uint8
	if q.JoinSideBatch != nil {
		sides = n.sides[:rb.Len()]
		id = tr.begin(spanOperators)
		q.JoinSideBatch(rb, sides)
		tr.end(id)
	}
	for i := 0; i < n.runs.N(); i++ {
		p0, p1 := n.runs.Span(i)
		for _, win := range n.runs.Windows(i) {
			var err error
			id = tr.begin(spanUpdate)
			if sides != nil {
				err = n.ts.AppendBagBatch(win, rb, p0, p1, sides)
			} else {
				err = n.ts.UpdateAggBatch(win, rb, p0, p1)
			}
			tr.end(id)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// chunksPerMergeStep is core's per-step merge budget.
const chunksPerMergeStep = 32

// mergeStep mirrors mergeTask.step for the node's one inbound link.
func (r *replay) mergeStep(n *replayNode) {
	tr := r.tr
	step := tr.begin(spanMergeStep)
	defer tr.end(step)
	for budget := chunksPerMergeStep; budget > 0 && r.err == nil; budget-- {
		id := tr.begin(spanRecv)
		rb, ok := n.in.TryPoll()
		tr.end(id)
		if !ok {
			r.err = n.in.Err()
			break
		}
		id = tr.begin(spanDecode)
		chunk, err := ssb.DecodeChunk(rb.Data)
		tr.end(id)
		if err == nil {
			id = tr.begin(spanMerge)
			err = n.be.HandleChunk(&chunk)
			tr.end(id)
			r.merged++
		}
		if err == nil {
			id = tr.begin(spanRecv)
			err = n.in.Release(rb)
			tr.end(id)
		}
		r.err = err
	}
	if r.err != nil {
		return
	}
	r.sinkNs = 0
	id := tr.begin(spanTrigger)
	fired := n.be.TriggerReady(n.emitAgg, n.emitBag)
	tr.end(id)
	r.windows += int64(fired)
	if r.sinkNs > 0 {
		// The sampled sink callbacks of this trigger, as one child span.
		start := tr.spans[id].Start
		tr.spans = append(tr.spans, span{ID: int32(len(tr.spans)), Parent: id, Name: spanSink, Batch: tr.batch, Start: start, End: start + r.sinkNs})
	}
	if r.spec.state {
		id = tr.begin(spanPublish)
		n.be.PublishDirty()
		tr.end(id)
	}
	n.mergeDone = n.be.PendingWindows() == 0 && n.be.Clock().Covers(math.MaxInt64)
}

// sinkStart and sinkEnd bracket one sink callback, timing one in sinkSample.
func (r *replay) sinkStart() (t time.Time) {
	if r.rows%sinkSample == 0 {
		t = time.Now()
	}
	return t
}

func (r *replay) sinkEnd(t time.Time) {
	if !t.IsZero() {
		r.sinkNs += max(int64(time.Since(t))-r.clockNs, 0) * sinkSample
	}
	r.rows++
}

// clockCost is what an empty timed region reads on this machine: the least of
// many tries. A sampled sink callback is a few ns of work inside a clock read
// that costs several times that, so the cost is taken off every sample.
func clockCost() int64 {
	least := int64(math.MaxInt64)
	for i := 0; i < 1000; i++ {
		t := time.Now()
		least = min(least, int64(time.Since(t)))
	}
	return least
}

func newReplay(spec replaySpec) (*replay, func(), error) {
	q := spec.q
	if (q.Filter != nil && q.FilterBatch == nil) || (q.Map != nil && q.MapBatch == nil) || (q.JoinSide != nil && q.JoinSideBatch == nil) {
		return nil, nil, fmt.Errorf("replay: query %q has an operator without its batch form", q.Name)
	}
	r := &replay{spec: spec, tr: &tracer{}, sink: newCheckSink(spec.ref, nodes), clockNs: clockCost()}
	var closers []func()
	cleanup := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	fail := func(err error) (*replay, func(), error) {
		cleanup()
		return nil, nil, err
	}

	fabric := rdma.NewFabric(rdma.Config{})
	nics := make([]*rdma.NIC, nodes)
	for i := range nics {
		nics[i] = fabric.MustNIC(fmt.Sprintf("node%d", i))
		r.nodes = append(r.nodes, &replayNode{id: i, flow: spec.flows[i]})
	}
	cfg := channel.Config{SlotSize: core.ChannelSlotSize(0)}
	senders := make([][]ssb.Sender, nodes)
	for src := range senders {
		senders[src] = make([]ssb.Sender, nodes)
	}
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			if src == dst {
				continue
			}
			var p *channel.Producer
			var c *channel.Consumer
			if spec.tcp {
				link, err := newTCPLink(cfg)
				if err != nil {
					return fail(err)
				}
				closers = append(closers, link.close)
				p, c = link.prod, link.cons
			} else {
				var err error
				if p, c, err = channel.New(nics[src], nics[dst], cfg); err != nil {
					return fail(err)
				}
				closers = append(closers, p.Close, c.Close)
			}
			senders[src][dst] = &replaySender{r: r, prod: p, dst: r.nodes[dst]}
			r.nodes[dst].in = c
		}
	}

	var agg crdt.Aggregate
	if q.JoinSide == nil {
		agg = q.Agg
	}
	for _, n := range r.nodes {
		be, err := ssb.New(ssb.Config{Node: n.id, Nodes: nodes, ThreadsPerNode: 1, Agg: agg, WindowEnd: q.Window.End}, senders[n.id])
		if err != nil {
			return fail(err)
		}
		if spec.state {
			opts := stateq.Options{}
			opts.Fill()
			pub, err := stateq.NewPublisher(nics[n.id], n.id, 0, opts)
			if err != nil {
				return fail(err)
			}
			be.SetStatePublisher(pub, opts.PublishBytes)
		}
		n.be, n.ts = be, be.Thread(0)
		n.rb = stream.NewRecordBatch(batchRecords)
		n.assign = window.ForRuns(q.Window)
		n.selTimes = make([]int64, 0, batchRecords)
		n.sides = make([]uint8, batchRecords)
		node := n.id
		n.emitAgg = func(win, key uint64, value int64) {
			t := r.sinkStart()
			r.sink.EmitAgg(node, win, key, value)
			r.sinkEnd(t)
		}
		n.emitBag = func(win, key uint64, elems []crdt.BagElem) {
			t := r.sinkStart()
			left := 0
			for i := range elems {
				if elems[i].Side == 0 {
					left++
				}
			}
			r.sink.EmitJoin(node, win, key, left, len(elems)-left)
			r.sinkEnd(t)
		}
	}
	return r, cleanup, nil
}

// run steps sources and merge tasks in turn until every window has fired. A
// merge task runs when it has something to do: after a flush, or with chunks
// waiting. The engine's idle polling is the scheduler's cost, which the
// counters measure.
func (r *replay) run() error {
	tr := r.tr
	// Growing the span slice inside the timed loop would be the tracer's own
	// cost showing up as uncovered time; batches are the bulk of the spans.
	tr.spans = make([]span, 0, int(r.spec.ref.records/batchRecords)*8+1<<16)
	tr.t0 = time.Now()
	root := tr.begin(spanRoot)
	for r.err == nil {
		flushed, reading, merging := false, false, false
		for _, n := range r.nodes {
			if !n.srcDone {
				flushed = r.sourceStep(n) || flushed
			}
			reading = reading || !n.srcDone
		}
		for _, n := range r.nodes {
			if !n.mergeDone && (flushed || n.in.Backlog() > 0) && r.err == nil {
				r.mergeStep(n)
			}
			merging = merging || !n.mergeDone
		}
		if !merging {
			break
		}
		if !reading && !flushed {
			runtime.Gosched() // only TCP leaves chunks in flight here
		}
	}
	tr.end(root)
	return r.err
}

// startTrace begins a workload's traced passes with the two parts every
// workload shares: the layer replay of its job and the transport micro rows.
func startTrace(cfg config, spec replaySpec) (*traced, error) {
	t := &traced{values: map[string]float64{}}
	if err := layerReplay(t, cfg, spec); err != nil {
		return nil, err
	}
	if err := microRows(cfg, t.values); err != nil {
		return nil, err
	}
	return t, nil
}

// layerReplay runs the traced replay of one job, writes its spans to
// trace-<workload>.json and fills in the per-layer metrics that are self
// times.
func layerReplay(t *traced, cfg config, spec replaySpec) error {
	r, cleanup, err := newReplay(spec)
	if err != nil {
		return err
	}
	err = r.run()
	cleanup()
	if err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	a, f := r.sink.check(spec.ref)
	t.attempted += a
	t.failed += f
	if err := writeTrace(cfg, r.tr.spans); err != nil {
		return err
	}

	spans := r.tr.spans
	self := selfTimes(spans)
	ns := func(names ...string) float64 {
		var sum int64
		for _, n := range names {
			sum += self[n]
		}
		return float64(sum)
	}
	var chunks uint64
	for _, n := range r.nodes {
		chunks += n.ts.Stats().ChunksSent
	}
	recs, sent, merged := float64(r.records), float64(r.sent), float64(r.merged)
	wall := float64(spans[0].End - spans[0].Start)
	layers := wall - ns(spanRoot)

	v := t.values
	v["workload.fill_ns_per_rec"] = ratio(ns(spanFill), recs)
	v["core.operators_ns_per_rec"] = ratio(ns(spanOperators), recs)
	v["core.step_glue_ns_per_rec"] = ratio(ns(spanSourceStep, spanMergeStep), recs)
	v["window.assign_ns_per_rec"] = ratio(ns(spanAssign), recs)
	v["ssb.update_ns_per_rec"] = ratio(ns(spanUpdate), recs)
	v["trace.single_thread_records_per_s"] = ratio(recs, wall) * 1e9
	v["ssb.flush_ns_per_chunk"] = ratio(ns(spanFlush), float64(chunks))
	v["ssb.chunk_encode_ns_per_chunk"] = ratio(ns(spanEncode), sent)
	v["ssb.chunk_decode_ns_per_chunk"] = ratio(ns(spanDecode), merged)
	v["ssb.merge_ns_per_chunk"] = ratio(ns(spanMerge), merged)
	v["channel.send_ns_per_slot"] = ratio(ns(spanSend), sent)
	v["channel.recv_ns_per_slot"] = ratio(ns(spanRecv), merged)
	v["ssb.trigger_ns_per_window"] = ratio(ns(spanTrigger), float64(r.windows))
	v["sink.emit_ns_per_row"] = ratio(ns(spanSink), float64(r.rows))
	v["sink.rows_per_window"] = ratio(float64(r.rows), float64(r.windows))
	v["stateq.publish_ns_per_chunk"] = ratio(ns(spanPublish), merged)
	v["trace.coverage_pct"] = ratio(layers, wall) * 100
	v["trace.source_loop_share_pct"] = ratio(ns(sourceLoopSpans...), layers) * 100
	v["trace.sync_share_pct"] = ratio(ns(syncSpans...), layers) * 100
	return nil
}

func writeTrace(cfg config, spans []span) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(cfg.outDir, "trace-"+cfg.name+".json"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{cfg.name, spans})
	return errors.Join(err, w.Flush(), f.Close())
}
