// Package flinksim implements the plug-and-play baseline of the paper's
// evaluation (§3.1, §8.1.1): a production-style scale-out SPE in the mold of
// Apache Flink deployed on IP-over-InfiniBand. The design reproduces the
// structural costs the paper blames for Flink's gap:
//
//   - Socket-based networking: all inter-node traffic crosses the simulated
//     IPoIB stack (kernel-crossing cost and user/kernel copies on both
//     sides, package ipoib) instead of RDMA verbs.
//   - Queue-based exchange: producer (task) threads never touch the network;
//     they serialize records into buffers and hand them to dedicated network
//     sender threads through bounded queues, and receiver threads hand
//     inbound buffers to consumer threads through further queues — the
//     "expensive queue-based synchronization among network and data
//     processing threads" of §1.
//   - Operator-to-thread parallelism with hash re-partitioning before every
//     stateful operator, so each consumer owns co-partitioned local state.
//   - An optional per-record managed-runtime tax modelling JVM overhead
//     (object churn, virtual dispatch), disabled by default and calibrated
//     by the benchmark harness.
package flinksim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/slash-stream/slash/internal/core"
	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/ipoib"
	"github.com/slash-stream/slash/internal/ssb"
	"github.com/slash-stream/slash/internal/stream"
)

// Config describes the deployment.
type Config struct {
	// Nodes is the number of simulated nodes.
	Nodes int
	// ProducersPerNode and ConsumersPerNode split each node's task slots;
	// the network threads come on top (Flink's netty stack), mirroring the
	// paper's half-for-processing, half-for-network configuration.
	ProducersPerNode int
	ConsumersPerNode int
	// IPoIB models the socket transport costs.
	IPoIB ipoib.Config
	// BatchBytes is the serialized exchange buffer size. Default 32 KiB.
	BatchBytes int
	// QueueDepth bounds the handoff queues between task and network
	// threads. Default 32.
	QueueDepth int
	// FlushRecords bounds watermark staleness. Default 16384.
	FlushRecords int
	// RuntimeTaxLoops burns this many ALU iterations per record on the
	// task threads, modelling managed-runtime overhead. Zero disables.
	RuntimeTaxLoops int
}

func (c *Config) fill() error {
	if c.Nodes < 1 || c.ProducersPerNode < 1 || c.ConsumersPerNode < 1 {
		return fmt.Errorf("flinksim: invalid shape %d/%d/%d", c.Nodes, c.ProducersPerNode, c.ConsumersPerNode)
	}
	if c.BatchBytes == 0 {
		c.BatchBytes = 32 << 10
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 32
	}
	if c.FlushRecords == 0 {
		c.FlushRecords = 16384
	}
	return nil
}

// frame is one exchange buffer in flight.
type frame struct {
	src  int // producer global id
	dest int // consumer global id
	end  bool
	data []byte
}

// frameHeaderSize is the wire size of a frame header on a socket:
// src u32 | dest u32 | end u8 | reserved [3]u8 | len u32.
const frameHeaderSize = 16

var errStopped = errors.New("flinksim: stopped")

// Run executes query q under the Flink-on-IPoIB model. flows is indexed
// [node][producer].
func Run(cfg Config, q *core.Query, flows [][]core.Flow, sink core.Sink) (*core.Report, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if err := q.ValidateOperators(); err != nil {
		return nil, err
	}
	if len(flows) != cfg.Nodes {
		return nil, fmt.Errorf("flinksim: %d flow groups for %d nodes", len(flows), cfg.Nodes)
	}
	for i := range flows {
		if len(flows[i]) != cfg.ProducersPerNode {
			return nil, fmt.Errorf("flinksim: node %d has %d flows, want %d", i, len(flows[i]), cfg.ProducersPerNode)
		}
	}
	if sink == nil {
		sink = &core.CountingSink{}
	}
	if cfg.BatchBytes < stream.BatchHeaderSize+q.Codec.Size() {
		return nil, fmt.Errorf("flinksim: batch of %d bytes cannot hold one record", cfg.BatchBytes)
	}

	nProd := cfg.Nodes * cfg.ProducersPerNode
	nCons := cfg.Nodes * cfg.ConsumersPerNode

	// One socket per ordered node pair (Flink multiplexes logical channels
	// over TCP connections).
	socks := make([][]*ipoib.Stream, cfg.Nodes)
	for i := range socks {
		socks[i] = make([]*ipoib.Stream, cfg.Nodes)
		for j := range socks[i] {
			if i != j {
				socks[i][j] = ipoib.NewStream(cfg.IPoIB)
			}
		}
	}

	// Handoff queues: task → network per (srcNode, dstNode), and network →
	// consumer per consumer.
	outQ := make([][]chan frame, cfg.Nodes)
	for i := range outQ {
		outQ[i] = make([]chan frame, cfg.Nodes)
		for j := range outQ[i] {
			if i != j {
				outQ[i][j] = make(chan frame, cfg.QueueDepth)
			}
		}
	}
	inQ := make([]chan frame, nCons)
	for i := range inQ {
		inQ[i] = make(chan frame, cfg.QueueDepth)
	}

	run := &runCtl{}
	run.stopAll = func() {
		for i := range socks {
			for j := range socks[i] {
				if socks[i][j] != nil {
					socks[i][j].Close()
				}
			}
		}
	}

	var records, updates atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()

	// Network sender threads: one per directed node pair.
	for src := 0; src < cfg.Nodes; src++ {
		for dst := 0; dst < cfg.Nodes; dst++ {
			if src == dst {
				continue
			}
			wg.Add(1)
			go func(q chan frame, s *ipoib.Stream) {
				defer wg.Done()
				runNetSender(run, q, s)
			}(outQ[src][dst], socks[src][dst])
		}
	}

	// Network receiver threads: one per directed node pair.
	for dst := 0; dst < cfg.Nodes; dst++ {
		for src := 0; src < cfg.Nodes; src++ {
			if src == dst {
				continue
			}
			wg.Add(1)
			go func(s *ipoib.Stream) {
				defer wg.Done()
				runNetReceiver(run, s, inQ)
			}(socks[src][dst])
		}
	}

	// Consumer task threads.
	var consWG sync.WaitGroup
	for c := 0; c < nCons; c++ {
		wg.Add(1)
		consWG.Add(1)
		go func(cid int) {
			defer wg.Done()
			defer consWG.Done()
			runConsumer(run, q, cid, nProd, inQ[cid], sink, &updates)
		}(c)
	}

	// Producer task threads, plus a closer that shuts the per-node socket
	// queues once every producer of that node finished.
	prodWG := make([]sync.WaitGroup, cfg.Nodes)
	for node := 0; node < cfg.Nodes; node++ {
		for p := 0; p < cfg.ProducersPerNode; p++ {
			pid := node*cfg.ProducersPerNode + p
			prodWG[node].Add(1)
			wg.Add(1)
			go func(node, pid, p int) {
				defer wg.Done()
				defer prodWG[node].Done()
				runProducer(run, cfg, q, node, pid, flows[node][p], outQ[node], inQ, &records)
			}(node, pid, p)
		}
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			prodWG[node].Wait()
			for dst, ch := range outQ[node] {
				if dst != node && ch != nil {
					close(ch)
				}
			}
		}(node)
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
	for i := range socks {
		for j := range socks[i] {
			if socks[i][j] != nil {
				s := socks[i][j].Stats()
				rep.NetTxBytes += s.BytesSent
				rep.NetTxMsgs += s.MsgsSent
			}
		}
	}
	return rep, nil
}

type runCtl struct {
	once    sync.Once
	val     atomic.Value
	stopAll func()
	stopped atomic.Bool
}

func (r *runCtl) fail(err error) {
	r.once.Do(func() {
		r.val.Store(err)
		r.stopped.Store(true)
		if r.stopAll != nil {
			r.stopAll()
		}
	})
}

func (r *runCtl) err() error {
	if v := r.val.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// runtimeTax burns CPU modelling managed-runtime overhead.
func runtimeTax(loops int) {
	s := 1
	for i := 0; i < loops; i++ {
		s = s*31 + i
	}
	if s == 42 { // defeat dead-code elimination
		panic("unreachable")
	}
}

// runProducer applies filter/map, hash-partitions into per-consumer batch
// buffers, and hands full buffers to the exchange: directly to local
// consumer queues, or to the node's network sender queue for remote ones.
func runProducer(run *runCtl, cfg Config, q *core.Query, node, pid int, flow core.Flow, out []chan frame, inQ []chan frame, records *atomic.Int64) {
	nCons := len(inQ)
	writers := make([]*stream.BatchWriter, nCons)
	bufs := make([][]byte, nCons)
	wm := stream.NoWatermark
	var rec stream.Record
	var local int64
	sinceFlush := 0

	send := func(dest int, data []byte, end bool) bool {
		f := frame{src: pid, dest: dest, end: end, data: data}
		destNode := dest / (nCons / cfg.Nodes)
		if destNode == node {
			// Local exchange: still a queue handoff, no socket.
			select {
			case inQ[dest] <- f:
				return true
			default:
			}
			for {
				if run.stopped.Load() {
					return false
				}
				select {
				case inQ[dest] <- f:
					return true
				case <-time.After(time.Millisecond):
				}
			}
		}
		for {
			if run.stopped.Load() {
				return false
			}
			select {
			case out[destNode] <- f:
				return true
			case <-time.After(time.Millisecond):
			}
		}
	}
	flush := func(dest int) bool {
		w := writers[dest]
		if w == nil || w.Len() == 0 {
			return true
		}
		used := w.FinishData(wm)
		data := bufs[dest][:used]
		writers[dest] = nil
		bufs[dest] = nil
		return send(dest, data, false)
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
		runtimeTax(cfg.RuntimeTaxLoops)
		if q.Filter != nil && !q.Filter(&rec) {
			continue
		}
		if q.Map != nil {
			q.Map(&rec)
		}
		dest := int(hash64(rec.Key) % uint64(nCons))
		w := writers[dest]
		if w == nil {
			// A fresh heap buffer per batch: the allocation churn of a
			// managed exchange stack.
			bufs[dest] = make([]byte, cfg.BatchBytes)
			nw, err := stream.NewBatchWriter(bufs[dest], q.Codec)
			if err != nil {
				run.fail(err)
				return
			}
			writers[dest] = nw
			w = nw
		}
		if err := w.Append(&rec); err != nil {
			if !errors.Is(err, stream.ErrBatchFull) {
				run.fail(err)
				return
			}
			if !flush(dest) {
				return
			}
			bufs[dest] = make([]byte, cfg.BatchBytes)
			nw, err := stream.NewBatchWriter(bufs[dest], q.Codec)
			if err != nil {
				run.fail(err)
				return
			}
			writers[dest] = nw
			if err := nw.Append(&rec); err != nil {
				run.fail(err)
				return
			}
		}
		if sinceFlush >= cfg.FlushRecords {
			sinceFlush = 0
			for d := 0; d < nCons; d++ {
				if !flush(d) {
					return
				}
			}
		}
	}
	records.Add(local)
	for d := 0; d < nCons; d++ {
		if !flush(d) {
			return
		}
	}
	// End-of-stream tokens to every consumer.
	for d := 0; d < nCons; d++ {
		buf := make([]byte, stream.BatchHeaderSize+q.Codec.Size())
		w, err := stream.NewBatchWriter(buf, q.Codec)
		if err != nil {
			run.fail(err)
			return
		}
		used := w.FinishEnd(wm)
		if !send(d, buf[:used], true) {
			return
		}
	}
}

// runNetSender drains one node-pair queue onto the socket.
func runNetSender(run *runCtl, q chan frame, s *ipoib.Stream) {
	hdr := make([]byte, frameHeaderSize)
	for f := range q {
		putU32(hdr[0:], uint32(f.src))
		putU32(hdr[4:], uint32(f.dest))
		if f.end {
			hdr[8] = 1
		} else {
			hdr[8] = 0
		}
		hdr[9], hdr[10], hdr[11] = 0, 0, 0
		putU32(hdr[12:], uint32(len(f.data)))
		if err := s.Send(hdr); err != nil {
			if !run.stopped.Load() {
				run.fail(err)
			}
			return
		}
		if err := s.Send(f.data); err != nil {
			if !run.stopped.Load() {
				run.fail(err)
			}
			return
		}
	}
	s.Close()
}

// runNetReceiver parses frames off the socket and routes them to consumer
// queues — the second queue handoff of the exchange.
func runNetReceiver(run *runCtl, s *ipoib.Stream, inQ []chan frame) {
	hdr := make([]byte, frameHeaderSize)
	for {
		if err := s.RecvFull(hdr); err != nil {
			if !errors.Is(err, ipoib.ErrClosed) && !run.stopped.Load() {
				run.fail(err)
			}
			return
		}
		src := int(getU32(hdr[0:]))
		dest := int(getU32(hdr[4:]))
		end := hdr[8] == 1
		n := int(getU32(hdr[12:]))
		if dest < 0 || dest >= len(inQ) || n < 0 || n > 1<<26 {
			run.fail(fmt.Errorf("flinksim: corrupt frame header dest=%d len=%d", dest, n))
			return
		}
		data := make([]byte, n) // deserialization copy into a fresh buffer
		if err := s.RecvFull(data); err != nil {
			if !run.stopped.Load() {
				run.fail(err)
			}
			return
		}
		f := frame{src: src, dest: dest, end: end, data: data}
		for {
			if run.stopped.Load() {
				return
			}
			select {
			case inQ[dest] <- f:
			case <-time.After(time.Millisecond):
				continue
			}
			break
		}
	}
}

// runConsumer is one window-operator task: it dequeues exchange buffers,
// deserializes records, updates co-partitioned local state, and triggers
// windows once every producer's watermark passed their end.
func runConsumer(run *runCtl, q *core.Query, cid, nProd int, in chan frame, sink core.Sink, updates *atomic.Int64) {
	srcWM := make([]stream.Watermark, nProd)
	ended := make([]bool, nProd)
	for i := range srcWM {
		srcWM[i] = stream.NoWatermark
	}
	state := map[uint64]*ssb.Table{}
	var wins []uint64
	var rec stream.Record
	var local int64
	var sides ssb.SideCounter // one for every window this task fires
	remaining := nProd

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
				sides.Count(tbl, func(key uint64, left, right int) {
					sink.EmitJoin(cid, win, key, left, right)
				})
			}
			tbl.Reset() // returns a bag table's segments to the free list
			delete(state, win)
		}
	}

	for remaining > 0 {
		if run.stopped.Load() {
			return
		}
		var f frame
		select {
		case f = <-in:
		case <-time.After(time.Millisecond):
			continue
		}
		r, err := stream.NewBatchReader(f.data, q.Codec)
		if err != nil {
			run.fail(err)
			return
		}
		if f.end || r.Kind() == stream.KindEnd {
			if f.src >= 0 && f.src < nProd && !ended[f.src] {
				ended[f.src] = true
				remaining--
			}
			trigger(minWM())
			continue
		}
		if f.src >= 0 && f.src < nProd && r.Watermark() > srcWM[f.src] {
			srcWM[f.src] = r.Watermark()
		}
		for r.Next(&rec) {
			wins = q.Window.Assign(rec.Time, wins[:0])
			for _, win := range wins {
				tbl := state[win]
				if tbl == nil {
					if q.Agg != nil {
						tbl = ssb.NewAggTable(q.Agg)
					} else {
						tbl = ssb.NewBagTable()
					}
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
		trigger(minWM())
	}
	trigger(stream.Watermark(1<<63 - 1))
	updates.Add(local)
}

func hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func putU32(b []byte, v uint32) {
	_ = b[3]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getU32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
