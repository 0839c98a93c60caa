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
//
// The partitioning producers and window operators are package repart's,
// shared with uppar; this package supplies the socket transport, its queue
// hand-offs and the runtime tax.
package flinksim

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/slash-stream/slash/internal/core"
	"github.com/slash-stream/slash/internal/ipoib"
	"github.com/slash-stream/slash/internal/repart"
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

func (c *Config) fill() {
	if c.BatchBytes == 0 {
		c.BatchBytes = 32 << 10
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 32
	}
	if c.FlushRecords == 0 {
		c.FlushRecords = 16384
	}
}

// frame is one exchange buffer in flight.
type frame struct {
	src  int // producer global id
	dest int // consumer global id
	data []byte
}

// frameHeaderSize is the wire size of a frame header on a socket:
// src u32 | dest u32 | end u8 | reserved [3]u8 | len u32. The end byte
// repeats whether the framed batch is an end token.
const frameHeaderSize = 16

// Run executes query q under the Flink-on-IPoIB model. flows is indexed
// [node][producer].
func Run(cfg Config, q *core.Query, flows [][]core.Flow, sink core.Sink) (*core.Report, error) {
	cfg.fill()
	plan := repart.Plan{
		Name:  "flinksim",
		Nodes: cfg.Nodes, ProducersPerNode: cfg.ProducersPerNode, ConsumersPerNode: cfg.ConsumersPerNode,
		FlushRecords: cfg.FlushRecords,
		BatchBytes:   cfg.BatchBytes,
	}
	if err := plan.Check(q, flows); err != nil {
		return nil, err
	}
	if cfg.RuntimeTaxLoops > 0 {
		taxed := make([][]core.Flow, len(flows))
		for n := range flows {
			taxed[n] = make([]core.Flow, len(flows[n]))
			for p, f := range flows[n] {
				taxed[n][p] = taxedFlow{f, cfg.RuntimeTaxLoops}
			}
		}
		flows = taxed
	}

	t := &transport{
		ctl:        &repart.Ctl{},
		prodPer:    cfg.ProducersPerNode,
		consPer:    cfg.ConsumersPerNode,
		batchBytes: cfg.BatchBytes,
	}
	// One socket per ordered node pair (Flink multiplexes logical channels
	// over TCP connections), and handoff queues: task → network per
	// (srcNode, dstNode), and network → consumer per consumer.
	t.socks = make([][]*ipoib.Stream, cfg.Nodes)
	t.outQ = make([][]chan frame, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		t.socks[i] = make([]*ipoib.Stream, cfg.Nodes)
		t.outQ[i] = make([]chan frame, cfg.Nodes)
		for j := 0; j < cfg.Nodes; j++ {
			if i != j {
				t.socks[i][j] = ipoib.NewStream(cfg.IPoIB)
				t.outQ[i][j] = make(chan frame, cfg.QueueDepth)
			}
		}
	}
	t.inQ = make([]chan frame, cfg.Nodes*cfg.ConsumersPerNode)
	for i := range t.inQ {
		t.inQ[i] = make(chan frame, cfg.QueueDepth)
	}
	t.ctl.OnStop = t.close
	return repart.Run(plan, t.ctl, q, flows, sink, t)
}

// taxedFlow burns the managed-runtime tax on every record its flow yields,
// ahead of the filter.
type taxedFlow struct {
	core.Flow
	loops int
}

func (f taxedFlow) Next(rec *stream.Record) bool {
	if !f.Flow.Next(rec) {
		return false
	}
	runtimeTax(f.loops)
	return true
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

// transport is the queue-based socket exchange: producer tasks hand
// batches to per-node-pair sender threads, receiver threads hand inbound
// batches to a fan-in queue per consumer task, and within a node producers
// hand batches straight to the consumer queue.
type transport struct {
	ctl              *repart.Ctl
	prodPer, consPer int
	batchBytes       int
	socks            [][]*ipoib.Stream // [src][dst] node
	outQ             [][]chan frame    // [src][dst] node
	inQ              []chan frame      // per consumer
}

func (t *transport) close() {
	for i := range t.socks {
		for _, s := range t.socks[i] {
			if s != nil {
				s.Close()
			}
		}
	}
}

func (t *transport) Output(pid, cid int) repart.Output {
	return &output{t: t, src: pid, dest: cid}
}

// output is one producer task's path to one consumer.
type output struct {
	t         *transport
	src, dest int
	buf       []byte
}

// Acquire returns a fresh heap buffer per batch: the allocation churn of a
// managed exchange stack.
func (o *output) Acquire() ([]byte, bool) {
	o.buf = make([]byte, o.t.batchBytes)
	return o.buf, true
}

// Post hands the batch on: to the consumer's queue within a node, or to
// the node pair's sender queue across nodes.
func (o *output) Post(used int) error {
	t := o.t
	srcNode, dstNode := o.src/t.prodPer, o.dest/t.consPer
	q := t.inQ[o.dest]
	if srcNode != dstNode {
		q = t.outQ[srcNode][dstNode]
	}
	return t.enqueue(q, frame{src: o.src, dest: o.dest, data: o.buf[:used]})
}

// enqueue blocks until q takes f or the run stops.
func (t *transport) enqueue(q chan frame, f frame) error {
	for {
		select {
		case q <- f:
			return nil
		default:
		}
		if t.ctl.Stopped() {
			return repart.ErrStopped
		}
		select {
		case q <- f:
			return nil
		case <-time.After(time.Millisecond):
		}
	}
}

// Start launches one sender and one receiver thread per directed node
// pair.
func (t *transport) Start(wg *sync.WaitGroup) {
	for src := range t.socks {
		for dst, s := range t.socks[src] {
			if s == nil {
				continue
			}
			wg.Add(2)
			go func() {
				defer wg.Done()
				t.runNetSender(t.outQ[src][dst], s)
			}()
			go func() {
				defer wg.Done()
				t.runNetReceiver(s)
			}()
		}
	}
}

// NodeDone closes the node's sender queues, so its sender threads drain
// them and close their sockets.
func (t *transport) NodeDone(node int) {
	for dst, q := range t.outQ[node] {
		if dst != node {
			close(q)
		}
	}
}

// Consume dequeues the consumer's fan-in queue and fires after every frame.
func (t *transport) Consume(cid int, op *repart.Operator) {
	in := t.inQ[cid]
	for !op.Done() {
		if t.ctl.Stopped() {
			return
		}
		var f frame
		select {
		case f = <-in:
		case <-time.After(time.Millisecond):
			continue
		}
		if err := op.Apply(f.src, f.data); err != nil {
			t.ctl.Fail(err)
			return
		}
		op.Fire()
	}
}

func (t *transport) Sent() (bytes, msgs int64) {
	for i := range t.socks {
		for _, s := range t.socks[i] {
			if s != nil {
				st := s.Stats()
				bytes += st.BytesSent
				msgs += st.MsgsSent
			}
		}
	}
	return bytes, msgs
}

// runNetSender drains one node-pair queue onto the socket.
func (t *transport) runNetSender(q chan frame, s *ipoib.Stream) {
	hdr := make([]byte, frameHeaderSize)
	for f := range q {
		putU32(hdr[0:], uint32(f.src))
		putU32(hdr[4:], uint32(f.dest))
		hdr[8] = 0
		if stream.BatchKind(f.data[0]) == stream.KindEnd {
			hdr[8] = 1
		}
		hdr[9], hdr[10], hdr[11] = 0, 0, 0
		putU32(hdr[12:], uint32(len(f.data)))
		if err := s.Send(hdr); err != nil {
			t.ctl.Fail(err)
			return
		}
		if err := s.Send(f.data); err != nil {
			t.ctl.Fail(err)
			return
		}
	}
	s.Close()
}

// runNetReceiver parses frames off the socket and routes them to consumer
// queues — the second queue handoff of the exchange.
func (t *transport) runNetReceiver(s *ipoib.Stream) {
	hdr := make([]byte, frameHeaderSize)
	for {
		if err := s.RecvFull(hdr); err != nil {
			if !errors.Is(err, ipoib.ErrClosed) {
				t.ctl.Fail(err)
			}
			return
		}
		src := int(getU32(hdr[0:]))
		dest := int(getU32(hdr[4:]))
		n := int(getU32(hdr[12:]))
		if dest < 0 || dest >= len(t.inQ) || n < 0 || n > 1<<26 {
			t.ctl.Fail(fmt.Errorf("flinksim: corrupt frame header dest=%d len=%d", dest, n))
			return
		}
		data := make([]byte, n) // deserialization copy into a fresh buffer
		if err := s.RecvFull(data); err != nil {
			t.ctl.Fail(err)
			return
		}
		if t.enqueue(t.inQ[dest], frame{src: src, dest: dest, data: data}) != nil {
			return
		}
	}
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
