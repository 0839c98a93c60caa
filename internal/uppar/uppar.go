// Package uppar implements RDMA UpPar, the paper's lightweight-integration
// strawman (§3.1): a scale-out SPE that keeps the classical design of
// re-partitioning streams before stateful operators, but replaces its
// socket transport with Slash's RDMA channels.
//
// Each node splits its threads between producers (filter/projection +
// hash-partitioning, the paper's sender half) and consumers (the window
// operator over co-partitioned local state, the receiver half). Both halves
// are package repart's, shared with flinksim; this package supplies the
// transport. Every producer thread owns one RDMA channel to every consumer
// thread on another node and an SPSC ring to every one on its own —
// records are serialized into per-destination batches selected by key hash,
// so the partitioning work (hashing, branching, data-dependent writes into
// fan-out buffers) sits on the critical per-record path. That is the cost
// Slash's design eliminates, and what Figs. 6, 8 and 9 measure.
package uppar

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/slash-stream/slash/internal/channel"
	"github.com/slash-stream/slash/internal/core"
	"github.com/slash-stream/slash/internal/rdma"
	"github.com/slash-stream/slash/internal/repart"
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

func (c *Config) fill() {
	if c.FlushRecords == 0 {
		c.FlushRecords = 16384
	}
	if c.Channel.Credits == 0 {
		c.Channel.Credits = channel.DefaultCredits
	}
	if c.Channel.SlotSize == 0 {
		c.Channel.SlotSize = channel.DefaultSlotSize
	}
}

// exchange is a point-to-point batch transport: an RDMA channel across
// nodes, or an SPSC ring within a node (intra-node traffic does not cross
// the NIC).
type exchange interface {
	// Acquire and Post are the producer side (repart.Output).
	repart.Output
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

func (e *rdmaExchange) Acquire() ([]byte, bool) {
	sb, ok := e.prod.TryAcquire()
	if !ok {
		return nil, false
	}
	e.sb = sb
	return sb.Data, true
}

func (e *rdmaExchange) Post(used int) error {
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

func (e *localExchange) Acquire() ([]byte, bool) {
	if e.closed.Load() {
		return nil, false
	}
	if e.posted.Load()-e.freed.Load() >= uint64(len(e.slots)) {
		return nil, false
	}
	return e.slots[e.posted.Load()%uint64(len(e.slots))], true
}

func (e *localExchange) Post(used int) error {
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
	cfg.fill()
	plan := repart.Plan{
		Name:  "uppar",
		Nodes: cfg.Nodes, ProducersPerNode: cfg.ProducersPerNode, ConsumersPerNode: cfg.ConsumersPerNode,
		FlushRecords: cfg.FlushRecords,
		BatchBytes:   cfg.Channel.SlotSize - channel.FooterSize,
	}
	if err := plan.Check(q, flows); err != nil {
		return nil, err
	}

	fabric := rdma.NewFabric(cfg.Fabric)
	t := &transport{ctl: &repart.Ctl{}, nics: make([]*rdma.NIC, cfg.Nodes)}
	for i := range t.nics {
		t.nics[i] = fabric.MustNIC(fmt.Sprintf("node%d", i))
	}
	nProd := cfg.Nodes * cfg.ProducersPerNode
	nCons := cfg.Nodes * cfg.ConsumersPerNode
	// exch[p][c] connects producer thread p to consumer thread c.
	t.exch = make([][]exchange, nProd)
	defer t.close()
	for p := 0; p < nProd; p++ {
		t.exch[p] = make([]exchange, nCons)
		pNode := p / cfg.ProducersPerNode
		for c := 0; c < nCons; c++ {
			cNode := c / cfg.ConsumersPerNode
			if pNode == cNode {
				t.exch[p][c] = newLocalExchange(cfg.Channel.Credits, cfg.Channel.SlotSize)
				continue
			}
			prod, cons, err := channel.New(t.nics[pNode], t.nics[cNode], cfg.Channel)
			if err != nil {
				return nil, fmt.Errorf("uppar: channel %d->%d: %w", p, c, err)
			}
			t.exch[p][c] = &rdmaExchange{prod: prod, cons: cons}
		}
	}
	t.ctl.OnStop = t.close
	return repart.Run(plan, t.ctl, q, flows, sink, t)
}

// transport is the RDMA re-partitioning exchange: every producer thread
// owns one exchange to every consumer thread.
type transport struct {
	ctl  *repart.Ctl
	nics []*rdma.NIC
	exch [][]exchange // [producer][consumer]
}

func (t *transport) close() {
	for _, row := range t.exch {
		for _, e := range row {
			if e != nil {
				e.close()
			}
		}
	}
}

func (t *transport) Output(pid, cid int) repart.Output { return t.exch[pid][cid] }

// Start has nothing to launch: producers post and consumers poll directly.
func (t *transport) Start(*sync.WaitGroup) {}

// NodeDone has nothing to release: each exchange ends with its end token.
func (t *transport) NodeDone(int) {}

// Consume polls the consumer's fan-in of exchanges (§8.3.3's "receivers
// poll on multiple RDMA channels") and fires after every round that made
// progress.
func (t *transport) Consume(cid int, op *repart.Operator) {
	for !op.Done() {
		if t.ctl.Stopped() {
			return
		}
		progress := false
		for src := range t.exch {
			if op.Ended(src) {
				continue
			}
			ex := t.exch[src][cid]
			data, ok := ex.poll()
			if !ok {
				if err := ex.err(); err != nil {
					t.ctl.Fail(err)
					return
				}
				continue
			}
			progress = true
			if err := op.Apply(src, data); err != nil {
				t.ctl.Fail(err)
				return
			}
			if err := ex.release(); err != nil {
				t.ctl.Fail(err)
				return
			}
		}
		if progress {
			op.Fire()
		} else {
			runtime.Gosched()
		}
	}
}

func (t *transport) Sent() (bytes, msgs int64) {
	for _, nic := range t.nics {
		s := nic.Stats()
		bytes += s.TxBytes
		msgs += s.TxMsgs
	}
	return bytes, msgs
}
