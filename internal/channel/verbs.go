// Transport abstraction for the channel endpoints: the producer and consumer
// only ever use a narrow slice of the verbs surface — one-sided WRITEs, the
// send CQ, and plain/atomic access to registered memory — so that slice is
// factored into three small interfaces. The in-process rdma engine satisfies
// them directly (zero adaptation, zero allocation: the concrete methods are
// promoted through the interface unchanged), and internal/netfab satisfies
// them over a byte-framed TCP connection, which is how the same channel
// protocol runs across real slashd processes.
package channel

import (
	"fmt"

	"github.com/slash-stream/slash/internal/rdma"
)

// Verbs is the posting surface a channel endpoint needs from its queue pair.
// Semantics match *rdma.QueuePair: posts are FIFO, unsignaled successes
// produce no completion, errors always complete, and the first failure
// latches the QP into an error state that Err reports as a *rdma.QPFailure.
type Verbs interface {
	// ID names the queue pair; it labels metrics and error messages.
	ID() string
	// PostWrite posts a one-sided WRITE of buf into the remote region
	// identified by rkey at remoteOff.
	PostWrite(wrID uint64, buf []byte, rkey uint32, remoteOff int, signaled bool) error
	// PostWriteU64 posts an inline 8-byte WRITE of value (little-endian,
	// atomically visible to the remote side's AtomicLoad).
	PostWriteU64(wrID uint64, rkey uint32, remoteOff int, value uint64, signaled bool) error
	// Err returns the QP's latched failure, or nil while it is healthy.
	Err() error
	// Drain blocks until every posted request completed or flushed.
	Drain()
	// Close tears the queue pair down.
	Close()
}

// CompletionSource is the polling surface of the endpoint's send CQ.
type CompletionSource interface {
	// TryPoll pops the next completion without blocking.
	TryPoll() (rdma.Completion, bool)
	// Overrun reports whether the CQ dropped completions (sticky).
	Overrun() bool
	// Arm requests one non-blocking token on wake at the CQ's next push,
	// dropped completions included (see rdma.Notifier).
	Arm(wake chan<- struct{})
}

// Memory is the local-memory surface of a registered region: the ring the
// remote producer writes into, the producer's staging buffer, and the
// producer's credit counter. WriteVersion counts published remote writes
// with release/acquire semantics (a load that observes version v observes
// every byte of writes 1..v); AtomicLoad is coherent with remote
// PostWriteU64s into the region. Arm requests one non-blocking token on wake
// at the region's next published write: the token means the write's bytes
// are visible, nothing more, so the waiter re-reads them (see
// rdma.Notifier). Memory no peer writes may implement Arm as a no-op.
type Memory interface {
	Bytes() []byte
	WriteVersion() uint64
	AtomicLoad(off int) (uint64, error)
	Arm(wake chan<- struct{})
}

// The in-process rdma engine satisfies the transport surface natively.
var (
	_ Verbs            = (*rdma.QueuePair)(nil)
	_ CompletionSource = (*rdma.CompletionQueue)(nil)
	_ Memory           = (*rdma.MemoryRegion)(nil)
)

// NewProducer builds the sending endpoint of a channel over an established
// transport: qp posts slot WRITEs toward the remote ring (reachable under
// ringRKey), cq is qp's send CQ, staging is the local Credits×SlotSize
// staging buffer, and credit is the local 8-byte region the consumer writes
// its cumulative release total into. New composes this for the in-process
// engine; cluster mode composes it over netfab endpoints after the control
// plane exchanged rkeys.
func NewProducer(cfg Config, qp Verbs, cq CompletionSource, staging, credit Memory, ringRKey uint32) (*Producer, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if len(staging.Bytes()) < cfg.Credits*cfg.SlotSize {
		return nil, fmt.Errorf("channel: staging %d below %d slots of %d", len(staging.Bytes()), cfg.Credits, cfg.SlotSize)
	}
	p := &Producer{
		cfg:      cfg,
		qp:       qp,
		cq:       cq,
		staging:  staging,
		ringRKey: ringRKey,
		creditMR: credit,
		bufs:     make([]SendBuffer, cfg.Credits),
		wake:     make(chan struct{}, 1),
	}
	// Preallocate one SendBuffer per staging slot: steady-state Acquire
	// reuses them, so the hot path never touches the heap.
	for i := range p.bufs {
		base := i * cfg.SlotSize
		p.bufs[i].Data = staging.Bytes()[base : base+cfg.SlotSize-FooterSize]
	}
	return p, nil
}

// NewConsumer builds the receiving endpoint over an established transport:
// ring is the local Credits×SlotSize region the remote producer writes
// into, qp posts credit-counter WRITEs back toward the producer's credit
// region (reachable under creditRKey), and cq is qp's send CQ.
func NewConsumer(cfg Config, qp Verbs, cq CompletionSource, ring Memory, creditRKey uint32) (*Consumer, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if len(ring.Bytes()) < cfg.Credits*cfg.SlotSize {
		return nil, fmt.Errorf("channel: ring %d below %d slots of %d", len(ring.Bytes()), cfg.Credits, cfg.SlotSize)
	}
	return &Consumer{
		cfg:        cfg,
		qp:         qp,
		cq:         cq,
		ring:       ring,
		creditRKey: creditRKey,
		flushAt:    max(1, cfg.Credits/2),
		bufs:       make([]RecvBuffer, cfg.Credits),
	}, nil
}
