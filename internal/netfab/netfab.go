// Package netfab is the cross-process transport backend: it carries the same
// verbs semantics the in-process rdma engine provides — one-sided WRITEs into
// registered regions, inline 8-byte WRITEs, READs, SENDs into shared receive
// queues, selective signaling, IB-style completion statuses, and sticky QP
// error latching — over byte-framed TCP connections between real slashd
// processes.
//
// The surface mirrors the slice of verbs the channel protocol consumes
// (channel.Verbs / channel.CompletionSource / channel.Memory), so a channel
// endpoint composed over netfab runs the identical credit/footer protocol
// byte for byte; the in-process engine stays around verbatim as the oracle.
//
// Topology: each process runs one Host per node it owns. A Host listens on
// TCP, owns the registered Regions remote peers write into (identified by
// rkey, exchanged out of band by the cluster control plane), and applies
// inbound work requests in arrival order per connection — the FIFO ordering
// a reliable connection gives. A QP is one dialed connection: posts are
// framed, pipelined without waiting, and acknowledged in order; unsignaled
// successes produce no completion while every failure does, exactly the
// selective-signaling contract the channel's drainErrors loop relies on. The
// first failed acknowledgment (or a dead connection) latches the QP into an
// error state carrying a *rdma.QPFailure, after which queued requests flush
// with StatusWRFlush — the PR-3 failure semantics, now process-crossing.
//
// Frame formats (all little-endian):
//
//	request:  op u8 | wrID u64 | a u32 | b u64 | n u32 | payload[n]
//	ack:      wrID u64 | status u8 | n u32 | payload[n]
//
// where (op, a, b) is (write, rkey, offset), (write64, rkey, offset),
// (read, rkey, offset; n is the requested length), or (send, srqID, -).
package netfab

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"github.com/slash-stream/slash/internal/rdma"
)

// Wire opcodes.
const (
	opWrite    = 1
	opWriteU64 = 2
	opRead     = 3
	opSend     = 4
)

// Frame geometry.
const (
	reqHeaderSize = 1 + 8 + 4 + 8 + 4
	ackHeaderSize = 8 + 1 + 4
	// maxFrame bounds one request payload; a peer announcing more is
	// corrupt and its connection is dropped.
	maxFrame = 1 << 26
)

// Errors surfaced by the netfab endpoints. Transport-level failures reuse
// the rdma error vars (ErrRetryExceeded and friends) so error classification
// written against the in-process engine — core's link-failure detection in
// particular — works unchanged on this backend.
var (
	// ErrRemoteAccess is the unwrapped cause behind StatusRemoteAccessErr
	// acks: unknown rkey, out-of-bounds write, or a misaligned atomic.
	ErrRemoteAccess = errors.New("netfab: remote access error")
	// ErrHostClosed rejects registration and SRQ creation on a closed Host.
	ErrHostClosed = errors.New("netfab: host closed")
	// ErrRecvQueueFull rejects PostRecv beyond the SRQ depth.
	ErrRecvQueueFull = errors.New("netfab: receive queue full")
)

// errFor maps an ack status byte back to the error the corresponding
// in-process completion would carry.
func errFor(s rdma.Status) error {
	switch s {
	case rdma.StatusRemoteAccessErr:
		return ErrRemoteAccess
	case rdma.StatusRetryExceeded:
		return rdma.ErrRetryExceeded
	case rdma.StatusRNRRetryExceeded:
		return rdma.ErrRNRRetryExceeded
	case rdma.StatusWRFlush:
		return rdma.ErrWRFlush
	}
	return fmt.Errorf("netfab: unknown completion status %d", s)
}

// wireTokens gives the race detector the happens-before edge the kernel
// socket hides. When both ends of a connection live in one process (every
// in-binary cluster test), the bytes flow through the kernel, so the
// detector cannot see that a frame's read happens after its write — and the
// channel protocol's slot-reuse ordering, though enforced end to end by
// credits, would be reported as a data race. Both ends derive the same key
// from the connection's address pair and share an atomic: the sender bumps
// it before writing a frame, the receiver loads it after reading one,
// which publishes everything the sender did first. Across real processes the
// two sides get unrelated tokens and the atomic is a no-op.
var wireTokens sync.Map // string -> *wireToken

type wireToken struct{ clock atomic.Uint64 }

func wireKey(client, server net.Addr) string {
	return client.String() + "|" + server.String()
}

func wireFor(client, server net.Addr) *wireToken {
	tok, _ := wireTokens.LoadOrStore(wireKey(client, server), &wireToken{})
	return tok.(*wireToken)
}

// CQ is a completion queue for netfab queue pairs and SRQs: bounded, with
// the same sticky-overrun semantics as the in-process CQ — a full queue
// drops the completion and raises Overrun, so polling protocols detect the
// gap instead of deadlocking a deliverer.
type CQ struct {
	ch      chan rdma.Completion
	overrun atomic.Bool
	notify  rdma.Notifier
}

// DefaultCQDepth is the completion queue depth when zero is requested.
const DefaultCQDepth = 256

// NewCQ creates a completion queue with the given depth.
func NewCQ(depth int) *CQ {
	if depth <= 0 {
		depth = DefaultCQDepth
	}
	return &CQ{ch: make(chan rdma.Completion, depth)}
}

// TryPoll returns the next completion without blocking.
func (c *CQ) TryPoll() (rdma.Completion, bool) {
	select {
	case comp := <-c.ch:
		return comp, true
	default:
		return rdma.Completion{}, false
	}
}

// Overrun reports whether a completion was ever dropped (sticky).
func (c *CQ) Overrun() bool { return c.overrun.Load() }

// push enqueues a completion without blocking (a full CQ drops it and
// raises Overrun), then wakes an armed waiter either way.
func (c *CQ) push(comp rdma.Completion) {
	select {
	case c.ch <- comp:
	default:
		c.overrun.Store(true)
	}
	c.notify.Notify()
}

// Arm requests one token on wake at the CQ's next push, as
// rdma.CompletionQueue.Arm does.
func (c *CQ) Arm(wake chan<- struct{}) { c.notify.Arm(wake) }

// Region is remotely writable registered memory owned by a Host. It carries
// the same local-access contract as *rdma.MemoryRegion: WriteVersion counts
// applied remote writes with release semantics (a load observing version v
// observes every byte of writes 1..v, which is what makes the channel
// footer poll race-free), and AtomicLoad is coherent with remote inline
// 8-byte WRITEs.
type Region struct {
	buf     []byte
	rkey    uint32
	version atomic.Uint64
	// notify wakes a waiter armed on the region at the next applied write.
	notify rdma.Notifier
	// mu serializes inline-u64 application against AtomicLoad, mirroring
	// the in-process region's atomic word.
	mu sync.Mutex
}

// Bytes returns the region's backing memory.
func (r *Region) Bytes() []byte { return r.buf }

// RKey returns the remote key peers name this region by.
func (r *Region) RKey() uint32 { return r.rkey }

// WriteVersion returns the number of remote writes applied so far.
func (r *Region) WriteVersion() uint64 { return r.version.Load() }

// AtomicLoad reads an aligned 8-byte little-endian word, coherent with
// remote PostWriteU64s into the region.
func (r *Region) AtomicLoad(off int) (uint64, error) {
	if off%8 != 0 || off < 0 || off+8 > len(r.buf) {
		return 0, fmt.Errorf("%w: atomic load at %d of %d", ErrRemoteAccess, off, len(r.buf))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return leU64(r.buf[off:]), nil
}

// Arm requests one token on wake at the region's next applied remote write,
// as rdma.MemoryRegion.Arm does. The token means the bytes are visible; the
// waiter re-reads them.
func (r *Region) Arm(wake chan<- struct{}) { r.notify.Arm(wake) }

// storeU64 applies a remote inline write.
func (r *Region) storeU64(off int, v uint64) rdma.Status {
	if off%8 != 0 || off < 0 || off+8 > len(r.buf) {
		return rdma.StatusRemoteAccessErr
	}
	r.mu.Lock()
	putLEU64(r.buf[off:], v)
	r.mu.Unlock()
	r.version.Add(1)
	r.notify.Notify()
	return rdma.StatusSuccess
}

// storeBytes applies a remote slot write.
func (r *Region) storeBytes(off int, p []byte) rdma.Status {
	if off < 0 || off+len(p) > len(r.buf) {
		return rdma.StatusRemoteAccessErr
	}
	copy(r.buf[off:], p)
	r.version.Add(1)
	r.notify.Notify()
	return rdma.StatusSuccess
}

// LocalBuffer is plain local memory satisfying the channel's Memory surface
// for buffers no remote peer ever touches — a producer's staging ring in
// cluster mode stages slots locally and ships them with PostWrite, so it
// needs no registration at all.
type LocalBuffer struct{ buf []byte }

// NewLocalBuffer allocates a local staging buffer.
func NewLocalBuffer(size int) *LocalBuffer { return &LocalBuffer{buf: make([]byte, size)} }

// Bytes returns the backing memory.
func (b *LocalBuffer) Bytes() []byte { return b.buf }

// WriteVersion is always zero: nothing writes a local buffer remotely.
func (b *LocalBuffer) WriteVersion() uint64 { return 0 }

// Arm is a no-op: nothing writes a local buffer remotely, so there is
// nothing to wake on.
func (b *LocalBuffer) Arm(chan<- struct{}) {}

// AtomicLoad reads an aligned local 8-byte word.
func (b *LocalBuffer) AtomicLoad(off int) (uint64, error) {
	if off%8 != 0 || off < 0 || off+8 > len(b.buf) {
		return 0, fmt.Errorf("%w: atomic load at %d of %d", ErrRemoteAccess, off, len(b.buf))
	}
	return leU64(b.buf[off:]), nil
}

func leU64(p []byte) uint64 {
	return uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24 |
		uint64(p[4])<<32 | uint64(p[5])<<40 | uint64(p[6])<<48 | uint64(p[7])<<56
}

func putLEU64(p []byte, v uint64) {
	p[0], p[1], p[2], p[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	p[4], p[5], p[6], p[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
}

func leU32(p []byte) uint32 {
	return uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
}

func putLEU32(p []byte, v uint32) {
	p[0], p[1], p[2], p[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}
