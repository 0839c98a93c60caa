package netfab

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/slash-stream/slash/internal/rdma"
)

// DefaultDialTimeout bounds QP connection establishment.
const DefaultDialTimeout = 5 * time.Second

// QP is the active side of a netfab connection: one dialed TCP stream
// carrying framed work requests toward a Host. It implements the channel's
// Verbs surface with the same contract as *rdma.QueuePair — FIFO posts,
// selective signaling, completions on a pollable CQ, and a sticky error
// state entered on the first failure, after which pending and future
// requests flush.
type QP struct {
	id   string
	conn net.Conn
	cq   *CQ
	tok  *wireToken

	// mu guards pending, closed, frame, and the conn write — appending the
	// pending entry and writing its frame under one lock is what keeps the
	// FIFO ack-matching in sync with the wire order.
	mu         sync.Mutex
	cond       *sync.Cond
	pending    []pendingWR
	frame      []byte // request assembly buffer, reused across posts
	closed     bool
	readerDone bool

	failure atomic.Pointer[rdma.QPFailure]
}

type pendingWR struct {
	wrID     uint64
	op       rdma.Opcode
	signaled bool
	// buf receives READ response data.
	buf []byte
}

// Dial connects a QP to the Host at addr. id names the endpoint in metrics
// and failures (the cluster uses "node<i>-><j>" style ids, mirroring the
// in-process fabric).
func Dial(addr, id string) (*QP, error) {
	conn, err := net.DialTimeout("tcp", addr, DefaultDialTimeout)
	if err != nil {
		return nil, fmt.Errorf("netfab: dial %s: %w", addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	q := &QP{
		id:   id,
		conn: conn,
		cq:   NewCQ(0),
		tok:  wireFor(conn.LocalAddr(), conn.RemoteAddr()),
	}
	q.cond = sync.NewCond(&q.mu)
	go q.reader()
	return q, nil
}

// ID names the queue pair.
func (q *QP) ID() string { return q.id }

// CQ returns the send-side completion queue.
func (q *QP) CQ() *CQ { return q.cq }

// Err returns the latched *rdma.QPFailure, or nil while the QP is healthy.
func (q *QP) Err() error {
	if f := q.failure.Load(); f != nil {
		return f
	}
	return nil
}

// fail latches the QP's first failure and returns the winning one.
func (q *QP) fail(status rdma.Status, err error) *rdma.QPFailure {
	f := &rdma.QPFailure{QP: q.id, Status: status, Err: err}
	q.failure.CompareAndSwap(nil, f)
	return q.failure.Load()
}

// post frames and sends one work request. The pending entry is appended and
// the frame written under one lock so acks match requests FIFO.
func (q *QP) post(op byte, wrID uint64, a uint32, b uint64, n int, payload []byte, pwr pendingWR) error {
	if f := q.failure.Load(); f != nil {
		return f
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return rdma.ErrQPClosed
	}
	// The frame is assembled in a buffer the QP reuses: conn.Write below
	// returns only once the bytes left it, still under q.mu.
	need := reqHeaderSize + len(payload)
	if cap(q.frame) < need {
		q.frame = make([]byte, need)
	}
	frame := q.frame[:need]
	frame[0] = op
	putLEU64(frame[1:], wrID)
	putLEU32(frame[9:], a)
	putLEU64(frame[13:], b)
	putLEU32(frame[21:], uint32(n))
	copy(frame[reqHeaderSize:], payload)
	q.pending = append(q.pending, pwr)
	// Release edge for the receiving host goroutine (see wireTokens).
	q.tok.clock.Add(1)
	_, err := q.conn.Write(frame)
	q.mu.Unlock()
	if err != nil {
		// The reader observes the dead conn too; latch the transport
		// failure either way so this post's caller sees the root cause.
		return q.fail(rdma.StatusRetryExceeded, rdma.ErrRetryExceeded)
	}
	return nil
}

// PostWrite posts a one-sided WRITE of buf into the remote region rkey at
// remoteOff. Unsignaled successes produce no completion; failures always do.
func (q *QP) PostWrite(wrID uint64, buf []byte, rkey uint32, remoteOff int, signaled bool) error {
	return q.post(opWrite, wrID, rkey, uint64(remoteOff), len(buf), buf,
		pendingWR{wrID: wrID, op: rdma.OpWrite, signaled: signaled})
}

// PostWriteU64 posts an inline 8-byte WRITE of value, atomically visible to
// the remote region's AtomicLoad.
func (q *QP) PostWriteU64(wrID uint64, rkey uint32, remoteOff int, value uint64, signaled bool) error {
	var v [8]byte
	putLEU64(v[:], value)
	return q.post(opWriteU64, wrID, rkey, uint64(remoteOff), 8, v[:],
		pendingWR{wrID: wrID, op: rdma.OpWrite, signaled: signaled})
}

// PostRead posts a one-sided READ of len(buf) bytes from the remote region
// rkey at remoteOff into buf. Reads always complete.
func (q *QP) PostRead(wrID uint64, buf []byte, rkey uint32, remoteOff int) error {
	return q.post(opRead, wrID, rkey, uint64(remoteOff), len(buf), nil,
		pendingWR{wrID: wrID, op: rdma.OpRead, signaled: true, buf: buf})
}

// PostSend posts a two-sided SEND of buf into the remote SRQ srq.
func (q *QP) PostSend(wrID uint64, buf []byte, srq uint32, signaled bool) error {
	return q.post(opSend, wrID, srq, 0, len(buf), buf,
		pendingWR{wrID: wrID, op: rdma.OpSend, signaled: signaled})
}

// Drain blocks until every posted request has been acknowledged or flushed.
func (q *QP) Drain() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.pending) > 0 && !q.readerDone && q.failure.Load() == nil {
		q.cond.Wait()
	}
}

// Close shuts the QP down gracefully: posted requests are acknowledged
// before the connection drops, so a graceful close never latches a failure.
// Posting after Close returns ErrQPClosed.
func (q *QP) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	q.mu.Unlock()
	q.Drain()
	_ = q.conn.Close()
	q.mu.Lock()
	for !q.readerDone {
		q.cond.Wait()
	}
	q.mu.Unlock()
	wireTokens.Delete(wireKey(q.conn.LocalAddr(), q.conn.RemoteAddr()))
}

// reader matches acks FIFO against pending requests and delivers
// completions: none for unsignaled successes, one for everything else. The
// first error ack latches the QP and flushes the rest; a dead connection
// latches transport-retry semantics unless the QP was closed gracefully.
func (q *QP) reader() {
	br := bufio.NewReaderSize(q.conn, 64*1024)
	hdr := make([]byte, ackHeaderSize)
	for {
		if _, err := io.ReadFull(br, hdr); err != nil {
			q.mu.Lock()
			closed := q.closed
			q.mu.Unlock()
			if !closed {
				f := q.fail(rdma.StatusRetryExceeded, rdma.ErrRetryExceeded)
				q.flushPending(f, true)
			} else {
				q.flushPending(nil, false)
			}
			q.finishReader()
			return
		}
		wrID := leU64(hdr)
		status := rdma.Status(hdr[8])
		n := int(leU32(hdr[9:]))
		var resp []byte
		if n > 0 && n <= maxFrame {
			resp = make([]byte, n)
			if _, err := io.ReadFull(br, resp); err != nil {
				continue // next loop iteration hits the same error path
			}
		}
		q.mu.Lock()
		if len(q.pending) == 0 || q.pending[0].wrID != wrID {
			q.mu.Unlock()
			f := q.fail(rdma.StatusRetryExceeded,
				fmt.Errorf("netfab: ack for wr %d does not match pending head: %w", wrID, rdma.ErrRetryExceeded))
			q.flushPending(f, true)
			_ = q.conn.Close()
			q.finishReader()
			return
		}
		p := q.pending[0]
		q.pending = q.pending[1:]
		q.cond.Broadcast()
		q.mu.Unlock()
		if status == rdma.StatusSuccess {
			switch {
			case p.op == rdma.OpRead:
				copy(p.buf, resp)
				q.cq.push(rdma.Completion{WRID: p.wrID, Op: p.op, Bytes: len(resp)})
			case p.signaled:
				q.cq.push(rdma.Completion{WRID: p.wrID, Op: p.op})
			}
			continue
		}
		f := q.fail(status, errFor(status))
		q.cq.push(rdma.Completion{WRID: p.wrID, Op: p.op, Status: status, Err: f})
		q.flushPending(f, true)
		_ = q.conn.Close()
		q.finishReader()
		return
	}
}

// flushPending clears the pending queue. With complete set, every entry gets
// a completion: the flush cause for the failure that killed the QP is
// already latched, so flushed requests complete with StatusWRFlush — errors
// always complete, which is what lets the channel's selective-signaling
// drain observe the death.
func (q *QP) flushPending(cause *rdma.QPFailure, complete bool) {
	q.mu.Lock()
	flushed := q.pending
	q.pending = nil
	q.cond.Broadcast()
	q.mu.Unlock()
	if !complete {
		return
	}
	for _, p := range flushed {
		q.cq.push(rdma.Completion{
			WRID: p.wrID, Op: p.op,
			Status: rdma.StatusWRFlush,
			Err:    fmt.Errorf("%w: %w", rdma.ErrWRFlush, cause),
		})
	}
}

func (q *QP) finishReader() {
	q.mu.Lock()
	q.readerDone = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
