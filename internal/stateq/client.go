package stateq

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/slash-stream/slash/internal/rdma"
	"github.com/slash-stream/slash/internal/ssb"
)

// Errors surfaced by the client.
var (
	// ErrNoEndpoint reports a node with no installed publication endpoint.
	ErrNoEndpoint = errors.New("stateq: node has no published state endpoint")
	// ErrFenced reports an endpoint whose directory is fenced (node restart
	// or retirement) with no replacement incarnation installed yet.
	ErrFenced = errors.New("stateq: state endpoint is fenced")
	// ErrNoSnapshot reports a window with no published (or an already
	// evicted) snapshot at the queried node.
	ErrNoSnapshot = errors.New("stateq: window has no published snapshot")
	// ErrNotFound reports a key absent from the window snapshot.
	ErrNotFound = errors.New("stateq: key not found in window snapshot")
	// ErrHolistic rejects reads of bag (holistic) state, which has no
	// client-side finalization rule in protocol v1.
	ErrHolistic = errors.New("stateq: holistic (bag) state is not servable")
	// ErrNotSealed reports a ScanSealed that found a still-live (mutable)
	// contribution to the window.
	ErrNotSealed = errors.New("stateq: window snapshot is not sealed everywhere")
	// ErrAggKind rejects snapshots of a generic aggregate the client cannot
	// finalize from raw state bytes.
	ErrAggKind = errors.New("stateq: unknown aggregate finalization kind")
	// ErrUnavailable reports an optimistic read that exhausted its retry
	// budget (persistent torn reads, dead endpoint, or protocol mismatch).
	ErrUnavailable = errors.New("stateq: snapshot read retries exhausted")
	// ErrBadRegion reports a directory that fails magic/layout validation.
	ErrBadRegion = errors.New("stateq: malformed snapshot region")
)

// defaultRetries bounds one operation's optimistic-read attempts. Torn reads
// resolve in one or two retries; the budget is sized to ride out a node
// restart (fence → re-resolve → redial against the new incarnation).
const defaultRetries = 128

// Entry is one (key, finalized result) pair served from a snapshot.
type Entry struct {
	Key   uint64
	Value int64
}

// WindowInfo describes one published snapshot found in a node's directory.
type WindowInfo struct {
	Node   int
	Window uint64
	Epoch  uint64
	Gen    uint64
	Sealed bool
	Keys   int
	Bytes  int
}

// Client reads published window state over one-sided READs: it owns a
// reader NIC on the deployment fabric and one reader QP per publishing
// node, dialed lazily and redialed across node incarnations. Every
// operation is optimistic — READ directory, READ payload, re-READ the
// version word, retry on mismatch — and never involves a remote CPU: the
// merge threads have no handler on this path.
//
// A Client serializes its own operations (one in-flight READ sequence);
// use one Client per reader goroutine for parallelism.
type Client struct {
	reg *Registry
	nic *rdma.NIC

	opMu    sync.Mutex
	conns   map[int]*clientConn
	dirBuf  []byte
	wrID    uint64
	retries int

	reads     atomic.Uint64
	tornReads atomic.Uint64
	redials   atomic.Uint64
}

// clientConn is one dialed reader QP: ours, the passive server-side
// endpoint (never polled — reads are one-sided), and the endpoint identity
// it was dialed against.
type clientConn struct {
	ep     Endpoint
	qp     *rdma.QueuePair
	remote *rdma.QueuePair
}

// NewClient creates a reader with its own NIC named name (made unique per
// registry). Close releases the NIC's QPs.
func NewClient(reg *Registry, name string) (*Client, error) {
	nic, err := reg.fabric.NewNIC(reg.clientName(name))
	if err != nil {
		return nil, fmt.Errorf("stateq: client NIC: %w", err)
	}
	return &Client{reg: reg, nic: nic, conns: make(map[int]*clientConn), retries: defaultRetries}, nil
}

// Close tears down the client's reader QPs.
func (c *Client) Close() {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	for node, cn := range c.conns {
		cn.qp.Close()
		cn.remote.Close()
		delete(c.conns, node)
	}
}

// Reads returns the number of successful one-sided READ verbs issued.
func (c *Client) Reads() uint64 { return c.reads.Load() }

// TornReads returns how many optimistic attempts were discarded because the
// version word changed under the read (the seqlock retry path).
func (c *Client) TornReads() uint64 { return c.tornReads.Load() }

// Redials returns how many times the client re-dialed a node (fence,
// deregistered region, or dead QP).
func (c *Client) Redials() uint64 { return c.redials.Load() }

// Lookup routes (win, key) to its owner via the partition map and serves
// the key's finalized aggregate from the owner's snapshot of win.
func (c *Client) Lookup(win, key uint64) (int64, error) {
	node, _ := c.reg.pmap.Owner(win, key)
	c.opMu.Lock()
	defer c.opMu.Unlock()
	sl, payload, err := c.fetch(node, win)
	if err != nil {
		return 0, err
	}
	if sl.Holistic {
		return 0, ErrHolistic
	}
	var (
		found bool
		out   int64
	)
	err = walkEntries(payload, sl.AggKind, func(k uint64, v int64) {
		if k == key {
			found, out = true, v
		}
	})
	if err != nil {
		return 0, err
	}
	if !found {
		return 0, ErrNotFound
	}
	return out, nil
}

// Scan returns the full finalized contents of win, unioned across every
// published endpoint (a window's keys are partitioned over the active
// leaders), sorted by key. Nodes without a snapshot of win contribute
// nothing; at least one must have it.
func (c *Client) Scan(win uint64) ([]Entry, error) {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	return c.scanLocked(win)
}

func (c *Client) scanLocked(win uint64) ([]Entry, error) {
	eps := c.reg.Endpoints()
	if len(eps) == 0 {
		return nil, ErrNoEndpoint
	}
	var out []Entry
	hits := 0
	for _, ep := range eps {
		sl, payload, err := c.fetch(ep.Node, win)
		if errors.Is(err, ErrNoSnapshot) || errors.Is(err, ErrNoEndpoint) {
			continue
		}
		if err != nil {
			return nil, err
		}
		if sl.Holistic {
			return nil, ErrHolistic
		}
		hits++
		if err := walkEntries(payload, sl.AggKind, func(k uint64, v int64) {
			out = append(out, Entry{Key: k, Value: v})
		}); err != nil {
			return nil, err
		}
	}
	if hits == 0 {
		return nil, ErrNoSnapshot
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// ScanSealed is Scan restricted to sealed (final, immutable) snapshots: it
// additionally returns how many endpoints contributed and fails with
// ErrNotSealed if any contribution is still live. A success with a
// contribution from every active leader is therefore the window's complete
// final result — exactly the rows the sink received for it.
func (c *Client) ScanSealed(win uint64) ([]Entry, int, error) {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	eps := c.reg.Endpoints()
	if len(eps) == 0 {
		return nil, 0, ErrNoEndpoint
	}
	var out []Entry
	hits := 0
	for _, ep := range eps {
		sl, payload, err := c.fetch(ep.Node, win)
		if errors.Is(err, ErrNoSnapshot) || errors.Is(err, ErrNoEndpoint) {
			continue
		}
		if err != nil {
			return nil, 0, err
		}
		if sl.Holistic {
			return nil, 0, ErrHolistic
		}
		if !sl.Sealed {
			return nil, 0, ErrNotSealed
		}
		hits++
		if err := walkEntries(payload, sl.AggKind, func(k uint64, v int64) {
			out = append(out, Entry{Key: k, Value: v})
		}); err != nil {
			return nil, 0, err
		}
	}
	if hits == 0 {
		return nil, 0, ErrNoSnapshot
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, hits, nil
}

// TopK returns the k highest-valued keys of win (value descending, key
// ascending on ties), scanning the pre-hashed key column of every endpoint's
// snapshot.
func (c *Client) TopK(win uint64, k int) ([]Entry, error) {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	all, err := c.scanLocked(win)
	if err != nil {
		return nil, err
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Value != all[j].Value {
			return all[i].Value > all[j].Value
		}
		return all[i].Key < all[j].Key
	})
	if k < len(all) {
		all = all[:k]
	}
	return all, nil
}

// Windows lists every published snapshot across all endpoints, sorted by
// (window, node).
func (c *Client) Windows() ([]WindowInfo, error) {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	var out []WindowInfo
	for _, ep := range c.reg.Endpoints() {
		dir, err := c.readDir(ep.Node)
		if errors.Is(err, ErrNoEndpoint) {
			continue
		}
		if err != nil {
			return nil, err
		}
		slots := int(leU64(dir[hdrSlots:]))
		for i := 0; i < slots; i++ {
			sl := decodeSlot(dir[slotOffset(i):])
			if !sl.Live() {
				continue
			}
			out = append(out, WindowInfo{
				Node: ep.Node, Window: sl.Window, Epoch: sl.Epoch, Gen: sl.Gen,
				Sealed: sl.Sealed, Keys: sl.Keys, Bytes: int(sl.PayloadLen),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Window != out[j].Window {
			return out[i].Window < out[j].Window
		}
		return out[i].Node < out[j].Node
	})
	return out, nil
}

// fetch runs the optimistic read state machine against node's snapshot of
// win (docs/STATE_PROTOCOL.md): READ directory → validate header and find
// the slot → READ payload → re-READ the slot's version word → retry on any
// mismatch. Callers hold c.opMu.
func (c *Client) fetch(node int, win uint64) (SlotInfo, []byte, error) {
	var lastErr error
	for attempt := 0; attempt < c.retries; attempt++ {
		if attempt > 0 {
			if errors.Is(lastErr, errTorn) {
				// The publisher is mid-publication and may have been
				// preempted there: hand it the core, or with readers on
				// every core the budget burns down against a slot that
				// cannot go even.
				runtime.Gosched()
			} else {
				// Endpoint churn (fence/restart): give the control plane a
				// moment to install the replacement.
				time.Sleep(20 * time.Microsecond)
			}
		}
		cn, err := c.conn(node)
		if err != nil {
			lastErr = err
			continue
		}
		dir := c.dirBufFor(cn.ep)
		if err := c.read(cn, dir, cn.ep.DirRKey, 0); err != nil {
			lastErr = err
			c.drop(node)
			continue
		}
		sl, off, err := c.findSlot(cn.ep, dir, win)
		if err != nil {
			if errors.Is(err, ErrNoSnapshot) {
				return SlotInfo{}, nil, err
			}
			lastErr = err
			c.drop(node)
			continue
		}
		if off < 0 { // slot exists but mid-publish; torn
			c.tornReads.Add(1)
			lastErr = errTorn
			continue
		}
		if g := c.reg.pmap.GenFor(win); sl.Gen != g {
			lastErr = fmt.Errorf("%w: snapshot gen %d, map gen %d", ErrBadRegion, sl.Gen, g)
			continue
		}
		payload := make([]byte, sl.PayloadLen)
		if sl.PayloadLen > 0 {
			if err := c.read(cn, payload, sl.PayloadRKey, 0); err != nil {
				lastErr = err
				c.drop(node)
				continue
			}
		}
		var vbuf [8]byte
		if err := c.read(cn, vbuf[:], cn.ep.DirRKey, off+slotVersion); err != nil {
			lastErr = err
			c.drop(node)
			continue
		}
		if leU64(vbuf[:]) != sl.Version {
			c.tornReads.Add(1)
			lastErr = errTorn
			continue
		}
		return sl, payload, nil
	}
	return SlotInfo{}, nil, fmt.Errorf("%w: node %d window %d: %v", ErrUnavailable, node, win, lastErr)
}

// readDir fetches and validates one node's directory image (no slot
// search), retrying through endpoint churn. Callers hold c.opMu; the
// returned slice aliases the client's scratch buffer.
func (c *Client) readDir(node int) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < c.retries; attempt++ {
		if attempt > 0 {
			time.Sleep(20 * time.Microsecond)
		}
		cn, err := c.conn(node)
		if err != nil {
			if errors.Is(err, ErrNoEndpoint) {
				return nil, err
			}
			lastErr = err
			continue
		}
		dir := c.dirBufFor(cn.ep)
		if err := c.read(cn, dir, cn.ep.DirRKey, 0); err != nil {
			lastErr = err
			c.drop(node)
			continue
		}
		if _, _, err := c.findSlot(cn.ep, dir, ^uint64(0)); err != nil && !errors.Is(err, ErrNoSnapshot) {
			lastErr = err
			c.drop(node)
			continue
		}
		return dir, nil
	}
	return nil, fmt.Errorf("%w: node %d directory: %v", ErrUnavailable, node, lastErr)
}

// errTorn is the internal retry-immediately sentinel for version mismatches.
var errTorn = errors.New("stateq: torn read")

// findSlot validates the directory image and locates win's slot. It returns
// the decoded slot and its byte offset; offset -1 flags a slot found but
// unstable (odd version). ErrNoSnapshot means win is not in the directory.
func (c *Client) findSlot(ep Endpoint, dir []byte, win uint64) (SlotInfo, int, error) {
	var magic [8]byte
	copy(magic[:], dir[hdrMagic:])
	if magic != Magic {
		return SlotInfo{}, 0, fmt.Errorf("%w: bad magic", ErrBadRegion)
	}
	if v := leU64(dir[hdrLayout:]); v != LayoutVersion {
		return SlotInfo{}, 0, fmt.Errorf("%w: layout version %d", ErrBadRegion, v)
	}
	if leU64(dir[hdrFence:]) != 0 {
		return SlotInfo{}, 0, ErrFenced
	}
	if inc := leU64(dir[hdrInc:]); inc != uint64(ep.Inc) {
		return SlotInfo{}, 0, fmt.Errorf("%w: directory incarnation %d, endpoint %d", ErrFenced, inc, ep.Inc)
	}
	slots := int(leU64(dir[hdrSlots:]))
	if slots <= 0 || HeaderSize+slots*SlotSize > len(dir) {
		return SlotInfo{}, 0, fmt.Errorf("%w: %d slots", ErrBadRegion, slots)
	}
	for i := 0; i < slots; i++ {
		off := slotOffset(i)
		sl := decodeSlot(dir[off:])
		if sl.Version == 0 || sl.Window != win {
			continue
		}
		if sl.Version%2 != 0 {
			return sl, -1, nil
		}
		return sl, off, nil
	}
	return SlotInfo{}, 0, ErrNoSnapshot
}

// dirBufFor returns the reusable directory read buffer sized for ep.
func (c *Client) dirBufFor(ep Endpoint) []byte {
	need := HeaderSize + ep.Slots*SlotSize
	if cap(c.dirBuf) < need {
		c.dirBuf = make([]byte, need)
	}
	return c.dirBuf[:need]
}

// conn returns a healthy reader QP to node's current endpoint, dialing or
// redialing as needed.
func (c *Client) conn(node int) (*clientConn, error) {
	ep, ok := c.reg.Endpoint(node)
	if !ok {
		c.drop(node)
		return nil, fmt.Errorf("%w: node %d", ErrNoEndpoint, node)
	}
	if cn := c.conns[node]; cn != nil {
		if cn.ep.Inc == ep.Inc && cn.ep.NIC == ep.NIC && cn.qp.State() == rdma.QPStateRTS {
			cn.ep = ep // rkey can only change with the incarnation, but stay fresh
			return cn, nil
		}
		c.drop(node)
	}
	qp, remote, err := rdma.Connect(c.nic, ep.NIC, rdma.QPOptions{}, rdma.QPOptions{})
	if err != nil {
		return nil, fmt.Errorf("stateq: dialing node %d: %w", node, err)
	}
	c.redials.Add(1)
	cn := &clientConn{ep: ep, qp: qp, remote: remote}
	c.conns[node] = cn
	return cn, nil
}

// drop discards node's cached connection.
func (c *Client) drop(node int) {
	if cn := c.conns[node]; cn != nil {
		cn.qp.Close()
		cn.remote.Close()
		delete(c.conns, node)
	}
}

// read issues one one-sided READ and waits for its completion.
func (c *Client) read(cn *clientConn, buf []byte, rkey uint32, off int) error {
	c.wrID++
	if err := cn.qp.PostRead(c.wrID, buf, rkey, off); err != nil {
		return err
	}
	comp := cn.qp.SendCQ().Wait()
	if comp.Status != rdma.StatusSuccess {
		if comp.Err != nil {
			return comp.Err
		}
		return fmt.Errorf("stateq: read completion %s", comp.Status)
	}
	c.reads.Add(1)
	return nil
}

// walkEntries decodes a validated snapshot payload — self-describing log
// entries (16-byte header: key u64, prev i32, vlen u32; then vlen state
// bytes) — finalizing each entry's aggregate state per kind. Aggregate
// tables hold exactly one entry per key.
func walkEntries(payload []byte, kind uint8, fn func(key uint64, value int64)) error {
	off := 0
	for off+16 <= len(payload) {
		key := leU64(payload[off:])
		vlen := int(leU32(payload[off+12:]))
		if vlen < 0 || off+16+vlen > len(payload) {
			return fmt.Errorf("%w: entry at %d overflows payload", ErrBadRegion, off)
		}
		v, err := finalize(kind, payload[off+16:off+16+vlen])
		if err != nil {
			return err
		}
		fn(key, v)
		off += 16 + vlen
	}
	if off != len(payload) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadRegion, len(payload)-off)
	}
	return nil
}

// finalize applies the protocol's finalization rule for one entry's state —
// identical to the trigger emit path's (ssb.StateAgg* docs).
func finalize(kind uint8, state []byte) (int64, error) {
	switch kind {
	case ssb.StateAggCount, ssb.StateAggSum, ssb.StateAggMin, ssb.StateAggMax:
		if len(state) < 8 {
			return 0, fmt.Errorf("%w: %d state bytes", ErrBadRegion, len(state))
		}
		return int64(leU64(state)), nil
	case ssb.StateAggAvg:
		if len(state) < 16 {
			return 0, fmt.Errorf("%w: %d state bytes", ErrBadRegion, len(state))
		}
		count := int64(leU64(state[8:]))
		if count == 0 {
			return 0, nil
		}
		return int64(leU64(state)) / count, nil
	default:
		return 0, ErrAggKind
	}
}
