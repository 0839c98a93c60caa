package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// CoordinatorOptions configures the control plane.
type CoordinatorOptions struct {
	// Spec fixes the run every member executes.
	Spec Spec
	// Addr is the control-plane listen address ("127.0.0.1:0" when empty).
	Addr string
	// HandshakeTimeout bounds each bootstrap/restart step, including the wait
	// for a dead member's respawn.
	HandshakeTimeout time.Duration
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Result is the merged outcome of a cluster run.
type Result struct {
	// Rows is every member's sink output in the canonical order: aggregates
	// before joins, each by (win, key). Members send their rows already in
	// that order, and the coordinator merges them in one pass (mergeRuns).
	Rows []Row
	// Reports holds each member's statistics, indexed by rank.
	Reports []MemberReport
	// Restarts is the number of voted member restarts the run survived.
	Restarts int
	// ReplayedChunks is the total the survivors acked for their replay steps,
	// over every restart.
	ReplayedChunks int
}

// member is the coordinator's view of one rank.
type member struct {
	sess  *session
	alive bool
}

// event is one occurrence on a control connection, pushed by its reader.
type event struct {
	sess *session
	m    *msg
	err  error
}

// Coordinator is the cluster control plane: it listens for members, drives
// bootstrap (registration → MR exchange → QP bring-up → start), arbitrates
// failure votes, sends one message per restart step (fence → adopt → restore
// → replay → release), and merges the members' results. All protocol state
// lives in the Run goroutine; connection readers only forward events.
type Coordinator struct {
	opts CoordinatorOptions
	spec Spec
	ln   net.Listener

	events chan event
	done   chan struct{}
	once   sync.Once

	connMu sync.Mutex
	conns  []net.Conn

	// Run-goroutine state.
	members      []*member
	incs         []int
	idle         []bool
	pendingHello []event
	restarts     int
	lastRestart  int
	replayed     int
}

// NewCoordinator starts listening and accepting members; Run drives the
// protocol.
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	if opts.Spec.Nodes <= 0 {
		return nil, errors.New("cluster: Spec.Nodes must be positive")
	}
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	if opts.HandshakeTimeout <= 0 {
		opts.HandshakeTimeout = DefaultHandshakeTimeout
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		opts:        opts,
		spec:        opts.Spec,
		ln:          ln,
		events:      make(chan event, 256),
		done:        make(chan struct{}),
		members:     make([]*member, opts.Spec.Nodes),
		incs:        make([]int, opts.Spec.Nodes),
		idle:        make([]bool, opts.Spec.Nodes),
		lastRestart: -1,
	}
	go c.accept()
	return c, nil
}

// Addr returns the control-plane address members dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Close tears the control plane down: the listener stops and every control
// connection — including ones still mid-handshake — is closed, unblocking any
// member waiting on the coordinator.
func (c *Coordinator) Close() {
	c.once.Do(func() { close(c.done) })
	_ = c.ln.Close()
	c.connMu.Lock()
	conns := append([]net.Conn(nil), c.conns...)
	c.connMu.Unlock()
	for _, conn := range conns {
		_ = conn.Close()
	}
}

func (c *Coordinator) accept() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.connMu.Lock()
		c.conns = append(c.conns, conn)
		c.connMu.Unlock()
		go c.reader(conn)
	}
}

// reader forwards one connection's messages as events. It holds no protocol
// state; staleness is judged in Run by session identity.
func (c *Coordinator) reader(conn net.Conn) {
	sess := newSession(conn)
	for {
		m, err := sess.read()
		select {
		case c.events <- event{sess: sess, m: m, err: err}:
		case <-c.done:
			return
		}
		if err != nil {
			return
		}
	}
}

var (
	errCoordinatorClosed = errors.New("cluster: coordinator closed")
	errTimeout           = errors.New("cluster: control-plane timeout")
)

// recv returns the next event; timeout 0 waits forever, negative times out
// immediately (an already-expired deadline).
func (c *Coordinator) recv(timeout time.Duration) (event, error) {
	if timeout < 0 {
		select {
		case ev := <-c.events:
			return ev, nil
		default:
			return event{}, errTimeout
		}
	}
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case ev := <-c.events:
		return ev, nil
	case <-timer:
		return event{}, errTimeout
	case <-c.done:
		return event{}, errCoordinatorClosed
	}
}

// recvUntil is recv against an absolute deadline; an expired deadline drains
// queued events before timing out rather than waiting forever.
func (c *Coordinator) recvUntil(deadline time.Time) (event, error) {
	d := time.Until(deadline)
	if d <= 0 {
		d = -1
	}
	return c.recv(d)
}

func (c *Coordinator) rankOf(s *session) (int, bool) {
	for r, m := range c.members {
		if m != nil && m.sess == s {
			return r, true
		}
	}
	return -1, false
}

// handleHello admits, rejects, or stashes a registration. Rejections answer
// on the joiner's connection and close it; a Hello for a currently-dead rank
// is stashed for the restart sequence to claim.
func (c *Coordinator) handleHello(ev event) {
	r := ev.m.Rank
	switch {
	case r < 0 || r >= c.spec.Nodes:
		c.reject(ev, fmt.Sprintf("rank %d outside deployment of %d nodes", r, c.spec.Nodes))
	case c.staleHello(ev):
		// Rejected by the incarnation fence.
	case c.members[r] != nil && c.members[r].alive:
		c.reject(ev, fmt.Sprintf("duplicate registration for rank %d", r))
	default:
		c.pendingHello = append(c.pendingHello, ev)
	}
}

// staleHello applies the incarnation fence to a registration: a stale
// identity (an old incarnation dialing back after its replacement) can never
// rejoin. It rejects such a Hello and reports whether it did.
func (c *Coordinator) staleHello(ev event) bool {
	r, inc := ev.m.Rank, ev.m.Inc
	if inc < 0 || inc == c.incs[r] {
		return false
	}
	c.reject(ev, fmt.Sprintf("incarnation fence: rank %d claims incarnation %d, cluster is at %d", r, inc, c.incs[r]))
	return true
}

// reject answers a registration with reason and closes its connection.
func (c *Coordinator) reject(ev event, reason string) {
	c.opts.Logf("coordinator: rejecting rank %d: %s", ev.m.Rank, reason)
	_ = ev.sess.send(&msg{Kind: kWelcome, Err: reason})
	ev.sess.close()
}

// takeHello claims rank x's stashed registration, or returns nil. A Hello
// stashed before a restart bumped x's incarnation is fenced again here.
func (c *Coordinator) takeHello(x int) *event {
	for i := 0; i < len(c.pendingHello); i++ {
		h := c.pendingHello[i]
		if h.m.Rank != x {
			continue
		}
		c.pendingHello = append(c.pendingHello[:i], c.pendingHello[i+1:]...)
		i--
		if !c.staleHello(h) {
			return &h
		}
	}
	return nil
}

// dispatch handles the event kinds every wait point must tolerate —
// registrations, idle reports and stale connections' deaths. It returns the
// event when the caller should examine it, or nil when consumed.
func (c *Coordinator) dispatch(ev event) *event {
	if ev.err != nil {
		if r, ok := c.rankOf(ev.sess); ok && c.members[r].alive {
			return &ev // a live member's control connection died
		}
		return nil // stale connection of a replaced incarnation
	}
	switch ev.m.Kind {
	case kHello:
		c.handleHello(ev)
		return nil
	case kIdle:
		if r, ok := c.rankOf(ev.sess); ok && c.members[r].alive {
			c.idle[r] = true
		}
		return nil
	}
	return &ev
}

// collect waits for one `want` message from every listed rank, tolerating the
// interleaved steady-state traffic. A live member's connection death or a
// message carrying Err fails the collection — during bootstrap and restart
// sequences that is fatal for the run (nested failures are not survivable).
func (c *Coordinator) collect(want kind, ranks []int) (map[int]*msg, error) {
	pending := make(map[int]bool, len(ranks))
	for _, r := range ranks {
		pending[r] = true
	}
	out := make(map[int]*msg, len(ranks))
	deadline := time.Now().Add(c.opts.HandshakeTimeout)
	for len(pending) > 0 {
		ev, err := c.recvUntil(deadline)
		if err != nil {
			return nil, fmt.Errorf("awaiting message kind %d: %w", want, err)
		}
		evp := c.dispatch(ev)
		if evp == nil {
			continue
		}
		if evp.err != nil {
			r, _ := c.rankOf(evp.sess)
			if !pending[r] {
				// Already delivered what this collection wanted (e.g. its
				// result, after which a worker exits); note the departure and
				// let any later step surface it.
				c.members[r].alive = false
				continue
			}
			return nil, fmt.Errorf("cluster: rank %d connection lost mid-sequence: %w", r, evp.err)
		}
		r, ok := c.rankOf(evp.sess)
		if !ok || !c.members[r].alive {
			continue
		}
		switch evp.m.Kind {
		case kLinkDown:
			// A report about the mesh being rebuilt; the release retries
			// parked flushes, so mid-sequence reports are not actionable.
			continue
		case want:
			if !pending[r] {
				continue
			}
			if evp.m.Err != "" {
				return nil, fmt.Errorf("cluster: rank %d failed: %s", r, evp.m.Err)
			}
			out[r] = evp.m
			delete(pending, r)
		default:
			return nil, fmt.Errorf("cluster: rank %d sent kind %d while awaiting %d", r, evp.m.Kind, want)
		}
	}
	return out, nil
}

// step sends m to every listed rank and collects their `want` answers; a
// failure names the step.
func (c *Coordinator) step(name string, ranks []int, m *msg, want kind) (map[int]*msg, error) {
	if err := c.broadcast(ranks, m); err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", name, err)
	}
	out, err := c.collect(want, ranks)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", name, err)
	}
	return out, nil
}

// halvesOf gathers the halves each of a step's answers published, passing a
// failed step's error through.
func halvesOf(acks map[int]*msg, err error) (map[int]Halves, error) {
	if err != nil {
		return nil, err
	}
	peers := make(map[int]Halves, len(acks))
	for r, m := range acks {
		if m.Halves == nil {
			return nil, fmt.Errorf("cluster: rank %d published no halves", r)
		}
		peers[r] = *m.Halves
	}
	return peers, nil
}

// broadcast sends m to every listed rank.
func (c *Coordinator) broadcast(ranks []int, m *msg) error {
	for _, r := range ranks {
		if err := c.members[r].sess.send(m); err != nil {
			return fmt.Errorf("cluster: send to rank %d: %w", r, err)
		}
	}
	return nil
}

func (c *Coordinator) liveRanks() []int {
	var out []int
	for r, m := range c.members {
		if m != nil && m.alive {
			out = append(out, r)
		}
	}
	return out
}

func (c *Coordinator) allIdle() bool {
	for r := range c.idle {
		if !c.idle[r] {
			return false
		}
	}
	return true
}

// Run drives the cluster to completion: bootstrap, steady state with failure
// arbitration, and result collection.
func (c *Coordinator) Run() (*Result, error) {
	if err := c.bootstrap(); err != nil {
		return nil, err
	}
	for !c.allIdle() {
		ev, err := c.recv(0)
		if err != nil {
			return nil, err
		}
		evp := c.dispatch(ev)
		if evp == nil {
			continue
		}
		if evp.err != nil {
			// Strong failure signal: the member's process is gone.
			r, _ := c.rankOf(evp.sess)
			if err := c.restart(r); err != nil {
				return nil, err
			}
			continue
		}
		switch evp.m.Kind {
		case kLinkDown:
			suspect, ok := c.vote(*evp)
			if !ok {
				continue
			}
			if err := c.restart(suspect); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("cluster: unexpected steady-state message kind %d", evp.m.Kind)
		}
	}
	return c.finish()
}

// bootstrap admits every rank, exchanges their registered halves, orders the
// QP bring-up, and releases the run.
func (c *Coordinator) bootstrap() error {
	all := make([]int, c.spec.Nodes)
	for i := range all {
		all[i] = i
	}
	deadline := time.Now().Add(c.opts.HandshakeTimeout)
	joined := 0
	for joined < c.spec.Nodes {
		ev, err := c.recvUntil(deadline)
		if err != nil {
			return fmt.Errorf("awaiting registrations (%d/%d joined): %w", joined, c.spec.Nodes, err)
		}
		if ev.err != nil {
			if r, ok := c.rankOf(ev.sess); ok {
				return fmt.Errorf("cluster: rank %d died during bootstrap: %w", r, ev.err)
			}
			continue
		}
		if ev.m.Kind != kHello {
			return fmt.Errorf("cluster: expected hello, got kind %d", ev.m.Kind)
		}
		c.handleHello(ev)
		// handleHello stashes admissible joins; claim them here.
		for len(c.pendingHello) > 0 {
			h := c.pendingHello[0]
			c.pendingHello = c.pendingHello[1:]
			r := h.m.Rank
			c.members[r] = &member{sess: h.sess, alive: true}
			joined++
			c.opts.Logf("coordinator: rank %d joined (%d/%d)", r, joined, c.spec.Nodes)
		}
	}
	// Welcome everyone only once registration closes: a welcomed member
	// starts its MR exchange immediately, and those messages must not land
	// while this loop still treats anything but a Hello as a protocol error.
	// The welcome opens the MR exchange: gather every member's halves, then
	// hand each the full view.
	peers, err := halvesOf(c.step("MR exchange", all, &msg{Kind: kWelcome, Spec: &c.spec, Incs: append([]int(nil), c.incs...)}, kHalves))
	if err != nil {
		return err
	}
	if _, err := c.step("QP bring-up", all, &msg{Kind: kWire, Peers: peers}, kReady); err != nil {
		return err
	}
	c.opts.Logf("coordinator: %d members wired, starting", c.spec.Nodes)
	return c.broadcast(all, &msg{Kind: kStart})
}

// vote collects link-failure reports over DefaultFenceDelay, starting with
// first, and picks the suspect (pickSuspect). A live member's connection
// death mid-window short-circuits to its rank. Returns ok=false when every
// report was stale.
func (c *Coordinator) vote(first event) (int, bool) {
	var reports []*msg
	add := func(ev *event) {
		if r, ok := c.rankOf(ev.sess); ok && c.members[r].alive {
			ev.m.Rank = r // the connection, not the message, names the reporter
			reports = append(reports, ev.m)
		}
	}
	add(&first)
	deadline := time.Now().Add(DefaultFenceDelay)
	for {
		ev, err := c.recvUntil(deadline)
		if err != nil {
			break // window elapsed (or closed; the caller will notice)
		}
		evp := c.dispatch(ev)
		switch {
		case evp == nil:
		case evp.err != nil:
			r, _ := c.rankOf(evp.sess)
			return r, true // process death outranks any vote
		case evp.m.Kind == kLinkDown:
			add(evp)
		}
	}
	return pickSuspect(reports, c.incs, c.lastRestart)
}

// pickSuspect tallies link-failure reports under the incarnation view incs
// and names the suspect. Every report votes for its link's far endpoint (the
// reporter, Rank, vouches for itself by reporting), and a report naming a
// replaced incarnation is dropped as stale. Ties break away from last, the
// most recently restarted rank, then toward the higher rank — the rule core's
// failure manager applies. Returns ok=false when no report counted.
func pickSuspect(reports []*msg, incs []int, last int) (suspect int, ok bool) {
	n := len(incs)
	votes := make([]int, n)
	for _, m := range reports {
		if m.Src < 0 || m.Src >= n || m.Dst < 0 || m.Dst >= n {
			continue
		}
		if m.SrcInc != incs[m.Src] || m.DstInc != incs[m.Dst] {
			continue // stale: a completed restart already replaced this link
		}
		far := m.Src
		if far == m.Rank {
			far = m.Dst
		}
		votes[far]++
	}
	suspect = -1
	for r, v := range votes {
		switch {
		case v == 0:
		case suspect < 0 || v > votes[suspect]:
			suspect = r
		case v == votes[suspect] && (suspect == last || r != last):
			suspect = r
		}
	}
	return suspect, suspect >= 0
}

// restart drives one restart of suspect x, one message per step:
//
//	survivors: kFence → kFenceAck{Committed, Halves}
//	respawn:   kWelcome{Restore} → kHalves, then kWire
//	survivors: kAdopt{Peers} → kAck
//	respawn:   kRestore → kRestoreAck{Restored}
//	survivors: kReplay → kReplayAck{Chunks}
//	everyone:  kRelease
//
// Any step failing fails the run: a second fault mid-restart is beyond the
// protocol.
func (c *Coordinator) restart(x int) error {
	if c.restarts >= DefaultMaxRestarts {
		return fmt.Errorf("cluster: restart budget exhausted (%d)", DefaultMaxRestarts)
	}
	c.restarts++
	c.opts.Logf("coordinator: restarting rank %d (restart %d)", x, c.restarts)

	// Retire the suspect. A live false positive is force-closed — the fence
	// makes its incarnation unable to do further harm either way.
	if m := c.members[x]; m != nil {
		m.alive = false
		m.sess.close()
	}
	c.incs[x]++
	survivors := c.liveRanks()
	if len(survivors) == 0 {
		return errors.New("cluster: no survivors to restart from")
	}

	// Fence: survivors hold their sources, sever their links to x, adopt its
	// new incarnation, and answer with their committed-epoch horizons and
	// freshly registered halves for the links to x.
	fenced, err := c.step("fence", survivors, &msg{Kind: kFence, Node: x, Inc: c.incs[x]}, kFenceAck)
	peersForX, err := halvesOf(fenced, err)
	if err != nil {
		return err
	}
	var committed []uint64
	for _, ack := range fenced {
		if committed == nil {
			committed = append([]uint64(nil), ack.Committed...)
			continue
		}
		for i, v := range ack.Committed {
			if i < len(committed) && v < committed[i] {
				committed[i] = v
			}
		}
	}

	// Admit the respawn: its registration (it may already be stashed), its
	// halves, and its QP bring-up, which it applies before reading the
	// restore order (same connection, in order).
	hello, err := c.awaitHello(x)
	if err != nil {
		return err
	}
	c.members[x] = &member{sess: hello.sess, alive: true}
	xHalves, err := halvesOf(c.step("respawn MR exchange", []int{x}, &msg{Kind: kWelcome, Spec: &c.spec, Incs: append([]int(nil), c.incs...), Restore: true}, kHalves))
	if err != nil {
		return err
	}
	if err := c.members[x].sess.send(&msg{Kind: kWire, Peers: peersForX}); err != nil {
		return fmt.Errorf("cluster: wire respawned rank %d: %w", x, err)
	}

	// Adopt: survivors dial x's halves and wire x back into their meshes.
	if _, err := c.step("adopt", survivors, &msg{Kind: kAdopt, Node: x, Peers: xHalves}, kAck); err != nil {
		return err
	}

	// Restore: x rebuilds from its journal at the cluster-wide horizon.
	restoreAck, err := c.step("restore", []int{x}, &msg{Kind: kRestore, Committed: committed}, kRestoreAck)
	if err != nil {
		return err
	}

	// Replay: survivors re-deliver retained ring entries above x's horizon.
	replayAcks, err := c.step("replay", survivors, &msg{Kind: kReplay, Node: x, Restored: restoreAck[x].Restored}, kReplayAck)
	if err != nil {
		return err
	}
	replayed := 0
	for _, ack := range replayAcks {
		replayed += ack.Chunks
	}
	c.replayed += replayed

	// Release everyone and reset the idle bookkeeping — members that
	// reported idle before the fault re-report against the rebuilt mesh.
	if err := c.broadcast(c.liveRanks(), &msg{Kind: kRelease}); err != nil {
		return err
	}
	for r := range c.idle {
		c.idle[r] = false
	}
	c.lastRestart = x
	c.opts.Logf("coordinator: rank %d restored (replayed %d chunks)", x, replayed)
	return nil
}

// awaitHello returns the admissible registration for rank x. A fast respawn
// can dial back in before the restart reaches this step, so the stash is
// checked before every wait.
func (c *Coordinator) awaitHello(x int) (*event, error) {
	deadline := time.Now().Add(c.opts.HandshakeTimeout)
	for {
		if h := c.takeHello(x); h != nil {
			return h, nil
		}
		ev, err := c.recvUntil(deadline)
		if err != nil {
			return nil, fmt.Errorf("awaiting respawn of rank %d: %w", x, err)
		}
		evp := c.dispatch(ev)
		switch {
		case evp == nil:
		case evp.err != nil:
			r, _ := c.rankOf(evp.sess)
			return nil, fmt.Errorf("cluster: rank %d connection lost mid-restart: %w", r, evp.err)
		case evp.m.Kind != kLinkDown: // link-down reports are about the rebuild
			return nil, fmt.Errorf("cluster: unexpected kind %d while awaiting respawn", evp.m.Kind)
		}
	}
}

// finish tears the run down and merges the members' results.
func (c *Coordinator) finish() (*Result, error) {
	live := c.liveRanks()
	if err := c.broadcast(live, &msg{Kind: kFinish}); err != nil {
		return nil, err
	}
	results, err := c.collect(kResult, live)
	if err != nil {
		return nil, fmt.Errorf("cluster: collecting results: %w", err)
	}
	res := &Result{Reports: make([]MemberReport, c.spec.Nodes), Restarts: c.restarts, ReplayedChunks: c.replayed}
	runs := make([][]byte, c.spec.Nodes)
	for r, m := range results {
		runs[r] = m.Rows
		if m.Report != nil {
			res.Reports[r] = *m.Report
		}
	}
	if res.Rows, err = mergeRuns(runs); err != nil {
		return nil, fmt.Errorf("cluster: merging results: %w", err)
	}
	c.opts.Logf("coordinator: run complete (%d rows, %d restarts)", len(res.Rows), c.restarts)
	return res, nil
}
