// Package cluster is the multi-process control plane: a coordinator plus one
// worker per process running the same engine the in-process deployment runs,
// with the channel mesh carried by the netfab transport instead of the
// simulated fabric. The coordinator drives bootstrap (node registration,
// MR/rkey exchange, QP bring-up — the connection-manager steps of a real
// RDMA deployment) and, on a member death, the fence → adopt → restore →
// replay → release sequence, one message per step, reusing the engine's
// incarnation fencing and committed-epoch horizons through the Cluster*
// primitives (internal/core).
package cluster

import (
	"encoding/gob"
	"net"
	"sync"
	"time"
)

// Spec fixes one cluster run. The coordinator owns it; workers receive it in
// their Welcome, so only the coordinator's flags matter — every member then
// derives bit-identical flows from the same (workload, seed).
type Spec struct {
	// Workload names the benchmark (see internal/workload.Build).
	Workload string
	// Nodes is the deployment size — one node per worker process.
	Nodes int
	// Threads is the source threads per node.
	Threads int
	// Records is the records per source thread.
	Records int
	// Seed seeds the deterministic generators.
	Seed int64
	// EpochBytes is the SSB epoch length (0 = engine default).
	EpochBytes int64
	// Credits is the channel pipelining depth (0 = channel default).
	Credits int
	// CheckpointCommits is the leaders' checkpoint cadence (0 = default).
	CheckpointCommits int
}

// Halves is one member's locally-registered share of the channel mesh: the
// netfab listen address plus the rkeys of the regions its peers address —
// the ring a peer's producer writes into (keyed by the sending node) and the
// credit word a peer's consumer writes back (keyed by the receiving node).
// Exchanging Halves is the MR-exchange step of bootstrap.
type Halves struct {
	Addr        string
	RingRKeys   map[int]uint32
	CreditRKeys map[int]uint32
}

// MemberReport carries one member's share of the run statistics.
type MemberReport struct {
	Records, Updates            int64
	NetTxBytes, NetTxMsgs       int64
	ChunksMerged, WindowsOutput uint64
	ChunksDeduped               uint64
	ReplayedChunks              int
	Recoveries                  int
}

// kind discriminates the control-plane messages. One flat tagged struct
// keeps the gob stream trivial: every field is plain data.
type kind uint8

const (
	kInvalid kind = iota
	// Bootstrap: worker -> coordinator -> worker.
	kHello   // worker announces its rank (Inc: -1 fresh, else a claimed incarnation)
	kWelcome // coordinator accepts (Spec, Incs, Restore) or rejects (Err)
	kHalves  // worker publishes its registered halves
	kWire    // coordinator distributes peer halves; worker dials QPs and builds ports
	kReady   // worker finished bring-up
	kStart   // coordinator releases the run
	// Steady state.
	kIdle     // worker's task pool drained
	kFinish   // coordinator: every member idle — tear down and report
	kResult   // worker's packed rows and statistics (or its fatal error)
	kLinkDown // worker forwards a link-failure observation (the vote input)
	// Restart sequence (coordinator-ordered; see Coordinator.restart).
	kFence      // survivor: hold sources, sever links to dead Node, install its new incarnation (Inc)
	kFenceAck   // the committed-epoch minimum vector and fresh halves for Node's links
	kAdopt      // survivor: dial Node's Peers halves, wire Node back into the local mesh
	kRestore    // newcomer: rebuild Node from its journal against Committed
	kRestoreAck // the restored committed-epoch vector
	kReplay     // survivor: re-deliver ring entries to Node above Restored
	kReplayAck  // chunks replayed
	kRelease    // every member: lift the restart hold
	kAck        // generic completion (Err set on failure)
)

// msg is the single wire envelope; Kind selects which fields are meaningful.
type msg struct {
	Kind kind
	Rank int
	Inc  int
	Node int
	Err  string

	Spec    *Spec
	Incs    []int
	Restore bool

	Halves *Halves
	Peers  map[int]Halves

	Committed []uint64
	Restored  []uint64
	Chunks    int

	Src, Dst       int
	SrcInc, DstInc int

	// Rows is a kResult's sink output as packed rows (see packRows).
	Rows   []byte
	Report *MemberReport
}

// session wraps one control connection with gob codecs and a write lock (a
// worker writes from its main loop, its control handler, and link-failure
// callbacks; the coordinator writes from its single Run goroutine but shares
// the type).
type session struct {
	conn net.Conn
	dec  *gob.Decoder

	mu  sync.Mutex
	enc *gob.Encoder
}

func newSession(conn net.Conn) *session {
	return &session{conn: conn, dec: gob.NewDecoder(conn), enc: gob.NewEncoder(conn)}
}

func (s *session) send(m *msg) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enc.Encode(m)
}

func (s *session) read() (*msg, error) {
	var m msg
	if err := s.dec.Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

func (s *session) close() {
	if s != nil && s.conn != nil {
		_ = s.conn.Close()
	}
}

func errStr(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// Defaults for the control plane's patience.
const (
	// DefaultHandshakeTimeout bounds each bootstrap step and the wait for a
	// dead member's respawn to dial back in.
	DefaultHandshakeTimeout = 30 * time.Second
	// DefaultFenceDelay is the vote-collection window after the first
	// link-failure report (conn death short-circuits it).
	DefaultFenceDelay = 50 * time.Millisecond
	// DefaultMaxRestarts bounds voted restarts per run.
	DefaultMaxRestarts = 3
	// DefaultCreditWait bounds a producer's credit wait: a dead peer process
	// stops returning credits without any completion failing, so the bounded
	// wait is what turns its death into a reportable link error.
	DefaultCreditWait = 2 * time.Second
)
