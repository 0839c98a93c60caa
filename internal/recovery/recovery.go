// Package recovery owns durable checkpoint storage for the Slash engine:
// per-node append-only journals of checkpoint, window-trigger, emit and
// source-progress records. They are the only durable form of leader state: a
// restarted node is rebuilt by replaying its journal in order. The
// epoch-based coherence protocol (§7.2.2) makes the records cheap to produce
// — every helper fragment is empty at an epoch boundary, so the deltas a
// leader merged between HandleChunk calls form a consistent cut — and this
// package makes them survive the executor that wrote them.
//
// The package is storage only: record payloads are opaque byte strings
// encoded by internal/ssb (checkpoint deltas) and internal/core (source
// progress), so recovery sits below both in the dependency order.
package recovery

import (
	"bytes"
	"fmt"
	"sync"
)

// Kind tags one journal record.
type Kind uint8

// Record kinds. A journal interleaves all four in append order; replaying
// them in order reconstructs the node state at the crash point.
const (
	// KindCheckpoint carries an incremental ssb checkpoint: the log bytes
	// each primary window gained since the previous checkpoint, the vector
	// clock, and the per-thread epoch-commit state.
	KindCheckpoint Kind = iota + 1
	// KindTrigger marks a window as fired. It is appended in the same merge
	// step that emitted the window, so a restore never re-emits it.
	KindTrigger
	// KindSource records one source thread's progress after a successful
	// epoch flush: records consumed, epoch counter, watermark, incarnation.
	KindSource
	// KindEmit carries the result rows a window trigger emitted, appended
	// immediately before that window's KindTrigger record. Only written when
	// the engine runs with durable emits (multi-process mode, where the
	// crashed node's in-memory sink dies with its process): replay re-emits
	// the buffered rows before re-marking the trigger, so restored output is
	// byte-identical without re-running the merge.
	KindEmit
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCheckpoint:
		return "checkpoint"
	case KindTrigger:
		return "trigger"
	case KindSource:
		return "source"
	case KindEmit:
		return "emit"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Record is one journal entry. Seq is assigned by the writer and must
// increase per node; Gen stamps the partition-map generation in force when
// the record was written; Clock stamps checkpoint records with the writer's
// vector clock (nil for the small record kinds).
type Record struct {
	Kind    Kind
	Seq     uint64
	Gen     uint64
	Clock   []int64
	Payload []byte
	// Regions, when non-nil on Append, is the payload given as consecutive
	// regions, in place of Payload: a writer that stages its payload in
	// pieces hands them over as they are, and the store copies each byte
	// once. Loaded records carry Payload only.
	Regions [][]byte
}

// payloadLen returns the payload size: the sum of Regions, else Payload's.
func (r *Record) payloadLen() int {
	if r.Regions == nil {
		return len(r.Payload)
	}
	n := 0
	for _, p := range r.Regions {
		n += len(p)
	}
	return n
}

// appendPayload appends the payload bytes to dst.
func (r *Record) appendPayload(dst []byte) []byte {
	if r.Regions == nil {
		return append(dst, r.Payload...)
	}
	for _, p := range r.Regions {
		dst = append(dst, p...)
	}
	return dst
}

// clone deep-copies a record so stores never alias caller memory. The
// payload is copied once, into one slice that bytes.Join allocates without
// zeroing it first.
func (r *Record) clone() Record {
	out := Record{Kind: r.Kind, Seq: r.Seq, Gen: r.Gen}
	if r.Clock != nil {
		out.Clock = append([]int64(nil), r.Clock...)
	}
	if r.payloadLen() > 0 {
		regions := r.Regions
		if regions == nil {
			regions = [][]byte{r.Payload}
		}
		out.Payload = bytes.Join(regions, nil)
	}
	return out
}

// Store persists per-node journals. Implementations must be safe for
// concurrent use: a node's merge task and source threads append while the
// controller loads another node's journal during a restart.
type Store interface {
	// Append durably adds rec to node's journal.
	Append(node int, rec *Record) error
	// Load returns node's journal in append order. A journal whose tail was
	// torn by a crash loads its intact prefix (see DirStore); a node that
	// never wrote loads an empty, non-error journal.
	Load(node int) ([]Record, error)
}

// MemStore is an in-memory Store: the default for tests and in-process
// recovery experiments, where the "durable" domain is the process.
type MemStore struct {
	mu       sync.Mutex
	journals map[int][]Record
}

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{journals: make(map[int][]Record)}
}

// Append implements Store.
func (s *MemStore) Append(node int, rec *Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journals[node] = append(s.journals[node], rec.clone())
	return nil
}

// Load implements Store.
func (s *MemStore) Load(node int) ([]Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.journals[node]
	out := make([]Record, len(recs))
	for i := range recs {
		out[i] = recs[i].clone()
	}
	return out, nil
}

// Records returns the total number of records across all journals.
func (s *MemStore) Records() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.journals {
		n += len(j)
	}
	return n
}
