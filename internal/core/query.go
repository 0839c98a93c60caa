// Package core implements the Slash stateful executor (§5): data-parallel
// pipelines over physically partitioned data flows, eager computation of
// partial state into the SSB, lazy cluster-level merging over RDMA channels,
// and vector-clock-driven window triggering. It is the paper's primary
// contribution wired together from the substrate packages.
package core

import (
	"errors"
	"fmt"

	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/stream"
	"github.com/slash-stream/slash/internal/window"
)

// Flow is one physical data flow of a stream: the per-thread record source.
// Slash does not assume flows are partitioned by key — the same key may
// appear in any flow (§5.1).
type Flow interface {
	// Next fills rec with the next record, returning false at end of flow.
	// Timestamps within a flow must be non-decreasing (the data model's
	// monotonic event time, §2.2).
	Next(rec *stream.Record) bool
}

// SideFunc tells a windowed join which input stream a record belongs to
// (0 = build/left, 1 = probe/right).
type SideFunc func(rec *stream.Record) uint8

// Query is a declarative streaming query: an operator pipeline ending in a
// soft pipeline breaker (window trigger). Filter and Map fuse into the
// stateful pipeline; exactly one of Agg or JoinSide selects the terminal
// stateful operator.
type Query struct {
	// Name labels the query in reports.
	Name string
	// Codec is the wire schema of input records; its size drives epoch
	// accounting and channel framing.
	Codec stream.Codec
	// Filter drops records that return false. Optional.
	Filter func(rec *stream.Record) bool
	// Map transforms records in place (projection). Optional.
	Map func(rec *stream.Record)
	// Window assigns records to event-time windows. Required for stateful
	// queries.
	Window window.Assigner
	// Agg selects a windowed aggregation by key (non-holistic CRDT state).
	Agg crdt.Aggregate
	// JoinSide selects a windowed join: records are appended to per-key,
	// per-window bags tagged with their side, and the trigger emits
	// per-key pairings (holistic CRDT state).
	JoinSide SideFunc

	// FilterBatch is the optional batch form of Filter: it must select into
	// rb.Sel (via rb.UseSel) exactly the records Filter would keep, in
	// ascending index order. When nil, the engine compiles one from Filter
	// (a per-record fallback over the batch). Semantically Filter and
	// FilterBatch must agree — the differential harness runs both paths.
	FilterBatch func(rb *stream.RecordBatch)
	// MapBatch is the optional batch form of Map: transform the live
	// records of rb in place. When nil, compiled from Map.
	MapBatch func(rb *stream.RecordBatch)
	// JoinSideBatch is the optional batch form of JoinSide: fill sides[i]
	// for every live record index i of rb. When nil, compiled from
	// JoinSide.
	JoinSideBatch func(rb *stream.RecordBatch, sides []uint8)
}

// Errors returned by query validation.
var (
	ErrNoWindow     = errors.New("core: stateful query needs a window assigner")
	ErrNoStateful   = errors.New("core: query needs an aggregate or a join")
	ErrBothStateful = errors.New("core: query cannot be both aggregation and join")
)

// validate checks the query shape and its codec.
func (q *Query) validate() error {
	if q.Codec.Size() == 0 {
		return fmt.Errorf("core: query %q has no codec", q.Name)
	}
	return q.ValidateOperators()
}

// ValidateOperators checks the query's operators: a window assigner and
// exactly one stateful operator, an aggregate or a join side. The baseline
// engines, which frame records themselves, run this check alone.
func (q *Query) ValidateOperators() error {
	if q.Window == nil {
		return ErrNoWindow
	}
	if q.Agg == nil && q.JoinSide == nil {
		return ErrNoStateful
	}
	if q.Agg != nil && q.JoinSide != nil {
		return ErrBothStateful
	}
	return nil
}

// holistic reports whether the query keeps bag state.
func (q *Query) holistic() bool { return q.JoinSide != nil }

// RewindableFlow is an optional Flow extension for flows that can be reset
// to an earlier position — the recovery plane's replay source. After a node
// restart, the controller rewinds each of the node's flows to the last
// consumed count whose epoch is committed cluster-wide and re-ingests from
// there; leaders deduplicate the re-sent epochs. A flow that cannot rewind
// makes its node unrecoverable (ErrUnrecoverable).
type RewindableFlow interface {
	Flow
	// Rewind repositions the flow so the next Next call returns the record
	// that followed the first `consumed` records.
	Rewind(consumed int64)
}

// FuncFlow adapts a generator function to Flow.
type FuncFlow func(rec *stream.Record) bool

// Next implements Flow.
func (f FuncFlow) Next(rec *stream.Record) bool { return f(rec) }

// ReadyFlow is an optional Flow extension for flows that can be temporarily
// out of records without being finished. A source task whose flow reports
// !Ready() parks (scheduler Idle) instead of calling Next, so a gated flow
// never ends the stream early. The elastic and recovery harnesses phase
// input around reconfigurations and restarts with fenced ColumnarFlows.
type ReadyFlow interface {
	Flow
	// Ready reports whether Next can currently produce a record. A finished
	// flow reports true: Next itself signals end of flow.
	Ready() bool
}
