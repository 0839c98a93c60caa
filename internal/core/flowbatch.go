package core

import (
	"slices"
	"sync/atomic"

	"github.com/slash-stream/slash/internal/stream"
)

// BatchFlow is the columnar form of Flow: a source that fills a
// structure-of-arrays record batch per call instead of producing one record
// per virtual call. The deterministic generators in internal/workload and
// the materialized replay flow (ColumnarFlow) implement it natively; every
// other Flow is adapted (see batchFlowFor), so the engine's hot loop is
// batch-shaped either way — the same operator pipeline runs identically in
// stream mode and in replay/catch-up mode.
type BatchFlow interface {
	Flow
	// Batch appends up to rb.Free() records to rb and reports whether the
	// flow may produce more records later: false means the flow is exhausted
	// (records already appended remain valid — the batch carrying the final
	// records and the end-of-flow signal arrive together). A gated flow
	// (ReadyFlow) must stop filling at its fence and return true; timestamps
	// must be non-decreasing, as for Flow.
	Batch(rb *stream.RecordBatch) bool
}

// batchFlowFor returns f's native BatchFlow, or wraps it in an adapter that
// amortizes the per-record virtual call while honouring ReadyFlow fences
// record-exactly.
func batchFlowFor(f Flow) BatchFlow {
	if bf, ok := f.(BatchFlow); ok {
		return bf
	}
	gate, _ := f.(ReadyFlow)
	return &flowBatchAdapter{flow: f, gate: gate}
}

// flowBatchAdapter satisfies BatchFlow for legacy per-record flows. The gate
// is re-checked before every record so a fence landing mid-batch truncates
// the fill at precisely that record.
type flowBatchAdapter struct {
	flow Flow
	gate ReadyFlow
}

// Next implements Flow.
func (a *flowBatchAdapter) Next(rec *stream.Record) bool { return a.flow.Next(rec) }

// Batch implements BatchFlow.
func (a *flowBatchAdapter) Batch(rb *stream.RecordBatch) bool {
	var rec stream.Record
	for rb.Free() > 0 {
		if a.gate != nil && !a.gate.Ready() {
			return true
		}
		if !a.flow.Next(&rec) {
			return false
		}
		rb.Append(&rec)
	}
	return true
}

// ColumnarFlow replays pre-generated records from structure-of-arrays
// columns (the paper streams pre-generated data from main memory, §8.2.1).
// It is the one replay flow: the harnesses, the benchmark and the public
// API all materialize datasets into it. Batch fills append column slices;
// Next serves engines that still read record-at-a-time.
//
// A flow built with fence timestamps is gated: records with Time >=
// fences[k] wait until Open has been called k+1 times. Fencing a
// deployment's flows at a phase boundary pins where a reconfiguration
// cutover lands (see AutoCutover) without coordinating clocks: the sources
// drain phase k, park (Ready is false), the controller reconfigures at the
// barrier, then Open releases phase k+1. Next ignores fences; a gated flow
// is drained through Batch, which reads the fence stage once per fill.
type ColumnarFlow struct {
	keys   []uint64
	times  []int64
	v0, v1 []int64
	pos    int // next record; owned by the consuming goroutine

	fences  []int64
	stage   atomic.Int32 // fences opened so far
	drained atomic.Int64 // pos as of the last fenced Batch or Rewind, for AtFence
}

// NewColumnarFlow transposes recs into columns once, at materialize time.
// recs' timestamps must be non-decreasing, as for every Flow; fences, if
// any, must be increasing.
func NewColumnarFlow(recs []stream.Record, fences ...int64) *ColumnarFlow {
	f := &ColumnarFlow{
		keys:   make([]uint64, len(recs)),
		times:  make([]int64, len(recs)),
		v0:     make([]int64, len(recs)),
		v1:     make([]int64, len(recs)),
		fences: fences,
	}
	for i := range recs {
		f.keys[i] = recs[i].Key
		f.times[i] = recs[i].Time
		f.v0[i] = recs[i].V0
		f.v1[i] = recs[i].V1
	}
	return f
}

// Len returns the total record count.
func (f *ColumnarFlow) Len() int { return len(f.keys) }

// Clone returns a fresh flow over the same columns and fences, positioned at
// the start with no fence opened. Harnesses materialize a dataset once and
// replay clones across runs and systems — the columns are read-only to
// every consumer (Batch copies into the record batch; Next copies into the
// record).
func (f *ColumnarFlow) Clone() *ColumnarFlow {
	return &ColumnarFlow{keys: f.keys, times: f.times, v0: f.v0, v1: f.v1, fences: f.fences}
}

// Next implements Flow.
func (f *ColumnarFlow) Next(rec *stream.Record) bool {
	if f.pos >= len(f.keys) {
		return false
	}
	i := f.pos
	rec.Key = f.keys[i]
	rec.Time = f.times[i]
	rec.V0 = f.v0[i]
	rec.V1 = f.v1[i]
	f.pos = i + 1
	return true
}

// Batch implements BatchFlow. A fenced fill cuts at the first record with
// Time >= the current fence, found by binary search on the times column.
func (f *ColumnarFlow) Batch(rb *stream.RecordBatch) bool {
	n, p := len(f.times), f.pos
	if p >= n {
		return false
	}
	end := min(n, p+rb.Free())
	if len(f.fences) > 0 {
		if s := int(f.stage.Load()); s < len(f.fences) {
			cut, _ := slices.BinarySearch(f.times[p:end], f.fences[s])
			end = p + cut
		}
	}
	rb.AppendColumns(f.keys[p:end], f.times[p:end], f.v0[p:end], f.v1[p:end])
	f.pos = end
	if len(f.fences) > 0 {
		f.drained.Store(int64(end))
	}
	return end < n
}

// Rewind implements RewindableFlow. Fence stages are not rewound: recovery
// replays records the run already released, so the flow's gating history
// stays where the harness advanced it.
func (f *ColumnarFlow) Rewind(consumed int64) {
	f.pos = int(min(max(consumed, 0), int64(len(f.keys))))
	if len(f.fences) > 0 {
		f.drained.Store(int64(f.pos))
	}
}

// Ready implements ReadyFlow: false while the next record is fenced.
func (f *ColumnarFlow) Ready() bool {
	if len(f.fences) == 0 || f.pos >= len(f.times) {
		return true
	}
	s := int(f.stage.Load())
	return s >= len(f.fences) || f.times[f.pos] < f.fences[s]
}

// Open releases the next fence. Safe to call from any goroutine.
func (f *ColumnarFlow) Open() { f.stage.Add(1) }

// AtFence reports whether the flow consumed everything below fence k
// (0-based) and is parked on it. Harnesses poll it from any goroutine to
// learn when a phase fully drained before reconfiguring; it reads the
// position as of the last Batch or Rewind.
func (f *ColumnarFlow) AtFence(k int) bool {
	if k >= len(f.fences) || int(f.stage.Load()) != k {
		return false
	}
	p := f.drained.Load()
	return p >= int64(len(f.times)) || f.times[p] >= f.fences[k]
}

// runFilterBatch applies the query's filter over a batch, leaving rb.Sel
// authoritative (possibly empty). Callers only invoke it when the query has
// a filter; with a native FilterBatch the closure never runs per record.
func (q *Query) runFilterBatch(rb *stream.RecordBatch) {
	if q.FilterBatch != nil {
		q.FilterBatch(rb)
		return
	}
	sel := rb.UseSel()
	var rec stream.Record
	n := rb.Len()
	for i := 0; i < n; i++ {
		rb.Get(i, &rec)
		if q.Filter(&rec) {
			sel = append(sel, int32(i))
		}
	}
	rb.Sel = sel
}

// runMapBatch applies the query's projection over the live records of a
// batch, in place.
func (q *Query) runMapBatch(rb *stream.RecordBatch) {
	if q.MapBatch != nil {
		q.MapBatch(rb)
		return
	}
	if q.Map == nil {
		return
	}
	var rec stream.Record
	if rb.Sel == nil {
		n := rb.Len()
		for i := 0; i < n; i++ {
			rb.Get(i, &rec)
			q.Map(&rec)
			rb.Set(i, &rec)
		}
		return
	}
	for _, i := range rb.Sel {
		rb.Get(int(i), &rec)
		q.Map(&rec)
		rb.Set(int(i), &rec)
	}
}

// runSideBatch fills sides[j] with the join side of record index j for every
// live record (sides is indexed by record position, not selection position).
func (q *Query) runSideBatch(rb *stream.RecordBatch, sides []uint8) {
	if q.JoinSideBatch != nil {
		q.JoinSideBatch(rb, sides)
		return
	}
	var rec stream.Record
	if rb.Sel == nil {
		n := rb.Len()
		for i := 0; i < n; i++ {
			rb.Get(i, &rec)
			sides[i] = q.JoinSide(&rec)
		}
		return
	}
	for _, i := range rb.Sel {
		rb.Get(int(i), &rec)
		sides[i] = q.JoinSide(&rec)
	}
}
