package core

import (
	"github.com/slash-stream/slash/internal/stream"
)

// BatchFlow is the columnar form of Flow: a source that fills a
// structure-of-arrays record batch per call instead of producing one record
// per virtual call. The deterministic generators in internal/workload and
// the materialized replay flows implement it natively; every other Flow is
// adapted (see batchFlowFor), so the engine's hot loop is batch-shaped
// either way — the same operator pipeline runs identically in stream mode
// and in replay/catch-up mode.
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
// columns: the batch-native materialized source (the harness pre-generates
// datasets into it, §8.2.1). Batch fills are four column copies; Next serves
// engines that still read record-at-a-time.
type ColumnarFlow struct {
	keys   []uint64
	times  []int64
	v0, v1 []int64
	pos    int
}

// NewColumnarFlow transposes recs into columns once, at materialize time.
func NewColumnarFlow(recs []stream.Record) *ColumnarFlow {
	f := &ColumnarFlow{
		keys:  make([]uint64, len(recs)),
		times: make([]int64, len(recs)),
		v0:    make([]int64, len(recs)),
		v1:    make([]int64, len(recs)),
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

// Clone returns a fresh flow over the same columns, positioned at the start.
// Harnesses materialize a dataset once and replay clones across runs and
// systems — the columns are read-only to every consumer (Batch copies into
// the record batch; Next copies into the record).
func (f *ColumnarFlow) Clone() *ColumnarFlow {
	return &ColumnarFlow{keys: f.keys, times: f.times, v0: f.v0, v1: f.v1}
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

// Batch implements BatchFlow.
func (f *ColumnarFlow) Batch(rb *stream.RecordBatch) bool {
	n := len(f.keys)
	if f.pos >= n {
		return false
	}
	k := rb.Free()
	if k > n-f.pos {
		k = n - f.pos
	}
	rb.AppendColumns(f.keys[f.pos:f.pos+k], f.times[f.pos:f.pos+k], f.v0[f.pos:f.pos+k], f.v1[f.pos:f.pos+k])
	f.pos += k
	return f.pos < n
}

// Rewind implements RewindableFlow.
func (f *ColumnarFlow) Rewind(consumed int64) {
	if consumed < 0 {
		consumed = 0
	}
	if consumed > int64(len(f.keys)) {
		consumed = int64(len(f.keys))
	}
	f.pos = int(consumed)
}

// Batch implements BatchFlow for SliceFlow.
func (f *SliceFlow) Batch(rb *stream.RecordBatch) bool {
	n := len(f.recs)
	for rb.Free() > 0 && f.pos < n {
		rb.Append(&f.recs[f.pos])
		f.pos++
	}
	return f.pos < n
}

// Batch implements BatchFlow for GatedFlow: the fill stops at the current
// fence (a fence landing mid-batch truncates at precisely that record) and
// reports exhaustion only when every record was delivered.
func (g *GatedFlow) Batch(rb *stream.RecordBatch) bool {
	p := g.pos.Load()
	n := int64(len(g.recs))
	s := int(g.stage.Load())
	fenced := s < len(g.fences)
	for rb.Free() > 0 && p < n {
		r := &g.recs[p]
		if fenced && r.Time >= g.fences[s] {
			break
		}
		rb.Append(r)
		p++
	}
	g.pos.Store(p)
	return p < n
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
