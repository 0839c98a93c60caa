package main

import (
	"time"

	"github.com/slash-stream/slash/internal/core"
	"github.com/slash-stream/slash/internal/stream"
)

// materialize drains every generator flow into read-only columns, the paper's
// methodology (§8.2.1): record creation never sits on a measured pass.
func materialize(flows [][]core.Flow) []*core.ColumnarFlow {
	var out []*core.ColumnarFlow
	for n := range flows {
		for _, f := range flows[n] {
			var recs []stream.Record
			if l, ok := f.(interface{ Len() int }); ok {
				recs = make([]stream.Record, 0, l.Len())
			}
			var rec stream.Record
			for f.Next(&rec) {
				recs = append(recs, rec)
			}
			out = append(out, core.NewColumnarFlow(recs))
		}
	}
	return out
}

// pacedFlow is the open-loop source: record i of the schedule is due i/rate
// seconds after start and is released only once that time has passed, whether
// or not the engine kept up. Event time is the due time in µs, so a window's
// emit latency counts from the wall-clock due time of its last record. Keys
// and values cycle a pre-generated block whose length is a power of two, so
// memory stays flat and the reference fold sees the same records.
//
// Records are released a whole batch at a time, when the batch's last record
// is due. Epochs are counted in ingested bytes, so with ragged batches the two
// flows' flush points would wander apart by a different amount on every run
// and take the emit latency with them; with whole batches the same seed gives
// the same batches, the same epochs and the same phase between flows.
//
// A zero start means unpaced: everything is due. The reference fold and the
// layer replay read the same schedule that way.
type pacedFlow struct {
	keys    []uint64
	v0      []int64
	rate    int64 // records per second
	total   int64 // schedule length in records
	winSize int64 // µs
	pos     int64
	start   time.Time

	lagNs []int64 // per batch read: how far reading lags the newest due record
	marks []mark  // consumed count at the first Batch call of each elapsed second
}

type mark struct {
	at  time.Time
	pos int64
}

func (f *pacedFlow) due(now time.Time) int64 {
	if f.start.IsZero() {
		return f.total
	}
	d := now.Sub(f.start).Nanoseconds() * f.rate / 1e9
	if d > f.total {
		d = f.total
	}
	return d
}

func (f *pacedFlow) fill(i int64, key *uint64, ts, v0 *int64) {
	j := i & int64(len(f.keys)-1)
	*key, *ts, *v0 = f.keys[j], i*1_000_000/f.rate, f.v0[j]
}

// Ready implements core.ReadyFlow: the next whole batch is due.
func (f *pacedFlow) Ready() bool {
	return f.pos >= f.total || f.pos+min(batchRecords, f.total-f.pos) <= f.due(time.Now())
}

// Batch implements core.BatchFlow.
func (f *pacedFlow) Batch(rb *stream.RecordBatch) bool {
	now := time.Now()
	d := f.due(now)
	k := min(int64(rb.Free()), f.total-f.pos)
	if f.pos+k > d {
		return true
	}
	if !f.start.IsZero() {
		f.lagNs = append(f.lagNs, (d-f.pos)*1e9/f.rate)
		for sec := int(now.Sub(f.start) / time.Second); len(f.marks) <= sec; {
			f.marks = append(f.marks, mark{at: now, pos: f.pos})
		}
	}
	if k > 0 {
		keys, times, v0, v1 := rb.AppendBlank(int(k))
		for i := range keys {
			f.fill(f.pos+int64(i), &keys[i], &times[i], &v0[i])
			v1[i] = 0
		}
		f.pos += k
	}
	return f.pos < f.total
}

// Next implements core.Flow for the reference fold. It does not pace: the
// engine reads a pacedFlow through Ready and Batch only.
func (f *pacedFlow) Next(rec *stream.Record) bool {
	if f.pos >= f.total {
		return false
	}
	f.fill(f.pos, &rec.Key, &rec.Time, &rec.V0)
	rec.V1 = 0
	f.pos++
	return true
}

// releasedAt implements releaseClock: the due time of the window's end.
func (f *pacedFlow) releasedAt(win int) int64 {
	return f.start.UnixNano() + int64(win+1)*f.winSize*1000
}

// unpaced returns a fresh copy of the schedule with everything due.
func (f *pacedFlow) unpaced() *pacedFlow {
	return &pacedFlow{keys: f.keys, v0: f.v0, rate: f.rate, total: f.total, winSize: f.winSize}
}

// releaseClock tells when a window's last record became available to the
// engine on one flow, in unix ns.
type releaseClock interface {
	releasedAt(win int) int64
}

// passStart is the releaseClock of a closed-loop replay: the whole input sits
// materialized in memory from the start of the pass, so every window's
// latency counts from there.
type passStart int64

func (t passStart) releasedAt(int) int64 { return int64(t) }
