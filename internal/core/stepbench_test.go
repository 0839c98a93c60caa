package core

import (
	"testing"

	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/stream"
	"github.com/slash-stream/slash/internal/window"
)

// cycleFlow replays a fixed columnar block forever: the source never runs
// dry, timestamps stay constant (one window, bounded state), and the fill is
// allocation-free — so a benchmark over it measures exactly the steady-state
// source step and nothing else.
type cycleFlow struct {
	keys   []uint64
	times  []int64
	v0, v1 []int64
	pos    int
}

func newCycleFlow(block, nKeys int) *cycleFlow {
	f := &cycleFlow{
		keys:  make([]uint64, block),
		times: make([]int64, block),
		v0:    make([]int64, block),
		v1:    make([]int64, block),
	}
	for i := 0; i < block; i++ {
		f.keys[i] = uint64(i % nKeys)
		f.v0[i] = int64(i)
	}
	return f
}

// Next implements Flow.
func (f *cycleFlow) Next(rec *stream.Record) bool {
	i := f.pos
	rec.Key = f.keys[i]
	rec.Time = f.times[i]
	rec.V0 = f.v0[i]
	rec.V1 = f.v1[i]
	f.pos++
	if f.pos == len(f.keys) {
		f.pos = 0
	}
	return true
}

// Batch implements BatchFlow: wrap-around column copies, never exhausted.
func (f *cycleFlow) Batch(rb *stream.RecordBatch) bool {
	for rb.Free() > 0 {
		k := rb.Free()
		if rem := len(f.keys) - f.pos; k > rem {
			k = rem
		}
		rb.AppendColumns(f.keys[f.pos:f.pos+k], f.times[f.pos:f.pos+k], f.v0[f.pos:f.pos+k], f.v1[f.pos:f.pos+k])
		f.pos += k
		if f.pos == len(f.keys) {
			f.pos = 0
		}
	}
	return true
}

// warmSourceStep builds the source task of a one-node, one-thread
// deployment over an endless flow, with the epoch length set far out of
// reach so no step flushes, and warms its (window, key) entries so later
// steps update aggregate state in place instead of inserting. It returns
// the task's step and the records one step ingests.
func warmSourceStep(tb testing.TB) (step func(), per int) {
	win, _ := window.NewTumbling(1000)
	cfg := smallConfig(1, 1)
	cfg.EpochBytes = 1 << 50
	q := &Query{Name: "stepbench", Codec: testCodec, Window: win, Agg: crdt.Sum{}}
	ctrl, err := NewController(cfg, q, [][]Flow{{newCycleFlow(4096, 512)}}, &Collector{})
	if err != nil {
		tb.Fatal(err)
	}
	st := ctrl.sources[0][0]
	for i := 0; i < 32; i++ {
		st.Step()
	}
	per = cfg.BatchRecords
	if per == 0 {
		per = 256
	}
	return func() { st.Step() }, per
}

// BenchmarkSourceStepBatch measures one scheduler step of the source task —
// the engine's columnar hot loop: one batch fill, run-length window
// assignment, and grouped aggregation per step.
func BenchmarkSourceStepBatch(b *testing.B) {
	step, per := warmSourceStep(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.ReportMetric(float64(b.N)*float64(per)/b.Elapsed().Seconds(), "rec/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(per)), "ns/rec")
}

// TestSourceStepBatchAllocationFree is the columnar hot loop's floor: a
// steady-state source step allocates nothing.
func TestSourceStepBatchAllocationFree(t *testing.T) {
	step, _ := warmSourceStep(t)
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("steady-state source step allocates %.2f times, want 0", allocs)
	}
}
