package workload

import (
	"reflect"
	"testing"

	"github.com/slash-stream/slash/internal/core"
	"github.com/slash-stream/slash/internal/stream"
)

// batchWorkloads builds one flow of every workload, including the skewed
// distribution variants the figure sweeps use.
func batchWorkloads() map[string]func() core.Flow {
	return map[string]func() core.Flow{
		"ysb":      func() core.Flow { return YSB{RecordsPerFlow: 3000, Seed: 3}.Flows(1, 1)[0][0] },
		"ysb-zipf": func() core.Flow { return YSB{RecordsPerFlow: 3000, Seed: 3, ZipfS: 0.8}.Flows(1, 1)[0][0] },
		"nb7":      func() core.Flow { return NB7{RecordsPerFlow: 3000, Seed: 3}.Flows(1, 1)[0][0] },
		"nb8":      func() core.Flow { return NB8{RecordsPerFlow: 3000, Seed: 3}.Flows(1, 1)[0][0] },
		"nb11":     func() core.Flow { return NB11{RecordsPerFlow: 3000, Seed: 3}.Flows(1, 1)[0][0] },
		"cm":       func() core.Flow { return CM{RecordsPerFlow: 3000, Seed: 3}.Flows(1, 1)[0][0] },
		"ro":       func() core.Flow { return RO{RecordsPerFlow: 3000, Seed: 3}.Flows(1, 1)[0][0] },
		"ro-zipf":  func() core.Flow { return RO{RecordsPerFlow: 3000, Seed: 3, ZipfS: 1.2}.Flows(1, 1)[0][0] },
	}
}

// TestBatchFillMatchesNext pins the generators' core contract: the columnar
// Batch fill and the per-record Next draw from the rng in the identical
// order, so both paths produce bit-identical datasets. An odd batch capacity
// forces wrap-straddling fills and a final partial batch.
func TestBatchFillMatchesNext(t *testing.T) {
	for name, mk := range batchWorkloads() {
		t.Run(name, func(t *testing.T) {
			byNext := mk()
			var want []stream.Record
			var rec stream.Record
			for byNext.Next(&rec) {
				want = append(want, rec)
			}

			byBatch := mk().(core.BatchFlow)
			if hint, ok := byBatch.(interface{ Len() int }); !ok || hint.Len() != len(want) {
				t.Fatalf("Len hint missing or wrong (want %d)", len(want))
			}
			rb := stream.NewRecordBatch(97)
			var got []stream.Record
			for {
				rb.Reset(rb.Cap())
				more := byBatch.Batch(rb)
				for i := 0; i < rb.Len(); i++ {
					rb.Get(i, &rec)
					got = append(got, rec)
				}
				if !more {
					break
				}
			}
			if len(got) != len(want) {
				t.Fatalf("batch fill produced %d records, Next produced %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("record %d: batch %v != next %v", i, got[i], want[i])
				}
			}
			// Exhausted flows keep reporting exhaustion without records.
			rb.Reset(rb.Cap())
			if byBatch.Batch(rb) || rb.Len() != 0 {
				t.Fatalf("exhausted flow: more=%v len=%d", true, rb.Len())
			}
		})
	}
}

// fillBatch drains up to cap records of a flow into a fresh batch.
func fillBatch(t *testing.T, f core.Flow, capacity int) *stream.RecordBatch {
	t.Helper()
	rb := stream.NewRecordBatch(capacity)
	var rec stream.Record
	for rb.Free() > 0 && f.Next(&rec) {
		rb.Append(&rec)
	}
	return rb
}

// TestYSBBatchOperatorsMatchPerRecord checks the native FilterBatch/MapBatch
// forms against the per-record closures they replace: same selection, same
// projected values.
func TestYSBBatchOperatorsMatchPerRecord(t *testing.T) {
	w := YSB{Keys: 1000, RecordsPerFlow: 2000, Seed: 11}
	q := w.Query()
	rb := fillBatch(t, w.Flows(1, 1)[0][0], 512)
	ref := fillBatch(t, w.Flows(1, 1)[0][0], 512)

	q.FilterBatch(rb)
	var rec stream.Record
	var wantSel []int32
	for i := 0; i < ref.Len(); i++ {
		ref.Get(i, &rec)
		if q.Filter(&rec) {
			wantSel = append(wantSel, int32(i))
		}
	}
	if len(rb.Sel) != len(wantSel) {
		t.Fatalf("FilterBatch kept %d, Filter kept %d", len(rb.Sel), len(wantSel))
	}
	for p := range wantSel {
		if rb.Sel[p] != wantSel[p] {
			t.Fatalf("selection diverges at %d: %d != %d", p, rb.Sel[p], wantSel[p])
		}
	}

	q.MapBatch(rb)
	for _, i := range wantSel {
		ref.Get(int(i), &rec)
		q.Map(&rec)
		var got stream.Record
		rb.Get(int(i), &got)
		if got != rec {
			t.Fatalf("MapBatch record %d = %v, Map = %v", i, got, rec)
		}
	}

	// The all-live MapBatch sweep (no preceding filter) must also match.
	rb2 := fillBatch(t, w.Flows(1, 1)[0][0], 512)
	q.MapBatch(rb2)
	for i := 0; i < rb2.Len(); i++ {
		if rb2.V0[i] != 1 {
			t.Fatalf("all-live MapBatch left V0[%d] = %d", i, rb2.V0[i])
		}
	}
}

// TestJoinSideBatchMatchesPerRecord checks the join workloads' native side
// extraction against the per-record JoinSide closure.
func TestJoinSideBatchMatchesPerRecord(t *testing.T) {
	for name, tc := range map[string]struct {
		q  *core.Query
		fl core.Flow
	}{
		"nb8":  {NB8{RecordsPerFlow: 2000, Seed: 7}.Query(), NB8{RecordsPerFlow: 2000, Seed: 7}.Flows(1, 1)[0][0]},
		"nb11": {NB11{RecordsPerFlow: 2000, Seed: 7}.Query(), NB11{RecordsPerFlow: 2000, Seed: 7}.Flows(1, 1)[0][0]},
	} {
		t.Run(name, func(t *testing.T) {
			rb := fillBatch(t, tc.fl, 512)
			sides := make([]uint8, rb.Len())
			tc.q.JoinSideBatch(rb, sides)
			var rec stream.Record
			for i := 0; i < rb.Len(); i++ {
				rb.Get(i, &rec)
				if want := tc.q.JoinSide(&rec); sides[i] != want {
					t.Fatalf("record %d: JoinSideBatch %d != JoinSide %d", i, sides[i], want)
				}
			}
		})
	}
}

// TestDistNames covers the distribution descriptors the harness prints.
func TestDistNames(t *testing.T) {
	z, err := NewZipf(100, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		d    KeyDist
		want string
	}{
		{Uniform{N: 10}, "uniform(10)"},
		{z, "zipf(100,0.80)"},
		{Pareto{N: 5, Alpha: 1.16}, "pareto(5,1.16)"},
	} {
		if got := tc.d.Name(); got != tc.want {
			t.Fatalf("Name() = %q, want %q", got, tc.want)
		}
	}
}

// TestReplayLeavesColumnsUnchanged: the engine treats a replayed flow's
// columns as read-only. YSB's MapBatch writes rb.V0 in place, so a flow that
// handed out views of its columns would have its dataset rewritten by the
// first run, and a second run over a clone would filter different records.
func TestReplayLeavesColumnsUnchanged(t *testing.T) {
	w := YSB{Keys: 100, RecordsPerFlow: 20000, Seed: 5}
	recs := drain(t, w.Flows(1, 1)[0][0])
	src := core.NewColumnarFlow(recs)
	var runs [2][]core.AggResult
	for i := range runs {
		col := &core.Collector{}
		if _, err := core.Run(core.Config{Nodes: 1, ThreadsPerNode: 1}, w.Query(), [][]core.Flow{{src.Clone()}}, col); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		runs[i] = col.Aggs()
	}
	if len(runs[0]) == 0 || !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatalf("two runs over clones of one flow differ: %d and %d rows", len(runs[0]), len(runs[1]))
	}
	if got := drain(t, src.Clone()); !reflect.DeepEqual(got, recs) {
		t.Fatal("the engine rewrote the replayed flow's columns")
	}
}
