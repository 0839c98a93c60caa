package main

import (
	"testing"

	"github.com/slash-stream/slash/internal/core"
	"github.com/slash-stream/slash/internal/ssb"
	gen "github.com/slash-stream/slash/internal/workload"
)

// collectorTotals condenses what a core.Collector received the way the
// reference condenses its fold.
func collectorTotals(col *core.Collector, windows int) [][]winTotal {
	pmap := ssb.StaticPartitionMap(nodes)
	out := make([][]winTotal, windows)
	for w := range out {
		out[w] = make([]winTotal, nodes)
	}
	add := func(win, key uint64, a, b int64) {
		leader, _ := pmap.Owner(win, key)
		out[win][leader].rows++
		out[win][leader].sum += rowHash(key, a, b)
	}
	for _, r := range col.Aggs() {
		add(r.Win, r.Key, r.Value, 0)
	}
	for _, r := range col.Joins() {
		add(r.Win, r.Key, int64(r.Left), int64(r.Right))
	}
	return out
}

// TestReferenceAgreesWithCollector: the sequential fold and the engine, fed
// the same generated inputs, produce the same rows for count (YSB), avg (CM)
// and join cardinalities (NB8).
func TestReferenceAgreesWithCollector(t *testing.T) {
	const records = 6000
	for seed := int64(1); seed <= 3; seed++ {
		jobs := map[string]func() (*core.Query, [][]core.Flow){
			"ysb": func() (*core.Query, [][]core.Flow) {
				w := gen.YSB{Keys: 500, RecordsPerFlow: records, Seed: seed}
				return w.Query(), w.Flows(nodes, 1)
			},
			"cm": func() (*core.Query, [][]core.Flow) {
				w := gen.CM{Jobs: 300, RecordsPerFlow: records, Seed: seed}
				return w.Query(), w.Flows(nodes, 1)
			},
			"nb8": func() (*core.Query, [][]core.Flow) {
				w := gen.NB8{Sellers: 200, RecordsPerFlow: records, Seed: seed}
				return w.Query(), w.Flows(nodes, 1)
			},
		}
		for name, job := range jobs {
			q, flows := job()
			col := &core.Collector{}
			if _, err := core.Run(core.Config{Nodes: nodes, ThreadsPerNode: 1}, q, flows, col); err != nil {
				t.Fatalf("%s seed %d: engine: %v", name, seed, err)
			}
			q, flows = job()
			ref, err := foldReference(q, []core.Flow{flows[0][0], flows[1][0]}, nodes)
			if err != nil {
				t.Fatalf("%s seed %d: reference: %v", name, seed, err)
			}
			if ref.rows == 0 || ref.records != 2*records {
				t.Fatalf("%s seed %d: reference folded %d records into %d rows", name, seed, ref.records, ref.rows)
			}
			got := collectorTotals(col, len(ref.wins))
			for w := range ref.wins {
				for n := range ref.wins[w] {
					if got[w][n] != ref.wins[w][n] {
						t.Errorf("%s seed %d: window %d leader %d: engine %+v, reference %+v", name, seed, w, n, got[w][n], ref.wins[w][n])
					}
				}
			}
		}
	}
}

// TestCorruptedSinkRowFails: one wrong value among otherwise right rows makes
// failed_ratio positive, and so does a row for a window that does not exist.
func TestCorruptedSinkRowFails(t *testing.T) {
	w := gen.YSB{Keys: 50, RecordsPerFlow: 2000, Seed: 9}
	flows := w.Flows(nodes, 1)
	ref, err := foldReference(w.Query(), []core.Flow{flows[0][0], flows[1][0]}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	col := &core.Collector{}
	if _, err := core.Run(core.Config{Nodes: nodes, ThreadsPerNode: 1}, w.Query(), w.Flows(nodes, 1), col); err != nil {
		t.Fatal(err)
	}
	pmap := ssb.StaticPartitionMap(nodes)
	feed := func(corrupt int) *checkSink {
		s := newCheckSink(ref, nodes)
		for i, r := range col.Aggs() {
			leader, _ := pmap.Owner(r.Win, r.Key)
			v := r.Value
			if i == corrupt {
				v++
			}
			s.EmitAgg(leader, r.Win, r.Key, v)
		}
		return s
	}
	if a, f := feed(-1).check(ref); f != 0 || a != ref.rows {
		t.Fatalf("clean rows: attempted %d failed %d, want %d and 0", a, f, ref.rows)
	}
	if a, f := feed(3).check(ref); f == 0 || ratio(float64(f), float64(a)) <= 0 {
		t.Fatalf("corrupted row: attempted %d failed %d, want failed_ratio > 0", a, f)
	}
	s := feed(-1)
	s.EmitAgg(0, uint64(len(ref.wins))+5, 1, 1)
	if _, f := s.check(ref); f == 0 {
		t.Fatal("row for an unknown window did not fail")
	}
}
