package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/slash-stream/slash/internal/cluster"
	"github.com/slash-stream/slash/internal/core"
	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/ssb"
	"github.com/slash-stream/slash/internal/stream"
)

// winTotal condenses the result rows of one window at one leader: how many
// there are and an order-independent checksum over (key, value). A wrong,
// missing or extra row changes one of the two.
type winTotal struct {
	rows int64
	sum  uint64
}

// rowHash mixes one result row. Aggregate rows pass the value in a; join rows
// pass the two side cardinalities.
func rowHash(key uint64, a, b int64) uint64 {
	h := key*0x9E3779B97F4A7C15 ^ uint64(a)*0xC2B2AE3D27D4EB4F ^ uint64(b)*0x165667B19E3779F9
	return h ^ h>>29
}

// reference is what the sink must receive: totals per window and leader.
type reference struct {
	wins    [][]winTotal // [window][leader]
	rows    int64
	records int64 // input records folded
}

// foldReference computes the query's result with a straight-line sequential
// fold over the same inputs the engine reads: no batches, no fragments, no
// chunks, no merge. Records are taken in global event-time order, so a window
// is final as soon as a record past its end shows up, and only the windows
// still open are held in memory.
func foldReference(q *core.Query, flows []core.Flow, nodes int) (*reference, error) {
	type acc struct{ a, b int64 }
	var finish func(acc) (int64, int64)
	var update func(*acc, *stream.Record)
	switch q.Agg.(type) {
	case nil:
		if q.JoinSide == nil {
			return nil, fmt.Errorf("reference: query %q has neither aggregate nor join", q.Name)
		}
		update = func(s *acc, r *stream.Record) {
			if q.JoinSide(r) == 0 {
				s.a++
			} else {
				s.b++
			}
		}
		finish = func(s acc) (int64, int64) { return s.a, s.b }
	case crdt.Count:
		update = func(s *acc, _ *stream.Record) { s.a++ }
		finish = func(s acc) (int64, int64) { return s.a, 0 }
	case crdt.Avg:
		update = func(s *acc, r *stream.Record) { s.a += r.V0; s.b++ }
		finish = func(s acc) (int64, int64) { return s.a / s.b, 0 }
	default:
		return nil, fmt.Errorf("reference: no fold for aggregate %T", q.Agg)
	}

	ref := &reference{}
	pmap := ssb.StaticPartitionMap(nodes)
	open := map[uint64]map[uint64]acc{}
	var spare []map[uint64]acc
	closeWin := func(win uint64) {
		for uint64(len(ref.wins)) <= win {
			ref.wins = append(ref.wins, make([]winTotal, nodes))
		}
		keys := open[win]
		for key, s := range keys {
			leader, _ := pmap.Owner(win, key)
			a, b := finish(s)
			t := &ref.wins[win][leader]
			t.rows++
			t.sum += rowHash(key, a, b)
			ref.rows++
		}
		clear(keys)
		spare = append(spare, keys)
		delete(open, win)
	}

	heads := make([]stream.Record, len(flows))
	live := make([]bool, len(flows))
	for i, f := range flows {
		live[i] = f.Next(&heads[i])
	}
	var wins []uint64
	for {
		next := -1
		for i := range flows {
			if live[i] && (next < 0 || heads[i].Time < heads[next].Time) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		rec := heads[next]
		live[next] = flows[next].Next(&heads[next])
		ref.records++
		if q.Filter != nil && !q.Filter(&rec) {
			continue
		}
		if q.Map != nil {
			q.Map(&rec)
		}
		wins = q.Window.Assign(rec.Time, wins[:0])
		for _, win := range wins {
			keys := open[win]
			if keys == nil {
				// A new window opens rarely: take the chance to close every
				// window this record's time has passed.
				for w := range open {
					if int64(q.Window.End(w)) <= rec.Time {
						closeWin(w)
					}
				}
				if n := len(spare); n > 0 {
					keys, spare = spare[n-1], spare[:n-1]
				} else {
					keys = map[uint64]acc{}
				}
				open[win] = keys
			}
			s := keys[rec.Key]
			update(&s, &rec)
			keys[rec.Key] = s
		}
	}
	for w := range open {
		closeWin(w)
	}
	return ref, nil
}

// winGot is what one leader's sink received for one window.
type winGot struct {
	winTotal
	want   int64 // rows the reference expects
	doneAt int64 // unix ns of the row that completed the window; 0 until then
}

// checkSink is the engine's sink on every measured and traced pass. Each
// leader's merge task is the only writer of its own row of nodes, so the hot
// path takes no lock. It keeps totals, not rows: a paced run emits millions.
// The wall time of a window's last row is taken when the row count reaches
// the reference's, which costs one clock read per window, not per row.
type checkSink struct {
	nodes [][]winGot // [leader][window]
	stray atomic.Int64
}

func newCheckSink(ref *reference, nodes int) *checkSink {
	s := &checkSink{nodes: make([][]winGot, nodes)}
	for n := range s.nodes {
		s.nodes[n] = make([]winGot, len(ref.wins))
		for w := range ref.wins {
			s.nodes[n][w].want = ref.wins[w][n].rows
		}
	}
	return s
}

func (s *checkSink) add(node int, win uint64, h uint64) {
	ws := s.nodes[node]
	if win >= uint64(len(ws)) {
		s.stray.Add(1)
		return
	}
	w := &ws[win]
	w.rows++
	w.sum += h
	if w.rows == w.want {
		w.doneAt = time.Now().UnixNano()
	}
}

// EmitAgg implements core.Sink.
func (s *checkSink) EmitAgg(node int, win, key uint64, value int64) {
	s.add(node, win, rowHash(key, value, 0))
}

// EmitJoin implements core.Sink.
func (s *checkSink) EmitJoin(node int, win, key uint64, left, right int) {
	s.add(node, win, rowHash(key, int64(left), int64(right)))
}

// check counts the sink's rows against the reference: every row of a window
// whose totals differ at some leader is a failed row.
func (s *checkSink) check(ref *reference) (attempted, failed int64) {
	failed = s.stray.Load()
	attempted = failed
	for n := range s.nodes {
		for w, got := range s.nodes[n] {
			a, f := compareTotals(got.winTotal, ref.wins[w][n])
			attempted += a
			failed += f
		}
	}
	return attempted, failed
}

func compareTotals(got, want winTotal) (attempted, failed int64) {
	attempted = max(got.rows, want.rows)
	if got != want {
		failed = attempted
	}
	return attempted, failed
}

// timedWindows is how many windows have an emit latency: the final two are
// closed by FinishStream, not by a watermark, and are left out.
func (s *checkSink) timedWindows() int { return len(s.nodes[0]) - 2 }

// latencyMs is the emit latency of one window at one leader: the wall time of
// the window's last sink row minus the time its last contributing record
// became available on the slowest flow. A leader the reference gives no rows
// for that window has none.
func (s *checkSink) latencyMs(node, win int, clocks []releaseClock) (float64, bool) {
	done := s.nodes[node][win].doneAt
	if done == 0 {
		return 0, false
	}
	var released int64
	for _, c := range clocks {
		released = max(released, c.releasedAt(win))
	}
	return float64(done-released) / 1e6, true
}

// emitLatenciesMs returns every emit latency of the run.
func (s *checkSink) emitLatenciesMs(clocks []releaseClock) []float64 {
	var out []float64
	for n := range s.nodes {
		for w := 0; w < s.timedWindows(); w++ {
			if l, ok := s.latencyMs(n, w, clocks); ok {
				out = append(out, l)
			}
		}
	}
	return out
}

// checkClusterRows does the same for the merged rows of a cluster run, which
// carry no leader: totals are compared per window.
func checkClusterRows(rows []cluster.Row, ref *reference) (attempted, failed int64) {
	got := make([]winTotal, len(ref.wins))
	for _, r := range rows {
		h := rowHash(r.Key, r.Value, 0)
		if r.Join {
			h = rowHash(r.Key, int64(r.Left), int64(r.Right))
		}
		if r.Win >= uint64(len(got)) {
			attempted++
			failed++
			continue
		}
		got[r.Win].rows++
		got[r.Win].sum += h
	}
	for w := range got {
		var want winTotal
		for _, t := range ref.wins[w] {
			want.rows += t.rows
			want.sum += t.sum
		}
		a, f := compareTotals(got[w], want)
		attempted += a
		failed += f
	}
	return attempted, failed
}
