package core

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Sink receives triggered window results — the output side of the P1
// trigger rule (§5.1): a window is emitted by its partition leader only
// once every thread's watermark has passed its end. Implementations must
// be safe for concurrent emission from every node's merge task.
type Sink interface {
	// EmitAgg delivers one aggregate group of a triggered window.
	EmitAgg(node int, win, key uint64, value int64)
	// EmitJoin delivers one key's join cardinalities for a triggered
	// window: the bag sizes per side and the number of output pairs.
	EmitJoin(node int, win, key uint64, left, right int)
}

// AggResult is one collected aggregation row.
type AggResult struct {
	Win   uint64
	Key   uint64
	Value int64
}

// JoinResult is one collected join row.
type JoinResult struct {
	Win   uint64
	Key   uint64
	Left  int
	Right int
	Pairs int
}

// Collector stores every emitted result, for correctness tests and small
// runs. Use CountingSink for throughput measurements.
type Collector struct {
	mu    sync.Mutex
	aggs  []AggResult
	joins []JoinResult
}

// EmitAgg implements Sink.
func (c *Collector) EmitAgg(_ int, win, key uint64, value int64) {
	c.mu.Lock()
	c.aggs = append(c.aggs, AggResult{Win: win, Key: key, Value: value})
	c.mu.Unlock()
}

// EmitJoin implements Sink.
func (c *Collector) EmitJoin(_ int, win, key uint64, left, right int) {
	c.mu.Lock()
	c.joins = append(c.joins, JoinResult{Win: win, Key: key, Left: left, Right: right, Pairs: left * right})
	c.mu.Unlock()
}

// Aggs returns the collected aggregation rows sorted by (win, key).
func (c *Collector) Aggs() []AggResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]AggResult(nil), c.aggs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Win != out[j].Win {
			return out[i].Win < out[j].Win
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Joins returns the collected join rows sorted by (win, key).
func (c *Collector) Joins() []JoinResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]JoinResult(nil), c.joins...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Win != out[j].Win {
			return out[i].Win < out[j].Win
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// CountingSink counts emissions without retaining them.
type CountingSink struct {
	AggRows  atomic.Int64
	JoinRows atomic.Int64
	Pairs    atomic.Int64
	Checksum atomic.Int64
}

// EmitAgg implements Sink.
func (s *CountingSink) EmitAgg(_ int, _, key uint64, value int64) {
	s.AggRows.Add(1)
	s.Checksum.Add(value + int64(key))
}

// EmitJoin implements Sink.
func (s *CountingSink) EmitJoin(_ int, _, key uint64, left, right int) {
	s.JoinRows.Add(1)
	s.Pairs.Add(int64(left) * int64(right))
	s.Checksum.Add(int64(key))
}
