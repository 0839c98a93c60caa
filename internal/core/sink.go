package core

import (
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
	keys := make([]rowKey, len(c.aggs))
	for i := range c.aggs {
		keys[i] = rowKey{k: [2]uint64{c.aggs[i].Key, c.aggs[i].Win}, i: i}
	}
	out := make([]AggResult, len(keys))
	for j, k := range sortRowKeys(keys) {
		out[j] = c.aggs[k.i]
	}
	return out
}

// Joins returns the collected join rows sorted by (win, key).
func (c *Collector) Joins() []JoinResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]rowKey, len(c.joins))
	for i := range c.joins {
		keys[i] = rowKey{k: [2]uint64{c.joins[i].Key, c.joins[i].Win}, i: i}
	}
	out := make([]JoinResult, len(keys))
	for j, k := range sortRowKeys(keys) {
		out[j] = c.joins[k.i]
	}
	return out
}

// rowKey is one collected row's sort key, least significant word first
// ({key, win}), and the row's index in arrival order.
type rowKey struct {
	k [2]uint64
	i int
}

// sortRowKeys sorts keys by (win, key), stable on ties, and returns the
// sorted slice (keys itself or a scratch of the same length). It is an LSD
// radix over only the bytes in which the keys differ: rows arrive window by
// window, so the window word usually costs one or two passes and the key
// word as many as the key range spans, with no comparison at all. Windows
// that arrive out of order, as on replay, only add passes. Input already in
// order is returned after one scan.
func sortRowKeys(keys []rowKey) []rowKey {
	if len(keys) < 2 {
		return keys
	}
	var diff [2]uint64
	sorted := true
	first := keys[0].k
	for j := 1; j < len(keys); j++ {
		k, prev := keys[j].k, keys[j-1].k
		diff[0] |= k[0] ^ first[0]
		diff[1] |= k[1] ^ first[1]
		if k[1] < prev[1] || k[1] == prev[1] && k[0] < prev[0] {
			sorted = false
		}
	}
	if sorted {
		return keys
	}
	src, dst := keys, make([]rowKey, len(keys))
	for w := range diff {
		for shift := uint(0); shift < 64; shift += 8 {
			if diff[w]>>shift&0xff == 0 {
				continue
			}
			var at [256]int
			for j := range src {
				at[byte(src[j].k[w]>>shift)]++
			}
			sum := 0
			for d, n := range at {
				at[d] = sum
				sum += n
			}
			for j := range src {
				d := byte(src[j].k[w] >> shift)
				dst[at[d]] = src[j]
				at[d]++
			}
			src, dst = dst, src
		}
	}
	return src
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
