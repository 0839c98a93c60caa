package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// TestCollectorOrder: Aggs and Joins return rows sorted by (win, key), ties
// in arrival order, whatever order the windows arrive in — window by window
// from several leaders at once, or out of order as on replay — with key 0
// and MaxUint64 among the keys.
func TestCollectorOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := []uint64{0, math.MaxUint64, 1, 1 << 32, math.MaxUint64 - 1, 255, 256}
	key := func() uint64 {
		if rng.Intn(3) == 0 {
			return keys[rng.Intn(len(keys))]
		}
		return rng.Uint64() >> uint(rng.Intn(64))
	}
	for _, tc := range []struct {
		name string
		wins func(leader, step int) uint64
	}{
		{"one leader in window order", func(_, step int) uint64 { return uint64(step) }},
		{"interleaved leaders", func(leader, step int) uint64 { return uint64(step + leader%2) }},
		{"replayed windows", func(_, _ int) uint64 { return uint64(rng.Intn(6)) }},
		{"window MaxUint64", func(_, step int) uint64 { return math.MaxUint64 - uint64(step%2) }},
	} {
		var c Collector
		var wantAggs []AggResult
		var wantJoins []JoinResult
		for step := 0; step < 6; step++ {
			for leader := 0; leader < 3; leader++ {
				win := tc.wins(leader, step)
				for i := rng.Intn(40); i > 0; i-- {
					k := key()
					if rng.Intn(2) == 0 {
						v := rng.Int63()
						c.EmitAgg(leader, win, k, v)
						wantAggs = append(wantAggs, AggResult{Win: win, Key: k, Value: v})
					} else {
						l, r := rng.Intn(5), rng.Intn(5)
						c.EmitJoin(leader, win, k, l, r)
						wantJoins = append(wantJoins, JoinResult{Win: win, Key: k, Left: l, Right: r, Pairs: l * r})
					}
				}
			}
		}
		sort.SliceStable(wantAggs, func(i, j int) bool {
			a, b := wantAggs[i], wantAggs[j]
			return a.Win < b.Win || a.Win == b.Win && a.Key < b.Key
		})
		sort.SliceStable(wantJoins, func(i, j int) bool {
			a, b := wantJoins[i], wantJoins[j]
			return a.Win < b.Win || a.Win == b.Win && a.Key < b.Key
		})
		if got := c.Aggs(); len(got)+len(wantAggs) > 0 && !reflect.DeepEqual(got, wantAggs) {
			t.Errorf("%s: aggregates\n%v\nwant\n%v", tc.name, got, wantAggs)
		}
		if got := c.Joins(); len(got)+len(wantJoins) > 0 && !reflect.DeepEqual(got, wantJoins) {
			t.Errorf("%s: joins\n%v\nwant\n%v", tc.name, got, wantJoins)
		}
	}
}

// TestCollectorConcurrentEmit: rows emitted from several goroutines at once
// all come back, in order.
func TestCollectorConcurrentEmit(t *testing.T) {
	var c Collector
	var wg sync.WaitGroup
	for leader := 0; leader < 4; leader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for win := uint64(0); win < 20; win++ {
				for k := uint64(0); k < 50; k++ {
					c.EmitJoin(leader, win, k*4+uint64(leader), 1, 2)
				}
			}
		}()
	}
	wg.Wait()
	got := c.Joins()
	if len(got) != 4*20*50 {
		t.Fatalf("%d rows, want %d", len(got), 4*20*50)
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.Win > b.Win || a.Win == b.Win && a.Key >= b.Key {
			t.Fatalf("row %d (%d, %d) after (%d, %d)", i, b.Win, b.Key, a.Win, a.Key)
		}
	}
}

// TestSortRowKeysSkipsEqualBytes: a byte on which every key agrees costs no
// pass, so keys differing only in their top byte still sort.
func TestSortRowKeysSkipsEqualBytes(t *testing.T) {
	keys := []rowKey{
		{k: [2]uint64{0xff << 56, 7}, i: 0},
		{k: [2]uint64{0, 7}, i: 1},
		{k: [2]uint64{0x01 << 56, 7}, i: 2},
		{k: [2]uint64{0, 7}, i: 3},
	}
	var order []int
	for _, k := range sortRowKeys(keys) {
		order = append(order, k.i)
	}
	if want := []int{1, 3, 2, 0}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}
