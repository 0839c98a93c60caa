package ssb

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// partitionHashMultiplier is the odd multiply-shift constant (2^64/φ, the
// golden ratio, i.e. Fibonacci hashing): multiplying a 64-bit key by it
// spreads consecutive and strided key populations evenly across the high
// output bits — the key-distribution assumption behind the paper's YSB
// workload (§8.2.1), where keys are dense small integers. A plain modulo
// (and even a modulo of a mixed key) concentrates strided key sets onto a
// few partitions; multiply-shift provably 2-universal up to the shift.
const partitionHashMultiplier = 0x9E3779B97F4A7C15

// PartitionHash is the multiply-shift hash the partition map routes keys
// with (§7.1.2: the SSB partitions its key space across leader executors).
// Only the high bits carry the mixing quality, so consumers must reduce the
// hash with a shift or high-bits range reduction, never with a modulo.
func PartitionHash(key uint64) uint64 {
	return key * partitionHashMultiplier
}

// partitionIndex reduces a partition hash onto [0, n) using the high 64 bits
// of the 128-bit product (Lemire's multiply-shift range reduction). Unlike
// `hash % n` it uses the well-mixed high bits and costs one multiply.
func partitionIndex(hash uint64, n int) int {
	hi, _ := bits.Mul64(hash, uint64(n))
	return int(hi)
}

// Generation is one membership epoch of the partition map: the set of active
// leader executors, effective for every window bucket at or above
// FromWindow. Reconfigurations never remap windows below FromWindow, so a
// (window, key) pair has exactly one leader for the lifetime of the run —
// this is what lets workers join and leave with zero state migration
// (§7.2, §8): pre-cutover windows drain at their old leaders through the
// ordinary late-merge path while new windows route to the new membership.
type Generation struct {
	// Gen is the generation number; installs increment it by one.
	Gen uint64
	// FromWindow is the cutover: windows >= FromWindow route with this
	// generation's Active set.
	FromWindow uint64
	// Active lists the active leader node ids, sorted ascending.
	Active []int
}

// Contains reports whether node is active in this generation.
func (g *Generation) Contains(node int) bool {
	i := sort.SearchInts(g.Active, node)
	return i < len(g.Active) && g.Active[i] == node
}

// PartitionMap is the generation-stamped key-routing table of the SSB: an
// append-only sequence of Generations ordered by cutover window. It is the
// control-plane state the paper's elasticity argument rests on (§7.2, §8 —
// "state lives in the shared backend, so reconfiguration does not move
// it"): the in-process reproduction shares one map object per deployment;
// an RDMA deployment would replicate it with one WRITE per node and the
// same epoch-aligned activation rule.
//
// All methods are safe for concurrent use. The per-record read path
// (Owner) takes a read lock; the current generation number is additionally
// maintained in an atomic so hot paths can detect reconfigurations with a
// single load.
type PartitionMap struct {
	mu   sync.RWMutex
	gens []Generation
	cur  atomic.Uint64
}

// NewPartitionMap builds a map with a single generation 0 over the given
// active node set, effective from window 0.
func NewPartitionMap(active []int) *PartitionMap {
	m := &PartitionMap{}
	a := append([]int(nil), active...)
	sort.Ints(a)
	m.gens = []Generation{{Gen: 0, FromWindow: 0, Active: a}}
	return m
}

// StaticPartitionMap builds the map of a fixed deployment: nodes 0..n-1,
// one generation, never reconfigured.
func StaticPartitionMap(n int) *PartitionMap {
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	return NewPartitionMap(active)
}

// Errors surfaced by partition-map installation.
var (
	// ErrGenOrder rejects an install whose generation number or cutover
	// window regresses — generations are strictly ordered so every node
	// agrees on the routing history.
	ErrGenOrder = fmt.Errorf("ssb: partition map generations must advance")
	// ErrEmptyGeneration rejects an install with no active nodes.
	ErrEmptyGeneration = fmt.Errorf("ssb: partition map generation has no active nodes")
)

// Install appends a new generation. The generation number must be exactly
// one above the current one and the cutover window must be at or above the
// previous cutover (several membership changes may share one cutover). The
// caller is responsible for the epoch-aligned activation barrier: no sender
// may still hold unflushed fragments for windows >= g.FromWindow routed
// under the previous generation (see the flush barrier in core's
// Controller.AddNodes and RemoveNodes).
func (m *PartitionMap) Install(g Generation) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	last := &m.gens[len(m.gens)-1]
	if g.Gen != last.Gen+1 || g.FromWindow < last.FromWindow {
		return fmt.Errorf("%w: install gen %d from window %d after gen %d from window %d",
			ErrGenOrder, g.Gen, g.FromWindow, last.Gen, last.FromWindow)
	}
	if len(g.Active) == 0 {
		return ErrEmptyGeneration
	}
	a := append([]int(nil), g.Active...)
	sort.Ints(a)
	m.gens = append(m.gens, Generation{Gen: g.Gen, FromWindow: g.FromWindow, Active: a})
	m.cur.Store(g.Gen)
	return nil
}

// CurrentGen returns the latest installed generation number with a single
// atomic load — the hot-path check source threads use to notice a
// reconfiguration.
func (m *PartitionMap) CurrentGen() uint64 { return m.cur.Load() }

// Current returns a copy of the latest generation.
func (m *PartitionMap) Current() Generation {
	m.mu.RLock()
	defer m.mu.RUnlock()
	g := m.gens[len(m.gens)-1]
	return Generation{Gen: g.Gen, FromWindow: g.FromWindow, Active: append([]int(nil), g.Active...)}
}

// genFor returns the generation governing window win: the last generation
// whose cutover is at or below win. Callers must hold m.mu.
func (m *PartitionMap) genFor(win uint64) *Generation {
	// Linear scan from the tail: maps hold a handful of generations and the
	// common case is the latest one.
	for i := len(m.gens) - 1; i > 0; i-- {
		if m.gens[i].FromWindow <= win {
			return &m.gens[i]
		}
	}
	return &m.gens[0]
}

// GenFor returns the generation number governing window win.
func (m *PartitionMap) GenFor(win uint64) uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.genFor(win).Gen
}

// Owner routes (win, key) to its leader node id under the generation
// governing win, and reports that generation. Because generations are
// immutable once installed and windows below a cutover never remap, the
// answer for a given (win, key) is stable for the whole run — the property
// that makes merge placement, and therefore window results, independent of
// when nodes joined or left.
func (m *PartitionMap) Owner(win, key uint64) (node int, gen uint64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	g := m.genFor(win)
	return g.Active[partitionIndex(PartitionHash(key), len(g.Active))], g.Gen
}

// RouteFor returns the active leader set and generation number governing
// window win — the batch form of Owner. Where Owner pays a read lock per
// record, RouteFor pays one per (batch, window) run: the caller routes each
// key itself with Active[partitionIndex(PartitionHash(key), len(Active))].
// The returned slice aliases the generation's storage; generations are
// immutable once installed, so it is safe to read but must never be
// modified.
func (m *PartitionMap) RouteFor(win uint64) (active []int, gen uint64) {
	m.mu.RLock()
	g := m.genFor(win)
	active, gen = g.Active, g.Gen
	m.mu.RUnlock()
	return active, gen
}

// ActiveIn reports whether node is active in the generation governing win.
func (m *PartitionMap) ActiveIn(win uint64, node int) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.genFor(win).Contains(node)
}

// Snapshot returns a copy of every installed generation, oldest first.
func (m *PartitionMap) Snapshot() []Generation {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]Generation, len(m.gens))
	for i, g := range m.gens {
		out[i] = Generation{Gen: g.Gen, FromWindow: g.FromWindow, Active: append([]int(nil), g.Active...)}
	}
	return out
}
