package ssb

// Queryable-state publication: the merge path's half of the stateq plane.
// Leaders expose their primary partitions to external readers by publishing
// snapshots — a window's raw table log plus routing metadata — through a
// StatePublisher. Publication rides the merge thread (HandleChunk marks
// windows dirty, the merge task calls PublishDirty between steps, and
// the trigger publishes the final sealed image before recycling the table),
// so it needs no reader-visible locking: the publisher's seqlock protocol
// (internal/stateq, docs/STATE_PROTOCOL.md) makes concurrent one-sided
// readers safe.

// StateAgg* name the finalization rule of published aggregate state on the
// wire (stateq slot flags, bits 8-15). They mirror the internal aggKind
// dispatch: clients finalize Count/Sum/Min/Max as the little-endian u64
// state reinterpreted as int64, and Avg as sum/count integer division (0
// when count is 0) — exactly what the trigger emit path computes.
const (
	StateAggGeneric = uint8(aggGeneric)
	StateAggCount   = uint8(aggCount)
	StateAggSum     = uint8(aggSum)
	StateAggMin     = uint8(aggMin)
	StateAggMax     = uint8(aggMax)
	StateAggAvg     = uint8(aggAvg)
)

// StateSnapshot is one publication unit: the self-describing raw log of a
// window's primary partition with the metadata a remote reader needs to
// locate, validate, and finalize it.
type StateSnapshot struct {
	// Window is the window id.
	Window uint64
	// Epoch is the leader's merge progress at publication: the maximum
	// sender epoch merged so far. It only ever grows for live snapshots of
	// the same window, giving readers a freshness ordinal.
	Epoch uint64
	// Gen is the partition-map generation governing the window.
	Gen uint64
	// Sealed marks a final snapshot: the window triggered and these bytes
	// equal the emitted result. Live (unsealed) snapshots are a consistent
	// but possibly stale prefix of the merge.
	Sealed bool
	// Holistic marks bag state (no client-side finalization rule).
	Holistic bool
	// AggKind is the StateAgg* finalization rule for aggregate state.
	AggKind uint8
	// Stride is the fixed log entry size of aggregate tables
	// (16-byte header + aggregate state size); 0 for holistic tables.
	Stride int
	// Keys is the number of distinct keys (= entries for aggregate tables).
	Keys int
	// Log is the raw table log. It aliases merge-owned memory and is valid
	// only for the duration of the PublishState call — publishers must copy.
	Log []byte
}

// StatePublisher receives window snapshots from the merge path. PublishState
// is called with the backend's mutex held and must not call back into the
// backend; it must copy Log before returning.
type StatePublisher interface {
	PublishState(s *StateSnapshot)
}

// SetStatePublisher attaches a publisher to this leader. Live windows are
// republished once at least minDeltaBytes of new deltas merged since their
// last publication (0 republishes on every merge step); sealed windows are
// always published at trigger time. Must be called before the merge task
// starts stepping.
func (b *Backend) SetStatePublisher(p StatePublisher, minDeltaBytes int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.statePub = p
	b.stateMinDelta = minDeltaBytes
	b.stateDirty = make(map[uint64]int)
	b.statePublished = make(map[uint64]bool)
}

// markStateDirty accounts n freshly-merged delta bytes against win.
// Callers hold b.mu.
func (b *Backend) markStateDirty(win uint64, n int) {
	if b.statePub != nil {
		b.stateDirty[win] += n
	}
}

// PublishDirty publishes every live window whose unpublished delta volume
// crossed the republication threshold (and every window never published).
// The merge task calls it once per step, after TriggerSides; it is a no-op
// without a publisher.
func (b *Backend) PublishDirty() {
	if b.statePub == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for win, n := range b.stateDirty {
		tbl := b.primary[win]
		if tbl == nil {
			// Triggered (published sealed) or never materialized.
			delete(b.stateDirty, win)
			continue
		}
		if b.statePublished[win] && n < b.stateMinDelta {
			continue
		}
		b.publishStateLocked(win, tbl, false)
		b.statePublished[win] = true
		b.stateDirty[win] = 0
	}
}

// publishStateLocked hands one window's current table to the publisher.
// Callers hold b.mu.
func (b *Backend) publishStateLocked(win uint64, tbl *Table, sealed bool) {
	s := StateSnapshot{
		Window:   win,
		Epoch:    b.maxEpochLocked(),
		Gen:      b.pmap.GenFor(win),
		Sealed:   sealed,
		Holistic: tbl.agg == nil,
		AggKind:  uint8(tbl.kind),
		Keys:     tbl.Keys(),
		Log:      tbl.log,
	}
	if tbl.agg != nil {
		s.Stride = entryHeaderSize + tbl.agg.Size()
	}
	b.statePub.PublishState(&s)
}

// maxEpochLocked returns the highest sender epoch merged so far. Callers
// hold b.mu.
func (b *Backend) maxEpochLocked() uint64 {
	var m uint64
	for _, e := range b.lastEpoch {
		if e > m {
			m = e
		}
	}
	return m
}

// sealStateLocked publishes the final snapshot of a triggering window and
// retires its dirty tracking. Callers hold b.mu; must run before the table
// is recycled.
func (b *Backend) sealStateLocked(win uint64, tbl *Table) {
	if b.statePub == nil {
		return
	}
	b.publishStateLocked(win, tbl, true)
	delete(b.stateDirty, win)
	delete(b.statePublished, win)
}
