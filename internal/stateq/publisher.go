package stateq

import (
	"fmt"
	"math/bits"
	"sync"

	"github.com/slash-stream/slash/internal/rdma"
	"github.com/slash-stream/slash/internal/ssb"
)

// Options shapes one node's snapshot publication.
type Options struct {
	// Slots is the directory capacity: the current window(s) plus this many
	// minus the live count of recently-sealed snapshots stay addressable;
	// older sealed snapshots are evicted. Defaults to 16.
	Slots int
	// PublishBytes throttles live republication: a live window is
	// republished once at least this many delta bytes merged since its last
	// publication. Sealed snapshots always publish. Defaults to 256 KiB.
	PublishBytes int
}

// Fill applies defaults in place.
func (o *Options) Fill() {
	if o.Slots <= 0 {
		o.Slots = 16
	}
	if o.PublishBytes <= 0 {
		o.PublishBytes = 256 << 10
	}
}

// minPayloadBuf floors payload buffer allocations so tiny windows do not
// churn through many registrations as they grow.
const minPayloadBuf = 4096

// Publisher owns one node's snapshot regions: a directory region (header +
// per-window slots) and, per slot, two payload regions used as a double
// buffer. All regions register with AccessRemoteRead only — readers cannot
// mutate them, and the merge thread's writes go through the DMA-coherent
// MemoryRegion.Store so they are safe against in-flight one-sided READs.
//
// Publication is a seqlock: the slot's version word goes odd (AtomicStore),
// the payload lands in the inactive buffer and the slot metadata is
// rewritten, then the version word goes even again. A reader that raced a
// republication observes a version mismatch and retries; the publisher
// never blocks on readers. See docs/STATE_PROTOCOL.md.
type Publisher struct {
	nic   *rdma.NIC
	node  int
	inc   int
	slots int
	dir   *rdma.MemoryRegion

	mu     sync.Mutex
	byWin  map[uint64]int
	state  []pubSlot
	seq    uint64
	fenced bool

	published uint64
	evicted   uint64
}

// pubSlot is the publisher-side shadow of one directory slot.
type pubSlot struct {
	version uint64
	window  uint64
	sealed  bool
	used    bool
	seq     uint64 // last publication ordinal, for eviction
	bufs    [2]*rdma.MemoryRegion
	active  int
}

// NewPublisher registers node id's snapshot directory on its NIC under the
// given incarnation and returns the publisher. It implements
// ssb.StatePublisher; attach it with Backend.SetStatePublisher.
func NewPublisher(nic *rdma.NIC, node, inc int, opts Options) (*Publisher, error) {
	opts.Fill()
	buf := make([]byte, HeaderSize+opts.Slots*SlotSize)
	copy(buf[hdrMagic:], Magic[:])
	putLEU64(buf[hdrLayout:], LayoutVersion)
	putLEU64(buf[hdrSlots:], uint64(opts.Slots))
	putLEU64(buf[hdrNode:], uint64(node))
	putLEU64(buf[hdrInc:], uint64(inc))
	dir, err := nic.RegisterBufferAccess(buf, rdma.AccessRemoteRead)
	if err != nil {
		return nil, fmt.Errorf("stateq: registering directory for node %d: %w", node, err)
	}
	return &Publisher{
		nic:   nic,
		node:  node,
		inc:   inc,
		slots: opts.Slots,
		dir:   dir,
		byWin: make(map[uint64]int, opts.Slots),
		state: make([]pubSlot, opts.Slots),
	}, nil
}

// Node returns the publishing node id.
func (p *Publisher) Node() int { return p.node }

// Incarnation returns the node incarnation the directory is stamped with.
func (p *Publisher) Incarnation() int { return p.inc }

// NIC returns the NIC the regions are registered on.
func (p *Publisher) NIC() *rdma.NIC { return p.nic }

// DirRKey returns the directory region's remote key — the one piece of
// out-of-band bootstrap a reader needs (served by the Registry).
func (p *Publisher) DirRKey() uint32 { return p.dir.RKey() }

// Slots returns the directory capacity.
func (p *Publisher) Slots() int { return p.slots }

// Published returns how many snapshot publications completed.
func (p *Publisher) Published() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.published
}

// PublishState implements ssb.StatePublisher: it copies the snapshot into a
// slot's inactive payload buffer and flips the slot to it under the seqlock.
// Called from the merge thread (with the backend lock held); it must not
// block on readers — and cannot: readers only ever issue one-sided READs.
func (p *Publisher) PublishState(s *ssb.StateSnapshot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fenced {
		return
	}
	idx := p.slotFor(s.Window)
	if idx < 0 {
		return // every slot holds a live window; drop this publication
	}
	sl := &p.state[idx]
	off := slotOffset(idx)

	// Seqlock enter: readers that fetched the directory after this point
	// observe an odd version and retry.
	v := sl.version + 1
	_ = p.dir.AtomicStore(off+slotVersion, v)

	// Payload into the inactive buffer. A laggard reader may still be
	// READing it from a publication two cycles ago; Store copies under the
	// region's DMA lock, so that read returns torn-but-race-free bytes the
	// version check rejects.
	var rkey uint32
	logLen := s.LogBytes()
	if logLen > 0 {
		buf := sl.bufs[1-sl.active]
		if buf == nil || buf.Len() < logLen {
			if buf != nil {
				buf.Deregister()
			}
			size := minPayloadBuf
			if logLen > size {
				size = 1 << bits.Len(uint(logLen-1))
			}
			nb, err := p.nic.RegisterBufferAccess(make([]byte, size), rdma.AccessRemoteRead)
			if err != nil {
				// Registration failure (fabric teardown): leave the slot odd;
				// readers treat the permanently-torn slot as unavailable.
				sl.version = v
				return
			}
			sl.bufs[1-sl.active] = nb
			buf = nb
		}
		// The payload is the verbatim log, stored region by region.
		off := 0
		for _, r := range s.Log {
			_ = buf.Store(off, r)
			off += len(r)
		}
		sl.active = 1 - sl.active
		rkey = buf.RKey()
	}

	// Slot metadata, then seqlock exit.
	var f [SlotSize - 8]byte
	putLEU64(f[slotWindow-8:], s.Window)
	putLEU64(f[slotEpoch-8:], s.Epoch)
	putLEU64(f[slotGen-8:], s.Gen)
	putLEU64(f[slotPayload-8:], uint64(rkey)|uint64(logLen)<<32)
	flags := uint64(s.AggKind) << aggKindShift
	if s.Sealed {
		flags |= FlagSealed
	}
	if s.Holistic {
		flags |= FlagHolistic
	}
	putLEU64(f[slotFlags-8:], flags)
	putLEU64(f[slotStride-8:], uint64(s.Stride))
	putLEU64(f[slotKeys-8:], uint64(s.Keys))
	_ = p.dir.Store(off+8, f[:])

	sl.version = v + 1
	_ = p.dir.AtomicStore(off+slotVersion, sl.version)

	p.seq++
	sl.window, sl.sealed, sl.used, sl.seq = s.Window, s.Sealed, true, p.seq
	p.byWin[s.Window] = idx
	p.published++
}

// slotFor returns the slot index for win, reusing its existing slot, then a
// free slot, then evicting the oldest sealed snapshot. Returns -1 if every
// slot holds a live (unsealed) window. Callers hold p.mu.
func (p *Publisher) slotFor(win uint64) int {
	if idx, ok := p.byWin[win]; ok {
		return idx
	}
	victim := -1
	var victimSeq uint64
	for i := range p.state {
		sl := &p.state[i]
		if !sl.used {
			return i
		}
		if sl.sealed && (victim < 0 || sl.seq < victimSeq) {
			victim, victimSeq = i, sl.seq
		}
	}
	if victim >= 0 {
		delete(p.byWin, p.state[victim].window)
		p.evicted++
	}
	return victim
}

// Fence permanently retires the publisher: the directory's fence word is
// set, every slot's version word goes odd (so no optimistic read can ever
// validate again), and all regions deregister — in-flight READs complete
// with StatusRemoteAccessErr. Called by the controller before a node
// restart tears the NIC down and when a node retires from the membership;
// idempotent.
func (p *Publisher) Fence() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fenced {
		return
	}
	p.fenced = true
	_ = p.dir.AtomicStore(hdrFence, 1)
	for i := range p.state {
		sl := &p.state[i]
		if sl.used {
			sl.version++
			_ = p.dir.AtomicStore(slotOffset(i)+slotVersion, sl.version)
		}
		for _, b := range sl.bufs {
			if b != nil {
				b.Deregister()
			}
		}
		sl.bufs = [2]*rdma.MemoryRegion{}
	}
	p.dir.Deregister()
}
