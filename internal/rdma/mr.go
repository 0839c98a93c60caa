package rdma

import (
	"sync"
	"sync/atomic"
)

// MemoryRegion is a slab of RDMA-capable memory registered with a NIC.
// Remote peers address it through its RKey; the owner accesses the backing
// bytes directly through Bytes.
//
// Concurrency contract: as on real hardware, the fabric does not make local
// CPU accesses and remote DMA accesses coherent by itself. Protocols built on
// top must partition access (the RDMA channel gives each slot a single writer
// at a time) and use WriteVersion as the publication point: a reader that
// observes a new write version through WriteVersion is guaranteed to observe
// the bytes of every remote write published before that version.
// Access is the remote-permission bitmask of a memory region, mirroring the
// ibv_access_flags a region is registered with. Verbs arriving for a region
// without the matching flag complete with StatusRemoteAccessErr, exactly as a
// protection-domain violation does on hardware.
type Access uint8

// Remote access permissions.
const (
	// AccessRemoteRead permits one-sided READ verbs.
	AccessRemoteRead Access = 1 << iota
	// AccessRemoteWrite permits one-sided WRITE verbs.
	AccessRemoteWrite
	// AccessRemoteAtomic permits CAS and FETCH_ADD verbs.
	AccessRemoteAtomic

	// AccessFull grants every remote permission (the RegisterBuffer default).
	AccessFull = AccessRemoteRead | AccessRemoteWrite | AccessRemoteAtomic
)

type MemoryRegion struct {
	nic    *NIC
	buf    []byte
	lkey   uint32
	rkey   uint32
	access Access

	// version counts completed remote writes into this region. It is
	// advanced with release semantics after the payload bytes are in place.
	version atomic.Uint64
	// notify wakes a waiter armed on the region at the next publish.
	notify Notifier

	// atomicMu serializes remote atomic verbs (CAS, FETCH_ADD) against each
	// other. Local code that races with remote atomics must go through
	// AtomicLoad/AtomicStore on the same region.
	atomicMu sync.Mutex

	dead atomic.Bool
}

// RegisterMemory allocates size bytes of RDMA-capable memory on the NIC and
// registers it, returning the region.
func (n *NIC) RegisterMemory(size int) (*MemoryRegion, error) {
	if size <= 0 {
		return nil, ErrZeroLength
	}
	return n.RegisterBuffer(make([]byte, size))
}

// RegisterBuffer registers caller-provided memory with the NIC under full
// remote access. The caller must not resize buf afterwards.
func (n *NIC) RegisterBuffer(buf []byte) (*MemoryRegion, error) {
	return n.RegisterBufferAccess(buf, AccessFull)
}

// RegisterBufferAccess registers caller-provided memory with an explicit
// remote-permission mask. Regions exported to untrusted readers (the
// queryable-state plane) register with AccessRemoteRead only, so a buggy or
// malicious peer cannot mutate them: WRITE and atomic verbs complete with
// StatusRemoteAccessErr.
func (n *NIC) RegisterBufferAccess(buf []byte, access Access) (*MemoryRegion, error) {
	if len(buf) == 0 {
		return nil, ErrZeroLength
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nextKey++
	mr := &MemoryRegion{nic: n, buf: buf, lkey: n.nextKey, rkey: n.nextKey, access: access}
	n.regions[mr.rkey] = mr
	n.fabric.regBytes.Add(int64(len(buf)))
	return mr, nil
}

// MustRegister is RegisterMemory for static setups; it panics on error.
func (n *NIC) MustRegister(size int) *MemoryRegion {
	mr, err := n.RegisterMemory(size)
	if err != nil {
		panic(err)
	}
	return mr
}

// Deregister removes the region from the NIC. Subsequent remote accesses
// fail with ErrInvalidRKey. Idempotent: only the first call releases the
// registration accounting.
func (mr *MemoryRegion) Deregister() {
	if mr.dead.CompareAndSwap(false, true) {
		mr.nic.fabric.regBytes.Add(-int64(len(mr.buf)))
	}
	mr.nic.mu.Lock()
	delete(mr.nic.regions, mr.rkey)
	mr.nic.mu.Unlock()
}

// RegisteredRegions returns how many memory regions are currently registered
// with the NIC. Leak checks use it to assert that failed setup paths (e.g. a
// half-constructed channel) deregister everything they registered.
func (n *NIC) RegisteredRegions() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.regions)
}

// lookupRegion resolves an rkey on this NIC.
func (n *NIC) lookupRegion(rkey uint32) (*MemoryRegion, error) {
	n.mu.RLock()
	mr, ok := n.regions[rkey]
	n.mu.RUnlock()
	if !ok {
		return nil, ErrInvalidRKey
	}
	return mr, nil
}

// RKey returns the remote key peers use to address this region.
func (mr *MemoryRegion) RKey() uint32 { return mr.rkey }

// Access returns the remote-permission mask the region was registered with.
func (mr *MemoryRegion) Access() Access { return mr.access }

// allows reports whether every permission in a was granted at registration.
func (mr *MemoryRegion) allows(a Access) bool { return mr.access&a == a }

// Len returns the region size in bytes.
func (mr *MemoryRegion) Len() int { return len(mr.buf) }

// Bytes exposes the backing memory for local access. See the type comment
// for the coherence contract.
func (mr *MemoryRegion) Bytes() []byte { return mr.buf }

// NIC returns the owning NIC.
func (mr *MemoryRegion) NIC() *NIC { return mr.nic }

// WriteVersion returns the count of remote writes published to this region.
// It is an acquire load: observing version v makes the payload of all writes
// published at or before v visible to the caller.
func (mr *MemoryRegion) WriteVersion() uint64 { return mr.version.Load() }

// publish advances the write version with release semantics, then wakes an
// armed waiter. Called by the QP engine after payload bytes are copied in.
func (mr *MemoryRegion) publish() {
	mr.version.Add(1)
	mr.notify.Notify()
}

// Arm requests one token on wake at the region's next published write —
// remote WRITE, atomic, AtomicStore or Store. The token says only that new
// bytes are visible; the waiter re-reads the region (see Notifier).
func (mr *MemoryRegion) Arm(wake chan<- struct{}) { mr.notify.Arm(wake) }

// checkRange validates [off, off+n) against the region bounds. The bound is
// written as off > len-n rather than off+n > len: with both operands known
// non-negative the subtraction cannot overflow, whereas off+n wraps negative
// for adversarially large offsets and would let the check pass.
func (mr *MemoryRegion) checkRange(off, n int) error {
	if mr.dead.Load() {
		return ErrDeregistered
	}
	if off < 0 || n < 0 || off > len(mr.buf)-n {
		return ErrOutOfBounds
	}
	return nil
}

// AtomicLoad reads an 8-byte value at off with the region's atomic lock
// held, so it is coherent with remote atomic verbs.
func (mr *MemoryRegion) AtomicLoad(off int) (uint64, error) {
	if err := mr.checkRange(off, 8); err != nil {
		return 0, err
	}
	if off%8 != 0 {
		return 0, ErrMisaligned
	}
	mr.atomicMu.Lock()
	defer mr.atomicMu.Unlock()
	return leU64(mr.buf[off:]), nil
}

// AtomicStore writes an 8-byte value at off coherently with remote atomics.
func (mr *MemoryRegion) AtomicStore(off int, v uint64) error {
	if err := mr.checkRange(off, 8); err != nil {
		return err
	}
	if off%8 != 0 {
		return ErrMisaligned
	}
	mr.atomicMu.Lock()
	putLEU64(mr.buf[off:], v)
	mr.atomicMu.Unlock()
	mr.publish()
	return nil
}

// Store copies p into the region at off coherently with in-flight one-sided
// READs: the copy runs under the region's atomic lock, the same lock the DMA
// engine holds while servicing a READ, so a concurrent reader observes either
// the old bytes or the new bytes of each locked copy, never a Go-level race.
// This models a DMA-coherent store (clflush + fence on real hardware) and is
// the publication primitive of the snapshot-region protocol: publishers write
// payload bytes with Store between two AtomicStore version-word updates, and
// remote readers validate the version word around their READ.
func (mr *MemoryRegion) Store(off int, p []byte) error {
	if err := mr.checkRange(off, len(p)); err != nil {
		return err
	}
	mr.atomicMu.Lock()
	copy(mr.buf[off:], p)
	mr.atomicMu.Unlock()
	mr.publish()
	return nil
}

// leU64 and putLEU64 are local little-endian helpers; the wire format of the
// whole repository is little-endian to match x86 memory dumps.
func leU64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLEU64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
