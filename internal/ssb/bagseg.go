package ssb

import (
	"fmt"
	"sync"

	"github.com/slash-stream/slash/internal/crdt"
)

// Bag log storage. A bag table's log is a list of fixed-size segments rather
// than one growing array: the log "adaptively resizes" (§7.2.1) by taking a
// segment when its tail segment is full, so a merge copies each incoming
// byte exactly once and never regrows, zeroes or recopies what it already
// holds. Segments come from one process-wide free list, so a cold table — a
// fresh backend after a restart or an elastic join, a fresh run — fills from
// memory an earlier window released instead of from the allocator.
//
// A table owns exactly the segments its entries occupy: entry i sits in
// segment i/bagSegEntries, and every segment but the tail is full. Reset
// returns all of them to the free list, and so does every place that drops a
// bag table (a trigger, a full table pool, a restore, a thread's flush).

const (
	// bagSegEntries is the number of entries per segment: four payloads of
	// a default 16 KiB chunk (409 entries each), so a default-size chunk is
	// always a slice of one segment.
	bagSegEntries = 4 * (DefaultChunkSize / bagEntrySize)
	// bagSegBytes is the segment size, 65,440 B.
	bagSegBytes = bagSegEntries * bagEntrySize
	// maxFreeSegs bounds the free list (64 MiB of segments); segments
	// released beyond it are left to the garbage collector.
	maxFreeSegs = 1024
	// maxBagEntries keeps a bag log within maxLogSize.
	maxBagEntries = maxLogSize / bagEntrySize
)

// bagSeg is one segment of a bag log.
type bagSeg [bagSegBytes]byte

// freeSegs is the process-wide segment free list, shared by every backend,
// thread and baseline in the process. Unlike a sync.Pool it survives garbage
// collections, which is what keeps a fresh deployment's tables warm.
var freeSegs = struct {
	mu   sync.Mutex
	segs []*bagSeg
}{segs: make([]*bagSeg, 0, maxFreeSegs)}

// takeSeg returns a free segment, or a new one when the list is empty. Its
// bytes are whatever its last owner left: readers stop at the log's length.
func takeSeg() *bagSeg {
	freeSegs.mu.Lock()
	if n := len(freeSegs.segs); n > 0 {
		s := freeSegs.segs[n-1]
		freeSegs.segs[n-1] = nil
		freeSegs.segs = freeSegs.segs[:n-1]
		freeSegs.mu.Unlock()
		return s
	}
	freeSegs.mu.Unlock()
	return new(bagSeg)
}

// putSegs returns segments to the free list, as many as its bound admits.
func putSegs(segs []*bagSeg) {
	if len(segs) == 0 {
		return
	}
	freeSegs.mu.Lock()
	room := maxFreeSegs - len(freeSegs.segs)
	freeSegs.segs = append(freeSegs.segs, segs[:min(room, len(segs))]...)
	freeSegs.mu.Unlock()
}

// bagLog is a bag table's state: the segmented log of fixed-stride entries
// (see putBagEntry) and the by-key view the readers build over it.
type bagLog struct {
	segs []*bagSeg
	n    int // entries
	g    bagGroups
	// wire makes a chunk contiguous when it straddles a segment end.
	wire []byte
}

// entry returns the bytes of entry i.
func (l *bagLog) entry(i int) []byte {
	off := i % bagSegEntries * bagEntrySize
	return l.segs[i/bagSegEntries][off : off+bagEntrySize]
}

// span returns the entries segment s holds.
func (l *bagLog) span(s int) []byte {
	return l.segs[s][:min(l.n-s*bagSegEntries, bagSegEntries)*bagEntrySize]
}

// reserve extends the log by k entries, taking segments as the tail fills,
// and returns the index of the first; the caller fills every one of them
// with putBagEntry.
func (l *bagLog) reserve(k int) (int, error) {
	if k > maxBagEntries-l.n {
		return 0, ErrLogOverflow
	}
	at := l.n
	l.n += k
	for len(l.segs)*bagSegEntries < l.n {
		l.segs = append(l.segs, takeSeg())
	}
	return at, nil
}

// append appends one element to key's bag.
func (l *bagLog) append(key uint64, e *crdt.BagElem) error {
	at, err := l.reserve(1)
	if err != nil {
		return err
	}
	putBagEntry(l.entry(at), key, e)
	return nil
}

// checkBagFraming checks that region holds whole bag entries of
// element-sized values.
func checkBagFraming(region []byte) error {
	off := 0
	for ; off+bagEntrySize <= len(region); off += bagEntrySize {
		if vlen := getU32(region[off+12:]); vlen != crdt.BagElemSize {
			return fmt.Errorf("%w: bag element of %d bytes at offset %d", ErrChunkFormat, vlen, off)
		}
	}
	if off != len(region) {
		return fmt.Errorf("%w: bag region ends %d bytes into an entry", ErrChunkFormat, len(region)-off)
	}
	return nil
}

// merge is the bag merge: check the entry framing of the whole region, then
// append it, filling the tail segment before taking the next. The check
// comes first so a malformed chunk leaves the log exactly as it was.
// Incoming prev words are carried along unread.
func (l *bagLog) merge(region []byte) error {
	if err := checkBagFraming(region); err != nil {
		return err
	}
	if len(region)/bagEntrySize > maxBagEntries-l.n {
		return ErrLogOverflow
	}
	for len(region) > 0 {
		s := l.n / bagSegEntries
		if s == len(l.segs) {
			l.segs = append(l.segs, takeSeg())
		}
		c := copy(l.segs[s][l.n%bagSegEntries*bagEntrySize:], region)
		region = region[c:]
		l.n += c / bagEntrySize
	}
	return nil
}

// serialize emits the log as chunk payloads of at most maxChunk bytes, each
// a whole number of entries — the same boundaries and bytes as one flat log
// would give.
func (l *bagLog) serialize(maxChunk int, emit func(region []byte) error) error {
	if maxChunk < bagEntrySize {
		return fmt.Errorf("ssb: bag entry of %d bytes exceeds chunk size %d", bagEntrySize, maxChunk)
	}
	per := maxChunk / bagEntrySize
	for start := 0; start < l.n; start += per {
		if err := emit(l.region(start, min(start+per, l.n))); err != nil {
			return err
		}
	}
	return nil
}

// region returns entries [start, end) as one contiguous slice: a slice of
// their segment when they share one, else a copy in the wire scratch, valid
// until the next call.
func (l *bagLog) region(start, end int) []byte {
	s := start / bagSegEntries
	base := s * bagSegEntries
	if end-base <= bagSegEntries {
		return l.segs[s][(start-base)*bagEntrySize : (end-base)*bagEntrySize]
	}
	buf := l.wire[:0]
	for i := start; i < end; {
		s, base := i/bagSegEntries, i/bagSegEntries*bagSegEntries
		stop := min(base+bagSegEntries, end)
		buf = append(buf, l.segs[s][(i-base)*bagEntrySize:(stop-base)*bagEntrySize]...)
		i = stop
	}
	l.wire = buf
	return buf
}

// appendSpans appends the log to dst as one region per segment.
func (l *bagLog) appendSpans(dst [][]byte) [][]byte {
	for s := range l.segs {
		dst = append(dst, l.span(s))
	}
	return dst
}

// reset returns every segment to the free list and empties the by-key view.
func (l *bagLog) reset() {
	putSegs(l.segs)
	clear(l.segs)
	l.segs = l.segs[:0]
	l.n = 0
	l.g.reset()
}
