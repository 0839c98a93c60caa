package crdt

import (
	"encoding/binary"

	"github.com/slash-stream/slash/internal/stream"
)

// BagElem is one element of a grow-only bag: the holistic-window CRDT used
// by streaming joins (§5.2). Bags form a join-semilattice under multiset
// union; executors ship delta elements and the leader concatenates them, so
// merge order never changes the final multiset.
type BagElem struct {
	// Time is the contributing record's event-time timestamp.
	Time int64
	// Val is the record's payload attribute (e.g. the bid price).
	Val int64
	// Side distinguishes the input stream of a binary operator
	// (0 = left/build, 1 = right/probe).
	Side uint8
}

// BagElemSize is the encoded width of one bag element.
const BagElemSize = 24

// EncodeBagElem writes e into dst (at least BagElemSize bytes): three
// little-endian 64-bit words. It and DecodeBagElem go through encoding/binary
// because the compiler inlines those calls at low cost, which keeps both
// small enough to inline into the state backend's per-element loops.
func EncodeBagElem(dst []byte, e *BagElem) {
	_ = dst[BagElemSize-1]
	binary.LittleEndian.PutUint64(dst[0:], uint64(e.Time))
	binary.LittleEndian.PutUint64(dst[8:], uint64(e.Val))
	binary.LittleEndian.PutUint64(dst[16:], uint64(e.Side))
}

// DecodeBagElem reads an element from src.
func DecodeBagElem(src []byte, e *BagElem) {
	_ = src[BagElemSize-1]
	e.Time = int64(binary.LittleEndian.Uint64(src[0:]))
	e.Val = int64(binary.LittleEndian.Uint64(src[8:]))
	e.Side = uint8(binary.LittleEndian.Uint64(src[16:]))
}

// BagFromRecord builds a bag element from a record on the given side.
func BagFromRecord(rec *stream.Record, side uint8) BagElem {
	return BagElem{Time: rec.Time, Val: rec.V0, Side: side}
}
