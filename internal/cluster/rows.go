package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"github.com/slash-stream/slash/internal/core"
)

// Row is one sink row, normalized for cross-process transport and sorting.
type Row struct {
	// Join selects the row shape: false = aggregate, true = join.
	Join     bool
	Win, Key uint64
	// Value is the aggregate value (aggregate rows).
	Value int64
	// Left/Right are the per-side cardinalities (join rows).
	Left, Right int
}

// String renders the row in the canonical dump format the differential
// harness compares byte-for-byte.
func (r Row) String() string {
	if r.Join {
		return fmt.Sprintf("J %d %d %d %d %d", r.Win, r.Key, r.Left, r.Right, r.Left*r.Right)
	}
	return fmt.Sprintf("A %d %d %d", r.Win, r.Key, r.Value)
}

// RenderRows renders rows in the canonical dump format, one per line — what
// `slashd -dump` writes and the differential smoke diffs.
func RenderRows(rows []Row) string {
	var b strings.Builder
	for _, r := range rows {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// rowLess is the canonical row order: aggregates before joins, each by
// (win, key).
func rowLess(a, b *Row) bool {
	if a.Join != b.Join {
		return !a.Join
	}
	if a.Win != b.Win {
		return a.Win < b.Win
	}
	return a.Key < b.Key
}

// CollectRows normalizes a sink into transportable rows in the canonical
// order (aggregates before joins, each sorted by (win, key)) — the same order
// Coordinator.Run merges member rows into, so an in-process oracle's rows
// compare byte-for-byte against a cluster Result's.
func CollectRows(sink *core.Collector) []Row {
	aggs, joins := sink.Aggs(), sink.Joins()
	rows := make([]Row, 0, len(aggs)+len(joins))
	for _, a := range aggs {
		rows = append(rows, Row{Win: a.Win, Key: a.Key, Value: a.Value})
	}
	for _, j := range joins {
		rows = append(rows, Row{Join: true, Win: j.Win, Key: j.Key, Left: j.Left, Right: j.Right})
	}
	return rows
}

// Packed rows are how a member's result crosses the control connection: one
// byte string of fixed-width rows, in the canonical order, instead of a gob
// slice of structs. Each row is
//
//	kind u8 (0 aggregate, 1 join) | win u64 | key u64 | a i64 | b i64
//
// little-endian, where an aggregate carries its value in a and zero in b, and
// a join its left and right cardinalities. A zero b on aggregates keeps the
// encoding canonical: every accepted byte string re-encodes to itself.
const packedRowSize = 1 + 4*8

const (
	rowKindAgg  = 0
	rowKindJoin = 1
)

var (
	// ErrRowFormat reports packed rows that do not decode: a length that is
	// not a whole number of rows, an unknown kind byte, or an aggregate row
	// with a nonzero right field.
	ErrRowFormat = errors.New("cluster: malformed packed rows")
	// ErrRowOrder reports a member whose packed rows are not in the
	// canonical order. The coordinator's merge relies on that order, so the
	// run fails rather than return a misordered result.
	ErrRowOrder = errors.New("cluster: member rows out of order")
)

// appendRow appends r's packed encoding to dst.
func appendRow(dst []byte, r Row) []byte {
	kind, a, b := byte(rowKindAgg), r.Value, int64(0)
	if r.Join {
		kind, a, b = rowKindJoin, int64(r.Left), int64(r.Right)
	}
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint64(dst, r.Win)
	dst = binary.LittleEndian.AppendUint64(dst, r.Key)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(a))
	return binary.LittleEndian.AppendUint64(dst, uint64(b))
}

// packRows packs rows in the order given; a member packs CollectRows.
func packRows(rows []Row) []byte {
	out := make([]byte, 0, len(rows)*packedRowSize)
	for _, r := range rows {
		out = appendRow(out, r)
	}
	return out
}

// decodeRow decodes the packed row at the head of p, which holds at least
// packedRowSize bytes.
func decodeRow(p []byte) (Row, error) {
	a := int64(binary.LittleEndian.Uint64(p[17:]))
	b := int64(binary.LittleEndian.Uint64(p[25:]))
	r := Row{Win: binary.LittleEndian.Uint64(p[1:]), Key: binary.LittleEndian.Uint64(p[9:])}
	switch p[0] {
	case rowKindAgg:
		if b != 0 {
			return Row{}, fmt.Errorf("%w: aggregate row with right field %d", ErrRowFormat, b)
		}
		r.Value = a
	case rowKindJoin:
		r.Join, r.Left, r.Right = true, int(a), int(b)
	default:
		return Row{}, fmt.Errorf("%w: row kind %d", ErrRowFormat, p[0])
	}
	return r, nil
}

// checkPacked checks that p is a whole number of packed rows.
func checkPacked(p []byte) error {
	if len(p)%packedRowSize != 0 {
		return fmt.Errorf("%w: %d bytes is not a whole number of %d-byte rows", ErrRowFormat, len(p), packedRowSize)
	}
	return nil
}

// mergeRuns merges the members' packed rows, runs[rank] from member rank, into
// one slice in the canonical order, in a single pass: each step decodes the
// next row of the run it took from and emits the least head. Window ownership
// is disjoint across members, so equal rows do not arise in a healthy run;
// if they do, the lower rank goes first. A run that is not in the canonical
// order itself fails the merge with ErrRowOrder, and one that does not decode
// with ErrRowFormat.
func mergeRuns(runs [][]byte) ([]Row, error) {
	type cursor struct {
		rank int
		row  Row
		rest []byte
		at   int // index of row in its run
	}
	heads := make([]cursor, 0, len(runs))
	total := 0
	for rank, p := range runs {
		if err := checkPacked(p); err != nil {
			return nil, fmt.Errorf("rank %d: %w", rank, err)
		}
		if len(p) == 0 {
			continue
		}
		r, err := decodeRow(p)
		if err != nil {
			return nil, fmt.Errorf("rank %d row 0: %w", rank, err)
		}
		heads = append(heads, cursor{rank: rank, row: r, rest: p[packedRowSize:]})
		total += len(p) / packedRowSize
	}
	out := make([]Row, 0, total)
	for len(heads) > 0 {
		best := 0
		for i := 1; i < len(heads); i++ {
			if rowLess(&heads[i].row, &heads[best].row) {
				best = i
			}
		}
		c := &heads[best]
		out = append(out, c.row)
		if len(c.rest) == 0 {
			heads = append(heads[:best], heads[best+1:]...)
			continue
		}
		next, err := decodeRow(c.rest)
		if err != nil {
			return nil, fmt.Errorf("rank %d row %d: %w", c.rank, c.at+1, err)
		}
		if rowLess(&next, &c.row) {
			return nil, fmt.Errorf("%w: rank %d row %d (%v) sorts before row %d (%v)", ErrRowOrder, c.rank, c.at+1, next, c.at, c.row)
		}
		c.row, c.rest, c.at = next, c.rest[packedRowSize:], c.at+1
	}
	return out, nil
}
