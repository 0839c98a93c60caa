package cluster

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// unpackRows decodes packed rows in the order given.
func unpackRows(p []byte) ([]Row, error) {
	if err := checkPacked(p); err != nil {
		return nil, err
	}
	rows := make([]Row, 0, len(p)/packedRowSize)
	for ; len(p) > 0; p = p[packedRowSize:] {
		r, err := decodeRow(p)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// edgeRows covers the extremes of every packed field.
func edgeRows() []Row {
	return []Row{
		{Win: 0, Key: 0, Value: 0},
		{Win: 0, Key: math.MaxUint64, Value: math.MinInt64},
		{Win: 3, Key: 7, Value: -1},
		{Win: math.MaxUint64, Key: 1, Value: math.MaxInt64},
		{Join: true, Win: 0, Key: 0, Left: 0, Right: 0},
		{Join: true, Win: 2, Key: 9, Left: 3, Right: 4},
		{Join: true, Win: math.MaxUint64, Key: math.MaxUint64, Left: math.MaxInt32, Right: 1 << 40},
	}
}

// TestPackedRowsRenderRoundTrip: packing rows and decoding them back renders
// byte for byte the same dump, and the packing is fixed-width.
func TestPackedRowsRenderRoundTrip(t *testing.T) {
	rows := edgeRows()
	p := packRows(rows)
	if len(p) != len(rows)*packedRowSize {
		t.Fatalf("%d rows packed into %d bytes, want %d", len(rows), len(p), len(rows)*packedRowSize)
	}
	got, err := unpackRows(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := RenderRows(rows); RenderRows(got) != want {
		t.Fatalf("round trip rendered\n%s\nwant\n%s", RenderRows(got), want)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("round trip = %+v, want %+v", got, rows)
	}
	if got, err := unpackRows(nil); err != nil || len(got) != 0 {
		t.Fatalf("no rows: %v, %v", got, err)
	}
}

// FuzzUnpackRows: the packed-row decoder reads bytes off a control
// connection, so any input either decodes or fails with ErrRowFormat, never
// panics; whatever decodes re-packs to exactly the input; and a single run
// merges to itself when it is in order and fails with ErrRowOrder when not.
func FuzzUnpackRows(f *testing.F) {
	good := packRows(edgeRows())
	f.Add(good)
	f.Add(good[:len(good)-1])              // truncated inside the last row
	f.Add(append(good[:0:0], good[1:]...)) // misaligned: the first kind byte is gone
	unknown := append([]byte(nil), good...)
	unknown[packedRowSize] = 2 // unknown kind byte
	f.Add(unknown)
	aggRight := append([]byte(nil), good[:packedRowSize]...)
	aggRight[packedRowSize-1] = 1 // aggregate with a right field
	f.Add(aggRight)
	f.Add([]byte{})
	f.Add(packRows([]Row{{Join: true, Win: 1}, {Win: 2}})) // join before aggregate
	f.Fuzz(func(t *testing.T, p []byte) {
		rows, err := unpackRows(p)
		if err != nil {
			if !errors.Is(err, ErrRowFormat) {
				t.Fatalf("unexpected error %v", err)
			}
			// The merge may meet a misordered row before the bad one.
			if _, merr := mergeRuns([][]byte{p}); !errors.Is(merr, ErrRowFormat) && !errors.Is(merr, ErrRowOrder) {
				t.Fatalf("merge of undecodable rows: %v", merr)
			}
			return
		}
		if !bytes.Equal(packRows(rows), p) {
			t.Fatal("decoded rows do not re-pack to the input")
		}
		inOrder := sort.SliceIsSorted(rows, func(i, j int) bool { return rowLess(&rows[i], &rows[j]) })
		merged, err := mergeRuns([][]byte{nil, p})
		switch {
		case inOrder && err != nil:
			t.Fatalf("merge of ordered rows: %v", err)
		case inOrder && len(rows) > 0 && !reflect.DeepEqual(merged, rows):
			t.Fatal("merge of one run changed it")
		case !inOrder && !errors.Is(err, ErrRowOrder):
			t.Fatalf("merge of unordered rows: %v", err)
		}
	})
}

// randomRun returns n rows in the canonical order: aggregates, then joins,
// over a few windows, with keys drawn from a range small enough that members
// repeat each other's (win, key) pairs.
func randomRun(rng *rand.Rand, n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		r := Row{Join: rng.Intn(2) == 0, Win: uint64(rng.Intn(5)), Key: uint64(rng.Intn(40))}
		switch rng.Intn(10) {
		case 0:
			r.Key = 0
		case 1:
			r.Key = math.MaxUint64
		}
		if r.Join {
			r.Left, r.Right = rng.Intn(9), rng.Intn(9)
		} else {
			r.Value = rng.Int63n(1000) - 500
		}
		rows[i] = r
	}
	sort.SliceStable(rows, func(i, j int) bool { return rowLess(&rows[i], &rows[j]) })
	return rows
}

// TestMergeRunsProperty: merging random sorted runs from one to four
// members, some of them empty, equals a stable sort of their union taken in
// rank order — the order the coordinator used to produce by sorting.
func TestMergeRunsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		members := 1 + rng.Intn(4)
		runs := make([][]byte, members)
		var union []Row
		for r := range runs {
			n := 0
			if rng.Intn(4) != 0 {
				n = rng.Intn(60)
			}
			rows := randomRun(rng, n)
			runs[r] = packRows(rows)
			union = append(union, rows...)
		}
		sort.SliceStable(union, func(i, j int) bool { return rowLess(&union[i], &union[j]) })
		got, err := mergeRuns(runs)
		if err != nil {
			t.Fatalf("iteration %d: %v", iter, err)
		}
		if len(got) != len(union) || len(got) > 0 && !reflect.DeepEqual(got, union) {
			t.Fatalf("iteration %d: merge of %d members differs from the sorted union:\n%s\nwant\n%s",
				iter, members, RenderRows(got), RenderRows(union))
		}
	}
}

// TestMergeRunsRejects: a member whose rows are out of order, or whose bytes
// do not decode, fails the merge with the named error and its rank.
func TestMergeRunsRejects(t *testing.T) {
	ordered := packRows([]Row{{Win: 1, Key: 1}, {Win: 1, Key: 2}, {Join: true, Win: 0, Key: 5}})
	cases := []struct {
		name string
		run  []Row
		want error
	}{
		{"key regresses", []Row{{Win: 1, Key: 2}, {Win: 1, Key: 1}}, ErrRowOrder},
		{"window regresses", []Row{{Win: 2, Key: 0}, {Win: 1, Key: 9}}, ErrRowOrder},
		{"join before aggregate", []Row{{Join: true, Win: 0, Key: 0}, {Win: 0, Key: 1}}, ErrRowOrder},
	}
	for _, tc := range cases {
		_, err := mergeRuns([][]byte{ordered, packRows(tc.run)})
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: merge error %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, err := mergeRuns([][]byte{ordered, ordered[:packedRowSize+3]}); !errors.Is(err, ErrRowFormat) {
		t.Errorf("truncated run: merge error %v, want %v", err, ErrRowFormat)
	}
}
