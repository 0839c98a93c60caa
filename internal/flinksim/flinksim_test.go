package flinksim

import (
	"math/rand"
	"testing"

	"github.com/slash-stream/slash/internal/core"
	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/ipoib"
	"github.com/slash-stream/slash/internal/repart"
	"github.com/slash-stream/slash/internal/stream"
	"github.com/slash-stream/slash/internal/window"
)

func TestRuntimeTaxDoesNotChangeResults(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	win, _ := window.NewTumbling(400)
	flows := make([][]core.Flow, 2)
	want := map[[2]uint64]bool{} // (window, key) rows the count must emit
	for n := range flows {
		recs := make([]stream.Record, 200)
		ts := int64(0)
		for i := range recs {
			ts += rng.Int63n(15)
			recs[i] = stream.Record{Key: uint64(rng.Intn(11)), Time: ts}
			for _, w := range win.Assign(ts, nil) {
				want[[2]uint64{w, recs[i].Key}] = true
			}
		}
		flows[n] = []core.Flow{core.NewSliceFlow(recs)}
	}
	q := &core.Query{Name: "tax", Codec: stream.MustCodec(32), Window: win, Agg: crdt.Count{}}
	cfg := Config{Nodes: 2, ProducersPerNode: 1, ConsumersPerNode: 1, BatchBytes: 1024, QueueDepth: 8, FlushRecords: 64, RuntimeTaxLoops: 64}
	sink := &core.CountingSink{}
	if _, err := Run(cfg, q, flows, sink); err != nil {
		t.Fatal(err)
	}
	if int(sink.AggRows.Load()) != len(want) {
		t.Fatalf("rows = %d, want %d", sink.AggRows.Load(), len(want))
	}
}

// TestFrameHeader pins the socket frame header: src, dest, an end byte that
// is 1 exactly for end tokens, three zero bytes and the payload length.
func TestFrameHeader(t *testing.T) {
	codec := stream.MustCodec(32)
	q := make(chan frame, 2)
	for _, end := range []bool{false, true} {
		buf := make([]byte, 256)
		w, err := stream.NewBatchWriter(buf, codec)
		if err != nil {
			t.Fatal(err)
		}
		var used int
		if end {
			used = w.FinishEnd(7)
		} else {
			if err := w.Append(&stream.Record{Key: 1, Time: 7}); err != nil {
				t.Fatal(err)
			}
			used = w.FinishData(7)
		}
		q <- frame{src: 3, dest: 5, data: buf[:used]}
	}
	close(q)
	s := ipoib.NewStream(ipoib.Config{})
	go (&transport{ctl: &repart.Ctl{}}).runNetSender(q, s)
	hdr := make([]byte, frameHeaderSize)
	for _, end := range []byte{0, 1} {
		if err := s.RecvFull(hdr); err != nil {
			t.Fatal(err)
		}
		if getU32(hdr[0:]) != 3 || getU32(hdr[4:]) != 5 || hdr[8] != end || hdr[9] != 0 || hdr[10] != 0 || hdr[11] != 0 {
			t.Fatalf("header %v, want src 3, dest 5, end %d", hdr, end)
		}
		data := make([]byte, getU32(hdr[12:]))
		if err := s.RecvFull(data); err != nil {
			t.Fatal(err)
		}
		r, err := stream.NewBatchReader(data, codec)
		if err != nil || (r.Kind() == stream.KindEnd) != (end == 1) {
			t.Fatalf("payload kind %v (%v), end byte %d", r.Kind(), err, end)
		}
	}
}
