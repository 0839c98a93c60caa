package stateq

import (
	"fmt"
	"testing"

	"github.com/slash-stream/slash/internal/ssb"
)

// BenchmarkStateRead measures the client-observed latency of one optimistic
// point lookup — directory READ, payload READ, version re-READ — against a
// published snapshot, the read path an external dashboard rides.
func BenchmarkStateRead(b *testing.B) {
	for _, keys := range []int{16, 1024} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			reg, pubs := testPlane(b, 1, Options{})
			entries := map[uint64]uint64{}
			for k := 0; k < keys; k++ {
				entries[uint64(k)] = uint64(k)
			}
			pubs[0].PublishState(&ssb.StateSnapshot{
				Window: 1, AggKind: ssb.StateAggCount, Sealed: true, Log: [][]byte{mkLog(entries)},
			})
			cl, err := NewClient(reg, "bench")
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cl.Lookup(1, uint64(i%keys)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStatePublish measures the merge-thread cost of one snapshot
// publication (the <2% throughput tax budget of the plane).
func BenchmarkStatePublish(b *testing.B) {
	_, pubs := testPlane(b, 1, Options{})
	entries := map[uint64]uint64{}
	for k := 0; k < 1024; k++ {
		entries[uint64(k)] = uint64(k)
	}
	log := mkLog(entries)
	s := &ssb.StateSnapshot{Window: 1, AggKind: ssb.StateAggCount, Log: [][]byte{log}}
	b.SetBytes(int64(len(log)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pubs[0].PublishState(s)
	}
}
