package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/slash-stream/slash/internal/stream"
)

// TestColumnarFlowProperty checks the replay flow against an in-test model
// over random datasets: non-decreasing times with duplicates (also at fence
// values), 0–3 fences, fills of 1–300 records and one rewind. Every record
// is delivered once and in order, a fill stops at the first record with
// Time >= the current fence, Ready is false exactly while the flow is
// fenced, AtFence holds exactly once the flow drained up to that fence, and
// Rewind keeps the stage. A concurrent poller calls AtFence throughout, as
// the harnesses do, and must see each fence before it opens.
func TestColumnarFlowProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rb := stream.NewRecordBatch(300)
	for trial := 0; trial < 300; trial++ {
		columnarFlowTrial(t, rng, rb, trial)
	}
}

// columnarFlowTrial runs one random dataset of TestColumnarFlowProperty.
func columnarFlowTrial(t *testing.T, rng *rand.Rand, rb *stream.RecordBatch, trial int) {
	n := rng.Intn(1500)
	recs := make([]stream.Record, n)
	var ts int64
	for i := range recs {
		ts += int64(rng.Intn(3))
		recs[i] = stream.Record{Key: rng.Uint64(), Time: ts, V0: rng.Int63(), V1: rng.Int63()}
	}
	var fences []int64
	for k := rng.Intn(4); k > 0; k-- {
		fence := ts + 1 + int64(rng.Intn(3)) // past the end: never parks
		if n > 0 && rng.Intn(4) > 0 {
			fence = recs[rng.Intn(n)].Time
		}
		fences = append(fences, fence)
	}
	slices.Sort(fences)
	fences = slices.Compact(fences)
	f := NewColumnarFlow(recs, fences...)

	// The poller checks that AtFence(k) holds only while stage k is open:
	// Opens begun (announced) bound the stage from above, Opens finished
	// (opened) from below.
	var announced, opened atomic.Int32
	seen := make([]atomic.Bool, len(fences))
	stop, done := make(chan struct{}), make(chan struct{})
	pollErr := make(chan string, 1)
	stopPoller := sync.OnceFunc(func() { close(stop); <-done })
	defer stopPoller()
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			lo := opened.Load()
			for k := range seen {
				if f.AtFence(k) {
					if hi := announced.Load(); int32(k) < lo || int32(k) > hi {
						pollErr <- fmt.Sprintf("AtFence(%d) with stage in [%d, %d]", k, lo, hi)
						return
					}
					seen[k].Store(true)
				}
			}
			runtime.Gosched()
		}
	}()

	mp, stage := 0, 0 // the model's position and stage
	var got []stream.Record
	check := func(when string) {
		t.Helper()
		fenced := stage < len(fences) && mp < n && recs[mp].Time >= fences[stage]
		if f.Ready() == fenced {
			t.Fatalf("trial %d %s: Ready = %v at %d/%d, stage %d of %v", trial, when, !fenced, mp, n, stage, fences)
		}
		for k := range fences {
			want := k == stage && (mp >= n || recs[mp].Time >= fences[k])
			if f.AtFence(k) != want {
				t.Fatalf("trial %d %s: AtFence(%d) = %v at %d/%d, stage %d of %v", trial, when, k, !want, mp, n, stage, fences)
			}
		}
		if int(f.stage.Load()) != stage {
			t.Fatalf("trial %d %s: stage %d, want %d", trial, when, f.stage.Load(), stage)
		}
	}
	fill := func() bool {
		t.Helper()
		size := 1 + rng.Intn(300)
		end := min(n, mp+size)
		for cut := mp; stage < len(fences) && cut < end; cut++ {
			if recs[cut].Time >= fences[stage] {
				end = cut
			}
		}
		rb.Reset(size)
		more := f.Batch(rb)
		if rb.Len() != end-mp || more != (end < n) {
			t.Fatalf("trial %d: fill of %d at %d/%d gave %d records, more %v; want %d, %v (stage %d of %v)",
				trial, size, mp, n, rb.Len(), more, end-mp, end < n, stage, fences)
		}
		var rec stream.Record
		for i := 0; i < rb.Len(); i++ {
			rb.Get(i, &rec)
			got = append(got, rec)
		}
		mp = end
		return more
	}

	rewound := false
	for check("running"); ; check("running") {
		if fenced := stage < len(fences) && mp < n && recs[mp].Time >= fences[stage]; fenced {
			deadline := time.Now().Add(10 * time.Second)
			for !seen[stage].Load() {
				if time.Now().After(deadline) {
					t.Fatalf("trial %d: poller never saw fence %d", trial, stage)
				}
				runtime.Gosched()
			}
			announced.Add(1)
			f.Open()
			opened.Add(1)
			stage++
			continue
		}
		if !fill() {
			break
		}
		if !rewound && rng.Intn(8) == 0 {
			rewound = true
			mp = rng.Intn(mp + 1)
			f.Rewind(int64(mp))
			got = got[:mp]
			check("rewound")
		}
	}
	stopPoller()
	select {
	case msg := <-pollErr:
		t.Fatalf("trial %d: poller saw %s", trial, msg)
	default:
	}
	if !slices.Equal(got, recs) {
		t.Fatalf("trial %d: delivered %d records, want each of %d once and in order", trial, len(got), n)
	}

	// A rewind past either end clamps and keeps the stage.
	r := int64(rng.Intn(n+5)) - 2
	f.Rewind(r)
	mp = int(min(max(r, 0), int64(n)))
	check("rewound after the end")
	fill()
	check("refilled")

	// A clone starts over with every fence closed; Next ignores fences.
	c := f.Clone()
	if c.stage.Load() != 0 {
		t.Fatalf("trial %d: clone at stage %d", trial, c.stage.Load())
	}
	var next []stream.Record
	for rec := (stream.Record{}); c.Next(&rec); {
		next = append(next, rec)
	}
	if !slices.Equal(next, recs) {
		t.Fatalf("trial %d: Next delivered %d records, want the %d in order", trial, len(next), n)
	}
}
