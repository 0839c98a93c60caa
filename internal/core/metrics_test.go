package core

import (
	"math/rand"
	"testing"
	"time"

	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/metrics"
	"github.com/slash-stream/slash/internal/stream"
	"github.com/slash-stream/slash/internal/window"
)

// sourceStepCount returns the observation count of the source step-latency
// histogram.
func sourceStepCount(t *testing.T, reg *metrics.Registry) uint64 {
	t.Helper()
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == `core_step_ns{task="source"}` {
			return h.Count
		}
	}
	t.Fatal(`core_step_ns{task="source"} not registered`)
	return 0
}

// TestSourceStepMetricSkipsIdleSteps pins the observe-only-on-work contract:
// a source parked on a gated flow spins through scheduler Idle steps without
// touching the step-latency histogram, so the recorded distribution reflects
// only steps that consumed records or ran a flush. The "batch" case name is
// kept from when a per-record loop was a second case.
func TestSourceStepMetricSkipsIdleSteps(t *testing.T) {
	t.Run("batch", testSourceStepMetricSkipsIdleSteps)
}

func testSourceStepMetricSkipsIdleSteps(t *testing.T) {
	win, _ := window.NewTumbling(100)
	rng := rand.New(rand.NewSource(17))
	recs := make([]stream.Record, 200)
	ts := int64(1)
	for i := range recs {
		ts += rng.Int63n(5)
		recs[i] = stream.Record{Key: uint64(rng.Intn(16)), Time: ts, V0: rng.Int63n(50)}
	}
	// Fence at the first timestamp: every record is withheld until Open, so
	// the source can only take no-op Idle steps.
	gate := NewGatedFlow(recs, 1)

	reg := metrics.NewRegistry()
	cfg := smallConfig(1, 1)
	cfg.Metrics = reg
	q := &Query{Name: "mstep", Codec: testCodec, Window: win, Agg: crdt.Sum{}}
	c, err := NewController(cfg, q, [][]Flow{{gate}}, &Collector{})
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	c.Start()
	// Give the scheduler ample time to spin idle steps against the fence
	// before checking that none of them were observed.
	time.Sleep(20 * time.Millisecond)
	if n := sourceStepCount(t, reg); n != 0 {
		t.Fatalf("gated source observed %d steps, want 0 (Idle steps must not be recorded)", n)
	}

	gate.Open()
	rep, err := c.Wait()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Records != int64(len(recs)) {
		t.Fatalf("records = %d, want %d", rep.Records, len(recs))
	}
	if n := sourceStepCount(t, reg); n == 0 {
		t.Fatal("source consumed the stream but observed 0 steps")
	}
}
