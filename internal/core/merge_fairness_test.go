package core

import (
	"fmt"
	"testing"

	"github.com/slash-stream/slash/internal/channel"
	"github.com/slash-stream/slash/internal/rdma"
	"github.com/slash-stream/slash/internal/sched"
	"github.com/slash-stream/slash/internal/ssb"
	"github.com/slash-stream/slash/internal/stream"
)

// TestMergePollingRoundRobin asserts the merge loop's fairness fix: with
// every inbound channel backlogged past one step's chunk budget, the budget
// must rotate across peers instead of being spent on the lowest-numbered
// ones step after step.
func TestMergePollingRoundRobin(t *testing.T) {
	const (
		peers = 3
		// Backlog each channel deeper than one step's budget so the budget,
		// not the backlog, is the binding constraint.
		credits = 2 * chunksPerMergeStep
	)
	f := rdma.NewFabric(rdma.Config{})
	mergeNIC := f.MustNIC("merge")
	prods := make([]*channel.Producer, peers)
	cons := make([]inbound, peers)
	for i := range prods {
		p, c, err := channel.New(f.MustNIC(fmt.Sprintf("peer%d", i)), mergeNIC,
			channel.Config{Credits: credits, SlotSize: ssb.ChunkHeaderSize + channel.FooterSize})
		if err != nil {
			t.Fatal(err)
		}
		prods[i], cons[i] = p, inbound{src: i, cons: c}
		t.Cleanup(func() {
			p.Close()
			c.Close()
		})
	}
	be, err := ssb.New(ssb.Config{
		Nodes:          1,
		ThreadsPerNode: 1,
		WindowEnd:      func(uint64) stream.Watermark { return 0 },
	}, make([]ssb.Sender, 1))
	if err != nil {
		t.Fatal(err)
	}
	mt := &mergeTask{
		run:  newRunState(sched.NewPool(1), nil),
		be:   be,
		cons: cons,
	}

	// Heartbeats exercise only the progress-tracking side of HandleChunk, so
	// the same chunk can be sent over and over.
	hb := ssb.Chunk{Kind: ssb.ChunkHeartbeat}
	for _, p := range prods {
		for k := 0; k < credits; k++ {
			sb := p.Acquire()
			if sb == nil {
				t.Fatal(p.Err())
			}
			n := hb.Encode(sb.Data)
			if err := p.Post(sb, n); err != nil {
				t.Fatal(err)
			}
		}
	}

	for step := 0; step < peers; step++ {
		if st := mt.Step(); st != sched.Ready {
			t.Fatalf("step %d returned %v, want Ready", step, st)
		}
	}
	for i, in := range cons {
		if got := int(in.cons.(*channel.Consumer).Received()); got < chunksPerMergeStep {
			t.Errorf("peer %d received %d chunks after %d steps, want ≥ %d (budget rotation broken)",
				i, got, peers, chunksPerMergeStep)
		}
	}
}
