package channel

import (
	"errors"
	"testing"

	"github.com/slash-stream/slash/internal/rdma"
)

// engineCases runs channel scenarios against both verbs execution paths:
// the zero-hop inline engine (unthrottled fabric) and the goroutine
// pipeline (throttled fabric with zero pacing, i.e. full speed).
var engineCases = []struct {
	name string
	cfg  rdma.Config
}{
	{"inline", rdma.Config{}},
	{"pipelined", rdma.Config{Throttle: true}},
}

// TestNewCleansUpOnError asserts the setup phase leaks no memory regions:
// when any step after the first registration fails, everything registered so
// far is deregistered again.
func TestNewCleansUpOnError(t *testing.T) {
	t.Run("same NIC", func(t *testing.T) {
		f := rdma.NewFabric(rdma.Config{})
		a := f.MustNIC("a")
		_, _, err := New(a, a, Config{})
		if !errors.Is(err, rdma.ErrSameNIC) {
			t.Fatalf("New(a, a) = %v, want ErrSameNIC", err)
		}
		if n := a.RegisteredRegions(); n != 0 {
			t.Fatalf("%d regions leaked after failed setup", n)
		}
	})
	t.Run("cross fabric", func(t *testing.T) {
		fa := rdma.NewFabric(rdma.Config{})
		fb := rdma.NewFabric(rdma.Config{})
		prod := fa.MustNIC("prod")
		cons := fb.MustNIC("cons")
		_, _, err := New(prod, cons, Config{})
		if !errors.Is(err, rdma.ErrOtherFabric) {
			t.Fatalf("New across fabrics = %v, want ErrOtherFabric", err)
		}
		if n := prod.RegisteredRegions(); n != 0 {
			t.Fatalf("%d producer regions leaked", n)
		}
		if n := cons.RegisteredRegions(); n != 0 {
			t.Fatalf("%d consumer regions leaked", n)
		}
	})
	t.Run("success registers both sides", func(t *testing.T) {
		f := rdma.NewFabric(rdma.Config{})
		prod := f.MustNIC("prod")
		cons := f.MustNIC("cons")
		p, c, err := New(prod, cons, Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		defer c.Close()
		// Producer holds staging + credit counter; consumer holds the ring.
		if n := prod.RegisteredRegions(); n != 2 {
			t.Fatalf("producer regions = %d, want 2", n)
		}
		if n := cons.RegisteredRegions(); n != 1 {
			t.Fatalf("consumer regions = %d, want 1", n)
		}
	})
}

// TestEnginesChannelProtocol pushes enough buffers through a small ring to
// wrap it many times on both engines, checking payload integrity, FIFO
// delivery, and full credit recovery.
func TestEnginesChannelProtocol(t *testing.T) {
	for _, ec := range engineCases {
		t.Run(ec.name, func(t *testing.T) {
			f := rdma.NewFabric(ec.cfg)
			p, c, err := New(f.MustNIC("prod"), f.MustNIC("cons"), Config{Credits: 4, SlotSize: 64 + FooterSize})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			defer c.Close()

			const total = 103
			done := make(chan error, 1)
			go func() {
				for i := 0; i < total; i++ {
					sb := p.Acquire()
					if sb == nil {
						done <- p.Err()
						return
					}
					for j := range sb.Data {
						sb.Data[j] = byte(i)
					}
					if err := p.Post(sb, len(sb.Data)); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()

			for i := 0; i < total; i++ {
				rb := mustRecv(t, c)
				if len(rb.Data) != 64 {
					t.Fatalf("buffer %d: %d bytes, want 64", i, len(rb.Data))
				}
				for j, v := range rb.Data {
					if v != byte(i) {
						t.Fatalf("buffer %d byte %d = %d, want %d (FIFO violated)", i, j, v, byte(i))
					}
				}
				if err := c.Release(rb); err != nil {
					t.Fatalf("Release %d: %v", i, err)
				}
			}
			if err := <-done; err != nil {
				t.Fatalf("producer: %v", err)
			}
			// Once the consumer idles (or hits the flush threshold) every
			// credit must make it back to the producer.
			for i := 0; p.Credits() != 4; i++ {
				if _, ok := c.TryPoll(); ok {
					t.Fatal("unexpected extra buffer")
				}
				if i > 1e7 {
					t.Fatalf("credits never fully returned: %d/4", p.Credits())
				}
			}
		})
	}
}

// TestCreditCoalescing checks the batched credit return: at c=8 the consumer
// flushes its cumulative counter every c/2 releases, so 8 releases cost 2
// reverse-path messages instead of 8.
func TestCreditCoalescing(t *testing.T) {
	p, c := newChannel(t, Config{Credits: 8, SlotSize: 128})

	for i := 0; i < 8; i++ {
		sb := p.Acquire()
		if sb == nil {
			t.Fatal(p.Err())
		}
		if err := p.Post(sb, 1); err != nil {
			t.Fatal(err)
		}
	}
	bufs := make([]*RecvBuffer, 0, 8)
	for len(bufs) < 8 {
		bufs = append(bufs, mustRecv(t, c))
	}
	for i, rb := range bufs {
		if err := c.Release(rb); err != nil {
			t.Fatal(err)
		}
		// Releases 1–3 coalesce; the 4th triggers the first flush.
		if i == 2 && c.CreditWrites() != 0 {
			t.Fatalf("flushed after %d releases, want coalescing until 4", i+1)
		}
	}
	if got := c.CreditWrites(); got != 2 {
		t.Fatalf("8 releases cost %d credit writes, want 2", got)
	}
	if got := p.Credits(); got != 8 {
		t.Fatalf("credits after full release = %d, want 8", got)
	}
}

// TestCreditsSurviveConsumerClose: releases coalesced but not yet flushed at
// Close time must still reach the producer — Close flushes and drains before
// tearing the QP down.
func TestCreditsSurviveConsumerClose(t *testing.T) {
	for _, ec := range engineCases {
		t.Run(ec.name, func(t *testing.T) {
			f := rdma.NewFabric(ec.cfg)
			p, c, err := New(f.MustNIC("prod"), f.MustNIC("cons"), Config{Credits: 8, SlotSize: 128})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()

			for i := 0; i < 3; i++ {
				sb := p.Acquire()
				if sb == nil {
					t.Fatal(p.Err())
				}
				if err := p.Post(sb, 1); err != nil {
					t.Fatal(err)
				}
			}
			// Let all three WRITEs land first: on the pipelined engine a
			// poll that misses a write still in flight flushes the
			// releases made so far, which is not what this test counts.
			p.qp.Drain()
			for i := 0; i < 3; i++ {
				if err := c.Release(mustRecv(t, c)); err != nil {
					t.Fatal(err)
				}
			}
			// 3 releases at c=8 stay under the flush threshold of 4: all
			// three credits are only local state at this point.
			if got := c.CreditWrites(); got != 0 {
				t.Fatalf("credit writes before close = %d, want 0 (coalesced)", got)
			}
			if got := p.Credits(); got != 5 {
				t.Fatalf("credits before close = %d, want 5", got)
			}
			c.Close()
			if got := c.CreditWrites(); got != 1 {
				t.Fatalf("credit writes after close = %d, want 1", got)
			}
			if got := p.Credits(); got != 8 {
				t.Fatalf("credits lost across Close: %d, want 8", got)
			}
		})
	}
}

// TestReversePathMessageCount verifies the acceptance criterion directly at
// the NIC: the consumer's only outbound traffic is credit writes, and at c=8
// a 64-buffer transfer needs at most half as many reverse-path messages as
// the one-write-per-release protocol (it actually needs a quarter).
func TestReversePathMessageCount(t *testing.T) {
	f := rdma.NewFabric(rdma.Config{})
	consNIC := f.MustNIC("cons")
	p, c, err := New(f.MustNIC("prod"), consNIC, Config{Credits: 8, SlotSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	defer c.Close()

	const total = 64
	for i := 0; i < total; i++ {
		sb := p.Acquire()
		if sb == nil {
			t.Fatal(p.Err())
		}
		if err := p.Post(sb, 1); err != nil {
			t.Fatal(err)
		}
		if err := c.Release(mustRecv(t, c)); err != nil {
			t.Fatal(err)
		}
	}
	tx := consNIC.Stats().TxMsgs
	if tx != int64(c.CreditWrites()) {
		t.Fatalf("consumer NIC sent %d messages but posted %d credit writes", tx, c.CreditWrites())
	}
	if tx > total/2 {
		t.Fatalf("reverse path used %d messages for %d buffers, want ≤ %d (≥2× reduction)", tx, total, total/2)
	}
	if tx != total/4 {
		t.Fatalf("reverse path used %d messages, want exactly %d at c=8", tx, total/4)
	}
}

// TestHotPathAllocationFree asserts the steady-state transfer loop — acquire,
// post, poll, release — never touches the heap.
func TestHotPathAllocationFree(t *testing.T) {
	p, c := newChannel(t, Config{Credits: 8, SlotSize: 256})
	// Warm up one full ring revolution so every preallocated buffer has been
	// handed out at least once.
	for i := 0; i < 16; i++ {
		sb := p.Acquire()
		if sb == nil {
			t.Fatal(p.Err())
		}
		if err := p.Post(sb, 8); err != nil {
			t.Fatal(err)
		}
		if err := c.Release(mustRecv(t, c)); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		sb := p.Acquire()
		if sb == nil {
			t.Fatal(p.Err())
		}
		sb.Data[0]++
		if err := p.Post(sb, 8); err != nil {
			t.Fatal(err)
		}
		rb, ok := c.TryPoll()
		if !ok {
			t.Fatal("inline write did not land synchronously")
		}
		if err := c.Release(rb); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state transfer allocates %.1f times per op, want 0", allocs)
	}
}
