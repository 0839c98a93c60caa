package channel

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/slash-stream/slash/internal/metrics"
	"github.com/slash-stream/slash/internal/netfab"
	"github.com/slash-stream/slash/internal/rdma"
)

// Tests for the parked producer: an Acquire that ran out of credits and
// parked must come back for every wake source — a credit flush, Close, an
// asynchronous WRITE failure, and its own deadline — on both rdma engines
// and over netfab. Each test first waits until the producer has parked, so
// the wake under test is the one that ends the park; no sleep decides the
// outcome, and the only timers are hang guards.

// parkBackend builds a pair channel on one transport. failWrite makes a
// WRITE on the producer's queue pair fail asynchronously, the way a dead
// link reaches a producer that is not posting.
type parkBackend struct {
	name  string
	build func(t *testing.T, cfg Config) (p *Producer, c *Consumer, failWrite func(t *testing.T))
}

// rdmaParkBackend is a pair channel over the in-process engine with a fault
// injector attached. cut selects how the in-flight WRITE dies: a severed
// link (retries exhausted) or a killed QP.
func rdmaParkBackend(name string, fc rdma.Config, cut bool) parkBackend {
	return parkBackend{name: name, build: func(t *testing.T, cfg Config) (*Producer, *Consumer, func(*testing.T)) {
		fi := rdma.NewFaultInjector(1)
		fc.Faults = fi
		f := rdma.NewFabric(fc)
		p, c, err := New(f.MustNIC("prod"), f.MustNIC("cons"), cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			p.Close()
			c.Close()
		})
		return p, c, func(t *testing.T) {
			if cut {
				fi.CutLink("prod", "cons")
			} else {
				fi.FailQP(p.qp.ID())
			}
			if err := p.qp.PostWrite(1<<62, []byte{1}, p.ringRKey, 0, false); err != nil {
				t.Fatal(err)
			}
		}
	}}
}

// netfabParkBackend is the same channel composed over TCP-framed verbs. Its
// failed WRITE targets an rkey the consumer's host never issued.
func netfabParkBackend() parkBackend {
	return parkBackend{name: "netfab", build: func(t *testing.T, cfg Config) (*Producer, *Consumer, func(*testing.T)) {
		listen := func() *netfab.Host {
			h, err := netfab.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = h.Close() })
			return h
		}
		prodHost, consHost := listen(), listen()
		ring, err := consHost.Register(cfg.Credits * cfg.SlotSize)
		if err != nil {
			t.Fatal(err)
		}
		credit, err := prodHost.Register(8)
		if err != nil {
			t.Fatal(err)
		}
		qpProd, err := netfab.Dial(consHost.Addr(), "prod->cons")
		if err != nil {
			t.Fatal(err)
		}
		qpCons, err := netfab.Dial(prodHost.Addr(), "cons->prod")
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewProducer(cfg, qpProd, qpProd.CQ(), netfab.NewLocalBuffer(cfg.Credits*cfg.SlotSize), credit, ring.RKey())
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewConsumer(cfg, qpCons, qpCons.CQ(), ring, credit.RKey())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			p.Close()
			c.Close()
		})
		return p, c, func(t *testing.T) {
			if err := qpProd.PostWrite(1<<62, []byte{1}, 0xdead, 0, false); err != nil {
				t.Fatal(err)
			}
		}
	}}
}

// parkBackends covers both rdma engines and netfab. The fault tests use
// every entry; the rest skip the duplicate fault flavours.
var parkBackends = []parkBackend{
	rdmaParkBackend("inline", rdma.Config{}, false),
	rdmaParkBackend("pipelined", rdma.Config{Throttle: true}, false),
	rdmaParkBackend("inline-cutlink", rdma.Config{}, true),
	rdmaParkBackend("pipelined-cutlink", rdma.Config{Throttle: true}, true),
	netfabParkBackend(),
}

func forEachBackend(t *testing.T, withFaultFlavours bool, fn func(t *testing.T, be parkBackend)) {
	for _, be := range parkBackends {
		if !withFaultFlavours && strings.HasSuffix(be.name, "-cutlink") {
			continue
		}
		t.Run(be.name, func(t *testing.T) { fn(t, be) })
	}
}

// watchParks attaches a park counter to p, whatever registry it has.
func watchParks(p *Producer) *metrics.Counter {
	p.mParks = new(metrics.Counter)
	return p.mParks
}

// fillRing posts until the producer is out of credits.
func fillRing(t *testing.T, p *Producer) {
	t.Helper()
	for p.Credits() > 0 {
		sb := p.Acquire()
		if sb == nil {
			t.Fatalf("Acquire with credits left: %v", p.Err())
		}
		if err := p.Post(sb, 1); err != nil {
			t.Fatal(err)
		}
	}
}

// parkedAcquire starts an Acquire on an out-of-credit producer and returns
// once it has parked; the channel delivers what the Acquire returned.
func parkedAcquire(t *testing.T, p *Producer, parks *metrics.Counter) <-chan *SendBuffer {
	t.Helper()
	done := make(chan *SendBuffer, 1)
	go func() { done <- p.Acquire() }()
	deadline := time.Now().Add(10 * time.Second)
	for parks.Load() == 0 {
		select {
		case sb := <-done:
			t.Fatalf("Acquire returned %v (err %v) before it parked", sb, p.Err())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("Acquire never parked")
		}
		runtime.Gosched()
	}
	return done
}

// awaitAcquire waits for the parked Acquire to come back; the guard only
// turns a missed wake into a failure instead of a hang.
func awaitAcquire(t *testing.T, done <-chan *SendBuffer) *SendBuffer {
	t.Helper()
	select {
	case sb := <-done:
		return sb
	case <-time.After(10 * time.Second):
		t.Fatal("parked Acquire never woke")
		return nil
	}
}

func TestParkedAcquireWakesOnCreditFlush(t *testing.T) {
	forEachBackend(t, false, func(t *testing.T, be parkBackend) {
		p, c, _ := be.build(t, Config{Credits: 2, SlotSize: 64})
		parks := watchParks(p)
		fillRing(t, p)
		done := parkedAcquire(t, p, parks)
		// flushAt is 1 at two credits: each release is a credit WRITE.
		for i := 0; i < 2; i++ {
			if err := c.Release(mustRecv(t, c)); err != nil {
				t.Fatal(err)
			}
		}
		if sb := awaitAcquire(t, done); sb == nil {
			t.Fatalf("woken Acquire returned nil: %v", p.Err())
		}
	})
}

func TestParkedAcquireWakesOnClose(t *testing.T) {
	forEachBackend(t, false, func(t *testing.T, be parkBackend) {
		p, _, _ := be.build(t, Config{Credits: 2, SlotSize: 64})
		parks := watchParks(p)
		fillRing(t, p)
		done := parkedAcquire(t, p, parks)
		p.Close()
		if sb := awaitAcquire(t, done); sb != nil {
			t.Fatal("Acquire returned a buffer after Close")
		}
		if err := p.Err(); err != nil {
			t.Fatalf("Close latched %v, want a clean nil", err)
		}
	})
}

func TestParkedAcquireWakesOnWriteFailure(t *testing.T) {
	forEachBackend(t, true, func(t *testing.T, be parkBackend) {
		p, _, failWrite := be.build(t, Config{Credits: 2, SlotSize: 64})
		parks := watchParks(p)
		fillRing(t, p)
		done := parkedAcquire(t, p, parks)
		failWrite(t)
		if sb := awaitAcquire(t, done); sb != nil {
			t.Fatal("Acquire returned a buffer on a failed queue pair")
		}
		var qf *rdma.QPFailure
		if !errors.As(p.Err(), &qf) {
			t.Fatalf("Err() = %v, want a *rdma.QPFailure", p.Err())
		}
		if qf.QP != p.qp.ID() {
			t.Fatalf("failure names %q, want the producer's link %q", qf.QP, p.qp.ID())
		}
	})
}

func TestParkedAcquireTimesOut(t *testing.T) {
	forEachBackend(t, false, func(t *testing.T, be parkBackend) {
		p, _, _ := be.build(t, Config{Credits: 2, SlotSize: 64, CreditWaitTimeout: 20 * time.Millisecond})
		parks := watchParks(p)
		fillRing(t, p)
		done := parkedAcquire(t, p, parks)
		if sb := awaitAcquire(t, done); sb != nil {
			t.Fatal("Acquire returned a buffer with no credit returned")
		}
		err := p.Err()
		if !errors.Is(err, ErrCreditTimeout) {
			t.Fatalf("Err() = %v, want ErrCreditTimeout", err)
		}
		// The message carries what tells a lost wake from a consumer that
		// never released: nothing came back, and nothing woke the park.
		for _, want := range []string{"sent 2", "credit word 0", "0 wakes"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("timeout message %q lacks %q", err, want)
			}
		}
	})
}

// TestParkedProducerStress streams through a one-credit ring with the
// consumer on its own goroutine, so the producer stalls, arms and parks
// thousands of times while credit WRITEs land at every point of that
// sequence. With one credit each stall ends on exactly one credit WRITE,
// so a WRITE that lands between the last check and the arm and is then
// missed leaves the producer asleep for good; the guard reports it.
// (Arming without the re-check fails here within a few hundred parks.)
func TestParkedProducerStress(t *testing.T) {
	forEachBackend(t, false, func(t *testing.T, be parkBackend) {
		msgs := 10_000
		if be.name == "netfab" {
			msgs = 2_000 // every message is two loopback TCP round trips
		}
		p, c, _ := be.build(t, Config{Credits: 1, SlotSize: 64})
		parks := watchParks(p)
		errc := make(chan error, 1)
		go func() {
			for got := 0; got < msgs; {
				rb, ok := c.TryPoll()
				if !ok {
					if err := c.Err(); err != nil {
						errc <- err
						return
					}
					runtime.Gosched()
					continue
				}
				if int(rb.Data[0]) != got%256 {
					errc <- errors.New("FIFO violated")
					return
				}
				// A varying busy pause, mostly longer than the producer's
				// spin budget, so most stalls reach the arm and the credit
				// WRITE lands at a different point of it each time.
				for start := time.Now(); time.Since(start) < time.Duration(got%13)*2*time.Microsecond; {
				}
				if err := c.Release(rb); err != nil {
					errc <- err
					return
				}
				got++
			}
			errc <- nil
		}()
		done := make(chan error, 1)
		go func() {
			for i := 0; i < msgs; i++ {
				sb := p.Acquire()
				if sb == nil {
					done <- p.Err()
					return
				}
				sb.Data[0] = byte(i)
				if err := p.Post(sb, 1); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("producer stuck after %d parks: a wake was lost", parks.Load())
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		t.Logf("%d parks over %d messages", parks.Load(), msgs)
	})
}

// TestTransfer4KAllocationFree is the fault-off allocation floor: a 4 KiB
// transfer allocates nothing, whether a credit is waiting or the producer
// has to park for it.
func TestTransfer4KAllocationFree(t *testing.T) {
	const slot = 4 << 10
	cfg := Config{Credits: 8, SlotSize: slot}
	t.Run("credit-ready", func(t *testing.T) {
		p, c := newChannel(t, cfg)
		xfer := func() {
			sb := p.Acquire()
			if sb == nil {
				t.Fatal(p.Err())
			}
			sb.Data[0]++
			if err := p.Post(sb, len(sb.Data)); err != nil {
				t.Fatal(err)
			}
			rb, ok := c.TryPoll()
			if !ok {
				t.Fatal("inline write did not land synchronously")
			}
			if err := c.Release(rb); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2*cfg.Credits; i++ {
			xfer()
		}
		if allocs := testing.AllocsPerRun(1000, xfer); allocs != 0 {
			t.Fatalf("4 KiB transfer allocates %.2f times per op, want 0", allocs)
		}
	})
	t.Run("parked", func(t *testing.T) {
		p, c := newChannel(t, cfg)
		parks := watchParks(p)
		// The consumer waits for the producer to park, then receives and
		// releases everything it posted, returning all credits.
		kick := make(chan uint64)
		drained := make(chan struct{})
		go func() {
			for want := range kick {
				for parks.Load() < want {
					runtime.Gosched()
				}
				for got := 0; got < cfg.Credits+1; {
					rb, ok := c.TryPoll()
					if !ok {
						if c.Err() != nil {
							t.Error(c.Err())
							return
						}
						runtime.Gosched()
						continue
					}
					if err := c.Release(rb); err != nil {
						t.Error(err)
						return
					}
					got++
				}
				c.TryPoll() // the miss flushes the last, coalesced credit
				drained <- struct{}{}
			}
		}()
		defer close(kick)
		var round uint64
		// One round: credits+1 transfers, the last of which parks.
		xfer := func() {
			round++
			kick <- round
			for i := 0; i < cfg.Credits+1; i++ {
				sb := p.Acquire()
				if sb == nil {
					t.Fatal(p.Err())
				}
				sb.Data[0]++
				if err := p.Post(sb, len(sb.Data)); err != nil {
					t.Fatal(err)
				}
			}
			<-drained
		}
		if allocs := testing.AllocsPerRun(100, xfer); allocs != 0 {
			t.Fatalf("a round of 4 KiB transfers that parks allocates %.2f times, want 0", allocs)
		}
		if got := parks.Load(); got < round {
			t.Fatalf("%d parks in %d rounds, want one per round", got, round)
		}
	})
}
