package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/slash-stream/slash/internal/channel"
	"github.com/slash-stream/slash/internal/core"
	"github.com/slash-stream/slash/internal/metrics"
	"github.com/slash-stream/slash/internal/netfab"
	"github.com/slash-stream/slash/internal/rdma"
	"github.com/slash-stream/slash/internal/sched"
)

// engineTotals sums the engine's own Report over the traced passes.
type engineTotals struct {
	records               int64
	netTxBytes, netTxMsgs int64
	chunksMerged, bytes   uint64
	windows               uint64
	sched                 sched.WorkerStats
}

func (t *engineTotals) add(rep *core.Report) {
	t.records += rep.Records
	t.netTxBytes += rep.NetTxBytes
	t.netTxMsgs += rep.NetTxMsgs
	t.chunksMerged += rep.ChunksMerged
	t.bytes += rep.BytesMerged
	t.windows += rep.WindowsOutput
	t.sched.Steps += rep.Sched.Steps
	t.sched.ReadySteps += rep.Sched.ReadySteps
	t.sched.IdleRounds += rep.Sched.IdleRounds
}

// fillEngineCounters derives the per-layer metrics that come from the engine's
// existing Config.Metrics registry and its Report. Series are summed over
// their labels (one per channel or queue pair).
func fillEngineCounters(v map[string]float64, snap metrics.Snapshot, tot engineTotals) {
	counter := func(prefix string) float64 {
		var sum uint64
		for _, c := range snap.Counters {
			if strings.HasPrefix(c.Name, prefix) {
				sum += c.Value
			}
		}
		return float64(sum)
	}
	recs := float64(tot.records)
	posted := counter("channel_slots_posted_total")
	released := counter("channel_slots_released_total")
	misses := counter("channel_poll_misses_total")

	v["ssb.chunks_per_mrec"] = ratio(float64(tot.chunksMerged), recs) * 1e6
	v["ssb.chunk_bytes_per_rec"] = ratio(float64(tot.bytes), recs)
	v["rdma.tx_bytes_per_rec"] = ratio(float64(tot.netTxBytes), recs)
	v["rdma.tx_msgs_per_mrec"] = ratio(float64(tot.netTxMsgs), recs) * 1e6
	v["channel.credit_stall_ns_per_slot"] = ratio(counter("channel_credit_stall_ns_total"), posted)
	v["channel.credit_stalls_per_kslot"] = ratio(counter("channel_credit_stalls_total"), posted) * 1e3
	v["channel.acquire_spins_per_slot"] = ratio(counter("channel_acquire_spins_total"), posted)
	v["channel.poll_miss_ratio"] = ratio(misses, misses+released)
	v["channel.credit_writes_per_slot"] = ratio(counter("channel_credit_writes_total"), posted)
	v["sched.ready_step_ratio"] = ratio(float64(tot.sched.ReadySteps), float64(tot.sched.Steps))
	v["sched.idle_rounds_per_mrec"] = ratio(float64(tot.sched.IdleRounds), recs) * 1e6

	var backlog int64
	for _, g := range snap.Gauges {
		if strings.HasPrefix(g.Name, "channel_backlog_slots_max") {
			backlog = max(backlog, g.Value)
		}
	}
	v["channel.backlog_slots_max"] = float64(backlog)

	// One post-to-completion histogram per queue pair: weigh each median by
	// its sample count.
	var p50, n float64
	for _, h := range snap.Histograms {
		switch {
		case strings.HasPrefix(h.Name, "rdma_qp_post_to_completion_ns"):
			p50 += float64(h.P50) * float64(h.Count)
			n += float64(h.Count)
		case h.Name == `core_step_ns{task="source"}`:
			v["core.source_step_p50_ns"] = float64(h.P50)
		case h.Name == `core_step_ns{task="merge"}`:
			v["core.merge_step_p50_ns"] = float64(h.P50)
			v["core.merge_step_p99_ns"] = float64(h.P99)
		}
	}
	v["rdma.post_to_completion_p50_ns"] = ratio(p50, n)
}

// procStats brackets the traced engine passes with runtime.MemStats.
type procStats struct {
	before  runtime.MemStats
	records int64
}

func startProcStats() *procStats {
	p := &procStats{}
	runtime.ReadMemStats(&p.before)
	return p
}

func (p *procStats) fill(v map[string]float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	v["runtime.gc_pause_total_ms"] = float64(after.PauseTotalNs-p.before.PauseTotalNs) / 1e6
	v["runtime.alloc_bytes_per_rec"] = ratio(float64(after.TotalAlloc-p.before.TotalAlloc), float64(p.records))
}

// Transport micro rows: 4 KiB slots, timed from here through the public
// constructors, for the pair-vs-trunk decision (ROADMAP item 2) and the
// cross-process gap (item 3). Every row is single-goroutine ping-pong —
// acquire, post, poll, release — so it times the per-slot CPU cost of the
// path and nothing of the scheduler.
const microSlot = 4 << 10

// microSeconds is how long each micro row runs.
const microSeconds = 0.25

// pingPong times transfers of one 4 KiB slot through a port pair.
func pingPong(seconds float64, send channel.SendPort, recv channel.RecvPort) (nsPerSlot, allocsPerSlot float64, err error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	n := 0
	for ; n%64 != 0 || time.Since(start).Seconds() < seconds; n++ {
		sb := send.Acquire()
		if sb == nil {
			return 0, 0, fmt.Errorf("micro: acquire: %v", send.Err())
		}
		sb.Data[0] = byte(n)
		if err := send.Post(sb, send.DataSize()); err != nil {
			return 0, 0, err
		}
		rb, ok := recv.TryPoll()
		for ; !ok; rb, ok = recv.TryPoll() {
			if err := recv.Err(); err != nil {
				return 0, 0, err
			}
			runtime.Gosched()
		}
		if err := recv.Release(rb); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(ms1.Mallocs-ms0.Mallocs) / float64(n), nil
}

func microRows(cfg config, v map[string]float64) error {
	seconds := microSeconds * cfg.scale

	// rdma: one unsignaled 4 KiB WRITE per op on the inline engine.
	f := rdma.NewFabric(rdma.Config{})
	na, nb := f.MustNIC("a"), f.MustNIC("b")
	qa, qb, err := rdma.Connect(na, nb, rdma.QPOptions{}, rdma.QPOptions{})
	if err != nil {
		return err
	}
	dst := nb.MustRegister(microSlot)
	buf := make([]byte, microSlot)
	start := time.Now()
	n := 0
	for ; n%256 != 0 || time.Since(start).Seconds() < seconds; n++ {
		if err := qa.PostWrite(uint64(n), buf, dst.RKey(), 0, false); err != nil {
			return err
		}
	}
	qa.Drain()
	v["rdma.post_write_ns_4k"] = float64(time.Since(start).Nanoseconds()) / float64(n)
	qa.Close()
	qb.Close()

	// channel: a dedicated pair.
	p, c, err := channel.New(na, nb, channel.Config{SlotSize: microSlot})
	if err != nil {
		return err
	}
	v["channel.pair_transfer_ns_4k"], _, err = pingPong(seconds, p, c)
	p.Close()
	c.Close()
	if err != nil {
		return err
	}

	// channel: one logical channel on a trunk.
	tf := rdma.NewFabric(rdma.Config{})
	epA, err := channel.NewEndpoint(tf.MustNIC("a"), channel.TrunkConfig{SlotSize: microSlot})
	if err != nil {
		return err
	}
	epB, err := channel.NewEndpoint(tf.MustNIC("b"), channel.TrunkConfig{SlotSize: microSlot})
	if err != nil {
		return err
	}
	r, err := epB.Listen(1)
	if err != nil {
		return err
	}
	s := epA.TrunkTo(epB).Open(1)
	v["channel.trunk_transfer_ns_4k"], _, err = pingPong(seconds, s, r)
	epA.Close()
	epB.Close()
	if err != nil {
		return err
	}

	// netfab: the same pair channel over loopback TCP.
	link, err := newTCPLink(channel.Config{SlotSize: microSlot})
	if err != nil {
		return err
	}
	v["netfab.transfer_ns_4k"], v["netfab.transfer_allocs_4k"], err = pingPong(seconds, link.prod, link.cons)
	link.close()
	return err
}

// tcpLink is one directed pair channel over netfab on loopback TCP, wired the
// way the cluster bootstrap wires a cross-process link: ring in the consumer's
// host, credit word in the producer's, one dialed QP each way.
type tcpLink struct {
	prod   *channel.Producer
	cons   *channel.Consumer
	closer []func()
}

func newTCPLink(cfg channel.Config) (*tcpLink, error) {
	if cfg.Credits == 0 {
		cfg.Credits = channel.DefaultCredits
	}
	l := &tcpLink{}
	fail := func(err error) (*tcpLink, error) {
		l.close()
		return nil, err
	}
	prodHost, err := netfab.Listen("127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	l.closer = append(l.closer, func() { prodHost.Close() })
	consHost, err := netfab.Listen("127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	l.closer = append(l.closer, func() { consHost.Close() })
	ring, err := consHost.Register(cfg.Credits * cfg.SlotSize)
	if err != nil {
		return fail(err)
	}
	credit, err := prodHost.Register(8)
	if err != nil {
		return fail(err)
	}
	qpProd, err := netfab.Dial(consHost.Addr(), "bench-prod")
	if err != nil {
		return fail(err)
	}
	l.closer = append(l.closer, qpProd.Close)
	qpCons, err := netfab.Dial(prodHost.Addr(), "bench-cons")
	if err != nil {
		return fail(err)
	}
	l.closer = append(l.closer, qpCons.Close)
	l.prod, err = channel.NewProducer(cfg, qpProd, qpProd.CQ(), netfab.NewLocalBuffer(cfg.Credits*cfg.SlotSize), credit, ring.RKey())
	if err != nil {
		return fail(err)
	}
	l.cons, err = channel.NewConsumer(cfg, qpCons, qpCons.CQ(), ring, credit.RKey())
	if err != nil {
		return fail(err)
	}
	return l, nil
}

// close releases the link, endpoints first, hosts last.
func (l *tcpLink) close() {
	if l.prod != nil {
		l.prod.Close()
	}
	if l.cons != nil {
		l.cons.Close()
	}
	for i := len(l.closer) - 1; i >= 0; i-- {
		l.closer[i]()
	}
}
