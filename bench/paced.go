package main

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"time"

	"github.com/slash-stream/slash/internal/core"
	"github.com/slash-stream/slash/internal/metrics"
	"github.com/slash-stream/slash/internal/stateq"
	"github.com/slash-stream/slash/internal/stream"
	gen "github.com/slash-stream/slash/internal/workload"
)

// pacedRunner is the open loop: the schedule releases records at a fixed rate
// whether or not the engine keeps up, so a stall shows as latency on every
// later window, not as a lower offered load.
type pacedRunner struct {
	q        *core.Query
	keys     [][]uint64 // per flow: the block's key column
	v0       [][]int64  // per flow: the block's value column
	rate     int64      // records per second per flow
	winSize  int64      // µs
	readKeys []uint64   // non-nil arms the state plane and one reader
}

func newPacedRunner(q *core.Query, gens [][]core.Flow, rate, winSize int64, readKeys []uint64) *pacedRunner {
	r := &pacedRunner{q: q, rate: rate, winSize: winSize, readKeys: readKeys}
	for n := range gens {
		for _, g := range gens[n] {
			keys, v0 := make([]uint64, 0, pacedBlock), make([]int64, 0, pacedBlock)
			var rec stream.Record
			for g.Next(&rec) {
				keys, v0 = append(keys, rec.Key), append(v0, rec.V0)
			}
			r.keys, r.v0 = append(r.keys, keys), append(r.v0, v0)
		}
	}
	return r
}

// readerKeys pre-draws the reader's lookup keys: the same Zipf the ingest uses.
func readerKeys(zipf *gen.Zipf, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = zipf.Draw(rng)
	}
	return keys
}

// schedule returns one unstarted flow per node covering seconds of input.
func (r *pacedRunner) schedule(seconds float64) []*pacedFlow {
	flows := make([]*pacedFlow, len(r.keys))
	for i := range flows {
		flows[i] = &pacedFlow{keys: r.keys[i], v0: r.v0[i], rate: r.rate, total: int64(seconds * float64(r.rate)), winSize: r.winSize}
	}
	return flows
}

func (r *pacedRunner) reference(flows []*pacedFlow) (*reference, error) {
	in := make([]core.Flow, len(flows))
	for i, f := range flows {
		in[i] = f.unpaced()
	}
	return foldReference(r.q, in, nodes)
}

// pacedResult is one paced run, cut into one-second slices by due time.
type pacedResult struct {
	recordsPerS       []float64   // delivered rate per slice
	latMs             [][]float64 // emit latencies per slice
	lagMs             []float64   // every source-lag sample
	attempted, failed int64
	rep               *core.Report
	reader            *reader
}

// run executes one schedule. reg is nil with tracing off.
func (r *pacedRunner) run(seconds float64, reg *metrics.Registry) (*pacedResult, error) {
	sched := r.schedule(seconds)
	ref, err := r.reference(sched)
	if err != nil {
		return nil, err
	}
	flows := make([][]core.Flow, nodes)
	clocks := make([]releaseClock, nodes)
	for n, f := range sched {
		flows[n], clocks[n] = []core.Flow{f}, f
	}
	sink := newCheckSink(ref, nodes)
	cfg := core.Config{Nodes: nodes, ThreadsPerNode: 1, Metrics: reg}
	if r.readKeys != nil {
		cfg.State = &stateq.Options{}
	}
	ctrl, err := core.NewController(cfg, r.q, flows, sink)
	if err != nil {
		return nil, err
	}
	res := &pacedResult{}
	if r.readKeys != nil {
		cl, err := ctrl.NewStateClient("bench-reader")
		if err != nil {
			return nil, err
		}
		res.reader = startReader(cl, r.readKeys)
	}
	start := time.Now()
	for _, f := range sched {
		f.start = start
	}
	ctrl.Start()
	rep, err := ctrl.Wait()
	wall := time.Since(start)
	if res.reader != nil {
		res.reader.stop()
	}
	if err != nil {
		return nil, err
	}
	res.rep = rep
	res.attempted, res.failed = sink.check(ref)
	if res.reader != nil {
		res.attempted += res.reader.ops
		res.failed += res.reader.failed
	}

	// Delivered rate per slice, from the flows' per-second marks.
	slices := len(sched[0].marks) - 1
	for _, f := range sched[1:] {
		slices = min(slices, len(f.marks)-1)
	}
	for s := 0; s < slices; s++ {
		var rate float64
		for _, f := range sched {
			a, b := f.marks[s], f.marks[s+1]
			rate += float64(b.pos-a.pos) / b.at.Sub(a.at).Seconds()
		}
		res.recordsPerS = append(res.recordsPerS, rate)
	}
	if slices < 1 {
		res.recordsPerS = []float64{float64(rep.Records) / wall.Seconds()}
	}

	// Emit latencies, by the slice the window was due in.
	res.latMs = sliceLatencies(sink, clocks, int(time.Second/time.Microsecond)/int(r.winSize))

	// A generator that falls behind and stays behind is an overloaded run: if
	// reading lags the schedule by 50 ms more in the last quarter than in the
	// first, every output counts as failed.
	for _, f := range sched {
		for _, l := range f.lagNs {
			res.lagMs = append(res.lagMs, float64(l)/1e6)
		}
		if q := len(f.lagNs) / 4; q > 0 && meanNs(f.lagNs[len(f.lagNs)-q:])-meanNs(f.lagNs[:q]) > 50e6 {
			res.failed = res.attempted
		}
	}
	return res, nil
}

// sliceLatencies groups the sink's emit latencies by the second their window
// was due in.
func sliceLatencies(s *checkSink, clocks []releaseClock, winsPerSlice int) [][]float64 {
	winsPerSlice = max(winsPerSlice, 1)
	var out [][]float64
	for w := 0; ; w += winsPerSlice {
		var group []float64
		more := false
		for n := range s.nodes {
			for i := w; i < w+winsPerSlice && i < s.timedWindows(); i++ {
				more = true
				if l, ok := s.latencyMs(n, i, clocks); ok {
					group = append(group, l)
				}
			}
		}
		if !more {
			return out
		}
		out = append(out, group)
	}
}

func (r *pacedRunner) measure(cfg config) (*measured, error) {
	res, err := r.run(cfg.seconds, nil)
	if err != nil {
		return nil, err
	}
	m := &measured{recordsPerS: res.recordsPerS, attempted: res.attempted, failed: res.failed}
	m.latP50Ms, m.latP90Ms = latencySegments(res.latMs)
	return m, nil
}

// replayRecords caps the layer replay of a paced schedule, per flow.
const replayRecords = 1_000_000

func (r *pacedRunner) trace(cfg config) (*traced, error) {
	began := time.Now()

	// The layer replay reads a prefix of the same schedule unpaced: what a
	// call costs does not depend on when the record was due.
	sched := r.schedule(min(cfg.seconds, float64(cfg.scaled(replayRecords))/float64(r.rate)))
	ref, err := r.reference(sched)
	if err != nil {
		return nil, err
	}
	flows := make([]core.BatchFlow, len(sched))
	for i, f := range sched {
		flows[i] = f.unpaced()
	}
	t, err := startTrace(cfg, replaySpec{q: r.q, flows: flows, ref: ref, state: r.readKeys != nil})
	if err != nil {
		return nil, err
	}

	// Engine counters: what is left of the time, split between a run with the
	// registry set and one without.
	seconds := max((cfg.seconds-time.Since(began).Seconds())/2, cfg.seconds/10)
	proc := startProcStats()
	reg := metrics.NewRegistry()
	on, err := r.run(seconds, reg)
	if err != nil {
		return nil, err
	}
	off, err := r.run(seconds, nil)
	if err != nil {
		return nil, err
	}
	proc.records = on.rep.Records + off.rep.Records
	proc.fill(t.values)
	var tot engineTotals
	tot.add(on.rep)
	fillEngineCounters(t.values, reg.Snapshot(), tot)
	var lat []float64
	for _, g := range on.latMs {
		lat = append(lat, g...)
	}
	t.values["sink.emit_latency_p99_ms"] = p99(lat)
	t.values["workload.source_lag_p99_ms"] = p99(on.lagMs)
	t.values["trace.overhead_pct"] = pctWorse(off.recordsPerS, on.recordsPerS)
	t.attempted += on.attempted + off.attempted
	t.failed += on.failed + off.failed
	if rd := on.reader; rd != nil {
		rd.fill(t.values)
	}
	return t, nil
}

// reader is the one closed-loop state reader of cm_paced_stateq: no think
// time, one op after another on its own goroutine, every op timed.
type reader struct {
	cl       *stateq.Client
	keys     []uint64
	stopping atomic.Bool
	done     chan struct{}

	// Written by the reader goroutine, read after stop.
	lookupNs, topkNs, windowsNs []int64
	ops, failed, exhausted      int64
}

func startReader(cl *stateq.Client, keys []uint64) *reader {
	r := &reader{cl: cl, keys: keys, done: make(chan struct{})}
	go r.loop()
	return r
}

func (r *reader) stop() {
	r.stopping.Store(true)
	<-r.done
	r.cl.Close()
}

// readAttempts bounds how often the reader re-issues a read whose optimistic
// retries ran out, as any client would: on two cores a publisher preempted
// mid-publication keeps a slot's version odd for longer than the client's own
// retry loop spins. Each such re-issue is counted.
const readAttempts = 8

// loop refreshes the window list every 4096 ops; otherwise it looks a Zipf key
// up in the newest live window, and every 16th op is a TopK(10). An error
// other than a clean not-found is a failed read.
func (r *reader) loop() {
	defer close(r.done)
	var win uint64
	have := false
	for op := 0; !r.stopping.Load(); op++ {
		var read func() error
		var took *[]int64
		switch {
		case op%4096 == 0:
			took = &r.windowsNs
			read = func() error {
				wins, err := r.cl.Windows()
				for _, w := range wins {
					if !w.Sealed && (!have || w.Window >= win) {
						win, have = w.Window, true
					}
				}
				return err
			}
		case !have:
			time.Sleep(100 * time.Microsecond) // nothing published yet
			op = -1
			continue
		case op%16 == 15:
			took = &r.topkNs
			read = func() error { _, err := r.cl.TopK(win, 10); return err }
		default:
			took = &r.lookupNs
			read = func() error { _, err := r.cl.Lookup(win, r.keys[op%len(r.keys)]); return err }
		}
		t := time.Now()
		err := read()
		for n := 1; errors.Is(err, stateq.ErrUnavailable) && n < readAttempts; n++ {
			r.exhausted++
			time.Sleep(50 * time.Microsecond)
			err = read()
		}
		*took = append(*took, int64(time.Since(t)))
		r.ops++
		if err != nil && !errors.Is(err, stateq.ErrNotFound) && !errors.Is(err, stateq.ErrNoSnapshot) {
			r.failed++
		}
	}
}

func (r *reader) fill(v map[string]float64) {
	us := make([]float64, len(r.lookupNs))
	for i, ns := range r.lookupNs {
		us[i] = float64(ns) / 1e3
	}
	s := sortedCopy(us)
	v["stateq.lookup_p50_us"] = quantile(s, 0.5)
	v["stateq.lookup_p99_us"] = quantile(s, 0.99)
	v["stateq.lookup_ns"] = meanNs(r.lookupNs)
	v["stateq.topk_ns"] = meanNs(r.topkNs)
	v["stateq.windows_ns"] = meanNs(r.windowsNs)
	v["stateq.torn_read_ratio"] = ratio(float64(r.cl.TornReads()), float64(r.cl.Reads()))
	v["stateq.redials"] = float64(r.cl.Redials())
	v["stateq.retries_exhausted_per_mop"] = ratio(float64(r.exhausted), float64(r.ops)) * 1e6
}
