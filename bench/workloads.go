package main

import (
	"fmt"
	"time"

	"github.com/slash-stream/slash/internal/core"
	gen "github.com/slash-stream/slash/internal/workload"
)

// Deployment shape of every workload: 2 nodes × 1 source thread, the smallest
// shape with a remote link — 4 engine workers. The load generator adds no
// goroutines: flows are stepped by the engine's own workers.
const nodes = 2

// config is one invocation's settings.
type config struct {
	// name is the workload being run.
	name string
	seed int64
	// seconds is how long one workload measures: closed-loop workloads run
	// fixed-size passes until it is used up, paced ones follow a schedule of
	// this length.
	seconds float64
	// scale multiplies every input size. It is 1 in every real run; the smoke
	// test runs at about 1/100.
	scale float64
	// outDir receives trace-<workload>.json.
	outDir string
}

func (c config) scaled(n int) int { return max(int(float64(n)*c.scale), 1) }

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// prepare is the timed set-up: it makes the inputs from the seed and
	// materialises them. It is charged to setup_s, never to a measured pass.
	prepare func(cfg config) (runner, error)
}

// runner holds one workload's prepared inputs.
type runner interface {
	// measure runs the workload with tracing off (Config.Metrics == nil).
	measure(cfg config) (*measured, error)
	// trace runs the traced passes and returns every per-layer metric.
	trace(cfg config) (*traced, error)
}

// measured is the end-to-end outcome of one run, one value per segment: a
// measured pass of a closed-loop workload, a one-second slice of a paced one.
type measured struct {
	recordsPerS        []float64
	latP50Ms, latP90Ms []float64
	attempted, failed  int64
}

// traced is the per-layer outcome of one run.
type traced struct {
	values            map[string]float64
	attempted, failed int64
}

var workloads = []workload{
	{
		name: "ysb_replay",
		why:  "closed-loop max-rate YSB replay over 1000 campaigns: partial aggregation collapses each epoch, so the columnar source loop does nearly all the work and a transport or merge change must not move it",
		prepare: func(cfg config) (runner, error) {
			w := gen.YSB{Keys: 1_000, RecordsPerFlow: cfg.scaled(2_000_000), Seed: cfg.seed}
			w.WindowSize = int64(w.RecordsPerFlow) * 10 / 8
			return newReplayRunner(w.Query(), w.Flows(nodes, 1)), nil
		},
	},
	{
		name: "nb8_join_replay",
		why:  "closed-loop max-rate NB8 join replay: every record is shipped (~20 B/record on the wire), so chunk serialise, channel send/recv, credit flow and merge dominate and the source loop is a minority",
		prepare: func(cfg config) (runner, error) {
			w := gen.NB8{Sellers: 20_000, RecordsPerFlow: cfg.scaled(500_000), Seed: cfg.seed}
			w.WindowSize = int64(w.RecordsPerFlow) * 10 / 8
			return newReplayRunner(w.Query(), w.Flows(nodes, 1)), nil
		},
	},
	{
		name: "ysb_paced",
		why:  "open-loop YSB at a fixed 4M records/s with CPU headroom: emit latency is set by epoch fill, watermarks, merge cadence, trigger and scheduler back-off, so a faster source loop should show no change",
		prepare: func(cfg config) (runner, error) {
			w := gen.YSB{Keys: 100_000, RecordsPerFlow: pacedBlock, Seed: cfg.seed, WindowSize: 20_000}
			return newPacedRunner(w.Query(), w.Flows(nodes, 1), 2_000_000, w.WindowSize, nil), nil
		},
	},
	{
		name: "cm_paced_stateq",
		why:  "open-loop CM at 2M records/s with the state plane armed and one closed-loop reader: the merge path is also a publisher and readers contend with it; ysb_paced (state plane off) is the bypass",
		prepare: func(cfg config) (runner, error) {
			w := gen.CM{Jobs: 50_000, RecordsPerFlow: pacedBlock, Seed: cfg.seed, WindowSize: 100_000}
			zipf, err := gen.NewZipf(w.Jobs, 1.1)
			if err != nil {
				return nil, err
			}
			return newPacedRunner(w.Query(), w.Flows(nodes, 1), 1_000_000, w.WindowSize, readerKeys(zipf, cfg.seed)), nil
		},
	},
	{
		name:    "nb8_cluster_tcp",
		why:     "closed-loop NB8 through the real coordinator, two workers and netfab over loopback TCP (not a link): the only workload with netfab frames/acks, the gob control plane and the journal on the path",
		prepare: func(cfg config) (runner, error) { return newClusterRunner(cfg) },
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// pacedBlock is the length of the pre-generated block a paced flow cycles.
const pacedBlock = 1 << 20

// passResult is one closed-loop pass.
type passResult struct {
	records           int64
	wall              time.Duration
	latMs             []float64
	attempted, failed int64
	rep               *core.Report
}

// minPasses keeps a median meaningful when --seconds is tiny.
const minPasses = 3

// measurePasses is the closed loop: one warm-up pass, then fixed-size passes
// back to back until the time is used up.
func measurePasses(cfg config, pass func() (*passResult, error)) (*measured, error) {
	if _, err := pass(); err != nil {
		return nil, err
	}
	m := &measured{}
	var lat [][]float64
	for start := time.Now(); len(m.recordsPerS) < minPasses || time.Since(start).Seconds() < cfg.seconds; {
		p, err := pass()
		if err != nil {
			return nil, err
		}
		m.recordsPerS = append(m.recordsPerS, float64(p.records)/p.wall.Seconds())
		lat = append(lat, p.latMs)
		m.attempted += p.attempted
		m.failed += p.failed
	}
	m.latP50Ms, m.latP90Ms = latencySegments(lat)
	return m, nil
}

// minLatencySamples is the fewest latencies a segment's percentiles are taken
// from; consecutive passes (or slices) are pooled until they have that many.
const minLatencySamples = 10

// latencySegments turns per-pass latency samples into per-segment p50 and
// p90. If the whole run has fewer samples than one segment needs, it is one
// segment.
func latencySegments(groups [][]float64) (p50, p90 []float64) {
	var pool, all []float64
	for _, g := range groups {
		pool = append(pool, g...)
		all = append(all, g...)
		if len(pool) >= minLatencySamples {
			s := sortedCopy(pool)
			p50 = append(p50, quantile(s, 0.5))
			p90 = append(p90, quantile(s, 0.9))
			pool = pool[:0]
		}
	}
	if len(p50) == 0 && len(all) > 0 {
		s := sortedCopy(all)
		p50, p90 = []float64{quantile(s, 0.5)}, []float64{quantile(s, 0.9)}
	}
	return p50, p90
}
