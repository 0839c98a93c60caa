package harness

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/slash-stream/slash/internal/channel"
	"github.com/slash-stream/slash/internal/core"
	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/metrics"
	"github.com/slash-stream/slash/internal/rdma"
	"github.com/slash-stream/slash/internal/stream"
	"github.com/slash-stream/slash/internal/window"
)

// scalePairCap is the largest node count at which the per-pair transport is
// brought up for real. Above it the quadratic mesh is the cost being
// demonstrated, not a baseline worth paying for: 16 nodes already means 240
// directed links, 480 QPs, and 240 private credit rings. Larger pair points
// are extrapolated from the largest measured one and flagged modelled=1.
const scalePairCap = 16

// scaleMeshPoint is what the fabric reports for one fully built mesh.
type scaleMeshPoint struct {
	nodes int
	qps   uint64 // queue pairs created to wire the mesh
	regB  int64  // bytes registered once the mesh is up, before any traffic
}

// Scale reproduces the setup-phase scaling argument behind the trunk
// transport (§7.2.2's connection cost, DESIGN.md §10): sweep node counts,
// bring the full all-to-all mesh up on both transports, and read what the
// fabric actually allocated. The per-pair transport dedicates two QPs and a
// private credit ring to every directed link — O(n²) QPs and registered
// memory. The trunk transport multiplexes every link over a fixed set of
// lanes per node — O(n·lanes) — and the experiment enforces both ends of
// that claim:
//
//   - trunk QP count is exactly nodes × lanes at every swept point;
//   - trunk registered memory grows linearly: the largest/smallest ratio
//     stays within 3× of the node-count ratio (a quadratic mesh would grow
//     with its square);
//   - every run still ingests every record, so the cheap mesh is not a
//     mesh that drops traffic.
//
// Each point also runs the workload end to end and reports throughput plus
// the doorbell coalescing ratio (trunk frames per doorbell), so a trunk
// regression that trades QPs for per-chunk cost shows up in the same table.
func Scale(o Options) ([]Row, error) {
	if len(o.Nodes) == 0 {
		// The sweep the transport was built for: the smoke floor, the pair
		// crossover cap, and the scale the per-pair mesh cannot reach.
		o.Nodes = []int{8, 16, 64}
	}
	o = o.fill()
	reg := o.Metrics
	if reg == nil {
		// The doorbell ratio comes from the trunk counters; keep a private
		// registry when the caller did not ask for a metrics dump.
		reg = metrics.NewRegistry()
	}
	perFlow := o.scaled(4000)
	win, err := window.NewTumbling(elasticWinSize)
	if err != nil {
		return nil, err
	}

	var rows []Row
	var trunkPts, pairPts []scaleMeshPoint
	for _, n := range o.Nodes {
		if n < 2 {
			return nil, fmt.Errorf("scale: need at least 2 nodes, got %d", n)
		}
		for _, system := range []string{"trunk", "pair"} {
			if system == "pair" && n > scalePairCap {
				continue
			}
			pt, row, err := scaleRun(o, reg, n, perFlow, win, system == "trunk")
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
			if system == "trunk" {
				trunkPts = append(trunkPts, pt)
			} else {
				pairPts = append(pairPts, pt)
			}
		}
	}

	// Extrapolate the pair transport past the cap from its largest measured
	// point: QPs follow the exact 2·n·(n-1) construction (verified below on
	// every measured point), registered memory follows the link count that
	// dominates it.
	if len(pairPts) > 0 {
		base := pairPts[len(pairPts)-1]
		baseLinks := int64(base.nodes) * int64(base.nodes-1)
		for _, n := range o.Nodes {
			if n <= scalePairCap {
				continue
			}
			links := int64(n) * int64(n-1)
			rows = append(rows, Row{
				Experiment: "scale", Workload: "phased-sum", System: "pair",
				Params: fmt.Sprintf("nodes=%d modelled", n),
				Metrics: map[string]float64{
					"modelled": 1,
					"qps":      float64(2 * links),
					"reg_mb":   float64(base.regB) * float64(links) / float64(baseLinks) / 1e6,
				},
			})
		}
	}

	// Hard contract: the trunk mesh is O(n·lanes), the pair mesh is O(n²).
	for _, pt := range trunkPts {
		if want := uint64(pt.nodes * channel.DefaultLanes); pt.qps != want {
			return nil, fmt.Errorf("scale: trunk mesh at %d nodes created %d QPs, want %d (nodes×lanes)",
				pt.nodes, pt.qps, want)
		}
	}
	for _, pt := range pairPts {
		if want := uint64(2 * pt.nodes * (pt.nodes - 1)); pt.qps != want {
			return nil, fmt.Errorf("scale: pair mesh at %d nodes created %d QPs, want %d (2 per directed link)",
				pt.nodes, pt.qps, want)
		}
	}
	if len(trunkPts) >= 2 {
		lo, hi := trunkPts[0], trunkPts[len(trunkPts)-1]
		nodeRatio := float64(hi.nodes) / float64(lo.nodes)
		memRatio := float64(hi.regB) / float64(lo.regB)
		if memRatio > 3*nodeRatio {
			return nil, fmt.Errorf("scale: trunk registered memory grew %.1fx across a %.0fx node sweep (%d -> %d nodes, %d -> %d bytes) — superlinear",
				memRatio, nodeRatio, lo.nodes, hi.nodes, lo.regB, hi.regB)
		}
	}
	return rows, nil
}

// scaleRun builds and drains one mesh point and reports what it cost.
func scaleRun(o Options, reg *metrics.Registry, n, perFlow int, win window.Assigner, trunk bool) (scaleMeshPoint, Row, error) {
	system := "pair"
	if trunk {
		system = "trunk"
	}
	// Per-point seed so every node count streams distinct data, same per
	// system so trunk and pair points at one n are directly comparable.
	rng := rand.New(rand.NewSource(o.Seed + int64(n)))
	const span = elasticPhaseWins * elasticWinSize
	recs, all := elasticPhase(rng, n*o.Threads, perFlow, 0, span)
	flows := make([][]core.Flow, n)
	for i := range flows {
		flows[i] = make([]core.Flow, o.Threads)
		for t := range flows[i] {
			flows[i][t] = core.NewColumnarFlow(recs[i*o.Threads+t])
		}
	}
	cfg := core.Config{
		Nodes: n, ThreadsPerNode: o.Threads,
		// The inline fabric engine: mesh cost is what is being measured, and
		// the throttled engine's modelled link latency only slows the sweep.
		Fabric: rdma.Config{Metrics: reg},
	}
	if trunk {
		cfg.Trunk = &channel.TrunkConfig{}
	}
	q := &core.Query{Name: "scale", Codec: stream.MustCodec(32), Window: win, Agg: crdt.Sum{}}

	framesBefore := scaleCounterSum(reg, "trunk_frames_total{")
	doorbellsBefore := scaleCounterSum(reg, "trunk_doorbells_total{")
	start := time.Now()
	c, err := core.NewController(cfg, q, flows, &core.Collector{})
	if err != nil {
		return scaleMeshPoint{}, Row{}, fmt.Errorf("scale: %s mesh at %d nodes: %w", system, n, err)
	}
	// The mesh is fully wired before Start: what the fabric holds here is the
	// setup-phase cost the paper's §7.2.2 charges to connection state.
	pt := scaleMeshPoint{nodes: n, regB: c.Fabric().RegisteredBytes(), qps: c.Fabric().QPsCreated()}
	setup := time.Since(start)
	c.Start()
	rep, err := c.Wait()
	if err != nil {
		return scaleMeshPoint{}, Row{}, fmt.Errorf("scale: %s run at %d nodes: %w", system, n, err)
	}
	if rep.Records != int64(len(all)) {
		return scaleMeshPoint{}, Row{}, fmt.Errorf("scale: %s run at %d nodes ingested %d records, want %d",
			system, n, rep.Records, len(all))
	}
	m := map[string]float64{
		"qps":      float64(pt.qps),
		"reg_mb":   float64(pt.regB) / 1e6,
		"setup_ms": float64(setup.Microseconds()) / 1e3,
	}
	if trunk {
		frames := scaleCounterSum(reg, "trunk_frames_total{") - framesBefore
		doorbells := scaleCounterSum(reg, "trunk_doorbells_total{") - doorbellsBefore
		m["frames"] = float64(frames)
		m["doorbells"] = float64(doorbells)
		if doorbells > 0 {
			m["frames_per_db"] = float64(frames) / float64(doorbells)
		}
	}
	o.logf("scale %-5s nodes=%-4d qps=%-6d reg=%6.2fMB %12d recs %14.0f rec/s",
		system, n, pt.qps, float64(pt.regB)/1e6, rep.Records, rep.RecordsPerSec)
	return pt, Row{
		Experiment: "scale", Workload: "phased-sum", System: system,
		Params:  fmt.Sprintf("nodes=%d threads=%d", n, o.Threads),
		Records: rep.Records, Elapsed: rep.Elapsed, RecsPerSec: rep.RecordsPerSec,
		Metrics: m,
	}, nil
}

// scaleCounterSum sums every counter whose name starts with prefix — the
// trunk counters are labeled per endpoint, and endpoint names repeat across
// sweep points on a shared registry, so callers diff sums around each run.
func scaleCounterSum(reg *metrics.Registry, prefix string) uint64 {
	var total uint64
	for _, c := range reg.Snapshot().Counters {
		if strings.HasPrefix(c.Name, prefix) {
			total += c.Value
		}
	}
	return total
}
