package core

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/slash-stream/slash/internal/channel"
	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/ssb"
	"github.com/slash-stream/slash/internal/stream"
	"github.com/slash-stream/slash/internal/window"
)

// genPhase builds per-flow record slices whose timestamps all fall in
// [lo, hi), non-decreasing within each flow, with the last record pinned to
// hi-1 so the phase deterministically touches its final window.
func genPhase(rng *rand.Rand, flows, recsPerFlow, keyRange int, lo, hi int64) ([][]stream.Record, []stream.Record) {
	out := make([][]stream.Record, flows)
	var all []stream.Record
	for f := range out {
		times := make([]int64, recsPerFlow)
		for i := range times {
			times[i] = lo + rng.Int63n(hi-lo)
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		times[len(times)-1] = hi - 1
		recs := make([]stream.Record, recsPerFlow)
		for i := range recs {
			recs[i] = stream.Record{
				Key:  uint64(rng.Intn(keyRange)),
				Time: times[i],
				V0:   rng.Int63n(100) - 50,
				V1:   int64(rng.Intn(2)),
			}
		}
		out[f] = recs
		all = append(all, recs...)
	}
	return out, all
}

// aggMap canonicalizes collected aggregation rows, failing on duplicates.
func aggMap(t *testing.T, col *Collector) map[uint64]map[uint64]int64 {
	t.Helper()
	got := map[uint64]map[uint64]int64{}
	for _, r := range col.Aggs() {
		if got[r.Win] == nil {
			got[r.Win] = map[uint64]int64{}
		}
		if _, dup := got[r.Win][r.Key]; dup {
			t.Fatalf("duplicate emission win=%d key=%d", r.Win, r.Key)
		}
		got[r.Win][r.Key] = r.Value
	}
	return got
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestElasticScaleOutMatchesStatic is the differential test of the
// zero-migration claim (§7.2, §8): a run that scales 2 -> 4 at the phase
// boundary must produce exactly the window results of a static 4-node run
// over the same data — placement never leaks into results.
func TestElasticScaleOutMatchesStatic(t *testing.T) {
	const winSize = 500
	win, _ := window.NewTumbling(winSize)
	rng := rand.New(rand.NewSource(41))
	phaseA, allA := genPhase(rng, 2, 300, 64, 0, 5*winSize)
	phaseB, allB := genPhase(rng, 4, 300, 64, 5*winSize, 10*winSize)
	mkQuery := func() *Query {
		return &Query{Name: "elastic-out", Codec: testCodec, Window: win, Agg: crdt.Sum{}}
	}

	// Static baseline at the final size.
	staticCol := &Collector{}
	staticFlows := [][]Flow{
		{NewColumnarFlow(append(append([]stream.Record(nil), phaseA[0]...), phaseB[0]...))},
		{NewColumnarFlow(append(append([]stream.Record(nil), phaseA[1]...), phaseB[1]...))},
		{NewColumnarFlow(phaseB[2])},
		{NewColumnarFlow(phaseB[3])},
	}
	if _, err := Run(smallConfig(4, 1), mkQuery(), staticFlows, staticCol); err != nil {
		t.Fatalf("static run: %v", err)
	}

	// Elastic run: 2 nodes ingest phase A, join 2 more at the boundary.
	cfg := smallConfig(2, 1)
	cfg.MaxNodes = 4
	gates := []*ColumnarFlow{
		NewColumnarFlow(append(append([]stream.Record(nil), phaseA[0]...), phaseB[0]...), 5*winSize),
		NewColumnarFlow(append(append([]stream.Record(nil), phaseA[1]...), phaseB[1]...), 5*winSize),
	}
	col := &Collector{}
	c, err := NewController(cfg, mkQuery(), [][]Flow{{gates[0]}, {gates[1]}}, col)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	c.Start()
	waitFor(t, "phase A drained", func() bool { return gates[0].AtFence(0) && gates[1].AtFence(0) })
	ids, err := c.AddNodes([][]Flow{{NewColumnarFlow(phaseB[2])}, {NewColumnarFlow(phaseB[3])}}, AutoCutover)
	if err != nil {
		t.Fatalf("AddNodes: %v", err)
	}
	if !reflect.DeepEqual(ids, []int{2, 3}) {
		t.Fatalf("joined ids = %v", ids)
	}
	if g := c.Generation(); g != 1 {
		t.Fatalf("generation = %d, want 1", g)
	}
	gates[0].Open()
	gates[1].Open()
	rep, err := c.Wait()
	if err != nil {
		t.Fatalf("elastic run: %v", err)
	}
	if want := int64(len(allA) + len(allB)); rep.Records != want {
		t.Fatalf("records = %d, want %d", rep.Records, want)
	}

	recs := c.Reconfigs()
	if len(recs) != 1 {
		t.Fatalf("reconfigs = %+v", recs)
	}
	r := recs[0]
	if r.Kind != "add" || r.Gen != 1 || !reflect.DeepEqual(r.Nodes, []int{2, 3}) {
		t.Fatalf("reconfig = %+v", r)
	}
	if r.Cutover != 5 {
		t.Fatalf("auto cutover = %d, want 5 (first window past phase A)", r.Cutover)
	}
	if r.Duration <= 0 {
		t.Fatalf("reconfig duration = %v", r.Duration)
	}

	oracle := oracleAgg(append(append([]stream.Record(nil), allA...), allB...), win, crdt.Sum{}, nil)
	checkAggAgainstOracle(t, col, oracle)
	if got, want := aggMap(t, col), aggMap(t, staticCol); !reflect.DeepEqual(got, want) {
		t.Fatalf("elastic results differ from static run at final size")
	}
}

// TestElasticScaleInMatchesStatic drains two of four nodes and removes them
// mid-run: the retired leaders keep merging their pre-cutover windows until
// covered (late merging), and results stay identical to a static run.
func TestElasticScaleInMatchesStatic(t *testing.T) {
	const winSize = 500
	win, _ := window.NewTumbling(winSize)
	rng := rand.New(rand.NewSource(43))
	phaseA, allA := genPhase(rng, 4, 300, 64, 0, 5*winSize)
	phaseB, allB := genPhase(rng, 2, 300, 64, 5*winSize, 10*winSize)
	mkQuery := func() *Query {
		return &Query{Name: "elastic-in", Codec: testCodec, Window: win, Agg: crdt.Sum{}}
	}

	staticCol := &Collector{}
	staticFlows := [][]Flow{
		{NewColumnarFlow(append(append([]stream.Record(nil), phaseA[0]...), phaseB[0]...))},
		{NewColumnarFlow(append(append([]stream.Record(nil), phaseA[1]...), phaseB[1]...))},
		{NewColumnarFlow(phaseA[2])},
		{NewColumnarFlow(phaseA[3])},
	}
	if _, err := Run(smallConfig(4, 1), mkQuery(), staticFlows, staticCol); err != nil {
		t.Fatalf("static run: %v", err)
	}

	gates := []*ColumnarFlow{
		NewColumnarFlow(append(append([]stream.Record(nil), phaseA[0]...), phaseB[0]...), 5*winSize),
		NewColumnarFlow(append(append([]stream.Record(nil), phaseA[1]...), phaseB[1]...), 5*winSize),
	}
	elasticFlows := [][]Flow{
		{gates[0]},
		{gates[1]},
		{NewColumnarFlow(phaseA[2])},
		{NewColumnarFlow(phaseA[3])},
	}
	col := &Collector{}
	c, err := NewController(smallConfig(4, 1), mkQuery(), elasticFlows, col)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	c.Start()
	waitFor(t, "leaving nodes' flows finished", func() bool {
		return c.SourcesDone(2) && c.SourcesDone(3) && gates[0].AtFence(0) && gates[1].AtFence(0)
	})
	if err := c.RemoveNodes([]int{2, 3}, AutoCutover); err != nil {
		t.Fatalf("RemoveNodes: %v", err)
	}
	gates[0].Open()
	gates[1].Open()
	if _, err := c.Wait(); err != nil {
		t.Fatalf("elastic run: %v", err)
	}

	recs := c.Reconfigs()
	if len(recs) != 1 {
		t.Fatalf("reconfigs = %+v", recs)
	}
	r := recs[0]
	if r.Kind != "remove" || r.Gen != 1 || !reflect.DeepEqual(r.Nodes, []int{2, 3}) {
		t.Fatalf("reconfig = %+v", r)
	}
	if r.Cutover != 5 {
		t.Fatalf("auto cutover = %d, want 5", r.Cutover)
	}
	if r.Duration <= 0 {
		t.Fatalf("drain duration not recorded: %+v", r)
	}

	oracle := oracleAgg(append(append([]stream.Record(nil), allA...), allB...), win, crdt.Sum{}, nil)
	checkAggAgainstOracle(t, col, oracle)
	if got, want := aggMap(t, col), aggMap(t, staticCol); !reflect.DeepEqual(got, want) {
		t.Fatalf("elastic results differ from static run")
	}
}

// TestReconfigErrors walks the reconfiguration error paths on one live
// deployment: wrong lifecycle state, cutovers into owned windows, removing
// active or unknown nodes, and capacity exhaustion.
func TestReconfigErrors(t *testing.T) {
	const winSize = 500
	win, _ := window.NewTumbling(winSize)
	rng := rand.New(rand.NewSource(47))
	phaseA, allA := genPhase(rng, 2, 200, 32, 0, 5*winSize)
	phaseB, allB := genPhase(rng, 2, 200, 32, 5*winSize, 7*winSize)
	q := &Query{Name: "elastic-err", Codec: testCodec, Window: win, Agg: crdt.Sum{}}

	cfg := smallConfig(2, 1)
	cfg.MaxNodes = 3
	// A phase-B tail behind the fence keeps the sources alive (a gated flow
	// with nothing fenced simply ends).
	gates := []*ColumnarFlow{
		NewColumnarFlow(append(append([]stream.Record(nil), phaseA[0]...), phaseB[0]...), 5*winSize),
		NewColumnarFlow(append(append([]stream.Record(nil), phaseA[1]...), phaseB[1]...), 5*winSize),
	}
	col := &Collector{}
	c, err := NewController(cfg, q, [][]Flow{{gates[0]}, {gates[1]}}, col)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}

	if _, err := c.AddNodes([][]Flow{{NewColumnarFlow(nil)}}, AutoCutover); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("AddNodes before Start: %v", err)
	}
	if err := c.RemoveNodes([]int{1}, AutoCutover); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("RemoveNodes before Start: %v", err)
	}

	c.Start()
	waitFor(t, "phase A drained", func() bool { return gates[0].AtFence(0) && gates[1].AtFence(0) })

	if _, err := c.AddNodes([][]Flow{{NewColumnarFlow(nil)}}, 1); !errors.Is(err, ErrCutoverInPast) {
		t.Fatalf("AddNodes cutover into owned window: %v", err)
	}
	if err := c.RemoveNodes([]int{1}, AutoCutover); !errors.Is(err, ErrSourcesActive) {
		t.Fatalf("RemoveNodes with active sources: %v", err)
	}
	if err := c.RemoveNodes([]int{7}, AutoCutover); err == nil || !strings.Contains(err.Error(), "active set") {
		t.Fatalf("RemoveNodes unknown node: %v", err)
	}
	if _, err := c.AddNodes([][]Flow{{NewColumnarFlow(nil)}, {NewColumnarFlow(nil)}}, AutoCutover); !errors.Is(err, ErrCapacity) {
		t.Fatalf("AddNodes beyond capacity: %v", err)
	}
	ids, err := c.AddNodes([][]Flow{{NewColumnarFlow(nil)}}, AutoCutover)
	if err != nil || !reflect.DeepEqual(ids, []int{2}) {
		t.Fatalf("AddNodes within capacity: ids=%v err=%v", ids, err)
	}
	if _, err := c.AddNodes([][]Flow{{NewColumnarFlow(nil)}}, AutoCutover); !errors.Is(err, ErrCapacity) {
		t.Fatalf("AddNodes at capacity: %v", err)
	}

	gates[0].Open()
	gates[1].Open()
	if _, err := c.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	checkAggAgainstOracle(t, col, oracleAgg(append(append([]stream.Record(nil), allA...), allB...), win, crdt.Sum{}, nil))
}

// detachOnPost is a send port that loses the race with a scale-in detach:
// the detach closes it after Acquire succeeded, so Post fails.
type detachOnPost struct {
	s   *chanSender
	buf channel.SendBuffer
}

func (p *detachOnPost) Acquire() *channel.SendBuffer {
	p.buf.Data = make([]byte, 256)
	return &p.buf
}

func (p *detachOnPost) Post(*channel.SendBuffer, int) error {
	p.s.detach()
	return channel.ErrClosed
}

func (p *detachOnPost) DataSize() int { return 256 }
func (p *detachOnPost) Err() error    { return nil }
func (p *detachOnPost) Close()        {}

// TestSendDropsHeartbeatRacingDetach: a heartbeat whose post fails because
// its destination retired mid-send is dropped, like one that finds the
// sender already detached; a data chunk there is still a failure.
func TestSendDropsHeartbeatRacingDetach(t *testing.T) {
	for _, kind := range []ssb.ChunkKind{ssb.ChunkHeartbeat, ssb.ChunkData} {
		s := &chanSender{src: 0, dst: 1}
		s.prod = &detachOnPost{s: s}
		err := s.Send(&ssb.Chunk{Kind: kind})
		if wantErr := kind == ssb.ChunkData; (err != nil) != wantErr {
			t.Fatalf("chunk kind %d: Send = %v, want error %v", kind, err, wantErr)
		}
	}
}
