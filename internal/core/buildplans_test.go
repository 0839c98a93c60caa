package core

import (
	"reflect"
	"testing"

	"github.com/slash-stream/slash/internal/stream"
)

// TestBuildPlans pins the replay-plan rules of a restart without running an
// engine: node 1 of a two-thread deployment (global threads 2 and 3), its
// journaled source marks, the restored backend's committed vector, and the
// survivors' horizon from the fence step.
func TestBuildPlans(t *testing.T) {
	const x, tpn = 1, 2
	noWm := int64(stream.NoWatermark)
	fresh := threadRestore{wm: noWm, inc: 1} // a thread with nothing journaled
	mark := func(gtid int, epoch uint64, consumed int64, inc uint8) sourceMark {
		return sourceMark{Thread: gtid, Epoch: epoch, Consumed: consumed, Updates: 2 * consumed, Wm: 100 * int64(epoch), Inc: inc}
	}
	// Thread 2 flushed epochs 1..3; thread 0 belongs to another node.
	three := []sourceMark{mark(2, 1, 10, 0), mark(2, 2, 20, 0), mark(2, 3, 30, 0), mark(0, 1, 99, 0)}
	finished := mark(2, 2, 25, 0)
	finished.Done = true
	retried := mark(2, 2, 20, 1)
	retried.Updates = 41 // distinguishable from the first journaling of epoch 2

	for _, tc := range []struct {
		name              string
		marks             []sourceMark
		restored, horizon []uint64
		oldDone           []bool
		want              [2]threadRestore
	}{
		{
			name:     "no committed epoch rewinds to 0",
			marks:    three,
			restored: []uint64{5, 5, 0, 0},
			want: [2]threadRestore{
				{wm: noWm, inc: 1, plan: []planFlush{{consumed: 10}, {consumed: 20}, {consumed: 30}}},
				fresh,
			},
		},
		{
			name:     "cut at the restored vector",
			marks:    three,
			restored: []uint64{0, 0, 2, 0},
			horizon:  []uint64{0, 0, 3, 0},
			want: [2]threadRestore{
				{rewind: 20, updates: 40, epoch: 2, wm: 200, inc: 1, plan: []planFlush{{consumed: 30}}},
				fresh,
			},
		},
		{
			name:     "cut at the survivors' horizon",
			marks:    three,
			restored: []uint64{0, 0, 3, 0},
			horizon:  []uint64{0, 0, 1, 0},
			want: [2]threadRestore{
				{rewind: 10, updates: 20, epoch: 1, wm: 100, inc: 1, plan: []planFlush{{consumed: 20}, {consumed: 30}}},
				fresh,
			},
		},
		{
			name:     "last mark per epoch wins, inc is max+1",
			marks:    append(append([]sourceMark(nil), three...), retried, mark(3, 1, 7, 3)),
			restored: []uint64{0, 0, 2, 0},
			want: [2]threadRestore{
				{rewind: 20, updates: 41, epoch: 2, wm: 200, inc: 2, plan: []planFlush{{consumed: 30}}},
				{wm: noWm, inc: 4, plan: []planFlush{{consumed: 7}}},
			},
		},
		{
			name:     "committed finishing flush leaves nothing to replay",
			marks:    []sourceMark{mark(2, 1, 10, 0), finished},
			restored: []uint64{0, 0, 2, 0},
			horizon:  []uint64{0, 0, 2, 0},
			want: [2]threadRestore{
				{rewind: 25, updates: 50, epoch: 2, wm: 200, inc: 1, done: true},
				fresh,
			},
		},
		{
			name:     "counted comes from oldDone",
			restored: []uint64{0, 0, 0, 0},
			oldDone:  []bool{false, true},
			want:     [2]threadRestore{fresh, {wm: noWm, inc: 1, counted: true}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plans := buildPlans(x, tpn, tc.marks, tc.restored, tc.horizon, tc.oldDone)
			if len(plans) != tpn {
				t.Fatalf("%d plans, want %d", len(plans), tpn)
			}
			for th, p := range plans {
				if !reflect.DeepEqual(*p, tc.want[th]) {
					t.Errorf("thread %d: got %+v, want %+v", th, *p, tc.want[th])
				}
			}
		})
	}
}
