package window

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTumblingValidation(t *testing.T) {
	if _, err := NewTumbling(0); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := NewTumbling(-5); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestTumblingAssign(t *testing.T) {
	w, _ := NewTumbling(100)
	cases := []struct {
		ts  int64
		win uint64
	}{
		{0, 0}, {99, 0}, {100, 1}, {250, 2}, {-5, 0},
	}
	for _, c := range cases {
		got := w.Assign(c.ts, nil)
		if len(got) != 1 || got[0] != c.win {
			t.Fatalf("Assign(%d) = %v, want [%d]", c.ts, got, c.win)
		}
	}
	if w.End(2) != 300 {
		t.Fatalf("End(2) = %d", w.End(2))
	}
}

func TestTumblingContainment(t *testing.T) {
	w, _ := NewTumbling(777)
	prop := func(ts int64) bool {
		if ts < 0 {
			ts = -ts
		}
		wins := w.Assign(ts, nil)
		if len(wins) != 1 {
			return false
		}
		end := w.End(wins[0])
		start := end - w.Size
		return ts >= start && ts < end
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSlidingValidation(t *testing.T) {
	if _, err := NewSliding(0, 1); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := NewSliding(10, 0); err == nil {
		t.Fatal("zero slide accepted")
	}
	if _, err := NewSliding(10, 20); err == nil {
		t.Fatal("slide > size accepted")
	}
}

func TestSlidingAssign(t *testing.T) {
	w, _ := NewSliding(100, 25) // 4 overlapping windows per record
	wins := w.Assign(110, nil)
	if len(wins) != 4 {
		t.Fatalf("Assign(110) = %v", wins)
	}
	for _, win := range wins {
		end := w.End(win)
		start := end - w.Size
		if 110 < start || 110 >= end {
			t.Fatalf("window %d [%d,%d) does not contain 110", win, start, end)
		}
	}
	// Early timestamps produce fewer windows (no negative ids).
	if got := w.Assign(10, nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Assign(10) = %v", got)
	}
}

func TestSlidingCoverageProperty(t *testing.T) {
	w, _ := NewSliding(90, 30)
	prop := func(ts uint32) bool {
		wins := w.Assign(int64(ts), nil)
		if len(wins) == 0 || len(wins) > 3 {
			return false
		}
		seen := map[uint64]bool{}
		for _, win := range wins {
			if seen[win] {
				return false
			}
			seen[win] = true
			end := w.End(win)
			if int64(ts) < end-w.Size || int64(ts) >= end {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSessionSlices(t *testing.T) {
	if _, err := NewSession(0); err == nil {
		t.Fatal("zero gap accepted")
	}
	w, _ := NewSession(50)
	wins := w.Assign(120, nil)
	if len(wins) != 1 || wins[0] != 2 {
		t.Fatalf("Assign(120) = %v", wins)
	}
	// Trigger only after the adjacent slice is covered.
	if w.End(2) != 200 {
		t.Fatalf("End(2) = %d", w.End(2))
	}
}

func TestNames(t *testing.T) {
	tw, _ := NewTumbling(10)
	sw, _ := NewSliding(10, 5)
	se, _ := NewSession(7)
	for _, a := range []Assigner{tw, sw, se} {
		if a.Name() == "" {
			t.Fatal("empty name")
		}
	}
}

// TestNextEnd pins the window-end arithmetic the engine arms its early epoch
// termination with: NextEnd(ts) is the smallest window end strictly greater
// than ts, for every assigner — so a thread whose watermark reaches it has
// closed a window, and no window end is ever skipped between two arms.
func TestNextEnd(t *testing.T) {
	tumbling, _ := NewTumbling(100)
	sliding, _ := NewSliding(400, 100) // size/slide = 4: one window closes per slide
	ragged, _ := NewSliding(10, 4)     // slide does not divide size
	session, _ := NewSession(50)       // bucket w ends at (w+2)*gap
	cases := []struct {
		name string
		a    Assigner
		ts   int64
		want int64
	}{
		{"tumbling/start", tumbling, 0, 100},
		{"tumbling/mid", tumbling, 57, 100},
		{"tumbling/last", tumbling, 99, 100},
		{"tumbling/on-end", tumbling, 100, 200},
		{"tumbling/far", tumbling, 12_345, 12_400},
		{"tumbling/negative", tumbling, -7, 100},

		{"sliding/ramp-up", sliding, 0, 400},
		{"sliding/ramp-up-2", sliding, 250, 400},
		{"sliding/before-first-end", sliding, 399, 400},
		{"sliding/on-end", sliding, 400, 500},
		{"sliding/steady", sliding, 1_234, 1_300},
		{"sliding/steady-last", sliding, 1_299, 1_300},
		{"sliding/steady-on-end", sliding, 1_300, 1_400},

		{"ragged/9", ragged, 9, 10},
		{"ragged/10", ragged, 10, 14},
		{"ragged/13", ragged, 13, 14},
		{"ragged/14", ragged, 14, 18},

		{"session/first-slice", session, 10, 100},
		{"session/second-slice", session, 60, 100},
		{"session/on-end", session, 100, 150},
		{"session/third-slice", session, 149, 150},
		{"session/far", session, 1_010, 1_050},
	}
	for _, c := range cases {
		if got := NextEnd(c.a, c.ts); got != c.want {
			t.Errorf("%s: NextEnd(%d) = %d, want %d", c.name, c.ts, got, c.want)
		}
	}
	// Property behind the table: the result is an end of a real window, is
	// past ts, and no window ends in between.
	for _, a := range []Assigner{tumbling, sliding, ragged, session} {
		for ts := int64(0); ts < 2_000; ts++ {
			next := NextEnd(a, ts)
			if next <= ts {
				t.Fatalf("%s: NextEnd(%d) = %d is not past ts", a.Name(), ts, next)
			}
			last := a.Assign(ts, nil)
			for win := uint64(0); win <= last[len(last)-1]; win++ {
				if end := a.End(win); end > ts && end < next {
					t.Fatalf("%s: window %d ends at %d, between ts %d and NextEnd %d", a.Name(), win, end, ts, next)
				}
			}
		}
	}
}

// TestAssignRunsMatchesAssign: the run decomposition gives every record
// exactly the windows Assign gives it, for every assigner — including a
// sliding window whose slide does not divide its size, where the window set
// also changes between slide boundaries — over batches that start anywhere.
func TestAssignRunsMatchesAssign(t *testing.T) {
	tumbling, _ := NewTumbling(100)
	sliding, _ := NewSliding(400, 100)
	ragged, _ := NewSliding(10_000, 4_000)
	session, _ := NewSession(50)
	rng := rand.New(rand.NewSource(1))
	for _, a := range []Assigner{tumbling, sliding, ragged, session} {
		ra := ForRuns(a)
		var runs Runs
		ts := int64(0)
		for batch := 0; batch < 200; batch++ {
			times := make([]int64, 1+rng.Intn(64))
			for i := range times {
				ts += rng.Int63n(700)
				times[i] = ts
			}
			runs.Reset()
			ra.AssignRuns(times, &runs)
			covered := 0
			for i := 0; i < runs.N(); i++ {
				p0, p1 := runs.Span(i)
				if p0 != covered || p1 <= p0 {
					t.Fatalf("%s: run %d spans [%d, %d) after %d records", a.Name(), i, p0, p1, covered)
				}
				for p := p0; p < p1; p++ {
					if want := a.Assign(times[p], nil); !equalWins(runs.Windows(i), want) {
						t.Fatalf("%s: ts %d in run windows %v, Assign gives %v", a.Name(), times[p], runs.Windows(i), want)
					}
				}
				covered = p1
			}
			if covered != len(times) {
				t.Fatalf("%s: runs cover %d of %d records", a.Name(), covered, len(times))
			}
		}
	}
}
