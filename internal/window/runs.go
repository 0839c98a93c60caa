// Run-length window assignment (the batch form of Assigner.Assign).
//
// Because every flow delivers records in non-decreasing event time, the
// window set a record maps to changes only when its timestamp crosses a
// bucket boundary. Over a columnar batch the assignment therefore compresses
// to O(runs) boundary scans instead of O(records) Assign calls: a run is a
// maximal span of consecutive records sharing one window set, and the
// aggregation layer applies each (window, run) pair with all per-record
// routing hoisted out of the inner loop.
package window

// Runs accumulates run-length window assignments for one batch. Run i covers
// the half-open position span [Span(i)) of the assigned timestamp slice and
// maps every record in the span to each window id in Windows(i). All storage
// is reused across Reset calls.
type Runs struct {
	ends []int32  // run i ends at position ends[i] (exclusive)
	offs []int32  // run i's windows end at wins[offs[i]] (exclusive)
	wins []uint64 // concatenated window-id arena
}

// Reset clears the accumulated runs, keeping capacity.
func (r *Runs) Reset() {
	r.ends = r.ends[:0]
	r.offs = r.offs[:0]
	r.wins = r.wins[:0]
}

// N returns the number of runs.
func (r *Runs) N() int { return len(r.ends) }

// Span returns run i's half-open position range [p0, p1).
func (r *Runs) Span(i int) (p0, p1 int) {
	if i > 0 {
		p0 = int(r.ends[i-1])
	}
	return p0, int(r.ends[i])
}

// Windows returns run i's window ids. The slice aliases internal storage and
// is valid until the next Reset.
func (r *Runs) Windows(i int) []uint64 {
	var w0 int
	if i > 0 {
		w0 = int(r.offs[i-1])
	}
	return r.wins[w0:r.offs[i]]
}

// addOne appends a run ending at position end with a single window.
func (r *Runs) addOne(end int, win uint64) {
	r.wins = append(r.wins, win)
	r.ends = append(r.ends, int32(end))
	r.offs = append(r.offs, int32(len(r.wins)))
}

// addRange appends a run ending at position end covering windows
// first..last inclusive.
func (r *Runs) addRange(end int, first, last uint64) {
	for w := first; w <= last; w++ {
		r.wins = append(r.wins, w)
	}
	r.ends = append(r.ends, int32(end))
	r.offs = append(r.offs, int32(len(r.wins)))
}

// addSet appends a run ending at position end with an arbitrary window set.
func (r *Runs) addSet(end int, wins []uint64) {
	r.wins = append(r.wins, wins...)
	r.ends = append(r.ends, int32(end))
	r.offs = append(r.offs, int32(len(r.wins)))
}

// RunAssigner is the batch form of Assigner: AssignRuns splits a
// non-decreasing timestamp slice into runs of equal window sets. It must
// produce exactly the windows Assign would produce per timestamp, in the
// same per-record order.
type RunAssigner interface {
	Assigner
	// AssignRuns appends the run decomposition of times to r. times must be
	// non-decreasing; r is not Reset by the callee.
	AssignRuns(times []int64, r *Runs)
}

// ForRuns returns a RunAssigner for a: the native implementation when the
// assigner provides one, else a generic O(records) wrapper that still funnels
// equal consecutive window sets into single runs.
func ForRuns(a Assigner) RunAssigner {
	if ra, ok := a.(RunAssigner); ok {
		return ra
	}
	return &genericRuns{Assigner: a}
}

// bucketRuns implements the shared tumbling/session scan: window = ts/size,
// run boundary at (win+1)*size.
func bucketRuns(times []int64, size int64, r *Runs) {
	n := len(times)
	for i := 0; i < n; {
		ts := times[i]
		if ts < 0 {
			ts = 0
		}
		win := ts / size
		end := (win + 1) * size
		j := i + 1
		for j < n && times[j] < end {
			j++
		}
		r.addOne(j, uint64(win))
		i = j
	}
}

// AssignRuns implements RunAssigner in O(runs): each record lands in exactly
// one bucket, so a run spans every record below the bucket's end timestamp.
func (w Tumbling) AssignRuns(times []int64, r *Runs) { bucketRuns(times, w.Size, r) }

// AssignRuns implements RunAssigner (session slices are gap-width buckets).
func (w Session) AssignRuns(times []int64, r *Runs) { bucketRuns(times, w.Gap, r) }

// AssignRuns implements RunAssigner: the window set [first..last] changes
// when ts reaches the next window's start, (last+1)*Slide, or window first's
// end, first*Slide+Size — the same point unless Slide does not divide Size —
// so a run spans every record below the nearer of the two.
func (w Sliding) AssignRuns(times []int64, r *Runs) {
	n := len(times)
	for i := 0; i < n; {
		ts := times[i]
		if ts < 0 {
			ts = 0
		}
		last := ts / w.Slide
		first := (ts - w.Size + w.Slide) / w.Slide
		if ts-w.Size+w.Slide < 0 {
			first = 0
		}
		end := min((last+1)*w.Slide, first*w.Slide+w.Size)
		j := i + 1
		for j < n && times[j] < end {
			j++
		}
		r.addRange(j, uint64(first), uint64(last))
		i = j
	}
}

// genericRuns adapts any Assigner: it calls Assign per record but merges
// consecutive equal window sets, so downstream batching still applies.
type genericRuns struct {
	Assigner
	cur  []uint64
	next []uint64
}

func equalWins(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// AssignRuns implements RunAssigner.
func (g *genericRuns) AssignRuns(times []int64, r *Runs) {
	n := len(times)
	if n == 0 {
		return
	}
	g.cur = g.Assigner.Assign(times[0], g.cur[:0])
	for i := 1; i < n; i++ {
		if times[i] == times[i-1] {
			continue
		}
		g.next = g.Assigner.Assign(times[i], g.next[:0])
		if equalWins(g.cur, g.next) {
			continue
		}
		r.addSet(i, g.cur)
		g.cur, g.next = g.next, g.cur
	}
	r.addSet(n, g.cur)
}
