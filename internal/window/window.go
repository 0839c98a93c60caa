// Package window provides the event-time window assigners Slash supports
// (§5.2): tumbling and sliding windows over window buckets, and a sliced
// approximation of session windows. A window is identified by a uint64 id
// from which its end timestamp is derivable, so that any executor can
// evaluate trigger conditions from the id alone — the property the SSB's
// WindowEnd callback requires.
package window

import (
	"fmt"

	"github.com/slash-stream/slash/internal/stream"
)

// Assigner maps record timestamps to window buckets.
type Assigner interface {
	// Name identifies the assigner for diagnostics.
	Name() string
	// Assign appends the ids of every window containing ts to dst and
	// returns the extended slice.
	Assign(ts int64, dst []uint64) []uint64
	// End returns the end timestamp (exclusive) of window win: the window
	// may trigger once the cluster's vector clock covers it.
	End(win uint64) stream.Watermark
}

// NextEnd returns the earliest window end after ts: the end of the oldest
// window still open once every record before ts has been seen. For tumbling
// and sliding assigners that is the end of the first window containing ts
// (sliding windows close once per slide); a session bucket outlives its own
// slice by one gap, so the bucket before the one containing ts can still be
// open — hence the walk back while the preceding window ends after ts. It
// relies on End being non-decreasing in the window id, which every assigner
// here satisfies.
func NextEnd(a Assigner, ts int64) stream.Watermark {
	win := a.Assign(ts, nil)[0]
	for win > 0 && a.End(win-1) > ts {
		win--
	}
	return a.End(win)
}

// Tumbling assigns each record to exactly one fixed-size bucket.
type Tumbling struct {
	// Size is the window length in event-time microseconds.
	Size int64
}

// NewTumbling validates and builds a tumbling assigner.
func NewTumbling(size int64) (Tumbling, error) {
	if size <= 0 {
		return Tumbling{}, fmt.Errorf("window: tumbling size %d must be positive", size)
	}
	return Tumbling{Size: size}, nil
}

// Name implements Assigner.
func (w Tumbling) Name() string { return fmt.Sprintf("tumbling(%d)", w.Size) }

// Assign implements Assigner.
func (w Tumbling) Assign(ts int64, dst []uint64) []uint64 {
	if ts < 0 {
		ts = 0
	}
	return append(dst, uint64(ts/w.Size))
}

// End implements Assigner.
func (w Tumbling) End(win uint64) stream.Watermark {
	return (int64(win) + 1) * w.Size
}

// Sliding assigns each record to Size/Slide overlapping buckets. Window w
// spans [w*Slide, w*Slide+Size).
type Sliding struct {
	// Size is the window length; Slide the stride between window starts.
	Size, Slide int64
}

// NewSliding validates and builds a sliding assigner.
func NewSliding(size, slide int64) (Sliding, error) {
	if size <= 0 || slide <= 0 {
		return Sliding{}, fmt.Errorf("window: sliding size %d / slide %d must be positive", size, slide)
	}
	if slide > size {
		return Sliding{}, fmt.Errorf("window: slide %d exceeds size %d (gaps in coverage)", slide, size)
	}
	return Sliding{Size: size, Slide: slide}, nil
}

// Name implements Assigner.
func (w Sliding) Name() string { return fmt.Sprintf("sliding(%d,%d)", w.Size, w.Slide) }

// Assign implements Assigner.
func (w Sliding) Assign(ts int64, dst []uint64) []uint64 {
	if ts < 0 {
		ts = 0
	}
	last := ts / w.Slide
	first := (ts - w.Size + w.Slide) / w.Slide
	if ts-w.Size+w.Slide < 0 {
		first = 0
	}
	for win := first; win <= last; win++ {
		dst = append(dst, uint64(win))
	}
	return dst
}

// End implements Assigner.
func (w Sliding) End(win uint64) stream.Watermark {
	return int64(win)*w.Slide + w.Size
}

// Session approximates session windows with gap-width slices: records within
// the same slice of width Gap share a session bucket, and a bucket only
// triggers once the following slice is also covered, so a directly adjacent
// burst can still be attributed. This is the general-slicing treatment the
// paper references (§5.2); exact cross-slice session merging is documented
// as an approximation in EXPERIMENTS.md (NB11).
type Session struct {
	// Gap is the inactivity gap separating sessions.
	Gap int64
}

// NewSession validates and builds a session assigner.
func NewSession(gap int64) (Session, error) {
	if gap <= 0 {
		return Session{}, fmt.Errorf("window: session gap %d must be positive", gap)
	}
	return Session{Gap: gap}, nil
}

// Name implements Assigner.
func (w Session) Name() string { return fmt.Sprintf("session(%d)", w.Gap) }

// Assign implements Assigner.
func (w Session) Assign(ts int64, dst []uint64) []uint64 {
	if ts < 0 {
		ts = 0
	}
	return append(dst, uint64(ts/w.Gap))
}

// End implements Assigner. The extra Gap defers triggering until the
// adjacent slice can no longer receive records.
func (w Session) End(win uint64) stream.Watermark {
	return (int64(win) + 2) * w.Gap
}
