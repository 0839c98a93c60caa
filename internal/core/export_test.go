package core

import "time"

// Test seams for recovery constants, set on a controller before Start.

// setReplayRing bounds every replay ring of c at n entries.
func (c *Controller) setReplayRing(n int) {
	for _, row := range c.rings {
		for _, r := range row {
			r.cap = n
		}
	}
}

// setFenceDelay sets how long c's failure manager collects link reports
// before it votes.
func (c *Controller) setFenceDelay(d time.Duration) { c.mgr.delay = d }
