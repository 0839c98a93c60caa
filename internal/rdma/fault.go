package rdma

import (
	"math/rand"
	"sync"
	"time"

	"github.com/slash-stream/slash/internal/metrics"
)

// FaultInjector perturbs the fabric the way a real IB deployment fails:
// individual packets drop (and the transport retries them), links flap or
// partition, NICs fall off the fabric, and queue pairs die. Hook one into a
// fabric through Config.Faults; every work request then consults it before
// executing. A nil injector (the default) costs one predictable branch per
// request and nothing else.
//
// Faults are either deterministic — DropNext, CutLink, CutLinkAfterOps,
// FlapLinkByOps, FailQP, IsolateNIC target specific ops, links, or endpoints — or
// probabilistic via SetDropRate/SetDelay, driven by the seeded RNG so a
// scenario replays identically for a given seed and op order. All methods
// are safe for concurrent use and may be called while traffic is flowing
// (that is the point: flap a link mid-stream).
//
// A dropped op is retried by the posting QP after its transport timeout, up
// to its retry budget (QPOptions.RetryCount); only when the budget is
// exhausted does the request complete with StatusRetryExceeded and move the
// QP to the error state. A transient flap shorter than the retry budget is
// therefore absorbed invisibly — exactly the recovery window real RC
// transport provides.
type FaultInjector struct {
	mu  sync.Mutex
	rng *rand.Rand

	dropRate  float64
	delayRate float64
	delay     time.Duration
	dropNext  int64

	failedQPs map[string]bool
	isolated  map[string]bool
	links     map[string]*linkState

	drops      uint64
	delays     uint64
	qpFailures uint64

	// Registry mirrors; nil without a fabric metrics registry.
	mDrops  *metrics.Counter
	mDelays *metrics.Counter
}

// linkState tracks one undirected NIC pair.
type linkState struct {
	down     bool
	cutAfter int64 // cut once ops reaches this count; 0 = no trigger
	ops      int64

	// FlapLinkByOps state: every flapPeriod-th work request loses its first
	// flapDrops attempts; flapQP is the queue pair whose request is being
	// flapped right now ("" = none).
	flapPeriod int64
	flapDrops  int
	reqs       int64
	flapQP     string
}

// faultAction is the injector's verdict for one transmission attempt.
type faultAction uint8

const (
	faultNone faultAction = iota
	faultDrop
	faultDelay
	faultFailQP
)

// NewFaultInjector creates an injector whose probabilistic decisions are
// driven by the given seed.
func NewFaultInjector(seed int64) *FaultInjector {
	return &FaultInjector{
		rng:       rand.New(rand.NewSource(seed)),
		failedQPs: make(map[string]bool),
		isolated:  make(map[string]bool),
		links:     make(map[string]*linkState),
	}
}

// SetDropRate makes each transmission attempt drop with probability p.
// Dropped attempts are retried by the transport; see the type comment.
func (fi *FaultInjector) SetDropRate(p float64) {
	fi.mu.Lock()
	fi.dropRate = p
	fi.mu.Unlock()
}

// SetDelay makes each attempt stall for d with probability p, modelling
// congestion or a busy switch rather than loss.
func (fi *FaultInjector) SetDelay(p float64, d time.Duration) {
	fi.mu.Lock()
	fi.delayRate = p
	fi.delay = d
	fi.mu.Unlock()
}

// DropNext deterministically drops the next n transmission attempts,
// fabric-wide.
func (fi *FaultInjector) DropNext(n int) {
	fi.mu.Lock()
	fi.dropNext += int64(n)
	fi.mu.Unlock()
}

// FailQP kills the queue pair with the given ID (see QueuePair.ID): its next
// work request completes with StatusRetryExceeded immediately, without
// consuming the retry budget — the "HCA reported the QP dead" case.
func (fi *FaultInjector) FailQP(id string) {
	fi.mu.Lock()
	fi.failedQPs[id] = true
	fi.mu.Unlock()
}

// CutLink partitions the undirected link between NICs a and b: every attempt
// in either direction drops until RestoreLink.
func (fi *FaultInjector) CutLink(a, b string) {
	fi.mu.Lock()
	fi.link(a, b).down = true
	fi.mu.Unlock()
}

// CutLinkAfterOps arms a deterministic mid-stream cut: the link between a
// and b goes down once n transmission attempts (either direction, any QP)
// have traversed it.
func (fi *FaultInjector) CutLinkAfterOps(a, b string, n int64) {
	fi.mu.Lock()
	ls := fi.link(a, b)
	ls.cutAfter = ls.ops + n
	fi.mu.Unlock()
}

// FlapLinkByOps flaps the link between a and b on op counts instead of wall
// time: every period-th work request that traverses it (either direction, any
// QP) finds the link down for its first drops transmission attempts and gets
// through on the next. Because the outage is counted in the victim's own
// attempts, no scheduling delay can stretch it: with drops within the
// transport retry budget the flap is invisible by construction. period <= 0
// turns it off; so does RestoreLink.
func (fi *FaultInjector) FlapLinkByOps(a, b string, period int64, drops int) {
	fi.mu.Lock()
	ls := fi.link(a, b)
	ls.flapPeriod, ls.flapDrops = period, drops
	ls.reqs, ls.flapQP = 0, ""
	fi.mu.Unlock()
}

// RestoreLink heals the link between a and b. Requests still inside their
// retry budget resume on the next attempt — a cut-plus-restore shorter than
// the budget is a link flap the transport absorbs.
func (fi *FaultInjector) RestoreLink(a, b string) {
	fi.mu.Lock()
	ls := fi.link(a, b)
	ls.down = false
	ls.cutAfter = 0
	ls.flapPeriod, ls.flapQP = 0, ""
	fi.mu.Unlock()
}

// LinkDown reports whether the link between a and b is currently cut.
func (fi *FaultInjector) LinkDown(a, b string) bool {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.link(a, b).down
}

// IsolateNIC drops every attempt to or from the named NIC — the whole node
// falls off the fabric (power loss, HCA death).
func (fi *FaultInjector) IsolateNIC(name string) {
	fi.mu.Lock()
	fi.isolated[name] = true
	fi.mu.Unlock()
}

// RestoreNIC reattaches an isolated NIC.
func (fi *FaultInjector) RestoreNIC(name string) {
	fi.mu.Lock()
	delete(fi.isolated, name)
	fi.mu.Unlock()
}

// FaultStats counts injected faults.
type FaultStats struct {
	// Drops is the number of transmission attempts dropped.
	Drops uint64
	// Delays is the number of attempts delayed.
	Delays uint64
	// QPFailures is the number of attempts killed by FailQP.
	QPFailures uint64
}

// Stats snapshots the injector counters.
func (fi *FaultInjector) Stats() FaultStats {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return FaultStats{Drops: fi.drops, Delays: fi.delays, QPFailures: fi.qpFailures}
}

// attachMetrics mirrors the injector counters into a registry.
func (fi *FaultInjector) attachMetrics(reg *metrics.Registry) {
	fi.mu.Lock()
	fi.mDrops = reg.Counter(`rdma_faults_injected_total{kind="drop"}`)
	fi.mDelays = reg.Counter(`rdma_faults_injected_total{kind="delay"}`)
	fi.mu.Unlock()
}

// link returns the state for the undirected pair, creating it on first use.
// Callers hold fi.mu.
func (fi *FaultInjector) link(a, b string) *linkState {
	if b < a {
		a, b = b, a
	}
	key := a + "|" + b
	ls := fi.links[key]
	if ls == nil {
		ls = &linkState{}
		fi.links[key] = ls
	}
	return ls
}

// decide rules on transmission attempt number attempt (0 = first try) of the
// work request at the head of queue pair qpID, from local to remote.
// Deterministic rules (QP kill, link state) take precedence over
// probabilistic ones so a seeded scenario stays reproducible even with rates
// configured.
func (fi *FaultInjector) decide(local, remote, qpID string, attempt int) (faultAction, time.Duration) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if fi.failedQPs[qpID] {
		fi.qpFailures++
		return faultFailQP, 0
	}
	if fi.isolated[local] || fi.isolated[remote] {
		fi.drops++
		fi.mDrops.Inc()
		return faultDrop, 0
	}
	ls := fi.link(local, remote)
	ls.ops++
	if ls.cutAfter > 0 && ls.ops >= ls.cutAfter {
		ls.down = true
		ls.cutAfter = 0
	}
	if ls.down {
		fi.drops++
		fi.mDrops.Inc()
		return faultDrop, 0
	}
	if ls.flapPeriod > 0 {
		// A queue pair retries its head request before anything else, so
		// the attempts of one request are consecutive decisions on its QP.
		if attempt == 0 {
			ls.reqs++
			if ls.flapQP == "" && ls.reqs%ls.flapPeriod == 0 {
				ls.flapQP = qpID
			}
		}
		if ls.flapQP == qpID {
			if attempt < ls.flapDrops {
				fi.drops++
				fi.mDrops.Inc()
				return faultDrop, 0
			}
			ls.flapQP = ""
		}
	}
	if fi.dropNext > 0 {
		fi.dropNext--
		fi.drops++
		fi.mDrops.Inc()
		return faultDrop, 0
	}
	if fi.dropRate > 0 && fi.rng.Float64() < fi.dropRate {
		fi.drops++
		fi.mDrops.Inc()
		return faultDrop, 0
	}
	if fi.delayRate > 0 && fi.rng.Float64() < fi.delayRate {
		fi.delays++
		fi.mDelays.Inc()
		return faultDelay, fi.delay
	}
	return faultNone, 0
}
