package core

import (
	"errors"
	"fmt"
	"time"
)

// This file is the placement-mode entry to the recovery plane: the steps an
// external control plane (internal/cluster) orders into the hold → fence →
// restore → replay → release sequence RestartNode runs in-process. Each
// Cluster* method wraps the step function RestartNode calls (recover.go), and
// the coordinator sends one message per step:
//
//	survivors:  ClusterFence → ClusterAdopt
//	newcomer:   ClusterRestore
//	survivors:  ClusterReplay → ClusterRelease
//
// ClusterFence raises the same hold barrier RestartNode does and waits for it
// through the same fence helper (awaitHold); ClusterRelease lifts it.
//
// Only the vote, the ordering and the kill (a real process death) live
// outside this process.

// ErrNotPlacement rejects Cluster* calls on a deployment without a Placement:
// in-process deployments run the same sequence through RestartNode.
var ErrNotPlacement = errors.New("core: not a placement deployment")

// ClusterFence is the fence step on a survivor: it raises the restart hold,
// waits until every source answered it, then severs this member's links to
// dead node x, installs x's new incarnation, and removes x from the live
// set. It returns the element-wise minimum of the owned backends'
// committed-epoch vectors — the member's contribution to the cluster-wide
// commit horizon the newcomer restores to. The hold stays raised until
// ClusterRelease; the rings feeding x are kept for ClusterReplay.
func (c *Controller) ClusterFence(x, newInc int) ([]uint64, error) {
	if c.cfg.Placement == nil {
		return nil, ErrNotPlacement
	}
	if x < 0 || x >= c.cfg.MaxNodes {
		return nil, fmt.Errorf("core: node %d out of range", x)
	}
	hold, _ := c.run.raise(barrierHold)
	if err := c.awaitHold(hold, x); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fence(x, newInc), nil
}

// ClusterRelease is the release step: it lifts the member's restart hold, if
// one is in force. Releasing bumps the retry generation, so flushes parked on
// a dead link retry against the rebuilt mesh.
func (c *Controller) ClusterRelease() error {
	if c.cfg.Placement == nil {
		return ErrNotPlacement
	}
	if b := c.run.barrier.Load(); b != nil {
		c.run.release(b)
	}
	return nil
}

// ClusterAdopt wires the restored node x back into this member's mesh: fresh
// send halves toward x (stamped with x's new incarnation) and fresh inbound
// links from x, staged onto the merge tasks behind the fence's removals.
// Placement.Link must already resolve the rebuilt endpoints. The owned
// backends' clock entries for x's threads were never retired, so no
// re-activation is needed — x's replayed epochs advance them as the originals
// did.
func (c *Controller) ClusterAdopt(x int) error {
	if c.cfg.Placement == nil {
		return ErrNotPlacement
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if containsNode(c.live, x) {
		return fmt.Errorf("core: node %d is already live", x)
	}
	for _, m := range c.live {
		if c.backends[m] == nil {
			continue
		}
		if _, err := c.wirePair(x, m); err != nil {
			return err
		}
	}
	c.live = append(c.live, x)
	c.setPeers()
	return nil
}

// ClusterRestore is the restore step on a respawned member: it installs the
// cluster's incarnation view incs (indexed by node), so the links it builds
// and the chunks it stamps carry it, then rebuilds owned node x from its
// journal (re-emitting journaled sink rows — the member's sink died with its
// predecessor) with source replay plans cut at the cluster-wide commit
// horizon. peerCommitted is the element-wise minimum of the survivors'
// ClusterFence vectors. Returns the restored committed-epoch vector
// survivors filter their ring replay with.
func (c *Controller) ClusterRestore(x int, incs []int, peerCommitted []uint64) ([]uint64, error) {
	if c.cfg.Placement == nil {
		return nil, ErrNotPlacement
	}
	if c.cfg.Recovery == nil {
		return nil, errors.New("core: recovery is not configured")
	}
	start := time.Now()
	var restored []uint64
	var err error
	c.mu.Lock()
	switch {
	case !c.started:
		err = ErrNotRunning
	case containsNode(c.live, x):
		err = fmt.Errorf("core: node %d is already live", x)
	case !c.cfg.Placement.Owned(x):
		err = fmt.Errorf("core: node %d is not owned by this member", x)
	case len(incs) > len(c.nodeInc):
		err = fmt.Errorf("core: incarnation view of %d nodes exceeds MaxNodes %d", len(incs), len(c.nodeInc))
	default:
		copy(c.nodeInc, incs)
		// oldDone is nil: the dead process never published its run totals
		// (publication happens only at FinishStream success), so every
		// restored thread republishes from its journaled counters.
		restored, err = c.restore(x, peerCommitted, nil)
	}
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	c.recordRecovery(x, start, 0)
	return restored, nil
}

// ClusterReplay is the replay step on a survivor: it re-delivers this
// member's retained ring entries above the restored node's commit horizon,
// in order, through the links ClusterAdopt rebuilt. Returns the number of
// chunks replayed. A link failure mid-replay is returned, not voted on
// locally: the coordinator decides whether the run survives it.
func (c *Controller) ClusterReplay(x int, restored []uint64) (int, error) {
	if c.cfg.Placement == nil {
		return 0, ErrNotPlacement
	}
	return c.replay(x, restored)
}

// ClusterAbort fails the member's run with err: the coordinator observed a
// fatal cluster condition (or a test is killing this in-process member) and
// every task must stop. Idempotent; the first failure wins.
func (c *Controller) ClusterAbort(err error) {
	if err == nil {
		err = errors.New("core: cluster aborted")
	}
	c.run.fail(err)
}
