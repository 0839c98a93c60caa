package core

import (
	"errors"
	"fmt"
	"time"
)

// This file is the placement-mode entry to the recovery plane: the steps an
// external control plane (internal/cluster) composes into the fence →
// restore → replay sequence RestartNode runs in-process. ClusterFence,
// ClusterRestore and ClusterReplay wrap the same step functions RestartNode
// calls (recover.go); the coordinator orders them across processes:
//
//	survivors:  ClusterFreeze(true) → ClusterFence → [relink] → ClusterAdopt
//	newcomer:   ClusterSetIncarnation* → ClusterRestore
//	survivors:  ClusterReplay → ClusterFreeze(false)
//
// ClusterFreeze raises and releases the same hold barrier RestartNode does.
//
// Only the vote, the ordering and the kill (a real process death) live
// outside this process.

// ErrNotPlacement rejects Cluster* calls on a deployment without a Placement:
// in-process deployments run the same sequence through RestartNode.
var ErrNotPlacement = errors.New("core: not a placement deployment")

// ClusterFreeze raises (on=true) or releases (on=false) the member's restart
// hold. Held sources answer without flushing, so no flush targets a link
// mid-teardown; releasing bumps the retry generation so flushes parked on a
// dead link retry against the rebuilt mesh.
func (c *Controller) ClusterFreeze(on bool) error {
	if c.cfg.Placement == nil {
		return ErrNotPlacement
	}
	if on {
		_, err := c.run.raise(barrierHold)
		return err
	}
	if b := c.run.barrier.Load(); b != nil {
		c.run.release(b)
	}
	return nil
}

// ClusterFence is the fence step on a survivor: it severs this member's
// links to dead node x, installs x's new incarnation, and removes x from the
// live set. It returns the element-wise minimum of the owned backends'
// committed-epoch vectors — the member's contribution to the cluster-wide
// commit horizon the newcomer restores to. The member must be held
// (ClusterFreeze); the rings feeding x are kept for ClusterReplay.
func (c *Controller) ClusterFence(x, newInc int) ([]uint64, error) {
	if c.cfg.Placement == nil {
		return nil, ErrNotPlacement
	}
	hold := c.run.barrier.Load()
	if hold == nil || hold.mode != barrierHold {
		return nil, errors.New("core: ClusterFence requires a held member")
	}
	if x < 0 || x >= c.cfg.MaxNodes {
		return nil, fmt.Errorf("core: node %d out of range", x)
	}
	// Close the send halves toward x ahead of the wait, so a step blocked on
	// x's credit fails and parks instead of holding up the hold's answers.
	c.mu.Lock()
	for m := range c.producers {
		if p := c.producers[m][x]; p != nil {
			p.Close()
		}
	}
	c.mu.Unlock()
	if err := c.run.await(hold, c.liveSources(x)); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fence(x, newInc), nil
}

// ClusterSetIncarnation installs node's incarnation as distributed by the
// coordinator. A respawned member calls it for every node before
// ClusterRestore, so the links it builds and the chunks it stamps carry the
// cluster's current incarnation view.
func (c *Controller) ClusterSetIncarnation(node, inc int) error {
	if c.cfg.Placement == nil {
		return ErrNotPlacement
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if node < 0 || node >= c.cfg.MaxNodes {
		return fmt.Errorf("core: node %d out of range", node)
	}
	c.nodeInc[node] = inc
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

// ClusterRestore is the restore step on a respawned member: it rebuilds
// owned node x from its journal (re-emitting journaled sink rows — the
// member's sink died with its predecessor) with source replay plans cut at
// the cluster-wide commit horizon. peerCommitted is the element-wise minimum
// of the survivors' ClusterFence vectors. Returns the restored
// committed-epoch vector survivors filter their ring replay with.
func (c *Controller) ClusterRestore(x int, peerCommitted []uint64) ([]uint64, error) {
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
	default:
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
