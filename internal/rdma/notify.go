package rdma

import (
	"sync"
	"sync/atomic"
)

// Notifier is the one-shot arm/notify half of a completion channel, the
// simulator's ibv_req_notify_cq: a waiter arms it with a channel it owns,
// and the next Notify disarms it and sends that channel one token. It sits
// at an endpoint's single publication point — a region's write version, a
// CQ's push — so a token means only "something was published here since you
// armed"; the waiter must re-read whatever it waits on, because the token
// is neither the data nor a promise that the data is what it wanted.
//
// The arm → re-check → sleep order is what makes it lossless. Arm stores
// the armed flag before the waiter re-reads its condition, and a publisher
// updates the data before it loads the flag; Go atomics are sequentially
// consistent, so either the publisher sees the flag and sends a token or
// the waiter's re-read sees the data. An unarmed Notify costs one atomic
// load. The zero value is ready to use.
type Notifier struct {
	armed atomic.Bool
	mu    sync.Mutex
	wake  chan<- struct{}
}

// Arm makes the next Notify send one token on wake. It replaces an earlier
// arm that has not fired. wake should be buffered: the send never blocks,
// so a token that finds the buffer full is dropped — the waiter already has
// one to wake on.
func (n *Notifier) Arm(wake chan<- struct{}) {
	n.mu.Lock()
	n.wake = wake
	n.armed.Store(true)
	n.mu.Unlock()
}

// Notify disarms the notifier and sends the armed channel one token without
// blocking. Called after the publication it announces.
func (n *Notifier) Notify() {
	if !n.armed.Load() {
		return
	}
	n.mu.Lock()
	wake := n.wake
	n.wake = nil
	n.armed.Store(false)
	n.mu.Unlock()
	if wake != nil {
		select {
		case wake <- struct{}{}:
		default:
		}
	}
}
