// Package rdma simulates a Remote Direct Memory Access (RDMA) fabric in
// process. It reproduces the verbs semantics that the Slash protocols depend
// on, without requiring InfiniBand hardware:
//
//   - Registered memory regions addressed by rkeys. Remote peers can only
//     touch memory that the owner registered, at byte granularity.
//   - Reliable-connection queue pairs with strict FIFO processing of posted
//     work requests. Writes never overtake each other (§6.2 of the paper).
//   - One-sided verbs (WRITE, READ, remote CAS and FETCH_ADD) that complete
//     with no CPU involvement on the passive side.
//   - Two-sided verbs (SEND/RECV) that consume posted receive buffers.
//   - Completion queues with selective signaling.
//   - One-shot arm/notify on completion queues and memory regions (the
//     ibv_req_notify_cq idiom), so a waiter can sleep instead of polling.
//
// One-sided WRITEs publish data the way the hardware does: payload bytes land
// in the remote region from lower to higher addresses and only then does the
// region's write version advance. A consumer that observes a new version via
// MemoryRegion.WriteVersion (an acquire load) is guaranteed to observe every
// byte of every write published before it, which is exactly the property the
// RDMA channel's footer-polling scheme (§6.3) relies on.
//
// The fabric carries a cost model: each NIC accounts transferred bytes
// against a configurable line rate and each message against a base one-way
// latency. In the default accounting mode the costs are only recorded (so
// tests and benchmarks run at full host speed and simulated network time can
// be reported); in throttle mode the engines pace wall-clock time, which is
// used by the latency- and saturation-shaped experiments (Fig. 8).
package rdma
