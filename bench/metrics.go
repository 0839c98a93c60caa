package main

// metricDef names one metric of the benchmark. BENCHMARK.json lists the same
// names, units, directions and bounds (bench_test.go holds the two in step);
// this table is what the program prints units from and what `compare` takes
// its bounds from.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end metric
	// may get worse before a change counts as a regression. Zero on per-layer
	// metrics, which have no bound.
	Bound float64
	// Moves says, for a per-layer metric, which end-to-end metric it should
	// move and on which workload (choosing-metrics §3).
	Moves string
}

// endToEnd is what a user of the engine sees. Every workload reports every
// one of them with tracing off (Config.Metrics == nil).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "records_per_s", Unit: "1/s", Better: "higher", Bound: 0.15},
	{Name: "emit_latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "emit_latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

const (
	movesSource  = "records_per_s on ysb_replay; little on nb8_join_replay; nothing on emit_latency_*"
	movesSync    = "records_per_s on nb8_join_replay and nb8_cluster_tcp; nothing on ysb_replay"
	movesTrigger = "emit_latency_p50_ms and emit_latency_p90_ms on ysb_paced and cm_paced_stateq; not records_per_s on the replays"
	movesState   = "stateq.lookup_p50_us on cm_paced_stateq; publication cost moves emit_latency_p50_ms there and nothing on ysb_paced"
	movesCluster = "records_per_s on nb8_cluster_tcp only"
	movesMicro   = "none directly: the pair-vs-trunk decision rows (ROADMAP item 2)"
	movesProcess = "reported for every workload; explains a moved number, moves none"
)

// perLayer is measured in the traced passes only. A value of 0 means the
// layer is not on that workload's path.
var perLayer = []metricDef{
	// Source loop.
	{Name: "workload.fill_ns_per_rec", Unit: "ns", Better: "lower", Moves: movesSource},
	{Name: "core.operators_ns_per_rec", Unit: "ns", Better: "lower", Moves: movesSource},
	{Name: "core.step_glue_ns_per_rec", Unit: "ns", Better: "lower", Moves: movesSource},
	{Name: "window.assign_ns_per_rec", Unit: "ns", Better: "lower", Moves: movesSource},
	{Name: "ssb.update_ns_per_rec", Unit: "ns", Better: "lower", Moves: movesSource},
	{Name: "trace.single_thread_records_per_s", Unit: "1/s", Better: "higher", Moves: movesSource},
	// Flush, transport and merge.
	{Name: "ssb.flush_ns_per_chunk", Unit: "ns", Better: "lower", Moves: movesSync},
	{Name: "ssb.chunk_encode_ns_per_chunk", Unit: "ns", Better: "lower", Moves: movesSync},
	{Name: "ssb.chunk_decode_ns_per_chunk", Unit: "ns", Better: "lower", Moves: movesSync},
	{Name: "ssb.merge_ns_per_chunk", Unit: "ns", Better: "lower", Moves: movesSync},
	{Name: "ssb.chunks_per_mrec", Unit: "count", Better: "lower", Moves: movesSync},
	{Name: "ssb.chunk_bytes_per_rec", Unit: "B", Better: "lower", Moves: movesSync},
	{Name: "channel.send_ns_per_slot", Unit: "ns", Better: "lower", Moves: movesSync},
	{Name: "channel.recv_ns_per_slot", Unit: "ns", Better: "lower", Moves: movesSync},
	{Name: "channel.credit_stall_ns_per_slot", Unit: "ns", Better: "lower", Moves: movesSync},
	{Name: "channel.credit_stalls_per_kslot", Unit: "count", Better: "lower", Moves: movesSync},
	{Name: "channel.acquire_spins_per_slot", Unit: "count", Better: "lower", Moves: movesSync},
	{Name: "channel.poll_miss_ratio", Unit: "ratio", Better: "lower", Moves: movesSync},
	{Name: "channel.credit_writes_per_slot", Unit: "count", Better: "lower", Moves: movesSync},
	{Name: "channel.backlog_slots_max", Unit: "count", Better: "lower", Moves: movesSync},
	{Name: "rdma.tx_bytes_per_rec", Unit: "B", Better: "lower", Moves: movesSync},
	{Name: "rdma.tx_msgs_per_mrec", Unit: "count", Better: "lower", Moves: movesSync},
	{Name: "rdma.post_to_completion_p50_ns", Unit: "ns", Better: "lower", Moves: movesSync},
	// Trigger, emit and scheduling.
	{Name: "ssb.trigger_ns_per_window", Unit: "ns", Better: "lower", Moves: movesTrigger},
	{Name: "sink.emit_ns_per_row", Unit: "ns", Better: "lower", Moves: movesTrigger},
	{Name: "sink.rows_per_window", Unit: "count", Better: "lower", Moves: movesTrigger},
	{Name: "sink.emit_latency_p99_ms", Unit: "ms", Better: "lower", Moves: movesTrigger},
	{Name: "core.source_step_p50_ns", Unit: "ns", Better: "lower", Moves: movesTrigger},
	{Name: "core.merge_step_p50_ns", Unit: "ns", Better: "lower", Moves: movesTrigger},
	{Name: "core.merge_step_p99_ns", Unit: "ns", Better: "lower", Moves: movesTrigger},
	{Name: "sched.ready_step_ratio", Unit: "ratio", Better: "higher", Moves: movesTrigger},
	{Name: "sched.idle_rounds_per_mrec", Unit: "count", Better: "lower", Moves: movesTrigger},
	{Name: "workload.source_lag_p99_ms", Unit: "ms", Better: "lower", Moves: movesTrigger},
	// State plane.
	{Name: "stateq.lookup_p50_us", Unit: "us", Better: "lower", Moves: movesState},
	{Name: "stateq.lookup_p99_us", Unit: "us", Better: "lower", Moves: movesState},
	{Name: "stateq.lookup_ns", Unit: "ns", Better: "lower", Moves: movesState},
	{Name: "stateq.topk_ns", Unit: "ns", Better: "lower", Moves: movesState},
	{Name: "stateq.windows_ns", Unit: "ns", Better: "lower", Moves: movesState},
	{Name: "stateq.publish_ns_per_chunk", Unit: "ns", Better: "lower", Moves: movesState},
	{Name: "stateq.torn_read_ratio", Unit: "ratio", Better: "lower", Moves: movesState},
	{Name: "stateq.redials", Unit: "count", Better: "lower", Moves: movesState},
	{Name: "stateq.retries_exhausted_per_mop", Unit: "count", Better: "lower", Moves: movesState},
	// Cross-process path.
	{Name: "netfab.transfer_ns_4k", Unit: "ns", Better: "lower", Moves: movesCluster},
	{Name: "netfab.transfer_allocs_4k", Unit: "count", Better: "lower", Moves: movesCluster},
	{Name: "cluster.bringup_teardown_ms", Unit: "ms", Better: "lower", Moves: movesCluster},
	{Name: "recovery.journal_bytes_per_mrec", Unit: "B", Better: "lower", Moves: movesCluster},
	// Transport micro rows, 4 KiB slots.
	{Name: "rdma.post_write_ns_4k", Unit: "ns", Better: "lower", Moves: movesMicro},
	{Name: "channel.pair_transfer_ns_4k", Unit: "ns", Better: "lower", Moves: movesMicro},
	{Name: "channel.trunk_transfer_ns_4k", Unit: "ns", Better: "lower", Moves: movesMicro},
	// Process level.
	{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower", Moves: movesProcess},
	{Name: "runtime.alloc_bytes_per_rec", Unit: "B", Better: "lower", Moves: movesProcess},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Moves: movesProcess},
	{Name: "trace.coverage_pct", Unit: "%", Better: "higher", Moves: movesProcess},
	{Name: "trace.source_loop_share_pct", Unit: "%", Better: "higher", Moves: movesProcess},
	{Name: "trace.sync_share_pct", Unit: "%", Better: "lower", Moves: movesProcess},
}
