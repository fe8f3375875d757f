package main

// spec.go is the benchmark's vocabulary: the metric names with their
// units, in the order they print (main.go lists the workloads).
// BENCHMARK.json at the repository root declares the same names, plus the
// regression bounds; TestSpecMatchesBenchmarkJSON keeps the two from
// drifting.

// decl declares one metric.
type decl struct {
	Name string
	Unit string
}

// endToEnd is what a caller of the system (or, for sim_fleet, a reader of
// the reproduction) sees. Every workload reports every one of them.
var endToEnd = []decl{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"allocs_per_op", "count"},
}

// perLayer is the traced pass. Layers are this repository's package
// names. The first block is the layer probes, which run in every traced
// pass so that each time below is measured on every workload; the rest
// are counters and shares read off the traced slice of the workload
// itself, 0 where the workload does not exercise the layer.
var perLayer = []decl{
	// Ladder rungs: one seeded request stream through taller stacks.
	{"httpapi.decode_ns", "ns"},
	{"httpapi.encode_response_ns", "ns"},
	{"httpapi.encode_request_ns", "ns"},
	{"platform.invoke_ns", "ns"},
	{"platform.invoke_allocs", "count"},
	{"gateway.handler_ns", "ns"},
	{"gateway.handler_allocs", "count"},
	{"gateway.roundtrip_ns", "ns"},
	{"router.ring_candidates_ns", "ns"},
	{"router.policy_assign_ns", "ns"},
	{"pullsched.enqueue_complete_ns", "ns"},
	{"router.invoke_ns", "ns"},
	{"router.invoke_allocs", "count"},
	{"router.roundtrip_ns", "ns"},
	// Self times: a rung's median minus those of the rungs it contains.
	{"gateway.handler_self_ns", "ns"},
	{"gateway.http_self_ns", "ns"},
	{"router.forward_self_ns", "ns"},
	{"router.http_self_ns", "ns"},
	// Stand-alone layer probes.
	{"dispatch.arrive_ns", "ns"},
	{"multiplex.get_hit_ns_p50", "ns"},
	{"multiplex.get_miss_ns_p50", "ns"},
	{"sim.schedule_step_ns", "ns"},
	{"sim.allocs_per_event", "count"},
	{"scenario.parse_ms", "ms"},
	// Router counters (routed_* slices).
	{"router.forwarded", "count"},
	{"router.retries", "count"},
	{"router.forward_imbalance", "ratio"},
	{"pullsched.granted", "count"},
	{"pullsched.requeues", "count"},
	{"pullsched.shed", "count"},
	// Invoke Mapper and Inline-Parallel Producer (live slices): where the
	// platform-reported latency went, and what it cost in containers.
	{"platform.latency_share", "share"},
	{"mapper.sched_share", "share"},
	{"producer.cold_share", "share"},
	{"producer.queue_share", "share"},
	{"handler.exec_share", "share"},
	{"mapper.groups", "count"},
	{"mapper.avg_group_size", "count"},
	{"mapper.fast_path_dispatches", "count"},
	{"mapper.early_closes", "count"},
	{"mapper.window_dispatches", "count"},
	{"producer.containers_created", "count"},
	{"producer.containers_per_1k", "count"},
	{"producer.warm_starts", "count"},
	{"producer.warm_share", "share"},
	{"platform.retries", "count"},
	{"platform.failures", "count"},
	{"platform.canceled", "count"},
	// Resource Multiplexer (slices whose handler creates a client).
	{"multiplex.hits", "count"},
	{"multiplex.misses", "count"},
	{"multiplex.coalesced", "count"},
	{"multiplex.evictions", "count"},
	{"multiplex.hit_ratio", "share"},
	// Simulator (sim_fleet slice).
	{"scenario.allocs_per_invocation", "count"},
	{"scenario.invariants_held", "count"},
	{"core.groups", "count"},
	{"core.avg_group_size", "count"},
	{"cluster.warm_share", "share"},
	{"cluster.containers_per_1k", "count"},
	{"cluster.peak_mem_mb", "MB"},
	// Generator and process.
	{"client.latency_p99_ms", "ms"},
	{"client.achieved_rps", "1/s"},
	{"proc.peak_rss_mb", "MB"},
	{"proc.gc_cpu_share", "share"},
	{"trace.overhead_share", "share"},
}
