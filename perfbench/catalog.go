package main

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's contract: BENCHMARK.json at the repository root carries
// the same names and units (harness_test.go checks that they agree).
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the library or the service sees. Every
// workload reports every one; DESIGN.md defines each on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"solves_per_s", "solves/s"},
	{"evals_per_s", "evaluations/s"},
	{"solve_p50_ms", "ms"},
	{"solve_p95_ms", "ms"},
	{"mean_fitness", "fitness"},
	{"req_p50_ms", "ms"},
	{"req_p95_ms", "ms"},
	{"goodput_rps", "req/s"},
	{"capacity_rps", "req/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer is what the traced pass measures at each layer boundary. A
// layer a workload does not reach reads 0 there.
var perLayer = []metricDef{
	{"wmn.generate_ms", "ms"},
	{"wmn.evaluator_build_us", "us"},
	{"wmn.step_ns", "ns"},
	{"placement.place_us", "us"},
	{"localsearch.proposals", "count"},
	{"localsearch.phases", "count"},
	{"localsearch.propose_ns", "ns"},
	{"localsearch.propose_share", "ratio"},
	{"localsearch.accept_ratio", "ratio"},
	{"ga.generations", "count"},
	{"ga.gen_us", "us"},
	{"ga.init_ms", "ms"},
	{"server.hit", "count"},
	{"server.store_hit", "count"},
	{"server.dedup_wait", "count"},
	{"server.miss", "count"},
	{"server.hit_ratio", "ratio"},
	{"server.computations_per_request", "ratio"},
	{"server.queue_wait_us.p50", "us"},
	{"server.queue_wait_us.p99", "us"},
	{"server.batch_build_us", "us"},
	{"server.solve_us", "us"},
	{"server.total_us.hit", "us"},
	{"server.total_us.store_hit", "us"},
	{"server.total_us.dedup_wait", "us"},
	{"server.total_us.miss", "us"},
	{"server.outside_us", "us"},
	{"server.batch_size_mean", "count"},
	{"server.flush_timeout_ratio", "ratio"},
	{"cluster.forwarded_ratio", "ratio"},
	{"cluster.forward_fails", "count"},
	{"cluster.forward_extra_us", "us"},
	{"cluster.journal_appends", "count"},
	{"cluster.journal_bytes", "bytes"},
	{"cluster.store_hit_us", "us"},
	{"go.alloc_bytes_per_op", "B/op"},
	{"go.gc_cycles_per_s", "1/s"},
	{"go.gc_pause_share", "ratio"},
	{"harness.gen_lag_ms", "ms"},
	{"harness.trace_overhead", "ratio"},
}

// zeroLayers sets every per-layer metric the workload has not filled to
// 0: the layer is not on that workload's path.
func zeroLayers(rep *report) {
	for _, d := range perLayer {
		if _, ok := rep.perLayer[d.name]; !ok {
			rep.perLayer[d.name] = 0
		}
	}
}
