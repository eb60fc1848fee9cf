package main

// A metricDef names one metric of BENCHMARK.json. bound is the share
// of the parent's median by which an end-to-end metric may get worse;
// per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the service sees, reported for
// every workload by an untraced run. The two timings are taken from the
// quiet tenth of the window (quietPercentile in run.go says why). The
// window's median and 90th-percentile latency are not among them: on
// the shared sandbox they ranged by 40% between runs of the same
// inputs, so by the rule of ISSUE 11 they are reported per layer
// (serve.latency_p50_ms, serve.latency_p90_ms) instead of being given
// a bound they cannot keep.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"throughput_rps", "1/s", higher, 0.25},
	{"latency_p10_ms", "ms", lower, 0.25},
}

// perLayer are the metrics of single layers, named <module>.<metric>
// and reported by a traced run. Timings and sizes of the replayed
// entry points are medians over the traced requests; counters are
// deltas over the window.
var perLayer = []metricDef{
	{"spice.parse_ms", "ms", lower, 0},
	{"spice.parse_mb_s", "MB/s", higher, 0},
	{"circuit.validate_ms", "ms", lower, 0},
	{"circuit.network_ms", "ms", lower, 0},
	{"circuit.assemble_ms", "ms", lower, 0},
	{"circuit.unknowns", "count", lower, 0},
	{"cache.fingerprint_ms", "ms", lower, 0},
	{"cache.routing_fp_ms", "ms", lower, 0},
	{"cache.find_warm_ms", "ms", lower, 0},
	{"cache.delta_ms", "ms", lower, 0},
	{"cache.hits", "count", higher, 0},
	{"cache.misses", "count", lower, 0},
	{"cache.stores", "count", lower, 0},
	{"cache.evictions", "count", lower, 0},
	{"cache.hit_ratio", "ratio", higher, 0},
	{"cache.bytes_end", "B", lower, 0},
	{"amg.setup_ms", "ms", lower, 0},
	{"amg.levels", "count", lower, 0},
	{"amg.op_complexity", "ratio", lower, 0},
	{"amg.apply_us", "us", lower, 0},
	{"solver.pcg_ms", "ms", lower, 0},
	{"solver.iters", "count", lower, 0},
	{"solver.warm_pcg_ms", "ms", lower, 0},
	{"solver.warm_iters", "count", lower, 0},
	{"solver.rough_ms", "ms", lower, 0},
	{"solver.residual", "ratio", lower, 0},
	{"sparse.spmv_us", "us", lower, 0},
	{"sparse.nnz", "count", lower, 0},
	{"sparse.spmv_computed_gb_s", "GB/s", higher, 0},
	{"features.structure_ms", "ms", lower, 0},
	{"features.numerical_ms", "ms", lower, 0},
	{"features.rasterize_ms", "ms", lower, 0},
	{"dataset.build_ms", "ms", lower, 0},
	{"dataset.golden_share", "ratio", lower, 0},
	{"core.analyze_cold_ms", "ms", lower, 0},
	{"core.analyze_hit_ms", "ms", lower, 0},
	{"core.analyze_warm_ms", "ms", lower, 0},
	{"core.predict_ms", "ms", lower, 0},
	{"core.fused_mae_mv", "mV", lower, 0},
	{"nn.gemm_calls", "count", lower, 0},
	{"serve.window_rps", "1/s", higher, 0},
	{"serve.latency_p50_ms", "ms", lower, 0},
	{"serve.latency_p90_ms", "ms", lower, 0},
	{"serve.roundtrip_ms", "ms", lower, 0},
	{"serve.hit_roundtrip_ms", "ms", lower, 0},
	{"serve.overhead_ms", "ms", lower, 0},
	{"serve.req_mb", "MB", lower, 0},
	{"serve.resp_kb", "kB", lower, 0},
	{"serve.manifest_kb", "kB", lower, 0},
	{"serve.alloc_mb_per_req", "MB", lower, 0},
	{"serve.jobs_done", "count", higher, 0},
	{"serve.jobs_failed", "count", lower, 0},
	{"serve.jobs_rejected", "count", lower, 0},
	{"cluster.gateway_overhead_ms", "ms", lower, 0},
	{"cluster.hit_p50_ms", "ms", lower, 0},
	{"cluster.eco_p50_ms", "ms", lower, 0},
	{"cluster.forwards", "count", lower, 0},
	{"cluster.handoffs", "count", lower, 0},
	{"cluster.affinity_ratio", "ratio", higher, 0},
	{"cluster.shard_balance", "ratio", lower, 0},
	{"journal.append_us", "us", lower, 0},
	{"journal.blob_save_ms", "ms", lower, 0},
	{"journal.records_per_job", "count", lower, 0},
	{"journal.bytes_per_job", "B", lower, 0},
	{"parallel.par_share", "ratio", higher, 0},
	{"parallel.tasks_per_req", "count", lower, 0},
	{"loadgen.late_p90_ms", "ms", lower, 0},
	{"loadgen.samples", "count", higher, 0},
	{"loadgen.slo_share", "ratio", higher, 0},
	{"trace_s", "s", lower, 0},
}
