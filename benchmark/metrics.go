package main

// metricDef names one metric the driver emits. BENCHMARK.json at the root of
// the repository lists exactly these (a test holds the two together).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: relative worsening that is a regression
}

// endToEnd is what a user of the stack sees, per workload. Failures are not
// in this list because a metric here must never read 0: they are the
// attempted/failed counts of every result, and any failure fails the run.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "round_best_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "allocs_per_job", Unit: "count", Better: "lower", Bound: 0.03},
	{Name: "alloc_kb_per_job", Unit: "KiB", Better: "lower", Bound: 0.12},
	{Name: "live_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.20},
}

// perLayer is what the traced run attributes to single layers, as
// <layer>.<name>. A metric that has no meaning on a workload (nexthop.* off
// chain-2hop, core.* off plan-grid, engine.* on plan-grid, ...) reads 0 there.
var perLayer = []metricDef{
	// engine: isolated probes on the workload's own model and cut.
	{Name: "engine.forward_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.prefix_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.suffix_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.conv_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.dense_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.dwconv_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.other_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.units_over_forward", Unit: "ratio", Better: "lower"},
	{Name: "engine.gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "engine.batch_ms_per_inference", Unit: "ms", Better: "lower"},
	{Name: "engine.load_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.quantize_ms", Unit: "ms", Better: "lower"},

	// wire: exact counts at the client's sockets, and a ping fit.
	{Name: "wire.up_bytes_per_job", Unit: "B", Better: "lower"},
	{Name: "wire.down_bytes_per_job", Unit: "B", Better: "lower"},
	{Name: "wire.writes_per_job", Unit: "count", Better: "lower"},
	{Name: "wire.reads_per_job", Unit: "count", Better: "lower"},
	{Name: "wire.ping_w0_us", Unit: "us", Better: "lower"},
	{Name: "wire.ping_us_per_kb", Unit: "us/KiB", Better: "lower"},

	// client and server: sums of the JobResult fields, and the server's own
	// counters.
	{Name: "client.mobile_ms_per_job", Unit: "ms", Better: "lower"},
	{Name: "client.comm_ms_per_job", Unit: "ms", Better: "lower"},
	{Name: "server.cloud_ms_per_job", Unit: "ms", Better: "lower"},
	{Name: "server.queue_ms_per_job", Unit: "ms", Better: "lower"},
	{Name: "server.batch_mean", Unit: "count", Better: "higher"},
	{Name: "server.shed_jobs", Unit: "count", Better: "lower"},

	// stage: mean ms per job from the runtime's own span ring.
	{Name: "stage.local_compute_ms", Unit: "ms", Better: "lower"},
	{Name: "stage.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "stage.serialize_ms", Unit: "ms", Better: "lower"},
	{Name: "stage.upload_ms", Unit: "ms", Better: "lower"},
	{Name: "stage.reply_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "stage.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "stage.sched_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "stage.coalesce_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "stage.cloud_compute_ms", Unit: "ms", Better: "lower"},
	{Name: "stage.reply_write_ms", Unit: "ms", Better: "lower"},

	// nexthop: what the delay line on the backhaul sees.
	{Name: "nexthop.ms_per_job", Unit: "ms", Better: "lower"},
	{Name: "nexthop.max_in_flight", Unit: "count", Better: "higher"},
	{Name: "nexthop.forwards_per_job", Unit: "count", Better: "lower"},
	{Name: "nexthop.backhaul_bytes_per_job", Unit: "B", Better: "lower"},

	// planner: isolated probes, mean per grid cell.
	{Name: "profile.build_curve_us", Unit: "us", Better: "lower"},
	{Name: "core.jps_us", Unit: "us", Better: "lower"},
	{Name: "core.replan_us", Unit: "us", Better: "lower"},
	{Name: "core.jpsplus_ms", Unit: "ms", Better: "lower"},
	{Name: "core.jpschain2_ms", Unit: "ms", Better: "lower"},
	{Name: "core.jpschain3_ms", Unit: "ms", Better: "lower"},
	{Name: "core.plan_general_ms", Unit: "ms", Better: "lower"},
	{Name: "flowshop.johnson_us", Unit: "us", Better: "lower"},
	{Name: "flowshop.schedulem_us", Unit: "us", Better: "lower"},
	{Name: "sim.run_us", Unit: "us", Better: "lower"},
	{Name: "core.jps_allocs", Unit: "count", Better: "lower"},
	{Name: "core.jpschain2_allocs", Unit: "count", Better: "lower"},
	{Name: "core.jps_model_ms_sum", Unit: "ms", Better: "lower"},
	{Name: "core.chain_model_ms_sum", Unit: "ms", Better: "lower"},

	// netsim: the shaper against its own nominal rate, and the measured
	// makespan against Prop 4.1.
	{Name: "netsim.pacing_ratio", Unit: "ratio", Better: "higher"},
	{Name: "netsim.makespan_over_model", Unit: "ratio", Better: "lower"},

	// Diagnostics: reported, never gated.
	{Name: "rounds.count", Unit: "count", Better: "higher"},
	{Name: "rounds.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "rounds.p90_ms", Unit: "ms", Better: "lower"},
	{Name: "rounds.tail_ms", Unit: "ms", Better: "lower"},
	{Name: "rounds.tail_pct", Unit: "%", Better: "higher"},
	{Name: "proc.cpu_ms_per_job", Unit: "ms", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// value is one measured metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// valuesFor pairs measured numbers with the defs' units; a def without a
// measurement reads 0.
func valuesFor(defs []metricDef, got map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: got[d.Name], Unit: d.Unit}
	}
	return out
}
