package main

import "dynaspam/internal/cpistack"

// metricDef names one reported metric, its unit and which direction is
// better. The lists below are the benchmark's contract with
// BENCHMARK.json: an untraced run prints every endToEnd metric, a traced
// run every perLayer metric.
type metricDef struct {
	name, unit string
	higher     bool
}

// higherIsBetter lists the per-layer metrics that improve upward: useful
// work done and the ratios of useful outcomes to attempts. Every other
// per-layer metric (times, shares, waste, simulated cycles) is better
// lower.
var higherIsBetter = map[string]bool{
	"core.map_success_ratio": true, "core.offloads": true, "core.offload_commit_ratio": true,
	"ooo.committed": true, "tcache.hit_rate": true, "cfgcache.hit_rate": true,
	"fabric.invocations": true, "fabric.ops": true, "interp.ff_insts": true,
	"core.sample_windows": true, "runner.worker_busy_ratio": true, "jobs.cache_hit_ratio": true,
	"model.speedup_geomean": true, "model.energy_reduction_geomean": true, "model.ipc": true,
}

var endToEnd = []metricDef{
	{"sim_minst_per_s", "Minst/s", true},
	{"setup_s", "s", false},
	{"peak_rss_mb", "MB", false},
	{"job_fresh_p50_s", "s", false},
	{"job_fresh_tail_s", "s", false},
	{"jobs_per_s", "1/s", true},
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{name: "core.new_s", unit: "s"}, {name: "core.run_s", unit: "s"}, {name: "core.verify_s", unit: "s"},
		{name: "core.mapping_sessions", unit: "count"}, {name: "core.map_success_ratio", unit: "ratio"},
		{name: "core.offloads", unit: "count"}, {name: "core.offload_denied", unit: "count"},
		{name: "core.offload_commit_ratio", unit: "ratio"}, {name: "core.traces_disabled", unit: "count"},
	}
	for _, l := range hostLayers {
		defs = append(defs, metricDef{name: "host." + l + "_share", unit: "ratio"})
	}
	defs = append(defs,
		metricDef{name: "ooo.committed", unit: "count"}, metricDef{name: "ooo.cycles", unit: "cycles"},
		metricDef{name: "ooo.issued", unit: "count"}, metricDef{name: "ooo.squashed", unit: "count"},
		metricDef{name: "ooo.branch_mispredicts", unit: "count"},
		metricDef{name: "tcache.hit_rate", unit: "ratio"}, metricDef{name: "cfgcache.hit_rate", unit: "ratio"},
		metricDef{name: "cfgcache.reconfigs", unit: "count"}, metricDef{name: "fabric.invocations", unit: "count"},
		metricDef{name: "fabric.ops", unit: "count"}, metricDef{name: "fabric.violations", unit: "count"},
		metricDef{name: "fabric.early_exits", unit: "count"},
		metricDef{name: "cache.l1d_miss_rate", unit: "ratio"}, metricDef{name: "cache.l2_miss_rate", unit: "ratio"},
		metricDef{name: "cache.mem_accesses", unit: "count"},
		metricDef{name: "interp.ff_insts", unit: "count"}, metricDef{name: "core.sample_windows", unit: "count"},
	)
	for _, c := range cpistack.Causes() {
		defs = append(defs, metricDef{name: "cpistack." + c.String(), unit: "cycles"})
	}
	defs = append(defs,
		metricDef{name: "runtime.alloc_bytes_per_kinst", unit: "B/kinst"},
		metricDef{name: "runtime.mallocs_per_kinst", unit: "1/kinst"},
		metricDef{name: "runtime.gc_cycles", unit: "count"}, metricDef{name: "runtime.gc_cpu_s", unit: "s"},
		metricDef{name: "workloads.new_memory_s", unit: "s"}, metricDef{name: "workloads.golden_s", unit: "s"},
		metricDef{name: "runner.worker_busy_ratio", unit: "ratio"},
		metricDef{name: "jobs.submit_s", unit: "s"}, metricDef{name: "jobs.queue_wait_s", unit: "s"},
		metricDef{name: "jobs.cell_wall_s", unit: "s"},
		metricDef{name: "jobs.cached_p50_s", unit: "s"}, metricDef{name: "jobs.cache_hit_ratio", unit: "ratio"},
		metricDef{name: "jobs.http_get_s", unit: "s"},
		metricDef{name: "model.speedup_geomean", unit: "x"}, metricDef{name: "model.energy_reduction_geomean", unit: "ratio"},
		metricDef{name: "model.cycles", unit: "cycles"}, metricDef{name: "model.ipc", unit: "inst/cycle"},
		metricDef{name: "trace_overhead_ratio", unit: "ratio"},
	)
	for i := range defs {
		defs[i].higher = higherIsBetter[defs[i].name]
	}
	return defs
}
