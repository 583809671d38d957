package main

// metricDef names one reported metric. The lists below are the
// benchmark's contract: BENCHMARK.json declares exactly these names and
// units (checked by TestBenchmarkJSONMatches), and a run prints every
// one of them, a layer that a workload does not exercise reading 0.
type metricDef struct {
	name, unit, better string
}

// e2eMetrics are printed with -trace 0. On figures one operation is a
// full figure set; on the serving workloads one /v1/simulate or one
// /v1/sweep request.
var e2eMetrics = []metricDef{
	// setup_s: median of setupRepeats set-ups (backends, gateway,
	// stores, working sets; on figures the golden load and one warm-up
	// figure set).
	{"setup_s", "s", "lower"},
	// sweep_s: median wall time of one pass: a full figure set, or the
	// cells of one working-set pass through the gateway (passCells).
	{"sweep_s", "s", "lower"},
	// cells_per_s: simulation cells delivered with status 200 per
	// second of the measured phase.
	{"cells_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p90_ms", "ms", "lower"},
	// success_rate: 1 - failed/attempted, a failed output check
	// counting as a failed operation.
	{"success_rate", "ratio", "higher"},
	{"rss_peak_mb", "MiB", "lower"},
}

// layerMetrics are printed with -trace 1. README.md lists which
// end-to-end metric each should move, on which workload.
var layerMetrics = []metricDef{
	{"sched.schedule_ns.linux", "ns", "lower"},
	{"sched.schedule_ns.window", "ns", "lower"},
	{"sched.schedule_ns.latest", "ns", "lower"},
	{"sched.calls", "count", "lower"},
	{"sim.step_us_per_quantum", "us", "lower"},
	{"sim.run_us", "us", "lower"},
	{"sim.quanta", "count", "lower"},
	{"sim.leap_fraction", "ratio", "higher"},
	{"runner.cells", "count", "lower"},
	{"runner.cell_wall_s", "s", "lower"},
	{"runner.occupancy", "ratio", "higher"},
	{"server.encode_us", "us", "lower"},
	{"server.overhead_us", "us", "lower"},
	{"server.canonical_key_us", "us", "lower"},
	{"server.handler_us", "us", "lower"},
	{"server.tier1_hit_ratio", "ratio", "higher"},
	{"store.put_us", "us", "lower"},
	{"store.puts", "1/cell", "lower"},
	{"store.get_us", "us", "lower"},
	{"store.tier2_hit_ratio", "ratio", "higher"},
	{"store.verify_failures", "count", "lower"},
	{"digest.sum_us", "us", "lower"},
	{"digest.verify_us", "us", "lower"},
	{"gateway.handler_us", "us", "lower"},
	{"gateway.upstream_us", "us", "lower"},
	{"gateway.self_us", "us", "lower"},
	{"gateway.amplification", "ratio", "lower"},
	{"gateway.hedges", "count", "lower"},
	{"gateway.retries", "count", "lower"},
	{"gateway.sweep_fanout", "ratio", "lower"},
	{"net.hop_us", "us", "lower"},
	{"sweep.first_line_ms", "ms", "lower"},
	{"client.self_us", "us", "lower"},
	{"client.p99_ms", "ms", "lower"},
	{"bench.trace_overhead", "ratio", "lower"},
	// bench.layer_sum_ratio: (client.self_us + gateway.self_us +
	// net.hop_us + server.handler_us) / traced p50, all medians.
	{"bench.layer_sum_ratio", "ratio", "higher"},
	// bench.sim_sum_ratio: (Schedule time + sim.step_us_per_quantum x
	// quanta) / run time over the replayed cells.
	{"bench.sim_sum_ratio", "ratio", "higher"},
	// bench.steal_share: CPU time the host withheld during the traced
	// phase, as a share of the time wanted (/proc/stat steal). Not a
	// program layer; it says how noisy the machine was.
	{"bench.steal_share", "ratio", "lower"},
}

// zeroLayers starts every per-layer metric at 0: a layer the workload
// does not exercise reads 0.
func zeroLayers() map[string]float64 {
	vals := map[string]float64{}
	for _, m := range layerMetrics {
		vals[m.name] = 0
	}
	return vals
}
