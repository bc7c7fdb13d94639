package main

// metricDef names one metric the benchmark prints. BENCHMARK.json at the
// repository root lists the same names, units and bounds; TestManifest pins
// the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics every workload reports from its untraced run.
// Each is defined on all four workloads (see README.md for what one
// repetition is on each), because a run prints every end-to-end metric.
// The bounds are what the two-core shared host this was written on can
// hold, not what one would like: README.md, "Steadiness", has the spreads.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of the traced run. A workload prints all of
// them; a layer the workload never enters reads 0, which is the "no change
// expected here" prediction made checkable.
var perLayer = []metricDef{
	{"world.generate_s", "s", "lower", 0},
	{"world.heap_bytes_per_block", "B", "lower", 0},

	{"netsim.deliver_s", "s", "lower", 0},
	{"netsim.deliver_probes", "count", "lower", 0},
	{"netsim.deliver_ns_per_probe", "ns", "lower", 0},
	{"netsim.deliver_batch_mean", "count", "higher", 0},
	{"netsim.truth_s", "s", "lower", 0},
	{"netsim.truth_ns_per_block_round", "ns", "lower", 0},

	{"trinocular.round_self_s", "s", "lower", 0},
	{"trinocular.round_self_ns_per_block_round", "ns", "lower", 0},
	{"trinocular.probes_per_block_round", "count", "lower", 0},
	{"trinocular.positive_frac", "ratio", "higher", 0},
	{"trinocular.probes_per_block_hour", "1/h", "lower", 0},

	{"core.estimator_s", "s", "lower", 0},
	{"core.estimator_ns_per_obs", "ns", "lower", 0},
	{"core.classify_s", "s", "lower", 0},
	{"core.classify_ns_per_block", "ns", "lower", 0},

	{"timeseries.clean_s", "s", "lower", 0},
	{"timeseries.clean_ns_per_block", "ns", "lower", 0},

	{"dsp.fft_ns_per_series", "ns", "lower", 0},
	{"dsp.fft_calls", "count", "lower", 0},
	{"dsp.plan_cache_size", "count", "lower", 0},

	{"analysis.measure_s", "s", "lower", 0},
	{"analysis.joins_s", "s", "lower", 0},
	{"analysis.join.linktypes_s", "s", "lower", 0},
	{"analysis.join.country_s", "s", "lower", 0},
	{"analysis.join.phase_lon_s", "s", "lower", 0},
	{"analysis.join.outage_s", "s", "lower", 0},
	{"analysis.join.anova_s", "s", "lower", 0},
	{"analysis.join.linktypes_allocs", "count", "lower", 0},
	{"analysis.truth_compare_s", "s", "lower", 0},
	{"analysis.validate_s", "s", "lower", 0},
	{"analysis.scaling_eff", "ratio", "lower", 0},

	{"monitor.block_rounds_per_s", "1/s", "higher", 0},
	{"monitor.wal_bytes_per_block_round", "B", "lower", 0},
	{"monitor.probe_s", "s", "lower", 0},
	{"monitor.wal_s", "s", "lower", 0},
	{"monitor.snapshot_s", "s", "lower", 0},
	{"monitor.wal_records", "count", "lower", 0},
	{"monitor.wal_seals", "count", "lower", 0},
	{"monitor.snapshots", "count", "lower", 0},
	{"monitor.wal_segments_deleted", "count", "higher", 0},
	{"monitor.disk_bytes_final", "B", "lower", 0},
	{"monitor.recover_s", "s", "lower", 0},
	{"monitor.replayed_rounds", "count", "lower", 0},

	{"durable.write_atomic_ms", "ms", "lower", 0},

	{"serve.publish_s", "s", "lower", 0},
	{"serve.publish_ns_per_block", "ns", "lower", 0},
	{"serve.epochs_sealed", "count", "higher", 0},
	{"serve.epoch_build_s", "s", "lower", 0},
	{"serve.parse_ns", "ns", "lower", 0},
	{"serve.lookup_ns", "ns", "lower", 0},
	{"serve.range_us", "us", "lower", 0},
	{"serve.summary_ms", "ms", "lower", 0},
	{"serve.handler_lookup_ns", "ns", "lower", 0},
	{"serve.handler_lookup_allocs", "count", "lower", 0},
	{"serve.socket_overhead_us", "us", "lower", 0},
	{"serve.lookup_qps", "1/s", "higher", 0},
	{"serve.lookup_p50_ms", "ms", "lower", 0},
	{"serve.lookup_p99_ms", "ms", "lower", 0},
	{"serve.range_p50_ms", "ms", "lower", 0},
	{"serve.range_p99_ms", "ms", "lower", 0},
	{"serve.summary_p50_ms", "ms", "lower", 0},
	{"serve.summary_p90_ms", "ms", "lower", 0},
	{"serve.status_2xx", "count", "higher", 0},
	{"serve.status_404", "count", "lower", 0},
	{"serve.status_429", "count", "lower", 0},
	{"serve.status_503", "count", "lower", 0},
	{"serve.conn_rotations", "count", "lower", 0},
	{"serve.conn_budget_closes", "count", "lower", 0},
	{"serve.gen_lateness_p99_ms", "ms", "lower", 0},

	{"trace.drive_s", "s", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"trace.coverage_frac", "ratio", "higher", 0},
}

// exactPerLayer are the per-layer counts that depend only on the seed: two
// runs of one commit must print identical values (-repeat-check enforces it).
var exactPerLayer = map[string]bool{
	"netsim.deliver_probes":             true,
	"netsim.deliver_batch_mean":         true,
	"trinocular.probes_per_block_round": true,
	"trinocular.positive_frac":          true,
	"trinocular.probes_per_block_hour":  true,
	"dsp.fft_calls":                     true,
	"monitor.wal_bytes_per_block_round": true,
	"monitor.wal_records":               true,
	"monitor.wal_seals":                 true,
	"monitor.snapshots":                 true,
	"monitor.wal_segments_deleted":      true,
	"serve.epochs_sealed":               true,
}

// result is what one run of one workload produced.
type result struct {
	Attempted int
	Failed    int
	// Values holds every metric the run measured; a metric measured once
	// has N == 1 and equal quartiles.
	Values map[string]quartiles
	// Reps is how many timed repetitions fed the medians.
	Reps int
	// Phases records how long each phase of the run took, in seconds.
	Phases map[string]float64
	// Notes are printed with the human-readable report.
	Notes []string
}

func newResult() *result {
	return &result{Values: map[string]quartiles{}, Phases: map[string]float64{}}
}

// set records a metric measured once.
func (r *result) set(name string, v float64) {
	r.Values[name] = quartiles{Q1: v, Median: v, Q3: v, N: 1}
}

// setAll records a metric measured once per repetition.
func (r *result) setAll(name string, xs []float64) { r.Values[name] = summarize(xs) }
