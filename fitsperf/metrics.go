package main

// metricDecl declares one reported metric. The tables below must match
// BENCHMARK.json at the repository root (TestDeclarationsMatchBenchmark).
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees, printed by every workload
// with --trace 0. Each workload gives every metric its own reading of
// the same idea (README.md, "End-to-end metrics").
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"warm_points_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer is the ledger printed with --trace 1: self times (_s) from
// the traced replay, counts as the program's own counters, stats and
// results report them (README.md, "Per-layer metrics"). Every
// workload prints every name; a layer the workload does not reach
// reads 0.
var perLayer = []metricDecl{
	// sim + cpu pipeline + cache + power, exact timing runs.
	{"sim.run_s", "s", "lower", 0},
	{"sim.instrs", "count", "higher", 0},
	{"sim.cycles", "count", "lower", 0},
	{"sim.minstr_per_s", "Minstr/s", "higher", 0},
	{"cache.accesses", "count", "lower", 0},
	{"cache.misses", "count", "lower", 0},
	// sim sampled estimator.
	{"sim.run_sampled_s", "s", "lower", 0},
	{"sim.sampled_runs", "count", "higher", 0},
	{"sim.sampled_fallbacks", "count", "lower", 0},
	{"sim.sampled_detail_frac", "ratio", "lower", 0},
	// Preparation: the part of sim.PrepareWith its stage record does not
	// itemize (failed preparations, the call's own overhead).
	{"sim.prepare_s", "s", "lower", 0},
	// Synthesis and the encodings derived from it.
	{"synth.synthesize_s", "s", "lower", 0},
	{"translate.translate_s", "s", "lower", 0},
	{"thumb.size_s", "s", "lower", 0},
	{"cpu.predecode_s", "s", "lower", 0},
	// Program construction.
	{"kernels.build_s", "s", "lower", 0},
	{"arm.assemble_s", "s", "lower", 0},
	// Profiling and its memo.
	{"profile.collect_s", "s", "lower", 0},
	{"profile.collects", "count", "lower", 0},
	{"profile.memo_hits", "count", "higher", 0},
	{"profile.memo_hit_ratio", "ratio", "higher", 0},
	// Experiment engine.
	{"experiments.prepare_s", "s", "lower", 0},
	{"experiments.run_s", "s", "lower", 0},
	{"experiments.busy_frac", "ratio", "higher", 0},
	{"experiments.render_s", "s", "lower", 0},
	// Sweep engine.
	{"sweep.points", "count", "higher", 0},
	{"sweep.evaluated", "count", "lower", 0},
	{"sweep.infeasible", "count", "lower", 0},
	{"sweep.refined", "count", "lower", 0},
	{"sweep.archive_skips", "count", "higher", 0},
	{"sweep.feasible_ratio", "ratio", "higher", 0},
	{"sweep.points_per_s", "1/s", "higher", 0},
	// Archive store.
	{"archive.save_s", "s", "lower", 0},
	{"archive.get_s", "s", "lower", 0},
	{"archive.saves", "count", "lower", 0},
	// Synthesis service.
	{"serve.canonicalize_s", "s", "lower", 0},
	{"serve.prepare_s", "s", "lower", 0},
	{"serve.evaluate_s", "s", "lower", 0},
	{"serve.http_s", "s", "lower", 0},
	{"serve.hits", "count", "higher", 0},
	{"serve.store_hits", "count", "higher", 0},
	{"serve.cold", "count", "lower", 0},
	{"serve.coalesced", "count", "higher", 0},
	{"serve.rejected", "count", "lower", 0},
	{"serve.errors", "count", "lower", 0},
	{"serve.hit_ratio", "ratio", "higher", 0},
	{"serve.batch_leaders", "count", "lower", 0},
	{"serve.batch_joined", "count", "higher", 0},
	{"serve.batch_memo_hits", "count", "higher", 0},
	{"serve.hit_p50_ms", "ms", "lower", 0},
	{"serve.hit_p99_ms", "ms", "lower", 0},
	{"serve.cold_p50_ms", "ms", "lower", 0},
	{"serve.cold_p99_ms", "ms", "lower", 0},
	{"serve.max_rps", "1/s", "higher", 0},
	// Telemetry plane.
	{"telemetry.scrape_ms", "ms", "lower", 0},
	{"telemetry.scrape_s", "s", "lower", 0},
	// Load generator, runtime and the ledger itself.
	{"loadgen.wait_p99_ms", "ms", "lower", 0},
	{"loadgen.late_max_ms", "ms", "lower", 0},
	{"runtime.alloc_mb", "MB", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"bench.fail_frac", "ratio", "lower", 0},
	{"bench.traced_wall_s", "s", "lower", 0},
	{"bench.unaccounted_s", "s", "lower", 0},
	{"bench.trace_overhead_frac", "ratio", "lower", 0},
}

// layerSpans lists the span names the traced replays record, one per
// layer boundary. A span's self time is reported as <name>_s; the
// reconciliation check sums exactly these plus bench.unaccounted_s
// against the traced wall clock.
var layerSpans = []string{
	"sim.run", "sim.run_sampled", "sim.prepare",
	"synth.synthesize", "translate.translate", "thumb.size", "cpu.predecode",
	"kernels.build", "arm.assemble",
	"profile.collect",
	"experiments.render",
	"archive.save", "archive.get",
	"serve.canonicalize", "serve.prepare", "serve.evaluate", "serve.http",
	"telemetry.scrape",
}
