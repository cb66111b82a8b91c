//! Metric names, the derived per-layer ratios, the printed tables and the
//! final JSON line. The names here are the ones `BENCHMARK.json` lists.

use crate::probe::{quantile, Samples};
use califorms_sim::{CoherenceStats, RuntimeStats, SimStats};
use std::collections::BTreeMap;

/// End-to-end metrics (tracing off), in output order, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("sim_mops", "Mops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced run), in output order, with units. A layer
/// a workload does not exercise reports 0 (see `README.md`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.generate_s", "s"),
    ("workloads.ops_generated", "count"),
    ("tracepack.encode_s", "s"),
    ("tracepack.bytes_per_op", "B/op"),
    ("tracepack.decode_s", "s"),
    ("tracepack.useful_frac", "fraction"),
    ("engine.load_hit_ns", "ns"),
    ("engine.load_miss_ns", "ns"),
    ("engine.store_ns", "ns"),
    ("engine.cform_ns", "ns"),
    ("engine.exec_ns", "ns"),
    ("engine.load_hit_calls", "count"),
    ("engine.load_miss_calls", "count"),
    ("engine.store_calls", "count"),
    ("engine.cform_calls", "count"),
    ("engine.exec_calls", "count"),
    ("engine.cforms_per_kop", "1/kop"),
    ("hierarchy.l1d_miss_ratio", "fraction"),
    ("hierarchy.spills_per_kop", "1/kop"),
    ("hierarchy.fills_per_kop", "1/kop"),
    ("hierarchy.l2_miss_ratio", "fraction"),
    ("hierarchy.dram_per_kop", "1/kop"),
    ("runtime.bound_s", "s"),
    ("runtime.weave_s", "s"),
    ("runtime.barrier_s", "s"),
    ("runtime.bound_frac", "fraction"),
    ("runtime.quanta", "count"),
    ("runtime.weave_txns", "count"),
    ("runtime.contended_frac", "fraction"),
    ("runtime.batched_frac", "fraction"),
    ("coherence.c2c_per_kop", "1/kop"),
    ("coherence.califormed_c2c_per_kop", "1/kop"),
    ("coherence.invalidations_per_kop", "1/kop"),
    ("coherence.upgrades_per_kop", "1/kop"),
    ("coherence.dir_lookups_per_kop", "1/kop"),
    ("trace.coverage", "fraction"),
    ("trace.overhead", "fraction"),
    ("trace.residual_s", "s"),
];

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// What one benchmark process measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether every check outside the timed runs passed (set-up
    /// determinism, reference agreement of the traced run, figure rows).
    pub checks_ok: bool,
    /// Timed runs attempted.
    pub attempted: u64,
    /// Timed runs that failed.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// A report whose timed-run tally comes from `samples`; the other
    /// checks start out passed.
    pub fn new(samples: &Samples) -> Self {
        Self {
            checks_ok: true,
            attempted: samples.attempted,
            failed: samples.failed,
            values: BTreeMap::new(),
        }
    }

    /// Sets one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The final stdout line: end-to-end metrics, or the per-layer ones
    /// for a traced run. A non-finite value marks the run incorrect.
    pub fn json(&self, trace: bool) -> String {
        let names = if trace { PER_LAYER } else { END_TO_END };
        let mut correct = self.checks_ok && self.failed == 0;
        let mut fields = Vec::new();
        for &(name, unit) in names {
            let mut value = self.values.get(name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                eprintln!("metric {name} is not finite");
                correct = false;
                value = 0.0;
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }
}

/// Sets and prints the end-to-end metrics: the median of each host time
/// over its samples, printed between the 10th and 90th percentiles, with
/// the sample counts; peak memory; and the failure share.
pub fn end_to_end(
    report: &mut Report,
    samples: &Samples,
    ops_per_run: u64,
    setup_s: &[f64],
    peak_rss_mb: Option<f64>,
) {
    println!(
        "end-to-end, tracing off: {} timed runs ({} failed) of {ops_per_run} trace ops, \
         {} set-ups",
        samples.attempted,
        samples.failed,
        setup_s.len()
    );
    println!(
        "  {:<14} {:>12} {:<7} {:>10} {:>10}",
        "metric", "median", "unit", "p10", "p90"
    );
    let row = |name: &str, v: [f64; 3], unit: &str| {
        println!(
            "  {name:<14} {:>12.4} {unit:<7} {:>10.4} {:>10.4}",
            v[1], v[0], v[2]
        );
    };
    let spread = |v: &[f64]| [0.1, 0.5, 0.9].map(|q| quantile(v, q));
    let wall = spread(&samples.wall_s);
    // The fastest run has the highest throughput, so the percentiles swap.
    let mops = [2, 1, 0].map(|i| ratio(ops_per_run as f64 / 1e6, wall[i]));
    let setup = spread(setup_s);
    row("wall_s", wall, "s");
    row("sim_mops", mops, "Mops/s");
    row("setup_s", setup, "s");
    match peak_rss_mb {
        Some(mb) => println!("  {:<14} {mb:>12.1} MiB", "peak_rss_mb"),
        None => println!("  {:<14} {:>12} (VmHWM unavailable)", "peak_rss_mb", "-"),
    }
    println!(
        "  {:<14} {:>12.4} ({} of {} runs)",
        "fail_frac",
        samples.fail_frac(),
        samples.failed,
        samples.attempted
    );
    report.set("wall_s", wall[1]);
    report.set("sim_mops", mops[1]);
    report.set("setup_s", setup[1]);
    report.set("peak_rss_mb", peak_rss_mb.unwrap_or(f64::NAN));
}

/// Sums the counters [`hierarchy`] reads, over many runs.
pub fn add_stats(total: &mut SimStats, s: &SimStats) {
    total.cforms += s.cforms;
    total.l1d.hits += s.l1d.hits;
    total.l1d.misses += s.l1d.misses;
    total.l2.hits += s.l2.hits;
    total.l2.misses += s.l2.misses;
    total.dram_accesses += s.dram_accesses;
    total.spills += s.spills;
    total.fills += s.fills;
}

/// Deterministic hierarchy metrics of `ops` trace ops that produced `s`.
pub fn hierarchy(report: &mut Report, s: &SimStats, ops: u64) {
    let per_kop = |n: u64| ratio(n as f64 * 1000.0, ops as f64);
    report.set("engine.cforms_per_kop", per_kop(s.cforms));
    report.set("hierarchy.l1d_miss_ratio", s.l1d.miss_ratio());
    report.set("hierarchy.spills_per_kop", per_kop(s.spills));
    report.set("hierarchy.fills_per_kop", per_kop(s.fills));
    report.set("hierarchy.l2_miss_ratio", s.l2.miss_ratio());
    report.set("hierarchy.dram_per_kop", per_kop(s.dram_accesses));
}

/// Deterministic runtime counts of a multicore run.
pub fn runtime_counts(report: &mut Report, rt: &RuntimeStats) {
    let txns = rt.weave_transactions as f64;
    report.set("runtime.quanta", rt.quanta as f64);
    report.set("runtime.weave_txns", txns);
    report.set(
        "runtime.contended_frac",
        ratio(rt.contended_transactions as f64, txns),
    );
    report.set(
        "runtime.batched_frac",
        ratio(rt.batched_transactions as f64, txns),
    );
}

/// Deterministic coherence traffic per 1k trace ops.
pub fn coherence(report: &mut Report, c: &CoherenceStats, ops: u64) {
    let per_kop = |n: u64| ratio(n as f64 * 1000.0, ops as f64);
    report.set("coherence.c2c_per_kop", per_kop(c.cache_to_cache_transfers));
    report.set(
        "coherence.califormed_c2c_per_kop",
        per_kop(c.califormed_transfers),
    );
    report.set("coherence.invalidations_per_kop", per_kop(c.invalidations));
    report.set("coherence.upgrades_per_kop", per_kop(c.upgrades_s_to_m));
    report.set(
        "coherence.dir_lookups_per_kop",
        per_kop(c.directory_lookups),
    );
}

/// Prints the layer table of a traced run — `rows` are self times that
/// add up, with the residual, to `wall`; `nested` rows are shown for
/// context inside their parent and not added — and records
/// `trace.coverage`, `trace.residual_s` and `trace.overhead`.
pub fn layer_table(
    report: &mut Report,
    rows: &[(&str, f64)],
    nested: &[(&str, String)],
    wall: f64,
    untraced_wall: f64,
) {
    let covered: f64 = rows.iter().map(|&(_, s)| s).sum();
    let residual = wall - covered;
    println!("layer table, traced run: self seconds per run, share of traced wall");
    for &(name, s) in rows {
        println!("  {name:<34} {s:>10.4} s {:>6.1} %", 100.0 * ratio(s, wall));
    }
    println!(
        "  {:<34} {residual:>10.4} s {:>6.1} %",
        "residual (unattributed)",
        100.0 * ratio(residual, wall)
    );
    println!("  {:<34} {wall:>10.4} s", "traced wall");
    for (name, text) in nested {
        println!("    {name:<32} {text}");
    }
    let coverage = ratio(covered, wall);
    let overhead = ratio(wall, untraced_wall) - 1.0;
    println!(
        "  trace.coverage {coverage:.4}, trace.overhead {overhead:+.4} \
         (traced {wall:.4} s vs untraced {untraced_wall:.4} s per run)"
    );
    report.set("trace.coverage", coverage);
    report.set("trace.residual_s", residual);
    report.set("trace.overhead", overhead);
}
