//! `paper_regen`: single-core regeneration of Fig 10 (19 profiles,
//! baseline vs +1-cycle L2/L3) and Fig 12 (16 profiles × 6 intelligent-
//! policy series ± `CFORM`), 3 seeds per cell, through `generate` +
//! `run_workload` exactly as `califorms_bench::{fig10, policy_figure}` do.
//! At the default seed its rows must equal theirs bit for bit.

use crate::metrics::{self, ratio, Report};
use crate::probe::{self, closed_loop, time, Sampler};
use crate::{Args, Scale, DEFAULT_SEED};
use califorms_bench::{fig10, fig12_series, policy_figure, SlowdownRow, SEEDS};
use califorms_sim::{line_base, CoreConfig, Engine, HierarchyConfig, SimStats, TraceOp};
use califorms_workloads::{
    fig10_benchmarks, generate, run_workload, software_eval_benchmarks, BenchmarkProfile, Workload,
    WorkloadConfig,
};
use std::time::Instant;

/// One figure cell: a profile under a variant configuration, compared
/// with its natural-layout baseline on the Table 3 machine.
struct Cell {
    profile: BenchmarkProfile,
    variant: WorkloadConfig,
    hier_variant: HierarchyConfig,
}

/// Everything one regeneration pass runs.
struct Plan {
    steady_ops: usize,
    seeds: [u64; 3],
    fig10: Vec<Cell>,
    /// One row per profile, one cell per Fig 12 series.
    fig12: Vec<Vec<Cell>>,
}

impl Plan {
    fn new(scale: Scale, seed: u64) -> Self {
        let (steady_ops, profiles) = match scale {
            Scale::Full => (10_000, usize::MAX),
            Scale::Tiny => (2_000, 2),
        };
        // The default seed is the experiment functions' own seed set; any
        // other seed shifts every cell seed by the same amount.
        let shift = seed.wrapping_sub(DEFAULT_SEED).wrapping_mul(1000);
        let fig10 = fig10_benchmarks()
            .into_iter()
            .take(profiles)
            .map(|profile| Cell {
                profile,
                variant: WorkloadConfig::baseline(steady_ops, 0),
                hier_variant: HierarchyConfig::westmere_plus_one_cycle(),
            })
            .collect();
        let fig12 = software_eval_benchmarks()
            .into_iter()
            .take(profiles)
            .map(|profile| {
                fig12_series()
                    .into_iter()
                    .map(|(_, policy, cforms)| Cell {
                        profile,
                        variant: if cforms {
                            WorkloadConfig::with_policy(policy, steady_ops, 0)
                        } else {
                            WorkloadConfig::without_cforms(policy, steady_ops, 0)
                        },
                        hier_variant: HierarchyConfig::westmere(),
                    })
                    .collect()
            })
            .collect();
        Self {
            steady_ops,
            seeds: SEEDS.map(|s| s.wrapping_add(shift)),
            fig10,
            fig12,
        }
    }
}

/// What one pass produced.
#[derive(Debug, Default, PartialEq)]
struct PassOut {
    /// Steady-state stats of every run, in order (baseline, variant per
    /// seed per cell): the outcome every timed pass must reproduce.
    stats: Vec<SimStats>,
    /// Fig 10 slowdowns, one per profile.
    fig10: Vec<f64>,
    /// Fig 12 slowdowns, per profile per series.
    fig12: Vec<Vec<f64>>,
    /// Trace ops generated and replayed.
    ops: u64,
}

/// Runs one regeneration pass; with a tracer, every `Engine` call is
/// timed through it. Also returns the host seconds the pass spent in
/// `generate`.
fn pass(plan: &Plan, mut tracer: Option<&mut EngineTrace>) -> (PassOut, f64) {
    let mut out = PassOut::default();
    let mut generate_s = 0.0;
    let mut cell = |c: &Cell, out: &mut PassOut| -> f64 {
        // The same sequence and arithmetic as the experiment functions'
        // mean-over-seeds, so rows compare exactly.
        let mut total = 0.0;
        for &seed in &plan.seeds {
            let base_cfg = WorkloadConfig::baseline(plan.steady_ops, seed);
            let with_cfg = WorkloadConfig {
                steady_ops: plan.steady_ops,
                seed,
                ..c.variant
            };
            let ((base, with), s) = time(|| {
                (
                    generate(&c.profile, &base_cfg),
                    generate(&c.profile, &with_cfg),
                )
            });
            generate_s += s;
            let westmere = HierarchyConfig::westmere();
            let (sb, sv) = match tracer.as_deref_mut() {
                Some(t) => (
                    t.run_workload(&base, westmere),
                    t.run_workload(&with, c.hier_variant),
                ),
                None => (
                    run_workload(&base, westmere),
                    run_workload(&with, c.hier_variant),
                ),
            };
            total += sv.slowdown_vs(&sb);
            out.ops += (base.ops.len() + with.ops.len()) as u64;
            out.stats.push(sb);
            out.stats.push(sv);
        }
        total / plan.seeds.len() as f64
    };
    for c in &plan.fig10 {
        let v = cell(c, &mut out);
        out.fig10.push(v);
    }
    for row in &plan.fig12 {
        let vs = row.iter().map(|c| cell(c, &mut out)).collect();
        out.fig12.push(vs);
    }
    (out, generate_s)
}

/// Untimed warm-up passes; `setup_s` is the median of their `generate`
/// time.
const SETUP_REPS: usize = 3;

/// Step classes the traced run times separately: table row, ns-per-call
/// metric and call-count metric.
const CLASSES: [(&str, &str, &str); 5] = [
    (
        "engine.step load_hit",
        "engine.load_hit_ns",
        "engine.load_hit_calls",
    ),
    (
        "engine.step load_miss",
        "engine.load_miss_ns",
        "engine.load_miss_calls",
    ),
    ("engine.step store", "engine.store_ns", "engine.store_calls"),
    ("engine.step cform", "engine.cform_ns", "engine.cform_calls"),
    ("engine.step exec", "engine.exec_ns", "engine.exec_calls"),
];
const LOAD_HIT: usize = 0;
const LOAD_MISS: usize = 1;
const STORE: usize = 2;
const CFORM: usize = 3;
const EXEC: usize = 4;

/// Per-layer timing of traced passes: span totals around `generate`,
/// `Engine::new`/`finish` and the step loops, plus a 1-in-16 sample of
/// `Engine::step` calls timed one by one and classified before the call.
struct EngineTrace {
    sampler: Sampler,
    /// Calibrated cost of one empty `Instant` pair, ns.
    timer_ns: f64,
    generate_s: f64,
    new_finish_s: f64,
    step_loop_s: f64,
    sampled_ns: [f64; 5],
    sampled: [u64; 5],
    /// Exact load/store/cform/exec call counts (from the run's stats).
    loads: u64,
    stores: u64,
    cforms: u64,
    execs: u64,
}

impl EngineTrace {
    fn new(timer_ns: f64) -> Self {
        Self {
            sampler: Sampler::new(4),
            timer_ns,
            generate_s: 0.0,
            new_finish_s: 0.0,
            step_loop_s: 0.0,
            sampled_ns: [0.0; 5],
            sampled: [0; 5],
            loads: 0,
            stores: 0,
            cforms: 0,
            execs: 0,
        }
    }

    /// `run_workload`, statement for statement, with its calls timed.
    fn run_workload(&mut self, w: &Workload, hcfg: HierarchyConfig) -> SimStats {
        let t0 = Instant::now();
        let core = CoreConfig::westmere().with_overlap(w.overlap);
        let mut engine = Engine::new(hcfg, core);
        let t1 = Instant::now();
        self.step_all(&mut engine, &w.ops[..w.warmup_len]);
        let warmup_cycles = engine.cycles();
        self.step_all(&mut engine, &w.ops[w.warmup_len..]);
        let t2 = Instant::now();
        let mut stats = engine.finish().stats;
        stats.cycles -= warmup_cycles;
        let t3 = Instant::now();
        self.new_finish_s += (t1 - t0 + (t3 - t2)).as_secs_f64();
        self.step_loop_s += (t2 - t1).as_secs_f64();
        self.loads += stats.loads;
        self.stores += stats.stores;
        self.cforms += stats.cforms;
        self.execs += w.ops.len() as u64 - stats.loads - stats.stores - stats.cforms;
        stats
    }

    fn step_all(&mut self, engine: &mut Engine, ops: &[TraceOp]) {
        for &op in ops {
            if self.sampler.hit() {
                let class = match op {
                    TraceOp::Load { addr, .. } if engine.hierarchy.l1_contains(line_base(addr)) => {
                        LOAD_HIT
                    }
                    TraceOp::Load { .. } => LOAD_MISS,
                    TraceOp::Store { .. } => STORE,
                    TraceOp::Cform { .. } | TraceOp::CformNt { .. } => CFORM,
                    TraceOp::Exec(_) | TraceOp::MaskPush | TraceOp::MaskPop => EXEC,
                };
                let t = Instant::now();
                engine.step(op);
                self.sampled_ns[class] += t.elapsed().as_nanos() as f64;
                self.sampled[class] += 1;
            } else {
                engine.step(op);
            }
        }
    }

    /// Mean host ns per call of each class from the timed sample, with
    /// the empty-timer cost subtracted.
    fn sampled_mean_ns(&self) -> [f64; 5] {
        std::array::from_fn(|c| {
            (ratio(self.sampled_ns[c], self.sampled[c] as f64) - self.timer_ns).max(0.0)
        })
    }

    /// Self seconds per class: calls × sampled mean, scaled by one common
    /// factor so the classes add up to the step-loop span net of the
    /// timers inside it (a timed call runs a little slower than an
    /// untimed one). Returns the per-class seconds and the factor.
    fn class_seconds(&self) -> ([f64; 5], f64) {
        let calls = self.calls();
        let mean = self.sampled_mean_ns();
        let raw: [f64; 5] = std::array::from_fn(|c| calls[c] * mean[c] * 1e-9);
        let timed: u64 = self.sampled.iter().sum();
        let loop_net = self.step_loop_s - timed as f64 * self.timer_ns * 1e-9;
        let scale = ratio(loop_net, raw.iter().sum());
        (raw.map(|s| s * scale), scale)
    }

    /// Calls per class; the load hit/miss split is the sampled one.
    fn calls(&self) -> [f64; 5] {
        let hit_share = ratio(
            self.sampled[LOAD_HIT] as f64,
            (self.sampled[LOAD_HIT] + self.sampled[LOAD_MISS]) as f64,
        );
        let hits = (self.loads as f64 * hit_share).round();
        [
            hits,
            self.loads as f64 - hits,
            self.stores as f64,
            self.cforms as f64,
            self.execs as f64,
        ]
    }
}

/// Mean |measured − paper| over the Fig 10 rows, in percentage points;
/// the paper column is the one `fig10()` reports.
fn fig10_err_pp(rows10: &[SlowdownRow], measured: &[f64]) -> f64 {
    let errs: Vec<f64> = rows10
        .iter()
        .zip(measured)
        .filter_map(|(r, m)| r.paper.map(|p| (m - p).abs() * 100.0))
        .collect();
    ratio(errs.iter().sum(), errs.len() as f64)
}

/// At the default seed, the pass's rows must equal the experiment
/// functions' own output exactly.
fn check_against_experiments(plan: &Plan, rows10: &[SlowdownRow], reference: &PassOut) -> bool {
    let rows12 = policy_figure(&fig12_series(), plan.steady_ops);
    let mut ok = true;
    for (r, m) in rows10.iter().zip(&reference.fig10) {
        if r.measured != *m {
            eprintln!(
                "Fig 10 row {} differs from fig10(): {m} vs {}",
                r.label, r.measured
            );
            ok = false;
        }
    }
    for (r, ms) in rows12.iter().zip(&reference.fig12) {
        for ((label, v), m) in r.series.iter().zip(ms) {
            if v != m {
                eprintln!(
                    "Fig 12 {} {label} differs from policy_figure(): {m} vs {v}",
                    r.benchmark
                );
                ok = false;
            }
        }
    }
    println!(
        "default seed: {} Fig 10 rows and {} Fig 12 rows {} fig10()/policy_figure()",
        reference.fig10.len(),
        reference.fig12.len(),
        if ok { "equal" } else { "DIFFER FROM" }
    );
    ok
}

/// Runs the workload and prints its tables.
pub fn run(args: &Args) -> Report {
    let plan = Plan::new(args.scale, args.seed);
    let cells = plan.fig10.len() + plan.fig12.iter().map(Vec::len).sum::<usize>();
    println!(
        "workload paper_regen, seed {}: {} Fig 10 rows + {} Fig 12 cells, seeds {:?}, \
         {} steady ops, single core",
        args.seed,
        plan.fig10.len(),
        cells - plan.fig10.len(),
        plan.seeds,
        plan.steady_ops
    );
    // Set-up: untimed warm-up passes; the first one's outcome is the
    // reference every later pass must reproduce. A pass generates its own
    // inputs, so their generation is what set-up prepares.
    let (reference, first_s) = pass(&plan, None);
    let mut setup_s = vec![first_s];
    let mut checks_ok = true;
    for _ in 1..SETUP_REPS {
        let (again, s) = pass(&plan, None);
        setup_s.push(s);
        if again != reference {
            eprintln!("set-up is not deterministic: warm-up passes differ");
            checks_ok = false;
        }
    }
    println!(
        "reference outcome digest {:016x} ({} runs, {} trace ops per pass)",
        probe::digest(&reference.stats),
        reference.stats.len(),
        reference.ops
    );
    // The experiment function's rows: its paper column for `fig10_err_pp`,
    // and at the default seed its measured column for the check.
    let rows10 = fig10(plan.steady_ops);
    let reset = probe::reset_peak_rss();
    let check = |out: &PassOut| -> Result<(), String> {
        if *out == reference {
            Ok(())
        } else {
            Err("pass outcome differs from the reference pass".to_string())
        }
    };

    let mut report = if args.trace {
        traced(args, &plan, &reference, check)
    } else {
        let samples = closed_loop(args.seconds, || {
            let ((out, _), wall) = time(|| pass(&plan, None));
            (wall, check(&out))
        });
        let rss = probe::peak_rss_mb().filter(|_| reset);
        let mut report = Report::new(&samples);
        metrics::end_to_end(&mut report, &samples, reference.ops, &setup_s, rss);
        println!(
            "  {:<14} {:>12.4} pp (mean |measured - paper| over {} Fig 10 rows)",
            "fig10_err_pp",
            fig10_err_pp(&rows10, &reference.fig10),
            reference.fig10.len()
        );
        let avg = ratio(reference.fig10.iter().sum(), reference.fig10.len() as f64);
        println!(
            "Fig 10 mean slowdown {:.3} % (paper 0.83 %); Fig 12 series means:{}",
            100.0 * avg,
            fig12_series()
                .iter()
                .enumerate()
                .map(|(i, (label, _, _))| {
                    let col: Vec<f64> = reference.fig12.iter().map(|r| r[i]).collect();
                    format!(
                        " {label} {:.2} %",
                        100.0 * ratio(col.iter().sum(), col.len() as f64)
                    )
                })
                .collect::<String>()
        );
        report
    };
    if args.seed == DEFAULT_SEED {
        checks_ok &= check_against_experiments(&plan, &rows10, &reference);
    }
    report.checks_ok &= checks_ok;
    report
}

/// The traced run: traced and untraced passes alternate; every pass is
/// checked; the layer table is per traced pass.
fn traced(
    args: &Args,
    plan: &Plan,
    reference: &PassOut,
    check: impl Fn(&PassOut) -> Result<(), String>,
) -> Report {
    let timer_ns = probe::timer_cost_ns();
    let mut tracer = EngineTrace::new(timer_ns);
    let mut traced_wall = Vec::new();
    let mut untraced_wall = Vec::new();
    let mut turn = 0u64;
    let samples = closed_loop(args.seconds, || {
        turn += 1;
        if turn % 2 == 1 {
            let ((out, generate_s), wall) = time(|| pass(plan, Some(&mut tracer)));
            tracer.generate_s += generate_s;
            traced_wall.push(wall);
            (wall, check(&out))
        } else {
            let ((out, _), wall) = time(|| pass(plan, None));
            untraced_wall.push(wall);
            (wall, check(&out))
        }
    });
    let n = traced_wall.len() as f64;
    let mut report = Report::new(&samples);
    let calls = tracer.calls();
    let (class_s, scale) = tracer.class_seconds();
    let ns: [f64; 5] = std::array::from_fn(|c| ratio(class_s[c] * 1e9, calls[c]));
    println!(
        "Engine::step: 1 call in 16 timed, empty-timer cost {timer_ns:.1} ns subtracted, \
         scaled by {scale:.3} to the step-loop span; {} traced and {} untraced passes",
        traced_wall.len(),
        untraced_wall.len()
    );
    let mut rows: Vec<(&str, f64)> = vec![
        ("workloads.generate", tracer.generate_s / n),
        ("engine.new + finish", tracer.new_finish_s / n),
    ];
    rows.extend(CLASSES.iter().zip(class_s).map(|(k, s)| (k.0, s / n)));
    let nested: Vec<(&str, String)> = (0..CLASSES.len())
        .map(|c| {
            (
                CLASSES[c].0,
                format!(
                    "{:.1} ns x {:.0} calls per pass ({} timed)",
                    ns[c],
                    calls[c] / n,
                    tracer.sampled[c]
                ),
            )
        })
        .collect();
    // Rows are means per traced pass, so the wall they add up to is too.
    metrics::layer_table(
        &mut report,
        &rows,
        &nested,
        traced_wall.iter().sum::<f64>() / n,
        untraced_wall.iter().sum::<f64>() / untraced_wall.len() as f64,
    );

    report.set("workloads.generate_s", tracer.generate_s / n);
    report.set("workloads.ops_generated", reference.ops as f64);
    for (c, &(_, ns_name, calls_name)) in CLASSES.iter().enumerate() {
        report.set(ns_name, ns[c]);
        report.set(calls_name, calls[c] / n);
    }
    let mut total = SimStats::default();
    for s in &reference.stats {
        metrics::add_stats(&mut total, s);
    }
    metrics::hierarchy(&mut report, &total, reference.ops);
    report
}
