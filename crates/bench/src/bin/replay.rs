//! Host replay-throughput study: how fast the simulator itself chews
//! through trace ops, before and after the trace-pack and multicore
//! runtime overhauls.
//!
//! Single-core rows over the same streaming workload:
//!
//! * `legacy_iter` — the pre-overhaul path, reproduced faithfully: a
//!   boxed iterator chain feeding per-op `Hierarchy::load`/`store` calls
//!   that allocate a `Vec` per load result and a `Vec` per synthesized
//!   store payload;
//! * `engine_iter` — the current `Engine::run` over a materialised
//!   `Vec<TraceOp>` (quiet loads, stack store buffers);
//! * `packed_batched` — `Engine::replay`: ops batch-decoded from the
//!   compact binary pack into a fixed ring (decode cost included).
//!
//! Multi-core rows (2/4 cores by default, `--cores` to override) on the
//! `MulticoreEngine`, which runs on the calling thread:
//!
//! * `mc_shared_*` — the single stream round-robin-sharded across cores
//!   (heavy artificial sharing: a worst case that stays weave-bound);
//! * `mc_disjoint_*` — one offset copy of the stream per core in a
//!   private 4 GB region (total ops = cores × trace): disjoint working
//!   sets, but stream-dominated, so throughput tracks the (serial,
//!   batched) private-miss transaction path;
//! * `mc_readmostly_*` — the `shared-table-hot` multicore workload
//!   (97 % loads over an L1-resident shared table, califormed spans).
//!   Its hits need no transaction, yet under 1 % of its ops complete in
//!   the bound phase: a core's bound phase ends at its first op that
//!   needs one, and the weave turn that follows runs the rest of the
//!   quantum.
//!
//! `*_iter` rows replay pre-materialised `Vec` shards; `*_packed` rows
//! replay packs through per-core decoder lanes. Every packed run is
//! asserted bit-identical (stats + exceptions) to its unpacked twin
//! before its throughput is reported, and every multicore row carries the
//! bound/weave/bookkeeping wall-clock breakdown, the count (and, on
//! stdout, the share) of ops the bound phase committed, and the
//! deterministic runtime counters.
//!
//! Results go to stdout and to `target/experiment-results/BENCH_replay.json`,
//! or to `--out PATH` (the perf-trajectory artifact CI uploads per PR;
//! the committed root file is regenerated with `--out BENCH_replay.json`
//! on a full-size run). With `--check`, the
//! process exits non-zero unless the best 2-core packed scaling row
//! (disjoint or read-mostly) is at least 1.0x legacy single-core
//! throughput — the CI scaling gate.
//!
//! With `--telemetry` (implied by `--metrics-out`/`--trace-out`), the
//! highest-core-count shared-stream packed replay is re-run instrumented:
//! its counter/latency summary plus the per-core weave wall-clock go to
//! stdout, the counter snapshot +
//! histograms to `--metrics-out PATH`, and the per-core bound/weave span
//! timeline as Chrome trace-event JSON to `--trace-out PATH`
//! (open in <https://ui.perfetto.dev>). `--telemetry-check` gates that
//! two instrumented runs produce byte-identical counter snapshots and
//! that telemetry costs ≤ 3% on the best-of-3 read-mostly packed row.
//!
//! Usage:
//! `cargo run --release --bin replay [--smoke] [--check] [--cores 2,4]
//!  [--quantum N] [--out PATH] [--telemetry] [--metrics-out PATH]
//!  [--trace-out PATH] [--telemetry-check] [steady_ops]`

#![forbid(unsafe_code)]

use califorms_bench::legacy_replay::run_legacy;
use califorms_bench::{render_telemetry_summary, results_dir, write_json};
use califorms_sim::multicore::shard_ops;
use califorms_sim::{
    Engine, MulticoreConfig, MulticoreEngine, MulticoreOutcome, Source, TraceOp, TracePack,
};
use califorms_workloads::{
    generate, generate_mt, spec, MtPattern, MtWorkloadConfig, WorkloadConfig,
};
use serde::Serialize;
use std::time::Instant;

/// One measured replay mode.
#[derive(Debug, Clone, Serialize)]
struct ReplayRow {
    mode: String,
    /// Simulated cores.
    cores: u64,
    ops: u64,
    elapsed_s: f64,
    mops_per_s: f64,
    speedup_vs_legacy: f64,
    bit_identical_to_unpacked: bool,
    /// Bound/weave/bookkeeping wall-clock breakdown (multicore rows
    /// only; zero for single-core rows).
    bound_s: f64,
    weave_s: f64,
    barrier_s: f64,
    /// Ops committed in the bound phase (multicore rows only).
    bound_ops: u64,
    /// Deterministic runtime counters (multicore rows only).
    quanta: u64,
    weave_turns: u64,
    weave_transactions: u64,
    batched_transactions: u64,
    contended_transactions: u64,
}

/// The whole report written as `BENCH_replay.json`.
#[derive(Debug, Clone, Serialize)]
struct ReplayReport {
    workload: String,
    policy: String,
    steady_ops: u64,
    trace_ops: u64,
    pack_bytes_per_op: f64,
    /// `size_of::<TraceOp>()`, computed at runtime.
    vec_bytes_per_op: f64,
    quantum: f64,
    packed_vs_legacy_speedup: f64,
    rows: Vec<ReplayRow>,
}

/// Last free-standing numeric argument, skipping flags and (by
/// position) the values they consume.
fn positional_number(args: &[String]) -> Option<usize> {
    let mut out = None;
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if [
            "--cores",
            "--quantum",
            "--out",
            "--metrics-out",
            "--trace-out",
        ]
        .contains(&a.as_str())
        {
            i += 2; // skip the flag and its value
            continue;
        }
        if !a.starts_with("--") {
            if let Ok(v) = a.parse::<usize>() {
                out = Some(v);
            }
        }
        i += 1;
    }
    out
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed().as_secs_f64())
}

/// Offsets every address in the trace into core `c`'s private region, so
/// each core replays the same access *shape* over a disjoint working set.
fn offset_ops(ops: &[TraceOp], c: usize) -> Vec<TraceOp> {
    let off = c as u64 * 0x1_0000_0000;
    ops.iter()
        .map(|&op| match op {
            TraceOp::Load { addr, size } => TraceOp::Load {
                addr: addr + off,
                size,
            },
            TraceOp::Store { addr, size } => TraceOp::Store {
                addr: addr + off,
                size,
            },
            TraceOp::Cform {
                line_addr,
                attrs,
                mask,
            } => TraceOp::Cform {
                line_addr: line_addr + off,
                attrs,
                mask,
            },
            TraceOp::CformNt {
                line_addr,
                attrs,
                mask,
            } => TraceOp::CformNt {
                line_addr: line_addr + off,
                attrs,
                mask,
            },
            other => other,
        })
        .collect()
}

fn mc_identical(a: &MulticoreOutcome, b: &MulticoreOutcome) -> bool {
    a.stats.combined == b.stats.combined
        && a.stats.per_core == b.stats.per_core
        && a.stats.runtime == b.stats.runtime
        && a.stats.weave == b.stats.weave
        && a.exceptions == b.exceptions
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let flag_value = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let core_counts: Vec<usize> = flag_value("--cores")
        .map(|v| {
            v.split(',')
                .map(|s| s.trim().parse().expect("--cores takes e.g. 2,4"))
                .collect()
        })
        .unwrap_or_else(|| vec![2, 4]);
    let quantum: f64 = flag_value("--quantum")
        .map(|v| v.parse().expect("--quantum takes a cycle count"))
        .unwrap_or(10_000.0);
    let out_path = flag_value("--out").map_or_else(
        || results_dir().join("BENCH_replay.json"),
        std::path::PathBuf::from,
    );
    let metrics_out = flag_value("--metrics-out");
    let trace_out = flag_value("--trace-out");
    let telemetry =
        args.iter().any(|a| a == "--telemetry") || metrics_out.is_some() || trace_out.is_some();
    let telemetry_check = args.iter().any(|a| a == "--telemetry-check");
    let steady_ops = positional_number(&args).unwrap_or(if smoke { 100_000 } else { 2_000_000 });

    let mc_config = |cores: usize| MulticoreConfig::westmere(cores).with_quantum(quantum);

    // The streaming workload: libquantum is the paper's most
    // stream-dominated benchmark, with spans installed so the califormed
    // checks stay on the measured path.
    let profile = spec::by_name("libquantum").expect("profile exists");
    let policy = califorms_layout::InsertionPolicy::intelligent_1_to(7);
    let w = generate(
        &profile,
        &WorkloadConfig::with_policy(policy, steady_ops, 7),
    );
    let ops = &w.ops;
    let pack = w.to_pack();
    let total_ops = ops.len() as u64;
    assert_eq!(pack.len_ops(), total_ops);

    println!(
        "Replay throughput: {} ops ({} steady), pack {:.2} B/op vs {} B/op in Vec<TraceOp>, quantum {}",
        total_ops,
        steady_ops,
        pack.bytes_per_op(),
        std::mem::size_of::<TraceOp>(),
        quantum,
    );
    println!();
    println!(
        "{:<18} | {:>5} | {:>9} | {:>11} | {:>9} | {:>8} | {:>7} | {:>7} | {:>7} | {:>7}",
        "mode",
        "cores",
        "elapsed s",
        "host Mops/s",
        "vs legacy",
        "ident",
        "bound s",
        "weave s",
        "barr s",
        "bound %"
    );
    println!("{}", "-".repeat(114));

    let mut rows: Vec<ReplayRow> = Vec::new();
    let mut push = |row: ReplayRow| {
        // The bound-phase share means nothing for the one-thread engine.
        let bound_share = if row.cores > 1 {
            format!("{:.2}", 100.0 * row.bound_ops as f64 / row.ops as f64)
        } else {
            "—".to_string()
        };
        println!(
            "{:<18} | {:>5} | {:>9.3} | {:>11.2} | {:>8.2}x | {:>8} | {:>7.3} | {:>7.3} | {:>7.3} | {:>7}",
            row.mode,
            row.cores,
            row.elapsed_s,
            row.mops_per_s,
            row.speedup_vs_legacy,
            row.bit_identical_to_unpacked,
            row.bound_s,
            row.weave_s,
            row.barrier_s,
            bound_share,
        );
        rows.push(row);
    };
    let single_row =
        |mode: &str, ops_run: u64, elapsed: f64, legacy_mops: f64, identical: bool| ReplayRow {
            mode: mode.to_string(),
            cores: 1,
            ops: ops_run,
            elapsed_s: elapsed,
            mops_per_s: ops_run as f64 / elapsed / 1e6,
            speedup_vs_legacy: (ops_run as f64 / elapsed / 1e6) / legacy_mops,
            bit_identical_to_unpacked: identical,
            bound_s: 0.0,
            weave_s: 0.0,
            barrier_s: 0.0,
            bound_ops: 0,
            quanta: 0,
            weave_turns: 0,
            weave_transactions: 0,
            batched_transactions: 0,
            contended_transactions: 0,
        };
    let mc_row = |mode: &str,
                  cores: usize,
                  ops_run: u64,
                  elapsed: f64,
                  legacy_mops: f64,
                  identical: bool,
                  out: &MulticoreOutcome| ReplayRow {
        mode: mode.to_string(),
        cores: cores as u64,
        ops: ops_run,
        elapsed_s: elapsed,
        mops_per_s: ops_run as f64 / elapsed / 1e6,
        speedup_vs_legacy: (ops_run as f64 / elapsed / 1e6) / legacy_mops,
        bit_identical_to_unpacked: identical,
        bound_s: out.timing.bound_s,
        weave_s: out.timing.weave_s,
        barrier_s: out.timing.barrier_s,
        bound_ops: out.timing.bound_ops,
        quanta: out.stats.runtime.quanta,
        weave_turns: out.stats.runtime.weave_turns,
        weave_transactions: out.stats.runtime.weave_transactions,
        batched_transactions: out.stats.runtime.batched_transactions,
        contended_transactions: out.stats.runtime.contended_transactions,
    };

    // --- Single core. ---
    let ((legacy_stats, legacy_exc), legacy_elapsed) =
        time(|| run_legacy(Box::new(ops.iter().copied())));
    let legacy_mops = total_ops as f64 / legacy_elapsed / 1e6;
    push(single_row(
        "legacy_iter",
        total_ops,
        legacy_elapsed,
        legacy_mops,
        true,
    ));

    let (iter_out, iter_elapsed) = time(|| Engine::westmere().run(ops.iter().copied()));
    assert_eq!(
        iter_out.stats, legacy_stats,
        "hot-path rework must not change simulation results"
    );
    assert_eq!(iter_out.exceptions, legacy_exc);
    push(single_row(
        "engine_iter",
        total_ops,
        iter_elapsed,
        legacy_mops,
        true,
    ));

    let (packed_out, packed_elapsed) = time(|| Engine::westmere().replay(&pack, None));
    let packed_identical =
        packed_out.stats == iter_out.stats && packed_out.exceptions == iter_out.exceptions;
    assert!(packed_identical, "packed replay must be bit-identical");
    push(single_row(
        "packed_batched",
        total_ops,
        packed_elapsed,
        legacy_mops,
        true,
    ));
    let packed_speedup = (total_ops as f64 / packed_elapsed / 1e6) / legacy_mops;

    // --- Multi core. ---
    let mut disjoint_2core_packed_speedup = f64::NAN;
    let mut readmostly_2core_packed_speedup = f64::NAN;
    for &cores in &core_counts {
        // Shared stream, round-robin sharded: the contended worst case.
        // (Generated workloads carry no mask windows, so round-robin
        // sharding is mask-safe.)
        let shards = shard_ops(ops.iter().copied(), cores);
        let (mc_vec, mc_vec_elapsed) = time(|| {
            MulticoreEngine::new(mc_config(cores))
                .replay(Source::Shards(shards))
                .expect("replay")
                .0
        });
        push(mc_row(
            "mc_shared_iter",
            cores,
            total_ops,
            mc_vec_elapsed,
            legacy_mops,
            true,
            &mc_vec,
        ));
        let (mc_pack, mc_pack_elapsed) = time(|| {
            MulticoreEngine::new(mc_config(cores))
                .replay(Source::Pack {
                    pack: &pack,
                    checkpoints: None,
                })
                .expect("replay")
                .0
        });
        let identical = mc_identical(&mc_pack, &mc_vec);
        assert!(identical, "packed multicore replay must be bit-identical");
        push(mc_row(
            "mc_shared_packed",
            cores,
            total_ops,
            mc_pack_elapsed,
            legacy_mops,
            identical,
            &mc_pack,
        ));

        // Disjoint working sets: one offset copy of the stream per core.
        let dis_shards: Vec<Vec<TraceOp>> = (0..cores).map(|c| offset_ops(ops, c)).collect();
        let dis_packs: Vec<TracePack> = dis_shards
            .iter()
            .map(|s| TracePack::from_ops(s.iter().copied()))
            .collect();
        let dis_ops = total_ops * cores as u64;
        let (dis_vec, dis_vec_elapsed) = time(|| {
            MulticoreEngine::new(mc_config(cores))
                .replay(Source::Shards(dis_shards))
                .expect("replay")
                .0
        });
        push(mc_row(
            "mc_disjoint_iter",
            cores,
            dis_ops,
            dis_vec_elapsed,
            legacy_mops,
            true,
            &dis_vec,
        ));
        let (dis_pack, dis_pack_elapsed) = time(|| {
            MulticoreEngine::new(mc_config(cores))
                .replay(Source::Packs(&dis_packs))
                .expect("replay")
                .0
        });
        let identical = mc_identical(&dis_pack, &dis_vec);
        assert!(
            identical,
            "packed disjoint multicore replay must be bit-identical"
        );
        let row = mc_row(
            "mc_disjoint_packed",
            cores,
            dis_ops,
            dis_pack_elapsed,
            legacy_mops,
            identical,
            &dis_pack,
        );
        if cores == 2 {
            disjoint_2core_packed_speedup = row.speedup_vs_legacy;
        }
        push(row);

        // Read-mostly shared table that fits the private L1s: after
        // warm-up nearly every op is a clean Shared hit.
        let rm = generate_mt(&MtWorkloadConfig {
            pattern: MtPattern::SharedTableHot,
            cores,
            ops_per_core: steady_ops,
            seed: 7,
            califormed: true,
        });
        let rm_ops: u64 = rm.shards.iter().map(|s| s.len() as u64).sum();
        let rm_packs: Vec<TracePack> = rm.to_packs();
        let rm_shards = rm.shards.clone();
        let (rm_vec, rm_vec_elapsed) = time(|| {
            MulticoreEngine::new(mc_config(cores))
                .replay(Source::Shards(rm_shards))
                .expect("replay")
                .0
        });
        push(mc_row(
            "mc_readmostly_iter",
            cores,
            rm_ops,
            rm_vec_elapsed,
            legacy_mops,
            true,
            &rm_vec,
        ));
        let (rm_pack, rm_pack_elapsed) = time(|| {
            MulticoreEngine::new(mc_config(cores))
                .replay(Source::Packs(&rm_packs))
                .expect("replay")
                .0
        });
        let identical = mc_identical(&rm_pack, &rm_vec);
        assert!(
            identical,
            "packed read-mostly multicore replay must be bit-identical"
        );
        let row = mc_row(
            "mc_readmostly_packed",
            cores,
            rm_ops,
            rm_pack_elapsed,
            legacy_mops,
            identical,
            &rm_pack,
        );
        if cores == 2 {
            readmostly_2core_packed_speedup = row.speedup_vs_legacy;
        }
        push(row);
    }

    // --- Telemetry (opt-in): the highest-core-count shared-stream packed
    // replay re-run instrumented, with the span timeline and counter
    // snapshot exported. Bit-identity against the uninstrumented run is
    // asserted before anything is written. ---
    if telemetry {
        let cores = *core_counts.iter().max().expect("--cores is non-empty");
        let (tel_out, tel_elapsed) = time(|| {
            MulticoreEngine::new(mc_config(cores).with_telemetry())
                .replay(Source::Pack {
                    pack: &pack,
                    checkpoints: None,
                })
                .expect("replay")
                .0
        });
        let base = MulticoreEngine::new(mc_config(cores))
            .replay(Source::Pack {
                pack: &pack,
                checkpoints: None,
            })
            .expect("replay")
            .0;
        let identical = mc_identical(&tel_out, &base);
        assert!(identical, "telemetry must not perturb simulation results");
        let row = mc_row(
            "mc_shared_tel",
            cores,
            total_ops,
            tel_elapsed,
            legacy_mops,
            identical,
            &tel_out,
        );
        push(row);
        let report = tel_out.telemetry.as_ref().expect("telemetry was enabled");
        println!();
        print!("{}", render_telemetry_summary(report, &tel_out.timing));
        if let Some(path) = &metrics_out {
            std::fs::write(path, report.metrics_json()).expect("write --metrics-out");
            println!("metrics JSON written to {path}");
        }
        if let Some(path) = &trace_out {
            std::fs::write(path, report.trace_json()).expect("write --trace-out");
            println!("Perfetto trace written to {path} (open in https://ui.perfetto.dev)");
        }
    }

    let report = ReplayReport {
        workload: w.name.clone(),
        policy: "intelligent 1-7B +CFORM".to_string(),
        steady_ops: steady_ops as u64,
        trace_ops: total_ops,
        pack_bytes_per_op: pack.bytes_per_op(),
        vec_bytes_per_op: std::mem::size_of::<TraceOp>() as f64,
        quantum,
        packed_vs_legacy_speedup: packed_speedup,
        rows,
    };
    write_json(&out_path, &report).expect("write results");
    println!();
    println!(
        "packed_batched vs legacy_iter: {packed_speedup:.2}x — JSON written to {}",
        out_path.display()
    );

    if telemetry_check {
        let cores = *core_counts.iter().min().expect("--cores is non-empty");
        // Counter determinism: two instrumented runs of the same pack
        // must hand back byte-identical snapshots.
        let snap = |_: usize| {
            MulticoreEngine::new(mc_config(cores).with_telemetry())
                .replay(Source::Pack {
                    pack: &pack,
                    checkpoints: None,
                })
                .expect("replay")
                .0
                .telemetry
                .expect("telemetry was enabled")
                .counters
                .to_bytes()
        };
        if snap(0) != snap(1) {
            eprintln!("FAIL: telemetry counter snapshots differ across identical runs");
            std::process::exit(1);
        }
        // Overhead: telemetry on the read-mostly packed row (the shape
        // where per-op cost shows up) must stay within 3% of disabled,
        // best of 3 each to shed host noise.
        let rm = generate_mt(&MtWorkloadConfig {
            pattern: MtPattern::SharedTableHot,
            cores,
            ops_per_core: steady_ops,
            seed: 7,
            califormed: true,
        });
        let rm_packs = rm.to_packs();
        let best_of_3 = |tel: bool| -> f64 {
            (0..3)
                .map(|_| {
                    let cfg = if tel {
                        mc_config(cores).with_telemetry()
                    } else {
                        mc_config(cores)
                    };
                    time(|| {
                        MulticoreEngine::new(cfg)
                            .replay(Source::Packs(&rm_packs))
                            .expect("replay")
                            .0
                    })
                    .1
                })
                .fold(f64::INFINITY, f64::min)
        };
        let off = best_of_3(false);
        let on = best_of_3(true);
        let overhead = on / off - 1.0;
        println!(
            "telemetry-check: snapshots byte-identical; read-mostly overhead \
             {:+.2}% (on {on:.3}s vs off {off:.3}s, gate ≤ 3%)",
            overhead * 100.0
        );
        if overhead > 0.03 {
            eprintln!("FAIL: telemetry overhead above the 3% gate");
            std::process::exit(1);
        }
    }

    if check {
        // The scaling tripwire: a real multicore-runtime regression drags
        // every scaling-shape row down, while single rows can wobble on a
        // noisy (or single-CPU) host — so the gate fires only when BOTH
        // 2-core packed scaling rows fall below 1.0x legacy.
        let best = disjoint_2core_packed_speedup.max(readmostly_2core_packed_speedup);
        println!(
            "check: 2-core packed replay at {disjoint_2core_packed_speedup:.2}x (disjoint) / \
             {readmostly_2core_packed_speedup:.2}x (read-mostly) legacy — gate: best ≥ 1.0x"
        );
        if best.is_nan() || best < 1.0 {
            eprintln!("FAIL: 2-core packed replay dropped below 1.0x single-core legacy");
            std::process::exit(1);
        }
    }
}
