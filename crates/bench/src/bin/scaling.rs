//! Multi-core scaling study: simulated IPC and **host replay
//! throughput** of the MESI-coherent multicore engine across core counts
//! and the five sharing patterns of `califorms-workloads::multicore`.
//!
//! Three things to read off the table:
//!
//! * *simulated* aggregate IPC grows with cores for low-contention
//!   patterns (shared-table) and stalls for pathological ones
//!   (false-sharing ping-pong);
//! * *host* throughput (trace ops replayed per wall-clock second) shows
//!   where the runtime spends its time — the bound/weave/bookkeeping
//!   breakdown, the share of ops the bound phase committed and the
//!   weave-transaction counters make a scaling regression diagnosable
//!   straight from the JSON;
//! * the `contended` vs total weave-transaction split shows how much of
//!   each pattern's coherence traffic genuinely needs cross-core
//!   arbitration.
//!
//! Usage:
//! `cargo run --release --bin scaling [--smoke] [--cores 1,2,4,8]
//!  [--quantum N] [ops_per_core]`
//!
//! `--smoke` is the CI shape: fewer ops, 1/2/4 cores. The JSON lands in
//! `target/experiment-results/scaling.json` and is uploaded as a CI
//! artifact.

#![forbid(unsafe_code)]

use califorms_bench::{results_dir, write_json};
use califorms_sim::HierarchyConfig;
use califorms_workloads::{generate_mt, mt_config, run_mt_outcome, MtPattern, MtWorkloadConfig};
use serde::Serialize;
use std::time::Instant;

/// One (pattern, core-count) measurement.
#[derive(Debug, Clone, Serialize)]
struct ScalingRow {
    pattern: String,
    cores: u64,
    quantum: f64,
    sim_ipc: f64,
    sim_cycles: f64,
    host_mops_per_s: f64,
    elapsed_s: f64,
    /// Host wall-clock per phase.
    bound_s: f64,
    weave_s: f64,
    barrier_s: f64,
    /// Trace ops the row replayed, and those committed in the bound
    /// phase.
    ops: u64,
    bound_ops: u64,
    /// Deterministic runtime counters.
    quanta: u64,
    weave_turns: u64,
    weave_transactions: u64,
    batched_transactions: u64,
    contended_transactions: u64,
    /// Coherence counters.
    invalidations: u64,
    upgrades_s_to_m: u64,
    cache_to_cache: u64,
    califormed_transfers: u64,
}

/// Last free-standing numeric argument, skipping flags and (by
/// position) the values they consume.
fn positional_number(args: &[String]) -> Option<usize> {
    let mut out = None;
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a == "--cores" || a == "--quantum" {
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag_value = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let core_counts: Vec<usize> = flag_value("--cores")
        .map(|v| {
            v.split(',')
                .map(|s| s.trim().parse().expect("--cores takes e.g. 1,2,4,8"))
                .collect()
        })
        .unwrap_or_else(|| {
            if smoke {
                vec![1, 2, 4]
            } else {
                vec![1, 2, 4, 8]
            }
        });
    let quantum: Option<f64> =
        flag_value("--quantum").map(|v| v.parse().expect("--quantum takes a cycle count"));
    let ops_per_core: usize =
        positional_number(&args).unwrap_or(if smoke { 20_000 } else { 50_000 });

    let mut rows: Vec<ScalingRow> = Vec::new();
    println!("Multi-core scaling ({ops_per_core} trace ops per core, califormed lines)");
    println!();
    println!(
        "{:<18} | {:>5} | {:>8} | {:>12} | {:>7} | {:>7} | {:>7} | {:>7} | {:>9} | {:>9} | {:>10}",
        "pattern",
        "cores",
        "sim IPC",
        "host Mops/s",
        "bound s",
        "weave s",
        "barr s",
        "bound %",
        "weave txn",
        "contended",
        "c2c xfers"
    );
    println!("{}", "-".repeat(130));
    for pattern in MtPattern::all() {
        for &cores in &core_counts {
            let w = generate_mt(&MtWorkloadConfig {
                pattern,
                cores,
                ops_per_core,
                seed: 7,
                califormed: true,
            });
            let total_ops: usize = w.shards.iter().map(Vec::len).sum();
            let mut cfg = mt_config(&w, HierarchyConfig::westmere());
            if let Some(q) = quantum {
                cfg = cfg.with_quantum(q);
            }
            let start = Instant::now();
            let out = run_mt_outcome(&w, cfg);
            let elapsed = start.elapsed().as_secs_f64();
            let stats = &out.stats;
            let row = ScalingRow {
                pattern: w.name.to_string(),
                cores: cores as u64,
                quantum: cfg.quantum,
                sim_ipc: stats.aggregate_ipc(),
                sim_cycles: stats.combined.cycles,
                host_mops_per_s: total_ops as f64 / elapsed / 1e6,
                elapsed_s: elapsed,
                bound_s: out.timing.bound_s,
                weave_s: out.timing.weave_s,
                barrier_s: out.timing.barrier_s,
                ops: total_ops as u64,
                bound_ops: out.timing.bound_ops,
                quanta: stats.runtime.quanta,
                weave_turns: stats.runtime.weave_turns,
                weave_transactions: stats.runtime.weave_transactions,
                batched_transactions: stats.runtime.batched_transactions,
                contended_transactions: stats.runtime.contended_transactions,
                invalidations: stats.combined.coherence.invalidations,
                upgrades_s_to_m: stats.combined.coherence.upgrades_s_to_m,
                cache_to_cache: stats.combined.coherence.cache_to_cache_transfers,
                califormed_transfers: stats.combined.coherence.califormed_transfers,
            };
            println!(
                "{:<18} | {:>5} | {:>8.3} | {:>12.2} | {:>7.3} | {:>7.3} | {:>7.3} | {:>7.2} | {:>9} | {:>9} | {:>10}",
                row.pattern,
                row.cores,
                row.sim_ipc,
                row.host_mops_per_s,
                row.bound_s,
                row.weave_s,
                row.barrier_s,
                100.0 * row.bound_ops as f64 / row.ops as f64,
                row.weave_transactions,
                row.contended_transactions,
                row.cache_to_cache
            );
            rows.push(row);
        }
        println!("{}", "-".repeat(130));
    }

    write_json(results_dir().join("scaling.json"), &rows).expect("write results");
    println!("JSON written to target/experiment-results/scaling.json");
}
