//! Integration tests of the engine-wide telemetry (DESIGN.md §13):
//! instrumentation must never perturb simulation results, counter
//! snapshots must be byte-identical across runs and across packed vs
//! unpacked replay (modulo the pack-only `decode.*` family), the span
//! timeline of a 4-core run must cover bound/weave/barrier on every core
//! track, and the per-core weave breakdown must sum back to the
//! aggregate runtime counters.

use califorms_sim::multicore::{MulticoreConfig, MulticoreEngine, Source};
use califorms_sim::{TraceOp, TracePack, LINE_BYTES};
use califorms_telemetry::Phase;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Shards mixing shared and private traffic so every core both commits
/// bound work and drives weave transactions through every directory
/// shard.
fn contended_shards(cores: u64, n: usize) -> Vec<Vec<TraceOp>> {
    const SHARED: u64 = 0x9000_0000;
    (0..cores)
        .map(|core| {
            let mut s = 0xC0FFEE ^ core.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            (0..n)
                .map(|_| {
                    let x = xorshift(&mut s);
                    let shared = SHARED + (x >> 8) % 512 * LINE_BYTES + (x >> 24) % 8 * 8;
                    match x % 8 {
                        0..=3 => TraceOp::Load {
                            addr: shared,
                            size: 8,
                        },
                        4..=5 => TraceOp::Store {
                            addr: shared,
                            size: 8,
                        },
                        6 => TraceOp::Store {
                            addr: 0xA000_0000 + core * 0x10_0000 + (x >> 16) % 4096 * 8,
                            size: 8,
                        },
                        _ => TraceOp::Exec((x % 16) as u32),
                    }
                })
                .collect()
        })
        .collect()
}

fn instrumented(cores: usize) -> MulticoreConfig {
    MulticoreConfig::westmere(cores)
        .with_quantum(2_000.0)
        .with_telemetry()
}

#[test]
fn telemetry_never_perturbs_results() {
    let shards = contended_shards(4, 6_000);
    let off = MulticoreEngine::new(MulticoreConfig::westmere(4).with_quantum(2_000.0))
        .replay(Source::Shards(shards.clone()))
        .expect("replay")
        .0;
    let on = MulticoreEngine::new(instrumented(4))
        .replay(Source::Shards(shards))
        .expect("replay")
        .0;
    assert_eq!(on.stats, off.stats, "telemetry changed simulated results");
    assert_eq!(on.exceptions, off.exceptions);
    assert!(off.telemetry.is_none(), "disabled run must carry no report");
    assert!(on.telemetry.is_some(), "enabled run must carry the report");
}

#[test]
fn four_core_run_emits_spans_on_every_core_track() {
    let out = MulticoreEngine::new(instrumented(4))
        .replay(Source::Shards(contended_shards(4, 6_000)))
        .expect("replay")
        .0;
    let report = out.telemetry.expect("telemetry enabled");
    assert_eq!(report.dropped_spans, 0);

    for core in 0..4u32 {
        let has = |phase: Phase| {
            report
                .spans
                .iter()
                .any(|s| s.track == core && s.phase == phase)
        };
        assert!(has(Phase::Bound), "core {core} has no bound span");
        assert!(has(Phase::Weave), "core {core} has no weave span");
        assert!(has(Phase::Barrier), "core {core} has no barrier span");
    }
    // The aggregate runtime track sits after the core tracks and carries
    // one bound/barrier/weave triple per quantum.
    let runtime_track = 4u32;
    for phase in [Phase::Bound, Phase::Barrier, Phase::Weave] {
        let n = report
            .spans
            .iter()
            .filter(|s| s.track == runtime_track && s.phase == phase)
            .count() as u64;
        assert_eq!(n, out.stats.runtime.quanta, "runtime {phase:?} spans");
    }
    let mut names = report.track_names.clone();
    names.sort_unstable();
    assert_eq!(
        names,
        vec![
            (0, "core 0".to_string()),
            (1, "core 1".to_string()),
            (2, "core 2".to_string()),
            (3, "core 3".to_string()),
            (4, "runtime".to_string()),
        ]
    );
    // Host-time latency histograms were fed by the same spans.
    assert!(report.weave_turn_ns.count() > 0);
    assert!(report.weave_batch_sizes.count() > 0);
}

#[test]
fn counter_snapshots_are_byte_identical_across_runs() {
    let shards = contended_shards(4, 6_000);
    let snap = |shards: Vec<Vec<TraceOp>>| {
        MulticoreEngine::new(instrumented(4))
            .replay(Source::Shards(shards))
            .expect("replay")
            .0
            .telemetry
            .expect("telemetry enabled")
            .counters
    };
    let a = snap(shards.clone());
    let b = snap(shards);
    assert_eq!(a.diff(&b), Vec::<String>::new());
    assert_eq!(a.to_bytes(), b.to_bytes(), "snapshots must be byte-equal");
}

#[test]
fn packed_replay_matches_unpacked_on_all_shared_counter_families() {
    let shards = contended_shards(4, 6_000);
    let packs: Vec<TracePack> = shards
        .iter()
        .map(|s| TracePack::from_ops(s.iter().copied()))
        .collect();
    let total_ops: u64 = shards.iter().map(|s| s.len() as u64).sum();
    let unpacked = MulticoreEngine::new(instrumented(4))
        .replay(Source::Shards(shards))
        .expect("replay")
        .0;
    let packed = MulticoreEngine::new(instrumented(4))
        .replay(Source::Packs(&packs))
        .expect("replay")
        .0;
    assert_eq!(packed.stats, unpacked.stats, "packed replay diverged");
    assert_eq!(packed.exceptions, unpacked.exceptions);

    let pc = packed.telemetry.unwrap().counters;
    let uc = unpacked.telemetry.unwrap().counters;
    // The snapshots may differ ONLY in the pack-side decode progress.
    for d in pc.diff(&uc) {
        assert!(
            d.starts_with("decode."),
            "non-decode counter diverged between packed and unpacked: {d}"
        );
    }
    assert!(uc.total("decode.ops").is_none());
    assert_eq!(
        pc.total("decode.ops"),
        Some(total_ops),
        "every op came out of a decoder lane"
    );
}

#[test]
fn weave_breakdown_sums_match_the_aggregate_runtime_counters() {
    let out = MulticoreEngine::new(instrumented(4))
        .replay(Source::Shards(contended_shards(4, 6_000)))
        .expect("replay")
        .0;
    let rt = &out.stats.runtime;
    let wb = &out.stats.weave;

    assert_eq!(wb.per_core.len(), 4);
    let sum = |f: fn(&califorms_sim::stats::CoreWeaveStats) -> u64| {
        wb.per_core.iter().map(f).sum::<u64>()
    };
    assert_eq!(sum(|c| c.turns), rt.weave_turns);
    assert_eq!(sum(|c| c.transactions), rt.weave_transactions);
    assert_eq!(sum(|c| c.batched), rt.batched_transactions);
    assert_eq!(sum(|c| c.contended), rt.contended_transactions);

    // The host-time weave breakdown covers the same axes: one wall-clock
    // slice per core, one sample per quantum.
    let tb = &out.timing.weave_breakdown;
    assert_eq!(tb.per_core_s.len(), 4);
    assert_eq!(
        tb.per_quantum_s.len() as u64 + tb.quantum_samples_dropped,
        rt.quanta
    );
}

/// The weave-turn accounting invariants:
///
/// 1. `rt.weave_turns == Σ core.weave.turns` — every turn is tallied on
///    exactly one core.
/// 2. `rt.weave_transactions == Σ core.weave.transactions ==
///    weave_batch_sizes.sum()` — every transaction lands on one core and
///    one batch-size sample.
/// 3. A turn committing `k ≥ 1` transactions tallies `k − 1` batched
///    ones, so `weave_transactions − batched_transactions` equals the
///    number of non-empty turns — which is exactly
///    `weave_batch_sizes.count()`, and never exceeds `weave_turns`
///    (turns may progress local replay without committing a txn).
#[test]
fn weave_turn_accounting_reconciles_across_all_views() {
    let out = MulticoreEngine::new(instrumented(4))
        .replay(Source::Shards(contended_shards(4, 6_000)))
        .expect("replay")
        .0;
    let rt = &out.stats.runtime;
    let wb = &out.stats.weave;
    let hist = &out
        .telemetry
        .as_ref()
        .expect("telemetry enabled")
        .weave_batch_sizes;

    let core_turns: u64 = wb.per_core.iter().map(|c| c.turns).sum();
    let core_txns: u64 = wb.per_core.iter().map(|c| c.transactions).sum();
    assert_eq!(core_turns, rt.weave_turns);
    assert_eq!(core_txns, rt.weave_transactions);
    assert_eq!(
        hist.sum(),
        u128::from(rt.weave_transactions),
        "every transaction is in one sample"
    );

    let nonempty_turns = rt.weave_transactions - rt.batched_transactions;
    assert_eq!(
        hist.count(),
        nonempty_turns,
        "one sample per non-empty turn"
    );
    assert!(
        nonempty_turns <= rt.weave_turns,
        "non-empty turns are a subset of turns"
    );
    assert!(rt.weave_transactions > 0, "the workload must weave");
}
