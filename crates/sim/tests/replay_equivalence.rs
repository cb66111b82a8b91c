//! Packed replay is bit-identical to unpacked replay: the same trace run
//! through `Engine::run` (iterator over a `Vec<TraceOp>`) and through
//! `Engine::replay` (batch-decoded from the binary pack) must produce
//! the same stats — every counter and every cycle — and the same
//! exception list; likewise for `MulticoreEngine::replay` of
//! `Source::Shards` vs `Source::Pack` under the deterministic round-robin
//! sharding.

use califorms_sim::multicore::shard_ops;
use califorms_sim::tracepack::TracePack;
use califorms_sim::{Engine, MulticoreConfig, MulticoreEngine, Source, TraceOp};
use proptest::prelude::*;

/// A trace shaped like real workload output: mixed strided loads/stores,
/// CFORMs installing and removing spans, mask windows, exec gaps — and
/// rogue accesses so the exception path is exercised too.
fn mixed_trace(ops: usize, seed: u64) -> Vec<TraceOp> {
    mixed_trace_with(ops, seed, true)
}

/// `with_masks = false` yields a shard-safe trace: round-robin sharding
/// sends each op to a different core, so `MaskPush`/`MaskPop` pairs would
/// split across cores and unbalance their per-core mask stacks (see the
/// `shard_ops` docs).
fn mixed_trace_with(ops: usize, seed: u64, with_masks: bool) -> Vec<TraceOp> {
    let mut state = seed | 1;
    let mut roll = move |m: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % m
    };
    let mut trace = Vec::with_capacity(ops);
    let mut mask_depth = 0u32;
    for i in 0..ops {
        let addr = 0x10_0000 + roll(1 << 16);
        trace.push(match roll(100) {
            0..=39 => TraceOp::Load {
                addr,
                size: 1 << roll(4),
            },
            40..=69 => TraceOp::Store {
                addr,
                size: 1 << roll(4),
            },
            70..=79 => TraceOp::Exec(roll(40) as u32),
            80..=86 => TraceOp::Cform {
                line_addr: addr & !63,
                attrs: 0x7F << 56,
                mask: 0x7F << 56,
            },
            87..=91 => TraceOp::CformNt {
                line_addr: addr & !63,
                attrs: 0,
                mask: 0x7F << 56,
            },
            92..=94 if with_masks => {
                mask_depth += 1;
                TraceOp::MaskPush
            }
            95..=97 if with_masks && mask_depth > 0 => {
                mask_depth -= 1;
                TraceOp::MaskPop
            }
            92..=97 => TraceOp::Exec(1),
            // Rogue probe into the span tail: may fault, exercising the
            // exception list equality.
            _ => TraceOp::Load {
                addr: (addr & !63) + 56 + roll(7),
                size: 1,
            },
        });
        // Periodic line-crossing accesses.
        if i % 97 == 0 {
            trace.push(TraceOp::Load {
                addr: (addr & !63) + 60,
                size: 8,
            });
        }
    }
    trace
}

#[test]
fn packed_single_core_replay_is_bit_identical() {
    let trace = mixed_trace(20_000, 7);
    let pack = TracePack::from_ops(trace.iter().copied());
    assert_eq!(pack.len_ops() as usize, trace.len());

    let unpacked = Engine::westmere().run(trace.iter().copied());
    let packed = Engine::westmere().replay(&pack, None);
    assert_eq!(unpacked.stats, packed.stats);
    assert_eq!(unpacked.exceptions, packed.exceptions);
    assert!(
        unpacked.stats.exceptions_delivered > 0,
        "the trace must exercise the exception path for the comparison to mean anything"
    );
}

#[test]
fn packed_multicore_replay_is_bit_identical() {
    for cores in [1usize, 2, 3, 4] {
        let trace = mixed_trace_with(8_000, 13, false);
        let pack = TracePack::from_ops(trace.iter().copied());

        let unpacked = MulticoreEngine::new(MulticoreConfig::westmere(cores))
            .replay(Source::Shards(shard_ops(trace.iter().copied(), cores)))
            .expect("replay")
            .0;
        let packed = MulticoreEngine::new(MulticoreConfig::westmere(cores))
            .replay(Source::Pack {
                pack: &pack,
                checkpoints: None,
            })
            .expect("replay")
            .0;
        assert_eq!(
            unpacked.stats.combined, packed.stats.combined,
            "combined stats must match at {cores} cores"
        );
        assert_eq!(unpacked.stats.per_core, packed.stats.per_core);
        assert_eq!(unpacked.exceptions, packed.exceptions);
    }
}

/// At one core both engines drive the same machine: one L1 over the
/// shared levels, no directory to consult, and the stream prefetcher when
/// the configuration asks for it. So a one-core `MulticoreEngine` is
/// exactly `Engine`: every counter, cycles included, and every exception
/// agree, with the prefetcher on or off and at any weave batch.
#[test]
fn engines_agree_at_one_core() {
    use califorms_sim::{CoreConfig, HierarchyConfig};
    for seed in [7, 11, 13] {
        let trace = mixed_trace(20_000, seed);
        let mut cycles = Vec::new();
        for stream_prefetcher in [true, false] {
            let hierarchy = HierarchyConfig {
                stream_prefetcher,
                ..HierarchyConfig::westmere()
            };
            let single = Engine::new(hierarchy, CoreConfig::westmere()).run(trace.iter().copied());
            let s = &single.stats;
            assert!(s.l1d.misses > 0 && s.stores_suppressed > 0, "seed {seed}");
            for batch in [1, 64] {
                let cfg = MulticoreConfig {
                    hierarchy,
                    ..MulticoreConfig::westmere(1)
                };
                let multi = MulticoreEngine::new(cfg.with_weave_batch(batch))
                    .replay(Source::Shards(vec![trace.clone()]))
                    .expect("replay")
                    .0;
                let at = format!("seed {seed}, prefetcher {stream_prefetcher}, batch {batch}");
                assert_eq!(multi.stats.combined, single.stats, "{at}");
                assert_eq!(
                    multi.exceptions,
                    std::slice::from_ref(&single.exceptions),
                    "{at}"
                );
            }
            cycles.push(s.cycles);
        }
        assert_ne!(
            cycles[0], cycles[1],
            "seed {seed}: the prefetcher hides misses"
        );
    }
}

/// Pins the single-core engine's simulated results as constants, so they
/// are compared across commits and not only between two runs of one
/// build: a change to `Engine::step`, the core timing model or the
/// hierarchy that shifts a single cycle or counter fails here. Recorded
/// on `mixed_trace(20_000, 7)` under the Westmere hierarchy and its
/// one-extra-cycle variant.
#[test]
fn engine_results_match_recorded_constants() {
    use califorms_sim::stats::{CacheStats, CoherenceStats, SimStats};
    use califorms_sim::{CoreConfig, HierarchyConfig};
    // Both hierarchies see the same accesses; only the cycle count moves.
    let counters = SimStats {
        cycles: 0.0,
        instructions: 58_307,
        loads: 8_598,
        stores: 5_913,
        cforms: 2_469,
        l1d: CacheStats {
            hits: 8_217,
            misses: 8_515,
            evictions: 7_489,
            writebacks: 4_264,
        },
        l2: CacheStats {
            hits: 8_540,
            misses: 1_024,
            evictions: 0,
            writebacks: 0,
        },
        l3: CacheStats {
            hits: 0,
            misses: 1_024,
            evictions: 0,
            writebacks: 0,
        },
        dram_accesses: 1_024,
        spills: 1_952,
        fills: 2_618,
        exceptions_delivered: 61,
        exceptions_suppressed: 2_116,
        stores_suppressed: 340,
        coherence: CoherenceStats::default(),
    };
    let trace = mixed_trace(20_000, 7);
    for (name, hcfg, cycles_bits) in [
        (
            "westmere",
            HierarchyConfig::westmere(),
            0x4104_a5f5_ffff_f508,
        ),
        (
            "westmere_plus_one_cycle",
            HierarchyConfig::westmere_plus_one_cycle(),
            0x4105_2699_3333_3e2f,
        ),
    ] {
        let out = Engine::new(hcfg, CoreConfig::westmere()).run(trace.iter().copied());
        let want = SimStats {
            cycles: f64::from_bits(cycles_bits),
            ..counters.clone()
        };
        assert_eq!(out.stats, want, "{name}");
        assert_eq!(out.exceptions.len(), 61, "{name}");
    }
}

#[test]
fn shard_ops_round_robin_is_deterministic_and_complete() {
    let trace = mixed_trace(1_000, 3);
    let shards = shard_ops(trace.iter().copied(), 3);
    assert_eq!(shards.len(), 3);
    assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), trace.len());
    // Op i lands on core i % 3.
    for (i, &op) in trace.iter().enumerate() {
        assert_eq!(shards[i % 3][i / 3], op);
    }
    assert_eq!(shards, shard_ops(trace.iter().copied(), 3));
}

proptest! {
    /// Bit-identity holds for arbitrary (valid) random traces, not just
    /// the hand-shaped mix above.
    #[test]
    fn packed_replay_matches_for_random_traces(seed in any::<u64>()) {
        let trace = mixed_trace(2_000, seed);
        let pack = TracePack::from_ops(trace.iter().copied());
        let unpacked = Engine::westmere().run(trace.iter().copied());
        let packed = Engine::westmere().replay(&pack, None);
        prop_assert_eq!(unpacked.stats, packed.stats);
        prop_assert_eq!(unpacked.exceptions, packed.exceptions);
    }
}
