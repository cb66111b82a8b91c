//! Integration tests of the parallel replay runtime (DESIGN.md §10):
//! bit-identical determinism across quantum sizes and weave batching
//! depths, per-core pack replay equivalence, the zero-cross-core-coherence
//! guarantee for disjoint working sets, and recorded constants that pin
//! the weave's simulated results across commits.

use califorms_sim::multicore::{MulticoreConfig, MulticoreEngine, MulticoreOutcome, Source};
use califorms_sim::{CoherenceStats, TraceOp, TracePack, LINE_BYTES};

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// A pseudo-random shard mixing shared loads/stores, private traffic,
/// `CFORM`s and compute — enough entropy that any scheduling leak in the
/// runtime would show up as diverging stats.
fn chaotic_shard(core: u64, seed: u64, n: usize) -> Vec<TraceOp> {
    const SHARED: u64 = 0x9000_0000;
    let mut s = seed ^ core.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let x = xorshift(&mut s);
        let shared_addr = SHARED + (x >> 8) % 256 * LINE_BYTES + (x >> 24) % 8 * 8;
        match x % 10 {
            0..=4 => ops.push(TraceOp::Load {
                addr: shared_addr,
                size: 8,
            }),
            5..=6 => ops.push(TraceOp::Store {
                addr: shared_addr,
                size: 8,
            }),
            7 => ops.push(TraceOp::Store {
                addr: 0xA000_0000 + core * 0x10_0000 + (x >> 16) % 4096 * 8,
                size: 8,
            }),
            8 => ops.push(TraceOp::Exec((x % 24) as u32)),
            _ => ops.push(TraceOp::Cform {
                line_addr: SHARED + (x >> 8) % 256 * LINE_BYTES,
                attrs: 1 << (x % 64),
                mask: 1 << (x % 64),
            }),
        }
    }
    ops
}

fn chaotic_shards(cores: u64, seed: u64, n: usize) -> Vec<Vec<TraceOp>> {
    (0..cores).map(|c| chaotic_shard(c, seed, n)).collect()
}

/// A per-core streaming shard over a private region `c * 16 MB` apart:
/// loads sweep lines, stores dirty every fourth line, nothing is ever
/// shared.
fn disjoint_shard(core: u64, lines: u64) -> Vec<TraceOp> {
    let base = 0x4000_0000 + core * 0x100_0000;
    let mut ops = Vec::with_capacity(lines as usize * 2);
    for i in 0..lines {
        let addr = base + i * LINE_BYTES;
        ops.push(TraceOp::Load { addr, size: 8 });
        if i % 4 == 0 {
            ops.push(TraceOp::Store {
                addr: addr + 8,
                size: 8,
            });
        }
        ops.push(TraceOp::Exec(6));
    }
    ops
}

fn assert_identical(a: &MulticoreOutcome, b: &MulticoreOutcome) {
    assert_eq!(a.stats, b.stats, "stats (incl. runtime counters) diverged");
    assert_eq!(a.exceptions, b.exceptions, "exception lists diverged");
}

#[test]
fn determinism_holds_across_quantum_sizings() {
    let configs: [(&str, MulticoreConfig); 2] = [
        ("1k", MulticoreConfig::westmere(4).with_quantum(1_000.0)),
        ("10k", MulticoreConfig::westmere(4)),
    ];
    for (name, cfg) in configs {
        let run = || {
            MulticoreEngine::new(cfg)
                .replay(Source::Shards(chaotic_shards(4, 0xDEAD_BEEF, 3_000)))
                .expect("replay")
                .0
        };
        let a = run();
        let b = run();
        assert_eq!(a.stats, b.stats, "{name}: runs must be bit-identical");
        assert_eq!(a.exceptions, b.exceptions, "{name}");
        assert!(
            a.stats.runtime.quanta > 0 && a.stats.runtime.weave_transactions > 0,
            "{name}: the machine must actually have run"
        );
    }
}

#[test]
fn weave_batching_depths_are_each_deterministic() {
    for batch in [1u32, 8, 64] {
        let cfg = MulticoreConfig::westmere(2).with_weave_batch(batch);
        let run = || {
            MulticoreEngine::new(cfg)
                .replay(Source::Shards(chaotic_shards(2, 99, 2_000)))
                .expect("replay")
                .0
        };
        assert_identical(&run(), &run());
    }
    // batch == 1 reproduces the strict one-transaction-per-turn weave:
    // no transaction ever rides another's turn.
    let strict = MulticoreEngine::new(MulticoreConfig::westmere(2).with_weave_batch(1))
        .replay(Source::Shards(chaotic_shards(2, 99, 2_000)))
        .expect("replay")
        .0;
    assert_eq!(strict.stats.runtime.batched_transactions, 0);
}

#[test]
fn disjoint_working_sets_need_zero_cross_core_coherence() {
    let shards: Vec<_> = (0..4).map(|c| disjoint_shard(c, 2_000)).collect();
    let out = MulticoreEngine::new(MulticoreConfig::westmere(4))
        .replay(Source::Shards(shards))
        .expect("replay")
        .0;
    // Every miss is private: the weave orders transactions but never
    // arbitrates between cores.
    let coh = &out.stats.combined.coherence;
    assert_eq!(coh.invalidations, 0, "disjoint sets never invalidate");
    assert_eq!(coh.cache_to_cache_transfers, 0);
    assert_eq!(coh.upgrades_s_to_m, 0, "no line is ever Shared");
    assert_eq!(
        out.stats.runtime.contended_transactions, 0,
        "no weave transaction may involve a second core"
    );
    assert!(
        out.stats.runtime.batched_transactions > 0,
        "private miss runs must batch into shared weave turns"
    );
    // And the run completed: every shard's memory ops were committed.
    assert_eq!(
        out.stats.combined.loads + out.stats.combined.stores,
        4 * (2_000 + 500),
        "all ops committed"
    );
}

#[test]
fn per_core_packs_replay_bit_identically() {
    for cores in [1usize, 2, 4] {
        let shards: Vec<_> = (0..cores as u64).map(|c| disjoint_shard(c, 500)).collect();
        let packs: Vec<TracePack> = shards
            .iter()
            .map(|s| TracePack::from_ops(s.iter().copied()))
            .collect();
        let unpacked = MulticoreEngine::new(MulticoreConfig::westmere(cores))
            .replay(Source::Shards(shards))
            .expect("replay")
            .0;
        let packed = MulticoreEngine::new(MulticoreConfig::westmere(cores))
            .replay(Source::Packs(&packs))
            .expect("replay")
            .0;
        assert_identical(&unpacked, &packed);
    }
}

/// Regression: the empty-quantum fast-forward must handle a core whose
/// cycle count lands **exactly** on a quantum boundary. Cores run while
/// `cycles < quantum_end`, so `cycles == quantum_end` cannot run in that
/// quantum and the skip must step one boundary further — an off-by-one
/// in either direction shows up as a wrong `rt.quanta`.
///
/// Westmere's 4-wide core makes `Exec(4n)` cost exactly `n` cycles, so
/// the landing point is exact in f64 (small integers).
#[test]
fn fast_forward_handles_a_trace_landing_exactly_on_the_boundary() {
    let cfg = MulticoreConfig::westmere(2).with_quantum(1_000.0);
    // Core 0 commits one huge Exec landing exactly on a boundary, then
    // one trailing instruction; core 1 finishes in the first quantum.
    for boundary_cycles in [2_000u64, 5_000, 1_000_000] {
        let shards = vec![
            vec![
                TraceOp::Exec((boundary_cycles * 4) as u32),
                TraceOp::Exec(4),
            ],
            vec![TraceOp::Exec(4)],
        ];
        let out = MulticoreEngine::new(cfg)
            .replay(Source::Shards(shards))
            .expect("replay")
            .0;
        // Quantum 1 runs the huge Exec (and all of core 1); every
        // boundary it sails over is skipped — `cycles == quantum_end`
        // is *not* runnable, so the landing boundary is skipped too —
        // and exactly one more quantum commits the trailing Exec.
        assert_eq!(
            out.stats.runtime.quanta, 2,
            "boundary_cycles={boundary_cycles}: empty quanta must be \
             fast-forwarded, including the exact-landing one"
        );
        assert_eq!(
            out.stats.combined.cycles,
            boundary_cycles as f64 + 1.0,
            "boundary_cycles={boundary_cycles}"
        );
        assert_eq!(out.stats.combined.instructions, boundary_cycles * 4 + 4 + 4);
    }
    // One cycle short of the boundary: the landing quantum *is*
    // runnable, so nothing extra is skipped and the count is identical.
    let shards = vec![
        vec![TraceOp::Exec(2_000 * 4 - 4), TraceOp::Exec(4)],
        vec![TraceOp::Exec(4)],
    ];
    let out = MulticoreEngine::new(cfg)
        .replay(Source::Shards(shards))
        .expect("replay")
        .0;
    assert_eq!(out.stats.runtime.quanta, 2);
    assert_eq!(out.stats.combined.cycles, 2_000.0);
}

/// Simulated numbers of one serial-weave replay of `chaotic_shards`.
#[derive(Debug, PartialEq)]
struct Pinned {
    cycles_bits: u64,
    core_cycles_bits: Vec<u64>,
    /// `[quanta, barrier_waits, weave_turns, weave_transactions,
    /// batched_transactions, contended_transactions]`.
    runtime: [u64; 6],
    coherence: CoherenceStats,
    spills: u64,
    fills: u64,
    exceptions_delivered: u64,
}

impl Pinned {
    fn of(out: &MulticoreOutcome) -> Self {
        let rt = &out.stats.runtime;
        Self {
            cycles_bits: out.stats.combined.cycles.to_bits(),
            core_cycles_bits: out
                .stats
                .per_core
                .iter()
                .map(|c| c.cycles.to_bits())
                .collect(),
            runtime: [
                rt.quanta,
                rt.barrier_waits,
                rt.weave_turns,
                rt.weave_transactions,
                rt.batched_transactions,
                rt.contended_transactions,
            ],
            coherence: out.stats.combined.coherence,
            spills: out.stats.combined.spills,
            fills: out.stats.combined.fills,
            exceptions_delivered: out.stats.combined.exceptions_delivered,
        }
    }
}

/// Pins the serial weave's simulated results as constants, so they are
/// compared across commits and not only between two runs of one build:
/// a refactor of the runtime, the weave or the MESI machine that shifts
/// a single cycle or counter fails here. The constants were recorded
/// with the round-robin weave at 2 and 4 cores × weave batch {1, 64}.
#[test]
fn serial_weave_results_match_recorded_constants() {
    let cases: [(u64, u32, Pinned); 4] = [
        (
            2,
            1,
            Pinned {
                cycles_bits: 0x40ef_b184_cccc_cd51,
                core_cycles_bits: vec![0x40ef_b184_cccc_cd51, 0x40ef_72cb_3333_33b0],
                runtime: [7, 14, 3462, 3461, 0, 2625],
                coherence: CoherenceStats {
                    invalidations: 1577,
                    upgrades_s_to_m: 939,
                    cache_to_cache_transfers: 1686,
                    califormed_transfers: 1246,
                    directory_lookups: 3461,
                },
                spills: 1247,
                fills: 1252,
                exceptions_delivered: 1054,
            },
        ),
        (
            2,
            64,
            Pinned {
                cycles_bits: 0x40ef_a7c4_cccc_cd3f,
                core_cycles_bits: vec![0x40ef_a7c4_cccc_cd3f, 0x40ef_138b_3333_33ad],
                runtime: [7, 14, 2506, 3326, 821, 2493],
                coherence: CoherenceStats {
                    invalidations: 1498,
                    upgrades_s_to_m: 897,
                    cache_to_cache_transfers: 1595,
                    califormed_transfers: 1156,
                    directory_lookups: 3326,
                },
                spills: 1157,
                fills: 1161,
                exceptions_delivered: 1054,
            },
        ),
        (
            4,
            1,
            Pinned {
                cycles_bits: 0x40ee_3b11_9999_9a01,
                core_cycles_bits: vec![
                    0x40ed_8538_0000_004a,
                    0x40ed_acb1_9999_9a0f,
                    0x40ee_3b11_9999_9a01,
                    0x40ed_d616_6666_66ca,
                ],
                runtime: [7, 28, 9767, 9767, 0, 6866],
                coherence: CoherenceStats {
                    invalidations: 6547,
                    upgrades_s_to_m: 1603,
                    cache_to_cache_transfers: 4316,
                    califormed_transfers: 3650,
                    directory_lookups: 9767,
                },
                spills: 3650,
                fills: 5693,
                exceptions_delivered: 3613,
            },
        ),
        (
            4,
            64,
            Pinned {
                cycles_bits: 0x40ee_0ad1_9999_9a0a,
                core_cycles_bits: vec![
                    0x40ed_dc5e_6666_66bc,
                    0x40ed_848b_3333_33a8,
                    0x40ee_0ad1_9999_9a0a,
                    0x40ed_8896_6666_66c1,
                ],
                runtime: [7, 28, 6816, 9639, 2825, 6792],
                coherence: CoherenceStats {
                    invalidations: 6464,
                    upgrades_s_to_m: 1569,
                    cache_to_cache_transfers: 4265,
                    califormed_transfers: 3604,
                    directory_lookups: 9639,
                },
                spills: 3604,
                fills: 5611,
                exceptions_delivered: 3608,
            },
        ),
    ];
    for (cores, batch, want) in cases {
        let cfg = MulticoreConfig::westmere(cores as usize).with_weave_batch(batch);
        let out = MulticoreEngine::new(cfg)
            .replay(Source::Shards(chaotic_shards(cores, 0xC0FFEE, 4_000)))
            .expect("replay")
            .0;
        assert_eq!(Pinned::of(&out), want, "{cores} cores, batch {batch}");
    }
}

#[test]
fn barrier_waits_track_quanta_and_cores() {
    for cores in [2usize, 4] {
        let out = MulticoreEngine::new(MulticoreConfig::westmere(cores))
            .replay(Source::Shards(chaotic_shards(cores as u64, 5, 1_000)))
            .expect("replay")
            .0;
        assert_eq!(
            out.stats.runtime.barrier_waits,
            out.stats.runtime.quanta * cores as u64
        );
        assert!(out.timing.bound_s >= 0.0 && out.timing.weave_s >= 0.0);
    }
}
