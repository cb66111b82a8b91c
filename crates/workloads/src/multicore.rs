//! Multi-threaded workload generators: per-core trace shards for the
//! [`califorms_sim::MulticoreEngine`].
//!
//! Where [`crate::generator`] models single SPEC-like programs, this
//! module models *sharing patterns* — the access shapes that exercise the
//! MESI-coherent califormed hierarchy (DESIGN.md §7):
//!
//! * [`MtPattern::ProducerConsumer`] — core pairs moving records through
//!   a shared ring (cache-to-cache M transfers in steady state);
//! * [`MtPattern::FalseSharing`] — all cores writing distinct bytes of
//!   the *same* lines (worst-case invalidation/upgrade ping-pong);
//! * [`MtPattern::LockContention`] — every core bouncing one lock line
//!   plus the table it protects;
//! * [`MtPattern::SharedTable`] — a read-mostly shared table with rare
//!   updates, modelling many concurrent users hitting one hot data set.
//!
//! With [`MtWorkloadConfig::califormed`] set, every shared record line
//! carries a 7-byte security span in its tail (the paper's maximum span
//! width), installed by `CFORM`s at the start of core 0's shard. Correct
//! shards never touch the spans — so legitimate multi-threaded runs stay
//! exception-free while every coherence transfer of those lines runs the
//! real bitvector↔sentinel conversions.

use califorms_sim::multicore::{MulticoreConfig, MulticoreEngine, Source};
use califorms_sim::stats::MulticoreStats;
use califorms_sim::{HierarchyConfig, TraceOp, LINE_BYTES};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Base of the shared region all patterns allocate from.
const SHARED_BASE: u64 = 0x5000_0000;

/// Base of core `c`'s private region (16 MB apart — never shared).
fn private_base(core: usize) -> u64 {
    0x6000_0000 + core as u64 * 0x100_0000
}

/// Security span installed in each shared record line when
/// [`MtWorkloadConfig::califormed`] is set: bytes 56..=62, the paper's
/// maximum 7-byte span. Payload accesses stay within bytes 0..56.
pub const RECORD_SPAN_MASK: u64 = 0x7F << 56;

/// Bytes of a shared record line that legitimate accesses may touch when
/// the span is installed.
const PAYLOAD_BYTES: u64 = 56;

/// The sharing pattern of a multi-threaded workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MtPattern {
    /// Core pairs: even cores produce records into a per-pair ring, odd
    /// cores consume them.
    ProducerConsumer,
    /// All cores repeatedly write their own 8-byte slot of shared lines.
    FalseSharing,
    /// All cores acquire/release one lock line around accesses to the
    /// table it protects.
    LockContention,
    /// Read-mostly shared table (97 % loads) with rare updates — many
    /// concurrent users over one hot data set. The table spills the
    /// private L1s, so steady state exercises the shared levels.
    SharedTable,
    /// The same read-mostly shape over a table that **fits** in every
    /// private L1: after warm-up nearly every access is a clean Shared
    /// hit — the `replay` bench's read-mostly row.
    SharedTableHot,
}

impl MtPattern {
    /// All patterns, for sweeps.
    pub fn all() -> [MtPattern; 5] {
        [
            MtPattern::ProducerConsumer,
            MtPattern::FalseSharing,
            MtPattern::LockContention,
            MtPattern::SharedTable,
            MtPattern::SharedTableHot,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            MtPattern::ProducerConsumer => "producer-consumer",
            MtPattern::FalseSharing => "false-sharing",
            MtPattern::LockContention => "lock-contention",
            MtPattern::SharedTable => "shared-table",
            MtPattern::SharedTableHot => "shared-table-hot",
        }
    }
}

/// Parameters of a multi-threaded workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MtWorkloadConfig {
    /// Sharing pattern.
    pub pattern: MtPattern,
    /// Number of cores (= shards).
    pub cores: usize,
    /// Memory operations to generate per core.
    pub ops_per_core: usize,
    /// Seed for the per-core access streams.
    pub seed: u64,
    /// Whether shared record lines carry security spans (installed by
    /// `CFORM`s in core 0's shard).
    pub califormed: bool,
}

/// A generated multi-threaded workload, ready for
/// [`califorms_sim::MulticoreEngine::replay`].
#[derive(Debug, Clone)]
pub struct MtWorkload {
    /// Pattern name.
    pub name: &'static str,
    /// One trace shard per core.
    pub shards: Vec<Vec<TraceOp>>,
    /// Memory-level parallelism for the core model.
    pub overlap: f64,
}

impl MtWorkload {
    /// Number of cores this workload was generated for.
    pub fn cores(&self) -> usize {
        self.shards.len()
    }

    /// Encodes each per-core shard into its own
    /// [`TracePack`](califorms_sim::TracePack) (shards are
    /// replayed independently per core, so they pack independently too).
    pub fn to_packs(&self) -> Vec<califorms_sim::TracePack> {
        self.shards
            .iter()
            .map(|s| califorms_sim::TracePack::from_ops(s.iter().copied()))
            .collect()
    }
}

fn rng_for(cfg: &MtWorkloadConfig, core: usize) -> SmallRng {
    SmallRng::seed_from_u64(
        cfg.seed ^ (core as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ cfg.pattern as u64,
    )
}

/// Emits the `CFORM`s that fence `lines` record lines starting at `base`
/// (one span per line).
fn caliform_region(ops: &mut Vec<TraceOp>, base: u64, lines: u64) {
    for i in 0..lines {
        ops.push(TraceOp::Cform {
            line_addr: base + i * LINE_BYTES,
            attrs: RECORD_SPAN_MASK,
            mask: RECORD_SPAN_MASK,
        });
    }
}

/// Random payload offset (8-byte aligned, never in the span).
fn payload_off(rng: &mut SmallRng) -> u64 {
    rng.gen_range(0..PAYLOAD_BYTES / 8) * 8
}

/// Generates the per-core shards for `cfg`.
pub fn generate_mt(cfg: &MtWorkloadConfig) -> MtWorkload {
    assert!(cfg.cores >= 1, "need at least one core");
    let shards = match cfg.pattern {
        MtPattern::ProducerConsumer => producer_consumer(cfg),
        MtPattern::FalseSharing => false_sharing(cfg),
        MtPattern::LockContention => lock_contention(cfg),
        MtPattern::SharedTable => shared_table(cfg, 2048), // 128 KB: spills the private L1s
        MtPattern::SharedTableHot => shared_table(cfg, 192), // 12 KB: L1-resident hot set
    };
    MtWorkload {
        name: cfg.pattern.name(),
        shards,
        overlap: 0.6,
    }
}

/// Producer/consumer ring: pair (2k, 2k+1) shares a 32-slot ring of
/// record lines plus a publish-flag line. A lone trailing core (odd core
/// count) produces and consumes its own ring.
fn producer_consumer(cfg: &MtWorkloadConfig) -> Vec<Vec<TraceOp>> {
    const RING_SLOTS: u64 = 32;
    // Ring + flag line, rounded to a line-aligned region per pair.
    const PAIR_BYTES: u64 = (RING_SLOTS + 1) * LINE_BYTES;
    let ring_base = |pair: u64| SHARED_BASE + pair * PAIR_BYTES;
    let flag_line = |pair: u64| ring_base(pair) + RING_SLOTS * LINE_BYTES;

    (0..cfg.cores)
        .map(|core| {
            let mut rng = rng_for(cfg, core);
            let pair = (core / 2) as u64;
            let lone = core + 1 == cfg.cores && cfg.cores % 2 == 1;
            let producing = core % 2 == 0;
            let mut ops = Vec::with_capacity(cfg.ops_per_core * 2);
            if cfg.califormed && (producing || lone) {
                caliform_region(&mut ops, ring_base(pair), RING_SLOTS);
            }
            let mut emitted = 0usize;
            let mut slot = 0u64;
            while emitted < cfg.ops_per_core {
                let line = ring_base(pair) + slot * LINE_BYTES;
                ops.push(TraceOp::Exec(rng.gen_range(4..12)));
                let produce_now = producing || (lone && slot.is_multiple_of(2));
                if produce_now {
                    // Fill the record's payload, then publish.
                    for off in (0..PAYLOAD_BYTES).step_by(8).take(4) {
                        ops.push(TraceOp::Store {
                            addr: line + off,
                            size: 8,
                        });
                        emitted += 1;
                    }
                    ops.push(TraceOp::Store {
                        addr: flag_line(pair),
                        size: 8,
                    });
                    emitted += 1;
                } else {
                    // Poll the flag, then read the record.
                    ops.push(TraceOp::Load {
                        addr: flag_line(pair),
                        size: 8,
                    });
                    emitted += 1;
                    for off in (0..PAYLOAD_BYTES).step_by(8).take(4) {
                        ops.push(TraceOp::Load {
                            addr: line + off,
                            size: 8,
                        });
                        emitted += 1;
                    }
                }
                slot = (slot + 1) % RING_SLOTS;
            }
            ops
        })
        .collect()
}

/// False sharing: every core hammers its own 8-byte slot, but slots are
/// packed several to a line, so each store invalidates the others' copies.
fn false_sharing(cfg: &MtWorkloadConfig) -> Vec<Vec<TraceOp>> {
    // With spans installed, only the 56-byte payload holds slots.
    let slots_per_line: usize = if cfg.califormed { 6 } else { 8 };
    (0..cfg.cores)
        .map(|core| {
            let mut rng = rng_for(cfg, core);
            let line = SHARED_BASE + (core / slots_per_line) as u64 * LINE_BYTES;
            let slot = line + (core % slots_per_line) as u64 * 8;
            let mut ops = Vec::with_capacity(cfg.ops_per_core * 2);
            if cfg.califormed && core % slots_per_line == 0 {
                caliform_region(&mut ops, line, 1);
            }
            let mut emitted = 0usize;
            while emitted < cfg.ops_per_core {
                ops.push(TraceOp::Exec(rng.gen_range(2..8)));
                ops.push(TraceOp::Store {
                    addr: slot,
                    size: 8,
                });
                ops.push(TraceOp::Load {
                    addr: slot,
                    size: 8,
                });
                emitted += 2;
            }
            ops
        })
        .collect()
}

/// Lock contention: one lock line, acquired (load + store) around a
/// 4-access critical section over the 8-line table it protects.
fn lock_contention(cfg: &MtWorkloadConfig) -> Vec<Vec<TraceOp>> {
    const TABLE_LINES: u64 = 8;
    let lock = SHARED_BASE;
    let table = SHARED_BASE + LINE_BYTES;
    (0..cfg.cores)
        .map(|core| {
            let mut rng = rng_for(cfg, core);
            let mut ops = Vec::with_capacity(cfg.ops_per_core * 2);
            if cfg.califormed && core == 0 {
                caliform_region(&mut ops, table, TABLE_LINES);
            }
            let mut emitted = 0usize;
            while emitted < cfg.ops_per_core {
                ops.push(TraceOp::Load {
                    addr: lock,
                    size: 8,
                }); // test
                ops.push(TraceOp::Store {
                    addr: lock,
                    size: 8,
                }); // acquire
                emitted += 2;
                for _ in 0..4 {
                    let addr =
                        table + rng.gen_range(0..TABLE_LINES) * LINE_BYTES + payload_off(&mut rng);
                    if rng.gen_range(0..4) == 0 {
                        ops.push(TraceOp::Store { addr, size: 8 });
                    } else {
                        ops.push(TraceOp::Load { addr, size: 8 });
                    }
                    emitted += 1;
                }
                ops.push(TraceOp::Store {
                    addr: lock,
                    size: 8,
                }); // release
                emitted += 1;
                ops.push(TraceOp::Exec(rng.gen_range(10..30))); // outside work
            }
            ops
        })
        .collect()
}

/// Read-mostly shared table: 97 % loads of a hot shared table, 1 % table
/// updates, 2 % private stores — the "millions of concurrent users over
/// one data set" shape the ROADMAP asks for. Nearly every access is a
/// clean Shared hit that needs no coherence transaction;
/// `table_lines` decides whether the hot set lives in the private L1s
/// ([`MtPattern::SharedTableHot`]) or thrashes them into the shared
/// levels ([`MtPattern::SharedTable`]).
fn shared_table(cfg: &MtWorkloadConfig, table_lines: u64) -> Vec<Vec<TraceOp>> {
    (0..cfg.cores)
        .map(|core| {
            let mut rng = rng_for(cfg, core);
            let mut ops = Vec::with_capacity(cfg.ops_per_core * 2);
            if cfg.califormed && core == 0 {
                caliform_region(&mut ops, SHARED_BASE, table_lines);
            }
            let priv_base = private_base(core);
            let mut emitted = 0usize;
            while emitted < cfg.ops_per_core {
                ops.push(TraceOp::Exec(rng.gen_range(4..16)));
                let roll = rng.gen_range(0..100);
                let table_addr = SHARED_BASE
                    + rng.gen_range(0..table_lines) * LINE_BYTES
                    + payload_off(&mut rng);
                if roll < 97 {
                    ops.push(TraceOp::Load {
                        addr: table_addr,
                        size: 8,
                    });
                } else if roll < 98 {
                    ops.push(TraceOp::Store {
                        addr: table_addr,
                        size: 8,
                    });
                } else {
                    let addr = priv_base + rng.gen_range(0..4096u64) * 8;
                    ops.push(TraceOp::Store { addr, size: 8 });
                }
                emitted += 1;
            }
            ops
        })
        .collect()
}

/// The engine configuration [`run_mt`] applies to a workload: the
/// Table 3 machine with the workload's memory-level parallelism.
pub fn mt_config(workload: &MtWorkload, hcfg: HierarchyConfig) -> MulticoreConfig {
    MulticoreConfig {
        hierarchy: hcfg,
        ..MulticoreConfig::westmere(workload.cores())
    }
    .with_overlap(workload.overlap)
}

/// Runs a multi-threaded workload under an explicit engine configuration
/// and returns the full outcome (stats, exceptions, per-phase host
/// timing) — the driver the scaling bench uses so quantum and runtime
/// overrides reach the engine.
pub fn run_mt_outcome(
    workload: &MtWorkload,
    cfg: MulticoreConfig,
) -> califorms_sim::MulticoreOutcome {
    MulticoreEngine::new(cfg)
        .replay(Source::Shards(workload.shards.clone()))
        .expect("multi-threaded workload replays")
        .0
}

/// Runs a multi-threaded workload and returns its statistics — the
/// common driver the scaling bench and tests share.
pub fn run_mt(workload: &MtWorkload, hcfg: HierarchyConfig) -> MulticoreStats {
    run_mt_outcome(workload, mt_config(workload, hcfg)).stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(pattern: MtPattern, cores: usize) -> MtWorkloadConfig {
        MtWorkloadConfig {
            pattern,
            cores,
            ops_per_core: 2_000,
            seed: 42,
            califormed: true,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_mt(&cfg(MtPattern::SharedTable, 4));
        let b = generate_mt(&cfg(MtPattern::SharedTable, 4));
        assert_eq!(a.shards, b.shards);
        let c = generate_mt(&MtWorkloadConfig {
            seed: 43,
            ..cfg(MtPattern::SharedTable, 4)
        });
        assert_ne!(a.shards, c.shards, "different seeds differ");
    }

    #[test]
    fn every_pattern_runs_clean_and_counts_coherence() {
        for pattern in MtPattern::all() {
            let w = generate_mt(&cfg(pattern, 4));
            assert_eq!(w.cores(), 4);
            let stats = run_mt(&w, HierarchyConfig::westmere());
            assert_eq!(
                stats.combined.exceptions_delivered, 0,
                "{}: legitimate threads never fault",
                w.name
            );
            assert!(
                stats.combined.coherence.cache_to_cache_transfers > 0,
                "{}: sharing must move lines core-to-core",
                w.name
            );
            assert!(
                stats.combined.coherence.califormed_transfers > 0,
                "{}: califormed lines must ride those transfers",
                w.name
            );
            assert_eq!(stats.cores(), 4);
        }
    }

    #[test]
    fn false_sharing_is_the_invalidation_champion() {
        let mk = |p| {
            let w = generate_mt(&cfg(p, 4));
            run_mt(&w, HierarchyConfig::westmere())
                .combined
                .coherence
                .invalidations
        };
        let fs = mk(MtPattern::FalseSharing);
        let st = mk(MtPattern::SharedTable);
        assert!(
            fs > st * 2,
            "false sharing ({fs}) must invalidate far more than a read-mostly table ({st})"
        );
    }

    #[test]
    fn lock_contention_upgrades_shared_lines() {
        let w = generate_mt(&cfg(MtPattern::LockContention, 4));
        let stats = run_mt(&w, HierarchyConfig::westmere());
        assert!(stats.combined.coherence.upgrades_s_to_m > 0);
    }

    #[test]
    fn uncaliformed_variant_emits_no_cforms() {
        let w = generate_mt(&MtWorkloadConfig {
            califormed: false,
            ..cfg(MtPattern::ProducerConsumer, 4)
        });
        for shard in &w.shards {
            assert!(shard.iter().all(|op| !matches!(op, TraceOp::Cform { .. })));
        }
        let stats = run_mt(&w, HierarchyConfig::westmere());
        assert_eq!(stats.combined.cforms, 0);
        assert_eq!(stats.combined.coherence.califormed_transfers, 0);
    }
}
