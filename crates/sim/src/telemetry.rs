//! Bridge between the simulator's statistics and the
//! `califorms-telemetry` counter registry (DESIGN.md §13).
//!
//! Everything in here is a pure function of already-deterministic inputs
//! ([`SimStats`], [`MulticoreStats`], the per-shard snapshots), so the
//! snapshots it produces are **bit-identical across runs** — two replays
//! of the same trace yield byte-equal
//! [`CounterSnapshot::to_bytes`](califorms_telemetry::CounterSnapshot::to_bytes)
//! buffers, which is exactly what the cross-run determinism tests and the
//! oracle diff.
//!
//! Counter naming: `family.event`, with the registry lane carrying the
//! per-core or per-shard axis. Per-core families (`core.*`, `l1d.*`,
//! `weave.*`, `decode.*`, `exceptions.*`) use lane = core id; per-shard
//! families (`dir.*`, `spill.*`, `fill.*`, `weave_shard.*`, `l2.*`,
//! `l3.*`, `dram.*`) use lane = directory-shard/bank id; `runtime.*` and
//! `coherence.*` are global (lane 0). Single-core snapshots use lane 0
//! everywhere. `core.cycles_fp_bits` stores the *bit pattern* of the
//! fractional cycle counter (`f64::to_bits`), so cycle counts join the
//! byte-exact comparison without rounding.

use crate::coherence::DirectoryShardStats;
use crate::hierarchy::BankLevelStats;
use crate::lsq::LsqStats;
use crate::stats::{CacheStats, MulticoreStats, SimStats};
use califorms_telemetry::CounterRegistry;

/// Bytes of a cache line — the `spill.bytes` / `fill.bytes` multiplier
/// (every spill/fill conversion moves exactly one line).
const LINE: u64 = crate::LINE_BYTES;

/// Adds one cache's hit/miss/eviction/writeback counters under `family`
/// at `lane`.
fn cache_lanes(reg: &mut CounterRegistry, family: &str, lane: usize, s: &CacheStats) {
    reg.set(&format!("{family}.hits"), lane, s.hits);
    reg.set(&format!("{family}.misses"), lane, s.misses);
    reg.set(&format!("{family}.evictions"), lane, s.evictions);
    reg.set(&format!("{family}.writebacks"), lane, s.writebacks);
}

/// Adds one core's architectural counters at `lane`.
fn core_lanes(reg: &mut CounterRegistry, lane: usize, s: &SimStats) {
    reg.set("core.instructions", lane, s.instructions);
    reg.set("core.loads", lane, s.loads);
    reg.set("core.stores", lane, s.stores);
    reg.set("core.cforms", lane, s.cforms);
    reg.set("core.stores_suppressed", lane, s.stores_suppressed);
    reg.set("core.cycles_fp_bits", lane, s.cycles.to_bits());
    reg.set("exceptions.delivered", lane, s.exceptions_delivered);
    reg.set("exceptions.suppressed", lane, s.exceptions_suppressed);
    cache_lanes(reg, "l1d", lane, &s.l1d);
}

/// Builds the deterministic counter registry of a multi-core run.
///
/// `decode` carries per-core `(ops, bytes)` pack-decode progress; pass an
/// empty slice for runs replaying materialised shards (the `decode.*`
/// counters are then omitted entirely, keeping snapshots of packed and
/// unpacked replays comparable on their shared families).
pub fn multicore_counters(
    stats: &MulticoreStats,
    shards: &[DirectoryShardStats],
    banks: &[BankLevelStats],
    decode: &[(u64, u64)],
) -> CounterRegistry {
    let mut reg = CounterRegistry::new();

    for (c, s) in stats.per_core.iter().enumerate() {
        core_lanes(&mut reg, c, s);
    }
    for (c, w) in stats.weave.per_core.iter().enumerate() {
        reg.set("weave.turns", c, w.turns);
        reg.set("weave.transactions", c, w.transactions);
        reg.set("weave.batched", c, w.batched);
        reg.set("weave.contended", c, w.contended);
    }
    for (c, (ops, bytes)) in decode.iter().enumerate() {
        reg.set("decode.ops", c, *ops);
        reg.set("decode.bytes", c, *bytes);
    }

    for (b, sh) in shards.iter().enumerate() {
        reg.set("dir.lookups", b, sh.lookups);
        reg.set("dir.upgrades", b, sh.upgrades);
        reg.set("spill.lines", b, sh.spills);
        reg.set("spill.bytes", b, sh.spills * LINE);
        reg.set("fill.lines", b, sh.fills);
        reg.set("fill.bytes", b, sh.fills * LINE);
        reg.set("weave_shard.transactions", b, sh.weave_transactions);
        reg.set("weave_shard.batched", b, sh.weave_batched);
        reg.set("weave_shard.contended", b, sh.weave_contended);
    }
    for (b, bank) in banks.iter().enumerate() {
        cache_lanes(&mut reg, "l2", b, &bank.l2);
        cache_lanes(&mut reg, "l3", b, &bank.l3);
        reg.set("dram.accesses", b, bank.dram_accesses);
        reg.set("l2.resident_lines", b, bank.l2_resident_lines);
        reg.set("l3.resident_lines", b, bank.l3_resident_lines);
    }

    reg.set("runtime.quanta", 0, stats.runtime.quanta);
    reg.set("runtime.barrier_waits", 0, stats.runtime.barrier_waits);
    let c = &stats.combined.coherence;
    reg.set("coherence.invalidations", 0, c.invalidations);
    reg.set("coherence.upgrades_s_to_m", 0, c.upgrades_s_to_m);
    reg.set("coherence.c2c_transfers", 0, c.cache_to_cache_transfers);
    reg.set("coherence.califormed_transfers", 0, c.califormed_transfers);
    reg.set("coherence.directory_lookups", 0, c.directory_lookups);
    reg
}

/// Builds the deterministic counter registry of a single-core
/// [`crate::engine::Engine`] run (all lanes 0). `decode` is the pack
/// decoder's `(ops, bytes)` progress, or `None` for unpacked replay.
pub fn single_core_counters(stats: &SimStats, decode: Option<(u64, u64)>) -> CounterRegistry {
    let mut reg = CounterRegistry::new();
    core_lanes(&mut reg, 0, stats);
    cache_lanes(&mut reg, "l2", 0, &stats.l2);
    cache_lanes(&mut reg, "l3", 0, &stats.l3);
    reg.set("dram.accesses", 0, stats.dram_accesses);
    reg.set("spill.lines", 0, stats.spills);
    reg.set("spill.bytes", 0, stats.spills * LINE);
    reg.set("fill.lines", 0, stats.fills);
    reg.set("fill.bytes", 0, stats.fills * LINE);
    if let Some((ops, bytes)) = decode {
        reg.set("decode.ops", 0, ops);
        reg.set("decode.bytes", 0, bytes);
    }
    reg
}

/// Adds a [`crate::lsq::LoadStoreQueue`]'s counters at `lane` — the LSQ
/// stall/forward split the pipeline-semantics tests assert on.
pub fn lsq_lanes(reg: &mut CounterRegistry, lane: usize, s: &LsqStats) {
    reg.set("lsq.loads_resolved", lane, s.loads_resolved);
    reg.set("lsq.forwards", lane, s.forwards);
    reg.set("lsq.stalls", lane, s.partial_overlap_stalls);
    reg.set("lsq.cform_matches", lane, s.cform_matches);
    reg.set("lsq.store_cform_conflicts", lane, s.store_cform_conflicts);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsq::LoadStoreQueue;

    #[test]
    fn single_core_registry_has_the_core_families() {
        let stats = SimStats {
            instructions: 100,
            loads: 40,
            spills: 3,
            cycles: 123.5,
            ..SimStats::default()
        };
        let snap = single_core_counters(&stats, Some((100, 321))).snapshot();
        assert_eq!(snap.total("core.instructions"), Some(100));
        assert_eq!(snap.total("spill.bytes"), Some(3 * LINE));
        assert_eq!(snap.total("decode.bytes"), Some(321));
        assert_eq!(snap.total("core.cycles_fp_bits"), Some(123.5f64.to_bits()));
    }

    #[test]
    fn unpacked_replay_omits_decode_counters() {
        let snap = single_core_counters(&SimStats::default(), None).snapshot();
        assert_eq!(snap.total("decode.ops"), None);
    }

    #[test]
    fn lsq_lanes_expose_the_stall_split() {
        let mut q = LoadStoreQueue::new();
        q.push_store(0x100, vec![1, 2]);
        let _ = q.resolve_load(0x101, 4); // partial overlap → stall
        let mut reg = CounterRegistry::new();
        lsq_lanes(&mut reg, 0, &q.stats());
        let snap = reg.snapshot();
        assert_eq!(snap.total("lsq.stalls"), Some(1));
        assert_eq!(snap.total("lsq.loads_resolved"), Some(1));
    }
}
