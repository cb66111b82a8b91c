//! Bridge between the simulator's statistics and the
//! `califorms-telemetry` counter registry (DESIGN.md §13).
//!
//! Everything in here is a pure function of already-deterministic inputs
//! ([`MulticoreStats`]), so the snapshots it produces are
//! **bit-identical across runs** — two replays of the same trace yield
//! byte-equal
//! [`CounterSnapshot::to_bytes`](califorms_telemetry::CounterSnapshot::to_bytes)
//! buffers, which is exactly what the cross-run determinism tests and the
//! oracle diff.
//!
//! Counter naming: `family.event`, with the registry lane carrying the
//! per-core axis. Per-core families (`core.*`, `l1d.*`, `weave.*`,
//! `decode.*`, `exceptions.*`) use lane = core id; the whole-machine
//! families (`dir.*`, `spill.*`, `fill.*`, `l2.*`, `l3.*`, `dram.*`,
//! `runtime.*`, `coherence.*`) use lane 0. `core.cycles_fp_bits` stores
//! the *bit pattern* of the fractional cycle counter (`f64::to_bits`), so
//! cycle counts join the byte-exact comparison without rounding.

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

/// Adds the counters of the levels below the L1 — the shared L2, L3 and
/// DRAM, and the spill/fill conversions at the L1 boundary — at lane 0.
fn shared_lanes(reg: &mut CounterRegistry, s: &SimStats) {
    cache_lanes(reg, "l2", 0, &s.l2);
    cache_lanes(reg, "l3", 0, &s.l3);
    reg.set("dram.accesses", 0, s.dram_accesses);
    reg.set("spill.lines", 0, s.spills);
    reg.set("spill.bytes", 0, s.spills * LINE);
    reg.set("fill.lines", 0, s.fills);
    reg.set("fill.bytes", 0, s.fills * LINE);
}

/// Builds the deterministic counter registry of a multi-core run.
///
/// `decode` carries per-core `(ops, bytes)` pack-decode progress; pass an
/// empty slice for runs replaying materialised shards (the `decode.*`
/// counters are then omitted entirely, keeping snapshots of packed and
/// unpacked replays comparable on their shared families).
pub fn multicore_counters(stats: &MulticoreStats, decode: &[(u64, u64)]) -> CounterRegistry {
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

    shared_lanes(&mut reg, &stats.combined);
    let c = &stats.combined.coherence;
    reg.set("dir.lookups", 0, c.directory_lookups);
    reg.set("dir.upgrades", 0, c.upgrades_s_to_m);
    reg.set("runtime.quanta", 0, stats.runtime.quanta);
    reg.set("runtime.barrier_waits", 0, stats.runtime.barrier_waits);
    reg.set("coherence.invalidations", 0, c.invalidations);
    reg.set("coherence.upgrades_s_to_m", 0, c.upgrades_s_to_m);
    reg.set("coherence.c2c_transfers", 0, c.cache_to_cache_transfers);
    reg.set("coherence.califormed_transfers", 0, c.califormed_transfers);
    reg.set("coherence.directory_lookups", 0, c.directory_lookups);
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stats of a one-core run: the core's counters are also the
    /// whole machine's.
    fn one_core(stats: SimStats) -> MulticoreStats {
        MulticoreStats {
            per_core: vec![stats.clone()],
            combined: stats,
            ..MulticoreStats::default()
        }
    }

    #[test]
    fn single_core_registry_has_the_core_families() {
        let stats = one_core(SimStats {
            instructions: 100,
            loads: 40,
            spills: 3,
            cycles: 123.5,
            ..SimStats::default()
        });
        let snap = multicore_counters(&stats, &[(100, 321)]).snapshot();
        assert_eq!(snap.total("core.instructions"), Some(100));
        assert_eq!(snap.total("spill.bytes"), Some(3 * LINE));
        assert_eq!(snap.total("decode.bytes"), Some(321));
        assert_eq!(snap.total("core.cycles_fp_bits"), Some(123.5f64.to_bits()));
    }

    #[test]
    fn unpacked_replay_omits_decode_counters() {
        let snap = multicore_counters(&one_core(SimStats::default()), &[]).snapshot();
        assert_eq!(snap.total("decode.ops"), None);
    }
}
