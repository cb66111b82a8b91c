//! Simulation statistics counters.

/// Per-cache hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit in this cache.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Lines evicted (capacity/conflict).
    pub evictions: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; zero when no accesses were made.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Coherence-traffic counters produced by the multi-core subsystem
/// ([`crate::coherence::CoherentHierarchy`]). All zero on single-core runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoherenceStats {
    /// L1 copies destroyed by a remote write request (M/E recalls and
    /// shared-copy invalidations).
    pub invalidations: u64,
    /// S→M upgrade requests (a core wrote a line it held Shared).
    pub upgrades_s_to_m: u64,
    /// Cache-to-cache transfers: a request serviced by recalling the line
    /// from a remote owner's L1 instead of the shared levels.
    pub cache_to_cache_transfers: u64,
    /// Cache-to-cache transfers whose line was califormed — each one runs
    /// the real bitvector→sentinel spill in the source L1 and the
    /// sentinel→bitvector fill in the destination L1.
    pub califormed_transfers: u64,
    /// Directory consultations (one per L1 miss or upgrade request).
    pub directory_lookups: u64,
}

/// One core's share of the weave phase — a deterministic per-core
/// breakdown of the global [`crate::runtime::RuntimeStats`] weave
/// counters (the per-core axis the aggregate `weave_s` hides).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreWeaveStats {
    /// Weave turns in which this core made progress.
    pub turns: u64,
    /// Coherence transactions this core retired in the weave.
    pub transactions: u64,
    /// Of those, transactions that rode an earlier transaction's turn.
    pub batched: u64,
    /// Of those, transactions that involved another core (and therefore
    /// ended their turn).
    pub contended: u64,
}

/// Deterministic weave-phase breakdown per core. Each column sums to the
/// corresponding global [`crate::runtime::RuntimeStats`] counter, and
/// like them these are functions of simulated state only — they
/// participate in the bit-identity comparisons.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WeaveBreakdown {
    /// Per-core weave activity (index = core id).
    pub per_core: Vec<CoreWeaveStats>,
}

/// Host-time weave breakdown, recorded only on telemetry-enabled runs
/// (both vectors are empty otherwise: per-turn clock reads are not free,
/// and plain runs must not pay for them). Host wall-clock is
/// scheduling-dependent, so this lives with
/// [`crate::runtime::RuntimeTiming`] on the outcome, *outside* every
/// bit-identity comparison.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WeaveTimingBreakdown {
    /// Seconds of weave-turn time attributed to each core.
    pub per_core_s: Vec<f64>,
    /// Seconds of weave time per quantum, capped at
    /// [`Self::MAX_QUANTUM_SAMPLES`] entries.
    pub per_quantum_s: Vec<f64>,
    /// Quanta whose samples were dropped after the cap (never silent).
    pub quantum_samples_dropped: u64,
}

impl WeaveTimingBreakdown {
    /// Most per-quantum samples kept (a multi-hour replay must not grow
    /// the outcome without bound).
    pub const MAX_QUANTUM_SAMPLES: usize = 1 << 16;
}

/// Aggregated statistics of a [`crate::multicore::MulticoreEngine`] run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MulticoreStats {
    /// Per-core statistics (index = core id). `l1d` counters are the
    /// core's private L1; shared-level counters are zero here and live in
    /// [`Self::combined`].
    pub per_core: Vec<SimStats>,
    /// Whole-machine view: summed instruction/op counts, `cycles` = the
    /// slowest core (makespan), shared L2/L3/DRAM counters, conversion
    /// counts and the coherence counters.
    pub combined: SimStats,
    /// Parallel-runtime counters (quanta, weave turns, batched and
    /// contended transactions). Deterministic — they participate in
    /// bit-identity comparisons like every other counter here.
    pub runtime: crate::runtime::RuntimeStats,
    /// Deterministic per-core weave breakdown of the [`Self::runtime`]
    /// totals.
    pub weave: WeaveBreakdown,
}

impl MulticoreStats {
    /// Number of simulated cores.
    pub fn cores(&self) -> usize {
        self.per_core.len()
    }

    /// Aggregate instructions per cycle: total retired instructions over
    /// the makespan (the "simulated IPC" the scaling bench reports).
    pub fn aggregate_ipc(&self) -> f64 {
        if self.combined.cycles == 0.0 {
            0.0
        } else {
            self.combined.instructions as f64 / self.combined.cycles
        }
    }
}

/// Full-run statistics produced by [`crate::engine::Engine`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Simulated cycles (fractional: the core model issues multiple
    /// instructions per cycle).
    pub cycles: f64,
    /// Instructions retired, including memory ops and `CFORM`s.
    pub instructions: u64,
    /// Data loads executed.
    pub loads: u64,
    /// Data stores executed (committed or suppressed).
    pub stores: u64,
    /// `CFORM` instructions executed.
    pub cforms: u64,
    /// L1 data cache counters.
    pub l1d: CacheStats,
    /// L2 cache counters.
    pub l2: CacheStats,
    /// L3 cache counters.
    pub l3: CacheStats,
    /// Main-memory line fetches.
    pub dram_accesses: u64,
    /// L1→L2 spill conversions performed (califormed lines only).
    pub spills: u64,
    /// L2→L1 fill conversions performed (califormed lines only).
    pub fills: u64,
    /// Califorms exceptions delivered to the handler.
    pub exceptions_delivered: u64,
    /// Califorms exceptions suppressed by whitelist masks.
    pub exceptions_suppressed: u64,
    /// Stores suppressed because they targeted a security byte.
    pub stores_suppressed: u64,
    /// Coherence counters (all zero for single-core runs).
    pub coherence: CoherenceStats,
}

impl SimStats {
    /// Instructions per cycle over the whole run.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0.0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles
        }
    }

    /// Slowdown of `self` relative to a `baseline` run of the same work:
    /// `cycles / baseline.cycles − 1`, e.g. `0.03` = 3 % slower.
    pub fn slowdown_vs(&self, baseline: &SimStats) -> f64 {
        assert!(baseline.cycles > 0.0, "baseline ran zero cycles");
        self.cycles / baseline.cycles - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_ratio_handles_zero_and_counts() {
        let mut s = CacheStats::default();
        assert_eq!(s.miss_ratio(), 0.0);
        s.hits = 3;
        s.misses = 1;
        assert_eq!(s.accesses(), 4);
        assert!((s.miss_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn slowdown_is_relative_cycles() {
        let base = SimStats {
            cycles: 1000.0,
            ..Default::default()
        };
        let run = SimStats {
            cycles: 1030.0,
            ..Default::default()
        };
        assert!((run.slowdown_vs(&base) - 0.03).abs() < 1e-12);
    }

    #[test]
    fn ipc_computes() {
        let s = SimStats {
            cycles: 500.0,
            instructions: 1000,
            ..Default::default()
        };
        assert!((s.ipc() - 2.0).abs() < 1e-12);
    }
}
