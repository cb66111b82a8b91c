//! The multicore runtime's configuration, deterministic runtime counters
//! and host-side phase timing (DESIGN.md §10).
//!
//! * [`RuntimeConfig`] — the weave batching knob.
//! * [`RuntimeStats`] — counters derived purely from simulated state
//!   (quanta, weave turns, batched/contended transactions). They are
//!   **bit-identical** across runs and
//!   across packed/unpacked replay, so they ride inside
//!   [`crate::stats::MulticoreStats`] and the determinism assertions.
//! * [`RuntimeTiming`] — host wall-clock per phase (bound / weave /
//!   bookkeeping) and the ops committed in the bound phase. Host timing
//!   varies from run to run by nature, so it lives on
//!   [`crate::multicore::MulticoreOutcome`], *outside* the stats that must
//!   compare equal.

/// Knobs of the multicore runtime, carried by
/// [`crate::multicore::MulticoreConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeConfig {
    /// Most coherence transactions one core may retire in a single weave
    /// turn. A run of *private* transactions (no other core involved)
    /// costs one turn instead of one turn each; a contended transaction
    /// always ends the turn so intra-quantum ping-pong keeps its
    /// transaction-granular round-robin. `1` reproduces the strict
    /// one-transaction-per-turn weave.
    pub weave_batch: u32,
}

impl RuntimeConfig {
    /// Default batching depth of a weave turn.
    pub const DEFAULT_WEAVE_BATCH: u32 = 64;
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            weave_batch: Self::DEFAULT_WEAVE_BATCH,
        }
    }
}

/// Deterministic counters of the multicore runtime. Every field is a
/// function of simulated state only, so they participate in the
/// bit-identity comparisons.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Cycle quanta executed.
    pub quanta: u64,
    /// Bound passes: `quanta × cores` (every core takes one bound phase
    /// per quantum). The name predates the serial bound phase, when each
    /// pass ended at a barrier; it stays because checkpoints carry it.
    pub barrier_waits: u64,
    /// Weave turns taken (one core's slice of the round-robin in which it
    /// made progress).
    pub weave_turns: u64,
    /// Coherence transactions executed in the weave phase.
    pub weave_transactions: u64,
    /// Weave transactions that rode an earlier transaction's turn — the
    /// savings of [`RuntimeConfig::weave_batch`] over the strict
    /// one-transaction-per-turn weave.
    pub batched_transactions: u64,
    /// Weave transactions that involved another core (recall,
    /// invalidation, cross-core upgrade) and therefore ended their turn.
    /// `weave_transactions − contended_transactions` is the private
    /// traffic the weave merely orders, rather than arbitrates.
    pub contended_transactions: u64,
}

/// Host wall-clock spent per phase — the breakdown the bench bins emit so
/// scaling regressions are diagnosable from the JSON artifact — and the
/// share of ops the bound phase committed. This lives outside
/// [`RuntimeStats`] and outside every bit-identity comparison; like the
/// clocks, a resumed run counts [`Self::bound_ops`] from its resume point.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeTiming {
    /// Seconds in the bound phase, summed over quanta.
    pub bound_s: f64,
    /// Seconds in the weave phase.
    pub weave_s: f64,
    /// Seconds of per-quantum bookkeeping after the weave: runtime
    /// counters, the fast-forward scan and, on telemetry runs, the
    /// runtime track's spans. Near 0.
    pub barrier_s: f64,
    /// Ops committed in the bound phase. Every other op of the run was
    /// committed by a weave turn.
    pub bound_ops: u64,
    /// Per-core / per-quantum breakdown of [`Self::weave_s`]. Populated
    /// only on telemetry-enabled runs (empty otherwise — plain runs don't
    /// pay for per-turn clock reads).
    pub weave_breakdown: crate::stats::WeaveTimingBreakdown,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_runtime_is_fixed_quantum() {
        let cfg = RuntimeConfig::default();
        assert_eq!(cfg.weave_batch, RuntimeConfig::DEFAULT_WEAVE_BATCH);
    }
}
