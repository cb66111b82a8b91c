//! # califorms-sim
//!
//! A trace-driven, cycle-accounting simulator of a Westmere-class memory
//! hierarchy with Califorms support — the substitute for the paper's
//! ZSim + Pin evaluation substrate (see DESIGN.md §2 for the substitution
//! argument).
//!
//! The hierarchy is functional, not just a hit/miss counter: the L1 data
//! cache holds lines in *califorms-bitvector* format, the L2/L3/DRAM hold
//! *califorms-sentinel* lines, and every L1 fill/spill actually runs the
//! conversion algorithms from `califorms-core`. Security-byte accesses are
//! detected exactly where the hardware would detect them, and the
//! privileged-exception/whitelisting machinery is exercised end to end.
//!
//! * [`cache`] — generic set-associative, write-back, LRU cache.
//! * [`hierarchy`] — L1D/L2/L3/DRAM with the Table 3 configuration and the
//!   califorms conversion hooks at the L1 boundary.
//! * [`coherence`] — the L1 of both engines, with the one byte-granular
//!   access path, and the multi-core extension: a MESI directory over
//!   per-core bitvector-format L1Ds sharing the sentinel-format L2/L3,
//!   with the real spill/fill conversions on every cross-core transfer.
//! * [`multicore`] — sharded trace replay in deterministic cycle quanta,
//!   each a bound phase per core and a round-robin weave.
//! * [`lsq`] — load/store-queue semantics for in-flight `CFORM`s
//!   (Section 5.3): no store-to-load forwarding, zero on match.
//! * [`cpu`] — a simple width/overlap core timing model.
//! * [`trace`] — the memory-access trace representation workloads emit.
//! * [`tracepack`] — the compact varint-delta binary trace format the
//!   replay hot path batch-decodes from.
//! * [`engine`] — runs a trace through core + hierarchy and produces
//!   [`stats::SimStats`].
//! * [`os`] — OS support (Section 6.3): page swap with 8 B-per-page
//!   metadata preservation, and the un-califorming I/O boundary.
//! * [`checkpoint`] — versioned binary engine-state snapshots for
//!   crash-tolerant replay: checkpoint at quantum boundaries, resume
//!   mid-pack, bit-identical to a straight-through run.
//! * [`telemetry`] — the bridge to `califorms-telemetry`: deterministic
//!   counter snapshots of a run, per-core lanes, and the span-recording
//!   hooks behind [`multicore::MulticoreConfig::telemetry`].
//! * [`vector`] — the three Appendix B SIMD/vector-load policies.
//! * [`dma`] — califorms-aware vs legacy DMA engines (the Section 7.2
//!   heterogeneous-access hazard).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod checkpoint;
pub mod coherence;
pub mod cpu;
pub mod dma;
pub mod engine;
pub mod hierarchy;
pub mod lsq;
pub mod multicore;
pub mod os;
pub mod runtime;
pub mod stats;
pub mod telemetry;
pub mod trace;
pub mod tracepack;
pub mod vector;

pub use checkpoint::{CheckpointError, Checkpoints};
pub use coherence::{CoherenceConfig, CoherentHierarchy, Mesi};
pub use cpu::CoreConfig;
pub use engine::{Engine, SimOutcome};
pub use hierarchy::{Hierarchy, HierarchyConfig, LineHasher, LineMap};
pub use multicore::{
    shard_ops, FaultPlan, MulticoreConfig, MulticoreEngine, MulticoreOutcome, RunError, Source,
    WorkerPanic,
};
pub use runtime::{RuntimeConfig, RuntimeStats, RuntimeTiming};
pub use stats::{CoherenceStats, MulticoreStats, SimStats};
pub use trace::TraceOp;
pub use tracepack::{TracePack, TracePackError};

/// Cache-line size used throughout (matches `califorms_core::LINE_BYTES`).
pub const LINE_BYTES: u64 = califorms_core::LINE_BYTES as u64;

/// Rounds an address down to its cache-line base.
#[inline]
pub const fn line_base(addr: u64) -> u64 {
    addr & !(LINE_BYTES - 1)
}

/// Byte offset of an address within its cache line.
#[inline]
pub const fn line_offset(addr: u64) -> usize {
    (addr & (LINE_BYTES - 1)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_math() {
        assert_eq!(line_base(0), 0);
        assert_eq!(line_base(63), 0);
        assert_eq!(line_base(64), 64);
        assert_eq!(line_base(0x1234), 0x1200);
        assert_eq!(line_offset(0x1234), 0x34);
        assert_eq!(line_offset(64), 0);
    }
}
