//! # califorms-oracle
//!
//! A trusted, cache-free reference model of the Califorms architecture,
//! a differential harness that replays any
//! [`TracePack`](califorms_sim::TracePack) through both the reference
//! model and the optimized simulator stacks, and a seeded deterministic
//! trace fuzzer with a divergence shrinker.
//!
//! The whole security argument of Califorms is a byte-exact invariant:
//! every blacklisted byte traps, every benign byte doesn't, and data
//! survives every format conversion. After the banked MESI directory,
//! the L1 probe fast paths, the batched weave and the parallel pack
//! decode, that invariant is enforced by a heavily optimized stack that
//! — before this crate — was only checked against itself. The oracle
//! re-derives the architectural outcome from the paper's semantics
//! directly, with **no caches, no LSQ, no coherence**: a flat
//! address→line map plus a blacklist bitset per line. Spills and fills
//! are no-ops by construction, so any divergence pins a bug in the
//! optimized machinery (or, symmetrically, in the model).
//!
//! * [`model`] — [`FlatMemory`] + [`OracleCore`]: the reference
//!   semantics (store/load/CFORM, zeroing invariant, exception at the
//!   exact faulting byte, whitelist masks).
//! * [`diff`] — [`diff_pack`]: replay a pack through
//!   [`Engine`](califorms_sim::Engine) or
//!   [`MulticoreEngine`](califorms_sim::MulticoreEngine) (any
//!   quantum/weave-batch config) and the oracle, and report the first
//!   [`Divergence`] in exceptions, final memory,
//!   blacklist state or counters. Supports mid-run DMA reads and page
//!   swap cycles, and deliberate fault injection for testing the
//!   harness itself.
//! * [`fuzz`] — the seeded scenario grammar: heap alloc/free lifecycles
//!   over `califorms-alloc`, CFORM promotion/demotion churn, security
//!   probe sweeps, random op mixes, workload replays, and
//!   interleaving-independent multi-core lane cases (cross-core
//!   sharing and false sharing included). Same seed ⇒ bit-identical
//!   case stream.
//! * [`shrink`] — reduces any diverging op stream to a minimal
//!   counterexample while preserving the divergence.
//! * [`corpus`] — reading/writing regression packs under `corpus/`.
//!
//! See DESIGN.md §11 for what the oracle trusts, what it checks, and
//! how to reproduce a fuzzer seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod diff;
pub mod fuzz;
pub mod model;
pub mod shrink;

pub use diff::{
    diff_pack, run_fault_campaign, DiffConfig, Divergence, FaultCampaign, FaultInjection, SysEvent,
};
pub use fuzz::{generate_case, FuzzCase};
pub use model::{FlatMemory, OracleCore};
pub use shrink::shrink_ops;
