//! # califorms
//!
//! Facade crate for the Califorms reproduction — *Practical Byte-Granular
//! Memory Blacklisting using Califorms* (Sasaki et al., MICRO 2019).
//!
//! This crate re-exports the whole workspace under one roof so that
//! examples, integration tests and downstream users can depend on a single
//! crate:
//!
//! * [`core`] — cache-line formats (bitvector, sentinel), spill/fill
//!   conversion, the `CFORM` instruction and the privileged exception.
//! * [`sim`] — the trace-driven memory-hierarchy and core-timing simulator
//!   that substitutes for the paper's ZSim setup, including the
//!   multi-core subsystem: a MESI directory over per-core bitvector L1s
//!   ([`sim::coherence`]) and the deterministic bound/weave trace replay
//!   of [`sim::multicore::MulticoreEngine`].
//! * [`layout`] — the C-ABI struct-layout engine with the paper's three
//!   security-byte insertion policies.
//! * [`alloc`] — the quarantining, clean-before-use heap allocator model.
//! * [`workloads`] — SPEC CPU2006-like synthetic workload generators, plus
//!   the multi-threaded sharing patterns of [`workloads::multicore`].
//! * [`vlsi`] — the analytic area/delay/power model for Tables 2 and 7.
//! * [`security`] — attack simulations and the derandomisation math.
//! * [`baselines`] — REST / ADI / MPX comparison models and the
//!   qualitative matrices of Tables 4–6.
//! * [`oracle`] — the cache-free differential reference model, the
//!   deterministic trace fuzzer and the divergence shrinker (DESIGN.md
//!   §11).
//! * [`telemetry`] — deterministic counter registry, phase spans and the
//!   Chrome-trace-event/Perfetto exporter behind `--trace-out`
//!   (DESIGN.md §13).
//!
//! See `examples/quickstart.rs` for a guided tour and `DESIGN.md` for the
//! full system inventory.
//!
//! # Example
//!
//! Blacklist two bytes, lose the line to cache pressure, get it back and
//! still trap the rogue access:
//!
//! ```
//! use califorms::sim::{Engine, TraceOp};
//!
//! let mut engine = Engine::westmere();
//! engine.step(TraceOp::Store { addr: 0x1000, size: 8 });
//! engine.step(TraceOp::Cform {
//!     line_addr: 0x1000,
//!     attrs: 0b11 << 12,
//!     mask: 0b11 << 12,
//! });
//!
//! // A correct program never notices...
//! engine.step(TraceOp::Load { addr: 0x1000, size: 8 });
//! assert!(engine.delivered_exceptions().is_empty());
//!
//! // ...an overflowing one is caught at the exact byte.
//! engine.step(TraceOp::Load { addr: 0x100C, size: 1 });
//! assert_eq!(engine.delivered_exceptions()[0].fault_addr, 0x100C);
//! ```

#![forbid(unsafe_code)]

pub use califorms_alloc as alloc;
pub use califorms_baselines as baselines;
pub use califorms_core as core;
pub use califorms_layout as layout;
pub use califorms_oracle as oracle;
pub use califorms_security as security;
pub use califorms_sim as sim;
pub use califorms_telemetry as telemetry;
pub use califorms_vlsi as vlsi;
pub use califorms_workloads as workloads;
