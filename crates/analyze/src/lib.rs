//! # califorms-analyze
//!
//! Static analysis and concurrency model checking for the Califorms
//! workspace — the tooling that turns the repo's central invariant,
//! *same seed ⇒ bit-identical results across every core count, quantum
//! size and weave batch*, from a dynamically-tested property (the
//! `califorms-oracle` differential harness catches violations after they
//! ship) into a structurally-enforced one (DESIGN.md §12).
//!
//! Three subsystems:
//!
//! * **The workspace lint pass** ([`lint`], over a lightweight Rust
//!   [`tokenizer`]) enforces repo-specific determinism invariants on
//!   `crates/*/src`: no default-hasher `HashMap`/`HashSet` in
//!   result-bearing crates, no host timing or OS randomness in
//!   simulated-result paths, no thread spawns outside the allowlist,
//!   `#![forbid(unsafe_code)]` in every crate root, and no iteration
//!   over nondeterministic maps. Findings carry rustc-style file:line
//!   spans ([`diagnostics`]), render as human diagnostics or a
//!   versioned, byte-stable JSON report, and can be suppressed inline
//!   with `// analyze::allow(<lint-name>): <reason>`. [`fix`] applies
//!   the mechanical remediations.
//! * **The call-graph passes** build a whole-workspace call graph
//!   ([`parser`] + [`callgraph`]) and reason across function
//!   boundaries: [`lockorder`] propagates held-lock sets through calls
//!   and reports lock-class cycles with full witness paths,
//!   [`hotpath`] re-bases the hot-path lints (`hot-path-unwrap`,
//!   `hot-path-alloc`, `hot-path-blocking`) on reachability from the
//!   replay roots (the multicore engine's bound phase and weave turn),
//!   and [`atomics`] audits non-SeqCst atomic orderings for
//!   `// analyze::order(<reason>)` justifications. The simulator holds
//!   no lock or atomic, so the lock-order and atomics passes guard
//!   against one coming back unchecked.
//! * **The concurrency model checker** ([`sched`]) is a loom-style
//!   deterministic virtual scheduler with shim `Mutex`/`Condvar`/atomic
//!   types mirroring the `std::sync` API, a DFS bounded-preemption
//!   explorer over all interleavings of small protocol models, and a
//!   seeded-random large-schedule mode. [`sched::models`] holds
//!   state-machine models of the threaded bound phase's `QuantumBarrier`
//!   epoch protocol and worker-slot task handoff (the runtime ran one
//!   host thread per core until git `6e6b514`; it now runs the bound
//!   phase on the calling thread), and [`sched::drain`] the checkpoint
//!   drain protocol — checked for deadlock, lost wakeups, epoch
//!   monotonicity and torn snapshots across every schedule up to the
//!   bound. They are the protocol a re-threaded bound phase must keep.
//!
//! CI entry point: `cargo run -p califorms-analyze -- --check` (lints the
//! workspace, exits non-zero on findings) and `-- --sched` (exhaustive
//! protocol-model pass, including the broken variants that prove the
//! detectors fire, with the drain model's schedule count pinned).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomics;
pub mod callgraph;
pub mod config;
pub mod diagnostics;
pub mod fix;
pub mod hotpath;
pub mod lint;
pub mod lockorder;
pub mod parser;
pub mod sched;
pub mod tokenizer;
pub mod workspace;

pub use config::LintConfig;
pub use diagnostics::{Finding, Report};
pub use lint::{lint_source, SourceContext};
pub use workspace::{analyze_sources, scan_workspace};
