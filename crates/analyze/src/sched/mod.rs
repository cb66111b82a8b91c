//! Loom-style concurrency model checking for the protocols of the
//! threaded bound phase, which `califorms-sim` ran on one host thread
//! per core until git `6e6b514`. The simulator now runs the bound phase
//! on the calling thread; these models keep the protocol a re-threaded
//! bound phase must follow, and the checker that proves it.
//!
//! Real OS threads run the model code, but a virtual scheduler
//! serializes them: exactly one model thread holds the "baton" at a
//! time, and every *visible operation* (mutex acquire, condvar
//! wait/notify, atomic access, spawn, join, yield) is a schedule point
//! where the explorer decides who runs next. Because the interleaving
//! is chosen by the explorer rather than the OS, an execution can be
//! replayed exactly from its decision sequence — which is what makes
//! exhaustive enumeration and counterexample reporting possible.
//!
//! * [`shim`] — drop-in `Mutex`/`Condvar`/`AtomicU64`/`AtomicBool`/
//!   spawn/join types mirroring the `std::sync` API, each routing its
//!   visible operations through the scheduler.
//! * [`explorer`] — the controller itself: DFS over all interleavings
//!   up to a preemption bound (Musuvathi & Qadeer-style iterative
//!   context bounding), plus a seeded-random large-schedule mode.
//!   Detects deadlocks (no eligible thread while unfinished threads
//!   remain — which is also how a lost wakeup manifests) and model
//!   assertion failures, and reports the failing schedule as an event
//!   trace.
//! * [`models`] — faithful state-machine models of the
//!   `QuantumBarrier` epoch protocol and the worker-slot task handoff
//!   of that threaded runtime, with deliberately-broken variants
//!   (`notify_one` release, check-then-wait gap, done-before-return)
//!   that prove the detectors actually fire.
//! * [`drain`] — the checkpoint drain protocol (workers quiesce at the
//!   quantum barrier → single-threaded snapshot → next release), with a
//!   `SnapshotBeforeDrain` variant whose torn snapshot the explorer
//!   catches with a counterexample trace.
//!
//! ## Granularity
//!
//! Scheduling decisions happen at visible-op boundaries, not between
//! arbitrary instructions; mutex *release* is not a schedule point (it
//! only widens the eligible set, which the next schedule point
//! observes), and the model condvars have no spurious wakeups. These
//! choices shrink the schedule space without hiding the failure modes
//! this suite exists to catch: every blocking edge (acquire, wait,
//! join) and every wakeup edge (notify) is still explored.

pub mod drain;
pub mod explorer;
pub mod models;
pub mod shim;

pub use drain::{check_drain, DrainVariant};
pub use explorer::{explore, explore_random, ExploreReport, Failure, ModelFn, Sched, SchedConfig};
pub use models::{check_barrier, check_worker_slots, BarrierVariant, SlotVariant};
