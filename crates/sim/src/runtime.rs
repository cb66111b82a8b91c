//! The parallel-replay runtime: configuration, deterministic runtime
//! counters, host-side phase timing, and the epoch barrier the persistent
//! worker pool synchronises on (DESIGN.md §10).
//!
//! The multicore engine used to spawn fresh scoped threads every cycle
//! quantum; this module provides the pieces that replace that with one
//! long-lived worker per core:
//!
//! * [`RuntimeConfig`] — weave batching and watchdog knobs.
//! * [`RuntimeStats`] — counters derived purely from simulated state
//!   (quanta, weave turns, batched/contended transactions). They are
//!   **bit-identical** across runs and
//!   across packed/unpacked replay, so they ride inside
//!   [`crate::stats::MulticoreStats`] and the determinism assertions.
//! * [`RuntimeTiming`] — host wall-clock per phase (bound / weave /
//!   barrier+bookkeeping). Host timing is scheduling-dependent by nature,
//!   so it lives on [`crate::multicore::MulticoreOutcome`], *outside* the
//!   stats that must compare equal.
//! * `QuantumBarrier` — a Mutex/Condvar epoch barrier: the main thread
//!   publishes `(epoch, quantum_end)` to release the workers, each worker
//!   runs its bound phase and reports done; nobody creates or joins a
//!   thread between quanta.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Locks `m`, recovering the guard if the mutex is poisoned instead of
/// propagating a nested panic.
///
/// Mutex poisoning means *some* thread panicked while holding the lock.
/// In the parallel runtime that original panic is always captured
/// independently (the worker loop runs the replay under `catch_unwind`
/// and records it in the panic log, and the weave catches per turn), so
/// the run is already aborting and will surface the root cause as a
/// [`crate::multicore::WorkerPanic`]. Panicking *again* on the poison
/// flag would replace that precise error with a generic "poisoned"
/// message — or, on a worker thread, wedge the quantum barrier. The data
/// behind these locks (barrier counters, `Option` task slots, the panic
/// log `Vec`) stays structurally valid under any interleaving of the
/// panic, so recovering the guard is sound.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Knobs of the parallel runtime, carried by
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
    /// Watchdog deadline for one bound phase: if any worker fails to
    /// reach the quantum barrier within this host-time budget, the run
    /// aborts with a typed [`crate::multicore::WorkerStall`] naming the
    /// core instead of hanging forever. `None` disables the watchdog
    /// (waits become unbounded, the pre-watchdog behaviour). Host wall
    /// clock only — the deadline never perturbs simulated state, so runs
    /// that finish under it stay bit-identical to unwatched runs.
    pub watchdog: Option<Duration>,
}

impl RuntimeConfig {
    /// Default batching depth of a weave turn.
    pub const DEFAULT_WEAVE_BATCH: u32 = 64;

    /// Default watchdog deadline per bound phase. Generous: a healthy
    /// bound phase is microseconds-to-milliseconds of host time, so a
    /// 30 s silence can only mean a wedged worker.
    pub const DEFAULT_WATCHDOG: Duration = Duration::from_secs(30);
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            weave_batch: Self::DEFAULT_WEAVE_BATCH,
            watchdog: Some(Self::DEFAULT_WATCHDOG),
        }
    }
}

/// Deterministic counters of the parallel runtime. Every field is a
/// function of simulated state only — host scheduling cannot perturb
/// them — so they participate in the bit-identity comparisons.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Cycle quanta executed (barrier crossings of the whole machine).
    pub quanta: u64,
    /// Worker barrier crossings: `quanta × cores` (each worker waits at
    /// the quantum barrier once per quantum).
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
/// scaling regressions are diagnosable from the JSON artifact. Host time
/// is inherently scheduling-dependent, so this lives outside
/// [`RuntimeStats`] and outside every bit-identity comparison.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeTiming {
    /// Seconds in the parallel (bound) phase: from worker release to the
    /// last worker reporting done.
    pub bound_s: f64,
    /// Seconds in the serial (weave) phase on the main thread.
    pub weave_s: f64,
    /// Seconds of barrier bookkeeping: lending/reclaiming per-core
    /// state through the worker slots around each quantum.
    pub barrier_s: f64,
    /// Per-core / per-quantum breakdown of [`Self::weave_s`]. Populated
    /// only on telemetry-enabled runs (empty otherwise — plain runs don't
    /// pay for per-turn clock reads).
    pub weave_breakdown: crate::stats::WeaveTimingBreakdown,
}

/// Outcome of a deadline-bounded barrier wait.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum BarrierWaitError {
    /// The deadline expired with these worker indices still inside their
    /// bound phase.
    Stalled(Vec<usize>),
    /// The barrier was already torn down by an earlier stall; no further
    /// quantum can complete on it.
    TornDown,
}

/// State published through the quantum barrier.
#[derive(Debug)]
struct BarrierState {
    /// Bumped once per quantum by the main thread; workers run when they
    /// observe a fresh value.
    epoch: u64,
    /// Quantum boundary (cycles) for the current epoch.
    quantum_end: f64,
    /// Per-worker flag: `true` while that worker is still executing the
    /// current bound phase. Tracking workers individually (rather than a
    /// bare count) lets a deadline expiry *name* the stalled cores, and
    /// makes a late `worker_done` after teardown harmless instead of an
    /// underflow.
    pending: Vec<bool>,
    /// Terminates the worker loops.
    stop: bool,
    /// Set by [`QuantumBarrier::tear_down`] after a stall: the barrier is
    /// permanently retired and every entry point returns a typed refusal
    /// (or no-ops) instead of acting on state it no longer owns.
    torn_down: bool,
}

/// Epoch barrier between the main (weave) thread and the persistent
/// bound-phase workers. One `Mutex` + two `Condvar`s; the hot path per
/// quantum is one lock round-trip on each side — no thread is ever
/// created or joined between quanta.
#[derive(Debug)]
pub(crate) struct QuantumBarrier {
    state: Mutex<BarrierState>,
    start: Condvar,
    done: Condvar,
}

impl QuantumBarrier {
    pub(crate) fn new() -> Self {
        Self {
            state: Mutex::new(BarrierState {
                epoch: 0,
                quantum_end: 0.0,
                pending: Vec::new(),
                stop: false,
                torn_down: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        }
    }

    /// Worker side: parks until the main thread publishes an epoch newer
    /// than `*seen` (returning that epoch's `quantum_end`) or requests
    /// shutdown (returning `None`).
    ///
    /// All barrier methods recover from a poisoned state mutex via
    /// [`lock_recover`]: a poison flag here means another thread already
    /// panicked (and that panic is surfaced as a `WorkerPanic` by the
    /// engine), so a nested "barrier poisoned" panic would only obscure
    /// the root cause and wedge the surviving workers.
    pub(crate) fn wait_for_quantum(&self, seen: &mut u64) -> Option<f64> {
        let mut g = lock_recover(&self.state);
        loop {
            if g.stop {
                return None;
            }
            if g.epoch != *seen {
                *seen = g.epoch;
                return Some(g.quantum_end);
            }
            g = self.start.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Worker side: reports worker `core`'s bound phase complete for this
    /// epoch. On a torn-down barrier this is a deliberate no-op: a worker
    /// that wakes from a stall *after* the watchdog already aborted the
    /// run must not mutate a pending-set it no longer owns.
    pub(crate) fn worker_done(&self, core: usize) {
        let mut g = lock_recover(&self.state);
        if g.torn_down {
            return;
        }
        if let Some(slot) = g.pending.get_mut(core) {
            *slot = false;
        }
        if g.pending.iter().all(|p| !p) {
            self.done.notify_all();
        }
    }

    /// Main side: releases `workers` workers into a bound phase bounded
    /// by `quantum_end`. No-op after [`Self::tear_down`] — a retired
    /// barrier never starts another quantum.
    pub(crate) fn release(&self, workers: usize, quantum_end: f64) {
        let mut g = lock_recover(&self.state);
        if g.torn_down {
            return;
        }
        g.epoch += 1;
        g.quantum_end = quantum_end;
        g.pending.clear();
        g.pending.resize(workers, true);
        drop(g);
        self.start.notify_all();
    }

    /// Main side: blocks until every released worker reported done (or
    /// the barrier is torn down — a retired barrier never blocks).
    pub(crate) fn wait_all_done(&self) {
        let mut g = lock_recover(&self.state);
        while !g.torn_down && g.pending.iter().any(|p| *p) {
            g = self.done.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Main side: like [`Self::wait_all_done`], but gives up after
    /// `deadline` and names the workers that never reported — the
    /// watchdog primitive behind
    /// [`crate::multicore::WorkerStall`].
    pub(crate) fn wait_all_done_deadline(
        &self,
        deadline: Duration,
    ) -> Result<(), BarrierWaitError> {
        let limit = Instant::now() + deadline;
        let mut g = lock_recover(&self.state);
        loop {
            if g.torn_down {
                return Err(BarrierWaitError::TornDown);
            }
            if g.pending.iter().all(|p| !p) {
                return Ok(());
            }
            let now = Instant::now();
            if now >= limit {
                let stalled = g
                    .pending
                    .iter()
                    .enumerate()
                    .filter_map(|(core, p)| p.then_some(core))
                    // analyze::allow(hot-path-alloc): deadline-expiry error path, runs at most once per run — never in a healthy quantum
                    .collect();
                return Err(BarrierWaitError::Stalled(stalled));
            }
            let (guard, _) = self
                .done
                .wait_timeout(g, limit - now)
                .unwrap_or_else(PoisonError::into_inner);
            g = guard;
        }
    }

    /// Main side: shuts the worker loops down.
    pub(crate) fn stop(&self) {
        let mut g = lock_recover(&self.state);
        g.stop = true;
        drop(g);
        self.start.notify_all();
    }

    /// Main side: permanently retires the barrier after a stall. Workers
    /// are told to stop, waiters are woken, and from here on `release` /
    /// `worker_done` no-op while the wait entry points return
    /// [`BarrierWaitError::TornDown`] — a stalled worker that eventually
    /// wakes cannot corrupt barrier state or restart a dead run.
    pub(crate) fn tear_down(&self) {
        let mut g = lock_recover(&self.state);
        g.torn_down = true;
        g.stop = true;
        drop(g);
        self.start.notify_all();
        self.done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn default_runtime_is_fixed_quantum() {
        let cfg = RuntimeConfig::default();
        assert_eq!(cfg.weave_batch, RuntimeConfig::DEFAULT_WEAVE_BATCH);
        assert_eq!(cfg.watchdog, Some(RuntimeConfig::DEFAULT_WATCHDOG));
    }

    #[test]
    fn lock_recover_yields_the_guard_of_a_poisoned_mutex() {
        let m = Mutex::new(7u64);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.lock().unwrap();
            panic!("poison while holding");
        }));
        assert!(m.is_poisoned());
        let mut g = lock_recover(&m);
        *g += 1;
        drop(g);
        assert_eq!(*lock_recover(&m), 8);
    }

    /// A barrier whose state mutex was poisoned by a panicking holder must
    /// keep functioning (the original panic is surfaced elsewhere as a
    /// `WorkerPanic`); pre-fix, every subsequent barrier call re-panicked
    /// with "barrier poisoned", replacing the root cause.
    #[test]
    fn barrier_survives_a_poisoned_state_mutex() {
        let barrier = QuantumBarrier::new();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = barrier.state.lock().unwrap();
            panic!("worker died while holding the barrier");
        }));
        assert!(barrier.state.is_poisoned());
        // Every entry point still completes instead of nesting a panic.
        barrier.release(0, 10_000.0);
        barrier.wait_all_done();
        barrier.stop();
        let mut seen = 0u64;
        assert_eq!(barrier.wait_for_quantum(&mut seen), None, "stop wins");
    }

    #[test]
    fn barrier_runs_workers_once_per_epoch() {
        let barrier = QuantumBarrier::new();
        let ticks = AtomicU64::new(0);
        let workers = 3usize;
        let (barrier, ticks) = (&barrier, &ticks);
        std::thread::scope(|scope| {
            for core in 0..workers {
                scope.spawn(move || {
                    let mut seen = 0u64;
                    while let Some(end) = barrier.wait_for_quantum(&mut seen) {
                        assert!(end > 0.0);
                        ticks.fetch_add(1, Ordering::Relaxed);
                        barrier.worker_done(core);
                    }
                });
            }
            for q in 1..=5u64 {
                barrier.release(workers, q as f64 * 10_000.0);
                barrier.wait_all_done();
                assert_eq!(ticks.load(Ordering::Relaxed), q * workers as u64);
            }
            barrier.stop();
        });
        assert_eq!(ticks.load(Ordering::Relaxed), 5 * workers as u64);
    }

    /// The watchdog primitive: a worker that never reports done makes the
    /// deadline wait fail with exactly the stalled worker's index.
    #[test]
    fn deadline_wait_names_the_stalled_worker() {
        let barrier = QuantumBarrier::new();
        barrier.release(3, 10_000.0);
        barrier.worker_done(0);
        barrier.worker_done(2);
        let err = barrier
            .wait_all_done_deadline(Duration::from_millis(20))
            .unwrap_err();
        assert_eq!(err, BarrierWaitError::Stalled(vec![1]));
    }

    #[test]
    fn deadline_wait_succeeds_when_all_workers_report() {
        let barrier = QuantumBarrier::new();
        barrier.release(2, 10_000.0);
        barrier.worker_done(1);
        barrier.worker_done(0);
        assert_eq!(
            barrier.wait_all_done_deadline(Duration::from_millis(20)),
            Ok(())
        );
    }

    /// Satellite regression: after a stall teardown, every barrier entry
    /// point must refuse (typed error) or no-op — pre-fix, a late
    /// `worker_done` from the stalled worker decremented a counter the
    /// main thread had already abandoned, and a subsequent wait could
    /// recover the lock into an inconsistent pending-set and hang.
    #[test]
    fn torn_down_barrier_rejects_every_entry_point() {
        let barrier = QuantumBarrier::new();
        barrier.release(2, 10_000.0);
        barrier.worker_done(0);
        // Worker 1 stalls; the watchdog fires and tears the barrier down.
        assert_eq!(
            barrier.wait_all_done_deadline(Duration::from_millis(10)),
            Err(BarrierWaitError::Stalled(vec![1]))
        );
        barrier.tear_down();
        // The stalled worker finally wakes: its late report is a no-op,
        // not an underflow or a spurious wake-up of a dead run.
        barrier.worker_done(1);
        barrier.worker_done(1);
        // Releasing a retired barrier is refused...
        barrier.release(2, 20_000.0);
        let mut seen = 0u64;
        assert_eq!(
            barrier.wait_for_quantum(&mut seen),
            None,
            "workers see stop"
        );
        // ...and both wait entry points return typed errors immediately
        // instead of blocking on workers that will never come back.
        assert_eq!(
            barrier.wait_all_done_deadline(Duration::from_millis(10)),
            Err(BarrierWaitError::TornDown)
        );
        barrier.wait_all_done(); // must not hang
    }

    /// An out-of-range worker index (possible only through a logic bug)
    /// must not panic the barrier — the wait still times out and names
    /// the genuinely pending workers.
    #[test]
    fn worker_done_out_of_range_is_harmless() {
        let barrier = QuantumBarrier::new();
        barrier.release(1, 10_000.0);
        barrier.worker_done(7);
        assert_eq!(
            barrier.wait_all_done_deadline(Duration::from_millis(10)),
            Err(BarrierWaitError::Stalled(vec![0]))
        );
    }
}
