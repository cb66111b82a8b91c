//! Model of the checkpoint **drain protocol**: workers quiesce at the
//! quantum barrier, the main thread takes a single-threaded snapshot,
//! then releases the next quantum (the checkpoint hook of
//! `califorms-sim/src/multicore.rs::run_loop` at git `6e6b514`; the
//! serial run loop keeps the same order — every core's bound phase,
//! the weave, then the snapshot — on one thread).
//!
//! Checkpoint capture has no locking of its own — its entire safety
//! argument is *ordering*: the snapshot runs strictly after
//! `wait_all_done` returned (every worker parked, `running == 0`,
//! tasks reclaimed) and strictly before the next `release`. This model
//! checks exactly that argument. Per-core progress counters stand in
//! for the simulated state (L1s, stats, replay cursors): each worker
//! advances its counter by one during the bound phase, and the
//! snapshot asserts it observes every counter at the *post-quantum*
//! value with the barrier drained — a snapshot overlapping any
//! worker's bound phase would capture torn state that can never resume
//! bit-identically.
//!
//! [`DrainVariant::SnapshotBeforeDrain`] re-introduces the tempting
//! bug: capturing right after `release` without waiting for the drain
//! ("the workers have probably finished by now"). The explorer
//! catches it with a counterexample schedule in which the snapshot
//! reads a counter its worker has not yet advanced.

use super::explorer::{explore, ExploreReport, ModelFn, Sched, SchedConfig};
use super::models::{Barrier, BarrierVariant};
use super::shim::Mutex;
use std::sync::Arc;

/// Drain-protocol variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainVariant {
    /// The production order: release → workers run → `wait_all_done`
    /// (drain) → snapshot → next release.
    Correct,
    /// BUG: the snapshot is taken after `release` but *before*
    /// `wait_all_done` — it races the bound phase it should follow.
    SnapshotBeforeDrain,
}

/// Builds the drain model: `workers` persistent workers driven through
/// `quanta` epochs with a snapshot every `interval` quanta — the exact
/// lifecycle of `run_loop` with a checkpoint sink installed.
pub fn drain_model(
    workers: usize,
    quanta: usize,
    interval: usize,
    variant: DrainVariant,
) -> ModelFn {
    assert!(interval > 0, "checkpoint interval must be positive");
    Arc::new(move |s: Sched| {
        let barrier = Arc::new(Barrier::new(&s));
        // Per-core bound-phase progress, the stand-in for all state a
        // checkpoint serializes.
        let counters: Arc<Vec<Mutex<u64>>> = Arc::new(
            (0..workers)
                .map(|c| Mutex::new(&s, &format!("counters{c}"), 0))
                .collect(),
        );
        let mut handles = Vec::new();
        for c in 0..workers {
            let b = Arc::clone(&barrier);
            let cnt = Arc::clone(&counters);
            // analyze::allow(thread-spawn): model threads run under the virtual scheduler, not the runtime pool
            handles.push(s.spawn(move |s2| {
                let mut seen = 0u64;
                while b.wait_for_quantum(&s2, &mut seen, BarrierVariant::Correct) {
                    // Bound phase: advance this core's state.
                    *cnt[c].lock() += 1;
                    b.worker_done();
                }
            }));
        }
        // Snapshot: the single-threaded capture. Asserts the two drain
        // invariants — no worker still running, and every core's state
        // at the post-quantum value.
        let snapshot = |q: usize| {
            s.check(
                barrier.state.lock().running == 0,
                "drain must complete before the checkpoint snapshot",
            );
            for c in 0..workers {
                let v = *counters[c].lock();
                s.check(
                    v == (q as u64) + 1,
                    "snapshot observed a worker mid-bound-phase (torn checkpoint)",
                );
            }
        };
        for q in 0..quanta {
            barrier.release(workers, BarrierVariant::Correct);
            if variant == DrainVariant::SnapshotBeforeDrain && (q + 1) % interval == 0 {
                // BUG (modelled): capture before the quantum drains.
                snapshot(q);
            }
            barrier.wait_all_done();
            if variant == DrainVariant::Correct && (q + 1) % interval == 0 {
                snapshot(q);
            }
        }
        barrier.stop();
        for h in handles {
            h.join();
        }
        for c in 0..workers {
            s.check(
                *counters[c].lock() == quanta as u64,
                "every core ran every quantum exactly once",
            );
        }
    })
}

/// Explores the drain model exhaustively up to `bound` preemptions.
pub fn check_drain(
    workers: usize,
    quanta: usize,
    interval: usize,
    variant: DrainVariant,
    bound: usize,
    max_schedules: usize,
) -> ExploreReport {
    explore(
        &SchedConfig {
            preemption_bound: bound,
            max_schedules,
        },
        drain_model(workers, quanta, interval, variant),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correct_drain_is_clean_and_complete_at_bound_2() {
        let rep = check_drain(2, 2, 1, DrainVariant::Correct, 2, 200_000);
        assert!(rep.failure.is_none(), "failure: {:?}", rep.failure);
        assert!(rep.complete, "bounded space must be exhausted");
        assert!(rep.schedules_run > 100, "non-trivial schedule space");
    }

    #[test]
    fn snapshot_before_drain_is_caught() {
        let rep = check_drain(2, 1, 1, DrainVariant::SnapshotBeforeDrain, 2, 200_000);
        let f = rep.failure.expect("torn snapshot must be detected");
        assert_eq!(f.kind, "assertion");
        assert!(
            f.message.contains("drain") || f.message.contains("mid-bound-phase"),
            "message names the hazard: {}",
            f.message
        );
        assert!(!f.trace.is_empty(), "counterexample trace captured");
    }
}
