//! Protocol models of the parallel runtime's two concurrency cores:
//! the `QuantumBarrier` epoch protocol and the worker-slot task
//! handoff (`califorms-sim/src/runtime.rs` / `multicore.rs`).
//!
//! Each model mirrors the production control flow statement for
//! statement over the shim sync types, with the simulated payloads
//! (cycle bounds, replay cursors, L1s) reduced to counters. Deliberately
//! broken variants re-introduce the classic bug in each protocol so the
//! test suite can prove the detectors fire:
//!
//! * [`BarrierVariant::NotifyOneRelease`] — `release()` wakes only one
//!   worker; with ≥2 workers the rest sleep through the epoch and
//!   `wait_all_done` deadlocks (a lost wakeup, surfacing as deadlock).
//! * [`BarrierVariant::UnlockedWaitGap`] — the worker checks the epoch,
//!   drops the lock, reacquires, then waits *without rechecking*: a
//!   release in the gap is missed forever (check-then-wait race).
//! * [`SlotVariant::DoneBeforeReturn`] — the worker reports
//!   `worker_done` *before* putting its task back in the slot, so the
//!   main thread can reclaim an empty slot (the exact hazard the
//!   production `missing_slot` path guards against).

use super::explorer::{explore, explore_random, ExploreReport, ModelFn, Sched, SchedConfig};
use super::shim::{Condvar, Mutex};
use std::sync::Arc;

/// Barrier protocol variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierVariant {
    /// The production protocol.
    Correct,
    /// `release()` uses `notify_one` — loses wakeups for ≥2 workers.
    NotifyOneRelease,
    /// Worker re-waits without rechecking the epoch after an
    /// unlock/relock gap.
    UnlockedWaitGap,
}

/// Worker-slot handoff variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotVariant {
    /// The production order: task returned to the slot, then
    /// `worker_done`.
    Correct,
    /// `worker_done` signalled before the task is returned.
    DoneBeforeReturn,
}

/// Mirror of the production `BarrierState` (quantum_end elided — its
/// value doesn't affect the protocol).
pub(super) struct BarrierState {
    pub(super) epoch: u64,
    pub(super) running: usize,
    pub(super) stop: bool,
}

pub(super) struct Barrier {
    pub(super) state: Mutex<BarrierState>,
    start: Condvar,
    done: Condvar,
}

impl Barrier {
    pub(super) fn new(s: &Sched) -> Self {
        Self {
            state: Mutex::new(
                s,
                "state",
                BarrierState {
                    epoch: 0,
                    running: 0,
                    stop: false,
                },
            ),
            start: Condvar::new(s, "start"),
            done: Condvar::new(s, "done"),
        }
    }

    /// Worker side: mirrors `QuantumBarrier::wait_for_quantum`,
    /// asserting epoch monotonicity (each worker sees every epoch
    /// exactly once, in order).
    pub(super) fn wait_for_quantum(
        &self,
        s: &Sched,
        seen: &mut u64,
        variant: BarrierVariant,
    ) -> bool {
        let mut g = self.state.lock();
        loop {
            if g.stop {
                return false;
            }
            if g.epoch != *seen {
                s.check(
                    g.epoch == *seen + 1,
                    "epoch must advance by exactly one per observed quantum",
                );
                *seen = g.epoch;
                return true;
            }
            g = if variant == BarrierVariant::UnlockedWaitGap {
                // BUG (modelled): drop the lock and reacquire before
                // waiting. A release() landing in the gap is missed —
                // the epoch already changed, but the worker commits to
                // sleeping anyway.
                drop(g);
                let relocked = self.state.lock();
                self.start.wait(relocked)
            } else {
                self.start.wait(g)
            };
        }
    }

    /// Worker side: mirrors `QuantumBarrier::worker_done`.
    pub(super) fn worker_done(&self) {
        let mut g = self.state.lock();
        g.running -= 1;
        if g.running == 0 {
            // Like production: notify while still holding the lock.
            self.done.notify_all();
        }
    }

    /// Main side: mirrors `QuantumBarrier::release`.
    pub(super) fn release(&self, workers: usize, variant: BarrierVariant) {
        let mut g = self.state.lock();
        g.epoch += 1;
        g.running = workers;
        drop(g);
        if variant == BarrierVariant::NotifyOneRelease {
            // BUG (modelled): only one worker wakes.
            self.start.notify_one();
        } else {
            self.start.notify_all();
        }
    }

    /// Main side: mirrors `QuantumBarrier::wait_all_done`.
    pub(super) fn wait_all_done(&self) {
        let mut g = self.state.lock();
        while g.running > 0 {
            g = self.done.wait(g);
        }
    }

    /// Main side: mirrors `QuantumBarrier::stop`.
    pub(super) fn stop(&self) {
        let mut g = self.state.lock();
        g.stop = true;
        drop(g);
        self.start.notify_all();
    }
}

/// Builds the barrier model: `workers` persistent workers driven through
/// `quanta` epochs, then shut down and joined — the exact lifecycle of
/// `run_loop`.
pub fn barrier_model(workers: usize, quanta: usize, variant: BarrierVariant) -> ModelFn {
    Arc::new(move |s: Sched| {
        let barrier = Arc::new(Barrier::new(&s));
        let mut handles = Vec::new();
        for _ in 0..workers {
            let b = Arc::clone(&barrier);
            // analyze::allow(thread-spawn): model threads run under the virtual scheduler, not the runtime pool
            handles.push(s.spawn(move |s2| {
                let mut seen = 0u64;
                while b.wait_for_quantum(&s2, &mut seen, variant) {
                    b.worker_done();
                }
                s2.check(
                    seen as usize == quanta,
                    "worker observed every quantum before shutdown",
                );
            }));
        }
        for _ in 0..quanta {
            barrier.release(workers, variant);
            barrier.wait_all_done();
        }
        barrier.stop();
        for h in handles {
            h.join();
        }
        let g = barrier.state.lock();
        s.check(g.epoch as usize == quanta, "final epoch equals quanta run");
        s.check(g.running == 0, "no worker still counted running");
    })
}

/// Builds the worker-slot handoff model: per-worker `Mutex<Option<u64>>`
/// slots, tasks lent before each quantum and reclaimed after
/// `wait_all_done` — mirroring `run_loop`'s lend/reclaim loops with
/// the task reduced to a counter the worker increments each quantum.
pub fn slot_model(workers: usize, quanta: usize, variant: SlotVariant) -> ModelFn {
    Arc::new(move |s: Sched| {
        let barrier = Arc::new(Barrier::new(&s));
        let slots: Arc<Vec<Mutex<Option<u64>>>> = Arc::new(
            (0..workers)
                .map(|c| Mutex::new(&s, &format!("slot{c}"), None))
                .collect(),
        );
        let mut handles = Vec::new();
        for c in 0..workers {
            let b = Arc::clone(&barrier);
            let sl = Arc::clone(&slots);
            // analyze::allow(thread-spawn): model threads run under the virtual scheduler, not the runtime pool
            handles.push(s.spawn(move |s2| {
                let mut seen = 0u64;
                while b.wait_for_quantum(&s2, &mut seen, BarrierVariant::Correct) {
                    let task = sl[c].lock().take();
                    if let Some(t) = task {
                        // "Run" the task: one unit of bound-phase work.
                        let done = t + 1;
                        if variant == SlotVariant::DoneBeforeReturn {
                            // BUG (modelled): completion signalled while
                            // the slot is still empty — the main thread
                            // may reclaim before the task is returned.
                            b.worker_done();
                            *sl[c].lock() = Some(done);
                        } else {
                            *sl[c].lock() = Some(done);
                            b.worker_done();
                        }
                    } else {
                        b.worker_done();
                    }
                }
            }));
        }
        // Main side: lend → release → wait → reclaim, once per quantum.
        let mut tasks: Vec<u64> = vec![0; workers];
        for q in 0..quanta {
            for (c, t) in tasks.iter().enumerate() {
                *slots[c].lock() = Some(*t);
            }
            barrier.release(workers, BarrierVariant::Correct);
            barrier.wait_all_done();
            for (c, t) in tasks.iter_mut().enumerate() {
                let got = slots[c].lock().take();
                match got {
                    Some(v) => *t = v,
                    None => s.check(
                        false,
                        "worker slot empty at reclaim (task not returned before worker_done)",
                    ),
                }
            }
            for t in &tasks {
                s.check(
                    *t == (q as u64) + 1,
                    "each task ran exactly once per quantum",
                );
            }
        }
        barrier.stop();
        for h in handles {
            h.join();
        }
    })
}

/// Explores the barrier model exhaustively up to `bound` preemptions.
pub fn check_barrier(
    workers: usize,
    quanta: usize,
    variant: BarrierVariant,
    bound: usize,
    max_schedules: usize,
) -> ExploreReport {
    explore(
        &SchedConfig {
            preemption_bound: bound,
            max_schedules,
        },
        barrier_model(workers, quanta, variant),
    )
}

/// Explores the worker-slot model exhaustively up to `bound` preemptions.
pub fn check_worker_slots(
    workers: usize,
    quanta: usize,
    variant: SlotVariant,
    bound: usize,
    max_schedules: usize,
) -> ExploreReport {
    explore(
        &SchedConfig {
            preemption_bound: bound,
            max_schedules,
        },
        slot_model(workers, quanta, variant),
    )
}

/// Seeded-random large-schedule sweep of both correct models.
pub fn random_sweep(workers: usize, quanta: usize, seed: u64, schedules: usize) -> ExploreReport {
    let rep = explore_random(
        seed,
        schedules,
        barrier_model(workers, quanta, BarrierVariant::Correct),
    );
    if rep.failure.is_some() {
        return rep;
    }
    let slots = explore_random(
        seed ^ 0x5107_AB1E,
        schedules,
        slot_model(workers, quanta, SlotVariant::Correct),
    );
    ExploreReport {
        schedules_run: rep.schedules_run + slots.schedules_run,
        failure: slots.failure,
        complete: false,
    }
}
