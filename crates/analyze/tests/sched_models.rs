//! Model-checker acceptance tests: the faithful QuantumBarrier and
//! worker-slot models must pass *exhaustively* (every interleaving up to
//! the preemption bound, `complete == true`) for ≥2 workers, and each
//! deliberately-broken variant must be caught with a counterexample —
//! proving the deadlock/lost-wakeup/assertion detectors actually fire.

use califorms_analyze::sched::models::random_sweep;
use califorms_analyze::sched::{
    check_barrier, check_drain, check_worker_slots, BarrierVariant, DrainVariant, SlotVariant,
};

const MAX: usize = 200_000;

#[test]
fn barrier_two_workers_two_quanta_is_exhaustively_clean() {
    let r = check_barrier(2, 2, BarrierVariant::Correct, 2, MAX);
    assert!(r.failure.is_none(), "unexpected failure: {:?}", r.failure);
    assert!(r.complete, "DFS must exhaust the bounded schedule space");
    assert!(
        r.schedules_run > 500,
        "a real interleaving space was explored, not a single trace ({} schedules)",
        r.schedules_run
    );
}

#[test]
fn barrier_three_workers_is_exhaustively_clean_at_bound_one() {
    let r = check_barrier(3, 1, BarrierVariant::Correct, 1, MAX);
    assert!(r.failure.is_none(), "unexpected failure: {:?}", r.failure);
    assert!(r.complete);
}

#[test]
fn notify_one_release_loses_a_wakeup_and_deadlocks() {
    let r = check_barrier(2, 1, BarrierVariant::NotifyOneRelease, 2, MAX);
    let f = r.failure.expect("lost wakeup must be detected");
    assert_eq!(
        f.kind, "deadlock",
        "lost wakeup surfaces as deadlock: {}",
        f.message
    );
    // The counterexample shows the sleeping worker and the stuck main.
    assert!(
        f.message.contains("wait("),
        "deadlock report names the blocked waits: {}",
        f.message
    );
    assert!(!f.trace.is_empty(), "counterexample schedule captured");
}

#[test]
fn unlocked_check_then_wait_gap_misses_the_release() {
    let r = check_barrier(2, 1, BarrierVariant::UnlockedWaitGap, 1, MAX);
    let f = r.failure.expect("check-then-wait race must be detected");
    assert_eq!(f.kind, "deadlock", "missed release surfaces as deadlock");
}

#[test]
fn slot_handoff_two_workers_is_exhaustively_clean() {
    let r = check_worker_slots(2, 2, SlotVariant::Correct, 2, MAX);
    assert!(r.failure.is_none(), "unexpected failure: {:?}", r.failure);
    assert!(r.complete);
    assert!(r.schedules_run > 500, "{} schedules", r.schedules_run);
}

#[test]
fn done_before_return_lets_main_reclaim_an_empty_slot() {
    let r = check_worker_slots(2, 1, SlotVariant::DoneBeforeReturn, 2, MAX);
    let f = r.failure.expect("premature worker_done must be detected");
    assert_eq!(f.kind, "assertion");
    assert!(
        f.message.contains("slot empty at reclaim"),
        "assertion names the hazard: {}",
        f.message
    );
}

#[test]
fn drain_two_workers_two_quanta_is_exhaustively_clean() {
    let r = check_drain(2, 2, 1, DrainVariant::Correct, 2, MAX);
    assert!(r.failure.is_none(), "unexpected failure: {:?}", r.failure);
    assert!(r.complete, "DFS must exhaust the bounded schedule space");
    // The exact count is also asserted by CI (`--drain-schedules`);
    // here we only require a real interleaving space.
    assert!(r.schedules_run > 100, "{} schedules", r.schedules_run);
}

#[test]
fn drain_snapshot_every_other_quantum_stays_clean() {
    let r = check_drain(2, 2, 2, DrainVariant::Correct, 2, MAX);
    assert!(r.failure.is_none(), "unexpected failure: {:?}", r.failure);
    assert!(r.complete);
}

#[test]
fn snapshot_before_drain_captures_torn_state() {
    let r = check_drain(2, 1, 1, DrainVariant::SnapshotBeforeDrain, 2, MAX);
    let f = r.failure.expect("torn snapshot must be detected");
    assert_eq!(f.kind, "assertion");
    assert!(
        f.message.contains("drain") || f.message.contains("mid-bound-phase"),
        "assertion names the hazard: {}",
        f.message
    );
    assert!(!f.trace.is_empty(), "counterexample schedule captured");
}

#[test]
fn random_large_schedule_sweep_is_clean_and_seed_deterministic() {
    let a = random_sweep(3, 3, 0xDEC0DE, 150);
    assert!(a.failure.is_none(), "random sweep failure: {:?}", a.failure);
    let b = random_sweep(3, 3, 0xDEC0DE, 150);
    assert_eq!(
        a.schedules_run, b.schedules_run,
        "same seed, same exploration"
    );
}
