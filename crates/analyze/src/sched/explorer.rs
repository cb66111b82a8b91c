//! The virtual scheduler ("controller") and the interleaving explorers.
//!
//! One execution = one set of real OS threads running the model closure
//! under the baton protocol: a thread reaching a visible operation hands
//! the decision to `Controller::schedule_point`, which applies the
//! operation's effects, consults the replay prefix / default policy /
//! random stream for who runs next, and parks the caller until the baton
//! comes back. The decision sequence of a finished execution is the DFS
//! node; backtracking rewrites its tail and replays.

use std::cell::Cell;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::{
    Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, Once, PoisonError,
};

/// Explorer limits.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Maximum preemptions per execution (a preemption = scheduling a
    /// different thread while the current one is still eligible).
    pub preemption_bound: usize,
    /// Hard cap on executions before giving up with `complete: false`.
    pub max_schedules: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self {
            preemption_bound: 2,
            max_schedules: 100_000,
        }
    }
}

/// A property violation, with the schedule that produced it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// `"deadlock"`, `"assertion"`, `"panic"` or `"guard"`.
    pub kind: String,
    /// Human-readable description.
    pub message: String,
    /// The event trace of the failing execution, in order.
    pub trace: Vec<String>,
}

/// The outcome of an exploration.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Executions run.
    pub schedules_run: usize,
    /// First failure found, if any (exploration stops there).
    pub failure: Option<Failure>,
    /// Whether the DFS exhausted every schedule within the bound
    /// (always `false` for the random sampler and capped runs).
    pub complete: bool,
}

/// A model entry point: receives a [`Sched`] handle and builds its own
/// threads and sync objects through it.
pub type ModelFn = Arc<dyn Fn(Sched) + Send + Sync>;

/// What a parked thread is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pending {
    /// At a schedule point, no resource needed — always eligible.
    Ready,
    /// Holds the baton and is executing model code.
    Running,
    /// Blocked acquiring a model mutex.
    Acquire(usize),
    /// Waiting on a condvar; `notified` flips on notify, after which the
    /// thread competes to reacquire `mutex`.
    WaitCv {
        /// Condvar id.
        cv: usize,
        /// Mutex to reacquire on wakeup.
        mutex: usize,
        /// Whether a notify has already selected this waiter.
        notified: bool,
    },
    /// Blocked joining another model thread.
    Join(usize),
    /// Exited.
    Finished,
}

/// How the next choice index is produced.
enum Mode {
    /// Follow `0` until the prefix runs out, then default policy
    /// (index 0 = keep the current thread when eligible).
    Replay(Vec<usize>),
    /// splitmix64 stream over the eligible list.
    Random(u64),
}

/// One scheduling decision, recorded for DFS backtracking.
#[derive(Debug, Clone)]
pub(crate) struct ChoicePoint {
    /// Eligible thread ids, current-first.
    pub eligible: Vec<usize>,
    /// Index into `eligible` that was taken.
    pub chosen: usize,
    /// Whether the then-current thread was in `eligible` (so non-zero
    /// alternatives cost a preemption).
    pub current_eligible: bool,
    /// Preemptions spent before this point.
    pub preemptions_before: usize,
}

struct ThreadState {
    pending: Pending,
}

struct MutexState {
    name: String,
    owner: Option<usize>,
}

struct CvState {
    name: String,
    /// Un-notified waiters, FIFO (notify wakes the longest waiter —
    /// a deterministic stand-in for the OS's arbitrary pick).
    waiters: Vec<usize>,
}

struct Inner {
    threads: Vec<ThreadState>,
    mutexes: Vec<MutexState>,
    condvars: Vec<CvState>,
    current: usize,
    mode: Mode,
    step: usize,
    schedule: Vec<ChoicePoint>,
    preemptions: usize,
    events: Vec<String>,
    failure: Option<Failure>,
    aborted: bool,
    /// Live real threads (registration to `finish`).
    active: usize,
}

/// Runaway-schedule backstop: no model here comes near this.
const SCHEDULE_GUARD: usize = 100_000;

/// The virtual scheduler shared by every thread of one execution.
pub(crate) struct Controller {
    inner: StdMutex<Inner>,
    cv: StdCondvar,
    handles: StdMutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Unwind payload used to tear threads down after an abort; the panic
/// hook below keeps these (and model assertion panics) off stderr.
struct SchedAbort;

thread_local! {
    static MODEL_ID: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The calling thread's model id; shims may only be used from inside a
/// model thread.
pub(crate) fn current_id() -> usize {
    MODEL_ID
        .with(|c| c.get())
        .expect("sched shim used outside a model thread")
}

/// Silences panic output from model threads (expected failures in broken
/// variants would otherwise spray thousands of backtraces); panics from
/// ordinary threads still reach the previous hook.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if MODEL_ID.with(|c| c.get()).is_none() {
                prev(info);
            }
        }));
    });
}

fn lk(m: &StdMutex<Inner>) -> StdMutexGuard<'_, Inner> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Effects applied atomically at schedule-point entry.
pub(crate) enum Effect {
    /// No side effect.
    None,
    /// Wake the longest waiter of the condvar.
    NotifyOne(usize),
    /// Wake every waiter of the condvar.
    NotifyAll(usize),
}

fn is_eligible(g: &Inner, t: usize) -> bool {
    match g.threads[t].pending {
        Pending::Ready => true,
        Pending::Acquire(m) => g.mutexes[m].owner.is_none(),
        Pending::WaitCv {
            notified, mutex, ..
        } => notified && g.mutexes[mutex].owner.is_none(),
        Pending::Join(u) => matches!(g.threads[u].pending, Pending::Finished),
        Pending::Running | Pending::Finished => false,
    }
}

fn describe_pending(g: &Inner, t: usize) -> String {
    match g.threads[t].pending {
        Pending::Ready => "ready".to_string(),
        Pending::Running => "running".to_string(),
        Pending::Acquire(m) => format!("acquire({})", g.mutexes[m].name),
        Pending::WaitCv { cv, notified, .. } => format!(
            "wait({}{})",
            g.condvars[cv].name,
            if notified { ", notified" } else { "" }
        ),
        Pending::Join(u) => format!("join(t{u})"),
        Pending::Finished => "finished".to_string(),
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Controller {
    fn new(mode: Mode) -> Self {
        Self {
            inner: StdMutex::new(Inner {
                threads: Vec::new(),
                mutexes: Vec::new(),
                condvars: Vec::new(),
                current: 0,
                mode,
                step: 0,
                schedule: Vec::new(),
                preemptions: 0,
                events: Vec::new(),
                failure: None,
                aborted: false,
                active: 0,
            }),
            cv: StdCondvar::new(),
            handles: StdMutex::new(Vec::new()),
        }
    }

    pub(crate) fn register_mutex(&self, name: &str) -> usize {
        let mut g = lk(&self.inner);
        g.mutexes.push(MutexState {
            name: name.to_string(),
            owner: None,
        });
        g.mutexes.len() - 1
    }

    pub(crate) fn register_condvar(&self, name: &str) -> usize {
        let mut g = lk(&self.inner);
        g.condvars.push(CvState {
            name: name.to_string(),
            waiters: Vec::new(),
        });
        g.condvars.len() - 1
    }

    /// Picks and grants the next thread; flags deadlock if no thread is
    /// eligible while unfinished threads remain.
    fn advance(&self, g: &mut Inner) {
        if g.schedule.len() >= SCHEDULE_GUARD {
            self.fail_locked(
                g,
                "guard",
                "schedule exceeded the runaway guard".to_string(),
            );
            return;
        }
        let mut ids: Vec<usize> = (0..g.threads.len())
            .filter(|&t| is_eligible(g, t))
            .collect();
        if ids.is_empty() {
            let stuck: Vec<String> = (0..g.threads.len())
                .filter(|&t| !matches!(g.threads[t].pending, Pending::Finished))
                .map(|t| format!("t{t}: {}", describe_pending(g, t)))
                .collect();
            if !stuck.is_empty() {
                self.fail_locked(
                    g,
                    "deadlock",
                    format!("no eligible thread; {}", stuck.join(", ")),
                );
            }
            return;
        }
        let current_eligible = ids.contains(&g.current);
        if current_eligible {
            ids.retain(|&t| t != g.current);
            ids.insert(0, g.current);
        }
        let idx = match &mut g.mode {
            Mode::Replay(prefix) => {
                if g.step < prefix.len() {
                    prefix[g.step].min(ids.len() - 1)
                } else {
                    0
                }
            }
            Mode::Random(state) => (splitmix64(state) % ids.len() as u64) as usize,
        };
        g.step += 1;
        g.schedule.push(ChoicePoint {
            eligible: ids.clone(),
            chosen: idx,
            current_eligible,
            preemptions_before: g.preemptions,
        });
        if current_eligible && idx > 0 {
            g.preemptions += 1;
        }
        let t = ids[idx];
        match g.threads[t].pending {
            Pending::Acquire(m) | Pending::WaitCv { mutex: m, .. } => {
                g.mutexes[m].owner = Some(t);
            }
            _ => {}
        }
        g.threads[t].pending = Pending::Running;
        g.current = t;
    }

    fn fail_locked(&self, g: &mut Inner, kind: &str, message: String) {
        if g.failure.is_none() {
            g.failure = Some(Failure {
                kind: kind.to_string(),
                message,
                trace: g.events.clone(),
            });
        }
        g.aborted = true;
    }

    /// The heart of the baton protocol: record the visible op, apply its
    /// entry effects, let the scheduler pick who runs, park until the
    /// baton returns (or the execution aborted).
    pub(crate) fn schedule_point(
        &self,
        me: usize,
        residue: Pending,
        effect: Effect,
        label: String,
    ) {
        let mut g = lk(&self.inner);
        if g.aborted {
            drop(g);
            panic_any(SchedAbort);
        }
        g.events.push(format!("t{me} {label}"));
        match effect {
            Effect::None => {}
            Effect::NotifyOne(cv) => {
                if !g.condvars[cv].waiters.is_empty() {
                    let w = g.condvars[cv].waiters.remove(0);
                    if let Pending::WaitCv { notified, .. } = &mut g.threads[w].pending {
                        *notified = true;
                    }
                }
            }
            Effect::NotifyAll(cv) => {
                for w in std::mem::take(&mut g.condvars[cv].waiters) {
                    if let Pending::WaitCv { notified, .. } = &mut g.threads[w].pending {
                        *notified = true;
                    }
                }
            }
        }
        // Condvar wait releases the mutex and joins the waitset
        // *atomically with the schedule point* — the real
        // `Condvar::wait(guard)` contract.
        if let Pending::WaitCv { cv, mutex, .. } = residue {
            g.mutexes[mutex].owner = None;
            g.condvars[cv].waiters.push(me);
        }
        g.threads[me].pending = residue;
        self.advance(&mut g);
        self.cv.notify_all();
        loop {
            if g.aborted {
                drop(g);
                panic_any(SchedAbort);
            }
            if matches!(g.threads[me].pending, Pending::Running) {
                break;
            }
            g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Mutex release: not a schedule point (it only widens eligibility,
    /// which the next schedule point observes).
    pub(crate) fn release_mutex(&self, me: usize, id: usize) {
        let mut g = lk(&self.inner);
        if g.aborted {
            return;
        }
        g.mutexes[id].owner = None;
        let name = g.mutexes[id].name.clone();
        g.events.push(format!("t{me} release({name})"));
    }

    /// Records a model assertion failure and tears the execution down.
    pub(crate) fn fail_assert(&self, me: usize, msg: &str) -> ! {
        let mut g = lk(&self.inner);
        if !g.aborted {
            self.fail_locked(&mut g, "assertion", format!("t{me}: {msg}"));
        }
        drop(g);
        self.cv.notify_all();
        panic_any(SchedAbort);
    }

    /// Registers a model thread and starts its real thread.
    pub(crate) fn spawn_thread(
        self: &Arc<Self>,
        parent: usize,
        f: Box<dyn FnOnce(Sched) + Send>,
    ) -> usize {
        let id = {
            let mut g = lk(&self.inner);
            g.threads.push(ThreadState {
                pending: Pending::Ready,
            });
            g.active += 1;
            g.threads.len() - 1
        };
        let handle = spawn_wrapper(Arc::clone(self), id, f);
        lk_handles(&self.handles).push(handle);
        self.schedule_point(
            parent,
            Pending::Ready,
            Effect::None,
            format!("spawn(t{id})"),
        );
        id
    }

    /// Parks a freshly-spawned real thread until its model thread is
    /// first granted the baton; `false` means the execution aborted
    /// before that happened.
    fn await_baton(&self, me: usize) -> bool {
        let mut g = lk(&self.inner);
        loop {
            if g.aborted {
                return false;
            }
            if matches!(g.threads[me].pending, Pending::Running) {
                return true;
            }
            g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Model-thread teardown: record panics as failures, hand the baton
    /// onward, and wake the main explorer when the last thread exits.
    fn finish(&self, me: usize, panic_msg: Option<String>) {
        let mut g = lk(&self.inner);
        g.events.push(format!("t{me} exit"));
        g.threads[me].pending = Pending::Finished;
        if let Some(msg) = panic_msg {
            self.fail_locked(&mut g, "panic", format!("t{me} panicked: {msg}"));
        } else if !g.aborted {
            self.advance(&mut g);
        }
        g.active -= 1;
        drop(g);
        self.cv.notify_all();
    }
}

fn lk_handles(
    m: &StdMutex<Vec<std::thread::JoinHandle<()>>>,
) -> StdMutexGuard<'_, Vec<std::thread::JoinHandle<()>>> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn spawn_wrapper(
    ctl: Arc<Controller>,
    id: usize,
    f: Box<dyn FnOnce(Sched) + Send>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        MODEL_ID.with(|c| c.set(Some(id)));
        let run = ctl.await_baton(id);
        let panic_msg = if run {
            let sched = Sched {
                ctl: Arc::clone(&ctl),
            };
            match catch_unwind(AssertUnwindSafe(move || f(sched))) {
                Ok(()) => None,
                Err(payload) => {
                    if payload.is::<SchedAbort>() {
                        // Teardown unwind, not a model failure.
                        None
                    } else if let Some(s) = payload.downcast_ref::<&str>() {
                        Some((*s).to_string())
                    } else if let Some(s) = payload.downcast_ref::<String>() {
                        Some(s.clone())
                    } else {
                        Some("non-string panic payload".to_string())
                    }
                }
            }
        } else {
            None
        };
        ctl.finish(id, panic_msg);
    })
}

/// Per-thread handle models use to create sync objects, spawn threads
/// and assert properties. Cloneable and cheap.
#[derive(Clone)]
pub struct Sched {
    pub(crate) ctl: Arc<Controller>,
}

impl Sched {
    /// Spawns a model thread; the closure gets its own handle.
    pub fn spawn(&self, f: impl FnOnce(Sched) + Send + 'static) -> JoinHandle {
        let id = self.ctl.spawn_thread(current_id(), Box::new(f));
        JoinHandle {
            ctl: Arc::clone(&self.ctl),
            id,
        }
    }

    /// A pure schedule point: lets the explorer preempt here.
    pub fn yield_now(&self) {
        self.ctl.schedule_point(
            current_id(),
            Pending::Ready,
            Effect::None,
            "yield".to_string(),
        );
    }

    /// Model assertion: on failure the execution is recorded as a
    /// counterexample and torn down. Use this instead of `assert!` so
    /// the failing schedule is captured.
    pub fn check(&self, cond: bool, msg: &str) {
        if !cond {
            self.ctl.fail_assert(current_id(), msg);
        }
    }
}

/// Join handle for a model thread.
pub struct JoinHandle {
    ctl: Arc<Controller>,
    id: usize,
}

impl JoinHandle {
    /// Blocks (at model level) until the thread finishes.
    pub fn join(self) {
        self.ctl.schedule_point(
            current_id(),
            Pending::Join(self.id),
            Effect::None,
            format!("join(t{})", self.id),
        );
    }
}

/// One execution's outcome.
struct Execution {
    failure: Option<Failure>,
    schedule: Vec<ChoicePoint>,
}

fn run_one(model: &ModelFn, mode: Mode) -> Execution {
    install_quiet_hook();
    let ctl = Arc::new(Controller::new(mode));
    {
        // Thread 0 starts holding the baton.
        let mut g = lk(&ctl.inner);
        g.threads.push(ThreadState {
            pending: Pending::Running,
        });
        g.active = 1;
        g.current = 0;
    }
    let m = Arc::clone(model);
    let h = spawn_wrapper(Arc::clone(&ctl), 0, Box::new(move |s| m(s)));
    lk_handles(&ctl.handles).push(h);
    // Wait for every model thread to exit, then join the real threads so
    // nothing leaks into the next execution.
    {
        let mut g = lk(&ctl.inner);
        while g.active > 0 {
            g = ctl.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }
    loop {
        let drained: Vec<_> = lk_handles(&ctl.handles).drain(..).collect();
        if drained.is_empty() {
            break;
        }
        for h in drained {
            let _ = h.join();
        }
    }
    let mut g = lk(&ctl.inner);
    Execution {
        failure: g.failure.take(),
        schedule: std::mem::take(&mut g.schedule),
    }
}

/// The next DFS prefix after `schedule`, or `None` when the bounded
/// space is exhausted: backtrack to the last choice point with an
/// untried alternative that fits the preemption budget.
fn next_prefix(schedule: &[ChoicePoint], bound: usize) -> Option<Vec<usize>> {
    for k in (0..schedule.len()).rev() {
        let cp = &schedule[k];
        let next = cp.chosen + 1;
        if next >= cp.eligible.len() {
            continue;
        }
        let cost = usize::from(cp.current_eligible);
        if cp.preemptions_before + cost > bound {
            continue;
        }
        let mut prefix: Vec<usize> = schedule[..k].iter().map(|c| c.chosen).collect();
        prefix.push(next);
        return Some(prefix);
    }
    None
}

/// Exhaustive DFS over every interleaving of `model` up to
/// `cfg.preemption_bound` preemptions, stopping at the first failure.
pub fn explore(cfg: &SchedConfig, model: ModelFn) -> ExploreReport {
    let mut prefix: Vec<usize> = Vec::new();
    let mut runs = 0usize;
    loop {
        let ex = run_one(&model, Mode::Replay(std::mem::take(&mut prefix)));
        runs += 1;
        if ex.failure.is_some() {
            return ExploreReport {
                schedules_run: runs,
                failure: ex.failure,
                complete: false,
            };
        }
        match next_prefix(&ex.schedule, cfg.preemption_bound) {
            Some(p) if runs < cfg.max_schedules => prefix = p,
            Some(_) => {
                return ExploreReport {
                    schedules_run: runs,
                    failure: None,
                    complete: false,
                }
            }
            None => {
                return ExploreReport {
                    schedules_run: runs,
                    failure: None,
                    complete: true,
                }
            }
        }
    }
}

/// Seeded-random sampler: `schedules` executions with uniformly random
/// choices (no preemption bound) — cheap coverage of deep interleavings
/// the bounded DFS can't afford.
pub fn explore_random(seed: u64, schedules: usize, model: ModelFn) -> ExploreReport {
    let mut stream = seed;
    for i in 0..schedules {
        let run_seed = splitmix64(&mut stream);
        let ex = run_one(&model, Mode::Random(run_seed));
        if ex.failure.is_some() {
            return ExploreReport {
                schedules_run: i + 1,
                failure: ex.failure,
                complete: false,
            };
        }
    }
    ExploreReport {
        schedules_run: schedules,
        failure: None,
        complete: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::shim::Mutex;

    #[test]
    fn independent_increments_explore_cleanly() {
        let model: ModelFn = Arc::new(|s: Sched| {
            let m = Arc::new(Mutex::new(&s, "counter", 0u64));
            let m2 = Arc::clone(&m);
            let h = s.spawn(move |_| {
                *m2.lock() += 1;
            });
            *m.lock() += 1;
            h.join();
            let v = *m.lock();
            s.check(v == 2, "both increments landed");
        });
        let rep = explore(
            &SchedConfig {
                preemption_bound: 2,
                max_schedules: 10_000,
            },
            model,
        );
        assert!(rep.failure.is_none(), "failure: {:?}", rep.failure);
        assert!(rep.complete);
        assert!(rep.schedules_run > 1, "multiple interleavings explored");
    }

    #[test]
    fn ab_ba_deadlock_is_found() {
        let model: ModelFn = Arc::new(|s: Sched| {
            let a = Arc::new(Mutex::new(&s, "a", ()));
            let b = Arc::new(Mutex::new(&s, "b", ()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let h = s.spawn(move |_| {
                let _gb = b2.lock();
                let _ga = a2.lock();
            });
            {
                let _ga = a.lock();
                let _gb = b.lock();
            }
            h.join();
        });
        let rep = explore(
            &SchedConfig {
                preemption_bound: 1,
                max_schedules: 10_000,
            },
            model,
        );
        let f = rep.failure.expect("AB-BA deadlock must be detected");
        assert_eq!(f.kind, "deadlock");
        assert!(f.message.contains("acquire"), "message: {}", f.message);
        assert!(!f.trace.is_empty(), "counterexample trace captured");
    }

    #[test]
    fn random_mode_is_deterministic_per_seed_and_clean_on_sound_models() {
        let mk = || -> ModelFn {
            Arc::new(|s: Sched| {
                let m = Arc::new(Mutex::new(&s, "m", 0u64));
                let m2 = Arc::clone(&m);
                let h = s.spawn(move |_| {
                    *m2.lock() += 3;
                });
                *m.lock() += 4;
                h.join();
            })
        };
        let a = explore_random(42, 50, mk());
        let b = explore_random(42, 50, mk());
        assert!(a.failure.is_none() && b.failure.is_none());
        assert_eq!(a.schedules_run, b.schedules_run);
    }

    #[test]
    fn next_prefix_respects_the_preemption_budget() {
        let cp = |eligible: usize, chosen: usize, cur: bool, before: usize| ChoicePoint {
            eligible: (0..eligible).collect(),
            chosen,
            current_eligible: cur,
            preemptions_before: before,
        };
        // Last point has an alternative but it would exceed bound 0;
        // the earlier free switch (current not eligible) is taken.
        let schedule = vec![cp(2, 0, false, 0), cp(2, 0, true, 0)];
        assert_eq!(next_prefix(&schedule, 0), Some(vec![1]));
        // With bound 1 the deeper alternative is affordable.
        assert_eq!(next_prefix(&schedule, 1), Some(vec![0, 1]));
        // Fully exhausted.
        let done = vec![cp(1, 0, true, 0)];
        assert_eq!(next_prefix(&done, 2), None);
    }
}
