//! Shim sync types mirroring the `std::sync` API, with every visible
//! operation routed through the virtual scheduler.
//!
//! Mutual exclusion is enforced at the *model* level (the scheduler only
//! grants a lock to one thread at a time), so the embedded
//! `std::sync::Mutex` protecting the actual data is never contended —
//! it exists to hand out `&mut T` safely under
//! `#![forbid(unsafe_code)]`. Lock APIs therefore don't return
//! `Result`s: poisoning cannot happen at the std layer (a model-thread
//! panic unwinds through the scheduler, not through a held std guard
//! under contention), and model-level failures are reported by the
//! explorer instead.

use super::explorer::{current_id, Effect, Pending, Sched};
use crate::sched::explorer::Controller;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex as StdMutex, MutexGuard as StdMutexGuard, PoisonError};

fn lk<T>(m: &StdMutex<T>) -> StdMutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A model mutex. Shared across model threads via `Arc`.
pub struct Mutex<T> {
    pub(crate) id: usize,
    name: String,
    ctl: Arc<Controller>,
    data: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a named model mutex registered with `sched`'s scheduler.
    pub fn new(sched: &Sched, name: &str, value: T) -> Self {
        Self {
            id: sched.ctl.register_mutex(name),
            name: name.to_string(),
            ctl: Arc::clone(&sched.ctl),
            data: StdMutex::new(value),
        }
    }

    /// Acquires the lock — a schedule point that blocks (at model level)
    /// while another thread owns it.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let me = current_id();
        self.ctl.schedule_point(
            me,
            Pending::Acquire(self.id),
            Effect::None,
            format!("acquire({})", self.name),
        );
        MutexGuard {
            lock: self,
            inner: Some(lk(&self.data)),
            release_on_drop: true,
        }
    }
}

/// RAII guard mirroring `std::sync::MutexGuard`.
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    inner: Option<StdMutexGuard<'a, T>>,
    /// Cleared by `Condvar::wait`, whose `WaitCv` schedule point
    /// releases the model mutex atomically instead.
    release_on_drop: bool,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the lock")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds the lock")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Real guard first, then the model-level release: whenever the
        // scheduler grants this mutex to another thread, the std mutex
        // is already free.
        self.inner.take();
        if self.release_on_drop {
            self.lock.ctl.release_mutex(current_id(), self.lock.id);
        }
    }
}

/// A model condvar. Shared across model threads via `Arc`.
pub struct Condvar {
    id: usize,
    name: String,
    ctl: Arc<Controller>,
}

impl Condvar {
    /// Creates a named model condvar registered with `sched`'s scheduler.
    pub fn new(sched: &Sched, name: &str) -> Self {
        Self {
            id: sched.ctl.register_condvar(name),
            name: name.to_string(),
            ctl: Arc::clone(&sched.ctl),
        }
    }

    /// Releases `guard`'s mutex and parks until notified, then
    /// reacquires — the release and waitset entry are atomic at the
    /// schedule point, exactly like `std::sync::Condvar::wait`. No
    /// spurious wakeups (see the module docs on granularity).
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let lock = guard.lock;
        guard.inner.take();
        guard.release_on_drop = false;
        drop(guard);
        self.ctl.schedule_point(
            current_id(),
            Pending::WaitCv {
                cv: self.id,
                mutex: lock.id,
                notified: false,
            },
            Effect::None,
            format!("wait({})", self.name),
        );
        MutexGuard {
            lock,
            inner: Some(lk(&lock.data)),
            release_on_drop: true,
        }
    }

    /// Wakes the longest-waiting thread (deterministic stand-in for the
    /// OS's arbitrary pick).
    pub fn notify_one(&self) {
        self.ctl.schedule_point(
            current_id(),
            Pending::Ready,
            Effect::NotifyOne(self.id),
            format!("notify_one({})", self.name),
        );
    }

    /// Wakes every waiting thread.
    pub fn notify_all(&self) {
        self.ctl.schedule_point(
            current_id(),
            Pending::Ready,
            Effect::NotifyAll(self.id),
            format!("notify_all({})", self.name),
        );
    }
}

/// A model atomic u64; every access is a schedule point.
pub struct AtomicU64 {
    name: String,
    ctl: Arc<Controller>,
    val: StdMutex<u64>,
}

impl AtomicU64 {
    /// Creates a named model atomic.
    pub fn new(sched: &Sched, name: &str, value: u64) -> Self {
        Self {
            name: name.to_string(),
            ctl: Arc::clone(&sched.ctl),
            val: StdMutex::new(value),
        }
    }

    /// Atomic load (schedule point before the access).
    pub fn load(&self) -> u64 {
        self.point("load");
        *lk(&self.val)
    }

    /// Atomic store (schedule point before the access).
    pub fn store(&self, v: u64) {
        self.point("store");
        *lk(&self.val) = v;
    }

    /// Atomic fetch-add, returning the previous value.
    pub fn fetch_add(&self, v: u64) -> u64 {
        self.point("fetch_add");
        let mut g = lk(&self.val);
        let prev = *g;
        *g += v;
        prev
    }

    fn point(&self, op: &str) {
        self.ctl.schedule_point(
            current_id(),
            Pending::Ready,
            Effect::None,
            format!("{op}({})", self.name),
        );
    }
}

/// A model atomic bool; every access is a schedule point.
pub struct AtomicBool {
    name: String,
    ctl: Arc<Controller>,
    val: StdMutex<bool>,
}

impl AtomicBool {
    /// Creates a named model atomic.
    pub fn new(sched: &Sched, name: &str, value: bool) -> Self {
        Self {
            name: name.to_string(),
            ctl: Arc::clone(&sched.ctl),
            val: StdMutex::new(value),
        }
    }

    /// Atomic load (schedule point before the access).
    pub fn load(&self) -> bool {
        self.ctl.schedule_point(
            current_id(),
            Pending::Ready,
            Effect::None,
            format!("load({})", self.name),
        );
        *lk(&self.val)
    }

    /// Atomic store (schedule point before the access).
    pub fn store(&self, v: bool) {
        self.ctl.schedule_point(
            current_id(),
            Pending::Ready,
            Effect::None,
            format!("store({})", self.name),
        );
        *lk(&self.val) = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::explorer::{explore, ModelFn, SchedConfig};

    #[test]
    fn guard_gives_mutable_access_and_wait_reacquires() {
        let model: ModelFn = Arc::new(|s| {
            let m = Arc::new(Mutex::new(&s, "m", 0u64));
            let cv = Arc::new(Condvar::new(&s, "cv"));
            let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
            let h = s.spawn(move |s2| {
                let mut g = m2.lock();
                while *g == 0 {
                    g = cv2.wait(g);
                }
                s2.check(*g == 7, "consumer sees the produced value");
            });
            {
                let mut g = m.lock();
                *g = 7;
            }
            cv.notify_all();
            h.join();
        });
        let rep = explore(
            &SchedConfig {
                preemption_bound: 2,
                max_schedules: 20_000,
            },
            model,
        );
        assert!(rep.failure.is_none(), "failure: {:?}", rep.failure);
        assert!(rep.complete);
    }

    #[test]
    fn atomics_are_shared_and_ordered_under_the_baton() {
        let model: ModelFn = Arc::new(|s| {
            let a = Arc::new(AtomicU64::new(&s, "a", 0));
            let a2 = Arc::clone(&a);
            let h = s.spawn(move |_| {
                a2.fetch_add(5);
            });
            a.fetch_add(2);
            h.join();
            s.check(a.load() == 7, "both adds visible after join");
        });
        let rep = explore(&SchedConfig::default(), model);
        assert!(rep.failure.is_none(), "failure: {:?}", rep.failure);
    }
}
