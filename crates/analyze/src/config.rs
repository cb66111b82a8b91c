//! Lint configuration: which crates are result-bearing, which modules
//! are allowed host timing or thread spawns, and which functions root
//! the replay hot path.
//!
//! The defaults encode this repo's policy (DESIGN.md §12). They are data
//! rather than hard-coded checks so the fixture tests can exercise the
//! lints against synthetic trees without rebuilding the scanner.

/// A hot-path function: bare `unwrap()`/`expect()` is banned inside it.
#[derive(Debug, Clone)]
pub struct HotPath {
    /// Repo-relative file the function lives in (forward slashes).
    pub file: &'static str,
    /// Function name (the ident after `fn`).
    pub function: &'static str,
}

/// Policy knobs for the lint pass.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Crates whose results feed simulated output: default-hasher maps
    /// are banned anywhere inside them.
    pub result_bearing_crates: Vec<&'static str>,
    /// Files allowed to use `Instant`/`SystemTime` (host-only timing
    /// that never feeds simulated results, e.g. `RuntimeTiming`).
    pub host_time_allow: Vec<&'static str>,
    /// Files allowed to spawn threads or processes.
    pub spawn_allow: Vec<&'static str>,
    /// Functions in which bare `unwrap()`/`expect()` is banned. These
    /// are also the reachability roots of the workspace hot-path pass.
    pub hot_paths: Vec<HotPath>,
    /// Free functions that acquire the lock passed as their argument
    /// (the pass treats a call like `lock_recover(&self.state)` as an
    /// acquisition of the `state` lock class).
    pub lock_helpers: Vec<&'static str>,
    /// Raw lock field/binding names → canonical lock-class names, so
    /// `slot`/`slots` and the barrier `state` report under their
    /// protocol names in lock-order witnesses.
    pub lock_aliases: Vec<(&'static str, &'static str)>,
}

impl Default for LintConfig {
    fn default() -> Self {
        Self {
            result_bearing_crates: vec!["core", "sim", "alloc", "oracle", "telemetry"],
            host_time_allow: vec![
                // RuntimeTiming measures host wall-clock for the perf
                // report only; simulated results never read it.
                "crates/sim/src/multicore.rs",
                // Bench harness timing is host-side by definition.
                "crates/bench/src/lib.rs",
                // The telemetry span clock is host time by design; it
                // feeds only the Perfetto timeline, never counters —
                // which is why span.rs alone is allowlisted while the
                // rest of the telemetry crate stays under the lint.
                "crates/telemetry/src/span.rs",
            ],
            spawn_allow: vec![
                // The model checker's explorer runs real OS threads
                // under its virtual scheduler.
                "crates/analyze/src/sched/explorer.rs",
                "crates/analyze/src/sched/shim.rs",
                // The crash-recovery harness spawns a child *process*
                // (its own binary, the `kill -9` target) — a
                // `Command::spawn`, not a thread.
                "crates/bench/src/bin/crashrecovery.rs",
            ],
            hot_paths: vec![
                HotPath {
                    file: "crates/sim/src/multicore.rs",
                    function: "bound_phase",
                },
                HotPath {
                    file: "crates/sim/src/multicore.rs",
                    function: "weave_turn",
                },
            ],
            lock_helpers: vec![
                // The poison-recovering helper of the threaded runtime
                // (git 6e6b514) and the model checker's internal
                // std-mutex helpers.
                "lock_recover",
                "lk",
                "lk_handles",
            ],
            // The lock classes of the threaded bound-phase protocol that
            // the sched models mirror.
            lock_aliases: vec![
                ("slot", "worker-slot"),
                ("slots", "worker-slot"),
                ("panics", "panic-list"),
                ("state", "barrier-state"),
                // Drain-protocol model: per-core bound-phase progress
                // counters the checkpoint snapshot reads after quiesce.
                ("counters", "core-progress"),
            ],
        }
    }
}

impl LintConfig {
    /// Whether `path` (repo-relative, forward slashes) is inside a
    /// result-bearing crate's `src` tree.
    pub fn is_result_bearing(&self, path: &str) -> bool {
        self.result_bearing_crates
            .iter()
            .any(|c| path.starts_with(&format!("crates/{c}/src/")))
    }

    /// Whether `path` may use host timing.
    pub fn allows_host_time(&self, path: &str) -> bool {
        self.host_time_allow.contains(&path)
    }

    /// Whether `path` may spawn threads or processes.
    pub fn allows_spawn(&self, path: &str) -> bool {
        self.spawn_allow.contains(&path)
    }

    /// Hot-path function names for `path` (empty if none).
    pub fn hot_functions(&self, path: &str) -> Vec<&'static str> {
        self.hot_paths
            .iter()
            .filter(|h| h.file == path)
            .map(|h| h.function)
            .collect()
    }

    /// Whether `name` is a lock-acquiring helper function.
    pub fn is_lock_helper(&self, name: &str) -> bool {
        self.lock_helpers.contains(&name)
    }

    /// Canonical lock-class name for a raw field/binding name.
    pub fn lock_class(&self, raw: &str) -> String {
        self.lock_aliases
            .iter()
            .find(|(from, _)| *from == raw)
            .map_or_else(|| raw.to_string(), |(_, to)| (*to).to_string())
    }

    /// Whether `path` is a crate root or binary root that must carry
    /// `#![forbid(unsafe_code)]`.
    pub fn requires_forbid_unsafe(path: &str) -> bool {
        path.ends_with("/src/lib.rs")
            || path.ends_with("/src/main.rs")
            || path.contains("/src/bin/")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_bearing_matches_src_trees_only() {
        let c = LintConfig::default();
        assert!(c.is_result_bearing("crates/sim/src/os.rs"));
        assert!(c.is_result_bearing("crates/core/src/detmap.rs"));
        assert!(!c.is_result_bearing("crates/sim/tests/os_determinism.rs"));
        assert!(!c.is_result_bearing("crates/bench/src/lib.rs"));
    }

    #[test]
    fn crate_roots_require_forbid_unsafe() {
        assert!(LintConfig::requires_forbid_unsafe("crates/sim/src/lib.rs"));
        assert!(LintConfig::requires_forbid_unsafe(
            "crates/bench/src/bin/sweep.rs"
        ));
        assert!(!LintConfig::requires_forbid_unsafe("crates/sim/src/os.rs"));
    }
}
