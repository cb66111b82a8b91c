//! Fixture-driven regression tests for the workspace passes (lock-order,
//! hot-path reachability, atomic-ordering): each seeded-violation file
//! must produce exactly the expected `(lint, line, col)` spans when
//! analyzed as a synthetic workspace, and the clean fixture must produce
//! nothing. Driving [`analyze_sources`] end-to-end also locks in the
//! JSON report shape (schema version, deterministic ordering).

use califorms_analyze::config::LintConfig;
use califorms_analyze::diagnostics::{Report, SCHEMA_VERSION};
use califorms_analyze::workspace::analyze_sources;
use std::path::Path;

fn fixture(file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(file);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()))
}

fn analyze(files: &[(&str, &str)]) -> Report {
    analyze_sources(
        files
            .iter()
            .map(|(p, f)| ((*p).to_string(), fixture(f)))
            .collect(),
        &LintConfig::default(),
    )
}

/// (lint, line, col) triples, in report order.
fn spans(report: &Report) -> Vec<(String, u32, u32)> {
    report
        .findings
        .iter()
        .map(|f| (f.lint.clone(), f.line, f.col))
        .collect()
}

#[test]
fn ab_ba_fixture_yields_one_lock_order_cycle_naming_both_sites() {
    let report = analyze(&[("crates/sim/src/fixture_locks.rs", "lock_order_ab_ba.rs")]);
    assert_eq!(
        spans(&report),
        vec![("lock-order".to_string(), 7, 21)] // state.lock() in `forward`
    );
    let f = &report.findings[0];
    assert_eq!(
        f.message,
        "lock-order cycle: `barrier-state` → `panic-list` → `barrier-state`"
    );
    // The witness must name both acquisition sites of the inversion:
    // forward's nested acquire and backward's reversed one.
    assert!(
        f.help.contains("crates/sim/src/fixture_locks.rs:7:21"),
        "{}",
        f.help
    );
    assert!(
        f.help.contains("crates/sim/src/fixture_locks.rs:12:22"),
        "{}",
        f.help
    );
    assert!(f.help.contains("; and back: "), "{}", f.help);
}

#[test]
fn hot_path_violations_are_caught_one_call_from_the_root() {
    let report = analyze(&[("crates/sim/src/multicore.rs", "hot_path_indirect.rs")]);
    assert_eq!(
        spans(&report),
        vec![
            ("hot-path-unwrap".to_string(), 10, 24), // .unwrap() in helper
            ("hot-path-alloc".to_string(), 11, 17),  // format! in helper
        ]
    );
    // The chain proves the reachability pass (not the old per-function
    // name heuristic) found these: the violations are in `helper`, not
    // in the root itself.
    for f in &report.findings {
        assert!(
            f.help.contains("bound_phase") && f.help.contains("helper"),
            "{}",
            f.help
        );
    }
}

#[test]
fn unjustified_weak_ordering_is_flagged_and_justified_one_is_not() {
    let report = analyze(&[("crates/core/src/fixture_atomics.rs", "atomic_order.rs")]);
    assert_eq!(
        spans(&report),
        vec![("atomic-ordering".to_string(), 5, 20)] // fetch_add's Relaxed
    );
    assert!(report.findings[0].message.contains("Ordering::Relaxed"));
}

#[test]
fn clean_fixture_produces_no_findings_across_all_passes() {
    let report = analyze(&[("crates/sim/src/multicore.rs", "callgraph_clean.rs")]);
    assert!(report.clean, "clean fixture flagged: {:?}", spans(&report));
    assert!(report.suppressions.is_empty());
}

#[test]
fn report_is_schema_versioned_and_byte_stable() {
    let run = || {
        analyze(&[
            // Deliberately passed out of path order; the report must
            // sort findings by (path, line, col, lint) regardless.
            ("crates/sim/src/multicore.rs", "hot_path_indirect.rs"),
            ("crates/core/src/fixture_atomics.rs", "atomic_order.rs"),
        ])
    };
    let a = run();
    let b = run();
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "identical inputs, identical bytes"
    );
    assert!(
        a.to_json()
            .contains(&format!("\"schema_version\": {SCHEMA_VERSION}")),
        "schema version stamped"
    );
    let order = spans(&a);
    // Path-major order: the core finding (alphabetically first path)
    // leads even though its file was passed second.
    assert_eq!(order[0].0, "atomic-ordering", "order: {order:?}");
    assert_eq!(
        order[1..]
            .iter()
            .map(|(l, ..)| l.as_str())
            .collect::<Vec<_>>(),
        vec!["hot-path-unwrap", "hot-path-alloc"]
    );
}
