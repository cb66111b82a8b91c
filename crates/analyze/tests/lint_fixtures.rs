//! Fixture-driven lint regression tests: each seeded-violation file in
//! `tests/fixtures/` must produce exactly the expected lint names at the
//! expected file:line:col spans — and the clean fixture must produce
//! nothing. The fixtures are linted under synthetic repo-relative paths
//! so the path-scoped rules (result-bearing crates, hot-path functions,
//! crate roots) engage deterministically.

use califorms_analyze::config::LintConfig;
use califorms_analyze::lint::{lint_source, LintOutcome, SourceContext};
use std::path::Path;

fn lint_fixture(file: &str, as_path: &str) -> LintOutcome {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(file);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()));
    let config = LintConfig::default();
    lint_source(
        &SourceContext {
            path: as_path,
            config: &config,
        },
        &src,
    )
}

/// (lint, line, col) triples, in report order.
fn spans(out: &LintOutcome) -> Vec<(String, u32, u32)> {
    out.findings
        .iter()
        .map(|f| (f.lint.clone(), f.line, f.col))
        .collect()
}

#[test]
fn bad_map_flags_fields_ctor_and_random_state() {
    let out = lint_fixture("bad_map.rs", "crates/sim/src/fixture.rs");
    assert_eq!(
        spans(&out),
        vec![
            ("nondet-map".to_string(), 6, 18),  // HashMap<u64, u32> field
            ("nondet-map".to_string(), 7, 15),  // HashSet<u64> field
            ("nondet-map".to_string(), 10, 65), // explicit RandomState
            ("nondet-map".to_string(), 11, 5),  // HashMap::new()
        ]
    );
    assert!(out.suppressions.is_empty());
}

#[test]
fn bad_map_is_ignored_outside_result_bearing_crates() {
    let out = lint_fixture("bad_map.rs", "crates/bench/src/fixture.rs");
    assert!(out.findings.is_empty());
}

#[test]
fn map_iter_flags_the_ctor_and_the_iteration() {
    let out = lint_fixture("map_iter.rs", "crates/alloc/src/fixture.rs");
    assert_eq!(
        spans(&out),
        vec![
            ("nondet-map".to_string(), 4, 22),      // HashMap::new()
            ("nondet-map-iter".to_string(), 7, 21), // counts.keys()
        ]
    );
}

#[test]
fn host_time_flags_clock_and_entropy() {
    let out = lint_fixture("host_time.rs", "crates/oracle/src/fixture.rs");
    assert_eq!(
        spans(&out),
        vec![
            ("host-time".to_string(), 4, 13), // Instant
            ("host-time".to_string(), 5, 13), // SystemTime
            ("host-rand".to_string(), 6, 13), // thread_rng
        ]
    );
}

#[test]
fn host_time_is_allowed_in_the_runtime_timing_modules() {
    let out = lint_fixture("host_time.rs", "crates/sim/src/multicore.rs");
    assert!(
        out.findings.is_empty(),
        "allowlisted module: {:?}",
        spans(&out)
    );
}

#[test]
fn telemetry_span_clock_is_allowed_only_in_the_span_module() {
    // The span clock's home module is allowlisted host time...
    let out = lint_fixture("telemetry.rs", "crates/telemetry/src/span.rs");
    assert!(
        out.findings.is_empty(),
        "span module is allowlisted: {:?}",
        spans(&out)
    );
    // ...but the same timer in the counter path still trips the lint:
    // counters are result-bearing and must never read host time.
    let out = lint_fixture("telemetry.rs", "crates/telemetry/src/counters.rs");
    assert_eq!(
        spans(&out),
        vec![
            ("host-time".to_string(), 5, 24), // Instant return type
            ("host-time".to_string(), 6, 5),  // Instant::now()
        ]
    );
}

#[test]
fn stray_spawn_flags_both_spawn_forms() {
    let out = lint_fixture("stray_spawn.rs", "crates/trace/src/fixture.rs");
    assert_eq!(
        spans(&out),
        vec![
            ("thread-spawn".to_string(), 4, 18), // std::thread::spawn
            ("thread-spawn".to_string(), 7, 16), // Builder .spawn(
        ]
    );
}

#[test]
fn stray_spawn_is_allowed_only_in_listed_files() {
    let spawns = |as_path| {
        let out = lint_fixture("stray_spawn.rs", as_path);
        out.findings
            .iter()
            .filter(|f| f.lint == "thread-spawn")
            .count()
    };
    assert_eq!(spawns("crates/bench/src/bin/crashrecovery.rs"), 0);
    // The simulator runs on the calling thread: its runtime is not listed.
    assert_eq!(spawns("crates/sim/src/multicore.rs"), 2);
}

#[test]
fn hot_path_unwrap_flags_only_the_hot_function() {
    let out = lint_fixture("hot_path_unwrap.rs", "crates/sim/src/multicore.rs");
    assert_eq!(
        spans(&out),
        vec![
            ("hot-path-unwrap".to_string(), 4, 25), // .unwrap() in bound_phase
            ("hot-path-unwrap".to_string(), 5, 32), // .expect() in bound_phase
        ]
    );
}

#[test]
fn missing_forbid_anchors_at_file_start() {
    let out = lint_fixture("missing_forbid.rs", "crates/fixture/src/lib.rs");
    assert_eq!(
        spans(&out),
        vec![("missing-forbid-unsafe".to_string(), 1, 1)]
    );
    // Non-root files in the same crate are exempt.
    let out = lint_fixture("missing_forbid.rs", "crates/fixture/src/other.rs");
    assert!(out.findings.is_empty());
}

#[test]
fn suppressed_fixture_applies_the_valid_directive_only() {
    let out = lint_fixture("suppressed.rs", "crates/core/src/fixture.rs");
    assert_eq!(
        spans(&out),
        vec![
            ("malformed-allow".to_string(), 6, 1), // directive missing reason
            ("nondet-map".to_string(), 7, 16),     // not covered by malformed directive
        ]
    );
    assert_eq!(out.suppressions.len(), 1);
    assert_eq!(out.suppressions[0].lint, "nondet-map");
    assert_eq!(out.suppressions[0].line, 4);
    assert_eq!(
        out.suppressions[0].reason,
        "scratch map, never iterated in results"
    );
}

#[test]
fn a_directive_that_suppresses_nothing_is_reported_at_its_comment() {
    let out = lint_fixture("unused_allow.rs", "crates/core/src/fixture.rs");
    assert_eq!(
        spans(&out),
        vec![
            ("unused-allow".to_string(), 7, 5),   // its map was removed
            ("unused-allow".to_string(), 12, 37), // trailing, names a lint that never fires
        ]
    );
    assert_eq!(out.suppressions.len(), 1);
    assert_eq!(out.suppressions[0].line, 5);
}

#[test]
fn clean_fixture_produces_nothing() {
    let out = lint_fixture("clean.rs", "crates/core/src/lib.rs");
    assert!(out.findings.is_empty(), "clean fixture: {:?}", spans(&out));
    assert!(out.suppressions.is_empty());
}

#[test]
fn renderings_carry_the_fixture_span() {
    let out = lint_fixture("bad_map.rs", "crates/sim/src/fixture.rs");
    let rendered = out.findings[0].render();
    assert!(rendered.contains("--> crates/sim/src/fixture.rs:6:18"));
    assert!(rendered.contains("error[nondet-map]"));
    assert!(rendered.contains("by_line"));
}
