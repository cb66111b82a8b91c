//! The real workspace must be lint-clean: `--check` in CI exits zero
//! because this property holds. If a change trips a lint, either fix it
//! or add an inline `// analyze::allow(<lint>): <reason>` with a real
//! justification (which will show up in `suppressions` here).

use califorms_analyze::config::LintConfig;
use califorms_analyze::workspace::scan_workspace;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves")
}

#[test]
fn real_workspace_is_lint_clean() {
    let report = scan_workspace(&repo_root(), &LintConfig::default()).expect("scan");
    let rendered = report.render_human();
    assert!(report.clean, "workspace has lint findings:\n{rendered}");
    assert!(
        report.files_scanned >= 90,
        "expected the full crates/*/src tree, saw {} files",
        report.files_scanned
    );
}

#[test]
fn workspace_suppressions_follow_the_policy() {
    let report = scan_workspace(&repo_root(), &LintConfig::default()).expect("scan");
    // Every suppression must carry a real justification, and only the
    // expected lint kinds may be suppressed at all: model thread spawns
    // (the sched models run threads under the virtual scheduler) and the
    // individually-reasoned hot-path invariants the reachability pass
    // surfaced. Nothing may suppress the determinism lints.
    const SUPPRESSIBLE: &[&str] = &["thread-spawn", "hot-path-unwrap", "hot-path-alloc"];
    for s in &report.suppressions {
        assert!(
            SUPPRESSIBLE.contains(&s.lint.as_str()),
            "lint `{}` must never be suppressed: {s:?}",
            s.lint
        );
        assert!(!s.reason.is_empty(), "empty justification: {s:?}");
        if s.lint == "thread-spawn" {
            assert!(
                s.path.starts_with("crates/analyze/src/sched/"),
                "thread-spawn suppression outside the sched models: {s:?}"
            );
        }
    }
    // The two original model-spawn suppressions are still present.
    let spawns = report
        .suppressions
        .iter()
        .filter(|s| s.lint == "thread-spawn")
        .count();
    assert!(spawns >= 2, "model spawn suppressions missing");
    // Suppressions are a budget, not a dumping ground: if this number
    // grows, each new entry needs the same per-site scrutiny these got.
    assert!(
        report.suppressions.len() <= 18,
        "suppression budget exceeded ({}): fix findings instead of annotating them",
        report.suppressions.len()
    );
}

#[test]
fn json_report_round_trips_the_gate_fields() {
    let report = scan_workspace(&repo_root(), &LintConfig::default()).expect("scan");
    let json = report.to_json();
    assert!(json.contains("\"clean\": true"));
    assert!(json.contains("\"files_scanned\""));
    assert!(json.contains("crates/analyze/src/sched/models.rs"));
}
