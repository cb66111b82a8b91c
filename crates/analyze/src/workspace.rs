//! Workspace traversal and whole-workspace orchestration: find every
//! `.rs` file under `crates/*/src`, parse them into one [`Workspace`]
//! with a [`CallGraph`], run the per-file lints plus the workspace
//! passes (lock-order, hot-path reachability, atomic-ordering), apply
//! each file's `analyze::allow` directives to everything anchored in
//! it, and fold the results into a [`Report`].

use crate::callgraph::{CallGraph, Workspace};
use crate::config::LintConfig;
use crate::diagnostics::{AppliedSuppression, Finding, Report};
use crate::lint::{apply_directives, lint_file, SourceContext};
use crate::{atomics, hotpath, lockorder};
use std::fs;
use std::path::{Path, PathBuf};

/// Lints every `crates/*/src/**/*.rs` file under `root` (the repo root)
/// with all workspace passes and returns the aggregate report.
pub fn scan_workspace(root: &Path, config: &LintConfig) -> std::io::Result<Report> {
    let mut files = collect_sources(root)?;
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for rel in &files {
        let source = fs::read_to_string(root.join(rel))?;
        let rel_str = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        sources.push((rel_str, source));
    }
    Ok(analyze_sources(sources, config))
}

/// The full analysis over in-memory `(repo-relative path, source)`
/// pairs: per-file lints (with hot-path scoping delegated to the
/// reachability pass), then the call-graph passes, then suppression.
/// Fixture tests drive this directly with synthetic trees.
pub fn analyze_sources(sources: Vec<(String, String)>, config: &LintConfig) -> Report {
    let ws = Workspace::from_sources(sources);
    let cg = CallGraph::build(&ws);

    // Per-file checks (name-heuristic hot-path scoping off: the
    // reachability pass below owns hot-path lints workspace-wide).
    let mut file_lints = Vec::with_capacity(ws.files.len());
    for pf in &ws.files {
        let ctx = SourceContext {
            path: &pf.path,
            config,
        };
        file_lints.push(lint_file(&ctx, &pf.toks, &pf.source, false));
    }

    // Workspace passes; findings route to the file they anchor in so
    // that file's directives can suppress them.
    let mut pass_findings = Vec::new();
    pass_findings.extend(lockorder::run(&ws, &cg, config));
    pass_findings.extend(hotpath::run(&ws, &cg, config));
    pass_findings.extend(atomics::run(&ws, config));
    for f in pass_findings {
        if let Some(fi) = ws.file_index(&f.path) {
            file_lints[fi].raw.push(f);
        }
    }

    let mut findings: Vec<Finding> = Vec::new();
    let mut suppressions: Vec<AppliedSuppression> = Vec::new();
    for (pf, fl) in ws.files.iter().zip(file_lints) {
        let out = apply_directives(&pf.path, &fl.directives, fl.raw);
        findings.extend(out.findings);
        suppressions.extend(out.suppressions);
    }
    Report::new(ws.files.len() as u64, findings, suppressions)
}

/// Repo-relative paths of every `.rs` file under `crates/*/src`.
fn collect_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    for krate in fs::read_dir(&crates_dir)? {
        let krate = krate?.path();
        let src = krate.join("src");
        if src.is_dir() {
            walk_rs(&src, &mut out)?;
        }
    }
    // Make paths repo-relative.
    Ok(out
        .into_iter()
        .filter_map(|p| p.strip_prefix(root).ok().map(Path::to_path_buf))
        .collect())
}

/// Recursively collects `.rs` files under `dir`.
fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            walk_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The analyze crate lives inside the workspace it lints, so its own
    /// manifest dir is two levels below the repo root.
    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .expect("repo root resolves")
    }

    #[test]
    fn scan_sees_the_known_crates() {
        let report = scan_workspace(&repo_root(), &LintConfig::default()).unwrap();
        assert!(
            report.files_scanned > 30,
            "expected a real workspace, saw {} files",
            report.files_scanned
        );
    }

    #[test]
    fn pass_findings_are_suppressible_by_file_directives() {
        let report = analyze_sources(
            vec![(
                "crates/sim/src/multicore.rs".to_string(),
                "fn bound_phase() {\n\
                     // analyze::allow(hot-path-unwrap): cursor invariant, cannot be empty here\n\
                     thing.unwrap();\n\
                 }"
                .to_string(),
            )],
            &LintConfig::default(),
        );
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.suppressions.len(), 1);
        assert_eq!(report.suppressions[0].lint, "hot-path-unwrap");
    }
}
