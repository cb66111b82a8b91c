//! Hot-path reachability lints.
//!
//! PR 6's `hot-path-unwrap` only fired inside functions *literally
//! named* in [`LintConfig::hot_paths`]; anything reached through one
//! call of indirection was invisible. This pass computes the set of
//! functions reachable from those roots over the workspace call graph
//! and scans every reachable body in a result-bearing crate for:
//!
//! * `hot-path-unwrap` — bare `.unwrap()` / `.expect(...)`: a panic on
//!   the replay path aborts the run;
//! * `hot-path-alloc` — `Vec::new` / `Box::new` / `vec!` / `format!` /
//!   `.to_string()` / `.collect()`: allocation on the per-op path is a
//!   throughput tax;
//! * `hot-path-blocking` — `println!`-family macros and file I/O: a
//!   blocking call on the per-op path stalls the whole replay.
//!
//! Every finding's help carries the reachability chain from a root
//! (`bound_phase → panic_message`), so the reader can
//! see *why* the function is hot. Suppression is the ordinary
//! `// analyze::allow(<lint>): <reason>` directive, applied by the
//! caller per file.

use crate::callgraph::{CallGraph, Workspace};
use crate::config::LintConfig;
use crate::diagnostics::Finding;
use crate::tokenizer::Token;

/// Runs the pass and returns raw findings (unsuppressed).
pub fn run(ws: &Workspace, cg: &CallGraph, config: &LintConfig) -> Vec<Finding> {
    let mut roots = Vec::new();
    for hp in &config.hot_paths {
        let Some(fi) = ws.file_index(hp.file) else {
            continue;
        };
        for (ii, item) in ws.files[fi].fns.iter().enumerate() {
            if item.name == hp.function {
                if let Some(flat) = cg.flat(fi, ii) {
                    roots.push(flat);
                }
            }
        }
    }
    let reach = cg.reachable(&roots);
    let mut findings = Vec::new();
    for &f in reach.keys() {
        let r = cg.fns[f];
        let pf = &ws.files[r.file];
        if !config.is_result_bearing(&pf.path) {
            continue;
        }
        let Some((lo, hi)) = pf.fns[r.item].body else {
            continue;
        };
        let chain = cg.chain(ws, &reach, f);
        let t = &pf.toks.tokens;
        for i in lo..hi {
            let Some(site) = classify(t, i) else { continue };
            findings.push(Finding {
                lint: site.lint.to_string(),
                path: pf.path.clone(),
                line: t[i].line,
                col: t[i].col,
                message: format!("{} on the hot path", site.what),
                snippet: pf
                    .source
                    .lines()
                    .nth(t[i].line as usize - 1)
                    .unwrap_or("")
                    .to_string(),
                help: format!("reachable from a replay root: {chain}; {}", site.remedy),
            });
        }
    }
    findings
}

/// A classified hot-path violation at one token.
struct Site {
    lint: &'static str,
    what: String,
    remedy: &'static str,
}

/// Macro names that are blocking console I/O.
const BLOCKING_MACROS: &[&str] = &["println", "eprintln", "print", "eprint", "dbg"];

/// `fs::` functions and file types whose constructors hit the disk.
const FILE_CALLS: &[&str] = &["open", "create", "create_new", "read_to_string", "write"];

/// Classifies the token at `i` as a hot-path violation, if it is one.
fn classify(t: &[Token], i: usize) -> Option<Site> {
    let id = t[i].ident()?;
    let prev_dot = i > 0 && t[i - 1].is_punct('.');
    let next_bang = t.get(i + 1).is_some_and(|x| x.is_punct('!'));
    let next_call = t.get(i + 1).is_some_and(|x| x.is_punct('('))
        || (t.get(i + 1).is_some_and(|x| x.is_punct(':'))
            && t.get(i + 2).is_some_and(|x| x.is_punct(':'))
            && t.get(i + 3).is_some_and(|x| x.is_punct('<')));
    let path_prefix = |name: &str| {
        i >= 2
            && t[i - 1].is_punct(':')
            && t[i - 2].is_punct(':')
            && i >= 3
            && t[i - 3].is_ident(name)
    };
    // hot-path-unwrap: `.unwrap()` / `.expect(...)`.
    if prev_dot && (id == "unwrap" || id == "expect") && next_call {
        return Some(Site {
            lint: "hot-path-unwrap",
            what: format!("`{id}()`"),
            remedy: "a panic here aborts the replay; return the error \
                     or use a checked accessor",
        });
    }
    // hot-path-alloc.
    if id == "new" && next_call && (path_prefix("Vec") || path_prefix("Box")) {
        let owner = if path_prefix("Vec") { "Vec" } else { "Box" };
        return Some(Site {
            lint: "hot-path-alloc",
            what: format!("allocation (`{owner}::new`)"),
            remedy: "hoist the allocation out of the per-quantum path or reuse a \
                     preallocated buffer",
        });
    }
    if next_bang && (id == "format" || id == "vec") {
        return Some(Site {
            lint: "hot-path-alloc",
            what: format!("allocation (`{id}!`)"),
            remedy: "hoist the allocation out of the per-quantum path or reuse a \
                     preallocated buffer",
        });
    }
    if prev_dot && (id == "to_string" || id == "to_owned" || id == "collect") && next_call {
        return Some(Site {
            lint: "hot-path-alloc",
            what: format!("allocation (`.{id}()`)"),
            remedy: "hoist the allocation out of the per-quantum path or reuse a \
                     preallocated buffer",
        });
    }
    // hot-path-blocking.
    if next_bang && BLOCKING_MACROS.contains(&id) {
        return Some(Site {
            lint: "hot-path-blocking",
            what: format!("blocking console I/O (`{id}!`)"),
            remedy: "route output through the telemetry recorder instead of \
                     blocking the replay on the console lock",
        });
    }
    if id == "File" && t.get(i + 1).is_some_and(|x| x.is_punct(':')) {
        let m = t.get(i + 3).and_then(Token::ident);
        if m.is_some_and(|m| FILE_CALLS.contains(&m)) {
            return Some(Site {
                lint: "hot-path-blocking",
                what: "file I/O (`File::…`)".to_string(),
                remedy: "perform file I/O outside the replay loop",
            });
        }
    }
    if next_call && FILE_CALLS.contains(&id) && path_prefix("fs") {
        return Some(Site {
            lint: "hot-path-blocking",
            what: format!("file I/O (`fs::{id}`)"),
            remedy: "perform file I/O outside the replay loop",
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;

    fn run_on(src: &str) -> Vec<Finding> {
        // Place the hot root in multicore.rs so the default config's
        // `bound_phase` root matches.
        let ws = Workspace::from_sources(vec![(
            "crates/sim/src/multicore.rs".to_string(),
            src.to_string(),
        )]);
        let cg = CallGraph::build(&ws);
        run(&ws, &cg, &LintConfig::default())
    }

    #[test]
    fn unwrap_behind_one_call_of_indirection_is_caught() {
        let findings = run_on(
            "fn bound_phase() { helper(); }\n\
             fn helper() { thing.unwrap(); }",
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].lint, "hot-path-unwrap");
        assert_eq!((findings[0].line, findings[0].col), (2, 21));
        assert!(findings[0].help.contains("bound_phase → helper"));
    }

    #[test]
    fn alloc_and_blocking_sites_are_classified() {
        let findings = run_on(
            "fn bound_phase() {\n\
                 let v = Vec::new();\n\
                 let s = x.to_string();\n\
                 println!(\"hi\");\n\
                 let it: Vec<u32> = xs.iter().collect();\n\
             }",
        );
        let lints: Vec<&str> = findings.iter().map(|f| f.lint.as_str()).collect();
        assert_eq!(
            lints,
            vec![
                "hot-path-alloc",
                "hot-path-alloc",
                "hot-path-blocking",
                "hot-path-alloc"
            ],
            "{findings:?}"
        );
    }

    #[test]
    fn cold_functions_are_not_scanned() {
        let findings = run_on(
            "fn cold() { thing.unwrap(); let v = Vec::new(); }\n\
             fn bound_phase() { }",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn non_result_bearing_crates_are_exempt() {
        let ws = Workspace::from_sources(vec![
            (
                "crates/sim/src/multicore.rs".to_string(),
                "fn bound_phase() { bench_hook(); }".to_string(),
            ),
            (
                "crates/bench/src/lib.rs".to_string(),
                "fn bench_hook() { thing.unwrap(); }".to_string(),
            ),
        ]);
        let cg = CallGraph::build(&ws);
        let findings = run(&ws, &cg, &LintConfig::default());
        assert!(findings.is_empty(), "{findings:?}");
    }
}
