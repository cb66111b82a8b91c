//! The workspace determinism lint pass.
//!
//! Token-stream checks over one file at a time. Each check produces
//! [`Finding`]s with file:line:col spans; inline
//! `// analyze::allow(<lint-name>): <reason>` directives suppress a
//! matching finding on the same line or the line directly below the
//! directive, and every applied suppression is recorded in the report.
//!
//! Lint catalogue (DESIGN.md §12):
//!
//! | lint | fires on |
//! |------|----------|
//! | `nondet-map` | default-hasher `HashMap`/`HashSet` in a result-bearing crate |
//! | `nondet-map-iter` | iterating a default-hasher map (`.iter()`, `.keys()`, ...) |
//! | `host-time` | `Instant`/`SystemTime` in a simulated-result path |
//! | `host-rand` | OS randomness (`thread_rng`, `OsRng`, `from_entropy`, `getrandom`) |
//! | `thread-spawn` | spawning threads outside the parallel runtime |
//! | `hot-path-unwrap` | bare `.unwrap()`/`.expect()` in a worker-loop hot-path function |
//! | `missing-forbid-unsafe` | crate/bin root without `#![forbid(unsafe_code)]` |
//! | `malformed-allow` | an `analyze::allow` directive that doesn't parse |
//! | `unused-allow` | an `analyze::allow` directive that suppresses nothing (never itself suppressible) |

use crate::config::LintConfig;
use crate::diagnostics::{AppliedSuppression, Finding};
use crate::tokenizer::{tokenize, Token, Tokenized};

/// Everything `lint_source` needs to know about the file being linted.
pub struct SourceContext<'a> {
    /// Repo-relative path with forward slashes (drives scoping rules).
    pub path: &'a str,
    /// Policy knobs.
    pub config: &'a LintConfig,
}

/// The result of linting one file.
#[derive(Debug, Default)]
pub struct LintOutcome {
    /// Findings that survived suppression, in (line, col) order.
    pub findings: Vec<Finding>,
    /// Suppressions that absorbed a finding.
    pub suppressions: Vec<AppliedSuppression>,
}

/// Methods that consume a default-hasher map's iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Constructors that pick the default (randomized) hasher.
const DEFAULT_HASHER_CTORS: &[&str] = &["new", "default", "with_capacity", "from"];

/// OS / entropy randomness markers.
const RAND_IDENTS: &[&str] = &["thread_rng", "OsRng", "from_entropy", "getrandom"];

/// Lints a single file in isolation: tokenize, run the per-file checks
/// (including the legacy name-heuristic hot-path scoping), apply
/// suppressions.
///
/// The workspace scan does NOT go through here: it calls `lint_file`
/// with `hot_heuristic = false` (the call-graph reachability pass owns
/// hot-path lints there) and merges pass findings before
/// `apply_directives`.
pub fn lint_source(ctx: &SourceContext<'_>, source: &str) -> LintOutcome {
    let toks = tokenize(source);
    let fl = lint_file(ctx, &toks, source, true);
    apply_directives(ctx.path, &fl.directives, fl.raw)
}

/// Raw per-file lint results, before suppression.
pub(crate) struct FileLint {
    /// Unsuppressed findings (including `malformed-allow`).
    pub(crate) raw: Vec<Finding>,
    /// Well-formed `analyze::allow` directives found in the file.
    pub(crate) directives: Vec<Directive>,
}

/// Runs the per-file checks over an already-tokenized file.
/// `hot_heuristic` enables the PR 6 name-based `hot-path-unwrap`
/// scoping (functions literally named in the config); the workspace
/// scan disables it in favour of call-graph reachability.
pub(crate) fn lint_file(
    ctx: &SourceContext<'_>,
    toks: &Tokenized,
    source: &str,
    hot_heuristic: bool,
) -> FileLint {
    let lines: Vec<&str> = source.lines().collect();
    let snippet = |line: u32| -> String {
        lines
            .get(line as usize - 1)
            .map_or(String::new(), |l| (*l).to_string())
    };
    let mk = |lint: &str, t: &Token, message: String, help: &str| Finding {
        lint: lint.to_string(),
        path: ctx.path.to_string(),
        line: t.line,
        col: t.col,
        message,
        snippet: snippet(t.line),
        help: help.to_string(),
    };

    let mut raw: Vec<Finding> = Vec::new();

    // ----- directive parsing (and malformed-allow findings) -----------
    let (directives, mut malformed) = parse_directives(ctx, toks, &snippet);
    raw.append(&mut malformed);

    let t = &toks.tokens;
    let in_use = use_statement_mask(t);

    // ----- nondet-map / nondet-map-iter -------------------------------
    let mut nondet_names: Vec<String> = Vec::new();
    if ctx.config.is_result_bearing(ctx.path) {
        for i in 0..t.len() {
            let Some(id) = t[i].ident() else { continue };
            if (id == "HashMap" || id == "HashSet") && !in_use[i] {
                let required = if id == "HashMap" { 3 } else { 2 };
                if let Some(reason) = default_hasher_use(t, i, required) {
                    raw.push(mk(
                        "nondet-map",
                        &t[i],
                        format!(
                            "default-hasher `{id}` in result-bearing crate ({reason}): \
                             iteration order varies per process"
                        ),
                        "use `califorms_core::LineMap`/`LineSet` or an explicit \
                         `BuildHasherDefault<LineHasher>` parameter",
                    ));
                    if let Some(name) = bound_name(t, i) {
                        nondet_names.push(name);
                    }
                }
            }
            if id == "RandomState" && !in_use[i] {
                raw.push(mk(
                    "nondet-map",
                    &t[i],
                    "`RandomState` in result-bearing crate: per-process random hash seed"
                        .to_string(),
                    "use `BuildHasherDefault<LineHasher>`",
                ));
            }
        }
        // Second pass: iteration over maps recorded as default-hasher.
        for i in 0..t.len() {
            let Some(name) = t[i].ident() else { continue };
            if !nondet_names.iter().any(|n| n == name) {
                continue;
            }
            if i + 2 < t.len()
                && t[i + 1].is_punct('.')
                && t[i + 2].ident().is_some_and(|m| ITER_METHODS.contains(&m))
            {
                let m = t[i + 2].ident().unwrap_or_default().to_string();
                raw.push(mk(
                    "nondet-map-iter",
                    &t[i + 2],
                    format!(
                        "`.{m}()` on default-hasher map `{name}`: order depends on the \
                         per-process hash seed"
                    ),
                    "switch the map to a deterministic hasher, or collect-and-sort \
                     before iterating",
                ));
            }
        }
    }

    // ----- host-time / host-rand --------------------------------------
    if ctx.config.is_result_bearing(ctx.path) && !ctx.config.allows_host_time(ctx.path) {
        for (i, tok) in t.iter().enumerate() {
            let Some(id) = tok.ident() else { continue };
            if in_use[i] {
                continue;
            }
            if id == "Instant" || id == "SystemTime" {
                raw.push(mk(
                    "host-time",
                    tok,
                    format!(
                        "`{id}` in a simulated-result path: host wall-clock leaks into results"
                    ),
                    "simulated time must come from the cycle model; host timing is only \
                     allowed in the RuntimeTiming perf report (see LintConfig::host_time_allow)",
                ));
            }
            if RAND_IDENTS.contains(&id) {
                raw.push(mk(
                    "host-rand",
                    tok,
                    format!(
                        "`{id}` in a simulated-result path: OS entropy breaks seed-determinism"
                    ),
                    "derive all randomness from the run seed (splitmix64 over the seed)",
                ));
            }
        }
    }

    // ----- thread-spawn ------------------------------------------------
    if !ctx.config.allows_spawn(ctx.path) {
        for i in 0..t.len() {
            let spawned = (t[i].is_ident("thread")
                && i + 3 < t.len()
                && t[i + 1].is_punct(':')
                && t[i + 2].is_punct(':')
                && t[i + 3].is_ident("spawn"))
                || (t[i].is_punct('.')
                    && i + 2 < t.len()
                    && t[i + 1].is_ident("spawn")
                    && t[i + 2].is_punct('('));
            if spawned {
                let at = if t[i].is_punct('.') { &t[i + 1] } else { &t[i] };
                raw.push(mk(
                    "thread-spawn",
                    at,
                    "thread spawn outside the parallel runtime".to_string(),
                    "all worker threads belong to runtime.rs/multicore.rs so the \
                     persistent pool and barrier protocol stay the single concurrency site",
                ));
            }
        }
    }

    // ----- hot-path-unwrap (legacy name heuristic) ---------------------
    let hot_functions = if hot_heuristic {
        ctx.config.hot_functions(ctx.path)
    } else {
        Vec::new()
    };
    for func in hot_functions {
        for (lo, hi) in function_bodies(t, func) {
            for i in lo..hi {
                if t[i].is_punct('.')
                    && i + 2 < hi
                    && t[i + 1]
                        .ident()
                        .is_some_and(|m| m == "unwrap" || m == "expect")
                    && t[i + 2].is_punct('(')
                {
                    let m = t[i + 1].ident().unwrap_or_default().to_string();
                    raw.push(mk(
                        "hot-path-unwrap",
                        &t[i + 1],
                        format!(
                            "bare `.{m}()` in hot-path function `{func}`: a panic here \
                             poisons the barrier and hangs every worker"
                        ),
                        "recover explicitly (e.g. `unwrap_or_else(PoisonError::into_inner)`) \
                         or surface the error as WorkerPanic",
                    ));
                }
            }
        }
    }

    // ----- missing-forbid-unsafe ---------------------------------------
    if LintConfig::requires_forbid_unsafe(ctx.path) && !has_forbid_unsafe(t) {
        raw.push(Finding {
            lint: "missing-forbid-unsafe".to_string(),
            path: ctx.path.to_string(),
            line: 1,
            col: 1,
            message: "crate root without `#![forbid(unsafe_code)]`".to_string(),
            snippet: snippet(1),
            help: "add `#![forbid(unsafe_code)]` at the top of the file".to_string(),
        });
    }

    FileLint { raw, directives }
}

/// Applies a file's suppression directives to its raw findings. A
/// directive absorbs a same-lint finding on its own line or the line
/// directly below; everything else survives. A directive that absorbs
/// nothing is itself an `unused-allow` finding: the code it excused is
/// gone. Those findings are made after suppression, so no directive can
/// silence them.
pub(crate) fn apply_directives(
    path: &str,
    directives: &[Directive],
    raw: Vec<Finding>,
) -> LintOutcome {
    let mut outcome = LintOutcome::default();
    let mut used = vec![false; directives.len()];
    for f in raw {
        let hit = directives
            .iter()
            .position(|d| d.lint == f.lint && (d.line == f.line || d.line + 1 == f.line));
        match hit {
            Some(i) => {
                used[i] = true;
                let d = &directives[i];
                outcome.suppressions.push(AppliedSuppression {
                    lint: d.lint.clone(),
                    path: path.to_string(),
                    line: d.line,
                    reason: d.reason.clone(),
                });
            }
            None => outcome.findings.push(f),
        }
    }
    for (d, _) in directives.iter().zip(used).filter(|&(_, used)| !used) {
        outcome.findings.push(Finding {
            lint: "unused-allow".to_string(),
            path: path.to_string(),
            line: d.line,
            col: d.col,
            message: format!("`analyze::allow({})` suppresses nothing", d.lint),
            snippet: d.snippet.clone(),
            help: "delete the directive: the finding it excused is gone".to_string(),
        });
    }
    outcome
        .findings
        .sort_by(|a, b| (a.line, a.col, &a.lint).cmp(&(b.line, b.col, &b.lint)));
    outcome.suppressions.sort_by_key(|s| s.line);
    outcome.suppressions.dedup();
    outcome
}

/// A parsed `analyze::allow` directive.
pub(crate) struct Directive {
    line: u32,
    col: u32,
    lint: String,
    reason: String,
    snippet: String,
}

/// Extracts well-formed directives and reports malformed ones.
fn parse_directives(
    ctx: &SourceContext<'_>,
    toks: &Tokenized,
    snippet: &dyn Fn(u32) -> String,
) -> (Vec<Directive>, Vec<Finding>) {
    let mut ok = Vec::new();
    let mut bad = Vec::new();
    for c in &toks.comments {
        let Some(rest) = c.text.trim_start().strip_prefix("analyze::allow") else {
            continue;
        };
        let parsed = (|| {
            let rest = rest.strip_prefix('(')?;
            let (name, rest) = rest.split_once(')')?;
            let name = name.trim();
            if name.is_empty() || !name.bytes().all(|b| b.is_ascii_lowercase() || b == b'-') {
                return None;
            }
            let reason = rest.strip_prefix(':')?.trim();
            if reason.is_empty() {
                return None;
            }
            Some((name.to_string(), reason.to_string()))
        })();
        match parsed {
            Some((lint, reason)) => ok.push(Directive {
                line: c.line,
                col: c.col,
                lint,
                reason,
                snippet: snippet(c.line),
            }),
            None => bad.push(Finding {
                lint: "malformed-allow".to_string(),
                path: ctx.path.to_string(),
                line: c.line,
                col: 1,
                message: "unparsable `analyze::allow` directive".to_string(),
                snippet: snippet(c.line),
                help: "expected `// analyze::allow(<lint-name>): <reason>` with a \
                       kebab-case lint name and a non-empty justification"
                    .to_string(),
            }),
        }
    }
    (ok, bad)
}

/// Marks tokens inside `use ...;` statements (imports are not uses).
fn use_statement_mask(t: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; t.len()];
    let mut inside = false;
    for (i, tok) in t.iter().enumerate() {
        if tok.is_ident("use") {
            inside = true;
        }
        mask[i] = inside;
        if inside && tok.is_punct(';') {
            inside = false;
        }
    }
    mask
}

/// Decides whether the `HashMap`/`HashSet` ident at `i` picks the default
/// hasher. Returns a short reason string if so.
fn default_hasher_use(t: &[Token], i: usize, required_args: usize) -> Option<&'static str> {
    let mut j = i + 1;
    // Turbofish: `HashMap::<...>` — treat like a generic list.
    if j + 1 < t.len() && t[j].is_punct(':') && t[j + 1].is_punct(':') {
        if t.get(j + 2).is_some_and(|x| x.is_punct('<')) {
            j += 2;
        } else {
            // `HashMap::ctor(...)` — default hasher iff the ctor doesn't
            // take an explicit hasher.
            let m = t.get(j + 2)?.ident()?;
            return DEFAULT_HASHER_CTORS
                .contains(&m)
                .then_some("default-hasher constructor");
        }
    }
    if t.get(j).is_some_and(|x| x.is_punct('<')) {
        // Count depth-1 generic arguments; fewer than `required_args`
        // means the hasher parameter was elided.
        let mut depth = 1usize;
        let mut args = 1usize;
        let mut k = j + 1;
        while k < t.len() && depth > 0 {
            if t[k].is_punct('<') {
                depth += 1;
            } else if t[k].is_punct('>') && !t[k - 1].is_punct('-') {
                depth -= 1;
            } else if t[k].is_punct(',') && depth == 1 {
                args += 1;
            }
            k += 1;
        }
        return (args < required_args).then_some("hasher type parameter elided");
    }
    // Bare mention with neither generics nor a method: ignore (could be a
    // doc link or pattern we can't judge).
    None
}

/// If the default-hasher map at token `i` is being bound to a name
/// (`name: HashMap<...>` field/let annotation, or `name = HashMap::new()`),
/// returns that name for iteration-hazard tracking.
fn bound_name(t: &[Token], i: usize) -> Option<String> {
    if i >= 2 && t[i - 1].is_punct(':') && !t[i - 2].is_punct(':') {
        return t[i - 2].ident().map(str::to_string);
    }
    if i >= 2 && t[i - 1].is_punct('=') {
        return t[i - 2].ident().map(str::to_string);
    }
    None
}

/// Token ranges (exclusive of the braces) of every body of `fn name`.
fn function_bodies(t: &[Token], name: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..t.len() {
        if !(t[i].is_ident("fn") && t.get(i + 1).is_some_and(|x| x.is_ident(name))) {
            continue;
        }
        let Some(open) = (i + 2..t.len()).find(|&j| t[j].is_punct('{')) else {
            continue;
        };
        let mut depth = 1usize;
        let mut j = open + 1;
        while j < t.len() && depth > 0 {
            if t[j].is_punct('{') {
                depth += 1;
            } else if t[j].is_punct('}') {
                depth -= 1;
            }
            j += 1;
        }
        out.push((open + 1, j.saturating_sub(1)));
    }
    out
}

/// Whether the token stream contains `#![forbid(unsafe_code)]`.
fn has_forbid_unsafe(t: &[Token]) -> bool {
    t.windows(8).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident("forbid")
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(')')
            && w[7].is_punct(']')
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str) -> LintOutcome {
        let config = LintConfig::default();
        lint_source(
            &SourceContext {
                path,
                config: &config,
            },
            src,
        )
    }

    fn lints(path: &str, src: &str) -> Vec<String> {
        lint(path, src)
            .findings
            .iter()
            .map(|f| f.lint.clone())
            .collect()
    }

    #[test]
    fn default_hasher_map_fires_only_in_result_bearing_crates() {
        let src = "struct S { m: HashMap<u64, u32> }";
        assert_eq!(lints("crates/sim/src/x.rs", src), vec!["nondet-map"]);
        assert!(lints("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn three_arg_map_and_imports_are_clean() {
        let src = "use std::collections::HashMap;\n\
                   struct S { m: HashMap<u64, u32, BuildHasherDefault<LineHasher>> }";
        assert!(lints("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn ctor_and_iteration_are_flagged() {
        let src = "fn f() { let mut m = HashMap::new(); m.keys(); }";
        assert_eq!(
            lints("crates/sim/src/x.rs", src),
            vec!["nondet-map", "nondet-map-iter"]
        );
    }

    #[test]
    fn suppression_absorbs_and_is_recorded() {
        let src = "// analyze::allow(nondet-map): ephemeral scratch map\n\
                   fn f() { let m = HashMap::<u64, u32>::new(); }";
        let out = lint("crates/sim/src/x.rs", src);
        assert!(out.findings.is_empty());
        assert_eq!(out.suppressions.len(), 1);
        assert_eq!(out.suppressions[0].reason, "ephemeral scratch map");
    }

    #[test]
    fn malformed_directive_is_a_finding() {
        let src = "// analyze::allow(nondet-map)\nfn f() {}";
        assert_eq!(lints("crates/sim/src/x.rs", src), vec!["malformed-allow"]);
    }

    #[test]
    fn host_time_respects_the_allowlist() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(lints("crates/sim/src/os.rs", src), vec!["host-time"]);
        assert!(lints("crates/sim/src/runtime.rs", src).is_empty());
    }

    #[test]
    fn spawn_fires_outside_the_runtime() {
        let src = "fn f() { thread::spawn(|| {}); }";
        assert_eq!(lints("crates/sim/src/os.rs", src), vec!["thread-spawn"]);
        assert!(lints("crates/sim/src/multicore.rs", src).is_empty());
    }

    #[test]
    fn hot_path_unwrap_is_function_scoped() {
        let src = "fn worker_loop() { x.lock().unwrap(); }\n\
                   fn elsewhere() { y.lock().unwrap(); }";
        let out = lint("crates/sim/src/multicore.rs", src);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].lint, "hot-path-unwrap");
        assert_eq!(out.findings[0].line, 1);
    }

    #[test]
    fn forbid_unsafe_is_required_in_roots() {
        assert_eq!(
            lints("crates/x/src/lib.rs", "pub fn f() {}"),
            vec!["missing-forbid-unsafe"]
        );
        assert!(lints(
            "crates/x/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}"
        )
        .is_empty());
        assert!(lints("crates/x/src/other.rs", "pub fn f() {}").is_empty());
    }
}
