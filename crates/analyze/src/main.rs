//! `califorms-analyze` — CI entry point for the workspace determinism
//! linter and the concurrency model checker.
//!
//! ```text
//! califorms-analyze --check [--root DIR] [--json PATH]   # lint pass
//! califorms-analyze --fix [--root DIR]                   # auto-fixes
//! califorms-analyze --sched [--workers N] [--quanta N] [--bound N]
//!                    [--drain-schedules N]
//! ```
//!
//! `--check` exits non-zero iff any lint finding survives suppression;
//! `--json` additionally writes the machine-readable report for the CI
//! artifact. `--fix` applies the mechanical fixes (currently: inserting
//! `#![forbid(unsafe_code)]` where `missing-forbid-unsafe` fires) and
//! reports the rewritten files. `--sched` runs the exhaustive
//! protocol-model pass — the correct models must explore cleanly and
//! every broken variant must be caught — plus a seeded-random
//! large-schedule sweep; `--drain-schedules N` additionally asserts the
//! exact schedule count of the exhaustive checkpoint-drain run (a drift
//! detector for the model and the explorer both).

#![forbid(unsafe_code)]

use califorms_analyze::config::LintConfig;
use califorms_analyze::fix::apply_fixes;
use califorms_analyze::sched::{
    check_barrier, check_drain, check_worker_slots, models, BarrierVariant, DrainVariant,
    SlotVariant,
};
use califorms_analyze::workspace::scan_workspace;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    check: bool,
    fix: bool,
    sched: bool,
    root: PathBuf,
    json: Option<PathBuf>,
    workers: usize,
    quanta: usize,
    bound: usize,
    drain_schedules: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        check: false,
        fix: false,
        sched: false,
        root: PathBuf::from("."),
        json: None,
        workers: 2,
        quanta: 2,
        bound: 2,
        drain_schedules: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--check" => args.check = true,
            "--fix" => args.fix = true,
            "--sched" => args.sched = true,
            "--root" => args.root = PathBuf::from(value("--root")?),
            "--json" => args.json = Some(PathBuf::from(value("--json")?)),
            "--workers" => {
                args.workers = value("--workers")?.parse().map_err(|e| format!("{e}"))?
            }
            "--quanta" => args.quanta = value("--quanta")?.parse().map_err(|e| format!("{e}"))?,
            "--bound" => args.bound = value("--bound")?.parse().map_err(|e| format!("{e}"))?,
            "--drain-schedules" => {
                args.drain_schedules = Some(
                    value("--drain-schedules")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !args.check && !args.sched && !args.fix {
        return Err("pass --check, --fix and/or --sched".to_string());
    }
    Ok(args)
}

fn run_fix(args: &Args) -> Result<(), String> {
    let report = scan_workspace(&args.root, &LintConfig::default())
        .map_err(|e| format!("scan failed under {}: {e}", args.root.display()))?;
    let fixed = apply_fixes(&args.root, &report).map_err(|e| format!("applying fixes: {e}"))?;
    if fixed.is_empty() {
        println!("fix: nothing to do");
    } else {
        for path in &fixed {
            println!("fixed {path}");
        }
    }
    Ok(())
}

fn run_check(args: &Args) -> Result<bool, String> {
    let report = scan_workspace(&args.root, &LintConfig::default())
        .map_err(|e| format!("scan failed under {}: {e}", args.root.display()))?;
    print!("{}", report.render_human());
    if let Some(path) = &args.json {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        }
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("json report: {}", path.display());
    }
    Ok(report.clean)
}

fn run_sched(args: &Args) -> bool {
    let (w, q, b) = (args.workers, args.quanta, args.bound);
    let max = 200_000;
    let mut ok = true;
    let mut verdict = |name: &str, pass: bool, detail: String| {
        println!("{} {name}: {detail}", if pass { "ok  " } else { "FAIL" });
        ok &= pass;
    };

    let r = check_barrier(w, q, BarrierVariant::Correct, b, max);
    verdict(
        "barrier/correct",
        r.failure.is_none() && r.complete,
        format!("{} schedules, complete={}", r.schedules_run, r.complete),
    );
    let r = check_barrier(w, 1, BarrierVariant::NotifyOneRelease, b, max);
    verdict(
        "barrier/notify-one (must fail)",
        r.failure.is_some(),
        r.failure
            .as_ref()
            .map_or("no failure found".to_string(), |f| {
                format!("caught {} after {} schedules", f.kind, r.schedules_run)
            }),
    );
    let r = check_barrier(w, 1, BarrierVariant::UnlockedWaitGap, b.max(1), max);
    verdict(
        "barrier/unlocked-gap (must fail)",
        r.failure.is_some(),
        r.failure
            .as_ref()
            .map_or("no failure found".to_string(), |f| {
                format!("caught {} after {} schedules", f.kind, r.schedules_run)
            }),
    );
    let r = check_worker_slots(w, q, SlotVariant::Correct, b, max);
    verdict(
        "slots/correct",
        r.failure.is_none() && r.complete,
        format!("{} schedules, complete={}", r.schedules_run, r.complete),
    );
    let r = check_worker_slots(w, 1, SlotVariant::DoneBeforeReturn, b.max(1), max);
    verdict(
        "slots/done-before-return (must fail)",
        r.failure.is_some(),
        r.failure
            .as_ref()
            .map_or("no failure found".to_string(), |f| {
                format!("caught {} after {} schedules", f.kind, r.schedules_run)
            }),
    );
    let r = check_drain(w, q, 1, DrainVariant::Correct, b, max);
    let drain_count_ok = args
        .drain_schedules
        .is_none_or(|expect| r.schedules_run == expect);
    verdict(
        "drain/correct",
        r.failure.is_none() && r.complete && drain_count_ok,
        format!(
            "{} schedules, complete={}{}",
            r.schedules_run,
            r.complete,
            args.drain_schedules
                .map_or(String::new(), |e| { format!(" (expected exactly {e})") })
        ),
    );
    let r = check_drain(w, 1, 1, DrainVariant::SnapshotBeforeDrain, b, max);
    verdict(
        "drain/snapshot-before-drain (must fail)",
        r.failure.is_some(),
        r.failure
            .as_ref()
            .map_or("no failure found".to_string(), |f| {
                format!("caught {} after {} schedules", f.kind, r.schedules_run)
            }),
    );
    let r = models::random_sweep(w, q, 0xCA11_F012, 200);
    verdict(
        "random-sweep/correct",
        r.failure.is_none(),
        format!("{} random schedules clean", r.schedules_run),
    );
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("califorms-analyze: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    if args.fix {
        if let Err(e) = run_fix(&args) {
            eprintln!("califorms-analyze: {e}");
            return ExitCode::from(2);
        }
    }
    if args.check {
        match run_check(&args) {
            Ok(clean) => ok &= clean,
            Err(e) => {
                eprintln!("califorms-analyze: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if args.sched {
        ok &= run_sched(&args);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
