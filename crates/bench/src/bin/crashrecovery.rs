//! Crash-tolerance benchmark and end-to-end recovery smoke: measures
//! the checkpoint machinery (DESIGN.md §14) and proves the
//! kill→resume→verify loop on a real process.
//!
//! What runs:
//!
//! 1. **Overhead sweep** — the workload replays plain and checkpointed
//!    at each configured interval; the JSON records checkpoint count,
//!    size, amortized write latency, the restore latency of the last
//!    checkpoint, and the checkpointing overhead in percent.
//! 2. **In-process kill→resume→verify** — a core's replay is killed by
//!    the fault-injection hook mid-run; the retry-with-backoff driver
//!    falls back to the latest checkpoint and the recovered outcome must
//!    be bit-identical to the straight-through run.
//! 3. **Corruption campaign** — truncated and bit-flipped checkpoints
//!    must fail typed (`RunError::Checkpoint`), never panic.
//! 4. **Child-process `kill -9`** (`--smoke`) — the bin re-spawns
//!    itself (`--child`), the child streams checkpoints to disk
//!    (atomic rename), the parent SIGKILLs it mid-run, resumes from the
//!    newest on-disk checkpoint (falling back to older ones if the
//!    newest fails typed) and verifies bit-identity with the
//!    straight-through run.
//!
//! Usage:
//! `cargo run --release --bin crashrecovery [--smoke] [--cores N]
//!  [--ops N]`
//!
//! `--smoke` is the CI shape: a small workload, a short interval, and
//! the child-process kill. The JSON lands in
//! `target/experiment-results/BENCH_recovery.json`.

#![forbid(unsafe_code)]

use califorms_bench::{results_dir, write_json};
use califorms_oracle::diff::{run_fault_campaign, DiffConfig, FaultCampaign};
use califorms_sim::{
    Checkpoints, FaultPlan, MulticoreConfig, MulticoreEngine, MulticoreOutcome, RunError, Source,
    TraceOp, TracePack,
};
use serde::Serialize;
use std::num::NonZeroU64;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// A short quantum so even the smoke workload crosses thousands of
/// boundaries — interval sweeps need quanta, not cycles.
const QUANTUM: f64 = 1_000.0;

struct Args {
    smoke: bool,
    cores: usize,
    ops: usize,
    /// Child mode: stream checkpoints into this directory until killed.
    child: Option<PathBuf>,
    child_interval: NonZeroU64,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        cores: 4,
        ops: 2_000_000,
        child: None,
        child_interval: NonZeroU64::new(50).expect("50 is positive"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--cores" => args.cores = value("--cores").parse().expect("--cores N"),
            "--ops" => args.ops = value("--ops").parse().expect("--ops N"),
            "--child" => args.child = Some(PathBuf::from(value("--child"))),
            "--child-interval" => {
                args.child_interval = value("--child-interval").parse().expect("N ≥ 1")
            }
            other => panic!("unknown argument {other}"),
        }
    }
    if args.smoke {
        args.ops = 30_000;
    }
    args
}

/// The deterministic recovery workload: a mix of exec, private and
/// shared accesses and CFORMs over a few regions, sized by `ops`. Same
/// `ops` → same pack, in the parent and the re-spawned child.
fn make_pack(ops: usize) -> TracePack {
    let mut out = Vec::with_capacity(ops);
    let mut x: u64 = 0x5DEE_CE66_D1CE_CAFE;
    while out.len() < ops {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let addr = ((x >> 33) % 1024) * 8;
        match x % 11 {
            0..=3 => out.push(TraceOp::Exec((x >> 7) as u32 % 390 + 10)),
            4 | 5 => out.push(TraceOp::Load { addr, size: 8 }),
            6 | 7 => out.push(TraceOp::Store { addr, size: 8 }),
            8 => out.push(TraceOp::Load {
                addr: 0x40_000 + addr,
                size: 8,
            }),
            9 => out.push(TraceOp::Store {
                addr: 0x80_000 + addr,
                size: 8,
            }),
            _ => out.push(TraceOp::Cform {
                line_addr: 0x100_000 + (addr / 64) * 64,
                attrs: 1,
                mask: 1,
            }),
        }
    }
    TracePack::from_ops(out)
}

fn config(cores: usize) -> MulticoreConfig {
    MulticoreConfig::westmere(cores).with_quantum(QUANTUM)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` with the panic hook silenced: injected kills panic
/// by design (the engine catches them and returns typed errors), and
/// their backtraces would drown the real output.
fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

#[derive(Debug, Serialize)]
struct IntervalRow {
    interval_quanta: u64,
    quanta: u64,
    checkpoints: u64,
    checkpoint_bytes: u64,
    plain_ms: f64,
    checkpointed_ms: f64,
    /// Checkpointing overhead over the plain run, percent.
    overhead_pct: f64,
    /// Amortized capture+copy cost per checkpoint (overhead / count).
    write_latency_ms_avg: f64,
    /// `MulticoreEngine::resume` of the **last** checkpoint — restore plus the
    /// short remaining tail, an upper bound on restore cost.
    restore_latency_ms: f64,
}

#[derive(Debug, Serialize)]
struct KillResumeRow {
    kill_quantum: u64,
    retries_used: u32,
    bit_identical: bool,
}

#[derive(Debug, Serialize)]
struct CampaignRow {
    case: String,
    ok: bool,
    detail: String,
}

#[derive(Debug, Serialize)]
struct ChildKillRow {
    checkpoints_on_disk: u64,
    /// Checkpoints the resume skipped before one restored cleanly
    /// (non-zero when the kill raced a file write).
    fallbacks: u64,
    bit_identical: bool,
}

#[derive(Debug, Serialize)]
struct RecoveryReport {
    bench: &'static str,
    smoke: bool,
    cores: u64,
    ops: u64,
    quantum: f64,
    intervals: Vec<IntervalRow>,
    kill_resume: KillResumeRow,
    campaign: Vec<CampaignRow>,
    child_kill: Option<ChildKillRow>,
}

/// The retry-with-backoff recovery driver: runs the checkpointed
/// replay, and on a typed failure falls back to the latest checkpoint
/// with exponentially growing backoff. Every attempt keeps
/// checkpointing, so repeated failures still make forward progress.
fn run_with_recovery(
    pack: &TracePack,
    first_engine: impl FnOnce() -> MulticoreEngine,
    every: NonZeroU64,
    max_retries: u32,
) -> Result<(MulticoreOutcome, u32), RunError> {
    let mut latest: Option<Vec<u8>> = None;
    let mut backoff = Duration::from_millis(10);
    let mut attempt = 0u32;
    let mut first = Some(first_engine);
    loop {
        let mut seen: Option<Vec<u8>> = None;
        let mut sink = |b| seen = Some(b);
        let checkpoints = Some(Checkpoints {
            every,
            sink: &mut sink,
        });
        let result = match (&latest, first.take()) {
            (None, Some(make)) => make().replay(Source::Pack { pack, checkpoints }),
            (Some(bytes), _) => MulticoreEngine::resume(pack, bytes, checkpoints),
            (None, None) => {
                return Err(RunError::Checkpoint(
                    califorms_sim::CheckpointError::Truncated,
                ))
            }
        };
        if seen.is_some() {
            latest = seen;
        }
        match result {
            Ok((outcome, _)) => return Ok((outcome, attempt)),
            Err(err) if attempt < max_retries && latest.is_some() => {
                eprintln!(
                    "crashrecovery: attempt {attempt} failed ({err}); \
                     backing off {backoff:?}, resuming from the last checkpoint"
                );
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
                attempt += 1;
            }
            Err(err) => return Err(err),
        }
    }
}

/// Child mode: stream checkpoints to `dir` (write + atomic rename) with
/// a short pause after each, widening the window in which the parent's
/// SIGKILL lands mid-run.
fn child_run(dir: &Path, pack: &TracePack, cores: usize, every: NonZeroU64) {
    std::fs::create_dir_all(dir).expect("checkpoint dir");
    let mut n = 0u64;
    let mut sink = |bytes: Vec<u8>| {
        let tmp = dir.join(format!(".tmp-{n}"));
        std::fs::write(&tmp, &bytes).expect("writable checkpoint dir");
        std::fs::rename(&tmp, dir.join(format!("ckpt-{n:06}.bin"))).expect("rename");
        n += 1;
        std::thread::sleep(Duration::from_millis(25));
    };
    let checkpoints = Some(Checkpoints {
        every,
        sink: &mut sink,
    });
    let _ = MulticoreEngine::new(config(cores)).replay(Source::Pack { pack, checkpoints });
    // Completing before the kill lands is fine: the parent still
    // resumes from the last on-disk checkpoint and verifies.
}

/// Parent side of the child-process kill: spawn ourselves in `--child`
/// mode, SIGKILL the child once checkpoints exist, resume from the
/// newest on-disk checkpoint (typed failures fall back to older ones)
/// and verify bit-identity with `reference`.
fn child_kill_smoke(pack: &TracePack, reference: &MulticoreOutcome, args: &Args) -> ChildKillRow {
    let dir = results_dir().join("crashrecovery-ckpts");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("checkpoint dir");

    let exe = std::env::current_exe().expect("own executable path");
    let mut child = std::process::Command::new(exe)
        .arg("--child")
        .arg(&dir)
        .arg("--cores")
        .arg(args.cores.to_string())
        .arg("--ops")
        .arg(args.ops.to_string())
        .arg("--child-interval")
        .arg(args.child_interval.to_string())
        .spawn()
        .expect("spawn child");

    // Wait until the child has at least two checkpoints on disk, then
    // deliver the real SIGKILL (`kill -9`).
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if checkpoint_files(&dir).len() >= 2 {
            break;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("child produced no checkpoints within 60s");
        }
        if let Ok(Some(status)) = child.try_wait() {
            // Short workloads can finish before the kill; the resume
            // check below still runs against what's on disk.
            assert!(status.success(), "child failed on its own: {status}");
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = child.kill(); // SIGKILL — the unclean death we recover from
    let _ = child.wait();

    let files = checkpoint_files(&dir);
    let checkpoints_on_disk = files.len() as u64;
    let mut fallbacks = 0u64;
    for path in files.iter().rev() {
        let bytes = std::fs::read(path).expect("readable checkpoint");
        match MulticoreEngine::resume(pack, &bytes, None) {
            Ok((out, _)) => {
                return ChildKillRow {
                    checkpoints_on_disk,
                    fallbacks,
                    bit_identical: out.stats == reference.stats
                        && out.exceptions == reference.exceptions,
                };
            }
            Err(err) => {
                // Typed, never a panic — fall back to the previous one.
                eprintln!(
                    "crashrecovery: {} failed typed ({err}); falling back",
                    path.display()
                );
                fallbacks += 1;
            }
        }
    }
    panic!("no on-disk checkpoint restored cleanly");
}

fn checkpoint_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("ckpt-"))
                })
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

fn main() -> ExitCode {
    let args = parse_args();
    let pack = make_pack(args.ops);

    if let Some(dir) = &args.child {
        child_run(dir, &pack, args.cores, args.child_interval);
        return ExitCode::SUCCESS;
    }

    // Straight-through reference (also the plain-run timing baseline).
    let t0 = Instant::now();
    let (reference, _) = MulticoreEngine::new(config(args.cores))
        .replay(Source::Pack {
            pack: &pack,
            checkpoints: None,
        })
        .expect("reference run");
    let plain = t0.elapsed();
    let quanta = reference.stats.runtime.quanta;
    println!(
        "crashrecovery: workload {} ops, {} cores, {quanta} quanta, plain run {:.1} ms",
        args.ops,
        args.cores,
        ms(plain)
    );

    // 1. Overhead sweep.
    let intervals: &[u64] = if args.smoke { &[100] } else { &[1_000, 10_000] };
    let mut rows = Vec::new();
    for &interval in intervals {
        let t = Instant::now();
        let mut checkpoints = Vec::new();
        let mut sink = |b| checkpoints.push(b);
        let source = Source::Pack {
            pack: &pack,
            checkpoints: Some(Checkpoints {
                every: NonZeroU64::new(interval).expect("a positive interval"),
                sink: &mut sink,
            }),
        };
        let (out, _) = MulticoreEngine::new(config(args.cores))
            .replay(source)
            .expect("checkpointed run");
        let checkpointed = t.elapsed();
        assert_eq!(
            out.stats, reference.stats,
            "checkpoint capture must not perturb the run"
        );
        assert!(
            !checkpoints.is_empty(),
            "workload too short for interval {interval}"
        );
        let last = checkpoints.last().expect("non-empty");
        let t = Instant::now();
        let (resumed, _) = MulticoreEngine::resume(&pack, last, None).expect("resume");
        let restore = t.elapsed();
        assert_eq!(resumed.stats, reference.stats, "resume bit-identity");
        let overhead = checkpointed.saturating_sub(plain);
        rows.push(IntervalRow {
            interval_quanta: interval,
            quanta,
            checkpoints: checkpoints.len() as u64,
            checkpoint_bytes: last.len() as u64,
            plain_ms: ms(plain),
            checkpointed_ms: ms(checkpointed),
            overhead_pct: 100.0 * overhead.as_secs_f64() / plain.as_secs_f64().max(1e-9),
            write_latency_ms_avg: ms(overhead) / checkpoints.len() as f64,
            restore_latency_ms: ms(restore),
        });
        println!(
            "  interval {interval}: {} checkpoints of {} bytes, overhead {:.1}%, restore {:.2} ms",
            checkpoints.len(),
            last.len(),
            rows.last().expect("just pushed").overhead_pct,
            ms(restore)
        );
    }

    // 2. In-process kill → retry-with-backoff resume → verify. The
    // interval is tied to the kill point so at least one checkpoint
    // exists to fall back to when the core is killed.
    let kill_quantum = quanta / 2;
    let kr_interval = NonZeroU64::new(kill_quantum / 2).unwrap_or(NonZeroU64::MIN);
    let cores = args.cores;
    let (recovered, retries_used) = with_quiet_panics(|| {
        run_with_recovery(
            &pack,
            || {
                MulticoreEngine::new(config(cores).with_fault(FaultPlan {
                    kill_at: Some((cores - 1, kill_quantum)),
                }))
            },
            kr_interval,
            3,
        )
    })
    .expect("recovery driver");
    let kill_resume = KillResumeRow {
        kill_quantum,
        retries_used,
        bit_identical: recovered.stats == reference.stats
            && recovered.exceptions == reference.exceptions,
    };
    assert!(kill_resume.bit_identical, "recovered run diverged");
    assert!(retries_used >= 1, "the kill must actually have fired");
    println!("  kill at quantum {kill_quantum}: recovered in {retries_used} retry, bit-identical");

    // 3. Corruption campaign: truncations and bit flips must fail
    // typed. A small pack suffices — the campaign checks error paths,
    // not throughput — and keeps the interval-1 checkpointed runs
    // inside `run_fault_campaign` cheap.
    let campaign_pack = make_pack(args.ops.min(30_000));
    let cfg = DiffConfig::multicore(args.cores.max(2), 64);
    let mut campaign = Vec::new();
    for case in [
        FaultCampaign::KillWorker {
            core: 1,
            quantum: 0,
        },
        FaultCampaign::TruncateCheckpoint { keep: 0 },
        FaultCampaign::TruncateCheckpoint { keep: 64 },
        FaultCampaign::FlipCheckpointByte { at: 5 },
        FaultCampaign::FlipCheckpointByte { at: 997 },
    ] {
        let result = with_quiet_panics(|| run_fault_campaign(&campaign_pack, case, &cfg));
        let ok = result.is_ok();
        let detail = result.unwrap_or_else(|e| e);
        if !ok {
            eprintln!("  campaign FAILED: {case:?}: {detail}");
        }
        campaign.push(CampaignRow {
            case: format!("{case:?}"),
            ok,
            detail,
        });
    }
    let campaign_ok = campaign.iter().all(|c| c.ok);
    println!(
        "  campaign: {}/{} cases surfaced typed",
        campaign.iter().filter(|c| c.ok).count(),
        campaign.len()
    );

    // 4. Child-process kill -9 (smoke only — spawns a real process).
    let child_kill = args
        .smoke
        .then(|| child_kill_smoke(&pack, &reference, &args));
    if let Some(ck) = &child_kill {
        assert!(ck.bit_identical, "child-kill recovery diverged");
        println!(
            "  child kill -9: {} checkpoints on disk, {} fallbacks, bit-identical resume",
            ck.checkpoints_on_disk, ck.fallbacks
        );
    }

    let report = RecoveryReport {
        bench: "crashrecovery",
        smoke: args.smoke,
        cores: args.cores as u64,
        ops: args.ops as u64,
        quantum: QUANTUM,
        intervals: rows,
        kill_resume,
        campaign,
        child_kill,
    };
    let path = results_dir().join("BENCH_recovery.json");
    write_json(&path, &report).expect("write BENCH_recovery.json");
    println!("crashrecovery: wrote {}", path.display());

    if campaign_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
