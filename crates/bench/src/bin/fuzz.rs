//! The differential trace fuzzer: generate seeded scenario packs and
//! replay each through the optimized simulator stacks **and** the
//! cache-free reference oracle (`califorms-oracle`), failing on any
//! divergence in exceptions, final memory/blacklist state, or counters.
//!
//! Case families:
//!
//! * single-core cases diff [`califorms_sim::Engine`] (a third carry
//!   mid-run DMA reads / page swap cycles);
//! * multi-core cases diff [`califorms_sim::MulticoreEngine`] at the
//!   configured core count under weave batches **1 and 64** (the strict
//!   one-transaction-per-turn weave and the batched default);
//! * every fourth case (deterministically, by seed) also replays in
//!   checkpoint+resume mode: checkpointed every 2 boundaries, resumed
//!   from each checkpoint, every resumed run required bit-identical to
//!   the straight-through one (the crash-tolerance arm).
//!
//! On divergence the offending pack is shrunk to a minimal
//! counterexample, written to `target/fuzz-failures/`, and the process
//! exits non-zero (CI uploads the pack as an artifact). Every case is a
//! pure function of `(seed, case index)`: the printed repro line is all
//! that's needed to regenerate it.
//!
//! Usage:
//! `cargo run --release --bin fuzz -- [--seed N] [--cases N] [--ops N]
//!  [--cores N] [--smoke] [--replay FILE] [--write-corpus DIR]
//!  [--inject-l1-mask-fault]`
//!
//! * `--smoke` — the CI gate: fixed seed, 512 single-core + 512
//!   multi-core cases (4-core, weave batches 1 and 64) — ≥1k generated
//!   packs, zero divergences expected.
//! * `--replay FILE` — replay one corpus pack (core count parsed from
//!   its `…-c<cores>.cftp` name) and report agreement.
//! * `--write-corpus DIR` — emit the first `--cases` generated packs as
//!   corpus files instead of diffing them.
//! * `--inject-l1-mask-fault` — deliberately corrupt a scratch copy of
//!   the L1 security-byte mask when diffing single-core state (must
//!   make the fuzzer fail; demonstrates the harness has teeth).

#![forbid(unsafe_code)]

use califorms_oracle::corpus::{pack_file_name, replay_pack_file, write_pack};
use califorms_oracle::diff::{diff_pack, DiffConfig, Divergence, FaultInjection};
use califorms_oracle::fuzz::{case_seed, generate_case, FuzzCase};
use califorms_oracle::shrink::{shrink_ops, DEFAULT_CHECK_BUDGET};
use califorms_sim::TracePack;
use std::num::NonZeroU64;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const DEFAULT_SEED: u64 = 0xC411_F02A;

struct Args {
    seed: u64,
    cases: usize,
    ops: usize,
    cores: usize,
    smoke: bool,
    replay: Option<PathBuf>,
    write_corpus: Option<PathBuf>,
    inject_fault: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: DEFAULT_SEED,
        cases: 100,
        ops: 256,
        cores: 4,
        smoke: false,
        replay: None,
        write_corpus: None,
        inject_fault: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match a.as_str() {
            "--seed" => args.seed = parse_u64(&value("--seed")),
            "--cases" => args.cases = value("--cases").parse().expect("--cases N"),
            "--ops" => args.ops = value("--ops").parse().expect("--ops N"),
            "--cores" => args.cores = value("--cores").parse().expect("--cores N"),
            "--smoke" => args.smoke = true,
            "--replay" => args.replay = Some(PathBuf::from(value("--replay"))),
            "--write-corpus" => args.write_corpus = Some(PathBuf::from(value("--write-corpus"))),
            "--inject-l1-mask-fault" => args.inject_fault = true,
            other => panic!("unknown argument {other}"),
        }
    }
    if args.smoke {
        args.seed = DEFAULT_SEED;
        args.cases = 512;
        args.ops = 256;
        args.cores = 4;
    }
    args
}

fn parse_u64(s: &str) -> u64 {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).expect("--seed takes a u64")
    } else {
        s.parse().expect("--seed takes a u64")
    }
}

/// Diff configurations one case is checked under. Every fourth case
/// (deterministically, by seed) additionally replays in
/// checkpoint+resume mode (`resume_at`): the run is checkpointed every
/// 2 boundaries, resumed from every checkpoint, and each resumed run
/// must be bit-identical to the straight-through one — the fuzzer's
/// crash-tolerance arm.
fn configs_for(case: &FuzzCase, inject: bool) -> Vec<DiffConfig> {
    let resume_at = NonZeroU64::new(2).filter(|_| case.seed.is_multiple_of(4));
    if case.cores == 1 {
        vec![DiffConfig {
            fault: inject.then_some(FaultInjection::L1MaskOffByOne),
            resume_at,
            ..DiffConfig::single()
        }]
    } else {
        vec![
            DiffConfig::multicore(case.cores, 1),
            DiffConfig {
                resume_at,
                ..DiffConfig::multicore(case.cores, 64)
            },
        ]
    }
}

/// Shrinks a diverging case and writes the counterexample pack (if the
/// divergence reproduces from the pack alone).
fn report_divergence(case: &FuzzCase, cfg: &DiffConfig, d: &Divergence, index: u64) {
    eprintln!(
        "DIVERGENCE in case {index} ({}, seed {:#x}, cores {}, weave batch {}):\n  {d}",
        case.label, case.seed, cfg.cores, cfg.weave_batch
    );
    eprintln!(
        "  repro: fuzz --seed {:#x} --cases 1 --ops {} --cores {}",
        case.seed,
        case.pack.len_ops(),
        case.cores
    );
    // Shrink against the pack alone (corpus entries carry no events). A
    // candidate reduction can make the stream *invalid* (e.g. dropping
    // a MaskPush but keeping its MaskPop, which both engine and oracle
    // fault on) — a panicking candidate is simply not a reduction, so
    // replays run under catch_unwind with the panic hook silenced.
    let cfg = *cfg;
    let check = |ops: &[califorms_sim::TraceOp]| {
        let pack = TracePack::from_ops(ops.iter().copied());
        std::panic::catch_unwind(|| diff_pack(&pack, &[], &cfg).is_some()).unwrap_or(false)
    };
    let base_ops = case.pack.to_vec();
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let reproduces_without_events = check(&base_ops);
    let shrunk = if reproduces_without_events {
        Some(shrink_ops(
            &base_ops,
            cfg.cores,
            check,
            DEFAULT_CHECK_BUDGET,
        ))
    } else {
        None
    };
    std::panic::set_hook(prev_hook);
    let Some(shrunk) = shrunk else {
        // Writing the event-less pack would produce a "counterexample"
        // that replays clean — worse than none. The seed repro line
        // above regenerates the full case, events included.
        eprintln!(
            "  divergence requires the case's mid-run DMA/swap events \
             ({:?}); no standalone counterexample pack — use the seed \
             repro line above",
            case.events
        );
        return;
    };
    let pack = TracePack::from_ops(shrunk.iter().copied());
    let dir = Path::new("target").join("fuzz-failures");
    let path = dir.join(pack_file_name(
        &format!("counterexample-s{:x}-i{index}", case.seed),
        cfg.cores,
    ));
    match write_pack(&path, &pack) {
        Ok(()) => eprintln!(
            "  shrunk to {} ops, written to {}",
            pack.len_ops(),
            path.display()
        ),
        Err(e) => eprintln!("  failed to write counterexample: {e}"),
    }
}

fn main() -> ExitCode {
    let args = parse_args();

    if let Some(path) = &args.replay {
        let results = replay_pack_file(path).expect("readable corpus pack");
        let mut ok = true;
        for (cfg, d) in results {
            match d {
                None => println!("{}: {cfg}: agrees with oracle", path.display()),
                Some(d) => {
                    ok = false;
                    println!("{}: {cfg}: DIVERGES: {d}", path.display());
                }
            }
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    if let Some(dir) = &args.write_corpus {
        // Alternate single-core and multi-core cases so the corpus
        // exercises both replay stacks.
        for i in 0..args.cases as u64 {
            let cores = if i % 2 == 0 { 1 } else { args.cores };
            let case = generate_case(case_seed(args.seed, i), args.ops, cores);
            let path = dir.join(pack_file_name(
                &format!("fuzz-{}-s{:x}", case.label, case.seed),
                cores,
            ));
            write_pack(&path, &case.pack).expect("writable corpus dir");
            println!("wrote {} ({} ops)", path.display(), case.pack.len_ops());
        }
        return ExitCode::SUCCESS;
    }

    // The campaign: one single-core family and one multi-core family of
    // `--cases` cases each, every multi-core case diffed at weave
    // batches 1 and 64.
    let t0 = std::time::Instant::now();
    let mut packs = 0u64;
    let mut diffs = 0u64;
    let mut failures = 0u32;
    for family_cores in [1usize, args.cores.max(2)] {
        let family_seed = if family_cores == 1 {
            args.seed
        } else {
            args.seed ^ 0x4444
        };
        for i in 0..args.cases as u64 {
            let case = generate_case(case_seed(family_seed, i), args.ops, family_cores);
            packs += 1;
            for cfg in configs_for(&case, args.inject_fault) {
                diffs += 1;
                let events = if cfg.fault.is_some() {
                    &[]
                } else {
                    &case.events[..]
                };
                if let Some(d) = diff_pack(&case.pack, events, &cfg) {
                    report_divergence(&case, &cfg, &d, i);
                    failures += 1;
                    if failures >= 3 {
                        eprintln!("stopping after {failures} divergences");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }
    println!(
        "fuzz: {packs} packs / {diffs} differential runs in {:.2}s \
         (seed {:#x}, {} ops/case, multicore at {} cores, weave batches 1+64): {}",
        t0.elapsed().as_secs_f64(),
        args.seed,
        args.ops,
        args.cores.max(2),
        if failures == 0 {
            "zero divergences".to_string()
        } else {
            format!("{failures} DIVERGENCES")
        }
    );
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
