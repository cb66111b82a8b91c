//! The multicore workloads: 2 simulated cores on the bound/weave runtime,
//! replayed from trace packs, every run checked bit for bit against a
//! reference replay of the unpacked shards.
//!
//! * `mc_shared_2c` — one shared `perlbench` pack (intelligent 1–7B +
//!   `CFORM`) sharded round-robin by `MulticoreEngine::run_pack`:
//!   weave-bound and coherence-heavy; each lane decodes the whole pack.
//! * `mc_lock_2c` — `MtPattern::LockContention` (califormed), one pack
//!   per core through `MulticoreEngine::run_packs`: about half its wall
//!   time in the parallel bound phase, few weave transactions.

use crate::metrics::{self, ratio, Report};
use crate::probe::{self, closed_loop, median, time};
use crate::{Args, Scale};
use califorms_layout::InsertionPolicy;
use califorms_sim::{
    shard_ops, MulticoreConfig, MulticoreEngine, MulticoreOutcome, RunError, RuntimeTiming,
    TraceOp, TracePack,
};
use califorms_workloads::{
    generate, generate_mt, spec, MtPattern, MtWorkloadConfig, WorkloadConfig,
};

/// Which multicore workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `mc_shared_2c`.
    Shared,
    /// `mc_lock_2c`.
    Lock,
}

const CORES: usize = 2;

/// Set-up repetitions; `setup_s` is taken over them.
const SETUP_REPS: usize = 7;

/// Generates the workload's shards and encodes its packs, timing each.
/// Returns (unpacked per-core shards, packs, generate s, encode s).
fn prepare(shape: Shape, seed: u64, scale: Scale) -> (Vec<Vec<TraceOp>>, Vec<TracePack>, f64, f64) {
    match shape {
        Shape::Shared => {
            let steady_ops = match scale {
                Scale::Full => 1_600_000,
                Scale::Tiny => 20_000,
            };
            let profile = spec::by_name("perlbench").expect("perlbench profile exists");
            let cfg =
                WorkloadConfig::with_policy(InsertionPolicy::intelligent_1_to(7), steady_ops, seed);
            let (w, gen_s) = time(|| generate(&profile, &cfg));
            let (pack, enc_s) = time(|| TracePack::from_ops(w.ops.iter().copied()));
            (shard_ops(w.ops, CORES), vec![pack], gen_s, enc_s)
        }
        Shape::Lock => {
            let ops_per_core = match scale {
                Scale::Full => 2_000_000,
                Scale::Tiny => 50_000,
            };
            let cfg = MtWorkloadConfig {
                pattern: MtPattern::LockContention,
                cores: CORES,
                ops_per_core,
                seed,
                califormed: true,
            };
            let (w, gen_s) = time(|| generate_mt(&cfg));
            let (packs, enc_s) = time(|| w.to_packs());
            (w.shards, packs, gen_s, enc_s)
        }
    }
}

/// One replay of the packs, as the workload's entry point runs it.
fn replay(
    shape: Shape,
    cfg: MulticoreConfig,
    packs: &[TracePack],
) -> Result<MulticoreOutcome, RunError> {
    let engine = MulticoreEngine::new(cfg);
    match shape {
        Shape::Shared => engine.try_run_pack(&packs[0]),
        Shape::Lock => engine.try_run_packs(packs),
    }
}

/// Bit-identity with the reference: every simulated statistic and every
/// delivered exception (host timing and telemetry excluded).
fn check(
    out: Result<MulticoreOutcome, RunError>,
    reference: &MulticoreOutcome,
) -> Result<MulticoreOutcome, String> {
    let out = out.map_err(|e| format!("replay returned Err: {e}"))?;
    if out.stats == reference.stats && out.exceptions == reference.exceptions {
        Ok(out)
    } else {
        Err("outcome differs from the reference replay".to_string())
    }
}

/// Runs the workload and prints its tables.
pub fn run(args: &Args, shape: Shape) -> Report {
    let name = match shape {
        Shape::Shared => "mc_shared_2c",
        Shape::Lock => "mc_lock_2c",
    };
    let cfg = MulticoreConfig::westmere(CORES);

    // Set-up: generate + encode, repeated; every repetition must encode
    // the same bytes.
    let mut gen_s = Vec::new();
    let mut enc_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut shards = Vec::new();
    let mut packs: Vec<TracePack> = Vec::new();
    let mut checks_ok = true;
    for _ in 0..SETUP_REPS {
        let (s, p, g, e) = prepare(shape, args.seed, args.scale);
        if !packs.is_empty()
            && packs
                .iter()
                .map(TracePack::bytes)
                .ne(p.iter().map(TracePack::bytes))
        {
            eprintln!("set-up is not deterministic: packs differ between repetitions");
            checks_ok = false;
        }
        (shards, packs) = (s, p);
        gen_s.push(g);
        enc_s.push(e);
        setup_s.push(g + e);
    }
    let ops: u64 = packs.iter().map(TracePack::len_ops).sum();
    let bytes: usize = packs.iter().map(|p| p.bytes().len()).sum();
    println!(
        "workload {name}, seed {}: {ops} trace ops in {} pack(s), {CORES} simulated cores, \
         quantum {} cycles",
        args.seed,
        packs.len(),
        cfg.quantum
    );

    // The reference: the unpacked shards through the `Vec` entry point.
    // The traced run replays them again, so it keeps a copy.
    let unpacked = args.trace.then(|| shards.clone());
    let reference = MulticoreEngine::new(cfg)
        .try_run(shards)
        .unwrap_or_else(|e| panic!("reference replay failed: {e}"));
    println!(
        "reference outcome digest {:016x} (unpacked shards through MulticoreEngine::run)",
        probe::digest(&(&reference.stats, &reference.exceptions))
    );
    let reset = probe::reset_peak_rss();

    let mut report = if let Some(unpacked) = unpacked {
        traced(args, shape, cfg, &packs, &unpacked, &reference)
    } else {
        let samples = closed_loop(args.seconds, || {
            let (out, wall) = time(|| replay(shape, cfg, &packs));
            (wall, check(out, &reference).map(drop))
        });
        let rss = probe::peak_rss_mb().filter(|_| reset);
        let mut report = Report::new(&samples);
        metrics::end_to_end(&mut report, &samples, ops, &setup_s, rss);
        report
    };
    report.checks_ok &= checks_ok;
    report.set("workloads.generate_s", median(&gen_s));
    report.set("workloads.ops_generated", ops as f64);
    report.set("tracepack.encode_s", median(&enc_s));
    report.set("tracepack.bytes_per_op", ratio(bytes as f64, ops as f64));
    let c = &reference.stats.combined;
    metrics::hierarchy(&mut report, c, ops);
    metrics::coherence(&mut report, &c.coherence, ops);
    metrics::runtime_counts(&mut report, &reference.stats.runtime);
    report
}

/// The traced run: a telemetry-enabled pack replay, a plain pack replay
/// and a plain replay of the unpacked shards take turns, every one
/// checked. The layer table splits the telemetry runs' wall time into the
/// runtime's bound, weave and barrier phases. Pack decode is what a pack
/// replay costs over replaying the same shards unpacked.
fn traced(
    args: &Args,
    shape: Shape,
    cfg: MulticoreConfig,
    packs: &[TracePack],
    unpacked: &[Vec<TraceOp>],
    reference: &MulticoreOutcome,
) -> Report {
    let mut traced_runs: Vec<(f64, RuntimeTiming)> = Vec::new();
    let mut pack_wall = Vec::new();
    let mut unpacked_wall = Vec::new();
    let mut decoded = 0u64;
    let mut turn = 0u64;
    let samples = closed_loop(args.seconds, || {
        turn += 1;
        match turn % 3 {
            1 => {
                let (out, wall) = time(|| replay(shape, cfg.with_telemetry(), packs));
                let ok = check(out, reference).map(|out| {
                    decoded = out
                        .telemetry
                        .as_ref()
                        .and_then(|t| t.counters.total("decode.ops"))
                        .unwrap_or(0);
                    traced_runs.push((wall, out.timing));
                });
                (wall, ok)
            }
            2 => {
                let (out, wall) = time(|| replay(shape, cfg, packs));
                (wall, check(out, reference).map(|_| pack_wall.push(wall)))
            }
            _ => {
                let shards = unpacked.to_vec();
                let (out, wall) = time(|| MulticoreEngine::new(cfg).try_run(shards));
                (
                    wall,
                    check(out, reference).map(|_| unpacked_wall.push(wall)),
                )
            }
        }
    });
    let mut report = Report::new(&samples);

    // Turn by turn, what the pack replay took over the unpacked one.
    let decode: Vec<f64> = pack_wall
        .iter()
        .zip(&unpacked_wall)
        .map(|(p, u)| p - u)
        .collect();
    let decode_s = median(&decode);
    let kept: u64 = packs.iter().map(TracePack::len_ops).sum();

    let n = traced_runs.len() as f64;
    let mean =
        |f: &dyn Fn(&(f64, RuntimeTiming)) -> f64| traced_runs.iter().map(f).sum::<f64>() / n;
    let wall = mean(&|r| r.0);
    let bound = mean(&|r| r.1.bound_s);
    let weave = mean(&|r| r.1.weave_s);
    let barrier = mean(&|r| r.1.barrier_s);
    let per_core_weave: Vec<f64> = (0..CORES)
        .map(|c| {
            mean(&|r| {
                r.1.weave_breakdown
                    .per_core_s
                    .get(c)
                    .copied()
                    .unwrap_or(0.0)
            })
        })
        .collect();
    println!(
        "{} telemetry-enabled pack replays, {} plain pack replays, {} unpacked replays",
        traced_runs.len(),
        pack_wall.len(),
        unpacked_wall.len()
    );
    let nested = vec![
        (
            "bound: pack decode",
            format!(
                "{decode_s:.4} s (pack minus unpacked replay wall, median of {} turns); \
                 lanes decoded {decoded} ops to keep {kept}",
                decode.len()
            ),
        ),
        (
            "weave: per core",
            per_core_weave
                .iter()
                .enumerate()
                .map(|(c, s)| format!("core {c} {s:.4} s"))
                .collect::<Vec<_>>()
                .join(", "),
        ),
    ];
    metrics::layer_table(
        &mut report,
        &[
            ("runtime.bound (parallel phase)", bound),
            ("runtime.weave (serial phase)", weave),
            ("runtime.barrier", barrier),
        ],
        &nested,
        wall,
        pack_wall.iter().sum::<f64>() / pack_wall.len() as f64,
    );
    report.set("tracepack.decode_s", decode_s);
    report.set("tracepack.useful_frac", ratio(kept as f64, decoded as f64));
    report.set("runtime.bound_s", bound);
    report.set("runtime.weave_s", weave);
    report.set("runtime.barrier_s", barrier);
    report.set("runtime.bound_frac", ratio(bound, wall));
    report
}
