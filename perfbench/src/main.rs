//! Host benchmark of the Califorms reproduction: one closed-loop process
//! per workload, every timed run checked against a reference outcome.
//!
//! ```text
//! califorms-perfbench --workload <paper_regen|mc_shared_2c|mc_lock_2c>
//!                     --seed <n> --seconds <s> --trace <0|1> [--scale tiny]
//! ```
//!
//! With `--trace 0` the last stdout line is a JSON object carrying the
//! end-to-end metrics (medians over the timed runs, tracing off); with
//! `--trace 1` it carries the per-layer metrics of a separate traced run.
//! Every line before it is a human-readable table. See `README.md` for
//! the workloads, the metrics and which layer is predicted to move which
//! end-to-end number.

#![deny(unsafe_code)]

mod metrics;
mod paper;
mod probe;
mod replay;

use metrics::Report;

/// The seed whose `paper_regen` cells use the experiment functions' own seeds
/// (`califorms_bench::SEEDS`) and whose multicore traces use the `replay`
/// bin's generator seed.
pub const DEFAULT_SEED: u64 = 7;

/// Input size: `Full` is what the benchmark measures, `Tiny` is the
/// self-test's few-second version of the same workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// The self-test size.
    Tiny,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds the timed closed loop runs for.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

const USAGE: &str = "usage: califorms-perfbench --workload <paper_regen|mc_shared_2c|mc_lock_2c> \
                     --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.to_string(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad("expected a non-negative number"));
                }
            }
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--scale" => {
                args.scale = match value {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad("expected full or tiny")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "host: {} CPUs available, build {}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    );
    let report: Report = match args.workload.as_str() {
        "paper_regen" => paper::run(&args),
        "mc_shared_2c" => replay::run(&args, replay::Shape::Shared),
        "mc_lock_2c" => replay::run(&args, replay::Shape::Lock),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!("{}", report.json(args.trace));
}
