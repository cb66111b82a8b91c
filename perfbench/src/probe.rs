//! Measurement helpers shared by every workload: the closed sampling
//! loop, order statistics, the calibrated per-call clock of the traced
//! runs, and the process's peak resident memory.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Fewest timed runs a workload makes, however short `--seconds` is.
pub const MIN_SAMPLES: usize = 3;

/// Host seconds of every timed run that passed its check, plus the
/// attempted/failed tally over all of them.
#[derive(Debug, Default)]
pub struct Samples {
    /// Wall seconds of the runs whose outcome matched the reference.
    pub wall_s: Vec<f64>,
    /// Timed runs started.
    pub attempted: u64,
    /// Runs that returned `Err`, panicked, or mismatched the reference.
    pub failed: u64,
}

impl Samples {
    /// Records one run's result; a failure is reported on stderr and
    /// counted, never dropped.
    pub fn record(&mut self, wall_s: f64, result: Result<(), String>) {
        self.attempted += 1;
        match result {
            Ok(()) => self.wall_s.push(wall_s),
            Err(why) => {
                self.failed += 1;
                eprintln!("run {} failed: {why}", self.attempted);
            }
        }
    }

    /// Share of attempted runs that failed.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }
}

/// Runs `run` back to back — one replay at a time, a closed loop — until
/// `seconds` have passed and at least [`MIN_SAMPLES`] runs were made.
/// `run` returns its own wall time and whether its outcome matched the
/// reference; a panic inside it counts as a failed run.
pub fn closed_loop(seconds: f64, mut run: impl FnMut() -> (f64, Result<(), String>)) -> Samples {
    let mut samples = Samples::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || (samples.attempted as usize) < MIN_SAMPLES {
        let t = Instant::now();
        match catch_unwind(AssertUnwindSafe(&mut run)) {
            Ok((wall, result)) => samples.record(wall, result),
            Err(panic) => samples.record(
                t.elapsed().as_secs_f64(),
                Err(format!("panicked: {}", panic_message(&*panic))),
            ),
        }
    }
    samples
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Times `f`, returning its value and its wall seconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

/// `q`-quantile of `values` by linear interpolation between order
/// statistics (0.5 = median). Zero for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean host nanoseconds of an empty `Instant` pair, measured the way the
/// traced runs time one call: the bias every per-call timing carries,
/// subtracted from it before it is reported.
pub fn timer_cost_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let mut rounds = Vec::new();
    for _ in 0..5 {
        let mut total = 0u128;
        for _ in 0..PAIRS {
            let t = Instant::now();
            std::hint::black_box(());
            total += t.elapsed().as_nanos();
        }
        rounds.push(total as f64 / f64::from(PAIRS));
    }
    median(&rounds)
}

/// Deterministic 1-in-`2^k` sampler (xorshift64): which calls a traced
/// run times individually, decorrelated from any period in the trace.
#[derive(Debug, Clone)]
pub struct Sampler {
    state: u64,
    mask: u64,
}

impl Sampler {
    /// Samples one call in `2^log2_period`.
    pub fn new(log2_period: u32) -> Self {
        Self {
            state: 0x9E37_79B9_7F4A_7C15,
            mask: (1u64 << log2_period) - 1,
        }
    }

    /// Whether to time the next call.
    #[inline]
    pub fn hit(&mut self) -> bool {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x & self.mask == 0
    }
}

/// Resets the kernel's peak-RSS mark (VmHWM) of this process, so the
/// next [`peak_rss_mb`] covers only what ran after this call. Free heap
/// memory is handed back to the kernel first: otherwise the mark would
/// start at whatever set-up's freed buffers left resident, which varies
/// with allocation history rather than with what the replay needs.
/// Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    release_free_heap();
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[allow(unsafe_code)]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` has no preconditions. It only returns free
    // pages of glibc's heap to the kernel, and glibc's malloc is the
    // allocator behind Rust's `System` default on this target, so no
    // live allocation is touched.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// Peak resident memory (VmHWM) of this process in MiB, or `None` where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// FNV-1a digest of a value's `Debug` rendering: a short fingerprint of
/// a simulated outcome, comparable across commits at the same seed.
pub fn digest(value: &impl std::fmt::Debug) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn sampler_rate_is_close_to_nominal() {
        let mut s = Sampler::new(4);
        let hits = (0..160_000).filter(|_| s.hit()).count();
        assert!((9_000..11_000).contains(&hits), "{hits}");
    }

    #[test]
    fn a_panicking_run_counts_as_failed() {
        let mut n = 0;
        let s = closed_loop(0.0, || {
            n += 1;
            if n == 2 {
                panic!("boom");
            }
            (0.1, Ok(()))
        });
        assert_eq!(s.attempted, MIN_SAMPLES as u64);
        assert_eq!(s.failed, 1);
        assert_eq!(s.wall_s.len(), MIN_SAMPLES - 1);
    }
}
