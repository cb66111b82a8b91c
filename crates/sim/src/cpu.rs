//! Core timing model.
//!
//! A deliberately simple out-of-order abstraction: the core retires up to
//! `width` instructions per cycle, and a fraction `overlap` of every
//! beyond-L1 memory latency is hidden by the instruction window (memory
//! level parallelism + independent work). L1 hits are fully pipelined.
//!
//! This is the standard first-order model for trace-driven studies: it
//! does not predict absolute IPC, but it propagates *relative* changes in
//! cache behaviour — which is all the paper's Figures 4 and 10–12 measure
//! — and it lets workload profiles express their memory-boundedness
//! through `overlap` (a pointer-chasing workload hides almost nothing; a
//! streaming workload hides almost everything).
//!
//! `CoreState` is one core's architectural state and the rules for
//! committing an op to it. The single-core [`crate::engine::Engine`] and
//! every core of the [`crate::multicore::MulticoreEngine`] commit through
//! it, so both charge, count and deliver exceptions identically.

use crate::checkpoint::{self as ck, CheckpointError, Rd, Wr};
use crate::hierarchy::MemResult;
use crate::stats::SimStats;
use crate::trace::TraceOp;
use califorms_core::{CaliformsException, ExceptionMask};

/// Delivered exceptions a core records verbatim before only counting
/// them: a real handler would have terminated the program at the first
/// one; attack experiments want a few for inspection, not millions.
pub const MAX_RECORDED_EXCEPTIONS: usize = 1024;

/// Core timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Retire width (instructions per cycle), Westmere-like default 4.
    pub width: u32,
    /// Fraction of beyond-L1 miss latency hidden by the OoO window,
    /// in `[0, 1)`.
    pub overlap: f64,
}

impl CoreConfig {
    /// Westmere-like defaults: 4-wide, 60 % of miss latency hidden.
    pub fn westmere() -> Self {
        Self {
            width: 4,
            overlap: 0.6,
        }
    }

    /// Same core with a different overlap (workload-specific
    /// memory-boundedness).
    pub fn with_overlap(self, overlap: f64) -> Self {
        assert!((0.0..1.0).contains(&overlap), "overlap must be in [0,1)");
        Self { overlap, ..self }
    }

    /// Cycles to retire `n` plain instructions.
    pub fn exec_cycles(&self, n: u64) -> f64 {
        n as f64 / f64::from(self.width)
    }

    /// Stall cycles charged for a memory access of total `latency`, given
    /// the L1 hit latency `l1_latency`: L1 hits are free (pipelined);
    /// beyond-L1 latency is charged at `1 − overlap`.
    pub fn memory_stall(&self, latency: u32, l1_latency: u32) -> f64 {
        if latency <= l1_latency {
            0.0
        } else {
            f64::from(latency - l1_latency) * (1.0 - self.overlap)
        }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::westmere()
    }
}

/// One core's architectural state: its clock, program counter, op
/// counters, exception mask and recorded exceptions, plus the timing it
/// charges ops with.
#[derive(Debug)]
pub(crate) struct CoreState {
    pub(crate) timing: CoreConfig,
    l1d_latency: u32,
    mask: ExceptionMask,
    pub(crate) cycles: f64,
    /// Ops committed so far; the op being committed carries `pc + 1`.
    pub(crate) pc: u64,
    instructions: u64,
    loads: u64,
    stores: u64,
    cforms: u64,
    stores_suppressed: u64,
    pub(crate) exceptions: Vec<CaliformsException>,
}

impl CoreState {
    /// A core at cycle 0 that has committed nothing.
    pub(crate) fn new(timing: CoreConfig, l1d_latency: u32) -> Self {
        Self {
            timing,
            l1d_latency,
            mask: ExceptionMask::new(),
            cycles: 0.0,
            pc: 0,
            instructions: 0,
            loads: 0,
            stores: 0,
            cforms: 0,
            stores_suppressed: 0,
            exceptions: Vec::new(),
        }
    }

    /// Commits an op that touches no memory: `Exec`, `MaskPush` or
    /// `MaskPop`. Callers dispatch on the op kind once and call this from
    /// their local-op arm; memory ops commit through [`Self::commit_mem`].
    #[inline]
    pub(crate) fn commit_local(&mut self, op: TraceOp) {
        let n = match op {
            TraceOp::Exec(n) => u64::from(n),
            TraceOp::MaskPush => {
                self.mask.push_allow_all();
                1
            }
            TraceOp::MaskPop => {
                self.mask.pop_window();
                1
            }
            TraceOp::Load { .. }
            | TraceOp::Store { .. }
            | TraceOp::Cform { .. }
            | TraceOp::CformNt { .. } => unreachable!("memory ops commit through commit_mem"),
        };
        self.pc += 1;
        self.instructions += op.instruction_count();
        self.cycles += self.timing.exec_cycles(n);
    }

    /// Commits a memory op (`Load`, `Store`, `Cform`, `CformNt`) the
    /// hierarchy served with `r`: charges its latency, counts it (a
    /// faulting store was suppressed), and delivers its exception unless
    /// the mask suppresses it.
    #[inline]
    pub(crate) fn commit_mem(&mut self, op: &TraceOp, r: MemResult) {
        match op {
            TraceOp::Load { .. } => self.loads += 1,
            TraceOp::Store { .. } => {
                self.stores += 1;
                if r.exception.is_some() {
                    self.stores_suppressed += 1;
                }
            }
            TraceOp::Cform { .. } | TraceOp::CformNt { .. } => self.cforms += 1,
            TraceOp::Exec(..) | TraceOp::MaskPush | TraceOp::MaskPop => {
                unreachable!("local ops commit through commit_local")
            }
        }
        self.pc += 1;
        self.instructions += op.instruction_count();
        self.cycles +=
            self.timing.exec_cycles(1) + self.timing.memory_stall(r.latency, self.l1d_latency);
        if let Some(delivered) = r.exception.and_then(|exc| self.mask.filter(exc)) {
            if self.exceptions.len() < MAX_RECORDED_EXCEPTIONS {
                self.exceptions.push(delivered);
            }
        }
    }

    /// The core's counters; the cache and coherence fields are left for
    /// the hierarchy to fill in.
    pub(crate) fn stats(&self) -> SimStats {
        SimStats {
            cycles: self.cycles,
            instructions: self.instructions,
            loads: self.loads,
            stores: self.stores,
            cforms: self.cforms,
            stores_suppressed: self.stores_suppressed,
            exceptions_delivered: self.mask.delivered_count(),
            exceptions_suppressed: self.mask.suppressed_count(),
            ..SimStats::default()
        }
    }

    /// Writes this core's record of the checkpoint CORE section.
    pub(crate) fn save(&self, w: &mut Wr) {
        w.u64(self.pc);
        w.f64(self.cycles);
        w.u64(self.instructions);
        w.u64(self.loads);
        w.u64(self.stores);
        w.u64(self.cforms);
        w.u64(self.stores_suppressed);
        ck::put_mask(w, &self.mask);
        ck::put_exceptions(w, &self.exceptions);
    }

    /// Reads a record written by [`Self::save`] for a core with the given
    /// timing.
    ///
    /// # Errors
    ///
    /// Truncation, a malformed mask, a cycle count that is not finite
    /// and non-negative, or more recorded exceptions than
    /// [`MAX_RECORDED_EXCEPTIONS`].
    pub(crate) fn load(r: &mut Rd<'_>, timing: CoreConfig, l1d_latency: u32) -> ck::Result<Self> {
        // Struct-literal fields evaluate in source order: keep it `save`'s.
        let s = Self {
            timing,
            l1d_latency,
            pc: r.u64()?,
            cycles: r.f64()?,
            instructions: r.u64()?,
            loads: r.u64()?,
            stores: r.u64()?,
            cforms: r.u64()?,
            stores_suppressed: r.u64()?,
            mask: ck::get_mask(r)?,
            exceptions: ck::get_exceptions(r)?,
        };
        if !s.cycles.is_finite() || s.cycles < 0.0 {
            return Err(CheckpointError::Corrupt("core cycle count is invalid"));
        }
        if s.exceptions.len() > MAX_RECORDED_EXCEPTIONS {
            return Err(CheckpointError::Corrupt(
                "recorded exceptions exceed the engine cap",
            ));
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_cycles_respect_width() {
        let c = CoreConfig::westmere();
        assert!((c.exec_cycles(8) - 2.0).abs() < 1e-12);
        assert!((c.exec_cycles(1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn l1_hits_are_free() {
        let c = CoreConfig::westmere();
        assert_eq!(c.memory_stall(4, 4), 0.0);
        assert_eq!(c.memory_stall(3, 4), 0.0);
    }

    #[test]
    fn misses_are_charged_at_one_minus_overlap() {
        let c = CoreConfig::westmere().with_overlap(0.5);
        assert!((c.memory_stall(4 + 7, 4) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn zero_overlap_charges_full_latency() {
        let c = CoreConfig::westmere().with_overlap(0.0);
        assert!((c.memory_stall(238, 4) - 234.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "overlap must be in")]
    fn overlap_out_of_range_panics() {
        CoreConfig::westmere().with_overlap(1.0);
    }
}
