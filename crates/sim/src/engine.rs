//! The simulation engine: runs a trace through the core model and the
//! memory hierarchy, handling Califorms exceptions and whitelist masks.

use crate::checkpoint::{self as ck, CheckpointError};
use crate::cpu::{CoreConfig, CoreState};
use crate::hierarchy::{Hierarchy, HierarchyConfig};
use crate::lsq::LoadStoreQueue;
use crate::os::SwapManager;
use crate::stats::SimStats;
use crate::trace::TraceOp;
use crate::tracepack::{self, ResumePoint, TracePack, TracePackReader, MAX_ACCESS_BYTES};
use califorms_core::{CaliformsException, CformInstruction};

/// Outcome of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Aggregate statistics.
    pub stats: SimStats,
    /// The delivered exceptions, in order, capped at
    /// [`crate::cpu::MAX_RECORDED_EXCEPTIONS`].
    pub exceptions: Vec<CaliformsException>,
}

/// Trace-driven simulator: Westmere-like core + Califorms hierarchy.
#[derive(Debug)]
pub struct Engine {
    /// The simulated memory hierarchy (public: attack simulations inspect
    /// and prod it directly).
    pub hierarchy: Hierarchy,
    core: CoreState,
}

impl Engine {
    /// Builds an engine from hierarchy and core configurations.
    pub fn new(hcfg: HierarchyConfig, core: CoreConfig) -> Self {
        Self {
            hierarchy: Hierarchy::new(hcfg),
            core: CoreState::new(core, hcfg.l1d_latency),
        }
    }

    /// Convenience constructor with the paper's default configuration.
    pub fn westmere() -> Self {
        Self::new(HierarchyConfig::westmere(), CoreConfig::westmere())
    }

    /// Executes one trace operation.
    pub fn step(&mut self, op: TraceOp) {
        let pc = self.core.pc + 1;
        let r = match op {
            TraceOp::Load { addr, size } => self.hierarchy.load_quiet(addr, size as usize, pc),
            TraceOp::Store { addr, size } => with_store_data(addr, size as usize, |data| {
                self.hierarchy.store(addr, data, pc)
            }),
            TraceOp::Cform {
                line_addr,
                attrs,
                mask,
            } => self
                .hierarchy
                .cform(&CformInstruction::new(line_addr, attrs, mask), pc),
            TraceOp::CformNt {
                line_addr,
                attrs,
                mask,
            } => self
                .hierarchy
                .cform_nt(&CformInstruction::new(line_addr, attrs, mask), pc),
            TraceOp::Exec(..) | TraceOp::MaskPush | TraceOp::MaskPop => {
                self.core.commit_local(op);
                return;
            }
        };
        self.core.commit_mem(&op, r);
    }

    /// Runs a whole trace to completion and returns the outcome.
    pub fn run<I>(mut self, trace: I) -> SimOutcome
    where
        I: IntoIterator<Item = TraceOp>,
    {
        for op in trace {
            self.step(op);
        }
        self.finish()
    }

    /// Ops batch-decoded into the replay ring at a time (see
    /// [`Self::run_pack`]).
    pub const REPLAY_BATCH: usize = 1024;

    /// Replays a packed trace to completion: ops are batch-decoded into a
    /// fixed stack ring of [`Self::REPLAY_BATCH`] slots and stepped from
    /// there, so the pack never materialises as a `Vec<TraceOp>` and the
    /// per-op decode/dispatch cost is amortised. Bit-identical in stats
    /// and exceptions to [`Self::run`] over the same ops.
    ///
    /// # Panics
    ///
    /// Panics on a corrupt pack — packs built by
    /// [`TracePack::from_ops`] or validated by [`TracePack::from_bytes`]
    /// are always well-formed.
    pub fn run_pack(self, pack: &TracePack) -> SimOutcome {
        let mut dec = pack.decoder();
        self.run_batches(|ring| dec.next_batch(ring))
            .expect("validated pack is well-formed")
    }

    /// [`Self::run_pack`] with telemetry: alternating decode/bound spans
    /// per [`Self::REPLAY_BATCH`]-op batch on one track, plus the
    /// deterministic counter snapshot (including `decode.*` progress).
    /// Results are bit-identical to [`Self::run_pack`] — the spans are
    /// host-time-only output and every counter is derived from the same
    /// [`SimStats`] the plain path produces.
    ///
    /// # Panics
    ///
    /// Panics on a corrupt pack — packs built by
    /// [`TracePack::from_ops`] or validated by [`TracePack::from_bytes`]
    /// are always well-formed.
    pub fn run_pack_telemetry(
        mut self,
        pack: &TracePack,
    ) -> (SimOutcome, califorms_telemetry::TelemetryReport) {
        use califorms_telemetry::{Phase, TelemetryClock, TelemetryReport, TrackRecorder};
        let clock = TelemetryClock::start();
        let mut track = TrackRecorder::new(0, clock);
        let mut dec = pack.decoder();
        let mut ring = [TraceOp::Exec(0); Self::REPLAY_BATCH];
        loop {
            let decode_start = track.start();
            let n = dec
                .next_batch(&mut ring)
                .expect("validated pack is well-formed");
            if n == 0 {
                break;
            }
            track.record_since(Phase::Decode, 0, decode_start);
            let exec_start = track.start();
            for &op in &ring[..n] {
                self.step(op);
            }
            track.record_since(Phase::Bound, 0, exec_start);
        }
        let decode = Some((dec.ops_read(), dec.bytes_consumed()));
        let outcome = self.finish();
        let counters = crate::telemetry::single_core_counters(&outcome.stats, decode).snapshot();
        let dropped_spans = track.dropped();
        let (spans, _) = track.into_parts();
        let report = TelemetryReport {
            counters,
            spans,
            track_names: vec![(0, "core 0".to_string())],
            dropped_spans,
            ..TelemetryReport::default()
        };
        (outcome, report)
    }

    /// Streaming variant of [`Self::run_pack`]: replays a pack from any
    /// `io::Read` source (e.g. a multi-gigabyte pack file) in constant
    /// memory through the reader's internal refill buffer.
    ///
    /// # Errors
    ///
    /// Propagates decode/I/O failures from the reader.
    pub fn run_reader<R: std::io::Read>(
        self,
        reader: &mut TracePackReader<R>,
    ) -> tracepack::Result<SimOutcome> {
        self.run_batches(|ring| reader.next_batch(ring))
    }

    /// The shared batch-replay drain: fills the fixed ring from `next`
    /// until it runs dry, stepping every decoded op.
    fn run_batches(
        mut self,
        mut next: impl FnMut(&mut [TraceOp]) -> tracepack::Result<usize>,
    ) -> tracepack::Result<SimOutcome> {
        let mut ring = [TraceOp::Exec(0); Self::REPLAY_BATCH];
        loop {
            let n = next(&mut ring)?;
            if n == 0 {
                break;
            }
            for &op in &ring[..n] {
                self.step(op);
            }
        }
        Ok(self.finish())
    }

    /// Finalises the run (no flush: cache state is part of steady-state
    /// measurement, as with the paper's SimPoint regions).
    pub fn finish(self) -> SimOutcome {
        let mut stats = self.core.stats();
        self.hierarchy.export_stats(&mut stats);
        SimOutcome {
            stats,
            exceptions: self.core.exceptions,
        }
    }

    /// Cycles accumulated so far (for incremental drivers).
    pub fn cycles(&self) -> f64 {
        self.core.cycles
    }

    /// Exceptions delivered so far.
    pub fn delivered_exceptions(&self) -> &[CaliformsException] {
        &self.core.exceptions
    }

    // --- checkpoint / resume ------------------------------------------

    /// Serializes the complete engine state (core counters, exception
    /// mask, hierarchy, configuration) plus the replay `cursor` into a
    /// self-contained checkpoint. Taking `cursor` from
    /// [`crate::tracepack::PackDecoder::resume_point`] at a decode-batch
    /// boundary makes [`Self::resume_pack`] bit-identical to a
    /// straight-through [`Self::run_pack`].
    pub fn checkpoint(&self, cursor: ResumePoint) -> Vec<u8> {
        self.checkpoint_with(cursor, None, None)
    }

    /// [`Self::checkpoint`] with optional attachments: the OS swap state
    /// and an in-flight LSQ, for drivers that thread those alongside the
    /// engine.
    pub fn checkpoint_with(
        &self,
        cursor: ResumePoint,
        os: Option<&SwapManager>,
        lsq: Option<&LoadStoreQueue>,
    ) -> Vec<u8> {
        let mut w = ck::Wr::checkpoint();
        let s = w.begin_section(ck::SEC_META);
        w.u8(ck::KIND_SINGLE);
        w.u64(1);
        w.end_section(s);
        let s = w.begin_section(ck::SEC_CONFIG);
        ck::put_hier_config(&mut w, self.hierarchy.config());
        ck::put_core_config(&mut w, &self.core.timing);
        w.end_section(s);
        let s = w.begin_section(ck::SEC_CORE);
        self.core.save(&mut w);
        w.end_section(s);
        let s = w.begin_section(ck::SEC_HIERARCHY);
        self.hierarchy.save_state(&mut w);
        w.end_section(s);
        let s = w.begin_section(ck::SEC_CURSOR);
        w.u64(1);
        ck::put_resume_point(&mut w, &cursor);
        w.end_section(s);
        if let Some(os) = os {
            let s = w.begin_section(ck::SEC_OS);
            os.save_state(&mut w);
            w.end_section(s);
        }
        if let Some(lsq) = lsq {
            let s = w.begin_section(ck::SEC_LSQ);
            lsq.save_state(&mut w);
            w.end_section(s);
        }
        w.finish()
    }

    /// Reconstructs an engine and its replay cursor from checkpoint
    /// bytes.
    ///
    /// # Errors
    ///
    /// Every malformed input — bad magic, truncation, checksum mismatch,
    /// section-length lies, semantically impossible payloads, or a
    /// multicore checkpoint — returns a typed [`CheckpointError`], never
    /// panics.
    pub fn restore(bytes: &[u8]) -> ck::Result<(Self, ResumePoint)> {
        let (engine, cursor, _, _) = Self::restore_with(bytes)?;
        Ok((engine, cursor))
    }

    /// [`Self::restore`] that also returns the optional OS swap state and
    /// LSQ attachments if the checkpoint carried them.
    ///
    /// # Errors
    ///
    /// See [`Self::restore`].
    pub fn restore_with(
        bytes: &[u8],
    ) -> ck::Result<(
        Self,
        ResumePoint,
        Option<SwapManager>,
        Option<LoadStoreQueue>,
    )> {
        let sections = ck::parse_sections(bytes)?;
        let mut r = ck::require(&sections, ck::SEC_META, "meta")?;
        if r.u8()? != ck::KIND_SINGLE {
            return Err(CheckpointError::ConfigMismatch(
                "multicore checkpoint resumed on the single-core engine",
            ));
        }
        if r.u64()? != 1 {
            return Err(CheckpointError::Corrupt(
                "single-core checkpoint with core count != 1",
            ));
        }
        ck::consumed(&r, ck::SEC_META)?;

        let mut r = ck::require(&sections, ck::SEC_CONFIG, "config")?;
        let hcfg = ck::get_hier_config(&mut r)?;
        let core = ck::get_core_config(&mut r)?;
        ck::consumed(&r, ck::SEC_CONFIG)?;

        let mut r = ck::require(&sections, ck::SEC_CORE, "core")?;
        let core = CoreState::load(&mut r, core, hcfg.l1d_latency)?;
        ck::consumed(&r, ck::SEC_CORE)?;

        let mut r = ck::require(&sections, ck::SEC_HIERARCHY, "hierarchy")?;
        let engine = Engine {
            hierarchy: Hierarchy::restore_state(hcfg, &mut r)?,
            core,
        };
        ck::consumed(&r, ck::SEC_HIERARCHY)?;

        let mut r = ck::require(&sections, ck::SEC_CURSOR, "cursor")?;
        if r.u64()? != 1 {
            return Err(CheckpointError::Corrupt(
                "single-core checkpoint with more than one cursor lane",
            ));
        }
        let cursor = ck::get_resume_point(&mut r)?;
        ck::consumed(&r, ck::SEC_CURSOR)?;

        let os = match ck::optional(&sections, ck::SEC_OS) {
            Some(mut r) => {
                let os = SwapManager::restore_state(&mut r)?;
                ck::consumed(&r, ck::SEC_OS)?;
                Some(os)
            }
            None => None,
        };
        let lsq = match ck::optional(&sections, ck::SEC_LSQ) {
            Some(mut r) => {
                let lsq = LoadStoreQueue::restore_state(&mut r)?;
                ck::consumed(&r, ck::SEC_LSQ)?;
                Some(lsq)
            }
            None => None,
        };
        Ok((engine, cursor, os, lsq))
    }

    /// Restores an engine from checkpoint bytes and replays the rest of
    /// `pack` to completion — the crash-recovery path. The outcome is
    /// bit-identical (stats, exceptions) to [`Self::run_pack`] over the
    /// whole pack when the checkpoint was taken by
    /// [`Self::run_pack_checkpointed`] on the same pack.
    ///
    /// # Errors
    ///
    /// Typed [`CheckpointError`] on corrupt checkpoint bytes or a cursor
    /// that does not fit `pack` (truncated/wrong pack).
    pub fn resume_pack(pack: &TracePack, bytes: &[u8]) -> ck::Result<SimOutcome> {
        let (engine, cursor) = Self::restore(bytes)?;
        let mut dec = pack.resume_from(cursor)?;
        Ok(engine.run_batches(|ring| dec.next_batch(ring))?)
    }

    /// [`Self::run_pack`] that also emits a checkpoint every
    /// `interval_batches` decode batches (each batch is
    /// [`Self::REPLAY_BATCH`] ops), in order taken.
    ///
    /// # Panics
    ///
    /// Panics on a corrupt pack (like [`Self::run_pack`]) or if
    /// `interval_batches` is zero.
    pub fn run_pack_checkpointed(
        mut self,
        pack: &TracePack,
        interval_batches: u64,
    ) -> (SimOutcome, Vec<Vec<u8>>) {
        assert!(interval_batches > 0, "checkpoint interval must be positive");
        let mut dec = pack.decoder();
        let mut ring = [TraceOp::Exec(0); Self::REPLAY_BATCH];
        let mut checkpoints = Vec::new();
        let mut batch = 0u64;
        loop {
            let n = dec
                .next_batch(&mut ring)
                .expect("validated pack is well-formed");
            if n == 0 {
                break;
            }
            for &op in &ring[..n] {
                self.step(op);
            }
            batch += 1;
            if batch.is_multiple_of(interval_batches) {
                checkpoints.push(self.checkpoint(dec.resume_point()));
            }
        }
        (self.finish(), checkpoints)
    }
}

/// Deterministic store payload: traces carry no data, but the califormed
/// format conversions need real byte values flowing through the
/// hierarchy, so stores write a pattern derived from the address. Shared
/// by [`Engine`] and [`crate::multicore::MulticoreEngine`] so single- and
/// multi-core replays of the same shard write identical bytes.
///
/// This is the allocating form (public so external replay drivers can
/// reproduce the engine's payloads); the replay hot path uses
/// [`fill_store_pattern`] over a stack buffer instead.
pub fn store_pattern(addr: u64, len: usize) -> Vec<u8> {
    // analyze::allow(hot-path-alloc): allocating form for external drivers; the replay path uses fill_store_pattern over a stack buffer
    let mut buf = vec![0u8; len];
    fill_store_pattern(addr, &mut buf);
    buf
}

/// Fills `buf` with the deterministic store pattern for a store at
/// `addr` — the allocation-free form of [`store_pattern`] the replay hot
/// path threads through [`Hierarchy::store`] via a stack `[u8; 64]`.
#[inline]
pub fn fill_store_pattern(addr: u64, buf: &mut [u8]) {
    for (i, b) in buf.iter_mut().enumerate() {
        *b = ((addr + i as u64).wrapping_mul(0x9E37_79B9) >> 16) as u8;
    }
}

/// Synthesises the store payload for `addr`/`len` and hands it to `f`:
/// on the hot path (`len <= 64`, the trace-pack contract) the payload
/// lives in a stack buffer; oversized hand-built stores fall back to the
/// allocating form. Shared by [`Engine`] and
/// [`crate::multicore::MulticoreEngine`] so every replay path writes
/// identical bytes.
#[inline]
pub(crate) fn with_store_data<R>(addr: u64, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
    if len <= MAX_ACCESS_BYTES {
        let mut buf = [0u8; MAX_ACCESS_BYTES];
        fill_store_pattern(addr, &mut buf[..len]);
        f(&buf[..len])
    } else {
        f(&store_pattern(addr, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use califorms_core::AccessKind;

    #[test]
    fn exec_only_trace_is_width_limited() {
        let out = Engine::westmere().run([TraceOp::Exec(400)]);
        assert!((out.stats.cycles - 100.0).abs() < 1e-9);
        assert_eq!(out.stats.instructions, 400);
    }

    #[test]
    fn store_load_cform_counts() {
        let trace = [
            TraceOp::Store {
                addr: 0x100,
                size: 8,
            },
            TraceOp::Load {
                addr: 0x100,
                size: 8,
            },
            TraceOp::Cform {
                line_addr: 0x100,
                attrs: 1 << 20,
                mask: 1 << 20,
            },
        ];
        let out = Engine::westmere().run(trace);
        assert_eq!(out.stats.loads, 1);
        assert_eq!(out.stats.stores, 1);
        assert_eq!(out.stats.cforms, 1);
        assert_eq!(out.stats.instructions, 3);
    }

    #[test]
    fn rogue_access_is_delivered_by_default() {
        let trace = [
            TraceOp::Cform {
                line_addr: 0x200,
                attrs: 1 << 5,
                mask: 1 << 5,
            },
            TraceOp::Load {
                addr: 0x205,
                size: 1,
            },
        ];
        let out = Engine::westmere().run(trace);
        assert_eq!(out.stats.exceptions_delivered, 1);
        assert_eq!(out.exceptions.len(), 1);
        assert_eq!(out.exceptions[0].fault_addr, 0x205);
        assert_eq!(out.exceptions[0].access, AccessKind::Load);
    }

    #[test]
    fn whitelisted_access_is_suppressed_but_counted() {
        let trace = [
            TraceOp::Cform {
                line_addr: 0x200,
                attrs: 1 << 5,
                mask: 1 << 5,
            },
            TraceOp::MaskPush,
            TraceOp::Load {
                addr: 0x205,
                size: 1,
            }, // memcpy-style sweep
            TraceOp::MaskPop,
            TraceOp::Load {
                addr: 0x205,
                size: 1,
            }, // rogue again
        ];
        let out = Engine::westmere().run(trace);
        assert_eq!(out.stats.exceptions_suppressed, 1);
        assert_eq!(out.stats.exceptions_delivered, 1);
    }

    #[test]
    fn suppressed_store_is_counted() {
        let trace = [
            TraceOp::Cform {
                line_addr: 0x40,
                attrs: 0xF,
                mask: 0xF,
            },
            TraceOp::Store {
                addr: 0x40,
                size: 4,
            },
        ];
        let out = Engine::westmere().run(trace);
        assert_eq!(out.stats.stores_suppressed, 1);
    }

    #[test]
    fn identical_traces_are_deterministic() {
        let trace: Vec<TraceOp> = (0..1000)
            .map(|i| TraceOp::Load {
                addr: (i * 8389) % 65536,
                size: 8,
            })
            .collect();
        let a = Engine::westmere().run(trace.clone());
        let b = Engine::westmere().run(trace);
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert_eq!(a.stats.l1d, b.stats.l1d);
    }

    #[test]
    fn telemetry_replay_is_bit_identical_and_reports_decode_progress() {
        use califorms_telemetry::Phase;
        let trace: Vec<TraceOp> = (0..3000)
            .map(|i| TraceOp::Load {
                addr: (i * 4099) % 65536,
                size: 8,
            })
            .collect();
        let pack = TracePack::from_ops(trace.iter().copied());
        let plain = Engine::westmere().run_pack(&pack);
        let (out, report) = Engine::westmere().run_pack_telemetry(&pack);
        assert_eq!(out.stats, plain.stats);
        assert_eq!(out.exceptions, plain.exceptions);
        assert_eq!(
            report.counters.total("decode.ops"),
            Some(trace.len() as u64)
        );
        assert_eq!(
            report.counters.total("core.cycles_fp_bits"),
            Some(plain.stats.cycles.to_bits())
        );
        assert!(report.spans.iter().any(|s| s.phase == Phase::Decode));
        assert!(report.spans.iter().any(|s| s.phase == Phase::Bound));
        assert_eq!(report.dropped_spans, 0);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_at_every_boundary() {
        // A trace mixing every op kind, long enough for several decode
        // batches, with califormed lines, suppressed stores and both
        // delivered and masked exceptions in flight at checkpoint time.
        let mut trace = Vec::new();
        for i in 0..5000u64 {
            trace.push(TraceOp::Exec((i % 7) as u32 + 1));
            trace.push(TraceOp::Load {
                addr: (i * 4099) % 262_144,
                size: 8,
            });
            trace.push(TraceOp::Store {
                addr: (i * 8389) % 262_144,
                size: 8,
            });
            if i % 17 == 0 {
                trace.push(TraceOp::Cform {
                    line_addr: (i * 64) % 131_072,
                    attrs: 1 << (i % 64),
                    mask: 1 << (i % 64),
                });
            }
            if i % 29 == 0 {
                trace.push(TraceOp::Load {
                    addr: ((i / 29) * 64) % 131_072 + (i % 64),
                    size: 1,
                });
            }
            if i % 97 == 0 {
                trace.push(TraceOp::MaskPush);
            }
            if i % 97 == 5 && i > 5 {
                trace.push(TraceOp::MaskPop);
            }
        }
        let pack = TracePack::from_ops(trace.iter().copied());
        let straight = Engine::westmere().run_pack(&pack);
        let (out, checkpoints) = Engine::westmere().run_pack_checkpointed(&pack, 1);
        assert_eq!(out.stats, straight.stats);
        assert_eq!(out.exceptions, straight.exceptions);
        assert!(
            checkpoints.len() >= 4,
            "trace spans several decode batches ({} checkpoints)",
            checkpoints.len()
        );
        for (i, cp) in checkpoints.iter().enumerate() {
            let resumed = Engine::resume_pack(&pack, cp)
                .unwrap_or_else(|e| panic!("resume from checkpoint {i} failed: {e}"));
            assert_eq!(resumed.stats, straight.stats, "checkpoint {i} stats");
            assert_eq!(
                resumed.exceptions, straight.exceptions,
                "checkpoint {i} exceptions"
            );
        }
    }

    #[test]
    fn checkpoint_round_trips_os_and_lsq_attachments() {
        use crate::os::SwapManager;
        let mut engine = Engine::westmere();
        engine.step(TraceOp::Store {
            addr: 0x10_0000,
            size: 8,
        });
        let mut swap = SwapManager::new();
        swap.swap_out(&mut engine.hierarchy, 0x10_0000);
        let mut lsq = crate::lsq::LoadStoreQueue::new();
        lsq.push_store(0x200, vec![1, 2, 3]);
        lsq.push_cform(0x1000, 0xFF);
        let _ = lsq.resolve_load(0x200, 2);

        let bytes = engine.checkpoint_with(
            crate::tracepack::ResumePoint::default(),
            Some(&swap),
            Some(&lsq),
        );
        let (engine2, _, os2, lsq2) = Engine::restore_with(&bytes).expect("restore");
        let mut swap2 = os2.expect("OS section round-trips");
        assert_eq!(swap2.swapped_pages(), 1);
        let mut lsq2 = lsq2.expect("LSQ section round-trips");
        assert_eq!(lsq2.len(), 2);
        assert_eq!(lsq2.stats(), lsq.stats());
        // The restored swap state swaps back in against the restored
        // hierarchy exactly like the original would.
        let mut h2 = engine2.hierarchy;
        swap2.swap_in(&mut h2, 0x10_0000);
        assert_eq!(
            h2.load(0x10_0000, 8, 0).data,
            store_pattern(0x10_0000, 8),
            "swapped-out data survives the checkpoint"
        );
        assert_eq!(
            lsq2.resolve_load(0x200, 2),
            crate::lsq::ForwardResult::Forwarded(vec![1, 2])
        );
    }

    #[test]
    fn restore_rejects_attachment_confusion_and_cap_lies() {
        let engine = Engine::westmere();
        let bytes = engine.checkpoint(crate::tracepack::ResumePoint::default());
        // Sanity: clean restore works.
        assert!(Engine::restore(&bytes).is_ok());
        // A truncated tail is typed, not a panic.
        for cut in 1..16 {
            let truncated = &bytes[..bytes.len() - cut];
            assert!(Engine::restore(truncated).is_err());
        }
    }

    #[test]
    fn extra_latency_slows_the_same_trace() {
        let trace: Vec<TraceOp> = (0..2000u64)
            .flat_map(|i| {
                [
                    TraceOp::Exec(10),
                    TraceOp::Load {
                        addr: (i * 4096) % (8 * 1024 * 1024),
                        size: 8,
                    },
                ]
            })
            .collect();
        let base = Engine::westmere().run(trace.clone());
        let plus = Engine::new(
            HierarchyConfig::westmere_plus_one_cycle(),
            CoreConfig::westmere(),
        )
        .run(trace);
        let slowdown = plus.stats.slowdown_vs(&base.stats);
        assert!(slowdown > 0.0, "extra latency must cost cycles");
        assert!(slowdown < 0.05, "one cycle must cost little");
    }
}
