//! The simulation engine: runs a trace through the core model and the
//! one-core machine, handling Califorms exceptions and whitelist masks.

use crate::checkpoint::{self as ck, CheckpointError, Checkpoints};
use crate::coherence::{CoherenceConfig, CoherentHierarchy};
use crate::cpu::{CoreConfig, CoreState};
use crate::hierarchy::HierarchyConfig;
use crate::stats::SimStats;
use crate::trace::TraceOp;
use crate::tracepack::{self, PackDecoder, ResumePoint, TracePack, MAX_ACCESS_BYTES};
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

/// Trace-driven simulator: a Westmere-like core on the one-core
/// Califorms machine.
#[derive(Debug)]
pub struct Engine {
    /// The simulated one-core machine (public: attack simulations inspect
    /// and prod it directly, as core 0).
    pub hierarchy: CoherentHierarchy,
    core: CoreState,
}

impl Engine {
    /// Builds an engine from hierarchy and core configurations. The
    /// coherence latencies are never charged at one core, so the default
    /// stands for them.
    pub fn new(hcfg: HierarchyConfig, core: CoreConfig) -> Self {
        Self {
            hierarchy: CoherentHierarchy::new(hcfg, CoherenceConfig::westmere(), 1),
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
            TraceOp::Load { addr, size } => self.hierarchy.load(0, addr, size as usize, pc, None),
            TraceOp::Store { addr, size } => {
                with_store_data(addr, size, |data| self.hierarchy.store(0, addr, data, pc))
            }
            TraceOp::Cform {
                line_addr,
                attrs,
                mask,
            } => self
                .hierarchy
                .cform(0, &CformInstruction::new(line_addr, attrs, mask), pc),
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

    /// Runs a whole trace to completion and returns the outcome — the
    /// convenience wrapper over [`Self::step`] and [`Self::finish`] for
    /// traces held as ops.
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
    /// [`Self::replay`]); the single-core checkpoint boundary.
    pub const REPLAY_BATCH: usize = 1024;

    /// Replays a packed trace to completion: ops are batch-decoded into a
    /// fixed stack ring of [`Self::REPLAY_BATCH`] slots and stepped from
    /// there, so the pack never materialises as a `Vec<TraceOp>` and the
    /// per-op decode/dispatch cost is amortised. Bit-identical in stats
    /// and exceptions to [`Self::run`] over the same ops.
    ///
    /// With `checkpoints`, the whole engine is captured after every
    /// `every`-th decode batch; [`Self::resume`] continues from any of
    /// those checkpoints bit-identically.
    ///
    /// # Panics
    ///
    /// Panics on a corrupt pack — packs built by
    /// [`TracePack::from_ops`] or validated by [`TracePack::from_bytes`]
    /// are always well-formed.
    pub fn replay(self, pack: &TracePack, checkpoints: Option<Checkpoints<'_>>) -> SimOutcome {
        self.replay_from(pack.decoder(), checkpoints)
            .expect("validated pack is well-formed")
    }

    /// Restores an engine from checkpoint bytes taken by [`Self::replay`]
    /// and replays the rest of `pack` to completion — the crash-recovery
    /// path. The outcome is bit-identical (stats, exceptions) to
    /// [`Self::replay`] over the whole pack. `checkpoints` keeps
    /// checkpointing: the checkpoint being resumed sits on a multiple of
    /// the original `every`, so counting batches afresh from it with the
    /// same `every` reproduces the original run's later checkpoints byte
    /// for byte.
    ///
    /// # Errors
    ///
    /// Typed [`CheckpointError`] on corrupt checkpoint bytes, a
    /// multicore checkpoint, or a cursor that does not fit `pack`
    /// (truncated/wrong pack).
    pub fn resume(
        pack: &TracePack,
        bytes: &[u8],
        checkpoints: Option<Checkpoints<'_>>,
    ) -> ck::Result<SimOutcome> {
        let (engine, cursor) = Self::restore(bytes)?;
        let dec = pack.resume_from(cursor)?;
        Ok(engine.replay_from(dec, checkpoints)?)
    }

    /// The one batch-replay loop of [`Self::replay`] and
    /// [`Self::resume`]: fills the fixed ring from `dec` until it runs
    /// dry, stepping every decoded op, and checkpoints at the requested
    /// batch boundaries.
    fn replay_from(
        mut self,
        mut dec: PackDecoder<'_>,
        mut checkpoints: Option<Checkpoints<'_>>,
    ) -> tracepack::Result<SimOutcome> {
        let mut ring = [TraceOp::Exec(0); Self::REPLAY_BATCH];
        let mut batches = 0u64;
        loop {
            let n = dec.next_batch(&mut ring)?;
            if n == 0 {
                break;
            }
            for &op in &ring[..n] {
                self.step(op);
            }
            if let Some(c) = checkpoints.as_mut() {
                batches += 1;
                if batches.is_multiple_of(c.every.get()) {
                    (c.sink)(self.checkpoint(dec.resume_point()));
                }
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
    /// mask, machine, configuration) plus the replay `cursor`, taken
    /// at a decode-batch boundary, into a self-contained checkpoint.
    fn checkpoint(&self, cursor: ResumePoint) -> Vec<u8> {
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
        let s = w.begin_section(ck::SEC_MACHINE);
        self.hierarchy.save_state(&mut w);
        w.end_section(s);
        let s = w.begin_section(ck::SEC_CURSOR);
        w.u64(1);
        ck::put_resume_point(&mut w, &cursor);
        w.end_section(s);
        w.finish()
    }

    /// Reconstructs an engine and its replay cursor from checkpoint
    /// bytes. Every malformed input — bad magic, truncation, checksum
    /// mismatch, section-length lies, semantically impossible payloads,
    /// or a multicore checkpoint — returns a typed [`CheckpointError`],
    /// never panics.
    fn restore(bytes: &[u8]) -> ck::Result<(Self, ResumePoint)> {
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

        let mut r = ck::require(&sections, ck::SEC_MACHINE, "machine")?;
        let engine = Engine {
            hierarchy: CoherentHierarchy::restore_state(
                hcfg,
                CoherenceConfig::westmere(),
                1,
                &mut r,
            )?,
            core,
        };
        ck::consumed(&r, ck::SEC_MACHINE)?;

        let mut r = ck::require(&sections, ck::SEC_CURSOR, "cursor")?;
        if r.u64()? != 1 {
            return Err(CheckpointError::Corrupt(
                "single-core checkpoint with more than one cursor lane",
            ));
        }
        let cursor = ck::get_resume_point(&mut r)?;
        ck::consumed(&r, ck::SEC_CURSOR)?;
        Ok((engine, cursor))
    }
}

/// Deterministic store payload: traces carry no data, but the califormed
/// format conversions need real byte values flowing through the
/// hierarchy, so stores write a pattern derived from the address. Shared
/// by [`Engine`] and [`crate::multicore::MulticoreEngine`] so single- and
/// multi-core replays of the same shard write identical bytes.
///
/// This is the allocating form (public so external drivers, such as the
/// oracle's flat model, can reproduce the engine's payloads); the replay
/// path uses [`fill_store_pattern`] over a stack buffer instead.
pub fn store_pattern(addr: u64, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    fill_store_pattern(addr, &mut buf);
    buf
}

/// Fills `buf` with the deterministic store pattern for a store at
/// `addr` — the allocation-free form of [`store_pattern`] the replay
/// path threads through [`CoherentHierarchy::store`] via a stack buffer.
/// A store that wraps past the address space gets a pattern too; the
/// machine then refuses the store itself.
#[inline]
pub fn fill_store_pattern(addr: u64, buf: &mut [u8]) {
    for (i, b) in buf.iter_mut().enumerate() {
        *b = (addr.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9) >> 16) as u8;
    }
}

/// Synthesises the store payload for a store of `size` bytes at `addr`
/// and hands it to `f`, from a stack buffer: a `[u8; 64]` on the hot path
/// (`size <= 64`, the trace-pack contract), and in a cold branch one as
/// large as a [`TraceOp`] size can be (255 B), for the oversized stores
/// only a hand-built op carries. Shared by [`Engine`] and
/// [`crate::multicore::MulticoreEngine`] so every replay path writes
/// identical bytes.
#[inline]
pub(crate) fn with_store_data<R>(addr: u64, size: u8, f: impl FnOnce(&[u8]) -> R) -> R {
    let len = usize::from(size);
    if len <= MAX_ACCESS_BYTES {
        let mut buf = [0u8; MAX_ACCESS_BYTES];
        fill_store_pattern(addr, &mut buf[..len]);
        f(&buf[..len])
    } else {
        with_wide_store_data(addr, len, f)
    }
}

/// [`with_store_data`] for a store wider than a line.
#[cold]
fn with_wide_store_data<R>(addr: u64, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
    let mut buf = [0u8; u8::MAX as usize];
    fill_store_pattern(addr, &mut buf[..len]);
    f(&buf[..len])
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
        let straight = Engine::westmere().replay(&pack, None);
        let mut checkpoints = Vec::new();
        let out = Engine::westmere().replay(
            &pack,
            Some(Checkpoints {
                every: std::num::NonZeroU64::MIN,
                sink: &mut |b| checkpoints.push(b),
            }),
        );
        assert_eq!(out.stats, straight.stats);
        assert_eq!(out.exceptions, straight.exceptions);
        assert!(
            checkpoints.len() >= 4,
            "trace spans several decode batches ({} checkpoints)",
            checkpoints.len()
        );
        for (i, cp) in checkpoints.iter().enumerate() {
            let resumed = Engine::resume(&pack, cp, None)
                .unwrap_or_else(|e| panic!("resume from checkpoint {i} failed: {e}"));
            assert_eq!(resumed.stats, straight.stats, "checkpoint {i} stats");
            assert_eq!(
                resumed.exceptions, straight.exceptions,
                "checkpoint {i} exceptions"
            );
        }
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
    fn wide_hand_built_store_writes_the_store_pattern() {
        // Only a hand-built op is wider than a line (a `TraceOp` size is a
        // `u8`): its payload comes from the cold stack buffer and must
        // equal the allocating form byte for byte.
        let mut engine = Engine::westmere();
        engine.step(TraceOp::Store {
            addr: 0x1010,
            size: u8::MAX,
        });
        let mut data = Vec::new();
        engine.hierarchy.load(0, 0x1010, 255, 0, Some(&mut data));
        assert_eq!(data, store_pattern(0x1010, 255));
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
