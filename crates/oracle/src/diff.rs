//! The differential harness: replay one pack through the optimized
//! simulator and the flat reference model, and report the first
//! divergence.
//!
//! What is compared, per run:
//!
//! 1. **Delivered exceptions**, per core, in program order — full
//!    equality of fault address, access kind, exception kind and pc.
//! 2. **Final memory and blacklist state** over every line the oracle
//!    touched, byte for byte, through the simulator's functional
//!    snapshot hooks ([`Hierarchy::snapshot_line`],
//!    [`CoherentHierarchy::snapshot_line`]).
//! 3. **Architectural counters** (loads, stores, cforms, instructions,
//!    suppressed stores, delivered/suppressed exceptions) per core.
//! 4. Optional **mid-run system events**: a califorms-respecting DMA
//!    read must return exactly the oracle's view of memory at that
//!    point, and a page swap-out/swap-in cycle must be architecturally
//!    invisible (caught by the final state diff).
//!
//! Timing (cycles, latencies, cache hit rates) is deliberately *not*
//! compared — the oracle has no caches, which is the point.
//!
//! For multi-core runs the pack is dealt to per-core lanes with the
//! same deterministic round-robin the engine uses (op `i` → core
//! `i % cores`), and the oracle replays the ops in global index order
//! with per-lane masks/pcs against one shared flat memory. That is a
//! faithful oracle for **interleaving-independent** packs — the only
//! kind the fuzzer generates for multi-core (writes of a line's
//! blacklist state are lane-exclusive; shared lines carry data races
//! only, which the address-derived store payload makes benign). See
//! DESIGN.md §11.

use crate::model::{FlatMemory, OracleCore, OracleCounters};
use califorms_core::CaliformsException;
use califorms_sim::dma::DmaEngine;
use califorms_sim::hierarchy::Hierarchy;
use califorms_sim::os::SwapManager;
use califorms_sim::{
    Checkpoints, CoherentHierarchy, Engine, FaultPlan, MulticoreConfig, MulticoreEngine, RunError,
    SimStats, Source, TraceOp, TracePack,
};
use std::num::NonZeroU64;

/// A deliberate, harness-side fault injected into the engine-observed
/// state, used to prove the fuzzer catches real bugs (the seeded-fault
/// acceptance check) without corrupting the engine itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultInjection {
    /// An off-by-one (left shift) applied to a **scratch copy** of the
    /// L1 security-byte mask of every L1-resident line when the final
    /// state is snapshotted. Any case that ends with a califormed line
    /// in the L1 diverges.
    L1MaskOffByOne,
}

/// A system event interleaved into a (single-core) replay at a given op
/// index. Both events preserve architectural memory state, so the
/// oracle needs no special handling beyond knowing *when* to compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysEvent {
    /// A califorms-respecting DMA read of `[addr, addr + len)` issued
    /// before op `at_op`; its data and security-byte count must match
    /// the oracle's view of memory at that point.
    Dma {
        /// Op index the event fires before (may equal the op count to
        /// fire after the last op).
        at_op: usize,
        /// Transfer start address.
        addr: u64,
        /// Transfer length in bytes.
        len: usize,
    },
    /// A page swap-out immediately followed by swap-in before op
    /// `at_op` — must be architecturally invisible (metadata parked in
    /// the reserved kernel region and restored).
    SwapCycle {
        /// Op index the event fires before.
        at_op: usize,
        /// Page-aligned address of the 4 KB page to cycle.
        page_addr: u64,
    },
}

impl SysEvent {
    fn at_op(&self) -> usize {
        match self {
            SysEvent::Dma { at_op, .. } | SysEvent::SwapCycle { at_op, .. } => *at_op,
        }
    }
}

/// Configuration of one differential run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffConfig {
    /// `1` replays through [`Engine`], `>1` through [`MulticoreEngine`]
    /// with the deterministic round-robin pack sharding.
    pub cores: usize,
    /// Weave-turn batching depth (multi-core only; `1` = strict
    /// one-transaction-per-turn weave).
    pub weave_batch: u32,
    /// Cycle-quantum length (multi-core only).
    pub quantum: f64,
    /// Harness-side fault injection (single-core only; see
    /// [`FaultInjection`]).
    pub fault: Option<FaultInjection>,
    /// `Some(k)`: checkpoint+resume mode — additionally checkpoint the
    /// engine run every `k` quantum boundaries (single-core: every `k`
    /// decode batches), resume from **every** captured checkpoint, and
    /// require each resumed run to be bit-identical (stats, runtime and
    /// weave counters, exceptions) to the straight-through run.
    pub resume_at: Option<NonZeroU64>,
}

impl Default for DiffConfig {
    fn default() -> Self {
        Self {
            cores: 1,
            weave_batch: 64,
            quantum: 10_000.0,
            fault: None,
            resume_at: None,
        }
    }
}

impl DiffConfig {
    /// A single-core diff against [`Engine`].
    pub fn single() -> Self {
        Self::default()
    }

    /// A multi-core diff against [`MulticoreEngine`] with `cores` cores
    /// and the given weave batch.
    pub fn multicore(cores: usize, weave_batch: u32) -> Self {
        Self {
            cores,
            weave_batch,
            ..Self::default()
        }
    }
}

/// The one place a [`DiffConfig`] becomes a [`MulticoreConfig`] — every
/// multi-core arm (straight-through, resume) builds its engine here so
/// the knobs can never drift between arms.
fn engine_config(cfg: &DiffConfig) -> MulticoreConfig {
    MulticoreConfig::westmere(cfg.cores)
        .with_weave_batch(cfg.weave_batch)
        .with_quantum(cfg.quantum)
}

/// The first observed disagreement between the engine and the oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum Divergence {
    /// The delivered-exception streams differ at `index` on `core`
    /// (`None` = that side's stream ended first).
    Exceptions {
        /// Core whose streams differ.
        core: usize,
        /// Index of the first differing exception.
        index: usize,
        /// The engine's exception at that index, if any.
        engine: Option<CaliformsException>,
        /// The oracle's exception at that index, if any.
        oracle: Option<CaliformsException>,
    },
    /// Final memory/blacklist state differs at one byte. Each side is
    /// reported as *(data byte, is-security-byte)*.
    State {
        /// The differing byte's address.
        addr: u64,
        /// The engine's view.
        engine: (u8, bool),
        /// The oracle's view.
        oracle: (u8, bool),
    },
    /// An architectural counter differs on `core`.
    Counter {
        /// Core whose counter differs.
        core: usize,
        /// Counter name.
        name: &'static str,
        /// The engine's value.
        engine: u64,
        /// The oracle's value.
        oracle: u64,
    },
    /// A mid-run DMA read disagreed with the oracle's memory view at
    /// byte `index` of the transfer (or in the security-byte count,
    /// flagged by `index == usize::MAX`).
    Dma {
        /// Op index the DMA fired before.
        at_op: usize,
        /// Transfer start address.
        addr: u64,
        /// Differing byte index within the transfer.
        index: usize,
        /// The engine-side value.
        engine: u64,
        /// The oracle-side value.
        oracle: u64,
    },
    /// The engine panicked while replaying a core (multi-core replays) —
    /// a divergence by definition: the oracle never panics on a valid
    /// pack.
    EnginePanic {
        /// Core whose replay panicked.
        core: usize,
        /// The panic message.
        message: String,
    },
    /// A checkpoint+resume replay ([`DiffConfig::resume_at`]) broke the
    /// bit-identity contract: the resumed run disagreed with the
    /// straight-through run, or the checkpoint machinery itself failed.
    Resume {
        /// Index of the offending checkpoint in capture order
        /// (`usize::MAX` = the checkpointed run itself diverged before
        /// any resume was attempted).
        checkpoint: usize,
        /// What disagreed.
        detail: String,
    },
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Divergence::Exceptions {
                core,
                index,
                engine,
                oracle,
            } => write!(
                f,
                "core {core}: exception stream differs at index {index}: \
                 engine={engine:?} oracle={oracle:?}"
            ),
            Divergence::State {
                addr,
                engine,
                oracle,
            } => write!(
                f,
                "final state differs at {addr:#x}: engine=(byte {:#04x}, security {}) \
                 oracle=(byte {:#04x}, security {})",
                engine.0, engine.1, oracle.0, oracle.1
            ),
            Divergence::Counter {
                core,
                name,
                engine,
                oracle,
            } => write!(
                f,
                "core {core}: counter {name} differs: engine={engine} oracle={oracle}"
            ),
            Divergence::Dma {
                at_op,
                addr,
                index,
                engine,
                oracle,
            } => write!(
                f,
                "DMA before op {at_op} at {addr:#x} differs at byte {index}: \
                 engine={engine} oracle={oracle}"
            ),
            Divergence::EnginePanic { core, message } => {
                write!(f, "engine replay of core {core} panicked: {message}")
            }
            Divergence::Resume { checkpoint, detail } => {
                write!(f, "checkpoint {checkpoint} resume diverged: {detail}")
            }
        }
    }
}

/// Compares two delivered-exception streams.
fn diff_exceptions(
    core: usize,
    engine: &[CaliformsException],
    oracle: &[CaliformsException],
) -> Option<Divergence> {
    let n = engine.len().max(oracle.len());
    for i in 0..n {
        let e = engine.get(i).copied();
        let o = oracle.get(i).copied();
        if e != o {
            return Some(Divergence::Exceptions {
                core,
                index: i,
                engine: e,
                oracle: o,
            });
        }
    }
    None
}

/// Compares the semantic counters of one core.
fn diff_counters(core: usize, stats: &SimStats, oracle: OracleCounters) -> Option<Divergence> {
    let pairs: [(&'static str, u64, u64); 7] = [
        ("instructions", stats.instructions, oracle.instructions),
        ("loads", stats.loads, oracle.loads),
        ("stores", stats.stores, oracle.stores),
        ("cforms", stats.cforms, oracle.cforms),
        (
            "stores_suppressed",
            stats.stores_suppressed,
            oracle.stores_suppressed,
        ),
        (
            "exceptions_delivered",
            stats.exceptions_delivered,
            oracle.exceptions_delivered,
        ),
        (
            "exceptions_suppressed",
            stats.exceptions_suppressed,
            oracle.exceptions_suppressed,
        ),
    ];
    for (name, e, o) in pairs {
        if e != o {
            return Some(Divergence::Counter {
                core,
                name,
                engine: e,
                oracle: o,
            });
        }
    }
    None
}

/// Compares one line's engine snapshot against the oracle's canonical
/// line, byte by byte.
fn diff_line(
    line_addr: u64,
    engine_data: &[u8; 64],
    engine_mask: u64,
    oracle: &califorms_core::CaliformedLine,
) -> Option<Divergence> {
    for (i, &byte) in engine_data.iter().enumerate() {
        let e = (byte, engine_mask >> i & 1 == 1);
        let o = (oracle.read_byte(i), oracle.is_security_byte(i));
        if e != o {
            return Some(Divergence::State {
                addr: line_addr + i as u64,
                engine: e,
                oracle: o,
            });
        }
    }
    None
}

/// Diffs the final state over the oracle's touched lines, reading the
/// engine through `snapshot`, with the optional scratch-copy fault
/// applied to lines for which `faulted` returns true.
fn diff_state(
    mem: &FlatMemory,
    snapshot: impl Fn(u64) -> califorms_core::CaliformedLine,
    faulted: impl Fn(u64) -> bool,
) -> Option<Divergence> {
    for (line_addr, oline) in mem.lines() {
        let eline = snapshot(line_addr);
        let mut emask = eline.security_mask();
        if faulted(line_addr) {
            // The injected off-by-one: a scratch copy of the L1
            // security-byte mask, shifted one position.
            emask <<= 1;
        }
        if let Some(d) = diff_line(line_addr, eline.data(), emask, oline) {
            return Some(d);
        }
    }
    None
}

/// Replays `pack` through the configured engine and the oracle and
/// returns the first divergence (`None` = byte-exact agreement).
///
/// `events` (single-core only) interleave DMA reads / swap cycles into
/// the replay; pass `&[]` for a pure replay. For `cfg.cores > 1` the
/// pack must be interleaving-independent (the fuzzer's multi-core
/// grammar guarantees this) and `events` must be empty.
///
/// # Panics
///
/// Panics where the engines would (corrupt pack, misaligned CFORM on
/// the main replay path, unbalanced mask pops) and if events are passed
/// to a multi-core diff.
pub fn diff_pack(pack: &TracePack, events: &[SysEvent], cfg: &DiffConfig) -> Option<Divergence> {
    assert!(cfg.cores >= 1, "need at least one core");
    if cfg.cores == 1 {
        diff_single(pack, events, cfg)
    } else {
        assert!(events.is_empty(), "system events are single-core only");
        diff_multicore(pack, cfg)
    }
}

fn apply_event(hierarchy: &mut Hierarchy, mem: &FlatMemory, ev: &SysEvent) -> Option<Divergence> {
    match *ev {
        SysEvent::Dma { at_op, addr, len } => {
            let t = DmaEngine::respecting().read(hierarchy, addr, len);
            let (expect, security) = mem.read_bytes(addr, len);
            for (i, (&e, &o)) in t.data.iter().zip(expect.iter()).enumerate() {
                if e != o {
                    return Some(Divergence::Dma {
                        at_op,
                        addr,
                        index: i,
                        engine: u64::from(e),
                        oracle: u64::from(o),
                    });
                }
            }
            if t.security_bytes_seen != security {
                return Some(Divergence::Dma {
                    at_op,
                    addr,
                    index: usize::MAX,
                    engine: t.security_bytes_seen as u64,
                    oracle: security as u64,
                });
            }
            None
        }
        SysEvent::SwapCycle { page_addr, .. } => {
            let mut swap = SwapManager::new();
            swap.swap_out(hierarchy, page_addr);
            swap.swap_in(hierarchy, page_addr);
            None
        }
    }
}

fn diff_single(pack: &TracePack, events: &[SysEvent], cfg: &DiffConfig) -> Option<Divergence> {
    let ops: Vec<TraceOp> = pack.to_vec();
    let mut events: Vec<&SysEvent> = events.iter().collect();
    events.sort_by_key(|e| e.at_op());
    let mut next_event = 0usize;

    let mut engine = Engine::westmere();
    let mut mem = FlatMemory::new();
    let mut core = OracleCore::new();

    for (i, &op) in ops.iter().enumerate() {
        while next_event < events.len() && events[next_event].at_op() <= i {
            if let Some(d) = apply_event(&mut engine.hierarchy, &mem, events[next_event]) {
                return Some(d);
            }
            next_event += 1;
        }
        engine.step(op);
        core.step(&mut mem, op);
    }
    while next_event < events.len() {
        if let Some(d) = apply_event(&mut engine.hierarchy, &mem, events[next_event]) {
            return Some(d);
        }
        next_event += 1;
    }

    let hierarchy = &engine.hierarchy;
    let fault = cfg.fault;
    if let Some(d) = diff_state(
        &mem,
        |line| hierarchy.snapshot_line(line),
        |line| matches!(fault, Some(FaultInjection::L1MaskOffByOne)) && hierarchy.l1_contains(line),
    ) {
        return Some(d);
    }
    if let Some(d) = diff_exceptions(0, engine.delivered_exceptions(), core.exceptions()) {
        return Some(d);
    }
    let outcome = engine.finish();
    if let Some(d) = diff_counters(0, &outcome.stats, core.counters()) {
        return Some(d);
    }
    if let Some(interval) = cfg.resume_at {
        return diff_resume_single(pack, interval);
    }
    None
}

/// Oracle replay of a pack dealt to `cores` lanes with the engine's
/// round-robin (op `i` → lane `i % cores`), in global index order
/// against one shared flat memory.
fn oracle_replay_lanes(pack: &TracePack, cores: usize) -> (FlatMemory, Vec<OracleCore>) {
    let mut mem = FlatMemory::new();
    let mut lanes: Vec<OracleCore> = (0..cores).map(|_| OracleCore::new()).collect();
    for (i, op) in pack.iter().enumerate() {
        lanes[i % cores].step(&mut mem, op);
    }
    (mem, lanes)
}

fn diff_multicore(pack: &TracePack, cfg: &DiffConfig) -> Option<Divergence> {
    let mc = MulticoreEngine::new(engine_config(cfg));
    let source = Source::Pack {
        pack,
        checkpoints: None,
    };
    let (outcome, hierarchy): (_, CoherentHierarchy) = match mc.replay(source) {
        Ok(pair) => pair,
        Err(err) => {
            // An engine panic is a divergence only if the oracle replays
            // the same pack cleanly. On an *invalid* stream (unbalanced
            // mask pop, misaligned CFORM — which a shrinker's candidate
            // reductions can manufacture) both sides fault: that is
            // agreement, not a counterexample.
            let (core, message) = match err {
                RunError::Panic(p) => (p.core, p.message),
                other => (other.core().unwrap_or(0), other.to_string()),
            };
            let cores = cfg.cores;
            let oracle_panics = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                oracle_replay_lanes(pack, cores);
            }))
            .is_err();
            return if oracle_panics {
                None
            } else {
                Some(Divergence::EnginePanic { core, message })
            };
        }
    };

    if let Some(interval) = cfg.resume_at {
        if let Some(d) = diff_resume_multicore(pack, cfg, interval, &outcome) {
            return Some(d);
        }
    }

    let (mem, lanes) = oracle_replay_lanes(pack, cfg.cores);

    if let Some(d) = diff_state(&mem, |line| hierarchy.snapshot_line(line), |_| false) {
        return Some(d);
    }
    for (c, lane) in lanes.iter().enumerate() {
        if let Some(d) = diff_exceptions(c, &outcome.exceptions[c], lane.exceptions()) {
            return Some(d);
        }
        if let Some(d) = diff_counters(c, &outcome.stats.per_core[c], lane.counters()) {
            return Some(d);
        }
    }
    None
}

/// The `resume_at` check, multi-core: checkpoint the run every
/// `interval` quantum boundaries, resume from **every** captured
/// checkpoint, and require bit-identity (stats incl. runtime/weave
/// counters, exceptions) with the straight-through `reference`.
fn diff_resume_multicore(
    pack: &TracePack,
    cfg: &DiffConfig,
    every: NonZeroU64,
    reference: &califorms_sim::MulticoreOutcome,
) -> Option<Divergence> {
    let mc = MulticoreEngine::new(engine_config(cfg));
    let mut checkpoints = Vec::new();
    let mut sink = |bytes| checkpoints.push(bytes);
    let source = Source::Pack {
        pack,
        checkpoints: Some(Checkpoints {
            every,
            sink: &mut sink,
        }),
    };
    let full = match mc.replay(source) {
        Ok((full, _)) => full,
        Err(err) => {
            return Some(Divergence::Resume {
                checkpoint: usize::MAX,
                detail: format!("checkpointed run failed: {err}"),
            })
        }
    };
    if full.stats != reference.stats || full.exceptions != reference.exceptions {
        return Some(Divergence::Resume {
            checkpoint: usize::MAX,
            detail: "checkpoint capture perturbed the run".into(),
        });
    }
    for (i, bytes) in checkpoints.iter().enumerate() {
        match MulticoreEngine::resume(pack, bytes, None) {
            Ok((resumed, _)) => {
                if resumed.stats != reference.stats {
                    return Some(Divergence::Resume {
                        checkpoint: i,
                        detail: "resumed stats differ from the straight-through run".into(),
                    });
                }
                if resumed.exceptions != reference.exceptions {
                    return Some(Divergence::Resume {
                        checkpoint: i,
                        detail: "resumed exceptions differ from the straight-through run".into(),
                    });
                }
            }
            Err(err) => {
                return Some(Divergence::Resume {
                    checkpoint: i,
                    detail: format!("resume failed: {err}"),
                })
            }
        }
    }
    None
}

/// The `resume_at` check, single-core: as
/// [`diff_resume_multicore`], with the interval counted in decode
/// batches ([`Engine::REPLAY_BATCH`] ops each).
fn diff_resume_single(pack: &TracePack, every: NonZeroU64) -> Option<Divergence> {
    let reference = Engine::westmere().replay(pack, None);
    let mut checkpoints = Vec::new();
    let full = Engine::westmere().replay(
        pack,
        Some(Checkpoints {
            every,
            sink: &mut |bytes| checkpoints.push(bytes),
        }),
    );
    if full != reference {
        return Some(Divergence::Resume {
            checkpoint: usize::MAX,
            detail: "checkpoint capture perturbed the run".into(),
        });
    }
    for (i, bytes) in checkpoints.iter().enumerate() {
        match Engine::resume(pack, bytes, None) {
            Ok(resumed) if resumed == reference => {}
            Ok(_) => {
                return Some(Divergence::Resume {
                    checkpoint: i,
                    detail: "resumed outcome differs from the straight-through run".into(),
                })
            }
            Err(err) => {
                return Some(Divergence::Resume {
                    checkpoint: i,
                    detail: format!("resume failed: {err}"),
                })
            }
        }
    }
    None
}

/// One case of the crash/corruption fault campaign (DESIGN.md §14) —
/// the harness-driven faults beyond [`FaultInjection::L1MaskOffByOne`].
/// Every case must surface as a *typed* error; [`run_fault_campaign`]
/// verifies that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCampaign {
    /// Kill `core`'s replay (in-process panic hook) at the start of its
    /// bound phase in quantum `quantum` — must surface as
    /// `RunError::Panic`.
    KillWorker {
        /// Core whose replay is killed.
        core: usize,
        /// Quantum at which the kill fires.
        quantum: u64,
    },
    /// Truncate a captured checkpoint to `keep` bytes before resuming —
    /// must surface as `RunError::Checkpoint`, never a panic.
    TruncateCheckpoint {
        /// Bytes of the checkpoint kept (the rest is cut).
        keep: usize,
    },
    /// Flip one byte (XOR `0xFF` at `at % len`) in a captured checkpoint
    /// before resuming — must be caught typed (checksum or field
    /// validation), never a panic.
    FlipCheckpointByte {
        /// Byte position to corrupt (taken modulo the checkpoint size).
        at: usize,
    },
}

/// Runs one [`FaultCampaign`] case against a multi-core replay of
/// `pack` and verifies the fault surfaced as the *typed* error the case
/// demands. `Ok` carries a description of the observed error;
/// `Err` means the campaign found a robustness bug (wrong error class,
/// or no error at all).
///
/// The kill case needs `cfg.cores ≥ 2`.
pub fn run_fault_campaign(
    pack: &TracePack,
    campaign: FaultCampaign,
    cfg: &DiffConfig,
) -> Result<String, String> {
    let base = MulticoreConfig::westmere(cfg.cores.max(2))
        .with_weave_batch(cfg.weave_batch)
        .with_quantum(cfg.quantum);
    match campaign {
        FaultCampaign::KillWorker { core, quantum } => {
            let mc = MulticoreEngine::new(base.with_fault(FaultPlan {
                kill_at: Some((core, quantum)),
            }));
            match mc.replay(Source::Pack {
                pack,
                checkpoints: None,
            }) {
                Err(RunError::Panic(p)) if p.core == core => Ok(format!("typed worker panic: {p}")),
                Err(other) => Err(format!("wrong error class for a kill: {other}")),
                Ok(_) => Err("killed core went unnoticed".into()),
            }
        }
        FaultCampaign::TruncateCheckpoint { keep } => {
            let bytes = first_checkpoint(pack, &base)?;
            let cut = &bytes[..keep.min(bytes.len().saturating_sub(1))];
            match MulticoreEngine::resume(pack, cut, None) {
                Err(RunError::Checkpoint(e)) => Ok(format!("typed checkpoint error: {e}")),
                Err(other) => Err(format!("wrong error class for truncation: {other}")),
                Ok(_) => Err(format!("truncation to {} bytes went unnoticed", cut.len())),
            }
        }
        FaultCampaign::FlipCheckpointByte { at } => {
            let mut bytes = first_checkpoint(pack, &base)?;
            let at = at % bytes.len();
            bytes[at] ^= 0xFF;
            match MulticoreEngine::resume(pack, &bytes, None) {
                Err(RunError::Checkpoint(e)) => Ok(format!("typed checkpoint error: {e}")),
                Err(other) => Err(format!("wrong error class for corruption: {other}")),
                Ok(_) => Err(format!("flipped byte {at} went unnoticed")),
            }
        }
    }
}

/// The first checkpoint of a short checkpointed replay — the corpus the
/// truncation/corruption campaign cases mutate.
fn first_checkpoint(pack: &TracePack, base: &MulticoreConfig) -> Result<Vec<u8>, String> {
    // Stream the checkpoints and keep only the first — accumulating
    // them all at interval 1 is O(quanta × checkpoint size) memory.
    let mut first = None;
    let mut sink = |bytes| {
        if first.is_none() {
            first = Some(bytes);
        }
    };
    let source = Source::Pack {
        pack,
        checkpoints: Some(Checkpoints {
            every: NonZeroU64::MIN,
            sink: &mut sink,
        }),
    };
    MulticoreEngine::new(*base)
        .replay(source)
        .map_err(|e| format!("checkpointed run failed: {e}"))?;
    first.ok_or_else(|| "run too short to checkpoint".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_pack_agrees_single_core() {
        let pack = TracePack::from_ops([
            TraceOp::Store {
                addr: 0x1000,
                size: 8,
            },
            TraceOp::Cform {
                line_addr: 0x1000,
                attrs: 1 << 20,
                mask: 1 << 20,
            },
            TraceOp::Load {
                addr: 0x1014,
                size: 1,
            },
            TraceOp::Load {
                addr: 0x1000,
                size: 8,
            },
        ]);
        assert_eq!(diff_pack(&pack, &[], &DiffConfig::single()), None);
    }

    #[test]
    fn simple_pack_agrees_multicore() {
        let ops: Vec<TraceOp> = (0..64u64)
            .map(|i| TraceOp::Store {
                addr: 0x10_0000 + (i % 2) * 0x8_0000 + (i / 2) * 8,
                size: 8,
            })
            .collect();
        let pack = TracePack::from_ops(ops);
        assert_eq!(diff_pack(&pack, &[], &DiffConfig::multicore(2, 1)), None);
        assert_eq!(diff_pack(&pack, &[], &DiffConfig::multicore(2, 64)), None);
    }

    #[test]
    fn injected_mask_fault_is_caught() {
        let pack = TracePack::from_ops([TraceOp::Cform {
            line_addr: 0x2000,
            attrs: 1 << 7,
            mask: 1 << 7,
        }]);
        let cfg = DiffConfig {
            fault: Some(FaultInjection::L1MaskOffByOne),
            ..DiffConfig::single()
        };
        let d = diff_pack(&pack, &[], &cfg).expect("scratch-copy fault must diverge");
        assert!(matches!(d, Divergence::State { .. }));
        // Without the fault the same pack agrees.
        assert_eq!(diff_pack(&pack, &[], &DiffConfig::single()), None);
    }

    #[test]
    fn invalid_stream_faulting_on_both_sides_is_agreement() {
        // An unbalanced MaskPop (the kind of stream a shrinker's
        // candidate reductions manufacture) panics the engine replay
        // *and* the oracle: that is agreement, not an EnginePanic
        // divergence — otherwise shrinking would converge on unrelated
        // invalid packs.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let pack = TracePack::from_ops([TraceOp::Exec(1), TraceOp::MaskPop]);
        let d = diff_pack(&pack, &[], &DiffConfig::multicore(2, 64));
        std::panic::set_hook(prev_hook);
        assert_eq!(d, None);
    }

    #[test]
    fn dma_event_checks_memory_view_mid_run() {
        let pack = TracePack::from_ops([
            TraceOp::Store {
                addr: 0x3000,
                size: 16,
            },
            TraceOp::Cform {
                line_addr: 0x3000,
                attrs: 1 << 4,
                mask: 1 << 4,
            },
            TraceOp::Exec(10),
        ]);
        let events = [SysEvent::Dma {
            at_op: 2,
            addr: 0x3000,
            len: 16,
        }];
        assert_eq!(diff_pack(&pack, &events, &DiffConfig::single()), None);
    }

    /// A workload busy enough to cross several quantum boundaries on
    /// every core count the resume matrix uses.
    fn resume_ops() -> Vec<TraceOp> {
        let mut ops = Vec::new();
        for i in 0..600u64 {
            ops.push(TraceOp::Exec((i % 37) as u32 + 1));
            ops.push(TraceOp::Store {
                addr: 0x4000 + (i % 96) * 8,
                size: 8,
            });
            ops.push(TraceOp::Load {
                addr: 0x4000 + ((i * 7) % 96) * 8,
                size: 8,
            });
        }
        ops
    }

    /// The acceptance matrix: checkpoint+resume bit-identity at
    /// 1/2/4 cores × weave batches {1, 64}.
    #[test]
    fn resume_mode_agrees_across_core_and_batch_matrix() {
        let pack = TracePack::from_ops(resume_ops());
        for cores in [1usize, 2, 4] {
            for batch in [1u32, 64] {
                let cfg = DiffConfig {
                    resume_at: NonZeroU64::new(2),
                    ..DiffConfig::multicore(cores, batch)
                };
                assert_eq!(
                    diff_pack(&pack, &[], &cfg),
                    None,
                    "cores={cores} batch={batch}"
                );
            }
        }
    }

    /// A workload with genuine cross-core coherence traffic: every core
    /// hammers the same handful of lines (contended weave transactions),
    /// interleaved with core-private strides (private ones that batch).
    fn sharing_ops(cores: u64) -> Vec<TraceOp> {
        let mut ops = Vec::new();
        for i in 0..400u64 {
            for c in 0..cores {
                ops.push(TraceOp::Exec((i % 23) as u32 + 1));
                // Hot shared line (false sharing across all cores).
                ops.push(TraceOp::Store {
                    addr: 0x8000 + (i % 8) * 8,
                    size: 8,
                });
                // Core-private stride.
                ops.push(TraceOp::Load {
                    addr: 0x2_0000 + c * 0x1000 + (i % 64) * 8,
                    size: 8,
                });
            }
        }
        ops
    }

    /// The contended half of the weave matrix (the mostly-private
    /// `resume_ops` half is `resume_mode_agrees_across_core_and_batch_matrix`):
    /// with every core hammering shared lines, the round-robin weave
    /// agrees with the oracle at 2/4 cores × weave batches {1, 64}, and
    /// every checkpoint+resume replay is bit-identical to the
    /// straight-through run.
    #[test]
    fn weave_agrees_across_core_and_batch_matrix() {
        for cores in [2usize, 4] {
            let pack = TracePack::from_ops(sharing_ops(cores as u64));
            for batch in [1u32, 64] {
                let cfg = DiffConfig {
                    resume_at: NonZeroU64::new(2),
                    ..DiffConfig::multicore(cores, batch)
                };
                assert_eq!(
                    diff_pack(&pack, &[], &cfg),
                    None,
                    "cores={cores} batch={batch}"
                );
            }
        }
    }

    /// Every campaign case must surface as its typed error class.
    #[test]
    fn fault_campaign_cases_surface_typed() {
        let pack = TracePack::from_ops(resume_ops());
        let cfg = DiffConfig::multicore(2, 64);
        for campaign in [
            FaultCampaign::KillWorker {
                core: 1,
                quantum: 0,
            },
            FaultCampaign::TruncateCheckpoint { keep: 9 },
            FaultCampaign::FlipCheckpointByte { at: 1234 },
        ] {
            run_fault_campaign(&pack, campaign, &cfg)
                .unwrap_or_else(|e| panic!("{campaign:?}: {e}"));
        }
    }

    #[test]
    fn swap_cycle_is_architecturally_invisible() {
        let pack = TracePack::from_ops([
            TraceOp::Store {
                addr: 0x10_0000,
                size: 8,
            },
            TraceOp::Cform {
                line_addr: 0x10_0000,
                attrs: 1 << 9,
                mask: 1 << 9,
            },
            TraceOp::Load {
                addr: 0x10_0000,
                size: 8,
            },
        ]);
        let events = [SysEvent::SwapCycle {
            at_op: 2,
            page_addr: 0x10_0000,
        }];
        assert_eq!(diff_pack(&pack, &events, &DiffConfig::single()), None);
    }
}
