//! The multi-core engine: sharded trace replay over the MESI-coherent
//! hierarchy, on the calling thread.
//!
//! Each core replays its own trace shard. Simulated time advances in
//! **cycle quanta**, and every quantum runs in two phases (the bound/weave
//! idea of ZSim, adapted — see DESIGN.md §7 and §10):
//!
//! 1. **Bound phase** — each core in turn, in core order, replays the ops
//!    its private L1 completes without a directory transaction: hits with
//!    sufficient MESI permission, plain `Exec`, mask ops. A core reads
//!    and writes only its own replay cursor, decoder lane and L1, so the
//!    order in which the cores take their bound phases cannot change any
//!    result. A core stops at its first op needing a transaction, or at
//!    quantum end.
//! 2. **Weave phase** — cores are resumed in a deterministic round-robin.
//!    A turn executes up to [`RuntimeConfig::weave_batch`] coherence
//!    transactions through the full MESI machinery against the shared
//!    levels, but a transaction that involved another core (recall,
//!    invalidation, cross-core upgrade) always ends the turn — so a run
//!    of independent private misses costs one turn instead of N, while
//!    intra-quantum line ping-pong (false sharing, lock bouncing) keeps
//!    its transaction-granular round-robin interleave.
//!
//! **Determinism.** The bound phase only ever consumes permissions
//! granted by earlier (totally ordered) weave phases, and the weave is
//! totally ordered, so a run's result — every counter, cycle count and
//! exception, including the [`RuntimeStats`] — is **bit-identical**
//! across runs (tested in `crates/sim/tests/multicore.rs` and
//! `crates/sim/tests/parallel_runtime.rs`). The trade-off is unchanged
//! from any bound-weave simulator: cross-core visibility is
//! quantum-granular, at the fixed [`MulticoreConfig::quantum`].
//!
//! Packed traces replay without pre-sharding: [`Source::Pack`] gives
//! every core its own [`PackDecoder`] lane over the same pack (core `c`
//! keeps ops with index ≡ `c` mod `cores`), so decode runs a ring at a
//! time inside replay instead of materialising `Vec<TraceOp>` shards up
//! front; [`Source::Packs`] does the same for per-core packs.
//! [`MulticoreEngine::replay`] runs any [`Source`];
//! [`MulticoreEngine::resume`] continues a checkpointed [`Source::Pack`]
//! run.

use crate::checkpoint::{self as ck, CheckpointError, Checkpoints};
use crate::coherence::{Access, CoherenceConfig, CoherentHierarchy, CoreL1};
use crate::cpu::{CoreConfig, CoreState};
use crate::engine::with_store_data;
use crate::hierarchy::{HierarchyConfig, MemResult};
use crate::runtime::{RuntimeConfig, RuntimeStats, RuntimeTiming};
use crate::stats::{
    CoreWeaveStats, MulticoreStats, SimStats, WeaveBreakdown, WeaveTimingBreakdown,
};
use crate::trace::TraceOp;
use crate::tracepack::{PackDecoder, TracePack};
use califorms_core::{CaliformsException, CformInstruction};
use califorms_telemetry::{LogHistogram, Phase, TelemetryClock, TelemetryReport, TrackRecorder};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Configuration of a [`MulticoreEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MulticoreConfig {
    /// Number of cores (= trace shards).
    pub cores: usize,
    /// Quantum length in cycles. Coherence actions of one core become
    /// visible to the others' local fast paths at quantum boundaries;
    /// shorter quanta interleave finer but synchronise more.
    pub quantum: f64,
    /// Geometry/latency of the shared hierarchy (per-core L1s use the
    /// L1D parameters; L2/L3/DRAM are shared). The `stream_prefetcher`
    /// and `prefetch_residual` fields are honoured at one core, where the
    /// machine is exactly [`crate::engine::Engine`]'s, and ignored at two
    /// or more, whose L1s have no prefetcher (DESIGN.md §7).
    pub hierarchy: HierarchyConfig,
    /// Coherence-fabric latencies.
    pub coherence: CoherenceConfig,
    /// Core timing model, applied to every core.
    pub core: CoreConfig,
    /// Runtime knobs (weave batching).
    pub runtime: RuntimeConfig,
    /// Record telemetry: per-core phase spans, latency histograms and the
    /// counter snapshot on [`MulticoreOutcome::telemetry`]. Off by
    /// default — a disabled run takes no per-op clock reads and allocates
    /// nothing (the recording hooks are `Option`-gated to a no-op sink).
    /// Enabling it never perturbs results: spans are host-time-only, and
    /// every counter in the snapshot is derived from the deterministic
    /// stats the run produces anyway.
    pub telemetry: bool,
    /// Fault-injection hooks for robustness tests (DESIGN.md §14). The
    /// default plan injects nothing and costs nothing on the hot path.
    pub fault: FaultPlan,
}

/// Test/bench-only fault-injection hooks (DESIGN.md §14). A plan that
/// never fires leaves the run bit-identical to an unfaulted one; a plan
/// that fires surfaces as a typed [`RunError::Panic`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// `Some((core, quantum))`: panic that core's replay at the start of
    /// its bound phase in that quantum — the in-process abrupt-death
    /// probe (the `crashrecovery` bench additionally does a real
    /// `kill -9` on a child process).
    pub kill_at: Option<(usize, u64)>,
}

impl FaultPlan {
    /// Fires this plan's hook for `core` at `quantum` (called at the top
    /// of every bound phase, inside its `catch_unwind`).
    fn fire(&self, core: usize, quantum: u64) {
        if self.kill_at == Some((core, quantum)) {
            panic!("fault injection: kill core {core} at quantum {quantum}");
        }
    }
}

impl MulticoreConfig {
    /// The paper's Table 3 machine replicated `cores` times around a
    /// shared L2/L3, with a 10k-cycle quantum and the default runtime.
    pub fn westmere(cores: usize) -> Self {
        Self {
            cores,
            quantum: 10_000.0,
            hierarchy: HierarchyConfig::westmere(),
            coherence: CoherenceConfig::westmere(),
            core: CoreConfig::westmere(),
            runtime: RuntimeConfig::default(),
            telemetry: false,
            fault: FaultPlan::default(),
        }
    }

    /// Same machine with a workload-specific memory-level parallelism.
    pub fn with_overlap(mut self, overlap: f64) -> Self {
        self.core = self.core.with_overlap(overlap);
        self
    }

    /// Same machine with a different quantum length.
    pub fn with_quantum(mut self, quantum: f64) -> Self {
        self.quantum = quantum;
        self
    }

    /// Same machine with a different weave-turn batching depth (`1`
    /// reproduces the strict one-transaction-per-turn weave).
    pub fn with_weave_batch(mut self, batch: u32) -> Self {
        self.runtime.weave_batch = batch;
        self
    }

    /// Same machine with telemetry recording switched on (spans,
    /// histograms and the counter snapshot on
    /// [`MulticoreOutcome::telemetry`]).
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }

    /// Same machine with a fault-injection plan armed.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }
}

/// Outcome of a multi-core run.
#[derive(Debug, Clone)]
pub struct MulticoreOutcome {
    /// Per-core and combined statistics (bit-identical across runs,
    /// including the [`RuntimeStats`] inside).
    pub stats: MulticoreStats,
    /// Delivered exceptions per core, in program order, capped at
    /// [`crate::cpu::MAX_RECORDED_EXCEPTIONS`] per core.
    pub exceptions: Vec<Vec<CaliformsException>>,
    /// Host wall-clock per phase — scheduling-dependent by nature, so
    /// deliberately *outside* [`Self::stats`] and every bit-identity
    /// comparison.
    pub timing: RuntimeTiming,
    /// The telemetry report (spans, histograms, counter snapshot);
    /// `Some` only when [`MulticoreConfig::telemetry`] was set.
    pub telemetry: Option<TelemetryReport>,
}

/// Where a [`MulticoreEngine::replay`] takes each core's ops from.
pub enum Source<'p, 's> {
    /// One materialised shard per core.
    Shards(Vec<Vec<TraceOp>>),
    /// One pre-encoded pack per core (e.g. from `MtWorkload::to_packs`),
    /// each decoded through its core's own lane as the core replays.
    /// Bit-identical in stats and exceptions to [`Source::Shards`] of the
    /// packs' ops.
    Packs(&'p [TracePack]),
    /// One pack shared by every core and dealt round-robin as
    /// [`shard_ops`] deals it, without materialising the shards: every
    /// core owns a [`PackDecoder`] lane over the pack and decodes its
    /// ops a ring at a time as it replays. Bit-identical in stats and
    /// exceptions to [`Source::Shards`] of `shard_ops(pack.iter(), cores)`.
    /// The one source that can checkpoint, because it is the one source
    /// [`MulticoreEngine::resume`] can continue.
    Pack {
        /// The shared trace.
        pack: &'p TracePack,
        /// Checkpoint every `every` quanta into the sink.
        checkpoints: Option<Checkpoints<'s>>,
    },
}

/// Ops a packed shard source decodes ahead into its core-local ring.
/// 256 ops × 32 B = 8 KB: big enough to amortise refill dispatch, small
/// enough to stay resident in the host L1 alongside the decode cursor.
const SOURCE_RING: usize = 256;

/// Where a core's ops come from: a materialised shard, or a core-local
/// decoder lane over a (possibly shared) trace pack.
#[derive(Debug)]
enum ShardSource<'p> {
    /// Pre-materialised `Vec<TraceOp>` shard with a cursor.
    Slice { ops: Vec<TraceOp>, pos: usize },
    /// A decoder lane: this core decodes the pack itself as it replays
    /// and keeps the ops with global index ≡ `lane` (mod `stride`),
    /// batching them through a fixed ring. `stride == 1` consumes a
    /// whole (per-core) pack; `stride == cores` round-robin-shards one
    /// shared pack, bit-identical to [`shard_ops`]. The global index of
    /// the next op is the decoder's `ops_read`.
    Pack {
        dec: PackDecoder<'p>,
        lane: u64,
        stride: u64,
        ring: Vec<TraceOp>,
        head: usize,
    },
}

impl ShardSource<'_> {
    /// The op at the cursor (`None` once the shard is exhausted).
    ///
    /// # Panics
    ///
    /// Panics on a corrupt pack (packs built by [`TracePack::from_ops`]
    /// or validated by [`TracePack::from_bytes`] are always well-formed).
    #[inline]
    fn peek(&mut self) -> Option<TraceOp> {
        match self {
            ShardSource::Slice { ops, pos } => ops.get(*pos).copied(),
            ShardSource::Pack {
                dec,
                lane,
                stride,
                ring,
                head,
            } => {
                if *head == ring.len() {
                    refill(dec, *lane, *stride, ring);
                    *head = 0;
                }
                ring.get(*head).copied()
            }
        }
    }

    /// Consumes the op at the cursor.
    #[inline]
    fn advance(&mut self) {
        match self {
            ShardSource::Slice { pos, .. } => *pos += 1,
            ShardSource::Pack { head, .. } => *head += 1,
        }
    }

    /// Decode progress `(ops, bytes)` of a pack lane (`None` for a
    /// materialised shard) — the `decode.*` telemetry counters.
    fn decode_progress(&self) -> Option<(u64, u64)> {
        match self {
            ShardSource::Slice { .. } => None,
            ShardSource::Pack { dec, .. } => Some((dec.ops_read(), dec.bytes_consumed())),
        }
    }
}

/// A fresh decoder lane over `pack` that keeps the ops with global index
/// ≡ `lane` (mod `stride`).
fn pack_lane(pack: &TracePack, lane: u64, stride: u64) -> ShardSource<'_> {
    ShardSource::Pack {
        dec: pack.decoder(),
        lane,
        stride,
        ring: Vec::with_capacity(SOURCE_RING),
        head: 0,
    }
}

/// Refills a decoder lane's ring with up to [`SOURCE_RING`] of its ops,
/// one [`PackDecoder::next_batch`] call per chunk. A stride-1 lane
/// decodes straight into the ring. A strided lane decodes into a stack
/// batch and keeps every `stride`-th op from its phase; each batch ends
/// at the op that fills the ring, so the lane never decodes an op it
/// cannot keep. Out of line — it runs once per [`SOURCE_RING`] committed
/// ops, and keeping it out of `peek` lets the per-op path inline.
#[cold]
fn refill(dec: &mut PackDecoder<'_>, lane: u64, stride: u64, ring: &mut Vec<TraceOp>) {
    if stride == 1 {
        ring.resize(SOURCE_RING, TraceOp::Exec(0));
        let n = decode_batch(dec, ring);
        ring.truncate(n);
        return;
    }
    ring.clear();
    let mut batch = [TraceOp::Exec(0); SOURCE_RING];
    let step = stride as usize;
    while ring.len() < SOURCE_RING {
        // Ops to pass over before the next one on this lane.
        let phase = ((lane + stride - dec.ops_read() % stride) % stride) as usize;
        let want = (phase + (SOURCE_RING - ring.len() - 1) * step + 1).min(SOURCE_RING);
        let n = decode_batch(dec, &mut batch[..want]);
        ring.extend(batch[..n].iter().skip(phase).step_by(step));
        if n < want {
            break;
        }
    }
}

/// One batch from a lane's decoder.
#[inline(always)]
fn decode_batch(dec: &mut PackDecoder<'_>, out: &mut [TraceOp]) -> usize {
    let decoded = dec.next_batch(out);
    // analyze::allow(hot-path-unwrap): the pack was validated by from_bytes before replay started
    decoded.expect("validated pack is well-formed")
}

/// Per-core replay state: the shard source, the core's architectural
/// state and its weave counters.
#[derive(Debug)]
struct CoreReplay<'p> {
    id: usize,
    src: ShardSource<'p>,
    state: CoreState,
    /// Deterministic per-core weave counters (the per-core axis of
    /// [`WeaveBreakdown`]; bumped on the serial weave path only).
    weave: CoreWeaveStats,
}

impl<'p> CoreReplay<'p> {
    fn new(id: usize, src: ShardSource<'p>, state: CoreState) -> Self {
        Self {
            id,
            src,
            state,
            weave: CoreWeaveStats::default(),
        }
    }

    fn done(&mut self) -> bool {
        self.src.peek().is_none()
    }

    /// Replays ops the private L1 can complete until the first one
    /// needing a coherence transaction, or until `quantum_end`: the whole
    /// of the core's bound phase, and the local stretches of its weave
    /// turns.
    fn run_quantum_local(&mut self, l1: &mut CoreL1, quantum_end: f64) {
        while self.state.cycles < quantum_end {
            let Some(op) = self.src.peek() else { return };
            let pc = self.state.pc + 1;
            let r = match op {
                TraceOp::Load { addr, size } => {
                    let len = size as usize;
                    l1.try_access(addr, Access::Load { len, sink: None }, pc)
                }
                TraceOp::Store { addr, size } => with_store_data(addr, size, |data| {
                    l1.try_access(addr, Access::Store(data), pc)
                }),
                TraceOp::Cform {
                    line_addr,
                    attrs,
                    mask,
                } => {
                    let insn = CformInstruction::new(line_addr, attrs, mask);
                    l1.try_access(line_addr, Access::Cform(&insn), pc)
                }
                // Non-temporal CFORMs operate below the L1 across every
                // core's copy: always a transaction.
                TraceOp::CformNt { .. } => None,
                TraceOp::Exec(..) | TraceOp::MaskPush | TraceOp::MaskPop => {
                    self.state.commit_local(op);
                    self.src.advance();
                    continue;
                }
            };
            let Some(r) = r else { return };
            self.state.commit_mem(&op, r);
            self.src.advance();
        }
    }
}

/// Deterministically shards one op stream across `cores` shards:
/// round-robin at op granularity (op `i` goes to core `i % cores`), so
/// the same stream always produces the same shards regardless of how it
/// was stored. [`Source::Pack`] applies the same assignment
/// through per-core decoder lanes without materialising the shards;
/// callers replaying a `Vec<TraceOp>` can use this directly to get
/// bit-identical multi-core results for packed and unpacked forms of the
/// same trace.
///
/// Note that `MaskPush`/`MaskPop` windows land on whichever core receives
/// them — shard-aware workloads that need a window on a specific core
/// should build per-core shards explicitly instead.
///
/// # Panics
///
/// Panics if `cores == 0`.
pub fn shard_ops<I: IntoIterator<Item = TraceOp>>(ops: I, cores: usize) -> Vec<Vec<TraceOp>> {
    assert!(cores >= 1, "need at least one core");
    let mut shards: Vec<Vec<TraceOp>> = vec![Vec::new(); cores];
    for (i, op) in ops.into_iter().enumerate() {
        shards[i % cores].push(op);
    }
    shards
}

/// Run-loop state restored from a checkpoint: the deterministic runtime
/// counters and the end of the quantum the checkpoint was captured
/// before. Seeding these (plus the per-core replays and hierarchy)
/// makes the resumed loop continue exactly where the original left off.
#[derive(Debug, Clone, Copy)]
struct ResumeSeed {
    rt: RuntimeStats,
    quantum_end: f64,
}

/// A panic raised while replaying one core's ops (bound or weave phase),
/// surfaced by [`MulticoreEngine::replay`] as an error naming the
/// offending core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Core whose replay panicked.
    pub core: usize,
    /// Best-effort panic message (`String`/`&str` payloads; a placeholder
    /// otherwise).
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "replay of core {} panicked: {}", self.core, self.message)
    }
}

impl std::error::Error for WorkerPanic {}

/// Every way a multi-core run can fail: a core's replay panicked, or (on
/// the resume path) the checkpoint was unusable.
#[derive(Debug)]
pub enum RunError {
    /// A core's replay panicked (bound or weave phase).
    Panic(WorkerPanic),
    /// The checkpoint being resumed failed to decode or did not match
    /// the pack/configuration.
    Checkpoint(CheckpointError),
}

impl RunError {
    /// The offending core, when the failure is attributable to one.
    pub fn core(&self) -> Option<usize> {
        match self {
            RunError::Panic(p) => Some(p.core),
            RunError::Checkpoint(_) => None,
        }
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Panic(p) => p.fmt(f),
            RunError::Checkpoint(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Panic(p) => Some(p),
            RunError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<WorkerPanic> for RunError {
    fn from(p: WorkerPanic) -> Self {
        RunError::Panic(p)
    }
}

impl From<CheckpointError> for RunError {
    fn from(e: CheckpointError) -> Self {
        RunError::Checkpoint(e)
    }
}

/// Host-side telemetry state of one run: the shared clock, one span
/// track per core plus a `runtime` track for whole-machine phase spans,
/// the latency histograms, and the host-time weave breakdown
/// accumulators. Exists only when [`MulticoreConfig::telemetry`] is set —
/// a `None` run records nothing and reads no clocks.
struct RunTelemetry {
    clock: TelemetryClock,
    tracks: Vec<TrackRecorder>,
    runtime_track: TrackRecorder,
    weave_batch_sizes: LogHistogram,
    weave_turn_ns: LogHistogram,
    per_core_weave_ns: Vec<u64>,
    per_quantum_weave_ns: Vec<u64>,
    quantum_samples_dropped: u64,
}

impl RunTelemetry {
    fn new(cores: usize) -> Self {
        let clock = TelemetryClock::start();
        Self {
            clock,
            tracks: (0..cores)
                .map(|c| TrackRecorder::new(c as u32, clock))
                .collect(),
            runtime_track: TrackRecorder::new(cores as u32, clock),
            weave_batch_sizes: LogHistogram::new(),
            weave_turn_ns: LogHistogram::new(),
            per_core_weave_ns: vec![0; cores],
            per_quantum_weave_ns: Vec::new(),
            quantum_samples_dropped: 0,
        }
    }

    /// Caps the per-quantum weave samples at
    /// [`WeaveTimingBreakdown::MAX_QUANTUM_SAMPLES`], counting drops.
    fn push_quantum_weave(&mut self, ns: u64) {
        if self.per_quantum_weave_ns.len() < WeaveTimingBreakdown::MAX_QUANTUM_SAMPLES {
            self.per_quantum_weave_ns.push(ns);
        } else {
            self.quantum_samples_dropped += 1;
        }
    }
}

/// Extracts a displayable message from a caught panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        // analyze::allow(hot-path-alloc): panic path: the run is already aborting, steady-state never runs this
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        // analyze::allow(hot-path-alloc): panic path: the run is already aborting, steady-state never runs this
        "non-string panic payload".to_string()
    }
}

/// Replays per-core trace shards over a [`CoherentHierarchy`] in cycle
/// quanta, each a bound phase and a weave phase.
#[derive(Debug)]
pub struct MulticoreEngine {
    /// The simulated machine (public: attack simulations inspect it).
    pub hierarchy: CoherentHierarchy,
    cfg: MulticoreConfig,
}

impl MulticoreEngine {
    /// Builds an engine; its trace is supplied to [`Self::replay`].
    ///
    /// # Panics
    ///
    /// Panics if `cfg.cores == 0`, `cfg.quantum` is not a positive finite
    /// cycle count, or `cfg.runtime.weave_batch == 0`.
    pub fn new(cfg: MulticoreConfig) -> Self {
        assert!(cfg.cores >= 1, "need at least one core");
        assert!(
            cfg.quantum.is_finite() && cfg.quantum > 0.0,
            "quantum must be a positive cycle count"
        );
        assert!(cfg.runtime.weave_batch >= 1, "weave batch must be ≥ 1");
        Self {
            hierarchy: CoherentHierarchy::new(cfg.hierarchy, cfg.coherence, cfg.cores),
            cfg,
        }
    }

    /// Executes one coherence-needing op for core `c` through the full
    /// hierarchy — the weave's transaction dispatch.
    fn execute_op(&mut self, c: usize, op: TraceOp, pc: u64) -> MemResult {
        match op {
            TraceOp::Load { addr, size } => self.hierarchy.load(c, addr, size as usize, pc, None),
            TraceOp::Store { addr, size } => {
                with_store_data(addr, size, |data| self.hierarchy.store(c, addr, data, pc))
            }
            TraceOp::Cform {
                line_addr,
                attrs,
                mask,
            } => {
                let insn = CformInstruction::new(line_addr, attrs, mask);
                self.hierarchy.cform(c, &insn, pc)
            }
            TraceOp::CformNt {
                line_addr,
                attrs,
                mask,
            } => {
                let insn = CformInstruction::new(line_addr, attrs, mask);
                self.hierarchy.cform_nt(&insn, pc)
            }
            TraceOp::Exec(..) | TraceOp::MaskPush | TraceOp::MaskPop => {
                unreachable!("local ops are consumed by the fast path")
            }
        }
    }

    /// Bound phase of `core` in quantum number `quantum`: the fault hook,
    /// then [`CoreReplay::run_quantum_local`] against the core's own L1,
    /// under `catch_unwind` so that a panic comes back as the core's
    /// [`WorkerPanic`]. Returns the ops it committed.
    fn bound_phase(
        &mut self,
        core: &mut CoreReplay<'_>,
        quantum: u64,
        quantum_end: f64,
        track: Option<&mut TrackRecorder>,
    ) -> Result<u64, WorkerPanic> {
        let pc_before = core.state.pc;
        let span_start = track.as_ref().map(|t| t.start());
        let fault = self.cfg.fault;
        let l1 = self.hierarchy.l1_mut(core.id);
        catch_unwind(AssertUnwindSafe(|| {
            fault.fire(core.id, quantum);
            core.run_quantum_local(l1, quantum_end);
        }))
        .map_err(|payload| WorkerPanic {
            core: core.id,
            message: panic_message(payload.as_ref()),
        })?;
        let ops = core.state.pc - pc_before;
        // Only quanta in which the core replayed something get a bound
        // span — an exhausted core's empty passes would otherwise bury
        // the timeline in zero-length slices.
        if let (Some(track), Some(start), true) = (track, span_start, ops > 0) {
            track.record_since(Phase::Bound, quantum, start);
        }
        Ok(ops)
    }

    /// Weave phase turn for one core: resume local-completable ops
    /// through the same fast path the bound phase uses, then
    /// execute up to [`RuntimeConfig::weave_batch`] coherence
    /// transactions through the full MESI machinery. A transaction that
    /// involved another core (observable as an invalidation or
    /// cache-to-cache transfer) always ends the turn, so intra-quantum
    /// line ping-pong keeps its transaction-granular round-robin
    /// interleave while runs of private misses cost one turn. Returns
    /// whether any op ran.
    fn weave_turn(
        &mut self,
        core: &mut CoreReplay<'_>,
        quantum_end: f64,
        rt: &mut RuntimeStats,
        batch_sizes: Option<&mut LogHistogram>,
    ) -> bool {
        if core.state.cycles >= quantum_end || core.done() {
            return false;
        }
        let pc_before = core.state.pc;
        core.run_quantum_local(self.hierarchy.l1_mut(core.id), quantum_end);
        let mut progressed = core.state.pc != pc_before;
        let batch = self.cfg.runtime.weave_batch;
        let mut txns = 0u32;
        while txns < batch && core.state.cycles < quantum_end {
            // The op at the cursor (if any) needs the coherence machinery.
            let Some(op) = core.src.peek() else { break };
            let pc = core.state.pc + 1;
            let events_before = self.hierarchy.cross_core_events();
            let r = self.execute_op(core.id, op, pc);
            core.state.commit_mem(&op, r);
            core.src.advance();
            progressed = true;
            txns += 1;
            rt.weave_transactions += 1;
            core.weave.transactions += 1;
            if txns > 1 {
                rt.batched_transactions += 1;
                core.weave.batched += 1;
            }
            if self.hierarchy.cross_core_events() != events_before {
                rt.contended_transactions += 1;
                core.weave.contended += 1;
                break;
            }
            core.run_quantum_local(self.hierarchy.l1_mut(core.id), quantum_end);
        }
        if progressed {
            rt.weave_turns += 1;
            core.weave.turns += 1;
        }
        if txns > 0 {
            if let Some(h) = batch_sizes {
                h.record(u64::from(txns));
            }
        }
        progressed
    }

    /// Replays `source` to completion and hands back the outcome with the
    /// final [`CoherentHierarchy`], so callers (the `califorms-oracle`
    /// differential harness) can diff the machine's final memory and
    /// blacklist state byte for byte against a reference model.
    ///
    /// A [`Source::Pack`] with checkpoints captures the whole machine at
    /// every `every`-th quantum boundary, after the weave;
    /// [`Self::resume`] continues from any of them.
    ///
    /// # Errors
    ///
    /// [`RunError::Panic`] if a core's replay panicked (bound or weave
    /// phase).
    ///
    /// # Panics
    ///
    /// Panics unless [`Source::Shards`] or [`Source::Packs`] holds one
    /// entry per configured core.
    pub fn replay(
        self,
        source: Source<'_, '_>,
    ) -> Result<(MulticoreOutcome, CoherentHierarchy), RunError> {
        let (sources, checkpoints) = match source {
            Source::Shards(shards) => {
                assert_eq!(
                    shards.len(),
                    self.cfg.cores,
                    "one shard per configured core"
                );
                let slices = shards
                    .into_iter()
                    .map(|ops| ShardSource::Slice { ops, pos: 0 })
                    .collect();
                (slices, None)
            }
            Source::Packs(packs) => {
                assert_eq!(packs.len(), self.cfg.cores, "one pack per configured core");
                let lanes = packs.iter().map(|pack| pack_lane(pack, 0, 1));
                (lanes.collect(), None)
            }
            Source::Pack { pack, checkpoints } => {
                let stride = self.cfg.cores as u64;
                let lanes = (0..stride).map(|lane| pack_lane(pack, lane, stride));
                (lanes.collect(), checkpoints)
            }
        };
        let replays = self.seed_replays(sources);
        self.run_loop(replays, None, checkpoints)
    }

    /// Resumes a run of `pack` from a checkpoint that [`Self::replay`]
    /// (or an earlier resume) captured, reconstructing the entire machine
    /// (configuration included) from the checkpoint bytes and continuing
    /// to completion. The outcome is bit-identical to the straight-through
    /// run — stats, exceptions, runtime and weave counters all match (host
    /// [`RuntimeTiming`] and telemetry excluded; they restart at the
    /// resume point). `checkpoints` keeps checkpointing: quanta are
    /// counted from the run's start, so the same `every` reproduces the
    /// original run's later checkpoints byte for byte, and every recovery
    /// attempt of a retry driver refreshes its fallback point.
    ///
    /// # Errors
    ///
    /// [`RunError::Checkpoint`] if the bytes fail to decode, were taken
    /// by the single-core engine, or do not fit `pack`;
    /// [`RunError::Panic`] if the resumed run itself fails.
    pub fn resume(
        pack: &TracePack,
        bytes: &[u8],
        checkpoints: Option<Checkpoints<'_>>,
    ) -> Result<(MulticoreOutcome, CoherentHierarchy), RunError> {
        let (engine, replays, seed) = Self::restore(pack, bytes)?;
        engine.run_loop(replays, Some(seed), checkpoints)
    }

    /// [`Self::replay`] of [`Source::Shards`], outcome only. Kept because
    /// the host benchmark in `perfbench/` calls it; new code calls
    /// [`Self::replay`].
    ///
    /// # Errors
    ///
    /// As for [`Self::replay`].
    ///
    /// # Panics
    ///
    /// Panics unless `shards.len()` equals the configured core count.
    pub fn try_run(self, shards: Vec<Vec<TraceOp>>) -> Result<MulticoreOutcome, RunError> {
        self.replay(Source::Shards(shards))
            .map(|(outcome, _)| outcome)
    }

    /// [`Self::replay`] of a [`Source::Pack`] without checkpoints,
    /// outcome only. Kept because the host benchmark in `perfbench/`
    /// calls it; new code calls [`Self::replay`].
    ///
    /// # Errors
    ///
    /// As for [`Self::replay`].
    pub fn try_run_pack(self, pack: &TracePack) -> Result<MulticoreOutcome, RunError> {
        let source = Source::Pack {
            pack,
            checkpoints: None,
        };
        self.replay(source).map(|(outcome, _)| outcome)
    }

    /// [`Self::replay`] of [`Source::Packs`], outcome only. Kept because
    /// the host benchmark in `perfbench/` calls it; new code calls
    /// [`Self::replay`].
    ///
    /// # Errors
    ///
    /// As for [`Self::replay`].
    ///
    /// # Panics
    ///
    /// Panics unless `packs.len()` equals the configured core count.
    pub fn try_run_packs(self, packs: &[TracePack]) -> Result<MulticoreOutcome, RunError> {
        self.replay(Source::Packs(packs))
            .map(|(outcome, _)| outcome)
    }

    /// Builds the per-core replay states for a fresh (unseeded) run.
    fn seed_replays<'p>(&self, sources: Vec<ShardSource<'p>>) -> Vec<CoreReplay<'p>> {
        sources
            .into_iter()
            .enumerate()
            .map(|(id, src)| {
                let state = CoreState::new(self.cfg.core, self.cfg.hierarchy.l1d_latency);
                CoreReplay::new(id, src, state)
            })
            .collect()
    }

    /// Serializes the whole machine — configuration, per-core
    /// architectural state, the machine, runtime counters and
    /// every decoder lane's cursor — into a self-contained checkpoint.
    /// Called only at a quantum boundary, after the weave.
    fn capture_checkpoint(
        &self,
        replays: &[CoreReplay<'_>],
        rt: &RuntimeStats,
        quantum_end: f64,
    ) -> Vec<u8> {
        let mut w = ck::Wr::checkpoint();

        let s = w.begin_section(ck::SEC_META);
        w.u8(ck::KIND_MULTI);
        w.u64(self.cfg.cores as u64);
        w.end_section(s);

        let s = w.begin_section(ck::SEC_CONFIG);
        ck::put_hier_config(&mut w, &self.cfg.hierarchy);
        ck::put_core_config(&mut w, &self.cfg.core);
        w.u32(self.cfg.coherence.directory_latency);
        w.u32(self.cfg.coherence.cache_to_cache_latency);
        w.u32(self.cfg.coherence.upgrade_latency);
        w.u32(self.cfg.runtime.weave_batch);
        w.f64(self.cfg.quantum);
        w.end_section(s);

        let s = w.begin_section(ck::SEC_CORE);
        w.u64(replays.len() as u64);
        for c in replays {
            c.state.save(&mut w);
            ck::put_core_weave(&mut w, &c.weave);
        }
        w.end_section(s);

        let s = w.begin_section(ck::SEC_MACHINE);
        self.hierarchy.save_state(&mut w);
        w.end_section(s);

        let s = w.begin_section(ck::SEC_RUNTIME);
        w.u64(rt.quanta);
        w.u64(rt.barrier_waits);
        w.u64(rt.weave_turns);
        w.u64(rt.weave_transactions);
        w.u64(rt.batched_transactions);
        w.u64(rt.contended_transactions);
        w.f64(quantum_end);
        w.end_section(s);

        let s = w.begin_section(ck::SEC_CURSOR);
        w.u64(replays.len() as u64);
        for c in replays {
            match &c.src {
                ShardSource::Pack {
                    dec,
                    lane,
                    stride,
                    ring,
                    head,
                } => {
                    ck::put_resume_point(&mut w, &dec.resume_point());
                    w.u64(*lane);
                    w.u64(*stride);
                    // The lane's global op index, kept in the format
                    // though it always equals the decoder's `ops_read`.
                    w.u64(dec.ops_read());
                    // Decoded-but-uncommitted ops: the ring tail survives
                    // the seam verbatim so the resumed lane replays the
                    // exact op sequence.
                    let leftover = &ring[*head..];
                    w.u64(leftover.len() as u64);
                    for op in leftover {
                        ck::put_trace_op(&mut w, op);
                    }
                }
                ShardSource::Slice { .. } => {
                    unreachable!("checkpointed runs always replay pack lanes")
                }
            }
        }
        w.end_section(s);

        w.finish()
    }

    /// Rebuilds the engine, per-core replays and run-loop seed from a
    /// checkpoint captured by [`Self::capture_checkpoint`] against
    /// `pack`. Every field is validated *before* it reaches a
    /// constructor that would assert on it — corrupt bytes must surface
    /// as a typed [`CheckpointError`], never a panic.
    fn restore<'p>(
        pack: &'p TracePack,
        bytes: &[u8],
    ) -> ck::Result<(Self, Vec<CoreReplay<'p>>, ResumeSeed)> {
        let sections = ck::parse_sections(bytes)?;

        let mut r = ck::require(&sections, ck::SEC_META, "meta")?;
        match r.u8()? {
            ck::KIND_MULTI => {}
            ck::KIND_SINGLE => {
                return Err(CheckpointError::ConfigMismatch(
                    "single-core checkpoint resumed on the multicore engine",
                ))
            }
            _ => return Err(CheckpointError::Corrupt("unknown engine kind")),
        }
        let cores = r.u64()?;
        if !(1..=64).contains(&cores) {
            return Err(CheckpointError::Corrupt("core count outside 1..=64"));
        }
        let cores = cores as usize;
        ck::consumed(&r, ck::SEC_META)?;

        let mut r = ck::require(&sections, ck::SEC_CONFIG, "configuration")?;
        let hierarchy = ck::get_hier_config(&mut r)?;
        let core = ck::get_core_config(&mut r)?;
        let coherence = CoherenceConfig {
            directory_latency: r.u32()?,
            cache_to_cache_latency: r.u32()?,
            upgrade_latency: r.u32()?,
        };
        let weave_batch = r.u32()?;
        let quantum = r.f64()?;
        ck::consumed(&r, ck::SEC_CONFIG)?;
        if weave_batch == 0 {
            return Err(CheckpointError::Corrupt("weave batch of zero"));
        }
        if !quantum.is_finite() || quantum <= 0.0 {
            return Err(CheckpointError::Corrupt(
                "quantum is not a positive cycle count",
            ));
        }

        let mut r = ck::require(&sections, ck::SEC_RUNTIME, "runtime counters")?;
        let rt = RuntimeStats {
            quanta: r.u64()?,
            barrier_waits: r.u64()?,
            weave_turns: r.u64()?,
            weave_transactions: r.u64()?,
            batched_transactions: r.u64()?,
            contended_transactions: r.u64()?,
        };
        let quantum_end = r.f64()?;
        ck::consumed(&r, ck::SEC_RUNTIME)?;
        if !quantum_end.is_finite() || quantum_end <= 0.0 {
            return Err(CheckpointError::Corrupt("runtime quantum clock is invalid"));
        }

        // Lanes before cores: replays are built around their sources.
        let mut r = ck::require(&sections, ck::SEC_CURSOR, "replay cursor")?;
        if r.count()? != cores {
            return Err(CheckpointError::ConfigMismatch("cursor lane count"));
        }
        let mut sources = Vec::with_capacity(cores);
        for lane_idx in 0..cores {
            let point = ck::get_resume_point(&mut r)?;
            let lane = r.u64()?;
            let stride = r.u64()?;
            let next_idx = r.u64()?;
            if lane != lane_idx as u64 || stride != cores as u64 {
                return Err(CheckpointError::Corrupt(
                    "cursor lane/stride inconsistent with the core count",
                ));
            }
            if next_idx != point.ops_read {
                return Err(CheckpointError::Corrupt(
                    "cursor lane index out of sync with its decoder",
                ));
            }
            let n = r.count()?;
            let mut ring = Vec::with_capacity(SOURCE_RING.max(n));
            for _ in 0..n {
                ring.push(ck::get_trace_op(&mut r)?);
            }
            // `resume_from` re-derives the cursor from this pack, so a
            // checkpoint from a different pack, or one whose cursor was
            // edited, fails typed instead of decoding garbage.
            let dec = pack.resume_from(point)?;
            sources.push(ShardSource::Pack {
                dec,
                lane,
                stride,
                ring,
                head: 0,
            });
        }
        ck::consumed(&r, ck::SEC_CURSOR)?;

        let mut r = ck::require(&sections, ck::SEC_CORE, "per-core state")?;
        if r.count()? != cores {
            return Err(CheckpointError::ConfigMismatch("per-core state count"));
        }
        let mut replays = Vec::with_capacity(cores);
        for (id, src) in sources.into_iter().enumerate() {
            let state = CoreState::load(&mut r, core, hierarchy.l1d_latency)?;
            let mut c = CoreReplay::new(id, src, state);
            c.weave = ck::get_core_weave(&mut r)?;
            replays.push(c);
        }
        ck::consumed(&r, ck::SEC_CORE)?;

        let cfg = MulticoreConfig {
            cores,
            quantum,
            hierarchy,
            coherence,
            core,
            runtime: RuntimeConfig { weave_batch },
            telemetry: false,
            fault: FaultPlan::default(),
        };
        let mut engine = MulticoreEngine::new(cfg);

        let mut r = ck::require(&sections, ck::SEC_MACHINE, "machine")?;
        engine.hierarchy = CoherentHierarchy::restore_state(hierarchy, coherence, cores, &mut r)?;
        ck::consumed(&r, ck::SEC_MACHINE)?;

        Ok((engine, replays, ResumeSeed { rt, quantum_end }))
    }

    /// The run loop proper. `seed` resumes mid-run (runtime counters and
    /// quantum clock restored from a checkpoint); `checkpoint` captures
    /// a checkpoint into its sink at every N-th quantum boundary.
    fn run_loop(
        mut self,
        mut replays: Vec<CoreReplay<'_>>,
        seed: Option<ResumeSeed>,
        mut checkpoint: Option<Checkpoints<'_>>,
    ) -> Result<(MulticoreOutcome, CoherentHierarchy), RunError> {
        let n = self.cfg.cores;
        let quantum = self.cfg.quantum;
        let (mut rt, mut quantum_end) = match seed {
            Some(s) => (s.rt, s.quantum_end),
            None => (RuntimeStats::default(), quantum),
        };
        let mut timing = RuntimeTiming::default();
        // The no-op sink: `None` unless telemetry was requested, so a
        // disabled run takes no clock reads and allocates nothing.
        let mut tel: Option<RunTelemetry> = self.cfg.telemetry.then(|| RunTelemetry::new(n));

        while !replays.iter_mut().all(CoreReplay::done) {
            // Bound phase: each core in turn, in core order. A panic
            // aborts the run before the weave: the panicking core's
            // cursor is mid-op, so continuing would simulate garbage.
            let t0 = Instant::now();
            let t0n = tel.as_ref().map_or(0, |t| t.clock.now_ns());
            for core in &mut replays {
                let track = tel.as_mut().map(|t| &mut t.tracks[core.id]);
                timing.bound_ops += self.bound_phase(core, rt.quanta, quantum_end, track)?;
            }
            let t1 = Instant::now();

            // Weave phase: deterministic round-robin. An engine panic
            // here (e.g. an op that only ever reaches the weave, like a
            // misaligned CFORM-NT) is part of `replay`'s error contract
            // too: caught per turn and surfaced as the offending core's
            // `WorkerPanic`.
            let mut quantum_weave_ns = 0u64;
            loop {
                let mut progressed = false;
                for core in &mut replays {
                    let turn_start = tel.as_ref().map(|t| t.clock.now_ns());
                    let batch_hist = tel.as_mut().map(|t| &mut t.weave_batch_sizes);
                    let turn = catch_unwind(AssertUnwindSafe(|| {
                        self.weave_turn(core, quantum_end, &mut rt, batch_hist)
                    }))
                    .map_err(|payload| WorkerPanic {
                        core: core.id,
                        message: panic_message(payload.as_ref()),
                    })?;
                    progressed |= turn;
                    if let (true, Some(t), Some(start)) = (turn, tel.as_mut(), turn_start) {
                        let dur = t.clock.now_ns().saturating_sub(start);
                        t.tracks[core.id].record(Phase::Weave, rt.quanta, start, dur);
                        t.weave_turn_ns.record(dur);
                        t.per_core_weave_ns[core.id] += dur;
                        quantum_weave_ns += dur;
                    }
                }
                if !progressed {
                    break;
                }
            }
            let t2 = Instant::now();

            if let Some(t) = tel.as_mut() {
                // Whole-machine phase spans on the `runtime` track, plus
                // this quantum's weave sample.
                let bound_ns = (t1 - t0).as_nanos() as u64;
                let weave_ns = (t2 - t1).as_nanos() as u64;
                t.runtime_track
                    .record(Phase::Bound, rt.quanta, t0n, bound_ns);
                t.runtime_track
                    .record(Phase::Weave, rt.quanta, t0n + bound_ns, weave_ns);
                t.push_quantum_weave(quantum_weave_ns);
            }
            rt.quanta += 1;
            rt.barrier_waits += n as u64;
            quantum_end += quantum;

            // Fast-forward over empty quanta: if every unfinished core
            // is already past the boundary (e.g. one committed a huge
            // `Exec`), jump to the first quantum in which some core can
            // run instead of stepping through idle quanta one at a time.
            // Pure f64 math on deterministic inputs.
            let min_cycles = replays
                .iter_mut()
                .filter_map(|r| (!r.done()).then_some(r.state.cycles))
                .fold(f64::INFINITY, f64::min);
            if min_cycles.is_finite() && min_cycles >= quantum_end {
                let skipped = ((min_cycles - quantum_end) / quantum).floor() + 1.0;
                quantum_end += skipped * quantum;
            }
            let t3 = Instant::now();
            timing.bound_s += (t1 - t0).as_secs_f64();
            timing.weave_s += (t2 - t1).as_secs_f64();
            timing.barrier_s += (t3 - t2).as_secs_f64();

            // Checkpoint at the quantum boundary, after the weave: no op
            // is in flight on any core.
            if let Some(c) = checkpoint.as_mut() {
                if rt.quanta % c.every.get() == 0 {
                    (c.sink)(self.capture_checkpoint(&replays, &rt, quantum_end));
                }
            }
        }
        Ok(self.finish(replays, rt, timing, tel))
    }

    fn finish(
        self,
        cores: Vec<CoreReplay<'_>>,
        rt: RuntimeStats,
        mut timing: RuntimeTiming,
        tel: Option<RunTelemetry>,
    ) -> (MulticoreOutcome, CoherentHierarchy) {
        let mut per_core = Vec::with_capacity(cores.len());
        let mut exceptions = Vec::with_capacity(cores.len());
        let mut combined = SimStats::default();
        let mut weave = WeaveBreakdown {
            per_core: Vec::with_capacity(cores.len()),
        };
        let mut decode = Vec::new();
        for core in &cores {
            let stats = SimStats {
                l1d: self.hierarchy.l1s()[core.id].stats(),
                ..core.state.stats()
            };
            combined.cycles = combined.cycles.max(stats.cycles);
            combined.instructions += stats.instructions;
            combined.loads += stats.loads;
            combined.stores += stats.stores;
            combined.cforms += stats.cforms;
            combined.stores_suppressed += stats.stores_suppressed;
            combined.exceptions_delivered += stats.exceptions_delivered;
            combined.exceptions_suppressed += stats.exceptions_suppressed;
            per_core.push(stats);
            exceptions.push(core.state.exceptions.clone());
            weave.per_core.push(core.weave);
            if let Some(progress) = core.src.decode_progress() {
                decode.push(progress);
            }
        }
        self.hierarchy.export_stats(&mut combined);
        let stats = MulticoreStats {
            per_core,
            combined,
            runtime: rt,
            weave,
        };
        let telemetry = tel.map(|t| {
            timing.weave_breakdown = WeaveTimingBreakdown {
                per_core_s: t
                    .per_core_weave_ns
                    .iter()
                    .map(|&ns| ns as f64 / 1e9)
                    .collect(),
                per_quantum_s: t
                    .per_quantum_weave_ns
                    .iter()
                    .map(|&ns| ns as f64 / 1e9)
                    .collect(),
                quantum_samples_dropped: t.quantum_samples_dropped,
            };
            let counters = crate::telemetry::multicore_counters(&stats, &decode).snapshot();
            let mut spans = Vec::new();
            let mut track_names = Vec::new();
            let mut dropped_spans = 0u64;
            let tracks = t.tracks.into_iter().chain(std::iter::once(t.runtime_track));
            for track in tracks {
                let name = if (track.track() as usize) < cores.len() {
                    format!("core {}", track.track())
                } else {
                    "runtime".to_string()
                };
                track_names.push((track.track(), name));
                dropped_spans += track.dropped();
                let (events, _) = track.into_parts();
                spans.extend(events);
            }
            TelemetryReport {
                counters,
                weave_batch_sizes: t.weave_batch_sizes,
                spans,
                track_names,
                weave_turn_ns: t.weave_turn_ns,
                dropped_spans,
            }
        });
        let outcome = MulticoreOutcome {
            stats,
            exceptions,
            timing,
            telemetry,
        };
        (outcome, self.hierarchy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(cores: usize) -> MulticoreEngine {
        MulticoreEngine::new(MulticoreConfig::westmere(cores))
    }

    fn run(cores: usize, shards: Vec<Vec<TraceOp>>) -> MulticoreOutcome {
        engine(cores)
            .replay(Source::Shards(shards))
            .expect("replay")
            .0
    }

    fn replay_pack(cfg: MulticoreConfig, pack: &TracePack) -> Result<MulticoreOutcome, RunError> {
        let source = Source::Pack {
            pack,
            checkpoints: None,
        };
        MulticoreEngine::new(cfg)
            .replay(source)
            .map(|(outcome, _)| outcome)
    }

    fn expect_worker_panic(err: RunError) -> WorkerPanic {
        match err {
            RunError::Panic(p) => p,
            other => panic!("expected a worker panic, got: {other}"),
        }
    }

    #[test]
    fn single_core_runs_a_plain_trace() {
        let out = run(
            1,
            vec![vec![
                TraceOp::Exec(400),
                TraceOp::Store {
                    addr: 0x100,
                    size: 8,
                },
                TraceOp::Load {
                    addr: 0x100,
                    size: 8,
                },
            ]],
        );
        let s = &out.stats.per_core[0];
        assert_eq!(s.instructions, 402);
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 1);
        assert_eq!(out.stats.combined.instructions, 402);
    }

    #[test]
    fn per_core_counters_split_by_shard() {
        let out = run(
            2,
            vec![
                vec![
                    TraceOp::Load {
                        addr: 0x1000,
                        size: 8
                    };
                    10
                ],
                vec![
                    TraceOp::Store {
                        addr: 0x8000,
                        size: 8
                    };
                    4
                ],
            ],
        );
        assert_eq!(out.stats.per_core[0].loads, 10);
        assert_eq!(out.stats.per_core[0].stores, 0);
        assert_eq!(out.stats.per_core[1].stores, 4);
        assert_eq!(out.stats.combined.loads, 10);
        assert_eq!(out.stats.combined.stores, 4);
    }

    #[test]
    fn makespan_is_the_slowest_core() {
        let out = run(
            2,
            vec![vec![TraceOp::Exec(4_000)], vec![TraceOp::Exec(400_000)]],
        );
        assert!(out.stats.per_core[1].cycles > out.stats.per_core[0].cycles);
        assert_eq!(out.stats.combined.cycles, out.stats.per_core[1].cycles);
        assert!(out.stats.aggregate_ipc() > 0.0);
    }

    #[test]
    fn cross_core_sharing_is_counted() {
        // Both cores hammer the same line with stores: the line must
        // ping-pong with recalls + invalidations.
        let shard = |n: u64| -> Vec<TraceOp> {
            (0..n)
                .flat_map(|_| {
                    [TraceOp::Store {
                        addr: 0x4000,
                        size: 8,
                    }]
                })
                .collect()
        };
        let out = run(2, vec![shard(50), shard(50)]);
        assert!(
            out.stats.combined.coherence.invalidations > 0,
            "write sharing must invalidate"
        );
        assert!(out.stats.combined.coherence.cache_to_cache_transfers > 0);
        assert!(
            out.stats.runtime.contended_transactions > 0,
            "ping-pong transactions must be flagged contended"
        );
    }

    #[test]
    fn mask_windows_are_per_core() {
        // Core 0 arms a mask and sweeps a security byte (suppressed);
        // core 1 does the same sweep unmasked (delivered).
        let cform = TraceOp::Cform {
            line_addr: 0x2000,
            attrs: 1 << 5,
            mask: 1 << 5,
        };
        let probe = TraceOp::Load {
            addr: 0x2005,
            size: 1,
        };
        let out = run(
            2,
            vec![
                vec![cform, TraceOp::MaskPush, probe, TraceOp::MaskPop],
                vec![TraceOp::Exec(100_000), probe],
            ],
        );
        assert_eq!(out.stats.per_core[0].exceptions_suppressed, 1);
        assert_eq!(out.stats.per_core[0].exceptions_delivered, 0);
        assert_eq!(out.stats.per_core[1].exceptions_delivered, 1);
        assert_eq!(out.exceptions[1][0].fault_addr, 0x2005);
    }

    #[test]
    fn disjoint_misses_batch_without_contention() {
        // Two cores streaming through disjoint regions: every miss is
        // private, so weave turns batch runs of them and no transaction
        // is ever contended.
        let shard = |base: u64| -> Vec<TraceOp> {
            (0..256u64)
                .map(|i| TraceOp::Load {
                    addr: base + i * 64,
                    size: 8,
                })
                .collect()
        };
        let out = run(2, vec![shard(0x10_0000), shard(0x90_0000)]);
        assert_eq!(out.stats.runtime.contended_transactions, 0);
        assert_eq!(out.stats.combined.coherence.invalidations, 0);
        assert!(
            out.stats.runtime.batched_transactions > 0,
            "private miss runs must share weave turns"
        );
    }

    #[test]
    fn runtime_counters_populate() {
        let shards = vec![
            vec![
                TraceOp::Store {
                    addr: 0x9000,
                    size: 8
                };
                64
            ],
            vec![
                TraceOp::Store {
                    addr: 0xA0000,
                    size: 8
                };
                64
            ],
        ];
        let out = run(2, shards);
        assert!(out.stats.runtime.quanta >= 1);
        assert_eq!(
            out.stats.runtime.barrier_waits,
            out.stats.runtime.quanta * 2
        );
        assert!(out.timing.bound_s >= 0.0);
    }

    #[test]
    #[should_panic(expected = "one shard per configured core")]
    fn shard_count_mismatch_panics() {
        run(2, vec![vec![]]);
    }

    /// A panic in a core's bound phase surfaces as an `Err` naming the
    /// offending core.
    #[test]
    fn worker_panic_surfaces_as_err_with_core_id() {
        // A misaligned CFORM target panics in `CformInstruction::new`
        // inside core 1's bound phase.
        let shards = vec![
            vec![TraceOp::Exec(10), TraceOp::Exec(10)],
            vec![TraceOp::Cform {
                line_addr: 0x1001,
                attrs: 1,
                mask: 1,
            }],
        ];
        let err = expect_worker_panic(engine(2).replay(Source::Shards(shards)).unwrap_err());
        assert_eq!(err.core, 1);
        assert!(
            err.message.contains("aligned"),
            "panic message is preserved: {}",
            err.message
        );
    }

    /// A panic on the weave path is part of the same error
    /// contract: a misaligned `CFORM-NT` never runs in the bound phase
    /// (non-temporal CFORMs are always coherence transactions), so its
    /// alignment assert fires inside the weave — and must come back as
    /// `Err` with the woven core's id, not unwind out of `replay`.
    #[test]
    fn weave_phase_panic_surfaces_as_err_with_core_id() {
        let shards = vec![
            vec![TraceOp::Exec(10)],
            vec![TraceOp::CformNt {
                line_addr: 0x1001,
                attrs: 1,
                mask: 1,
            }],
        ];
        let err = expect_worker_panic(engine(2).replay(Source::Shards(shards)).unwrap_err());
        assert_eq!(err.core, 1);
        assert!(err.message.contains("aligned"), "{}", err.message);
    }

    /// A one-core machine takes the same catch path.
    #[test]
    fn single_core_panic_surfaces_as_err() {
        let shards = vec![vec![TraceOp::Cform {
            line_addr: 0x77,
            attrs: 1,
            mask: 1,
        }]];
        let err = expect_worker_panic(engine(1).replay(Source::Shards(shards)).unwrap_err());
        assert_eq!(err.core, 0);
    }

    #[test]
    #[should_panic(expected = "one pack per configured core")]
    fn pack_count_mismatch_panics() {
        let _ = engine(2).replay(Source::Packs(&[TracePack::from_ops(std::iter::empty())]));
    }

    /// A mixed workload with private and cross-core-shared lines plus
    /// CFORMs — enough coherence traffic to exercise the directory,
    /// spills/fills and the weave counters across many quanta.
    fn crash_test_ops() -> Vec<TraceOp> {
        let mut ops = Vec::new();
        let mut x: u64 = 0x1234_5678_9abc_def0;
        for i in 0..1500u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = ((x >> 33) % 512) * 8;
            match i % 7 {
                0 => ops.push(TraceOp::Exec((x % 50) as u32 + 1)),
                1 => ops.push(TraceOp::Load { addr, size: 8 }),
                2 => ops.push(TraceOp::Store { addr, size: 8 }),
                3 => ops.push(TraceOp::Load {
                    addr: 0x10_000 + addr,
                    size: 8,
                }),
                4 => ops.push(TraceOp::Store {
                    addr: 0x20_000 + addr,
                    size: 8,
                }),
                5 => ops.push(TraceOp::Cform {
                    line_addr: 0x40_000 + (addr / 64) * 64,
                    attrs: 1,
                    mask: 1,
                }),
                _ => ops.push(TraceOp::Exec((x % 9) as u32 + 1)),
            }
        }
        ops
    }

    /// The core of the crash-tolerance contract: resuming any mid-run
    /// checkpoint reproduces the straight-through run bit-identically —
    /// stats, runtime/weave counters and exceptions — across core counts
    /// and weave batch sizes.
    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let pack = TracePack::from_ops(crash_test_ops());
        for &cores in &[1usize, 2, 4] {
            for &batch in &[1u32, 64] {
                let cfg = MulticoreConfig::westmere(cores).with_weave_batch(batch);
                let reference = replay_pack(cfg, &pack).unwrap();
                let mut checkpoints = Vec::new();
                let source = Source::Pack {
                    pack: &pack,
                    checkpoints: Some(Checkpoints {
                        every: std::num::NonZeroU64::new(2).unwrap(),
                        sink: &mut |b| checkpoints.push(b),
                    }),
                };
                let (full, _) = MulticoreEngine::new(cfg).replay(source).unwrap();
                assert_eq!(
                    full.stats, reference.stats,
                    "checkpointing itself must not perturb the run \
                     (cores={cores} batch={batch})"
                );
                assert!(
                    !checkpoints.is_empty(),
                    "run too short to checkpoint (cores={cores} batch={batch})"
                );
                for (i, bytes) in checkpoints.iter().enumerate() {
                    let (resumed, _) = MulticoreEngine::resume(&pack, bytes, None).unwrap();
                    assert_eq!(
                        resumed.stats, reference.stats,
                        "resume from checkpoint {i} diverged (cores={cores} batch={batch})"
                    );
                    assert_eq!(resumed.exceptions, reference.exceptions);
                }
            }
        }
    }

    /// An injected kill surfaces as a typed `RunError::Panic` naming the
    /// killed core.
    #[test]
    fn kill_fault_surfaces_as_typed_panic() {
        let pack = TracePack::from_ops(crash_test_ops());
        let cfg = MulticoreConfig::westmere(2).with_fault(FaultPlan {
            kill_at: Some((1, 0)),
        });
        let err = expect_worker_panic(replay_pack(cfg, &pack).unwrap_err());
        assert_eq!(err.core, 1);
        assert!(
            err.message.contains("fault injection"),
            "injected kills are identifiable: {}",
            err.message
        );
    }

    /// A fault plan that never fires leaves the run bit-identical to an
    /// unfaulted one (the hooks are free until they trigger).
    #[test]
    fn dormant_fault_plan_is_invisible() {
        let pack = TracePack::from_ops(crash_test_ops());
        let reference = replay_pack(MulticoreConfig::westmere(2), &pack).unwrap();
        let cfg = MulticoreConfig::westmere(2).with_fault(FaultPlan {
            kill_at: Some((0, u64::MAX)),
        });
        let out = replay_pack(cfg, &pack).unwrap();
        assert_eq!(out.stats, reference.stats);
    }
}
