//! The multi-core engine: parallel sharded trace replay over the
//! MESI-coherent hierarchy, on a persistent worker pool.
//!
//! Each core replays its own trace shard. Simulated time advances in
//! **cycle quanta** with a barrier between them, and every quantum runs
//! in two phases (the bound/weave idea of ZSim, adapted — see
//! DESIGN.md §7 and §10):
//!
//! 1. **Parallel (bound) phase** — one *persistent* worker thread per
//!    core (spawned once per run, woken through an epoch/`Condvar`
//!    barrier; no thread is created or joined on the hot path) replays
//!    ops its private L1 completes without a directory transaction:
//!    hits with sufficient MESI permission, plain `Exec`, mask ops.
//!    Workers touch disjoint state — their own replay cursor, decoder
//!    lane and L1 — so the phase is data-race-free by construction and
//!    its outcome is independent of thread scheduling. A core stops at
//!    its first op needing a transaction, or at quantum end.
//! 2. **Serial (weave) phase** — cores are resumed on the main thread
//!    in a deterministic round-robin. A turn executes up to
//!    [`RuntimeConfig::weave_batch`] coherence transactions through the
//!    full MESI machinery against the bank-sharded shared levels, but a
//!    transaction that involved another core (recall, invalidation,
//!    cross-core upgrade) always ends the turn — so a run of
//!    independent private misses costs one turn instead of N, while
//!    intra-quantum line ping-pong (false sharing, lock bouncing) keeps
//!    its transaction-granular round-robin interleave.
//!
//! **Determinism.** The bound phase only ever consumes permissions
//! granted by earlier (totally ordered) weave phases, and the weave is
//! totally ordered, so a run's result — every counter, cycle count and
//! exception, including the [`RuntimeStats`] — is **bit-identical**
//! across runs and host thread schedules (tested in
//! `crates/sim/tests/multicore.rs` and
//! `crates/sim/tests/parallel_runtime.rs`). The trade-off is unchanged
//! from any bound-weave simulator: cross-core visibility is
//! quantum-granular, at the fixed [`MulticoreConfig::quantum`].
//!
//! Packed traces replay without pre-sharding: [`MulticoreEngine::run_pack`]
//! gives every worker its own [`PackDecoder`] lane over the same pack
//! (core `c` keeps ops with index ≡ `c` mod `cores`), so decode runs in
//! parallel inside the bound phase instead of materialising
//! `Vec<TraceOp>` shards up front; [`MulticoreEngine::run_packs`] does
//! the same for per-core packs.

use crate::checkpoint::{self as ck, CheckpointError};
use crate::coherence::{CoherenceConfig, CoherentHierarchy, CoreL1};
use crate::cpu::{CoreConfig, CoreState};
use crate::engine::with_store_data;
use crate::hierarchy::{HierarchyConfig, MemResult};
use crate::runtime::{
    lock_recover, BarrierWaitError, QuantumBarrier, RuntimeConfig, RuntimeStats, RuntimeTiming,
};
use crate::stats::{
    CoreWeaveStats, MulticoreStats, ShardWeaveStats, SimStats, WeaveBreakdown, WeaveTimingBreakdown,
};
use crate::trace::TraceOp;
use crate::tracepack::{PackDecoder, TracePack};
use califorms_core::{CaliformsException, CformInstruction};
use califorms_telemetry::{LogHistogram, Phase, TelemetryClock, TelemetryReport, TrackRecorder};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

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
    /// and `prefetch_residual` fields are **ignored** — the multi-core
    /// L1s have no prefetcher (DESIGN.md §7), so single-core
    /// `MulticoreEngine` runs of streaming traces report higher memory
    /// latency than [`crate::engine::Engine`] on the same trace.
    pub hierarchy: HierarchyConfig,
    /// Coherence-fabric latencies.
    pub coherence: CoherenceConfig,
    /// Core timing model, applied to every core.
    pub core: CoreConfig,
    /// Parallel-runtime knobs (weave batching, watchdog).
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
/// that fires is expected to surface as a typed [`RunError`] (kill →
/// [`WorkerPanic`], stall → [`WorkerStall`] via the watchdog).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// `Some((core, quantum))`: panic that core's worker at the start of
    /// its bound phase in that quantum — the in-process abrupt-death
    /// probe (the `crashrecovery` bench additionally does a real
    /// `kill -9` on a child process).
    pub kill_at: Option<(usize, u64)>,
    /// `Some((core, quantum, hold_ms))`: block that core's worker for
    /// `hold_ms` milliseconds at the start of its bound phase in that
    /// quantum — long enough to trip a short test watchdog, short enough
    /// that the suite never hangs (the worker wakes, observes the torn
    /// down barrier and exits cleanly).
    pub stall_at: Option<(usize, u64, u64)>,
}

impl FaultPlan {
    /// Fires this plan's hooks for `core` at `quantum` (called at the
    /// top of every bound phase, inside the worker's `catch_unwind`).
    fn fire(&self, core: usize, quantum: u64) {
        if let Some((c, q)) = self.kill_at {
            if c == core && q == quantum {
                panic!("fault injection: kill worker for core {core} at quantum {quantum}");
            }
        }
        if let Some((c, q, hold_ms)) = self.stall_at {
            if c == core && q == quantum {
                std::thread::sleep(Duration::from_millis(hold_ms));
            }
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

    /// Same machine with a different bound-phase watchdog deadline
    /// (`None` disables the watchdog).
    pub fn with_watchdog(mut self, deadline: Option<Duration>) -> Self {
        self.runtime.watchdog = deadline;
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
    /// A decoder lane: this core decodes the pack itself (inside its own
    /// bound phase, in parallel with the other cores' lanes) and keeps
    /// the ops with global index ≡ `lane` (mod `stride`), batching them
    /// through a fixed ring. `stride == 1` consumes a whole (per-core)
    /// pack; `stride == cores` round-robin-shards one shared pack,
    /// bit-identical to [`shard_ops`].
    Pack {
        dec: PackDecoder<'p>,
        lane: u64,
        stride: u64,
        next_idx: u64,
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
                next_idx,
                ring,
                head,
            } => {
                if *head == ring.len() {
                    refill(dec, *lane, *stride, next_idx, ring);
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

/// Refills a decoder lane's ring: decode ops, keep those on this lane
/// (global index ≡ `lane` mod `stride`). Out of line — it runs once per
/// [`SOURCE_RING`] committed ops, and keeping it out of `peek` lets the
/// per-op path inline.
#[cold]
fn refill(
    dec: &mut PackDecoder<'_>,
    lane: u64,
    stride: u64,
    next_idx: &mut u64,
    ring: &mut Vec<TraceOp>,
) {
    ring.clear();
    while ring.len() < SOURCE_RING {
        // analyze::allow(hot-path-unwrap): the pack was validated by from_bytes before replay started
        match dec.next_op().expect("validated pack is well-formed") {
            None => break,
            Some(op) => {
                if *next_idx % stride == lane {
                    ring.push(op);
                }
                *next_idx += 1;
            }
        }
    }
}

/// Per-core replay state: the shard source, the core's architectural
/// state and its weave counters. Owned by exactly one worker thread
/// during the parallel phase and by the main thread during the weave.
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

    /// Parallel ("bound") phase: replay ops the private L1 can complete
    /// until the first one needing a coherence transaction, or until
    /// `quantum_end`.
    fn run_quantum_local(&mut self, l1: &mut CoreL1, quantum_end: f64) {
        while self.state.cycles < quantum_end {
            let Some(op) = self.src.peek() else { return };
            let pc = self.state.pc + 1;
            let r = match op {
                TraceOp::Load { addr, size } => l1.try_load_quiet(addr, size as usize, pc),
                TraceOp::Store { addr, size } => {
                    with_store_data(addr, size as usize, |data| l1.try_store(addr, data, pc))
                }
                TraceOp::Cform {
                    line_addr,
                    attrs,
                    mask,
                } => l1.try_cform(&CformInstruction::new(line_addr, attrs, mask), pc),
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
/// was stored. [`MulticoreEngine::run_pack`] applies the same assignment
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

/// State a worker owns for the duration of one bound phase: the core's
/// replay cursor and its L1, lent through the worker's mutex slot at
/// the top of each quantum and reclaimed for the weave. On telemetry
/// runs the core's span track rides along so the worker can stamp its
/// bound span itself; `track` is `None` (a no-op sink — no clock reads,
/// no writes) when telemetry is off.
#[derive(Debug)]
struct WorkerTask<'p> {
    replay: CoreReplay<'p>,
    l1: CoreL1,
    track: Option<TrackRecorder>,
    quantum: u64,
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

/// A checkpoint interval (in quanta) paired with the sink each captured
/// checkpoint's bytes are handed to.
type CheckpointEvery<'a> = (u64, &'a mut dyn FnMut(Vec<u8>));

/// A panic raised on a bound-phase worker thread, surfaced by the
/// `try_run*` entry points as an error naming the offending core instead
/// of wedging the quantum barrier (the pre-fix behaviour: the panicking
/// worker never reported done, so the main thread and the surviving
/// workers hung at the barrier forever).
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
        write!(
            f,
            "worker thread for core {} panicked: {}",
            self.core, self.message
        )
    }
}

impl std::error::Error for WorkerPanic {}

/// A worker that failed to reach the quantum barrier within the
/// configured watchdog deadline ([`RuntimeConfig::watchdog`]) — the
/// stall sibling of [`WorkerPanic`]. The run is torn down cleanly: the
/// barrier is retired, surviving workers exit, and the stalled worker's
/// eventual late report is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStall {
    /// First core (lowest id) that never reported done.
    pub core: usize,
    /// Phase the machine was in when the deadline expired.
    pub phase: &'static str,
    /// Quantum (0-based) whose bound phase stalled.
    pub quantum: u64,
}

impl std::fmt::Display for WorkerStall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker thread for core {} stalled in the {} phase of quantum {} \
             (watchdog deadline exceeded)",
            self.core, self.phase, self.quantum
        )
    }
}

impl std::error::Error for WorkerStall {}

/// Every way a multi-core run can fail with the machine still owned by
/// the caller: a worker panicked, a worker stalled past the watchdog, or
/// (on the resume path) the checkpoint was unusable. All variants are
/// clean-teardown errors — no thread is left parked, no lock held.
#[derive(Debug)]
pub enum RunError {
    /// A core's replay panicked (bound or weave phase).
    Panic(WorkerPanic),
    /// A worker exceeded the bound-phase watchdog deadline.
    Stall(WorkerStall),
    /// The checkpoint being resumed failed to decode or did not match
    /// the pack/configuration.
    Checkpoint(CheckpointError),
}

impl RunError {
    /// The offending core, when the failure is attributable to one.
    pub fn core(&self) -> Option<usize> {
        match self {
            RunError::Panic(p) => Some(p.core),
            RunError::Stall(s) => Some(s.core),
            RunError::Checkpoint(_) => None,
        }
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Panic(p) => p.fmt(f),
            RunError::Stall(s) => s.fmt(f),
            RunError::Checkpoint(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Panic(p) => Some(p),
            RunError::Stall(s) => Some(s),
            RunError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<WorkerPanic> for RunError {
    fn from(p: WorkerPanic) -> Self {
        RunError::Panic(p)
    }
}

impl From<WorkerStall> for RunError {
    fn from(s: WorkerStall) -> Self {
        RunError::Stall(s)
    }
}

impl From<CheckpointError> for RunError {
    fn from(e: CheckpointError) -> Self {
        RunError::Checkpoint(e)
    }
}

/// The cache line a weave transaction operates on — the key of its
/// directory shard (per-shard weave attribution in [`WeaveBreakdown`]).
fn txn_line_addr(op: &TraceOp) -> u64 {
    match *op {
        TraceOp::Load { addr, .. } | TraceOp::Store { addr, .. } => crate::line_base(addr),
        TraceOp::Cform { line_addr, .. } | TraceOp::CformNt { line_addr, .. } => line_addr,
        TraceOp::Exec(..) | TraceOp::MaskPush | TraceOp::MaskPop => {
            unreachable!("local ops never reach the weave transaction path")
        }
    }
}

/// Host-side telemetry state of one run: the shared clock, one span
/// track per core (lent to the worker with its task during the bound
/// phase) plus a `runtime` track for whole-machine phase spans, the
/// latency histograms, and the host-time weave breakdown accumulators.
/// Exists only when [`MulticoreConfig::telemetry`] is set — a `None`
/// run records nothing and reads no clocks.
struct RunTelemetry {
    clock: TelemetryClock,
    tracks: Vec<Option<TrackRecorder>>,
    runtime_track: TrackRecorder,
    weave_batch_sizes: LogHistogram,
    weave_turn_ns: LogHistogram,
    barrier_wait_ns: LogHistogram,
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
                .map(|c| Some(TrackRecorder::new(c as u32, clock)))
                .collect(),
            runtime_track: TrackRecorder::new(cores as u32, clock),
            weave_batch_sizes: LogHistogram::new(),
            weave_turn_ns: LogHistogram::new(),
            barrier_wait_ns: LogHistogram::new(),
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
        // analyze::allow(hot-path-alloc): panic path: the worker is already down, steady-state never runs this
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        // analyze::allow(hot-path-alloc): panic path: the worker is already down, steady-state never runs this
        "non-string panic payload".to_string()
    }
}

/// Runs one core's bound phase under `catch_unwind`, recording any panic
/// in `panics` under `core` — shared by the worker loop and the inline
/// single-core path so the two cannot drift.
fn run_task_caught(
    core: usize,
    task: &mut WorkerTask<'_>,
    quantum_end: f64,
    panics: &Mutex<Vec<WorkerPanic>>,
    fault: &FaultPlan,
) {
    let pc_before = task.replay.state.pc;
    let span_start = task.track.as_ref().map(TrackRecorder::start);
    let quantum = task.quantum;
    let result = catch_unwind(AssertUnwindSafe(|| {
        fault.fire(core, quantum);
        task.replay.run_quantum_local(&mut task.l1, quantum_end);
    }));
    if let (Some(track), Some(start)) = (task.track.as_mut(), span_start) {
        // Only quanta in which the core actually replayed something get a
        // bound span — an exhausted core's empty wake-ups would otherwise
        // bury the timeline in zero-length slices.
        if task.replay.state.pc != pc_before {
            track.record_since(Phase::Bound, task.quantum, start);
        }
    }
    if let Err(payload) = result {
        // `lock_recover`: even if the log mutex was poisoned by an
        // earlier panic, this panic must still be recorded — nesting a
        // "panic log poisoned" panic here would unwind past the barrier
        // notification below and wedge the run.
        lock_recover(panics).push(WorkerPanic {
            core,
            message: panic_message(payload.as_ref()),
        });
    }
}

/// The persistent bound-phase worker loop: park at the barrier, run the
/// lent task for the released quantum (up to the first op needing a
/// coherence transaction), report done; repeat until stopped.
///
/// The task is *taken out of* the slot while it runs so a panic inside
/// the replay cannot poison the slot mutex; the panic is caught, recorded
/// in `panics` under this worker's core id, and the barrier is still
/// notified — the main thread aborts the run with an `Err` instead of
/// waiting forever for a completion that will never come.
fn worker_loop(
    core: usize,
    barrier: &QuantumBarrier,
    slot: &Mutex<Option<WorkerTask<'_>>>,
    panics: &Mutex<Vec<WorkerPanic>>,
    fault: &FaultPlan,
) {
    let mut seen = 0u64;
    while let Some(quantum_end) = barrier.wait_for_quantum(&mut seen) {
        // `lock_recover` throughout: a poisoned slot means another thread
        // panicked mid-handoff; that root cause is (or is about to be)
        // recorded in the panic log and surfaced as a `WorkerPanic`, and
        // a nested "worker slot poisoned" panic here would skip the
        // `worker_done` below and hang the barrier forever.
        let task = lock_recover(slot).take();
        if let Some(mut task) = task {
            run_task_caught(core, &mut task, quantum_end, panics, fault);
            // Put the task back even after a panic (its state may be
            // mid-op, but the run is about to abort and only needs the
            // pieces accounted for).
            *lock_recover(slot) = Some(task);
        }
        barrier.worker_done(core);
    }
}

/// Replays per-core trace shards over a [`CoherentHierarchy`] with a
/// cycle-quantum barrier, on a persistent worker pool.
#[derive(Debug)]
pub struct MulticoreEngine {
    /// The coherent hierarchy (public: attack simulations inspect it).
    pub hierarchy: CoherentHierarchy,
    cfg: MulticoreConfig,
}

impl MulticoreEngine {
    /// Builds an engine; shards are supplied to [`Self::run`],
    /// [`Self::run_pack`] or [`Self::run_packs`].
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
            TraceOp::Load { addr, size } => self.hierarchy.load_quiet(c, addr, size as usize, pc),
            TraceOp::Store { addr, size } => with_store_data(addr, size as usize, |data| {
                self.hierarchy.store(c, addr, data, pc)
            }),
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
                self.hierarchy.cform_nt(c, &insn, pc)
            }
            TraceOp::Exec(..) | TraceOp::MaskPush | TraceOp::MaskPop => {
                unreachable!("local ops are consumed by the fast path")
            }
        }
    }

    /// Serial ("weave") phase turn for one core: resume local-completable
    /// ops through the same fast path the parallel phase uses, then
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
            let batched = txns > 1;
            if batched {
                rt.batched_transactions += 1;
                core.weave.batched += 1;
            }
            let contended = self.hierarchy.cross_core_events() != events_before;
            if contended {
                rt.contended_transactions += 1;
                core.weave.contended += 1;
            }
            self.hierarchy
                .note_weave_txn(txn_line_addr(&op), batched, contended);
            if contended {
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

    /// Runs one trace shard per core to completion.
    ///
    /// # Panics
    ///
    /// Panics unless `shards.len()` equals the configured core count, or
    /// (on the main thread, with a [`WorkerPanic`] message) if a worker
    /// panicked — use [`Self::try_run`] to handle that as an error.
    pub fn run(self, shards: Vec<Vec<TraceOp>>) -> MulticoreOutcome {
        self.try_run(shards).unwrap_or_else(|p| panic!("{p}"))
    }

    /// Like [`Self::run`], but a panic on a worker thread is surfaced as
    /// an `Err` naming the offending core instead of wedging the quantum
    /// barrier (or re-panicking).
    ///
    /// # Errors
    ///
    /// [`RunError::Panic`] if a core's replay panicked;
    /// [`RunError::Stall`] if a worker exceeded the watchdog deadline.
    ///
    /// # Panics
    ///
    /// Panics unless `shards.len()` equals the configured core count.
    pub fn try_run(self, shards: Vec<Vec<TraceOp>>) -> Result<MulticoreOutcome, RunError> {
        assert_eq!(
            shards.len(),
            self.cfg.cores,
            "one shard per configured core"
        );
        let sources = shards
            .into_iter()
            .map(|ops| ShardSource::Slice { ops, pos: 0 })
            .collect();
        self.run_sources(sources).map(|(outcome, _)| outcome)
    }

    /// Replays a single packed trace, sharding it across the configured
    /// cores with the deterministic round-robin of [`shard_ops`] — but
    /// without materialising the shards: every worker owns a
    /// [`PackDecoder`] lane over the same pack and decodes in parallel
    /// inside its bound phase, through a fixed core-local ring.
    /// Bit-identical in stats and exceptions to
    /// `self.run(shard_ops(pack.iter(), cores))`.
    ///
    /// # Panics
    ///
    /// Panics on a corrupt pack (packs built by [`TracePack::from_ops`]
    /// or validated by [`TracePack::from_bytes`] are always well-formed),
    /// or with a [`WorkerPanic`] message if a worker panicked.
    pub fn run_pack(self, pack: &TracePack) -> MulticoreOutcome {
        self.try_run_pack(pack).unwrap_or_else(|p| panic!("{p}"))
    }

    /// Like [`Self::run_pack`], but a worker-thread panic is surfaced as
    /// an `Err` naming the offending core.
    ///
    /// # Errors
    ///
    /// [`RunError::Panic`] if a core's replay panicked;
    /// [`RunError::Stall`] if a worker exceeded the watchdog deadline.
    pub fn try_run_pack(self, pack: &TracePack) -> Result<MulticoreOutcome, RunError> {
        self.try_run_pack_with_state(pack)
            .map(|(outcome, _)| outcome)
    }

    /// [`Self::try_run_pack`] that additionally hands back the final
    /// [`CoherentHierarchy`], so callers (the `califorms-oracle`
    /// differential harness) can diff the machine's final memory and
    /// blacklist state byte-for-byte against a reference model.
    ///
    /// # Errors
    ///
    /// [`RunError::Panic`] if a core's replay panicked;
    /// [`RunError::Stall`] if a worker exceeded the watchdog deadline.
    pub fn try_run_pack_with_state(
        self,
        pack: &TracePack,
    ) -> Result<(MulticoreOutcome, CoherentHierarchy), RunError> {
        let sources = Self::pack_lanes(pack, self.cfg.cores);
        self.run_sources(sources)
    }

    /// One decoder lane per core over a shared pack (round-robin
    /// sharding, `stride == cores`).
    fn pack_lanes(pack: &TracePack, cores: usize) -> Vec<ShardSource<'_>> {
        let stride = cores as u64;
        (0..stride)
            .map(|lane| ShardSource::Pack {
                dec: pack.decoder(),
                lane,
                stride,
                next_idx: 0,
                ring: Vec::with_capacity(SOURCE_RING),
                head: 0,
            })
            .collect()
    }

    /// [`Self::try_run_pack`] with crash tolerance: a checkpoint of the
    /// whole machine is captured at every `interval_quanta`-th quantum
    /// boundary (the single-threaded post-weave point — every worker has
    /// quiesced, the drain protocol model-checked in `califorms-analyze`)
    /// and returned alongside the outcome, in capture order. Any of them
    /// can be handed to [`Self::try_resume_pack`] to reproduce the rest
    /// of the run bit-identically.
    ///
    /// # Errors
    ///
    /// [`RunError::Panic`] / [`RunError::Stall`] as for
    /// [`Self::try_run_pack`].
    ///
    /// # Panics
    ///
    /// Panics if `interval_quanta == 0`.
    pub fn try_run_pack_checkpointed(
        self,
        pack: &TracePack,
        interval_quanta: u64,
    ) -> Result<(MulticoreOutcome, Vec<Vec<u8>>), RunError> {
        let mut checkpoints = Vec::new();
        let outcome =
            self.try_run_pack_checkpointed_with(pack, interval_quanta, |b| checkpoints.push(b))?;
        Ok((outcome, checkpoints))
    }

    /// [`Self::try_run_pack_checkpointed`] with streaming delivery:
    /// `sink` receives each checkpoint the moment it is captured, so a
    /// crash-tolerant driver can persist them mid-run instead of
    /// waiting for completion (the `crashrecovery` bench does exactly
    /// this before its child process is killed).
    ///
    /// # Errors
    ///
    /// As for [`Self::try_run_pack_checkpointed`].
    ///
    /// # Panics
    ///
    /// Panics if `interval_quanta == 0`.
    pub fn try_run_pack_checkpointed_with(
        self,
        pack: &TracePack,
        interval_quanta: u64,
        mut sink: impl FnMut(Vec<u8>),
    ) -> Result<MulticoreOutcome, RunError> {
        assert!(interval_quanta >= 1, "checkpoint interval must be ≥ 1");
        let sources = Self::pack_lanes(pack, self.cfg.cores);
        let replays = self.seed_replays(sources);
        self.run_loop(replays, None, Some((interval_quanta, &mut sink)))
            .map(|(outcome, _)| outcome)
    }

    /// Resumes a run of `pack` from a checkpoint produced by
    /// [`Self::try_run_pack_checkpointed`], reconstructing the entire
    /// machine (configuration included) from the checkpoint bytes and
    /// continuing to completion. The outcome is bit-identical to the
    /// tail of a straight-through run — stats, exceptions, runtime and
    /// weave counters all match (host [`RuntimeTiming`] and telemetry
    /// excluded; they restart at the resume point).
    ///
    /// # Errors
    ///
    /// [`RunError::Checkpoint`] if the bytes fail to decode, were taken
    /// by the single-core engine, or do not fit `pack`;
    /// [`RunError::Panic`] / [`RunError::Stall`] if the resumed run
    /// itself fails.
    pub fn try_resume_pack(pack: &TracePack, bytes: &[u8]) -> Result<MulticoreOutcome, RunError> {
        let (engine, replays, seed) = Self::restore(pack, bytes)?;
        engine
            .run_loop(replays, Some(seed), None)
            .map(|(outcome, _)| outcome)
    }

    /// [`Self::try_resume_pack`] that keeps checkpointing while it
    /// runs: the resumed run again emits a checkpoint to `sink` every
    /// `interval_quanta` boundaries (counted from the run's start, so
    /// the cadence matches the original run's). This is what lets the
    /// retry-with-backoff driver survive repeated failures — every
    /// recovery attempt refreshes its fallback point.
    ///
    /// # Errors
    ///
    /// As for [`Self::try_resume_pack`].
    ///
    /// # Panics
    ///
    /// Panics if `interval_quanta == 0`.
    pub fn try_resume_pack_checkpointed_with(
        pack: &TracePack,
        bytes: &[u8],
        interval_quanta: u64,
        mut sink: impl FnMut(Vec<u8>),
    ) -> Result<MulticoreOutcome, RunError> {
        assert!(interval_quanta >= 1, "checkpoint interval must be ≥ 1");
        let (engine, replays, seed) = Self::restore(pack, bytes)?;
        engine
            .run_loop(replays, Some(seed), Some((interval_quanta, &mut sink)))
            .map(|(outcome, _)| outcome)
    }

    /// Replays one pre-encoded pack per core (e.g. from
    /// `MtWorkload::to_packs`), each decoded by its own worker inside the
    /// bound phase. Bit-identical in stats and exceptions to
    /// `self.run(packs.iter().map(|p| p.to_vec()).collect())`.
    ///
    /// # Panics
    ///
    /// Panics unless `packs.len()` equals the configured core count, on
    /// a corrupt pack, or with a [`WorkerPanic`] message if a worker
    /// panicked.
    pub fn run_packs(self, packs: &[TracePack]) -> MulticoreOutcome {
        self.try_run_packs(packs).unwrap_or_else(|p| panic!("{p}"))
    }

    /// Like [`Self::run_packs`], but a worker-thread panic is surfaced as
    /// an `Err` naming the offending core.
    ///
    /// # Errors
    ///
    /// [`RunError::Panic`] if a core's replay panicked;
    /// [`RunError::Stall`] if a worker exceeded the watchdog deadline.
    ///
    /// # Panics
    ///
    /// Panics unless `packs.len()` equals the configured core count.
    pub fn try_run_packs(self, packs: &[TracePack]) -> Result<MulticoreOutcome, RunError> {
        assert_eq!(packs.len(), self.cfg.cores, "one pack per configured core");
        let sources = packs
            .iter()
            .map(|pack| ShardSource::Pack {
                dec: pack.decoder(),
                lane: 0,
                stride: 1,
                next_idx: 0,
                ring: Vec::with_capacity(SOURCE_RING),
                head: 0,
            })
            .collect();
        self.run_sources(sources).map(|(outcome, _)| outcome)
    }

    /// Builds the per-core replay states for a fresh (unseeded) run.
    fn seed_replays<'p>(&self, sources: Vec<ShardSource<'p>>) -> Vec<Option<CoreReplay<'p>>> {
        sources
            .into_iter()
            .enumerate()
            .map(|(id, src)| {
                let state = CoreState::new(self.cfg.core, self.cfg.hierarchy.l1d_latency);
                Some(CoreReplay::new(id, src, state))
            })
            .collect()
    }

    /// Serializes the whole machine — configuration, per-core
    /// architectural state, coherent hierarchy, runtime counters and
    /// every decoder lane's cursor — into a self-contained checkpoint.
    /// Called only at the single-threaded post-weave point, where every
    /// worker has quiesced and each `replays` slot holds its core.
    fn capture_checkpoint(
        &self,
        replays: &[Option<CoreReplay<'_>>],
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
        for slot in replays {
            let c = slot.as_ref().expect("replay present at a quantum boundary");
            c.state.save(&mut w);
            ck::put_core_weave(&mut w, &c.weave);
        }
        w.end_section(s);

        let s = w.begin_section(ck::SEC_COHERENT);
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
        for slot in replays {
            let c = slot.as_ref().expect("replay present at a quantum boundary");
            match &c.src {
                ShardSource::Pack {
                    dec,
                    lane,
                    stride,
                    next_idx,
                    ring,
                    head,
                } => {
                    ck::put_resume_point(&mut w, &dec.resume_point());
                    w.u64(*lane);
                    w.u64(*stride);
                    w.u64(*next_idx);
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
    ) -> ck::Result<(Self, Vec<Option<CoreReplay<'p>>>, ResumeSeed)> {
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
            // `resume_from` re-validates the byte offset against this
            // pack, so a checkpoint from a different (shorter) pack
            // fails typed instead of decoding garbage.
            let dec = pack.resume_from(point)?;
            sources.push(ShardSource::Pack {
                dec,
                lane,
                stride,
                next_idx,
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
            replays.push(Some(c));
        }
        ck::consumed(&r, ck::SEC_CORE)?;

        let cfg = MulticoreConfig {
            cores,
            quantum,
            hierarchy,
            coherence,
            core,
            runtime: RuntimeConfig {
                weave_batch,
                ..RuntimeConfig::default()
            },
            telemetry: false,
            fault: FaultPlan::default(),
        };
        let mut engine = MulticoreEngine::new(cfg);

        let mut r = ck::require(&sections, ck::SEC_COHERENT, "coherent hierarchy")?;
        engine.hierarchy = CoherentHierarchy::restore_state(hierarchy, coherence, cores, &mut r)?;
        ck::consumed(&r, ck::SEC_COHERENT)?;

        Ok((engine, replays, ResumeSeed { rt, quantum_end }))
    }

    /// The shared run loop entry for fresh runs: persistent workers
    /// (multi-core only), quantum barrier, batched weave.
    fn run_sources(
        self,
        sources: Vec<ShardSource<'_>>,
    ) -> Result<(MulticoreOutcome, CoherentHierarchy), RunError> {
        let replays = self.seed_replays(sources);
        self.run_loop(replays, None, None)
    }

    /// The run loop proper. `seed` resumes mid-run (runtime counters and
    /// quantum clock restored from a checkpoint); `checkpoint` captures
    /// a checkpoint into its sink at every N-th quantum boundary.
    fn run_loop(
        mut self,
        mut replays: Vec<Option<CoreReplay<'_>>>,
        seed: Option<ResumeSeed>,
        mut checkpoint: Option<CheckpointEvery<'_>>,
    ) -> Result<(MulticoreOutcome, CoherentHierarchy), RunError> {
        let n = self.cfg.cores;
        let mut rt = RuntimeStats::default();
        let mut timing = RuntimeTiming::default();
        // The no-op sink: `None` unless telemetry was requested, so a
        // disabled run takes no clock reads and allocates nothing.
        let mut tel: Option<RunTelemetry> = self.cfg.telemetry.then(|| RunTelemetry::new(n));

        // Persistent pool plumbing, created once per run: the barrier,
        // one state slot and one lane flag per core. With one core the
        // bound phase runs inline — there is nobody to overlap with.
        let use_threads = n > 1;
        let barrier = QuantumBarrier::new();
        let slots: Vec<Mutex<Option<WorkerTask<'_>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let panics: Mutex<Vec<WorkerPanic>> = Mutex::new(Vec::new());
        let fault = self.cfg.fault;

        let run_result: Result<(), RunError> = std::thread::scope(|scope| {
            if use_threads {
                for (core, slot) in slots.iter().enumerate() {
                    let barrier = &barrier;
                    let panics = &panics;
                    let fault = &fault;
                    scope.spawn(move || worker_loop(core, barrier, slot, panics, fault));
                }
            }

            let quantum = self.cfg.quantum;
            let mut quantum_end = quantum;
            if let Some(s) = &seed {
                rt = s.rt;
                quantum_end = s.quantum_end;
            }

            loop {
                let all_done = replays
                    .iter_mut()
                    .all(|r| r.as_mut().expect("replay present between quanta").done());
                if all_done {
                    break;
                }

                // Lend each worker its replay cursor, L1 and span track.
                let t0 = Instant::now();
                for (c, slot) in slots.iter().enumerate() {
                    let task = WorkerTask {
                        replay: replays[c].take().expect("replay present between quanta"),
                        l1: self.hierarchy.take_l1(c),
                        track: tel.as_mut().and_then(|t| t.tracks[c].take()),
                        quantum: rt.quanta,
                    };
                    *lock_recover(slot) = Some(task);
                }

                // Parallel (bound) phase.
                let t1 = Instant::now();
                let t1n = tel.as_ref().map_or(0, |t| t.clock.now_ns());
                if use_threads {
                    barrier.release(n, quantum_end);
                    match self.cfg.runtime.watchdog {
                        None => barrier.wait_all_done(),
                        Some(deadline) => {
                            if let Err(err) = barrier.wait_all_done_deadline(deadline) {
                                // A stalled worker: retire the barrier so
                                // the survivors exit (and the stalled
                                // worker's eventual late report no-ops),
                                // then surface the typed stall.
                                let core = match err {
                                    BarrierWaitError::Stalled(cores) => {
                                        cores.first().copied().unwrap_or(0)
                                    }
                                    BarrierWaitError::TornDown => 0,
                                };
                                barrier.tear_down();
                                return Err(RunError::Stall(WorkerStall {
                                    core,
                                    phase: "bound",
                                    quantum: rt.quanta,
                                }));
                            }
                        }
                    }
                } else {
                    let mut g = lock_recover(&slots[0]);
                    let task = g.as_mut().expect("task was just lent");
                    run_task_caught(0, task, quantum_end, &panics, &fault);
                }
                let t2 = Instant::now();

                // Reclaim the machine for the weave. An empty slot (the
                // worker failed to return its task — only reachable
                // through a handoff bug or a panic between take and
                // put-back) is tolerated here and surfaced as a
                // `WorkerPanic` below, after the panic log has been
                // consulted for the likelier root cause.
                let mut missing_slot: Option<usize> = None;
                for (c, slot) in slots.iter().enumerate() {
                    match lock_recover(slot).take() {
                        Some(task) => {
                            self.hierarchy.put_l1(c, task.l1);
                            replays[c] = Some(task.replay);
                            if let (Some(t), Some(track)) = (tel.as_mut(), task.track) {
                                t.tracks[c] = Some(track);
                            }
                        }
                        None => missing_slot = missing_slot.or(Some(c)),
                    }
                }
                let t3 = Instant::now();

                // Per-core barrier spans: from each core's bound-span end
                // to the reclaim point — the wait the aggregate
                // `barrier_s` sums away. Cores that recorded no bound
                // span this quantum (exhausted shard) are skipped: their
                // last span end predates this quantum's bound phase.
                if let Some(t) = tel.as_mut() {
                    for track in t.tracks.iter_mut().flatten() {
                        match track.last_end_ns() {
                            Some(wait_start) if wait_start >= t1n => {
                                let dur = track.record_since(Phase::Barrier, rt.quanta, wait_start);
                                t.barrier_wait_ns.record(dur);
                            }
                            _ => {}
                        }
                    }
                }

                // A worker panic aborts the run *before* the weave: the
                // panicking core's cursor is mid-op, so continuing would
                // simulate garbage. Stop the barrier first so the
                // surviving workers exit and the scope can join them.
                let worker_panic = {
                    let mut g = lock_recover(&panics);
                    g.sort_by_key(|p| p.core);
                    g.first().cloned()
                };
                if let Some(p) = worker_panic {
                    barrier.stop();
                    return Err(p.into());
                }
                if let Some(core) = missing_slot {
                    barrier.stop();
                    return Err(WorkerPanic {
                        core,
                        message: "worker slot empty after the bound phase \
                                  (worker did not return its task)"
                            .to_string(),
                    }
                    .into());
                }

                // Serial (weave) phase: deterministic round-robin. An
                // engine panic here (e.g. an op that only ever reaches
                // the weave, like a misaligned CFORM-NT) is part of the
                // `try_run*` error contract too: catch it per turn,
                // stop the barrier so the scope can join the parked
                // workers, and surface it as the offending core's
                // `WorkerPanic`.
                let mut quantum_weave_ns = 0u64;
                loop {
                    let mut progressed = false;
                    for slot in replays.iter_mut() {
                        let mut core = slot.take().expect("replay present between quanta");
                        let turn_start = tel.as_ref().map(|t| t.clock.now_ns());
                        let batch_hist = tel.as_mut().map(|t| &mut t.weave_batch_sizes);
                        let turn = catch_unwind(AssertUnwindSafe(|| {
                            self.weave_turn(&mut core, quantum_end, &mut rt, batch_hist)
                        }));
                        let core_id = core.id;
                        *slot = Some(core);
                        match turn {
                            Ok(p) => {
                                progressed |= p;
                                if p {
                                    if let (Some(t), Some(start)) = (tel.as_mut(), turn_start) {
                                        let dur = t.clock.now_ns().saturating_sub(start);
                                        if let Some(track) = t.tracks[core_id].as_mut() {
                                            track.record(Phase::Weave, rt.quanta, start, dur);
                                        }
                                        t.weave_turn_ns.record(dur);
                                        t.per_core_weave_ns[core_id] += dur;
                                        quantum_weave_ns += dur;
                                    }
                                }
                            }
                            Err(payload) => {
                                barrier.stop();
                                return Err(WorkerPanic {
                                    core: core_id,
                                    message: panic_message(payload.as_ref()),
                                }
                                .into());
                            }
                        }
                    }
                    if !progressed {
                        break;
                    }
                }
                let t4 = Instant::now();

                timing.barrier_s += (t1 - t0).as_secs_f64() + (t3 - t2).as_secs_f64();
                timing.bound_s += (t2 - t1).as_secs_f64();
                timing.weave_s += (t4 - t3).as_secs_f64();
                if let Some(t) = tel.as_mut() {
                    // Whole-machine phase spans on the `runtime` track,
                    // plus this quantum's weave sample.
                    let bound_ns = (t2 - t1).as_nanos() as u64;
                    let weave_ns = (t4 - t3).as_nanos() as u64;
                    let reclaim_ns = (t3 - t2).as_nanos() as u64;
                    t.runtime_track
                        .record(Phase::Bound, rt.quanta, t1n, bound_ns);
                    t.runtime_track
                        .record(Phase::Barrier, rt.quanta, t1n + bound_ns, reclaim_ns);
                    t.runtime_track.record(
                        Phase::Weave,
                        rt.quanta,
                        t1n + bound_ns + reclaim_ns,
                        weave_ns,
                    );
                    t.push_quantum_weave(quantum_weave_ns);
                }
                rt.quanta += 1;
                rt.barrier_waits += n as u64;
                quantum_end += quantum;

                // Fast-forward over empty quanta: if every unfinished core
                // is already past the boundary (e.g. one committed a huge
                // `Exec`), jump to the first quantum in which some core can
                // run instead of waking idle workers one quantum at a time.
                // Pure f64 math on deterministic inputs.
                let min_cycles = replays
                    .iter_mut()
                    .filter_map(|r| {
                        let r = r.as_mut().expect("replay present between quanta");
                        if r.done() {
                            None
                        } else {
                            Some(r.state.cycles)
                        }
                    })
                    .fold(f64::INFINITY, f64::min);
                if min_cycles.is_finite() && min_cycles >= quantum_end {
                    let skipped = ((min_cycles - quantum_end) / quantum).floor() + 1.0;
                    quantum_end += skipped * quantum;
                }

                // Checkpoint at the quantum boundary: every worker has
                // quiesced (barrier crossed, L1s reclaimed, weave done),
                // so the machine is single-threaded here and the capture
                // is plain sequential code — the drain protocol
                // model-checked in `califorms-analyze`.
                if let Some((k, sink)) = checkpoint.as_mut() {
                    if rt.quanta % *k == 0 {
                        sink(self.capture_checkpoint(&replays, &rt, quantum_end));
                    }
                }
            }
            barrier.stop();
            Ok(())
        });
        run_result?;

        let cores = replays
            .into_iter()
            .map(|r| r.expect("replay present at finish"))
            .collect();
        Ok(self.finish(cores, rt, timing, tel))
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
            per_shard: self
                .hierarchy
                .shard_stats()
                .iter()
                .map(|s| ShardWeaveStats {
                    transactions: s.weave_transactions,
                    batched: s.weave_batched,
                    contended: s.weave_contended,
                })
                .collect(),
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
            let counters = crate::telemetry::multicore_counters(
                &stats,
                &self.hierarchy.shard_stats(),
                &self.hierarchy.bank_level_stats(),
                &decode,
            )
            .snapshot();
            let mut spans = Vec::new();
            let mut track_names = Vec::new();
            let mut dropped_spans = 0u64;
            let tracks = t
                .tracks
                .into_iter()
                .flatten()
                .chain(std::iter::once(t.runtime_track));
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
                barrier_wait_ns: t.barrier_wait_ns,
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

    fn expect_worker_panic(err: RunError) -> WorkerPanic {
        match err {
            RunError::Panic(p) => p,
            other => panic!("expected a worker panic, got: {other}"),
        }
    }

    #[test]
    fn single_core_runs_a_plain_trace() {
        let out = engine(1).run(vec![vec![
            TraceOp::Exec(400),
            TraceOp::Store {
                addr: 0x100,
                size: 8,
            },
            TraceOp::Load {
                addr: 0x100,
                size: 8,
            },
        ]]);
        let s = &out.stats.per_core[0];
        assert_eq!(s.instructions, 402);
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 1);
        assert_eq!(out.stats.combined.instructions, 402);
    }

    #[test]
    fn per_core_counters_split_by_shard() {
        let out = engine(2).run(vec![
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
        ]);
        assert_eq!(out.stats.per_core[0].loads, 10);
        assert_eq!(out.stats.per_core[0].stores, 0);
        assert_eq!(out.stats.per_core[1].stores, 4);
        assert_eq!(out.stats.combined.loads, 10);
        assert_eq!(out.stats.combined.stores, 4);
    }

    #[test]
    fn makespan_is_the_slowest_core() {
        let out = engine(2).run(vec![
            vec![TraceOp::Exec(4_000)],
            vec![TraceOp::Exec(400_000)],
        ]);
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
        let out = engine(2).run(vec![shard(50), shard(50)]);
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
        let out = engine(2).run(vec![
            vec![cform, TraceOp::MaskPush, probe, TraceOp::MaskPop],
            vec![TraceOp::Exec(100_000), probe],
        ]);
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
        let out = engine(2).run(vec![shard(0x10_0000), shard(0x90_0000)]);
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
        let out = engine(2).run(shards);
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
        engine(2).run(vec![vec![]]);
    }

    /// A panicking worker used to leave the quantum barrier waiting for a
    /// completion that never came, hanging the run; it must now surface
    /// as an `Err` naming the offending core.
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
        let err = expect_worker_panic(engine(2).try_run(shards).unwrap_err());
        assert_eq!(err.core, 1);
        assert!(
            err.message.contains("aligned"),
            "panic message is preserved: {}",
            err.message
        );
    }

    /// A panic on the main-thread weave path is part of the same error
    /// contract: a misaligned `CFORM-NT` never runs in the bound phase
    /// (non-temporal CFORMs are always coherence transactions), so its
    /// alignment assert fires inside the weave — and must come back as
    /// `Err` with the woven core's id, not unwind past the barrier.
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
        let err = expect_worker_panic(engine(2).try_run(shards).unwrap_err());
        assert_eq!(err.core, 1);
        assert!(err.message.contains("aligned"), "{}", err.message);
    }

    /// The inline single-core bound phase takes the same catch path.
    #[test]
    fn single_core_panic_surfaces_as_err() {
        let shards = vec![vec![TraceOp::Cform {
            line_addr: 0x77,
            attrs: 1,
            mask: 1,
        }]];
        let err = expect_worker_panic(engine(1).try_run(shards).unwrap_err());
        assert_eq!(err.core, 0);
    }

    /// The panicking `run` wrapper re-panics on the main thread (instead
    /// of hanging) with the core id in the message.
    #[test]
    #[should_panic(expected = "worker thread for core 0 panicked")]
    fn run_wrapper_repanics_with_core_id() {
        engine(2).run(vec![
            vec![TraceOp::Cform {
                line_addr: 0x33,
                attrs: 1,
                mask: 1,
            }],
            vec![TraceOp::Exec(1)],
        ]);
    }

    #[test]
    #[should_panic(expected = "one pack per configured core")]
    fn pack_count_mismatch_panics() {
        engine(2).run_packs(&[TracePack::from_ops(std::iter::empty())]);
    }

    /// A poisoned worker slot must not take down the worker loop with a
    /// nested "worker slot poisoned" panic: pre-fix, the worker died
    /// before calling `worker_done`, so `wait_all_done` here hung
    /// forever; now the loop recovers the guard, finds the slot empty,
    /// and still reports done.
    #[test]
    fn worker_loop_survives_a_poisoned_slot() {
        let barrier = QuantumBarrier::new();
        let slot: Mutex<Option<WorkerTask<'static>>> = Mutex::new(None);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _g = slot.lock().unwrap();
            panic!("poison the slot");
        }));
        assert!(slot.is_poisoned());
        let panics: Mutex<Vec<WorkerPanic>> = Mutex::new(Vec::new());
        let fault = FaultPlan::default();
        std::thread::scope(|scope| {
            scope.spawn(|| worker_loop(0, &barrier, &slot, &panics, &fault));
            barrier.release(1, 10_000.0);
            barrier.wait_all_done();
            barrier.stop();
        });
        assert!(
            lock_recover(&panics).is_empty(),
            "an empty poisoned slot is not itself a worker panic"
        );
    }

    /// A panic in the replay must land in the panic log even when the log
    /// mutex is already poisoned (e.g. by a concurrently panicking
    /// sibling) — the recorded entry is what `try_run*` surfaces as the
    /// `WorkerPanic` error instead of a nested panic.
    #[test]
    fn panic_log_records_through_poison() {
        let panics: Mutex<Vec<WorkerPanic>> = Mutex::new(Vec::new());
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _g = panics.lock().unwrap();
            panic!("poison the log");
        }));
        assert!(panics.is_poisoned());
        lock_recover(&panics).push(WorkerPanic {
            core: 3,
            message: "late arrival".into(),
        });
        let g = lock_recover(&panics);
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].core, 3);
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
                let reference = MulticoreEngine::new(cfg).try_run_pack(&pack).unwrap();
                let (full, checkpoints) = MulticoreEngine::new(cfg)
                    .try_run_pack_checkpointed(&pack, 2)
                    .unwrap();
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
                    let resumed = MulticoreEngine::try_resume_pack(&pack, bytes).unwrap();
                    assert_eq!(
                        resumed.stats, reference.stats,
                        "resume from checkpoint {i} diverged (cores={cores} batch={batch})"
                    );
                    assert_eq!(resumed.exceptions, reference.exceptions);
                }
            }
        }
    }

    /// An injected worker kill surfaces as a typed `RunError::Panic`
    /// naming the killed core — the run never hangs at the barrier.
    #[test]
    fn kill_fault_surfaces_as_typed_panic() {
        let pack = TracePack::from_ops(crash_test_ops());
        let cfg = MulticoreConfig::westmere(2).with_fault(FaultPlan {
            kill_at: Some((1, 0)),
            ..FaultPlan::default()
        });
        let err = expect_worker_panic(MulticoreEngine::new(cfg).try_run_pack(&pack).unwrap_err());
        assert_eq!(err.core, 1);
        assert!(
            err.message.contains("fault injection"),
            "injected kills are identifiable: {}",
            err.message
        );
    }

    /// An injected stall trips the barrier watchdog within its deadline
    /// and comes back as `RunError::Stall` naming the stalled core and
    /// phase — never a hang.
    #[test]
    fn stall_fault_trips_the_watchdog() {
        let pack = TracePack::from_ops(crash_test_ops());
        let cfg = MulticoreConfig::westmere(2)
            .with_watchdog(Some(Duration::from_millis(50)))
            .with_fault(FaultPlan {
                stall_at: Some((1, 0, 400)),
                ..FaultPlan::default()
            });
        let err = MulticoreEngine::new(cfg).try_run_pack(&pack).unwrap_err();
        match err {
            RunError::Stall(s) => {
                assert_eq!(s.core, 1, "the stalled core is named");
                assert_eq!(s.phase, "bound");
                assert!(s.to_string().contains("watchdog"), "{s}");
            }
            other => panic!("expected a stall, got: {other}"),
        }
    }

    /// A fault plan that never fires leaves the run bit-identical to an
    /// unfaulted one (the hooks are free until they trigger).
    #[test]
    fn dormant_fault_plan_is_invisible() {
        let pack = TracePack::from_ops(crash_test_ops());
        let reference = engine(2).try_run_pack(&pack).unwrap();
        let cfg = MulticoreConfig::westmere(2).with_fault(FaultPlan {
            kill_at: Some((0, u64::MAX)),
            stall_at: Some((1, u64::MAX, 1)),
        });
        let out = MulticoreEngine::new(cfg).try_run_pack(&pack).unwrap();
        assert_eq!(out.stats, reference.stats);
    }
}
