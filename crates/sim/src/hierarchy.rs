//! The simulated memory hierarchy: L1D (bitvector format) → L2 → L3
//! (sentinel format) → DRAM (sentinel format, metadata bit in spare ECC).
//!
//! The configuration defaults to the paper's Table 3 (Westmere-like):
//!
//! | level | size   | ways | latency |
//! |-------|--------|------|---------|
//! | L1D   | 32 KB  | 8    | 4       |
//! | L2    | 256 KB | 8    | 7       |
//! | L3    | 2 MB   | 16   | 27      |
//! | DRAM  | —      | —    | ~300 (DDR3-1333, loaded) |
//!
//! Fills and spills at the L1 boundary run the real conversion algorithms
//! from `califorms-core`, so califormed data is stored sentinel-formatted
//! below the L1 exactly as in Figure 1, and the *Califorms checker* of the
//! L1 hit path performs the byte-granular access check.
//!
//! Approximations (documented per DESIGN.md): the hierarchy is inclusive
//! by construction of the fill path; clean evictions are dropped; no MESI
//! (single core); instruction fetches are not simulated (the workloads'
//! `Exec` operations account for their cycles).

use crate::cache::SetAssocCache;
use crate::stats::SimStats;
use crate::{line_base, line_offset, LINE_BYTES};
use califorms_core::{
    fill_canonical, range_mask, spill_canonical, AccessKind, CaliformsException, CformInstruction,
    CoreError, ExceptionKind, L1Line, L2Line,
};
/// The deterministic line-address hasher and map, lifted to
/// `califorms-core::detmap` so every result-bearing crate can use them;
/// re-exported here because the hierarchy is where they originated and
/// most sim-internal users import them from this module.
pub use califorms_core::{LineHasher, LineMap};

/// Hierarchy geometry and latency configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyConfig {
    /// L1 data cache capacity in bytes.
    pub l1d_size: usize,
    /// L1 data cache associativity.
    pub l1d_ways: usize,
    /// L1 data cache hit latency (cycles).
    pub l1d_latency: u32,
    /// L2 capacity in bytes.
    pub l2_size: usize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// L2 hit latency (cycles).
    pub l2_latency: u32,
    /// L3 capacity in bytes.
    pub l3_size: usize,
    /// L3 associativity.
    pub l3_ways: usize,
    /// L3 hit latency (cycles).
    pub l3_latency: u32,
    /// Main-memory access latency (cycles).
    pub dram_latency: u32,
    /// Additional L2 latency imposed by the Califorms machinery — the
    /// pessimistic +1-cycle experiment of Figure 10.
    pub extra_l2_latency: u32,
    /// Additional L3 latency, ditto.
    pub extra_l3_latency: u32,
    /// Whether the next-line stream prefetcher is active (Westmere has
    /// one; without it sequential sweeps pay full miss latency and the
    /// Figure 10 sensitivity of streaming benchmarks is overstated).
    pub stream_prefetcher: bool,
    /// Residual latency (beyond L1) charged for a prefetched miss — the
    /// part the prefetcher could not hide.
    pub prefetch_residual: u32,
}

impl HierarchyConfig {
    /// The paper's Table 3 configuration (Intel Westmere-like, 2.27 GHz).
    pub fn westmere() -> Self {
        Self {
            l1d_size: 32 * 1024,
            l1d_ways: 8,
            l1d_latency: 4,
            l2_size: 256 * 1024,
            l2_ways: 8,
            l2_latency: 7,
            l3_size: 2 * 1024 * 1024,
            l3_ways: 16,
            l3_latency: 27,
            dram_latency: 300,
            extra_l2_latency: 0,
            extra_l3_latency: 0,
            stream_prefetcher: true,
            prefetch_residual: 2,
        }
    }

    /// The same machine with the pessimistic +1-cycle L2/L3 Califorms
    /// latency of Section 8.1.
    pub fn westmere_plus_one_cycle() -> Self {
        Self {
            extra_l2_latency: 1,
            extra_l3_latency: 1,
            ..Self::westmere()
        }
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::westmere()
    }
}

/// Outcome of a data access against the hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemResult {
    /// Total access latency in cycles (includes the L1 hit latency).
    pub latency: u32,
    /// Bytes returned (loads only; zeros at security-byte positions).
    pub data: Vec<u8>,
    /// Raised Califorms exception, if the access touched a security byte
    /// or a `CFORM` K-map rule fired. Delivery vs suppression is the
    /// engine's job (exception masks live above the hierarchy).
    pub exception: Option<CaliformsException>,
}

impl MemResult {
    /// A data-less result — stores, quiet probes, and coherence updates.
    /// Every such site constructs through here so there is exactly one
    /// empty-`data` expression on the worker hot path.
    #[must_use]
    pub fn quiet(latency: u32, exception: Option<CaliformsException>) -> Self {
        Self {
            latency,
            // analyze::allow(hot-path-alloc): Vec::new() is capacity 0 and never allocates
            data: Vec::new(),
            exception,
        }
    }
}

/// Maps a `CFORM` K-map fault onto the privileged exception (Table 1
/// semantics), shared by the single-core [`Hierarchy`] and the
/// [`crate::coherence::CoherentHierarchy`] paths.
pub(crate) fn kmap_exception(e: CoreError, line_addr: u64, pc: u64) -> CaliformsException {
    let (kind, index) = match e {
        CoreError::CformSetOnSecurityByte { index } => (ExceptionKind::CformDoubleSet, index),
        CoreError::CformUnsetOnNormalByte { index } => (ExceptionKind::CformUnsetNormal, index),
        other => unreachable!("CFORM faults are K-map faults: {other}"),
    };
    CaliformsException {
        fault_addr: line_addr + index as u64,
        access: AccessKind::Cform,
        kind,
        pc,
    }
}

/// Exclusive end of a memory access, faulting loudly on a wrapping
/// range instead of letting debug builds panic on overflow and release
/// builds silently turn the access into a no-op. (An access whose last
/// byte is the top of the address space is representable only as a
/// single-line access; the line-crossing split paths never need
/// `end == 2^64`.)
#[inline]
fn access_end(addr: u64, len: usize) -> u64 {
    addr.checked_add(len as u64).unwrap_or_else(|| {
        panic!("memory access [{addr:#x}, {addr:#x} + {len:#x}) wraps past the address space")
    })
}

/// Builds the load exception for a violating-byte mask (line-relative),
/// or `None` when no accessed byte was a security byte.
#[inline]
pub(crate) fn load_violation(
    violating: u64,
    line_addr: u64,
    pc: u64,
) -> Option<CaliformsException> {
    (violating != 0).then(|| CaliformsException {
        fault_addr: line_addr + u64::from(violating.trailing_zeros()),
        access: AccessKind::Load,
        kind: ExceptionKind::SecurityByteAccess,
        pc,
    })
}

/// Maps a line-level store fault onto the store exception.
#[inline]
fn store_violation(e: CoreError, line_addr: u64, pc: u64) -> CaliformsException {
    match e {
        CoreError::StoreToSecurityByte { index } => CaliformsException {
            fault_addr: line_addr + index as u64,
            access: AccessKind::Store,
            kind: ExceptionKind::SecurityByteAccess,
            pc,
        },
        other => unreachable!("store can only fault on security bytes: {other}"),
    }
}

/// Main memory: sentinel-format lines; the *califormed?* bit conceptually
/// lives in spare ECC bits (Section 3), so no extra address space is used.
#[derive(Debug, Default)]
struct Dram {
    lines: LineMap<L2Line>,
}

impl Dram {
    fn load(&self, line_addr: u64) -> L2Line {
        self.lines
            .get(&line_addr)
            .copied()
            .unwrap_or(L2Line::plain([0; 64]))
    }

    fn store(&mut self, line_addr: u64, line: L2Line) {
        self.lines.insert(line_addr, line);
    }
}

/// One bank of the shared levels: an L2/L3 slice plus its DRAM partition,
/// holding every line whose index is ≡ `bank` (mod `banks`).
///
/// Banks exist so the multi-core bound phase can hand each worker
/// exclusive ownership of a subset of the shared state (DESIGN.md §10):
/// during the parallel phase of a quantum, bank `b` is touched only by
/// the core that owns it, so private misses can be serviced without any
/// lock or weave turn — data-race-free by construction.
///
/// The bank addresses its internal caches with *bank-local* line indices
/// (`line_no / banks`), which makes the composite (bank, local-set)
/// mapping a bijection of the unbanked set mapping: two lines conflict in
/// a banked set **iff** they conflicted in the corresponding unbanked
/// set, so banking changes no simulated result — with one bank this is
/// the identity. All public methods speak global line addresses.
#[derive(Debug)]
pub struct LevelBank {
    cfg: HierarchyConfig,
    /// This bank's index and the total bank count (for address
    /// translation back and forth).
    bank: u64,
    banks: u64,
    l2: SetAssocCache<L2Line>,
    l3: SetAssocCache<L2Line>,
    dram: Dram,
    /// DRAM line fetches serviced by this bank.
    pub dram_accesses: u64,
}

impl LevelBank {
    fn new(cfg: HierarchyConfig, bank: u64, banks: u64) -> Self {
        Self {
            l2: SetAssocCache::new(cfg.l2_size / banks as usize, cfg.l2_ways, cfg.l2_latency),
            l3: SetAssocCache::new(cfg.l3_size / banks as usize, cfg.l3_ways, cfg.l3_latency),
            dram: Dram::default(),
            dram_accesses: 0,
            cfg,
            bank,
            banks,
        }
    }

    /// Global line address → bank-local line address.
    #[inline]
    fn local(&self, line_addr: u64) -> u64 {
        (line_addr / LINE_BYTES / self.banks) * LINE_BYTES
    }

    /// Bank-local line address → global line address.
    #[inline]
    fn global(&self, local_addr: u64) -> u64 {
        ((local_addr / LINE_BYTES) * self.banks + self.bank) * LINE_BYTES
    }

    fn insert_l3(&mut self, line_addr: u64, line: L2Line, dirty: bool) {
        if let Some(ev) = self.l3.insert(self.local(line_addr), line, dirty) {
            if ev.dirty {
                let global = self.global(ev.line_addr);
                self.dram.store(global, ev.value);
            }
        }
    }

    /// Inserts (or refreshes) a line in the L2, rippling dirty evictions
    /// down to L3 and DRAM — the write-back path for L1 spills.
    pub fn insert_l2(&mut self, line_addr: u64, line: L2Line, dirty: bool) {
        if let Some(ev) = self.l2.insert(self.local(line_addr), line, dirty) {
            if ev.dirty {
                let global = self.global(ev.line_addr);
                self.insert_l3(global, ev.value, true);
            }
        }
    }

    /// Fetches a line in sentinel format from L2/L3/DRAM, returning the
    /// added latency (beyond L1).
    pub fn fetch(&mut self, line_addr: u64) -> (L2Line, u32) {
        let local = self.local(line_addr);
        if let Some(line) = self.l2.access(local) {
            return (*line, self.cfg.l2_latency + self.cfg.extra_l2_latency);
        }
        let l2_part = self.cfg.l2_latency + self.cfg.extra_l2_latency;
        if let Some(line) = self.l3.access(local) {
            let line = *line;
            let latency = l2_part + self.cfg.l3_latency + self.cfg.extra_l3_latency;
            self.insert_l2(line_addr, line, false);
            return (line, latency);
        }
        let l3_part = self.cfg.l3_latency + self.cfg.extra_l3_latency;
        self.dram_accesses += 1;
        let line = self.dram.load(line_addr);
        self.insert_l3(line_addr, line, false);
        self.insert_l2(line_addr, line, false);
        (line, l2_part + l3_part + self.cfg.dram_latency)
    }

    /// Functional (stat-free, LRU-free) read of a line from whichever
    /// level of this bank holds it, falling through to DRAM.
    pub fn peek_line(&self, line_addr: u64) -> L2Line {
        let local = self.local(line_addr);
        self.l2
            .peek(local)
            .or_else(|| self.l3.peek(local))
            .copied()
            .unwrap_or_else(|| self.dram.load(line_addr))
    }

    fn evict_to_dram(&mut self, line_addr: u64) {
        let local = self.local(line_addr);
        if let Some((line, _)) = self.l2.invalidate(local) {
            self.l3.invalidate(local);
            self.dram.store(line_addr, line);
            return;
        }
        if let Some((line, _)) = self.l3.invalidate(local) {
            self.dram.store(line_addr, line);
        }
    }

    fn flush(&mut self) {
        for (addr, line, dirty) in self.l2.drain() {
            if dirty {
                let global = self.global(addr);
                self.insert_l3(global, line, true);
            }
        }
        for (addr, line, dirty) in self.l3.drain() {
            if dirty {
                let global = self.global(addr);
                self.dram.store(global, line);
            }
        }
    }
}

/// One bank's shared-level counters, snapshot for telemetry (the
/// per-shard axis [`SharedLevels::export_stats`] sums away).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankLevelStats {
    /// This bank's L2 slice counters.
    pub l2: crate::stats::CacheStats,
    /// This bank's L3 slice counters.
    pub l3: crate::stats::CacheStats,
    /// Main-memory line fetches through this bank.
    pub dram_accesses: u64,
    /// Lines currently resident in the L2 slice.
    pub l2_resident_lines: u64,
    /// Lines currently resident in the L3 slice.
    pub l3_resident_lines: u64,
}

/// The shared, sentinel-format levels below the L1 boundary: L2 → L3 →
/// DRAM, internally sharded into [`LevelBank`]s by line index.
///
/// Extracted from [`Hierarchy`] so the single-core hierarchy and the
/// multi-core [`crate::coherence::CoherentHierarchy`] (where *several*
/// per-core L1Ds sit on top of one shared L2/L3) drive one implementation.
/// Everything at or below this boundary stores califormed lines in the
/// sentinel format; crossing the boundary upward is where the fill
/// conversion runs, crossing downward the spill. The single-core
/// hierarchy uses one bank; the coherent hierarchy banks the state so the
/// bound phase can own slices of it (see [`LevelBank`]).
#[derive(Debug)]
pub struct SharedLevels {
    banks: Vec<LevelBank>,
}

impl SharedLevels {
    /// Builds the shared levels from a configuration, unbanked.
    pub fn new(cfg: HierarchyConfig) -> Self {
        Self::banked(cfg, 1)
    }

    /// Builds the shared levels sharded into `banks` banks.
    ///
    /// # Panics
    ///
    /// Panics unless `banks` is a power of two dividing the L2 and L3 set
    /// counts (so bank-local indexing preserves the unbanked set
    /// grouping).
    pub fn banked(cfg: HierarchyConfig, banks: usize) -> Self {
        assert!(
            banks.is_power_of_two(),
            "bank count must be a power of two, got {banks}"
        );
        let line = LINE_BYTES as usize;
        let l2_sets = cfg.l2_size / (cfg.l2_ways * line);
        let l3_sets = cfg.l3_size / (cfg.l3_ways * line);
        assert!(
            l2_sets.is_multiple_of(banks) && l3_sets.is_multiple_of(banks),
            "bank count {banks} must divide the L2 ({l2_sets}) and L3 ({l3_sets}) set counts"
        );
        Self {
            banks: (0..banks)
                .map(|b| LevelBank::new(cfg, b as u64, banks as u64))
                .collect(),
        }
    }

    /// Number of banks.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Bank index holding `line_addr`.
    #[inline]
    pub fn bank_of(&self, line_addr: u64) -> usize {
        ((line_addr / LINE_BYTES) % self.banks.len() as u64) as usize
    }

    /// The bank holding `line_addr`.
    #[inline]
    pub fn bank_mut(&mut self, line_addr: u64) -> &mut LevelBank {
        let b = self.bank_of(line_addr);
        &mut self.banks[b]
    }

    /// Total DRAM line fetches across banks.
    pub fn dram_accesses(&self) -> u64 {
        self.banks.iter().map(|b| b.dram_accesses).sum()
    }

    /// Inserts (or refreshes) a line in the L2, rippling dirty evictions
    /// down to L3 and DRAM — the write-back path for L1 spills.
    pub fn insert_l2(&mut self, line_addr: u64, line: L2Line, dirty: bool) {
        self.bank_mut(line_addr).insert_l2(line_addr, line, dirty);
    }

    /// Fetches a line in sentinel format from L2/L3/DRAM, returning the
    /// added latency (beyond L1).
    pub fn fetch(&mut self, line_addr: u64) -> (L2Line, u32) {
        self.bank_mut(line_addr).fetch(line_addr)
    }

    /// Functional (stat-free, LRU-free) read of a line from whichever
    /// shared level holds it, falling through to DRAM.
    pub fn peek_line(&self, line_addr: u64) -> L2Line {
        self.banks[self.bank_of(line_addr)].peek_line(line_addr)
    }

    /// Drops every cached copy of a line, writing the freshest one back to
    /// DRAM (page-eviction building block). The L1 levels above must have
    /// been handled by the caller first.
    pub fn evict_to_dram(&mut self, line_addr: u64) {
        self.bank_mut(line_addr).evict_to_dram(line_addr);
    }

    /// Overwrites a line's DRAM copy and drops stale cached copies.
    pub fn set_dram_line(&mut self, line_addr: u64, line: L2Line) {
        self.bank_mut(line_addr).dram.store(line_addr, line);
    }

    /// Reads a line's DRAM copy.
    pub fn dram_line(&self, line_addr: u64) -> L2Line {
        self.banks[self.bank_of(line_addr)].dram.load(line_addr)
    }

    /// Removes a line from DRAM entirely (its page was swapped out).
    pub fn remove_dram_line(&mut self, line_addr: u64) {
        self.bank_mut(line_addr).dram.lines.remove(&line_addr);
    }

    /// Flushes the L2 and L3 to DRAM.
    pub fn flush(&mut self) {
        for bank in &mut self.banks {
            bank.flush();
        }
    }

    /// Per-bank shared-level counters — the per-shard lanes of the
    /// telemetry registry (the summed view is [`Self::export_stats`]).
    pub fn bank_stats(&self) -> Vec<BankLevelStats> {
        self.banks
            .iter()
            .map(|bank| BankLevelStats {
                l2: bank.l2.stats,
                l3: bank.l3.stats,
                dram_accesses: bank.dram_accesses,
                l2_resident_lines: bank.l2.resident_lines() as u64,
                l3_resident_lines: bank.l3.resident_lines() as u64,
            })
            .collect()
    }

    /// Copies the shared-level counters into a stats block (summed over
    /// banks).
    pub fn export_stats(&self, stats: &mut SimStats) {
        let mut l2 = crate::stats::CacheStats::default();
        let mut l3 = crate::stats::CacheStats::default();
        for bank in &self.banks {
            l2.hits += bank.l2.stats.hits;
            l2.misses += bank.l2.stats.misses;
            l2.evictions += bank.l2.stats.evictions;
            l2.writebacks += bank.l2.stats.writebacks;
            l3.hits += bank.l3.stats.hits;
            l3.misses += bank.l3.stats.misses;
            l3.evictions += bank.l3.stats.evictions;
            l3.writebacks += bank.l3.stats.writebacks;
        }
        stats.l2 = l2;
        stats.l3 = l3;
        stats.dram_accesses = self.dram_accesses();
    }
}

/// The simulated L1D/L2/L3/DRAM hierarchy with Califorms support.
#[derive(Debug)]
pub struct Hierarchy {
    cfg: HierarchyConfig,
    l1d: SetAssocCache<L1Line>,
    shared: SharedLevels,
    /// Conversion and traffic counters, merged into the engine's stats.
    pub spills: u64,
    /// L2→L1 fill conversions of califormed lines.
    pub fills: u64,
    /// Misses whose latency the stream prefetcher hid.
    pub prefetch_hits: u64,
    /// Last-missed-line trackers (4 independent streams).
    streams: [u64; 4],
    stream_cursor: usize,
}

impl Hierarchy {
    /// Builds a hierarchy from a configuration.
    pub fn new(cfg: HierarchyConfig) -> Self {
        Self {
            l1d: SetAssocCache::new(cfg.l1d_size, cfg.l1d_ways, cfg.l1d_latency),
            shared: SharedLevels::new(cfg),
            cfg,
            spills: 0,
            fills: 0,
            prefetch_hits: 0,
            streams: [u64::MAX; 4],
            stream_cursor: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// DRAM line fetches performed so far.
    pub fn dram_accesses(&self) -> u64 {
        self.shared.dram_accesses()
    }

    /// Detects sequential miss streams: returns true when `line_addr`
    /// continues one of the tracked streams (the prefetcher would already
    /// have the line in flight), updating the trackers either way.
    fn stream_hit(&mut self, line_addr: u64) -> bool {
        for s in &mut self.streams {
            if line_addr == s.wrapping_add(LINE_BYTES) {
                *s = line_addr;
                return true;
            }
        }
        self.streams[self.stream_cursor] = line_addr;
        self.stream_cursor = (self.stream_cursor + 1) % self.streams.len();
        false
    }

    /// Ensures `line_addr` is resident in the L1D (fill on miss, spill of
    /// the victim), returning the latency beyond the L1 hit latency.
    fn ensure_l1(&mut self, line_addr: u64) -> u32 {
        if self.l1d.access(line_addr).is_some() {
            return 0;
        }
        self.fill_l1_miss(line_addr)
    }

    /// The miss half of [`Self::ensure_l1`]: fetches `line_addr` from the
    /// shared levels into the L1 (spilling the victim) and returns the
    /// latency beyond the L1 hit latency. The caller has already probed
    /// the L1 (counting the miss).
    fn fill_l1_miss(&mut self, line_addr: u64) -> u32 {
        let prefetched = self.cfg.stream_prefetcher && self.stream_hit(line_addr);
        let (l2line, extra) = self.shared.fetch(line_addr);
        let extra = if prefetched {
            self.prefetch_hits += 1;
            extra.min(self.cfg.prefetch_residual)
        } else {
            extra
        };
        if l2line.califormed {
            self.fills += 1;
        }
        let l1line = fill_canonical(&l2line);
        if let Some(ev) = self.l1d.insert(line_addr, l1line, false) {
            if ev.dirty {
                let spilled = spill_canonical(&ev.value);
                if spilled.califormed {
                    self.spills += 1;
                }
                self.shared.insert_l2(ev.line_addr, spilled, true);
            }
        }
        extra
    }

    fn l1_line_mut(&mut self, line_addr: u64) -> &mut L1Line {
        // `ensure_l1` has run and already counted the architectural access.
        self.l1d
            .access_uncounted(line_addr)
            // analyze::allow(hot-path-unwrap): ensure_l1 on the line above pinned it
            .expect("line was just ensured resident")
    }

    /// Performs a load of `len` bytes at `addr` (line-crossing loads are
    /// split, as the cache controller would).
    ///
    /// Single-line accesses take a fast path: the security check is one
    /// AND against the line's bit vector, so a line with no security
    /// bytes skips the exception bookkeeping entirely.
    pub fn load(&mut self, addr: u64, len: usize, pc: u64) -> MemResult {
        let offset = line_offset(addr);
        if len != 0 && offset + len <= LINE_BYTES as usize {
            let line_addr = line_base(addr);
            let (latency, violating) = self.probe_line(line_addr, offset, len);
            // Canonical-line invariant: security bytes hold zero, so the
            // returned data is a straight copy either way. (The extra
            // peek is off the replay hot path — the engine uses
            // `load_quiet`.)
            // analyze::allow(hot-path-unwrap): probe_line just confirmed residency
            let l1 = self.l1d.peek(line_addr).expect("line was just probed");
            let data = l1.line().data()[offset..offset + len].to_vec();
            return MemResult {
                latency,
                data,
                exception: load_violation(violating, line_addr, pc),
            };
        }
        let mut latency = 0u32;
        let mut data = Vec::with_capacity(len);
        let mut exception = None;
        let mut cur = addr;
        let end = access_end(addr, len);
        while cur < end {
            let line_addr = line_base(cur);
            let offset = line_offset(cur);
            let chunk = ((LINE_BYTES - offset as u64).min(end - cur)) as usize;
            let extra = self.ensure_l1(line_addr);
            latency = latency.max(self.cfg.l1d_latency + extra);
            let l1 = self.l1_line_mut(line_addr);
            let r = l1.load(offset, chunk);
            data.extend_from_slice(&r.data);
            if r.violation && exception.is_none() {
                let first = r.violating_bytes.trailing_zeros() as u64;
                exception = Some(CaliformsException {
                    fault_addr: cur + first,
                    access: AccessKind::Load,
                    kind: ExceptionKind::SecurityByteAccess,
                    pc,
                });
            }
            cur += chunk as u64;
        }
        MemResult {
            latency,
            data,
            exception,
        }
    }

    /// Performs a load of `len` bytes at `addr` **without materialising
    /// the data** — the replay hot path ([`crate::engine::Engine`]) only
    /// needs latency and exception, so this never touches the heap.
    /// Timing, LRU, stats and exception behaviour are identical to
    /// [`Self::load`]; the returned `data` is always empty.
    pub fn load_quiet(&mut self, addr: u64, len: usize, pc: u64) -> MemResult {
        let offset = line_offset(addr);
        if len != 0 && offset + len <= LINE_BYTES as usize {
            let line_addr = line_base(addr);
            let (latency, violating) = self.probe_line(line_addr, offset, len);
            return MemResult::quiet(latency, load_violation(violating, line_addr, pc));
        }
        let mut latency = 0u32;
        let mut exception = None;
        let mut cur = addr;
        let end = access_end(addr, len);
        while cur < end {
            let line_addr = line_base(cur);
            let offset = line_offset(cur);
            let chunk = ((LINE_BYTES - offset as u64).min(end - cur)) as usize;
            let extra = self.ensure_l1(line_addr);
            latency = latency.max(self.cfg.l1d_latency + extra);
            let bv = self.l1_line_mut(line_addr).bitvector();
            if exception.is_none() {
                exception = load_violation(bv & range_mask(offset, chunk), line_addr, pc);
            }
            cur += chunk as u64;
        }
        MemResult::quiet(latency, exception)
    }

    /// Single-line access core shared by the [`Self::load`] /
    /// [`Self::load_quiet`] fast paths: ensures residency (counting the
    /// hit or miss), and returns the access latency plus the
    /// line-relative mask of accessed security bytes. On an L1 hit this
    /// is one set scan and one AND — a line with no security bytes
    /// incurs no exception bookkeeping at all.
    #[inline]
    fn probe_line(&mut self, line_addr: u64, offset: usize, len: usize) -> (u32, u64) {
        if let Some(hit) = self.l1d.access_entry(line_addr) {
            let bv = hit.value.bitvector();
            let violating = if bv == 0 {
                0
            } else {
                bv & range_mask(offset, len)
            };
            return (self.cfg.l1d_latency, violating);
        }
        let extra = self.fill_l1_miss(line_addr);
        let violating = self.l1_line_mut(line_addr).bitvector() & range_mask(offset, len);
        (self.cfg.l1d_latency + extra, violating)
    }

    /// Performs a store of `bytes` at `addr`. On a security-byte violation
    /// the store (to that line) is suppressed and the exception reported.
    ///
    /// The per-line security check is a single AND against the bit vector
    /// ([`califorms_core::CaliformedLine::write_bytes`]), so stores to
    /// lines with no security bytes skip the exception bookkeeping.
    pub fn store(&mut self, addr: u64, bytes: &[u8], pc: u64) -> MemResult {
        let offset = line_offset(addr);
        let len = bytes.len();
        if len != 0 && offset + len <= LINE_BYTES as usize {
            let line_addr = line_base(addr);
            // L1 hit: one set scan; the dirty bit is set through the same
            // entry handle, not a second scan.
            if let Some(hit) = self.l1d.access_entry(line_addr) {
                let exception = match hit.value.store(offset, bytes) {
                    Ok(()) => {
                        *hit.dirty = true;
                        None
                    }
                    Err(e) => Some(store_violation(e, line_addr, pc)),
                };
                return MemResult::quiet(self.cfg.l1d_latency, exception);
            }
            let extra = self.fill_l1_miss(line_addr);
            let latency = self.cfg.l1d_latency + extra;
            let exception = match self.l1_line_mut(line_addr).store(offset, bytes) {
                Ok(()) => {
                    self.l1d.mark_dirty(line_addr);
                    None
                }
                Err(e) => Some(store_violation(e, line_addr, pc)),
            };
            return MemResult::quiet(latency, exception);
        }
        let mut latency = 0u32;
        let mut exception = None;
        let mut cur = addr;
        let end = access_end(addr, bytes.len());
        let mut consumed = 0usize;
        while cur < end {
            let line_addr = line_base(cur);
            let offset = line_offset(cur);
            let chunk = ((LINE_BYTES - offset as u64).min(end - cur)) as usize;
            let extra = self.ensure_l1(line_addr);
            latency = latency.max(self.cfg.l1d_latency + extra);
            let l1 = self.l1_line_mut(line_addr);
            match l1.store(offset, &bytes[consumed..consumed + chunk]) {
                Ok(()) => self.l1d.mark_dirty(line_addr),
                Err(CoreError::StoreToSecurityByte { index }) => {
                    if exception.is_none() {
                        exception = Some(CaliformsException {
                            fault_addr: line_addr + index as u64,
                            access: AccessKind::Store,
                            kind: ExceptionKind::SecurityByteAccess,
                            pc,
                        });
                    }
                }
                Err(other) => unreachable!("store can only fault on security bytes: {other}"),
            }
            cur += chunk as u64;
            consumed += chunk;
        }
        MemResult::quiet(latency, exception)
    }

    /// Executes a `CFORM` instruction (treated like a store in the
    /// pipeline: write-allocate fetch, then metadata update).
    pub fn cform(&mut self, insn: &CformInstruction, pc: u64) -> MemResult {
        let extra = self.ensure_l1(insn.line_addr);
        let latency = self.cfg.l1d_latency + extra;
        let l1 = self.l1_line_mut(insn.line_addr);
        let exception = match insn.execute(l1.line_mut()) {
            Ok(_) => {
                self.l1d.mark_dirty(insn.line_addr);
                None
            }
            Err(e) => Some(kmap_exception(e, insn.line_addr, pc)),
        };
        MemResult::quiet(latency, exception)
    }

    /// Reads a byte functionally (no timing, no LRU effect), searching the
    /// L1 first, then lower levels. Security bytes read as zero. Intended
    /// for tests and the attack simulations.
    pub fn peek_byte(&self, addr: u64) -> u8 {
        let line_addr = line_base(addr);
        let offset = line_offset(addr);
        if let Some(l1) = self.l1d.peek(line_addr) {
            return l1.line().data()[offset];
        }
        let l2line = self.shared.peek_line(line_addr);
        let l1 = fill_canonical(&l2line);
        l1.line().data()[offset]
    }

    /// Functional snapshot of a line's canonical *(data, security-mask)*
    /// state through whichever level currently holds it — no timing, LRU
    /// or stats effects. This is the hook the differential oracle
    /// (`califorms-oracle`) diffs final memory and blacklist state
    /// against.
    pub fn snapshot_line(&self, line_addr: u64) -> califorms_core::CaliformedLine {
        if let Some(l1) = self.l1d.peek(line_addr) {
            return *l1.line();
        }
        let l2line = self.shared.peek_line(line_addr);
        *fill_canonical(&l2line).line()
    }

    /// Whether the byte at `addr` is currently a security byte (functional
    /// check through whichever level holds the line).
    pub fn peek_is_security_byte(&self, addr: u64) -> bool {
        let line_addr = line_base(addr);
        let offset = line_offset(addr);
        if let Some(l1) = self.l1d.peek(line_addr) {
            return l1.line().is_security_byte(offset);
        }
        let l2line = self.shared.peek_line(line_addr);
        let l1 = fill_canonical(&l2line);
        l1.line().is_security_byte(offset)
    }

    /// Executes a **non-temporal** `CFORM` (the footnote-3 variant): the
    /// line is modified in place at the L2 (fetching it there if needed)
    /// without being allocated into the L1 — deallocation-time califorming
    /// should not pollute the L1 with dead lines.
    pub fn cform_nt(&mut self, insn: &CformInstruction, pc: u64) -> MemResult {
        // Invalidate any L1 copy (write back if dirty) so the L2 copy is
        // authoritative.
        if let Some((l1line, dirty)) = self.l1d.invalidate(insn.line_addr) {
            if dirty {
                let spilled = spill_canonical(&l1line);
                if spilled.califormed {
                    self.spills += 1;
                }
                self.shared.insert_l2(insn.line_addr, spilled, true);
            }
        }
        let (l2line, extra) = self.shared.fetch(insn.line_addr);
        let latency = self.cfg.l1d_latency + extra;
        let mut l1line = fill_canonical(&l2line);
        let exception = match insn.execute(l1line.line_mut()) {
            Ok(_) => {
                let spilled = spill_canonical(&l1line);
                self.shared.insert_l2(insn.line_addr, spilled, true);
                None
            }
            Err(e) => Some(kmap_exception(e, insn.line_addr, pc)),
        };
        MemResult::quiet(latency, exception)
    }

    /// Whether a line is currently resident in the L1 data cache (used by
    /// the non-temporal-CFORM pollution tests).
    pub fn l1_contains(&self, line_addr: u64) -> bool {
        self.l1d.peek(line_addr).is_some()
    }

    /// Writes one line back to DRAM and drops every cached copy — the
    /// building block of page swap-out (the OS must see the line's current
    /// content and metadata bit in memory).
    pub fn evict_line_to_dram(&mut self, line_addr: u64) {
        if let Some((l1line, _)) = self.l1d.invalidate(line_addr) {
            let spilled = spill_canonical(&l1line);
            if spilled.califormed {
                self.spills += 1;
            }
            self.shared.evict_to_dram(line_addr); // drop stale copies
            self.shared.set_dram_line(line_addr, spilled);
            return;
        }
        self.shared.evict_to_dram(line_addr);
    }

    /// Reads a line's DRAM copy (sentinel format; the *califormed?* bit
    /// conceptually lives in the spare ECC bits).
    pub fn dram_line(&self, line_addr: u64) -> L2Line {
        self.shared.dram_line(line_addr)
    }

    /// Overwrites a line's DRAM copy (page swap-in path).
    pub fn set_dram_line(&mut self, line_addr: u64, line: L2Line) {
        self.shared.set_dram_line(line_addr, line);
    }

    /// Removes a line from DRAM entirely (its page was swapped out).
    pub fn remove_dram_line(&mut self, line_addr: u64) {
        self.shared.remove_dram_line(line_addr);
    }

    /// Flushes every cache level to DRAM (end-of-run or I/O boundary).
    pub fn flush(&mut self) {
        for (addr, l1line, dirty) in self.l1d.drain() {
            if dirty {
                let spilled = spill_canonical(&l1line);
                if spilled.califormed {
                    self.spills += 1;
                }
                self.shared.insert_l2(addr, spilled, true);
            }
        }
        self.shared.flush();
    }

    /// Copies the cache counters into a stats block.
    pub fn export_stats(&self, stats: &mut SimStats) {
        stats.l1d = self.l1d.stats;
        self.shared.export_stats(stats);
        stats.spills = self.spills;
        stats.fills = self.fills;
    }
}

// --- checkpoint serialization -----------------------------------------
//
// Implemented here (not in `checkpoint`) because the hierarchy's fields
// are private: the format module supplies the byte codecs, each owner
// serializes its own state.

use crate::checkpoint::{self as ck, CheckpointError};

impl Dram {
    /// DRAM lines in canonical form: sorted by address. `LineMap`
    /// iteration order is deterministic but insertion-history-dependent,
    /// and DRAM content is never iterated in a result-bearing path, so
    /// sorting here buys byte-identical checkpoints for
    /// semantically-equal states at no simulation cost.
    fn save_state(&self, w: &mut ck::Wr) {
        let mut lines: Vec<(u64, &L2Line)> = self.lines.iter().map(|(k, v)| (*k, v)).collect();
        lines.sort_unstable_by_key(|&(addr, _)| addr);
        w.u64(lines.len() as u64);
        for (addr, line) in lines {
            w.u64(addr);
            ck::put_l2_line(w, line);
        }
    }

    fn restore_state(r: &mut ck::Rd<'_>) -> ck::Result<Self> {
        let n = r.count()?;
        let mut dram = Dram::default();
        let mut prev = None;
        for _ in 0..n {
            let addr = r.u64()?;
            if addr % LINE_BYTES != 0 {
                return Err(CheckpointError::Corrupt("DRAM line address unaligned"));
            }
            if prev.is_some_and(|p| addr <= p) {
                return Err(CheckpointError::Corrupt(
                    "DRAM lines out of canonical order",
                ));
            }
            prev = Some(addr);
            dram.lines.insert(addr, ck::get_l2_line(r)?);
        }
        Ok(dram)
    }
}

impl LevelBank {
    pub(crate) fn save_state(&self, w: &mut ck::Wr) {
        ck::put_cache(w, &self.l2, ck::put_l2_line);
        ck::put_cache(w, &self.l3, ck::put_l2_line);
        self.dram.save_state(w);
        w.u64(self.dram_accesses);
    }

    /// Restores into a freshly-built bank of the same geometry (`self.cfg`
    /// and the bank indices are reconstructed from the config section, so
    /// only the mutable state travels in the payload).
    pub(crate) fn restore_state(&mut self, r: &mut ck::Rd<'_>) -> ck::Result<()> {
        ck::get_cache(r, &mut self.l2, ck::get_l2_line)?;
        ck::get_cache(r, &mut self.l3, ck::get_l2_line)?;
        self.dram = Dram::restore_state(r)?;
        self.dram_accesses = r.u64()?;
        Ok(())
    }
}

impl SharedLevels {
    pub(crate) fn save_state(&self, w: &mut ck::Wr) {
        w.u64(self.banks.len() as u64);
        for bank in &self.banks {
            bank.save_state(w);
        }
    }

    pub(crate) fn restore_state(&mut self, r: &mut ck::Rd<'_>) -> ck::Result<()> {
        let n = r.count()?;
        if n != self.banks.len() {
            return Err(CheckpointError::ConfigMismatch("shared-level bank count"));
        }
        for bank in &mut self.banks {
            bank.restore_state(r)?;
        }
        Ok(())
    }
}

impl Hierarchy {
    /// Serializes the full mutable hierarchy state (the `SEC_HIERARCHY`
    /// payload). The configuration travels separately in `SEC_CONFIG`.
    pub(crate) fn save_state(&self, w: &mut ck::Wr) {
        w.u64(self.spills);
        w.u64(self.fills);
        w.u64(self.prefetch_hits);
        for s in self.streams {
            w.u64(s);
        }
        w.u64(self.stream_cursor as u64);
        ck::put_cache(w, &self.l1d, ck::put_l1_line);
        self.shared.save_state(w);
    }

    /// Rebuilds a hierarchy from a `SEC_HIERARCHY` payload against `cfg`.
    pub(crate) fn restore_state(cfg: HierarchyConfig, r: &mut ck::Rd<'_>) -> ck::Result<Self> {
        let mut h = Hierarchy::new(cfg);
        h.spills = r.u64()?;
        h.fills = r.u64()?;
        h.prefetch_hits = r.u64()?;
        for s in &mut h.streams {
            *s = r.u64()?;
        }
        let cursor = r.u64()?;
        if cursor as usize >= h.streams.len() {
            return Err(CheckpointError::Corrupt("stream cursor out of range"));
        }
        h.stream_cursor = cursor as usize;
        ck::get_cache(r, &mut h.l1d, ck::get_l1_line)?;
        h.shared.restore_state(r)?;
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier() -> Hierarchy {
        Hierarchy::new(HierarchyConfig::westmere())
    }

    #[test]
    fn store_then_load_round_trips_through_l1() {
        let mut h = hier();
        let r = h.store(0x1000, &[1, 2, 3, 4], 0);
        assert!(r.exception.is_none());
        let r = h.load(0x1000, 4, 0);
        assert_eq!(r.data, vec![1, 2, 3, 4]);
        assert!(r.exception.is_none());
        assert_eq!(r.latency, 4, "second access hits in L1");
    }

    #[test]
    fn miss_latency_accumulates_through_levels() {
        let mut h = hier();
        let r = h.load(0x4000, 1, 0);
        // Cold miss: L1(4) + L2(7) + L3(27) + DRAM(300)
        assert_eq!(r.latency, 4 + 7 + 27 + 300);
        let r = h.load(0x4000, 1, 0);
        assert_eq!(r.latency, 4);
    }

    #[test]
    fn plus_one_cycle_config_adds_to_l2_and_l3() {
        let mut h = Hierarchy::new(HierarchyConfig::westmere_plus_one_cycle());
        let r = h.load(0x4000, 1, 0);
        assert_eq!(r.latency, 4 + 8 + 28 + 300);
    }

    #[test]
    fn cform_then_rogue_load_raises_exception() {
        let mut h = hier();
        h.store(0x2000, &[0xAA; 16], 0);
        // Caliform bytes 4..8 of the line.
        let insn = CformInstruction::set(0x2000, 0b1111 << 4);
        // The store above left non-zero data at 4..8; CFORM zeroes it.
        assert!(h.cform(&insn, 1).exception.is_none());
        let r = h.load(0x2000 + 4, 1, 2);
        let exc = r.exception.expect("touching a security byte faults");
        assert_eq!(exc.fault_addr, 0x2004);
        assert_eq!(exc.access, AccessKind::Load);
        assert_eq!(r.data, vec![0], "loads of security bytes return zero");
    }

    #[test]
    fn rogue_store_is_suppressed() {
        let mut h = hier();
        h.cform(&CformInstruction::set(0x2000, 1 << 10), 0);
        let r = h.store(0x2000 + 8, &[7, 7, 7, 7], 1);
        let exc = r.exception.expect("store sweeping a security byte faults");
        assert_eq!(exc.fault_addr, 0x200A);
        assert_eq!(exc.access, AccessKind::Store);
        // The whole chunk was suppressed.
        assert_eq!(h.load(0x2008, 1, 2).data, vec![0]);
    }

    #[test]
    fn califormed_line_survives_eviction_and_returns() {
        let mut h = hier();
        let target = 0x8000u64;
        h.cform(&CformInstruction::set(target, 1 << 3), 0);
        assert!(h.store(target, &[9, 9, 9], 0).exception.is_none());
        // Thrash the L1 set this line maps to. L1: 32KB/8way/64B = 64 sets;
        // stride of 64*64 = 4096 revisits the same set.
        for i in 1..=16u64 {
            h.load(target + i * 4096, 1, 0);
        }
        assert!(h.l1d.peek(target).is_none(), "victim was evicted");
        assert!(h.spills >= 1, "dirty califormed line was spilled");
        // Security byte still detected after the fill conversion.
        let r = h.load(target + 3, 1, 1);
        assert!(r.exception.is_some());
        // And the data survived the format conversions.
        assert_eq!(h.load(target, 3, 1).data, vec![9, 9, 9]);
    }

    #[test]
    fn cform_kmap_violation_surfaces_as_exception() {
        let mut h = hier();
        let insn = CformInstruction::set(0x3000, 1 << 5);
        assert!(h.cform(&insn, 0).exception.is_none());
        let exc = h.cform(&insn, 1).exception.expect("double set faults");
        assert_eq!(exc.kind, ExceptionKind::CformDoubleSet);
        assert_eq!(exc.fault_addr, 0x3005);
    }

    #[test]
    fn flush_pushes_califormed_data_to_dram() {
        let mut h = hier();
        h.store(0x5000, &[1, 2, 3], 0);
        h.cform(&CformInstruction::set(0x5000, 1 << 60), 0);
        h.flush();
        assert_eq!(h.peek_byte(0x5000), 1);
        assert!(h.peek_is_security_byte(0x5000 + 60));
        assert!(!h.peek_is_security_byte(0x5000 + 59));
    }

    #[test]
    fn line_crossing_load_is_split_and_checked() {
        let mut h = hier();
        h.store(0x1000 + 60, &[1, 2, 3, 4], 0);
        h.store(0x1040, &[5, 6, 7, 8], 0);
        let r = h.load(0x1000 + 60, 8, 0);
        assert_eq!(r.data, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        // Now blacklist a byte in the second line and re-check.
        h.cform(&CformInstruction::set(0x1040, 1 << 1), 0);
        let r = h.load(0x1000 + 60, 8, 0);
        assert_eq!(r.exception.unwrap().fault_addr, 0x1041);
        assert_eq!(r.data[5], 0);
    }

    #[test]
    fn nt_cform_does_not_pollute_the_l1() {
        let mut h = hier();
        let target = 0xA000u64;
        let r = h.cform_nt(&CformInstruction::set(target, 1 << 5), 0);
        assert!(r.exception.is_none());
        assert!(!h.l1_contains(target), "NT variant bypasses the L1");
        // The metadata is live: a subsequent rogue access faults.
        let r = h.load(target + 5, 1, 1);
        assert!(r.exception.is_some());
        assert_eq!(r.data, vec![0]);
    }

    #[test]
    fn nt_cform_sees_dirty_l1_data_first() {
        let mut h = hier();
        h.store(0xB000, &[1, 2, 3, 4], 0);
        assert!(h.l1_contains(0xB000));
        h.cform_nt(&CformInstruction::set(0xB000, 1 << 40), 0);
        assert!(!h.l1_contains(0xB000), "L1 copy was written back");
        assert_eq!(h.load(0xB000, 4, 0).data, vec![1, 2, 3, 4]);
        assert!(h.peek_is_security_byte(0xB000 + 40));
    }

    #[test]
    fn nt_cform_kmap_faults_like_the_temporal_variant() {
        let mut h = hier();
        h.cform_nt(&CformInstruction::set(0xC000, 1), 0);
        let exc = h
            .cform_nt(&CformInstruction::set(0xC000, 1), 1)
            .exception
            .expect("double set faults");
        assert_eq!(exc.kind, ExceptionKind::CformDoubleSet);
    }

    #[test]
    fn evict_line_to_dram_moves_content_and_metadata() {
        let mut h = hier();
        h.store(0xD000, &[9, 8, 7], 0);
        h.cform(&CformInstruction::set(0xD000, 1 << 33), 0);
        h.evict_line_to_dram(0xD000);
        assert!(!h.l1_contains(0xD000));
        let dram = h.dram_line(0xD000);
        assert!(dram.califormed, "metadata bit reached the ECC bits");
        // Round-trip through fill shows content integrity.
        let l1 = califorms_core::fill(&dram).unwrap();
        assert_eq!(&l1.line().data()[..3], &[9, 8, 7]);
        assert!(l1.line().is_security_byte(33));
    }

    #[test]
    fn peek_does_not_perturb_stats() {
        let mut h = hier();
        h.store(0x9000, &[1], 0);
        let hits_before = h.l1d.stats.hits;
        let misses_before = h.l1d.stats.misses;
        let _ = h.peek_byte(0x9000);
        let _ = h.peek_is_security_byte(0x9040);
        assert_eq!(h.l1d.stats.hits, hits_before);
        assert_eq!(h.l1d.stats.misses, misses_before);
    }
}
