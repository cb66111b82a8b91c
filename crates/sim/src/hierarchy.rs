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
//! L1 performs the byte-granular access check. The L1 and its access
//! rules are [`crate::coherence::CoreL1`], shared with the multi-core
//! engine; this module holds the levels below it ([`SharedLevels`]) and
//! the single-core [`Hierarchy`], whose own code is its miss path: the
//! stream prefetcher and the fetch from the shared levels.
//!
//! Approximations (documented per DESIGN.md): the hierarchy is inclusive
//! by construction of the fill path; clean evictions are dropped; no MESI
//! (single core); instruction fetches are not simulated (the workloads'
//! `Exec` operations account for their cycles).

use crate::cache::SetAssocCache;
use crate::coherence::{access, Access, CoherentLine, CoreL1, Mesi, MissPath};
use crate::stats::SimStats;
use crate::{line_base, line_offset, LINE_BYTES};
use califorms_core::{
    fill_canonical, spill_canonical, CaliformsException, CformInstruction, L1Line, L2Line,
};
/// The deterministic line-address hasher and map, lifted to
/// `califorms-core::detmap` so every result-bearing crate can use them;
/// re-exported here because the hierarchy is where they originated and
/// most sim-internal users import them from this module.
pub use califorms_core::{LineHasher, LineMap};
use std::convert::Infallible;

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

/// Outcome of a memory access against the hierarchy. A load's bytes go to
/// the data sink its caller passed in, so the result never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResult {
    /// Total access latency in cycles (includes the L1 hit latency).
    pub latency: u32,
    /// Raised Califorms exception, if the access touched a security byte
    /// or a `CFORM` K-map rule fired. Delivery vs suppression is the
    /// engine's job (exception masks live above the hierarchy).
    pub exception: Option<CaliformsException>,
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

/// The shared, sentinel-format levels below the L1 boundary: L2 → L3 →
/// DRAM.
///
/// The single-core [`Hierarchy`] and the multi-core
/// [`crate::coherence::CoherentHierarchy`] (where *several* per-core L1Ds
/// sit on top of one shared L2/L3) drive this one implementation.
/// Everything at or below this boundary stores califormed lines in the
/// sentinel format; crossing the boundary upward is where the fill
/// conversion runs, crossing downward the spill.
#[derive(Debug)]
pub struct SharedLevels {
    cfg: HierarchyConfig,
    l2: SetAssocCache<L2Line>,
    l3: SetAssocCache<L2Line>,
    dram: Dram,
    /// DRAM line fetches.
    dram_accesses: u64,
}

impl SharedLevels {
    /// Builds the shared levels from a configuration.
    pub fn new(cfg: HierarchyConfig) -> Self {
        Self {
            l2: SetAssocCache::new(cfg.l2_size, cfg.l2_ways, cfg.l2_latency),
            l3: SetAssocCache::new(cfg.l3_size, cfg.l3_ways, cfg.l3_latency),
            dram: Dram::default(),
            dram_accesses: 0,
            cfg,
        }
    }

    /// DRAM line fetches performed so far.
    pub fn dram_accesses(&self) -> u64 {
        self.dram_accesses
    }

    fn insert_l3(&mut self, line_addr: u64, line: L2Line, dirty: bool) {
        if let Some(ev) = self.l3.insert(line_addr, line, dirty) {
            if ev.dirty {
                self.dram.store(ev.line_addr, ev.value);
            }
        }
    }

    /// Inserts (or refreshes) a line in the L2, rippling dirty evictions
    /// down to L3 and DRAM — the write-back path for L1 spills.
    pub fn insert_l2(&mut self, line_addr: u64, line: L2Line, dirty: bool) {
        if let Some(ev) = self.l2.insert(line_addr, line, dirty) {
            if ev.dirty {
                self.insert_l3(ev.line_addr, ev.value, true);
            }
        }
    }

    /// Fetches a line in sentinel format from L2/L3/DRAM, returning the
    /// added latency (beyond L1).
    pub fn fetch(&mut self, line_addr: u64) -> (L2Line, u32) {
        let l2_part = self.cfg.l2_latency + self.cfg.extra_l2_latency;
        if let Some(line) = self.l2.access(line_addr) {
            return (*line, l2_part);
        }
        if let Some(line) = self.l3.access(line_addr) {
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
    /// shared level holds it, falling through to DRAM.
    pub fn peek_line(&self, line_addr: u64) -> L2Line {
        self.l2
            .peek(line_addr)
            .or_else(|| self.l3.peek(line_addr))
            .copied()
            .unwrap_or_else(|| self.dram.load(line_addr))
    }

    /// Drops every cached copy of a line, writing the freshest one back to
    /// DRAM (page-eviction building block). The L1 levels above must have
    /// been handled by the caller first.
    pub fn evict_to_dram(&mut self, line_addr: u64) {
        if let Some((line, _)) = self.l2.invalidate(line_addr) {
            self.l3.invalidate(line_addr);
            self.dram.store(line_addr, line);
            return;
        }
        if let Some((line, _)) = self.l3.invalidate(line_addr) {
            self.dram.store(line_addr, line);
        }
    }

    /// Overwrites a line's DRAM copy and drops stale cached copies.
    pub fn set_dram_line(&mut self, line_addr: u64, line: L2Line) {
        self.dram.store(line_addr, line);
    }

    /// Reads a line's DRAM copy.
    pub fn dram_line(&self, line_addr: u64) -> L2Line {
        self.dram.load(line_addr)
    }

    /// Removes a line from DRAM entirely (its page was swapped out).
    pub fn remove_dram_line(&mut self, line_addr: u64) {
        self.dram.lines.remove(&line_addr);
    }

    /// Flushes the L2 and L3 to DRAM.
    pub fn flush(&mut self) {
        for (addr, line, dirty) in self.l2.drain() {
            if dirty {
                self.insert_l3(addr, line, true);
            }
        }
        for (addr, line, dirty) in self.l3.drain() {
            if dirty {
                self.dram.store(addr, line);
            }
        }
    }

    /// Copies the shared-level counters into a stats block.
    pub fn export_stats(&self, stats: &mut SimStats) {
        stats.l2 = self.l2.stats;
        stats.l3 = self.l3.stats;
        stats.dram_accesses = self.dram_accesses;
    }
}

/// The simulated single-core L1D/L2/L3/DRAM hierarchy with Califorms
/// support.
#[derive(Debug)]
pub struct Hierarchy {
    cfg: HierarchyConfig,
    l1: CoreL1,
    shared: SharedLevels,
    /// L1→L2 spill conversions of califormed lines.
    pub spills: u64,
    /// L2→L1 fill conversions of califormed lines.
    pub fills: u64,
    /// Misses whose latency the stream prefetcher hid.
    pub prefetch_hits: u64,
    /// Last-missed-line trackers (4 independent streams).
    streams: [u64; 4],
    stream_cursor: usize,
}

/// The single-core miss path: the stream prefetcher and a fetch from the
/// shared levels, with the fill conversion and the spill of a dirty
/// victim. A line enters E (M for a write) and stays writable until it
/// leaves, so every access to a resident line is a hit.
impl MissPath for Hierarchy {
    type Defer = Infallible;

    fn l1(&mut self) -> &mut CoreL1 {
        &mut self.l1
    }

    fn make_resident(
        &mut self,
        line_addr: u64,
        write: bool,
        _held: bool,
    ) -> Result<u32, Infallible> {
        self.l1.cache.stats.misses += 1;
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
        let line = CoherentLine {
            line: fill_canonical(&l2line),
            state: if write {
                Mesi::Modified
            } else {
                Mesi::Exclusive
            },
        };
        if let Some(ev) = self.l1.cache.insert(line_addr, line, false) {
            if ev.dirty {
                self.write_back(ev.line_addr, &ev.value.line);
            }
        }
        Ok(extra)
    }
}

impl Hierarchy {
    /// Builds a hierarchy from a configuration.
    pub fn new(cfg: HierarchyConfig) -> Self {
        Self {
            l1: CoreL1::new(&cfg),
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

    /// Spills a dirty L1 line into the L2 (the bitvector→sentinel
    /// conversion), counting califormed spills.
    fn write_back(&mut self, line_addr: u64, line: &L1Line) {
        let spilled = spill_canonical(line);
        if spilled.califormed {
            self.spills += 1;
        }
        self.shared.insert_l2(line_addr, spilled, true);
    }

    /// Runs one access through the L1 access rules.
    #[inline(always)]
    fn serve(&mut self, addr: u64, a: Access<'_>, pc: u64) -> MemResult {
        let Ok(r) = access(self, addr, a, pc);
        r
    }

    /// Performs a load of `len` bytes at `addr` (line-crossing loads are
    /// split, as the cache controller would), appending the loaded bytes
    /// to `data` when given (security bytes read as zero). The replay
    /// engines pass `None`: they need only latency and exception.
    #[inline]
    pub fn load(
        &mut self,
        addr: u64,
        len: usize,
        pc: u64,
        data: Option<&mut Vec<u8>>,
    ) -> MemResult {
        self.serve(addr, Access::Load { len, sink: data }, pc)
    }

    /// Performs a store of `bytes` at `addr`. On a security-byte violation
    /// the store (to that line) is suppressed and the exception reported.
    #[inline]
    pub fn store(&mut self, addr: u64, bytes: &[u8], pc: u64) -> MemResult {
        self.serve(addr, Access::Store(bytes), pc)
    }

    /// Executes a `CFORM` instruction (treated like a store in the
    /// pipeline: write-allocate fetch, then metadata update).
    pub fn cform(&mut self, insn: &CformInstruction, pc: u64) -> MemResult {
        self.serve(insn.line_addr, Access::Cform(insn), pc)
    }

    /// The line at `line_addr` in canonical form, from whichever level
    /// holds it — no timing, LRU or stats effects.
    fn peek_line(&self, line_addr: u64) -> L1Line {
        match self.l1.cache.peek(line_addr) {
            Some(e) => e.line,
            None => fill_canonical(&self.shared.peek_line(line_addr)),
        }
    }

    /// Reads a byte functionally (no timing, no LRU effect), searching the
    /// L1 first, then lower levels. Security bytes read as zero. Intended
    /// for tests and the attack simulations.
    pub fn peek_byte(&self, addr: u64) -> u8 {
        self.peek_line(line_base(addr)).line().data()[line_offset(addr)]
    }

    /// Functional snapshot of a line's canonical *(data, security-mask)*
    /// state through whichever level currently holds it — no timing, LRU
    /// or stats effects. This is the hook the differential oracle
    /// (`califorms-oracle`) diffs final memory and blacklist state
    /// against.
    pub fn snapshot_line(&self, line_addr: u64) -> califorms_core::CaliformedLine {
        *self.peek_line(line_addr).line()
    }

    /// Whether the byte at `addr` is currently a security byte (functional
    /// check through whichever level holds the line).
    pub fn peek_is_security_byte(&self, addr: u64) -> bool {
        self.peek_line(line_base(addr))
            .line()
            .is_security_byte(line_offset(addr))
    }

    /// Executes a **non-temporal** `CFORM` (the footnote-3 variant): the
    /// line is modified in place at the L2 (fetching it there if needed)
    /// without being allocated into the L1 — deallocation-time califorming
    /// should not pollute the L1 with dead lines.
    pub fn cform_nt(&mut self, insn: &CformInstruction, pc: u64) -> MemResult {
        // Invalidate any L1 copy (write back if dirty) so the L2 copy is
        // authoritative.
        if let Some((e, dirty)) = self.l1.cache.invalidate(insn.line_addr) {
            if dirty {
                self.write_back(insn.line_addr, &e.line);
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
            Err(e) => Some(crate::coherence::write_fault(e, insn.line_addr, pc)),
        };
        MemResult { latency, exception }
    }

    /// Whether a line is currently resident in the L1 data cache (used by
    /// the non-temporal-CFORM pollution tests).
    pub fn l1_contains(&self, line_addr: u64) -> bool {
        self.l1.cache.peek(line_addr).is_some()
    }

    /// Writes one line back to DRAM and drops every cached copy — the
    /// building block of page swap-out (the OS must see the line's current
    /// content and metadata bit in memory).
    pub fn evict_line_to_dram(&mut self, line_addr: u64) {
        if let Some((e, _)) = self.l1.cache.invalidate(line_addr) {
            let spilled = spill_canonical(&e.line);
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
        for (addr, e, dirty) in self.l1.cache.drain() {
            if dirty {
                self.write_back(addr, &e.line);
            }
        }
        self.shared.flush();
    }

    /// Copies the cache counters into a stats block.
    pub fn export_stats(&self, stats: &mut SimStats) {
        stats.l1d = self.l1.stats();
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
use crate::coherence::{get_coherent_line, put_coherent_line};

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

impl SharedLevels {
    pub(crate) fn save_state(&self, w: &mut ck::Wr) {
        ck::put_cache(w, &self.l2, ck::put_l2_line);
        ck::put_cache(w, &self.l3, ck::put_l2_line);
        self.dram.save_state(w);
        w.u64(self.dram_accesses);
    }

    /// Restores into freshly-built shared levels of the same geometry
    /// (`self.cfg` is reconstructed from the config section, so only the
    /// mutable state travels in the payload).
    pub(crate) fn restore_state(&mut self, r: &mut ck::Rd<'_>) -> ck::Result<()> {
        ck::get_cache(r, &mut self.l2, ck::get_l2_line)?;
        ck::get_cache(r, &mut self.l3, ck::get_l2_line)?;
        self.dram = Dram::restore_state(r)?;
        self.dram_accesses = r.u64()?;
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
        ck::put_cache(w, &self.l1.cache, put_coherent_line);
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
        ck::get_cache(r, &mut h.l1.cache, |r| {
            let line = get_coherent_line(r)?;
            if line.state.writable() {
                Ok(line)
            } else {
                Err(CheckpointError::Corrupt(
                    "Shared line in the single-core L1",
                ))
            }
        })?;
        h.shared.restore_state(r)?;
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use califorms_core::{AccessKind, ExceptionKind};

    fn hier() -> Hierarchy {
        Hierarchy::new(HierarchyConfig::westmere())
    }

    /// A load that keeps its bytes.
    fn read(h: &mut Hierarchy, addr: u64, len: usize, pc: u64) -> (MemResult, Vec<u8>) {
        let mut data = Vec::new();
        let r = h.load(addr, len, pc, Some(&mut data));
        (r, data)
    }

    #[test]
    fn store_then_load_round_trips_through_l1() {
        let mut h = hier();
        let r = h.store(0x1000, &[1, 2, 3, 4], 0);
        assert!(r.exception.is_none());
        let (r, data) = read(&mut h, 0x1000, 4, 0);
        assert_eq!(data, vec![1, 2, 3, 4]);
        assert!(r.exception.is_none());
        assert_eq!(r.latency, 4, "second access hits in L1");
    }

    #[test]
    fn miss_latency_accumulates_through_levels() {
        let mut h = hier();
        let r = h.load(0x4000, 1, 0, None);
        // Cold miss: L1(4) + L2(7) + L3(27) + DRAM(300)
        assert_eq!(r.latency, 4 + 7 + 27 + 300);
        let r = h.load(0x4000, 1, 0, None);
        assert_eq!(r.latency, 4);
    }

    #[test]
    fn plus_one_cycle_config_adds_to_l2_and_l3() {
        let mut h = Hierarchy::new(HierarchyConfig::westmere_plus_one_cycle());
        let r = h.load(0x4000, 1, 0, None);
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
        let (r, data) = read(&mut h, 0x2000 + 4, 1, 2);
        let exc = r.exception.expect("touching a security byte faults");
        assert_eq!(exc.fault_addr, 0x2004);
        assert_eq!(exc.access, AccessKind::Load);
        assert_eq!(data, vec![0], "loads of security bytes return zero");
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
        assert_eq!(read(&mut h, 0x2008, 1, 2).1, vec![0]);
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
            h.load(target + i * 4096, 1, 0, None);
        }
        assert!(!h.l1_contains(target), "victim was evicted");
        assert!(h.spills >= 1, "dirty califormed line was spilled");
        // Security byte still detected after the fill conversion.
        let r = h.load(target + 3, 1, 1, None);
        assert!(r.exception.is_some());
        // And the data survived the format conversions.
        assert_eq!(read(&mut h, target, 3, 1).1, vec![9, 9, 9]);
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
        let (_, data) = read(&mut h, 0x1000 + 60, 8, 0);
        assert_eq!(data, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        // Now blacklist a byte in the second line and re-check.
        h.cform(&CformInstruction::set(0x1040, 1 << 1), 0);
        let (r, data) = read(&mut h, 0x1000 + 60, 8, 0);
        assert_eq!(r.exception.unwrap().fault_addr, 0x1041);
        assert_eq!(data[5], 0);
    }

    #[test]
    fn nt_cform_does_not_pollute_the_l1() {
        let mut h = hier();
        let target = 0xA000u64;
        let r = h.cform_nt(&CformInstruction::set(target, 1 << 5), 0);
        assert!(r.exception.is_none());
        assert!(!h.l1_contains(target), "NT variant bypasses the L1");
        // The metadata is live: a subsequent rogue access faults.
        let (r, data) = read(&mut h, target + 5, 1, 1);
        assert!(r.exception.is_some());
        assert_eq!(data, vec![0]);
    }

    #[test]
    fn nt_cform_sees_dirty_l1_data_first() {
        let mut h = hier();
        h.store(0xB000, &[1, 2, 3, 4], 0);
        assert!(h.l1_contains(0xB000));
        h.cform_nt(&CformInstruction::set(0xB000, 1 << 40), 0);
        assert!(!h.l1_contains(0xB000), "L1 copy was written back");
        assert_eq!(read(&mut h, 0xB000, 4, 0).1, vec![1, 2, 3, 4]);
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
        let before = h.l1.stats();
        let _ = h.peek_byte(0x9000);
        let _ = h.peek_is_security_byte(0x9040);
        assert_eq!(h.l1.stats(), before);
    }
}
