//! The simulated memory hierarchy's configuration and the levels below
//! the L1: L2 → L3 (sentinel format) → DRAM (sentinel format, metadata
//! bit in spare ECC).
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
//! L1 performs the byte-granular access check. The machine both engines
//! drive, with its per-core L1s and their access rules, is
//! [`crate::coherence::CoherentHierarchy`]; this module holds its
//! configuration and the levels below the L1 ([`SharedLevels`]).
//!
//! Approximations (documented per DESIGN.md §3): the hierarchy is
//! inclusive by construction of the fill path; clean evictions are
//! dropped; instruction fetches are not simulated (the workloads' `Exec`
//! operations account for their cycles).

use crate::cache::SetAssocCache;
use crate::stats::SimStats;
use crate::LINE_BYTES;
use califorms_core::{CaliformsException, L2Line};
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
    /// Honoured by the one-core machine and ignored at two or more
    /// cores, whose L1s carry no prefetcher (DESIGN.md §7).
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
/// DRAM, under every core's L1 in
/// [`crate::coherence::CoherentHierarchy`].
///
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

    /// Overwrites a line's DRAM copy.
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

    /// Copies the shared-level counters into a stats block.
    pub fn export_stats(&self, stats: &mut SimStats) {
        stats.l2 = self.l2.stats;
        stats.l3 = self.l3.stats;
        stats.dram_accesses = self.dram_accesses;
    }
}

// --- checkpoint serialization -----------------------------------------
//
// Implemented here (not in `checkpoint`) because the shared levels'
// fields are private: the format module supplies the byte codecs, each
// owner serializes its own state.

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

/// The Table 3 levels driven through the one-core machine.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::coherence::{CoherenceConfig, CoherentHierarchy};
    use califorms_core::{AccessKind, CformInstruction, ExceptionKind};

    fn one_core(cfg: HierarchyConfig) -> CoherentHierarchy {
        CoherentHierarchy::new(cfg, CoherenceConfig::westmere(), 1)
    }

    fn hier() -> CoherentHierarchy {
        one_core(HierarchyConfig::westmere())
    }

    /// A load that keeps its bytes.
    fn read(h: &mut CoherentHierarchy, addr: u64, len: usize, pc: u64) -> (MemResult, Vec<u8>) {
        let mut data = Vec::new();
        let r = h.load(0, addr, len, pc, Some(&mut data));
        (r, data)
    }

    #[test]
    fn store_then_load_round_trips_through_l1() {
        let mut h = hier();
        let r = h.store(0, 0x1000, &[1, 2, 3, 4], 0);
        assert!(r.exception.is_none());
        let (r, data) = read(&mut h, 0x1000, 4, 0);
        assert_eq!(data, vec![1, 2, 3, 4]);
        assert!(r.exception.is_none());
        assert_eq!(r.latency, 4, "second access hits in L1");
    }

    #[test]
    fn plus_one_cycle_config_adds_to_l2_and_l3() {
        let mut h = one_core(HierarchyConfig::westmere_plus_one_cycle());
        let r = h.load(0, 0x4000, 1, 0, None);
        assert_eq!(r.latency, 4 + 8 + 28 + 300);
    }

    #[test]
    fn cform_then_rogue_load_raises_exception() {
        let mut h = hier();
        h.store(0, 0x2000, &[0xAA; 16], 0);
        // Caliform bytes 4..8 of the line.
        let insn = CformInstruction::set(0x2000, 0b1111 << 4);
        // The store above left non-zero data at 4..8; CFORM zeroes it.
        assert!(h.cform(0, &insn, 1).exception.is_none());
        let (r, data) = read(&mut h, 0x2000 + 4, 1, 2);
        let exc = r.exception.expect("touching a security byte faults");
        assert_eq!(exc.fault_addr, 0x2004);
        assert_eq!(exc.access, AccessKind::Load);
        assert_eq!(data, vec![0], "loads of security bytes return zero");
    }

    #[test]
    fn rogue_store_is_suppressed() {
        let mut h = hier();
        h.cform(0, &CformInstruction::set(0x2000, 1 << 10), 0);
        let r = h.store(0, 0x2000 + 8, &[7, 7, 7, 7], 1);
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
        h.cform(0, &CformInstruction::set(target, 1 << 3), 0);
        assert!(h.store(0, target, &[9, 9, 9], 0).exception.is_none());
        // Thrash the L1 set this line maps to. L1: 32KB/8way/64B = 64 sets;
        // stride of 64*64 = 4096 revisits the same set.
        for i in 1..=16u64 {
            h.load(0, target + i * 4096, 1, 0, None);
        }
        assert!(!h.l1_contains(target), "victim was evicted");
        assert!(h.spills() >= 1, "dirty califormed line was spilled");
        // Security byte still detected after the fill conversion.
        let r = h.load(0, target + 3, 1, 1, None);
        assert!(r.exception.is_some());
        // And the data survived the format conversions.
        assert_eq!(read(&mut h, target, 3, 1).1, vec![9, 9, 9]);
    }

    #[test]
    fn cform_kmap_violation_surfaces_as_exception() {
        let mut h = hier();
        let insn = CformInstruction::set(0x3000, 1 << 5);
        assert!(h.cform(0, &insn, 0).exception.is_none());
        let exc = h.cform(0, &insn, 1).exception.expect("double set faults");
        assert_eq!(exc.kind, ExceptionKind::CformDoubleSet);
        assert_eq!(exc.fault_addr, 0x3005);
    }

    #[test]
    fn line_crossing_load_is_split_and_checked() {
        let mut h = hier();
        h.store(0, 0x1000 + 60, &[1, 2, 3, 4], 0);
        h.store(0, 0x1040, &[5, 6, 7, 8], 0);
        let (_, data) = read(&mut h, 0x1000 + 60, 8, 0);
        assert_eq!(data, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        // Now blacklist a byte in the second line and re-check.
        h.cform(0, &CformInstruction::set(0x1040, 1 << 1), 0);
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
        h.store(0, 0xB000, &[1, 2, 3, 4], 0);
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
        h.store(0, 0xD000, &[9, 8, 7], 0);
        h.cform(0, &CformInstruction::set(0xD000, 1 << 33), 0);
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
        h.store(0, 0x9000, &[1], 0);
        let before = h.l1s()[0].stats();
        let _ = h.peek_byte(0x9000);
        let _ = h.peek_is_security_byte(0x9040);
        assert_eq!(h.l1s()[0].stats(), before);
    }
}
