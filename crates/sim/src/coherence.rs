//! The L1 data cache of both engines, and MESI directory coherence over
//! per-core L1s.
//!
//! **One L1.** [`CoreL1`] is a core's private L1D: lines in the
//! *califorms-bitvector* format, each with a MESI state. Every L1 access
//! of either engine runs through `access`, which splits it at line
//! boundaries; per line it does the hit check, the Califorms checker's
//! security-byte AND, store suppression with the silent E→M upgrade, and
//! the `CFORM` K-map faults. Accesses differ only in how a line the L1
//! lacks (or holds only Shared, for a write) is made resident — their
//! `MissPath`:
//!
//! * the single-core [`crate::hierarchy::Hierarchy`] fetches it from the
//!   shared levels through its stream prefetcher, so its lines are always
//!   E or M;
//! * [`CoherentHierarchy`] runs the MESI directory below;
//! * a core's bound phase ([`crate::multicore::MulticoreEngine`]) does
//!   not make it resident at all: it defers the access to the weave
//!   without counting a hit or miss.
//!
//! **Coherence** (DESIGN.md §7). Every core owns a `CoreL1`, and all cores
//! share the sentinel-format L2/L3/DRAM levels ([`SharedLevels`]). A
//! full-map directory (conceptually co-located with the shared L2 tags)
//! tracks, per line, which cores cache it and whether one of them holds it
//! exclusively. The protocol is MESI:
//!
//! * **M**odified — sole copy, dirty; the directory records the owner.
//! * **E**xclusive — sole copy, clean; a silent local E→M upgrade on the
//!   first store (the directory cannot distinguish E from M and does not
//!   need to).
//! * **S**hared — one of possibly many clean copies.
//! * **I**nvalid — not resident (absence from the L1).
//!
//! The Califorms-specific part is what happens on every transfer across an
//! L1 boundary: a recall from a remote owner runs the **real** Algorithm 1
//! spill (bitvector → sentinel) in the source L1 and the Algorithm 2 fill
//! (sentinel → bitvector) in the destination L1, exactly as a hardware
//! implementation would — the shared levels and the interconnect only ever
//! carry sentinel-format lines. Because spill/fill are exact inverses and
//! the canonical line type zeroes data under security bytes, the
//! security-byte zeroing invariant survives every invalidation, downgrade
//! and cache-to-cache transfer (property-tested in
//! `crates/sim/tests/multicore.rs`).

use crate::cache::{AccessedLine, Eviction, SetAssocCache};
use crate::hierarchy::{HierarchyConfig, LineMap, MemResult, SharedLevels};
use crate::stats::{CacheStats, CoherenceStats, SimStats};
use crate::{line_base, line_offset, LINE_BYTES};
use califorms_core::{
    fill_canonical, range_mask, spill_canonical, AccessKind, CaliformsException, CformInstruction,
    CoreError, ExceptionKind, L1Line, L2Line,
};
use std::convert::Infallible;

/// MESI residency state of a line in one core's L1 (absence = Invalid).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mesi {
    /// Sole copy, dirty.
    Modified,
    /// Sole copy, clean (silently upgradable to M).
    Exclusive,
    /// Possibly one of many clean copies.
    Shared,
}

impl Mesi {
    /// Whether this state permits a store without a directory transaction.
    pub fn writable(self) -> bool {
        matches!(self, Mesi::Modified | Mesi::Exclusive)
    }
}

/// One L1 entry: the bitvector-format line plus its MESI state.
#[derive(Debug, Clone, Copy)]
pub struct CoherentLine {
    /// The line in L1 (califorms-bitvector) format.
    pub line: L1Line,
    /// Current MESI state.
    pub state: Mesi,
}

/// Latency parameters of the coherence fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoherenceConfig {
    /// Cycles to consult the directory on an L1 miss or upgrade (charged
    /// on top of whatever services the request).
    pub directory_latency: u32,
    /// Cycles for a cache-to-cache transfer: probe the remote L1, spill,
    /// move the line across the interconnect, fill.
    pub cache_to_cache_latency: u32,
    /// Cycles for an S→M upgrade that must invalidate remote sharers.
    pub upgrade_latency: u32,
}

impl CoherenceConfig {
    /// Defaults in line with the Table 3 machine: directory lookup rides
    /// the L2 pipeline, a remote-L1 recall costs about two L2 trips.
    pub fn westmere() -> Self {
        Self {
            directory_latency: 2,
            cache_to_cache_latency: 15,
            upgrade_latency: 11,
        }
    }
}

impl Default for CoherenceConfig {
    fn default() -> Self {
        Self::westmere()
    }
}

// ---------------------------------------------------------------------------
// The L1 and its access rules.
// ---------------------------------------------------------------------------

/// One core's private L1D with its MESI states.
///
/// In a core's bound phase ([`crate::multicore::MulticoreEngine`]) the
/// replay holds `&mut` to exactly that core's `CoreL1` and completes
/// through `try_access` only the accesses that need no directory
/// transaction (hits with sufficient MESI permission). Everything else is
/// deferred and replayed through [`CoherentHierarchy`] in the weave.
#[derive(Debug)]
pub struct CoreL1 {
    pub(crate) cache: SetAssocCache<CoherentLine>,
}

impl CoreL1 {
    pub(crate) fn new(cfg: &HierarchyConfig) -> Self {
        Self {
            cache: SetAssocCache::new(cfg.l1d_size, cfg.l1d_ways, cfg.l1d_latency),
        }
    }

    /// Hit/miss/eviction counters of this L1.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats
    }

    /// Whether every line of `[addr, end)` is resident (`write`
    /// additionally requires M or E on each). `end` is past `addr`.
    fn servable_locally(&self, addr: u64, end: u64, write: bool) -> bool {
        let last = line_base(end - 1);
        let mut line_addr = line_base(addr);
        loop {
            match self.cache.peek(line_addr) {
                Some(e) if !write || e.state.writable() => {}
                _ => return false,
            }
            if line_addr == last {
                return true;
            }
            line_addr += LINE_BYTES;
        }
    }

    /// Completes an access entirely within this L1 — the bound phase.
    /// Returns `None`, counting no hit or miss, if a covered line is
    /// absent or a write finds a line held Shared.
    #[inline(always)]
    pub(crate) fn try_access(&mut self, addr: u64, a: Access<'_>, pc: u64) -> Option<MemResult> {
        access(self, addr, a, pc).ok()
    }
}

/// The bound phase's miss path: it never makes a line resident, and it
/// starts a line-crossing access only if it can finish it.
impl MissPath for CoreL1 {
    type Defer = ();

    fn l1(&mut self) -> &mut CoreL1 {
        self
    }

    fn make_resident(&mut self, _line_addr: u64, _write: bool, _held: bool) -> Result<u32, ()> {
        Err(())
    }

    fn admits(&mut self, addr: u64, end: u64, write: bool) -> Result<(), ()> {
        if self.servable_locally(addr, end, write) {
            Ok(())
        } else {
            Err(())
        }
    }
}

/// How an L1 access gets a line its L1 lacks, or holds only Shared for a
/// write: the one step in which the engines differ.
pub(crate) trait MissPath {
    /// Why the path may refuse an access: [`Infallible`] for the paths
    /// that always make the line resident, `()` for the bound phase,
    /// which defers the access to the weave.
    type Defer;

    /// The L1 the access runs against.
    fn l1(&mut self) -> &mut CoreL1;

    /// Makes `line_addr` resident in [`Self::l1`], with write permission
    /// when `write`, counting the access as an L1 hit (`held`: the L1 has
    /// the line, Shared) or miss. Returns the latency beyond the L1 hit.
    fn make_resident(
        &mut self,
        line_addr: u64,
        write: bool,
        held: bool,
    ) -> Result<u32, Self::Defer>;

    /// Whether a line-crossing access over `[addr, end)` may start. A path
    /// that defers must not commit half of one.
    fn admits(&mut self, _addr: u64, _end: u64, _write: bool) -> Result<(), Self::Defer> {
        Ok(())
    }
}

/// What an L1 access does to each line it covers.
#[derive(Debug)]
pub(crate) enum Access<'a> {
    /// A load of `len` bytes; the bytes are appended to `sink` when there
    /// is one (security bytes read as zero).
    Load {
        /// Bytes loaded.
        len: usize,
        /// Where the loaded bytes go, if anywhere.
        sink: Option<&'a mut Vec<u8>>,
    },
    /// A store of these bytes.
    Store(&'a [u8]),
    /// A `CFORM` of one line (write-allocate, like a store).
    Cform(&'a CformInstruction),
}

impl Access<'_> {
    fn writes(&self) -> bool {
        !matches!(self, Access::Load { .. })
    }

    fn len(&self) -> usize {
        match self {
            Access::Load { len, .. } => *len,
            Access::Store(bytes) => bytes.len(),
            Access::Cform(_) => LINE_BYTES as usize,
        }
    }

    /// Applies this access to `chunk` bytes at `offset` of the resident
    /// `line` (`done` bytes into the access), returning the fault it
    /// raised. A load's fault is the first security byte it touched; a
    /// faulting store or `CFORM` leaves the line untouched, and one that
    /// commits makes it Modified and dirty (the silent E→M upgrade).
    #[inline(always)]
    fn apply(
        &mut self,
        line: AccessedLine<'_, CoherentLine>,
        line_addr: u64,
        offset: usize,
        chunk: usize,
        done: usize,
        pc: u64,
    ) -> Option<CaliformsException> {
        let l1 = &mut line.value.line;
        let written = match self {
            Access::Load { sink, .. } => {
                if let Some(sink) = sink {
                    // Canonical-line invariant: security bytes hold zero,
                    // so the loaded bytes are a straight copy.
                    sink.extend_from_slice(&l1.line().data()[offset..offset + chunk]);
                }
                let violating = l1.bitvector() & range_mask(offset, chunk);
                return (violating != 0).then(|| CaliformsException {
                    fault_addr: line_addr + u64::from(violating.trailing_zeros()),
                    access: AccessKind::Load,
                    kind: ExceptionKind::SecurityByteAccess,
                    pc,
                });
            }
            Access::Store(bytes) => l1.store(offset, &bytes[done..done + chunk]),
            Access::Cform(insn) => insn.execute(l1.line_mut()).map(drop),
        };
        match written {
            Ok(()) => {
                line.value.state = Mesi::Modified;
                *line.dirty = true;
                None
            }
            Err(e) => Some(write_fault(e, line_addr, pc)),
        }
    }
}

/// The exception a refused line write raises: a store that touched a
/// security byte, or a `CFORM` K-map fault (Table 1 semantics).
pub(crate) fn write_fault(e: CoreError, line_addr: u64, pc: u64) -> CaliformsException {
    let (access, kind, index) = match e {
        CoreError::StoreToSecurityByte { index } => {
            (AccessKind::Store, ExceptionKind::SecurityByteAccess, index)
        }
        CoreError::CformSetOnSecurityByte { index } => {
            (AccessKind::Cform, ExceptionKind::CformDoubleSet, index)
        }
        CoreError::CformUnsetOnNormalByte { index } => {
            (AccessKind::Cform, ExceptionKind::CformUnsetNormal, index)
        }
        other => unreachable!("line writes fault only on security bytes or the K-map: {other}"),
    };
    CaliformsException {
        fault_addr: line_addr + index as u64,
        access,
        kind,
        pc,
    }
}

/// Exclusive end of a line-crossing access, faulting loudly on a range
/// that wraps past the address space instead of letting debug builds
/// panic on overflow and release builds silently turn the access into a
/// no-op. (An access of at most a line whose last byte is the top of the
/// address space is single-line, so it never needs `end == 2^64`.)
#[inline]
fn access_end(addr: u64, len: usize) -> u64 {
    addr.checked_add(len as u64).unwrap_or_else(|| {
        panic!("memory access [{addr:#x}, {addr:#x} + {len:#x}) wraps past the address space")
    })
}

/// The L1 access rules, written once for both engines. Every line an
/// access covers goes through [`access_line`]; a line-crossing access is
/// split at line boundaries, as the cache controller would, and takes the
/// slowest line's latency and the first line's fault. Only a deferring
/// `path` returns `Err`, and then before anything was counted or written.
#[inline(always)]
pub(crate) fn access<P: MissPath>(
    path: &mut P,
    addr: u64,
    mut a: Access<'_>,
    pc: u64,
) -> Result<MemResult, P::Defer> {
    let len = a.len();
    let hit_latency = path.l1().cache.latency;
    if line_offset(addr) + len > LINE_BYTES as usize {
        path.admits(addr, access_end(addr, len), a.writes())?;
    } else if len != 0 {
        let (extra, exception) = access_line(path, &mut a, addr, len, 0, pc)?;
        return Ok(MemResult {
            latency: hit_latency + extra,
            exception,
        });
    }
    // A line-crossing access (an empty one touches no line).
    let mut latency = 0;
    let mut exception = None;
    let mut cur = addr;
    let mut done = 0;
    while done < len {
        let chunk = (len - done).min(LINE_BYTES as usize - line_offset(cur));
        let (extra, fault) = access_line(path, &mut a, cur, chunk, done, pc)?;
        latency = latency.max(hit_latency + extra);
        exception = exception.or(fault);
        done += chunk;
        cur += chunk as u64;
    }
    Ok(MemResult { latency, exception })
}

/// One line of an access: `chunk` bytes at `addr`, `done` bytes into it.
/// A hit with sufficient permission is served in one set scan and counted;
/// otherwise `path` makes the line resident first. Returns the latency
/// beyond the L1 hit and the line's fault.
#[inline(always)]
fn access_line<P: MissPath>(
    path: &mut P,
    a: &mut Access<'_>,
    addr: u64,
    chunk: usize,
    done: usize,
    pc: u64,
) -> Result<(u32, Option<CaliformsException>), P::Defer> {
    let (line_addr, offset) = (line_base(addr), line_offset(addr));
    let write = a.writes();
    let l1 = path.l1();
    match l1.cache.probe_entry(line_addr) {
        Some(hit) if !write || hit.value.state.writable() => {
            let fault = a.apply(hit, line_addr, offset, chunk, done, pc);
            l1.cache.stats.hits += 1;
            Ok((0, fault))
        }
        held => {
            let held = held.is_some();
            let extra = path.make_resident(line_addr, write, held)?;
            let line = path
                .l1()
                .cache
                .probe_entry(line_addr)
                // analyze::allow(hot-path-unwrap): make_resident has just made the line resident
                .expect("make_resident made the line resident");
            Ok((extra, a.apply(line, line_addr, offset, chunk, done, pc)))
        }
    }
}

// ---------------------------------------------------------------------------
// The directory.
// ---------------------------------------------------------------------------

/// Full-map directory entry for one line.
#[derive(Debug, Clone, Copy, Default)]
struct DirEntry {
    /// Bit `c` set ⇒ core `c` has a copy.
    sharers: u64,
    /// `Some(c)` ⇒ core `c` holds the line in M or E (then
    /// `sharers == 1 << c`).
    owner: Option<usize>,
}

/// The multi-core hierarchy: N per-core L1Ds kept coherent by a MESI
/// directory over the shared sentinel-format L2/L3/DRAM.
#[derive(Debug)]
pub struct CoherentHierarchy {
    cfg: HierarchyConfig,
    ccfg: CoherenceConfig,
    l1s: Vec<CoreL1>,
    shared: SharedLevels,
    /// Full-map entries of every line some L1 holds.
    dir: LineMap<DirEntry>,
    /// L1→L2 spill conversions of califormed lines (all cores).
    spills: u64,
    /// L2→L1 fill conversions of califormed lines (all cores).
    fills: u64,
    /// Coherence-traffic counters.
    coherence: CoherenceStats,
}

/// Core `c`'s port into a [`CoherentHierarchy`]: its L1, with misses and
/// upgrades resolved by the directory.
struct CorePort<'a> {
    h: &'a mut CoherentHierarchy,
    c: usize,
}

impl MissPath for CorePort<'_> {
    type Defer = Infallible;

    fn l1(&mut self) -> &mut CoreL1 {
        &mut self.h.l1s[self.c]
    }

    fn make_resident(
        &mut self,
        line_addr: u64,
        write: bool,
        held: bool,
    ) -> Result<u32, Infallible> {
        Ok(if held {
            self.h.upgrade(self.c, line_addr)
        } else {
            self.h.fetch_line(self.c, line_addr, write)
        })
    }
}

impl CoherentHierarchy {
    /// Builds a coherent hierarchy with `cores` private L1Ds.
    ///
    /// `cfg.stream_prefetcher` / `cfg.prefetch_residual` are ignored:
    /// the multi-core L1s carry no prefetcher (DESIGN.md §7).
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ cores ≤ 64` (the directory's sharer set is one
    /// machine word, as in real full-map directories of this scale).
    pub fn new(cfg: HierarchyConfig, ccfg: CoherenceConfig, cores: usize) -> Self {
        assert!(
            (1..=64).contains(&cores),
            "directory supports 1..=64 cores, got {cores}"
        );
        Self {
            l1s: (0..cores).map(|_| CoreL1::new(&cfg)).collect(),
            shared: SharedLevels::new(cfg),
            dir: LineMap::default(),
            spills: 0,
            fills: 0,
            cfg,
            ccfg,
            coherence: CoherenceStats::default(),
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.l1s.len()
    }

    /// The hierarchy configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Read-only view of the per-core L1 slices.
    pub fn l1s(&self) -> &[CoreL1] {
        &self.l1s
    }

    /// Mutable access to one core's L1.
    pub fn l1_mut(&mut self, c: usize) -> &mut CoreL1 {
        &mut self.l1s[c]
    }

    /// L1→L2 spill conversions of califormed lines (all cores).
    pub fn spills(&self) -> u64 {
        self.spills
    }

    /// L2→L1 fill conversions of califormed lines (all cores).
    pub fn fills(&self) -> u64 {
        self.fills
    }

    /// The coherence-traffic counters.
    pub fn coherence_totals(&self) -> CoherenceStats {
        self.coherence
    }

    /// Monotonic count of coherence events that involved more than one
    /// core (invalidations + cache-to-cache transfers). The weave uses
    /// deltas of this to detect whether a transaction was contended —
    /// purely simulated state.
    pub(crate) fn cross_core_events(&self) -> u64 {
        self.coherence.invalidations + self.coherence.cache_to_cache_transfers
    }

    /// Spills `line` into the L2 (running the real bitvector→sentinel
    /// conversion) and returns the sentinel-format copy. `dirty` decides
    /// whether the L2 copy is marked dirty.
    fn write_back(&mut self, line_addr: u64, line: &L1Line, dirty: bool) -> L2Line {
        let spilled = spill_canonical(line);
        if spilled.califormed {
            self.spills += 1;
        }
        self.shared.insert_l2(line_addr, spilled, dirty);
        spilled
    }

    /// Removes core `c` from a victim line's directory entry (L1 capacity
    /// eviction), writing a dirty victim back through the spill path. One
    /// hash operation in the common case (sole resident core evicts →
    /// entry removed); the entry is reinserted only when other cores
    /// still share the line.
    fn retire_victim(&mut self, c: usize, victim: Eviction<CoherentLine>) {
        let mut entry = self
            .dir
            .remove(&victim.line_addr)
            // analyze::allow(hot-path-unwrap): coherence invariant: every resident line has a directory entry
            .expect("resident lines are in the directory");
        entry.sharers &= !(1u64 << c);
        if entry.sharers != 0 {
            if entry.owner == Some(c) {
                entry.owner = None;
            }
            self.dir.insert(victim.line_addr, entry);
        }
        if victim.dirty {
            self.write_back(victim.line_addr, &victim.value.line, true);
        }
    }

    /// S→M upgrade of a line core `c` holds Shared: the directory makes
    /// `c` the owner and invalidates every other sharer. Counts an L1 hit
    /// and returns the latency beyond it.
    fn upgrade(&mut self, c: usize, line_addr: u64) -> u32 {
        self.l1s[c].cache.stats.hits += 1;
        self.coherence.directory_lookups += 1;
        self.coherence.upgrades_s_to_m += 1;
        let entry = self
            .dir
            .get_mut(&line_addr)
            // analyze::allow(hot-path-unwrap): coherence invariant: shared lines keep their directory entry
            .expect("shared lines are in the directory");
        let others = entry.sharers & !(1u64 << c);
        entry.sharers = 1 << c;
        entry.owner = Some(c);
        let mut latency = self.ccfg.directory_latency;
        if others != 0 {
            latency += self.ccfg.upgrade_latency;
            self.invalidate_sharers(others, line_addr);
        }
        let e = self.l1s[c]
            .cache
            .peek_mut(line_addr)
            // analyze::allow(hot-path-unwrap): the upgrading core holds the line; only other cores' copies were dropped
            .expect("still resident");
        e.state = Mesi::Modified;
        latency
    }

    /// Drops the clean Shared copies of `line_addr` in every core of
    /// `sharers`.
    fn invalidate_sharers(&mut self, sharers: u64, line_addr: u64) {
        for o in 0..self.l1s.len() {
            if sharers >> o & 1 == 1 {
                self.l1s[o].cache.invalidate(line_addr);
                self.coherence.invalidations += 1;
            }
        }
    }

    /// The MESI miss: makes `line_addr`, absent from core `c`'s L1,
    /// resident there with read (`write == false`) or write permission.
    /// Counts an L1 miss and returns the latency beyond the L1 hit.
    fn fetch_line(&mut self, c: usize, line_addr: u64, write: bool) -> u32 {
        self.l1s[c].cache.stats.misses += 1;
        // One hash op for a private miss: the entry is created and
        // updated in place.
        self.coherence.directory_lookups += 1;
        let entry = self.dir.entry(line_addr).or_default();
        let remote_owner = entry.owner.filter(|&o| o != c);
        let remote_sharers = entry.sharers & !(1u64 << c);
        let mut latency = self.ccfg.directory_latency;

        let (l2line, state) = if remote_owner.is_none() && remote_sharers == 0 {
            // No other core involved: the private case the weave batches.
            entry.sharers = 1 << c;
            entry.owner = Some(c);
            let (line, fetch_latency) = self.shared.fetch(line_addr);
            latency += fetch_latency;
            let state = if write {
                Mesi::Modified
            } else {
                Mesi::Exclusive
            };
            (line, state)
        } else {
            let line = if let Some(o) = remote_owner {
                self.recall(o, line_addr, write, &mut latency)
            } else {
                if write {
                    // Write to a line shared (clean) by others: invalidate.
                    latency += self.ccfg.upgrade_latency;
                    self.invalidate_sharers(remote_sharers, line_addr);
                }
                let (line, fetch_latency) = self.shared.fetch(line_addr);
                latency += fetch_latency;
                line
            };
            let entry = self.dir.entry(line_addr).or_default();
            let state = if write {
                entry.sharers = 1 << c;
                entry.owner = Some(c);
                Mesi::Modified
            } else {
                entry.sharers |= 1 << c;
                entry.owner = None;
                Mesi::Shared
            };
            (line, state)
        };

        if l2line.califormed {
            self.fills += 1;
        }
        let line = CoherentLine {
            line: fill_canonical(&l2line),
            state,
        };
        if let Some(victim) = self.l1s[c].cache.insert(line_addr, line, false) {
            self.retire_victim(c, victim);
        }
        latency
    }

    /// Cache-to-cache transfer: recalls `line_addr` from the remote
    /// owner `o`'s L1. The spill conversion runs in the source L1 either
    /// way; on a read the owner keeps a Shared copy, on a write it is
    /// invalidated. Returns the sentinel-format line in flight.
    fn recall(&mut self, o: usize, line_addr: u64, write: bool, latency: &mut u32) -> L2Line {
        *latency += self.ccfg.cache_to_cache_latency;
        self.coherence.cache_to_cache_transfers += 1;
        let (owner_line, owner_dirty) = if write {
            let (victim, dirty) = self.l1s[o]
                .cache
                .invalidate(line_addr)
                // analyze::allow(hot-path-unwrap): directory owner state implies the line is in that L1
                .expect("directory says owner has the line");
            self.coherence.invalidations += 1;
            (victim.line, dirty)
        } else {
            let e = self.l1s[o]
                .cache
                .peek_mut(line_addr)
                // analyze::allow(hot-path-unwrap): directory owner state implies the line is in that L1
                .expect("directory says owner has the line");
            e.state = Mesi::Shared;
            let line = e.line;
            let dirty = self.l1s[o].cache.is_dirty(line_addr).unwrap_or(false);
            self.l1s[o].cache.clear_dirty(line_addr);
            (line, dirty)
        };
        let spilled = self.write_back(line_addr, &owner_line, owner_dirty);
        if spilled.califormed {
            self.coherence.califormed_transfers += 1;
        }
        spilled
    }

    /// Runs one access by core `c` through the shared L1 access rules.
    #[inline(always)]
    fn serve(&mut self, c: usize, addr: u64, a: Access<'_>, pc: u64) -> MemResult {
        let Ok(r) = access(&mut CorePort { h: self, c }, addr, a, pc);
        r
    }

    /// Performs a load of `len` bytes at `addr` by core `c`
    /// (line-crossing loads are split), appending the loaded bytes to
    /// `data` when given (security bytes read as zero).
    #[inline]
    pub fn load(
        &mut self,
        c: usize,
        addr: u64,
        len: usize,
        pc: u64,
        data: Option<&mut Vec<u8>>,
    ) -> MemResult {
        self.serve(c, addr, Access::Load { len, sink: data }, pc)
    }

    /// Performs a store by core `c`; on a security-byte violation the
    /// store to that line is suppressed and the exception reported.
    #[inline]
    pub fn store(&mut self, c: usize, addr: u64, bytes: &[u8], pc: u64) -> MemResult {
        self.serve(c, addr, Access::Store(bytes), pc)
    }

    /// Executes a `CFORM` by core `c` (write-allocate: the line is pulled
    /// into the core's L1 in M state first, like a store).
    pub fn cform(&mut self, c: usize, insn: &CformInstruction, pc: u64) -> MemResult {
        self.serve(c, insn.line_addr, Access::Cform(insn), pc)
    }

    /// Executes a **non-temporal** `CFORM` by core `c`: every L1 copy is
    /// recalled/invalidated (write-back through the spill conversion where
    /// dirty) and the line is updated in place at the shared L2 without
    /// re-entering any L1.
    /// (`_c` identifies the requesting core for API symmetry; the NT
    /// variant never allocates into any L1, so it does not use it.)
    pub fn cform_nt(&mut self, _c: usize, insn: &CformInstruction, pc: u64) -> MemResult {
        let line_addr = insn.line_addr;
        self.coherence.directory_lookups += 1;
        let mut latency = self.ccfg.directory_latency;
        if let Some(entry) = self.dir.remove(&line_addr) {
            for o in 0..self.l1s.len() {
                if entry.sharers >> o & 1 == 1 {
                    if let Some((victim, dirty)) = self.l1s[o].cache.invalidate(line_addr) {
                        self.coherence.invalidations += 1;
                        if dirty {
                            self.write_back(line_addr, &victim.line, true);
                            latency += self.ccfg.cache_to_cache_latency;
                        }
                    }
                }
            }
        }
        let (l2line, extra) = self.shared.fetch(line_addr);
        latency += extra;
        let mut l1line = fill_canonical(&l2line);
        let exception = match insn.execute(l1line.line_mut()) {
            Ok(_) => {
                let spilled = spill_canonical(&l1line);
                self.shared.insert_l2(line_addr, spilled, true);
                None
            }
            Err(err) => Some(write_fault(err, line_addr, pc)),
        };
        MemResult {
            latency: self.cfg.l1d_latency + latency,
            exception,
        }
    }

    /// Functional view of the line holding `addr`: the authoritative copy
    /// is the owning core's L1 if any, then any Shared L1 copy, then the
    /// shared levels. No timing, LRU or counter effects.
    fn peek_line(&self, addr: u64) -> L1Line {
        let line_addr = line_base(addr);
        if let Some(entry) = self.dir.get(&line_addr) {
            for o in 0..self.l1s.len() {
                if entry.sharers >> o & 1 == 1 {
                    if let Some(e) = self.l1s[o].cache.peek(line_addr) {
                        return e.line;
                    }
                }
            }
        }
        fill_canonical(&self.shared.peek_line(line_addr))
    }

    /// Functional snapshot of a line's canonical *(data, security-mask)*
    /// state through the coherent machine (freshest copy: an owning L1
    /// first, then the shared levels) — no timing, LRU or stats effects.
    /// The differential oracle (`califorms-oracle`) diffs final memory
    /// and blacklist state against this.
    pub fn snapshot_line(&self, line_addr: u64) -> califorms_core::CaliformedLine {
        *self.peek_line(line_addr).line()
    }

    /// Functional read of one byte (security bytes read as zero).
    pub fn peek_byte(&self, addr: u64) -> u8 {
        self.peek_line(addr).line().data()[line_offset(addr)]
    }

    /// Whether `addr` currently marks a security byte.
    pub fn peek_is_security_byte(&self, addr: u64) -> bool {
        self.peek_line(addr)
            .line()
            .is_security_byte(line_offset(addr))
    }

    /// The current security mask of the line holding `addr`.
    pub fn peek_mask(&self, addr: u64) -> u64 {
        self.peek_line(addr).line().security_mask()
    }

    /// MESI state of a line in core `c`'s L1 (`None` = Invalid/absent).
    pub fn l1_state(&self, c: usize, line_addr: u64) -> Option<Mesi> {
        self.l1s[c].cache.peek(line_addr).map(|e| e.state)
    }

    /// Copies the shared-level and coherence counters into `stats` (the
    /// whole-machine "combined" block of
    /// [`crate::stats::MulticoreStats`]).
    pub fn export_stats(&self, stats: &mut SimStats) {
        self.shared.export_stats(stats);
        let mut l1d = CacheStats::default();
        for l1 in &self.l1s {
            let s = l1.stats();
            l1d.hits += s.hits;
            l1d.misses += s.misses;
            l1d.evictions += s.evictions;
            l1d.writebacks += s.writebacks;
        }
        stats.l1d = l1d;
        stats.spills = self.spills;
        stats.fills = self.fills;
        stats.coherence = self.coherence;
    }
}

// ---------------------------------------------------------------------------
// Checkpoint state (DESIGN.md §14). Implemented here (not in `checkpoint`)
// because the coherent hierarchy's fields are private.
// ---------------------------------------------------------------------------

use crate::checkpoint::{self as ck, CheckpointError};

/// Stable wire tags for [`Mesi`] (absence from the cache = Invalid).
fn mesi_tag(state: Mesi) -> u8 {
    match state {
        Mesi::Modified => 0,
        Mesi::Exclusive => 1,
        Mesi::Shared => 2,
    }
}

pub(crate) fn put_coherent_line(w: &mut ck::Wr, line: &CoherentLine) {
    ck::put_l1_line(w, &line.line);
    w.u8(mesi_tag(line.state));
}

pub(crate) fn get_coherent_line(r: &mut ck::Rd<'_>) -> ck::Result<CoherentLine> {
    let line = ck::get_l1_line(r)?;
    let state = match r.u8()? {
        0 => Mesi::Modified,
        1 => Mesi::Exclusive,
        2 => Mesi::Shared,
        _ => return Err(CheckpointError::Corrupt("unknown MESI state tag")),
    };
    Ok(CoherentLine { line, state })
}

impl CoherentHierarchy {
    /// Serializes the full mutable coherent-machine state (the
    /// `SEC_COHERENT` payload): per-core L1s with their MESI states, the
    /// shared levels, the directory and the conversion and coherence
    /// counters. The configuration travels separately in `SEC_CONFIG`.
    pub(crate) fn save_state(&self, w: &mut ck::Wr) {
        w.u64(self.l1s.len() as u64);
        for l1 in &self.l1s {
            ck::put_cache(w, &l1.cache, put_coherent_line);
        }
        self.shared.save_state(w);
        // Directory entries in canonical form: sorted by line address
        // (`LineMap` iteration order is insertion-history-dependent, the
        // sort buys byte-identical checkpoints for equal states).
        let mut entries: Vec<(u64, DirEntry)> = self.dir.iter().map(|(k, v)| (*k, *v)).collect();
        entries.sort_unstable_by_key(|&(addr, _)| addr);
        w.u64(entries.len() as u64);
        for (addr, e) in entries {
            w.u64(addr);
            w.u64(e.sharers);
            match e.owner {
                Some(o) => {
                    w.bool(true);
                    w.u64(o as u64);
                }
                None => w.bool(false),
            }
        }
        w.u64(self.spills);
        w.u64(self.fills);
        w.u64(self.coherence.invalidations);
        w.u64(self.coherence.upgrades_s_to_m);
        w.u64(self.coherence.cache_to_cache_transfers);
        w.u64(self.coherence.califormed_transfers);
        w.u64(self.coherence.directory_lookups);
    }

    /// Rebuilds a coherent hierarchy from a `SEC_COHERENT` payload
    /// against `cfg`/`ccfg`/`cores` (already decoded from `SEC_CONFIG` /
    /// `SEC_META`).
    pub(crate) fn restore_state(
        cfg: HierarchyConfig,
        ccfg: CoherenceConfig,
        cores: usize,
        r: &mut ck::Rd<'_>,
    ) -> ck::Result<Self> {
        let mut h = CoherentHierarchy::new(cfg, ccfg, cores);
        if r.count()? != cores {
            return Err(CheckpointError::ConfigMismatch("per-core L1 count"));
        }
        for l1 in &mut h.l1s {
            ck::get_cache(r, &mut l1.cache, get_coherent_line)?;
        }
        h.shared.restore_state(r)?;
        let n = r.count()?;
        let mut prev = None;
        for _ in 0..n {
            let addr = r.u64()?;
            if addr % LINE_BYTES != 0 {
                return Err(CheckpointError::Corrupt("directory line address unaligned"));
            }
            if prev.is_some_and(|p| addr <= p) {
                return Err(CheckpointError::Corrupt(
                    "directory entries out of canonical order",
                ));
            }
            prev = Some(addr);
            let sharers = r.u64()?;
            if sharers == 0 {
                return Err(CheckpointError::Corrupt("directory entry with no sharers"));
            }
            if cores < 64 && sharers >> cores != 0 {
                return Err(CheckpointError::Corrupt(
                    "directory sharer beyond the core count",
                ));
            }
            let owner = if r.bool()? {
                let o = r.u64()? as usize;
                if o >= cores || sharers != 1u64 << o {
                    return Err(CheckpointError::Corrupt(
                        "directory owner inconsistent with its sharer set",
                    ));
                }
                Some(o)
            } else {
                None
            };
            h.dir.insert(addr, DirEntry { sharers, owner });
        }
        h.spills = r.u64()?;
        h.fills = r.u64()?;
        h.coherence.invalidations = r.u64()?;
        h.coherence.upgrades_s_to_m = r.u64()?;
        h.coherence.cache_to_cache_transfers = r.u64()?;
        h.coherence.califormed_transfers = r.u64()?;
        h.coherence.directory_lookups = r.u64()?;
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coh(cores: usize) -> CoherentHierarchy {
        CoherentHierarchy::new(
            HierarchyConfig::westmere(),
            CoherenceConfig::westmere(),
            cores,
        )
    }

    /// A load by core `c` that keeps its bytes.
    fn read(h: &mut CoherentHierarchy, c: usize, addr: u64, len: usize) -> (MemResult, Vec<u8>) {
        let mut data = Vec::new();
        let r = h.load(c, addr, len, 0, Some(&mut data));
        (r, data)
    }

    fn load(len: usize) -> Access<'static> {
        Access::Load { len, sink: None }
    }

    #[test]
    fn first_reader_gets_exclusive_second_demotes_to_shared() {
        let mut h = coh(2);
        h.store(0, 0x1000, &[1, 2, 3, 4], 0);
        assert_eq!(h.l1_state(0, 0x1000), Some(Mesi::Modified));
        let (_, data) = read(&mut h, 1, 0x1000, 4);
        assert_eq!(data, vec![1, 2, 3, 4], "dirty data travels core-to-core");
        assert_eq!(h.l1_state(0, 0x1000), Some(Mesi::Shared));
        assert_eq!(h.l1_state(1, 0x1000), Some(Mesi::Shared));
        assert_eq!(h.coherence_totals().cache_to_cache_transfers, 1);
    }

    #[test]
    fn cold_read_is_exclusive_and_silently_upgrades() {
        let mut h = coh(2);
        h.load(0, 0x2000, 8, 0, None);
        assert_eq!(h.l1_state(0, 0x2000), Some(Mesi::Exclusive));
        // The silent E→M store needs no directory transaction.
        let lookups = h.coherence_totals().directory_lookups;
        h.store(0, 0x2000, &[9], 1);
        assert_eq!(h.l1_state(0, 0x2000), Some(Mesi::Modified));
        assert_eq!(h.coherence_totals().directory_lookups, lookups);
    }

    #[test]
    fn store_to_shared_line_upgrades_and_invalidates() {
        let mut h = coh(4);
        for c in 0..4 {
            h.load(c, 0x3000, 8, 0, None);
        }
        assert_eq!(h.l1_state(3, 0x3000), Some(Mesi::Shared));
        h.store(1, 0x3000, &[7], 1);
        assert_eq!(h.l1_state(1, 0x3000), Some(Mesi::Modified));
        for c in [0usize, 2, 3] {
            assert_eq!(h.l1_state(c, 0x3000), None, "core {c} invalidated");
        }
        assert_eq!(h.coherence_totals().upgrades_s_to_m, 1);
        assert_eq!(h.coherence_totals().invalidations, 3);
    }

    #[test]
    fn write_request_recalls_and_invalidates_remote_owner() {
        let mut h = coh(2);
        h.store(0, 0x4000, &[1; 8], 0);
        h.store(1, 0x4000, &[2; 8], 1);
        assert_eq!(h.l1_state(0, 0x4000), None);
        assert_eq!(h.l1_state(1, 0x4000), Some(Mesi::Modified));
        assert_eq!(read(&mut h, 1, 0x4000, 8).1, vec![2; 8]);
        assert_eq!(h.coherence_totals().invalidations, 1);
    }

    #[test]
    fn califormed_line_transfer_runs_conversions_and_preserves_mask() {
        let mut h = coh(2);
        h.store(0, 0x5000, &[5; 16], 0);
        let insn = CformInstruction::set(0x5000, 0b1111 << 20);
        assert!(h.cform(0, &insn, 1).exception.is_none());
        let (spills0, fills0) = (h.spills(), h.fills());
        // Core 1 reads a normal part of the line: recall runs spill+fill.
        let (r, data) = read(&mut h, 1, 0x5000, 8);
        assert!(r.exception.is_none());
        assert_eq!(data, vec![5; 8]);
        assert_eq!(h.spills(), spills0 + 1, "recall spilled in the source L1");
        assert_eq!(
            h.fills(),
            fills0 + 1,
            "fill converted in the destination L1"
        );
        assert_eq!(h.coherence_totals().califormed_transfers, 1);
        assert_eq!(h.peek_mask(0x5000), 0b1111 << 20, "mask survived transfer");
    }

    #[test]
    fn cross_core_probe_traps_at_exact_byte() {
        let mut h = coh(2);
        h.cform(0, &CformInstruction::set(0x6000, 1 << 21), 0);
        assert_eq!(h.l1_state(0, 0x6000), Some(Mesi::Modified));
        let (r, data) = read(&mut h, 1, 0x6000 + 21, 1);
        let exc = r.exception.expect("probe must trap");
        assert_eq!(exc.fault_addr, 0x6015);
        assert_eq!(exc.access, AccessKind::Load);
        assert_eq!(data, vec![0], "security byte reads zero on the far core");
    }

    #[test]
    fn invalidation_preserves_zeroing_invariant() {
        let mut h = coh(2);
        h.store(0, 0x7000, &[0xAB; 32], 0);
        h.cform(0, &CformInstruction::set(0x7000, 0xFF << 8), 1);
        // Remote write forces recall+invalidate of the dirty califormed
        // line; the surviving copy must still zero bytes 8..16.
        h.store(1, 0x7000, &[0xCD; 4], 2);
        for off in 8..16 {
            assert!(h.peek_is_security_byte(0x7000 + off));
            assert_eq!(h.peek_byte(0x7000 + off), 0);
        }
        assert_eq!(h.peek_byte(0x7000), 0xCD);
        assert_eq!(h.peek_byte(0x7000 + 16), 0xAB);
    }

    #[test]
    fn try_local_ops_complete_only_with_permission() {
        let mut h = coh(2);
        h.load(0, 0x8000, 8, 0, None); // E in core 0
        let l1 = h.l1_mut(0);
        assert!(l1.try_access(0x8000, load(8), 1).is_some());
        assert!(
            l1.try_access(0x8000, Access::Store(&[1]), 2).is_some(),
            "E is writable"
        );
        let before = l1.stats();
        assert!(l1.try_access(0x9000, load(8), 3).is_none(), "miss defers");
        assert!(
            l1.try_access(0x8000 + 60, load(8), 3).is_none(),
            "a line-crossing access defers if any line is absent"
        );
        assert_eq!(l1.stats(), before, "a deferred access counts nothing");
        // Demote to Shared via a second reader; local store must defer.
        h.load(1, 0x8000, 8, 4, None);
        let l1 = h.l1_mut(0);
        assert!(l1.try_access(0x8000, load(8), 5).is_some());
        assert!(
            l1.try_access(0x8000, Access::Store(&[2]), 6).is_none(),
            "S is not writable"
        );
    }

    #[test]
    fn nt_cform_invalidates_every_copy_and_hits_below() {
        let mut h = coh(3);
        h.store(0, 0xA000, &[3; 8], 0);
        h.load(1, 0xA000, 8, 1, None);
        h.load(2, 0xA000, 8, 2, None);
        let r = h.cform_nt(0, &CformInstruction::set(0xA000, 1 << 40), 3);
        assert!(r.exception.is_none());
        for c in 0..3 {
            assert_eq!(h.l1_state(c, 0xA000), None, "core {c} dropped its copy");
        }
        assert!(h.peek_is_security_byte(0xA000 + 40));
        assert_eq!(h.peek_byte(0xA000), 3, "data survived");
    }

    #[test]
    fn capacity_eviction_updates_directory() {
        let mut h = coh(2);
        let target = 0xB000u64;
        h.store(0, target, &[9; 8], 0);
        // Thrash core 0's set (64 sets × 64 B × 64 sets-stride = 4096).
        for i in 1..=16u64 {
            h.load(0, target + i * 4096, 8, 0, None);
        }
        assert_eq!(h.l1_state(0, target), None, "victim evicted");
        // A fresh read by core 1 must come from the shared levels (no
        // stale directory entry pointing at core 0).
        assert_eq!(read(&mut h, 1, target, 8).1, vec![9; 8]);
        assert_eq!(h.l1_state(1, target), Some(Mesi::Exclusive));
    }

    #[test]
    fn single_core_behaves_like_flat_hierarchy() {
        let mut h = coh(1);
        let r = h.load(0, 0x4000, 1, 0, None);
        assert_eq!(r.latency, 4 + 2 + 7 + 27 + 300, "directory adds 2 cycles");
        let r = h.load(0, 0x4000, 1, 0, None);
        assert_eq!(r.latency, 4);
    }
}
