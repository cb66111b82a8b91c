//! MESI directory coherence over per-core califormed L1 data caches.
//!
//! Multi-core layout of the Califorms hierarchy (DESIGN.md §7): every core
//! owns a private L1D holding lines in the *califorms-bitvector* format,
//! and all cores share the sentinel-format L2/L3/DRAM levels
//! ([`SharedLevels`]). A full-map directory (conceptually co-located with
//! the shared L2 tags) tracks, per line, which cores cache it and whether
//! one of them holds it exclusively.
//!
//! The protocol is MESI:
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

use crate::cache::SetAssocCache;
use crate::hierarchy::{
    kmap_exception, load_violation, HierarchyConfig, LevelBank, LineMap, MemResult, SharedLevels,
};
use crate::stats::{CacheStats, CoherenceStats, SimStats};
use crate::{line_base, line_offset, LINE_BYTES};
use califorms_core::{
    fill_canonical, range_mask, spill_canonical, AccessKind, CaliformsException, CformInstruction,
    CoreError, ExceptionKind, L1Line,
};

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

/// Full-map directory entry for one line.
#[derive(Debug, Clone, Copy, Default)]
struct DirEntry {
    /// Bit `c` set ⇒ core `c` has a copy.
    sharers: u64,
    /// `Some(c)` ⇒ core `c` holds the line in M or E (then
    /// `sharers == 1 << c`).
    owner: Option<usize>,
}

/// One core's private L1D with its MESI states — the per-core slice of the
/// L1 boundary.
///
/// This type owns everything a core may touch **without** synchronisation:
/// during the parallel phase of a quantum
/// ([`crate::multicore::MulticoreEngine`]) each worker thread holds `&mut`
/// to exactly one `CoreL1`, and the `try_*` methods below complete only
/// the accesses that need no directory transaction (hits with sufficient
/// MESI permission). Everything else returns `None` and is replayed
/// through [`CoherentHierarchy`] in the deterministic serial phase.
#[derive(Debug)]
pub struct CoreL1 {
    cache: SetAssocCache<CoherentLine>,
}

impl CoreL1 {
    fn new(cfg: &HierarchyConfig) -> Self {
        Self {
            cache: SetAssocCache::new(cfg.l1d_size, cfg.l1d_ways, cfg.l1d_latency),
        }
    }

    /// Hit/miss/eviction counters of this L1.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats
    }

    /// Lines currently resident (telemetry occupancy numerator).
    pub fn resident_lines(&self) -> usize {
        self.cache.resident_lines()
    }

    /// Line-slot capacity (telemetry occupancy denominator).
    pub fn capacity_lines(&self) -> usize {
        self.cache.capacity_lines()
    }

    /// Whether all lines covered by `[addr, addr + len)` are resident
    /// (`write` additionally requires M or E on each).
    fn servable_locally(&self, addr: u64, len: usize, write: bool) -> bool {
        let mut line_addr = line_base(addr);
        let end = addr + len as u64;
        while line_addr < end {
            match self.cache.peek(line_addr) {
                Some(e) if !write || e.state.writable() => {}
                _ => return false,
            }
            line_addr += LINE_BYTES;
        }
        true
    }

    /// A structurally empty stand-in left behind while the real L1 is
    /// lent to a bound-phase worker. Never accessed.
    pub(crate) fn detached() -> Self {
        Self {
            cache: SetAssocCache::detached(),
        }
    }

    /// Completes a load entirely within this L1 **without materialising
    /// the data** — the replay hot path only needs latency and exception.
    /// Returns `None` if any covered line is absent.
    ///
    /// Single-line accesses (the trace-pack common case) take a one-scan
    /// fast path: probe once, count the hit only if the access completes
    /// locally, one bit-vector AND for the security check.
    pub fn try_load_quiet(&mut self, addr: u64, len: usize, pc: u64) -> Option<MemResult> {
        let offset = line_offset(addr);
        if len != 0 && offset + len <= LINE_BYTES as usize {
            let line_addr = line_base(addr);
            let latency = self.cache.latency;
            let hit = self.cache.probe_entry(line_addr)?;
            let bv = hit.value.line.bitvector();
            self.cache.stats.hits += 1;
            return Some(MemResult::quiet(
                latency,
                load_violation(bv & range_mask(offset, len), line_addr, pc),
            ));
        }
        if !self.servable_locally(addr, len, false) {
            return None;
        }
        let latency = self.cache.latency;
        let mut exception = None;
        let mut cur = addr;
        let end = addr + len as u64;
        while cur < end {
            let line_addr = line_base(cur);
            let offset = line_offset(cur);
            let chunk = ((LINE_BYTES - offset as u64).min(end - cur)) as usize;
            // analyze::allow(hot-path-unwrap): residency checked by the enclosing probe
            let e = self.cache.access(line_addr).expect("checked resident");
            let bv = e.line.bitvector();
            if exception.is_none() {
                exception = load_violation(bv & range_mask(offset, chunk), line_addr, pc);
            }
            cur += chunk as u64;
        }
        Some(MemResult::quiet(latency, exception))
    }

    /// Completes a store entirely within this L1, or returns `None` if any
    /// covered line is absent or lacks write permission.
    ///
    /// Single-line stores take a one-scan fast path: probe once, check
    /// MESI write permission, write and mark dirty through the same
    /// entry handle.
    pub fn try_store(&mut self, addr: u64, bytes: &[u8], pc: u64) -> Option<MemResult> {
        let offset = line_offset(addr);
        if !bytes.is_empty() && offset + bytes.len() <= LINE_BYTES as usize {
            let line_addr = line_base(addr);
            let latency = self.cache.latency;
            let hit = self.cache.probe_entry(line_addr)?;
            if !hit.value.state.writable() {
                // S-state store: the upgrade (and its hit count) belongs
                // to whichever phase runs the directory transaction.
                return None;
            }
            let exception = match hit.value.line.store(offset, bytes) {
                Ok(()) => {
                    hit.value.state = Mesi::Modified; // silent E→M
                    *hit.dirty = true;
                    None
                }
                Err(CoreError::StoreToSecurityByte { index }) => Some(CaliformsException {
                    fault_addr: line_addr + index as u64,
                    access: AccessKind::Store,
                    kind: ExceptionKind::SecurityByteAccess,
                    pc,
                }),
                Err(other) => unreachable!("store can only fault on security bytes: {other}"),
            };
            self.cache.stats.hits += 1;
            return Some(MemResult::quiet(latency, exception));
        }
        if !self.servable_locally(addr, bytes.len(), true) {
            return None;
        }
        let latency = self.cache.latency;
        let mut exception = None;
        let mut cur = addr;
        let end = addr + bytes.len() as u64;
        let mut consumed = 0usize;
        while cur < end {
            let line_addr = line_base(cur);
            let offset = line_offset(cur);
            let chunk = ((LINE_BYTES - offset as u64).min(end - cur)) as usize;
            // analyze::allow(hot-path-unwrap): residency checked by the enclosing probe
            let e = self.cache.access(line_addr).expect("checked resident");
            match e.line.store(offset, &bytes[consumed..consumed + chunk]) {
                Ok(()) => {
                    e.state = Mesi::Modified; // silent E→M
                    self.cache.mark_dirty(line_addr);
                }
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
        Some(MemResult::quiet(latency, exception))
    }

    /// Completes a `CFORM` entirely within this L1 (the line must be held
    /// M or E), or returns `None`. One probe scan, like the store path.
    pub fn try_cform(&mut self, insn: &CformInstruction, pc: u64) -> Option<MemResult> {
        let latency = self.cache.latency;
        let hit = self.cache.probe_entry(insn.line_addr)?;
        if !hit.value.state.writable() {
            return None;
        }
        let exception = match insn.execute(hit.value.line.line_mut()) {
            Ok(_) => {
                hit.value.state = Mesi::Modified;
                *hit.dirty = true;
                None
            }
            Err(err) => Some(kmap_exception(err, insn.line_addr, pc)),
        };
        self.cache.stats.hits += 1;
        Some(MemResult::quiet(latency, exception))
    }
}

/// Per-bank coherence-side state: the directory shard covering one
/// [`LevelBank`]'s lines, plus the counters whose events are attributable
/// to a single bank (and may therefore be bumped by a bound-phase worker
/// that owns the bank, without any synchronisation).
#[derive(Debug, Default)]
pub(crate) struct BankExt {
    /// Directory shard: full-map entries for this bank's lines.
    dir: LineMap<DirEntry>,
    /// Directory consultations against this shard.
    lookups: u64,
    /// S→M upgrades resolved through this shard.
    upgrades: u64,
    /// L1→L2 spill conversions of califormed lines into this bank.
    spills: u64,
    /// L2→L1 fill conversions of califormed lines out of this bank.
    fills: u64,
    /// Weave transactions whose line lives in this shard.
    weave_transactions: u64,
    /// Of those, transactions that rode an earlier transaction's turn.
    weave_batched: u64,
    /// Of those, transactions that involved another core.
    weave_contended: u64,
}

/// Public snapshot of one directory shard's counters — the per-shard
/// telemetry lanes ([`CoherentHierarchy::coherence_totals`] sums the
/// lookup/upgrade columns away; the weave split used to be one global
/// total in [`crate::runtime::RuntimeStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirectoryShardStats {
    /// Directory consultations against this shard.
    pub lookups: u64,
    /// S→M upgrades resolved through this shard.
    pub upgrades: u64,
    /// L1→L2 spill conversions of califormed lines into this shard's bank.
    pub spills: u64,
    /// L2→L1 fill conversions of califormed lines out of this shard's bank.
    pub fills: u64,
    /// Weave transactions whose line lives in this shard.
    pub weave_transactions: u64,
    /// Of those, transactions that rode an earlier transaction's turn.
    pub weave_batched: u64,
    /// Of those, transactions that involved another core.
    pub weave_contended: u64,
}

/// The multi-core hierarchy: N per-core L1Ds kept coherent by a MESI
/// directory over the shared sentinel-format L2/L3/DRAM. The shared
/// levels and the directory are sharded into banks (see [`LevelBank`])
/// so the bound phase of [`crate::multicore::MulticoreEngine`] can lend
/// each worker exclusive ownership of a slice.
#[derive(Debug)]
pub struct CoherentHierarchy {
    cfg: HierarchyConfig,
    ccfg: CoherenceConfig,
    l1s: Vec<CoreL1>,
    shared: SharedLevels,
    /// Per-bank directory shards + bank-attributable counters.
    exts: Vec<BankExt>,
    /// Cross-core coherence-traffic counters (weave-phase only; the
    /// per-bank `lookups`/`upgrades`/`spills`/`fills` are merged in by
    /// [`Self::coherence_totals`]).
    coherence: CoherenceStats,
}

/// Largest bank count the coherent hierarchy shards into.
const MAX_BANKS: usize = 8;

/// Largest power-of-two divisor of `n` (1 for odd `n`).
fn pow2_divisor(n: usize) -> usize {
    if n == 0 {
        1
    } else {
        1 << n.trailing_zeros()
    }
}

/// Bank count for a configuration: the largest power of two ≤
/// [`MAX_BANKS`] **dividing** the L1, L2 and L3 set counts (for the
/// power-of-two set counts `SetAssocCache` enforces this is just their
/// minimum, capped). Dividing the **L1** set count is what guarantees
/// an L1 victim always lives in the same bank as the line that evicted
/// it (same L1 set ⇒ same line index modulo the bank count), so a
/// private-miss transaction never has to touch a foreign bank to
/// retire a victim.
fn bank_count(cfg: &HierarchyConfig) -> usize {
    let line = LINE_BYTES as usize;
    let l1_sets = cfg.l1d_size / (cfg.l1d_ways * line);
    let l2_sets = cfg.l2_size / (cfg.l2_ways * line);
    let l3_sets = cfg.l3_size / (cfg.l3_ways * line);
    MAX_BANKS
        .min(pow2_divisor(l1_sets))
        .min(pow2_divisor(l2_sets))
        .min(pow2_divisor(l3_sets))
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
        let banks = bank_count(&cfg);
        Self {
            l1s: (0..cores).map(|_| CoreL1::new(&cfg)).collect(),
            shared: SharedLevels::banked(cfg, banks),
            exts: (0..banks).map(|_| BankExt::default()).collect(),
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

    /// Mutable access to the per-core L1 slices — the multicore engine
    /// hands each worker thread exactly one during the parallel phase.
    pub fn l1s_mut(&mut self) -> &mut [CoreL1] {
        &mut self.l1s
    }

    /// Read-only view of the per-core L1 slices.
    pub fn l1s(&self) -> &[CoreL1] {
        &self.l1s
    }

    /// Mutable access to one core's L1.
    pub fn l1_mut(&mut self, c: usize) -> &mut CoreL1 {
        &mut self.l1s[c]
    }

    /// Lends core `c`'s L1 out for a bound phase, leaving a detached
    /// stand-in; pair with [`Self::put_l1`].
    pub(crate) fn take_l1(&mut self, c: usize) -> CoreL1 {
        std::mem::replace(&mut self.l1s[c], CoreL1::detached())
    }

    /// Returns a lent L1.
    pub(crate) fn put_l1(&mut self, c: usize, l1: CoreL1) {
        self.l1s[c] = l1;
    }

    /// L1→L2 spill conversions of califormed lines (all cores, all banks).
    pub fn spills(&self) -> u64 {
        self.exts.iter().map(|e| e.spills).sum()
    }

    /// L2→L1 fill conversions of califormed lines (all cores, all banks).
    pub fn fills(&self) -> u64 {
        self.exts.iter().map(|e| e.fills).sum()
    }

    /// The full coherence-traffic counters: the weave-phase cross-core
    /// events plus the per-bank directory lookup and upgrade counts.
    pub fn coherence_totals(&self) -> CoherenceStats {
        let mut c = self.coherence;
        c.directory_lookups += self.exts.iter().map(|e| e.lookups).sum::<u64>();
        c.upgrades_s_to_m += self.exts.iter().map(|e| e.upgrades).sum::<u64>();
        c
    }

    /// Monotonic count of coherence events that involved more than one
    /// core (invalidations + cache-to-cache transfers). The weave uses
    /// deltas of this to detect whether a transaction was contended —
    /// purely simulated state.
    pub(crate) fn cross_core_events(&self) -> u64 {
        self.coherence.invalidations + self.coherence.cache_to_cache_transfers
    }

    /// Attributes one weave transaction on `line_addr` to the directory
    /// shard holding the line (called by the weave after each committed
    /// transaction; purely simulated state, so the split is
    /// deterministic).
    pub(crate) fn note_weave_txn(&mut self, line_addr: u64, batched: bool, contended: bool) {
        let ext = &mut self.exts[self.shared.bank_of(line_addr)];
        ext.weave_transactions += 1;
        ext.weave_batched += u64::from(batched);
        ext.weave_contended += u64::from(contended);
    }

    /// Per-shard directory counters (telemetry and the weave breakdown).
    pub fn shard_stats(&self) -> Vec<DirectoryShardStats> {
        self.exts
            .iter()
            .map(|e| DirectoryShardStats {
                lookups: e.lookups,
                upgrades: e.upgrades,
                spills: e.spills,
                fills: e.fills,
                weave_transactions: e.weave_transactions,
                weave_batched: e.weave_batched,
                weave_contended: e.weave_contended,
            })
            .collect()
    }

    /// Per-bank shared-level counters (delegates to
    /// [`SharedLevels::bank_stats`]).
    pub fn bank_level_stats(&self) -> Vec<crate::hierarchy::BankLevelStats> {
        self.shared.bank_stats()
    }

    /// Spills `line` back into `bank` (running the real
    /// bitvector→sentinel conversion). `dirty` decides whether the L2
    /// copy is marked dirty.
    fn writeback_into(
        bank: &mut LevelBank,
        ext: &mut BankExt,
        line_addr: u64,
        line: &L1Line,
        dirty: bool,
    ) {
        let spilled = spill_canonical(line);
        if spilled.califormed {
            ext.spills += 1;
        }
        bank.insert_l2(line_addr, spilled, dirty);
    }

    /// Removes core `c` from a victim line's directory entry (L1 capacity
    /// eviction), writing a dirty victim back through the spill path. The
    /// caller supplies the victim's own bank. One hash operation in the
    /// common case (sole resident core evicts → entry removed); the entry
    /// is reinserted only when other cores still share the line.
    fn retire_victim(
        bank: &mut LevelBank,
        ext: &mut BankExt,
        c: usize,
        line_addr: u64,
        victim: CoherentLine,
        dirty: bool,
    ) {
        let mut entry = ext
            .dir
            .remove(&line_addr)
            // analyze::allow(hot-path-unwrap): coherence invariant: every resident line has a directory entry
            .expect("resident lines are in the directory");
        entry.sharers &= !(1u64 << c);
        if entry.sharers != 0 {
            if entry.owner == Some(c) {
                entry.owner = None;
            }
            ext.dir.insert(line_addr, entry);
        }
        if dirty {
            Self::writeback_into(bank, ext, line_addr, &victim.line, true);
        }
    }

    /// The MESI state machine: makes `line_addr` resident in core `c`'s
    /// L1 with read (`write == false`) or write permission, returning the
    /// latency beyond the L1 hit latency.
    fn ensure_state(&mut self, c: usize, line_addr: u64, write: bool) -> u32 {
        let b = self.shared.bank_of(line_addr);
        // Fast path: already resident with sufficient permission.
        if let Some(e) = self.l1s[c].cache.access(line_addr) {
            match (e.state, write) {
                (_, false) | (Mesi::Modified, true) | (Mesi::Exclusive, true) => return 0,
                (Mesi::Shared, true) => {
                    // S→M upgrade: invalidate every other sharer.
                    let ext = &mut self.exts[b];
                    ext.lookups += 1;
                    ext.upgrades += 1;
                    let entry = ext
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
                        for o in 0..self.l1s.len() {
                            if others >> o & 1 == 1 {
                                // Shared copies are clean: drop silently.
                                self.l1s[o].cache.invalidate(line_addr);
                                self.coherence.invalidations += 1;
                            }
                        }
                    }
                    let e = self.l1s[c]
                        .cache
                        .peek_mut(line_addr)
                        // analyze::allow(hot-path-unwrap): the line was pinned resident earlier in this transaction
                        .expect("still resident");
                    e.state = Mesi::Modified;
                    return latency;
                }
            }
        }

        // Miss: consult the directory shard (one hash op for the whole
        // transaction — the entry is created and updated in place).
        self.exts[b].lookups += 1;
        let entry = self.exts[b].dir.entry(line_addr).or_default();
        let remote_owner = entry.owner.filter(|&o| o != c);
        let remote_sharers = entry.sharers & !(1u64 << c);

        if remote_owner.is_none() && remote_sharers == 0 {
            // No other core involved: the transaction touches only this
            // core's L1 and the line's own bank — the private case the
            // weave batches.
            entry.sharers = 1 << c;
            entry.owner = Some(c);
            let state = if write {
                Mesi::Modified
            } else {
                Mesi::Exclusive
            };
            let mut latency = self.ccfg.directory_latency;
            let bank = self.shared.bank_mut(line_addr);
            let (l2line, fetch_latency) = bank.fetch(line_addr);
            latency += fetch_latency;
            let ext = &mut self.exts[b];
            if l2line.califormed {
                ext.fills += 1;
            }
            let l1line = fill_canonical(&l2line);
            if let Some(victim) = self.l1s[c].cache.insert(
                line_addr,
                CoherentLine {
                    line: l1line,
                    state,
                },
                false,
            ) {
                // NB divides the L1 set count, so the victim (same L1
                // set) provably lives in the same bank as the line.
                Self::retire_victim(bank, ext, c, victim.line_addr, victim.value, victim.dirty);
            }
            return latency;
        }

        let mut latency = self.ccfg.directory_latency;
        let l2line = if let Some(o) = remote_owner {
            // Cache-to-cache: recall the line from the remote owner's L1.
            // The spill conversion runs in the source L1 either way; on a
            // read the owner keeps a Shared copy, on a write it is
            // invalidated.
            latency += self.ccfg.cache_to_cache_latency;
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
            let spilled = spill_canonical(&owner_line);
            if spilled.califormed {
                self.exts[b].spills += 1;
                self.coherence.califormed_transfers += 1;
            }
            self.shared.insert_l2(line_addr, spilled, owner_dirty);
            spilled
        } else {
            if write {
                // Write to a line shared (clean) by others: invalidate.
                latency += self.ccfg.upgrade_latency;
                for o in 0..self.l1s.len() {
                    if remote_sharers >> o & 1 == 1 {
                        self.l1s[o].cache.invalidate(line_addr);
                        self.coherence.invalidations += 1;
                    }
                }
            }
            let (line, fetch_latency) = self.shared.fetch(line_addr);
            latency += fetch_latency;
            line
        };

        if l2line.califormed {
            self.exts[b].fills += 1;
        }
        let l1line = fill_canonical(&l2line);
        let entry = self.exts[b].dir.entry(line_addr).or_default();
        let state = if write {
            entry.sharers = 1 << c;
            entry.owner = Some(c);
            Mesi::Modified
        } else {
            entry.sharers |= 1 << c;
            entry.owner = None;
            Mesi::Shared
        };
        if let Some(victim) = self.l1s[c].cache.insert(
            line_addr,
            CoherentLine {
                line: l1line,
                state,
            },
            false,
        ) {
            let vb = self.shared.bank_of(victim.line_addr);
            Self::retire_victim(
                self.shared.bank_mut(victim.line_addr),
                &mut self.exts[vb],
                c,
                victim.line_addr,
                victim.value,
                victim.dirty,
            );
        }
        latency
    }

    fn l1_line_mut(&mut self, c: usize, line_addr: u64) -> &mut CoherentLine {
        // `ensure_state` has run and already counted the access.
        self.l1s[c]
            .cache
            .access_uncounted(line_addr)
            // analyze::allow(hot-path-unwrap): ensure_resident on the line above pinned it
            .expect("line was just ensured resident")
    }

    /// Performs a load by core `c` **without materialising the data** —
    /// the replay hot path only needs latency and exception. Timing, LRU,
    /// stats and exception behaviour are identical to [`Self::load`].
    pub fn load_quiet(&mut self, c: usize, addr: u64, len: usize, pc: u64) -> MemResult {
        let mut latency = 0u32;
        let mut exception = None;
        let mut cur = addr;
        let end = addr + len as u64;
        while cur < end {
            let line_addr = line_base(cur);
            let offset = line_offset(cur);
            let chunk = ((LINE_BYTES - offset as u64).min(end - cur)) as usize;
            let extra = self.ensure_state(c, line_addr, false);
            latency = latency.max(self.cfg.l1d_latency + extra);
            let bv = self.l1_line_mut(c, line_addr).line.bitvector();
            if exception.is_none() {
                exception = load_violation(bv & range_mask(offset, chunk), line_addr, pc);
            }
            cur += chunk as u64;
        }
        MemResult::quiet(latency, exception)
    }

    /// Performs a load by core `c` (line-crossing loads are split).
    pub fn load(&mut self, c: usize, addr: u64, len: usize, pc: u64) -> MemResult {
        let mut latency = 0u32;
        let mut data = Vec::with_capacity(len);
        let mut exception = None;
        let mut cur = addr;
        let end = addr + len as u64;
        while cur < end {
            let line_addr = line_base(cur);
            let offset = line_offset(cur);
            let chunk = ((LINE_BYTES - offset as u64).min(end - cur)) as usize;
            let extra = self.ensure_state(c, line_addr, false);
            latency = latency.max(self.cfg.l1d_latency + extra);
            let e = self.l1_line_mut(c, line_addr);
            let r = e.line.load(offset, chunk);
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

    /// Performs a store by core `c`; on a security-byte violation the
    /// store to that line is suppressed and the exception reported.
    pub fn store(&mut self, c: usize, addr: u64, bytes: &[u8], pc: u64) -> MemResult {
        let mut latency = 0u32;
        let mut exception = None;
        let mut cur = addr;
        let end = addr + bytes.len() as u64;
        let mut consumed = 0usize;
        while cur < end {
            let line_addr = line_base(cur);
            let offset = line_offset(cur);
            let chunk = ((LINE_BYTES - offset as u64).min(end - cur)) as usize;
            let extra = self.ensure_state(c, line_addr, true);
            latency = latency.max(self.cfg.l1d_latency + extra);
            let e = self.l1_line_mut(c, line_addr);
            match e.line.store(offset, &bytes[consumed..consumed + chunk]) {
                Ok(()) => {
                    e.state = Mesi::Modified;
                    self.l1s[c].cache.mark_dirty(line_addr);
                }
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

    /// Executes a `CFORM` by core `c` (write-allocate: the line is pulled
    /// into the core's L1 in M state first, like a store).
    pub fn cform(&mut self, c: usize, insn: &CformInstruction, pc: u64) -> MemResult {
        let extra = self.ensure_state(c, insn.line_addr, true);
        let latency = self.cfg.l1d_latency + extra;
        let e = self.l1_line_mut(c, insn.line_addr);
        let exception = match insn.execute(e.line.line_mut()) {
            Ok(_) => {
                e.state = Mesi::Modified;
                self.l1s[c].cache.mark_dirty(insn.line_addr);
                None
            }
            Err(err) => Some(kmap_exception(err, insn.line_addr, pc)),
        };
        MemResult::quiet(latency, exception)
    }

    /// Executes a **non-temporal** `CFORM` by core `c`: every L1 copy is
    /// recalled/invalidated (write-back through the spill conversion where
    /// dirty) and the line is updated in place at the shared L2 without
    /// re-entering any L1.
    /// (`_c` identifies the requesting core for API symmetry; the NT
    /// variant never allocates into any L1, so it does not use it.)
    pub fn cform_nt(&mut self, _c: usize, insn: &CformInstruction, pc: u64) -> MemResult {
        let line_addr = insn.line_addr;
        let b = self.shared.bank_of(line_addr);
        self.exts[b].lookups += 1;
        let mut latency = self.ccfg.directory_latency;
        if let Some(entry) = self.exts[b].dir.remove(&line_addr) {
            for o in 0..self.l1s.len() {
                if entry.sharers >> o & 1 == 1 {
                    if let Some((victim, dirty)) = self.l1s[o].cache.invalidate(line_addr) {
                        self.coherence.invalidations += 1;
                        if dirty {
                            Self::writeback_into(
                                self.shared.bank_mut(line_addr),
                                &mut self.exts[b],
                                line_addr,
                                &victim.line,
                                true,
                            );
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
            Err(err) => Some(kmap_exception(err, line_addr, pc)),
        };
        MemResult::quiet(self.cfg.l1d_latency + latency, exception)
    }

    /// Functional view of the line holding `addr`: the authoritative copy
    /// is the owning core's L1 if any, then any Shared L1 copy, then the
    /// shared levels. No timing, LRU or counter effects.
    fn peek_line(&self, addr: u64) -> L1Line {
        let line_addr = line_base(addr);
        if let Some(entry) = self.exts[self.shared.bank_of(line_addr)]
            .dir
            .get(&line_addr)
        {
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
        stats.spills = self.spills();
        stats.fills = self.fills();
        stats.coherence = self.coherence_totals();
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

fn put_coherent_line(w: &mut ck::Wr, line: &CoherentLine) {
    ck::put_l1_line(w, &line.line);
    w.u8(mesi_tag(line.state));
}

fn get_coherent_line(r: &mut ck::Rd<'_>) -> ck::Result<CoherentLine> {
    let line = ck::get_l1_line(r)?;
    let state = match r.u8()? {
        0 => Mesi::Modified,
        1 => Mesi::Exclusive,
        2 => Mesi::Shared,
        _ => return Err(CheckpointError::Corrupt("unknown MESI state tag")),
    };
    Ok(CoherentLine { line, state })
}

impl BankExt {
    fn save_state(&self, w: &mut ck::Wr) {
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
        w.u64(self.lookups);
        w.u64(self.upgrades);
        w.u64(self.spills);
        w.u64(self.fills);
        w.u64(self.weave_transactions);
        w.u64(self.weave_batched);
        w.u64(self.weave_contended);
    }

    fn restore_state(r: &mut ck::Rd<'_>, cores: usize) -> ck::Result<Self> {
        let n = r.count()?;
        let mut dir = LineMap::default();
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
            dir.insert(addr, DirEntry { sharers, owner });
        }
        Ok(Self {
            dir,
            lookups: r.u64()?,
            upgrades: r.u64()?,
            spills: r.u64()?,
            fills: r.u64()?,
            weave_transactions: r.u64()?,
            weave_batched: r.u64()?,
            weave_contended: r.u64()?,
        })
    }
}

impl CoherentHierarchy {
    /// Serializes the full mutable coherent-machine state (the
    /// `SEC_COHERENT` payload): per-core L1s with their MESI states, the
    /// shared levels, every directory shard, and the coherence counters.
    /// The configuration travels separately in `SEC_CONFIG`.
    pub(crate) fn save_state(&self, w: &mut ck::Wr) {
        w.u64(self.l1s.len() as u64);
        for l1 in &self.l1s {
            ck::put_cache(w, &l1.cache, put_coherent_line);
        }
        self.shared.save_state(w);
        w.u64(self.exts.len() as u64);
        for ext in &self.exts {
            ext.save_state(w);
        }
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
        if r.count()? != h.exts.len() {
            return Err(CheckpointError::ConfigMismatch("directory shard count"));
        }
        for ext in &mut h.exts {
            *ext = BankExt::restore_state(r, cores)?;
        }
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

    #[test]
    fn first_reader_gets_exclusive_second_demotes_to_shared() {
        let mut h = coh(2);
        h.store(0, 0x1000, &[1, 2, 3, 4], 0);
        assert_eq!(h.l1_state(0, 0x1000), Some(Mesi::Modified));
        let r = h.load(1, 0x1000, 4, 1);
        assert_eq!(r.data, vec![1, 2, 3, 4], "dirty data travels core-to-core");
        assert_eq!(h.l1_state(0, 0x1000), Some(Mesi::Shared));
        assert_eq!(h.l1_state(1, 0x1000), Some(Mesi::Shared));
        assert_eq!(h.coherence_totals().cache_to_cache_transfers, 1);
    }

    #[test]
    fn cold_read_is_exclusive_and_silently_upgrades() {
        let mut h = coh(2);
        h.load(0, 0x2000, 8, 0);
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
            h.load(c, 0x3000, 8, 0);
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
        assert_eq!(h.load(1, 0x4000, 8, 2).data, vec![2; 8]);
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
        let r = h.load(1, 0x5000, 8, 2);
        assert!(r.exception.is_none());
        assert_eq!(r.data, vec![5; 8]);
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
        let r = h.load(1, 0x6000 + 21, 1, 7);
        let exc = r.exception.expect("probe must trap");
        assert_eq!(exc.fault_addr, 0x6015);
        assert_eq!(exc.access, AccessKind::Load);
        assert_eq!(r.data, vec![0], "security byte reads zero on the far core");
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
        h.load(0, 0x8000, 8, 0); // E in core 0
        let l1 = &mut h.l1s_mut()[0];
        assert!(l1.try_load_quiet(0x8000, 8, 1).is_some());
        assert!(l1.try_store(0x8000, &[1], 2).is_some(), "E is writable");
        assert!(l1.try_load_quiet(0x9000, 8, 3).is_none(), "miss defers");
        // Demote to Shared via a second reader; local store must defer.
        h.load(1, 0x8000, 8, 4);
        let l1 = &mut h.l1s_mut()[0];
        assert!(l1.try_load_quiet(0x8000, 8, 5).is_some());
        assert!(l1.try_store(0x8000, &[2], 6).is_none(), "S is not writable");
    }

    #[test]
    fn nt_cform_invalidates_every_copy_and_hits_below() {
        let mut h = coh(3);
        h.store(0, 0xA000, &[3; 8], 0);
        h.load(1, 0xA000, 8, 1);
        h.load(2, 0xA000, 8, 2);
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
            h.load(0, target + i * 4096, 8, 0);
        }
        assert_eq!(h.l1_state(0, target), None, "victim evicted");
        // A fresh read by core 1 must come from the shared levels (no
        // stale directory entry pointing at core 0).
        let r = h.load(1, target, 8, 1);
        assert_eq!(r.data, vec![9; 8]);
        assert_eq!(h.l1_state(1, target), Some(Mesi::Exclusive));
    }

    #[test]
    fn single_core_behaves_like_flat_hierarchy() {
        let mut h = coh(1);
        let r = h.load(0, 0x4000, 1, 0);
        assert_eq!(r.latency, 4 + 2 + 7 + 27 + 300, "directory adds 2 cycles");
        let r = h.load(0, 0x4000, 1, 0);
        assert_eq!(r.latency, 4);
    }
}
