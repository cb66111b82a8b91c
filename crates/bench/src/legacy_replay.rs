//! **Frozen pre-overhaul replay path** — the measurement baseline for the
//! `replay` bench bin and the `BENCH_replay.json` perf trajectory.
//!
//! This module is a faithful copy of the simulator's replay path as it
//! stood *before* the trace-pack/hot-path overhaul (PR 3): a boxed
//! iterator chain feeding per-op calls that
//!
//! * allocate a fresh `Vec` per synthesized store payload,
//! * allocate a `Vec` per load for the returned bytes (twice: once in
//!   the line checker, once in the hierarchy result),
//! * check security bytes with per-byte loops instead of one AND against
//!   the bit vector, and
//! * keep true-LRU by rotating each cache set (`Vec::remove` + `insert`
//!   of line-sized entries) on every access.
//!
//! **Do not optimise this code** — its entire purpose is to stay
//! identical to the pre-overhaul hot path so speedups reported in
//! `BENCH_replay.json` measure the overhaul, not drift in the baseline.
//! Semantics (latencies, stats, exceptions) are unchanged between the
//! two paths; the `replay` bin asserts bit-identical outcomes before
//! reporting throughput.

use califorms_core::{
    fill, spill, AccessKind, CaliformsException, CformInstruction, CoreError, ExceptionKind,
    ExceptionMask, L1Line, L2Line,
};
use califorms_sim::cpu::MAX_RECORDED_EXCEPTIONS;
use califorms_sim::engine::store_pattern;
use califorms_sim::hierarchy::HierarchyConfig;
use califorms_sim::stats::{CacheStats, SimStats};
use califorms_sim::{line_base, line_offset, TraceOp, LINE_BYTES};
use std::collections::HashMap;

// --- pre-overhaul set-associative cache (rotation LRU) ----------------

struct LegacyEviction<V> {
    line_addr: u64,
    value: V,
    dirty: bool,
}

struct LegacyEntry<V> {
    tag: u64,
    dirty: bool,
    value: V,
}

/// The pre-overhaul cache: each set kept sorted by recency, a hit
/// rotates the entry to the front.
struct LegacyCache<V> {
    sets: Vec<Vec<LegacyEntry<V>>>,
    ways: usize,
    stats: CacheStats,
}

impl<V> LegacyCache<V> {
    fn new(size_bytes: usize, ways: usize) -> Self {
        let line = LINE_BYTES as usize;
        assert_eq!(size_bytes % (ways * line), 0);
        let set_count = size_bytes / (ways * line);
        assert!(set_count.is_power_of_two());
        Self {
            sets: (0..set_count).map(|_| Vec::with_capacity(ways)).collect(),
            ways,
            stats: CacheStats::default(),
        }
    }

    fn index(&self, line_addr: u64) -> (usize, u64) {
        let line_no = line_addr / LINE_BYTES;
        let set = (line_no as usize) & (self.sets.len() - 1);
        let tag = line_no / self.sets.len() as u64;
        (set, tag)
    }

    fn access(&mut self, line_addr: u64) -> Option<&mut V> {
        let (set_idx, tag) = self.index(line_addr);
        let set = &mut self.sets[set_idx];
        match set.iter().position(|e| e.tag == tag) {
            Some(pos) => {
                self.stats.hits += 1;
                let entry = set.remove(pos);
                set.insert(0, entry);
                Some(&mut set[0].value)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn access_uncounted(&mut self, line_addr: u64) -> Option<&mut V> {
        let (set_idx, tag) = self.index(line_addr);
        let set = &mut self.sets[set_idx];
        let pos = set.iter().position(|e| e.tag == tag)?;
        let entry = set.remove(pos);
        set.insert(0, entry);
        Some(&mut set[0].value)
    }

    fn mark_dirty(&mut self, line_addr: u64) {
        let (set_idx, tag) = self.index(line_addr);
        if let Some(e) = self.sets[set_idx].iter_mut().find(|e| e.tag == tag) {
            e.dirty = true;
        }
    }

    fn insert(&mut self, line_addr: u64, value: V, dirty: bool) -> Option<LegacyEviction<V>> {
        let (set_idx, tag) = self.index(line_addr);
        let ways = self.ways;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|e| e.tag == tag) {
            let mut entry = set.remove(pos);
            entry.value = value;
            entry.dirty = entry.dirty || dirty;
            set.insert(0, entry);
            return None;
        }
        let victim = if set.len() == ways {
            let victim = set.pop().expect("full set has a tail");
            self.stats.evictions += 1;
            if victim.dirty {
                self.stats.writebacks += 1;
            }
            let line_no = victim.tag * self.sets.len() as u64 + set_idx as u64;
            Some(LegacyEviction {
                line_addr: line_no * LINE_BYTES,
                value: victim.value,
                dirty: victim.dirty,
            })
        } else {
            None
        };
        self.sets[set_idx].insert(0, LegacyEntry { tag, dirty, value });
        victim
    }

    fn invalidate(&mut self, line_addr: u64) -> Option<(V, bool)> {
        let (set_idx, tag) = self.index(line_addr);
        let set = &mut self.sets[set_idx];
        set.iter().position(|e| e.tag == tag).map(|pos| {
            let e = set.remove(pos);
            (e.value, e.dirty)
        })
    }
}

// --- pre-overhaul per-byte line access --------------------------------

struct LegacyLoadResult {
    data: Vec<u8>,
    violating_bytes: u64,
}

/// The pre-overhaul `L1Line::load`: per-byte security check, per-byte
/// push into a fresh `Vec`.
fn legacy_line_load(l1: &L1Line, offset: usize, len: usize) -> LegacyLoadResult {
    let mut violating = 0u64;
    let mut data = Vec::with_capacity(len);
    for i in 0..len {
        let idx = offset + i;
        if l1.line().is_security_byte(idx) {
            violating |= 1 << i;
            data.push(0);
        } else {
            data.push(l1.line().read_byte(idx));
        }
    }
    LegacyLoadResult {
        data,
        violating_bytes: violating,
    }
}

/// The pre-overhaul `L1Line::store`: per-byte scan, per-byte write.
fn legacy_line_store(l1: &mut L1Line, offset: usize, bytes: &[u8]) -> Result<(), CoreError> {
    if let Some(bad) = (offset..offset + bytes.len()).find(|&i| l1.line().is_security_byte(i)) {
        return Err(CoreError::StoreToSecurityByte { index: bad });
    }
    for (i, &b) in bytes.iter().enumerate() {
        l1.line_mut()
            .write_byte(offset + i, b)
            .expect("checked above: no security bytes in range");
    }
    Ok(())
}

// --- pre-overhaul hierarchy -------------------------------------------

struct LegacyResult {
    latency: u32,
    exception: Option<CaliformsException>,
}

/// The pre-overhaul hierarchy: same geometry, latencies and conversion
/// hooks as `califorms_sim::Hierarchy`, with the pre-overhaul access
/// machinery (rotation-LRU caches, per-byte checks, allocating loads).
pub struct LegacyHierarchy {
    cfg: HierarchyConfig,
    l1d: LegacyCache<L1Line>,
    l2: LegacyCache<L2Line>,
    l3: LegacyCache<L2Line>,
    dram: HashMap<u64, L2Line>,
    dram_accesses: u64,
    spills: u64,
    fills: u64,
    prefetch_hits: u64,
    streams: [u64; 4],
    stream_cursor: usize,
}

impl LegacyHierarchy {
    fn new(cfg: HierarchyConfig) -> Self {
        Self {
            l1d: LegacyCache::new(cfg.l1d_size, cfg.l1d_ways),
            l2: LegacyCache::new(cfg.l2_size, cfg.l2_ways),
            l3: LegacyCache::new(cfg.l3_size, cfg.l3_ways),
            dram: HashMap::new(),
            dram_accesses: 0,
            spills: 0,
            fills: 0,
            prefetch_hits: 0,
            streams: [u64::MAX; 4],
            stream_cursor: 0,
            cfg,
        }
    }

    fn insert_l3(&mut self, line_addr: u64, line: L2Line, dirty: bool) {
        if let Some(ev) = self.l3.insert(line_addr, line, dirty) {
            if ev.dirty {
                self.dram.insert(ev.line_addr, ev.value);
            }
        }
    }

    fn insert_l2(&mut self, line_addr: u64, line: L2Line, dirty: bool) {
        if let Some(ev) = self.l2.insert(line_addr, line, dirty) {
            if ev.dirty {
                self.insert_l3(ev.line_addr, ev.value, true);
            }
        }
    }

    fn fetch_shared(&mut self, line_addr: u64) -> (L2Line, u32) {
        if let Some(line) = self.l2.access(line_addr) {
            return (*line, self.cfg.l2_latency + self.cfg.extra_l2_latency);
        }
        let l2_part = self.cfg.l2_latency + self.cfg.extra_l2_latency;
        if let Some(line) = self.l3.access(line_addr) {
            let line = *line;
            let latency = l2_part + self.cfg.l3_latency + self.cfg.extra_l3_latency;
            self.insert_l2(line_addr, line, false);
            return (line, latency);
        }
        let l3_part = self.cfg.l3_latency + self.cfg.extra_l3_latency;
        self.dram_accesses += 1;
        let line = self
            .dram
            .get(&line_addr)
            .copied()
            .unwrap_or(L2Line::plain([0; 64]));
        self.insert_l3(line_addr, line, false);
        self.insert_l2(line_addr, line, false);
        (line, l2_part + l3_part + self.cfg.dram_latency)
    }

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

    fn ensure_l1(&mut self, line_addr: u64) -> u32 {
        if self.l1d.access(line_addr).is_some() {
            return 0;
        }
        let prefetched = self.cfg.stream_prefetcher && self.stream_hit(line_addr);
        let (l2line, extra) = self.fetch_shared(line_addr);
        let extra = if prefetched {
            self.prefetch_hits += 1;
            extra.min(self.cfg.prefetch_residual)
        } else {
            extra
        };
        if l2line.califormed {
            self.fills += 1;
        }
        let l1line = fill(&l2line).expect("hierarchy lines are well-formed");
        if let Some(ev) = self.l1d.insert(line_addr, l1line, false) {
            if ev.dirty {
                let spilled = spill(&ev.value).expect("canonical lines always spill");
                if spilled.califormed {
                    self.spills += 1;
                }
                self.insert_l2(ev.line_addr, spilled, true);
            }
        }
        extra
    }

    fn l1_line_mut(&mut self, line_addr: u64) -> &mut L1Line {
        self.l1d
            .access_uncounted(line_addr)
            .expect("line was just ensured resident")
    }

    /// The pre-overhaul load: splits at line boundaries, per-byte checks,
    /// and materialises the loaded bytes in a fresh `Vec` (then discards
    /// them — the engine never looked at the data).
    fn load(&mut self, addr: u64, len: usize, pc: u64) -> LegacyResult {
        let mut latency = 0u32;
        let mut data = Vec::with_capacity(len);
        let mut exception = None;
        let mut cur = addr;
        let end = addr + len as u64;
        while cur < end {
            let line_addr = line_base(cur);
            let offset = line_offset(cur);
            let chunk = ((LINE_BYTES - offset as u64).min(end - cur)) as usize;
            let extra = self.ensure_l1(line_addr);
            latency = latency.max(self.cfg.l1d_latency + extra);
            let l1 = self.l1_line_mut(line_addr);
            let r = legacy_line_load(l1, offset, chunk);
            data.extend_from_slice(&r.data);
            if r.violating_bytes != 0 && exception.is_none() {
                let first = u64::from(r.violating_bytes.trailing_zeros());
                exception = Some(CaliformsException {
                    fault_addr: cur + first,
                    access: AccessKind::Load,
                    kind: ExceptionKind::SecurityByteAccess,
                    pc,
                });
            }
            cur += chunk as u64;
        }
        std::hint::black_box(&data);
        LegacyResult { latency, exception }
    }

    fn store(&mut self, addr: u64, bytes: &[u8], pc: u64) -> LegacyResult {
        let mut latency = 0u32;
        let mut exception = None;
        let mut cur = addr;
        let end = addr + bytes.len() as u64;
        let mut consumed = 0usize;
        while cur < end {
            let line_addr = line_base(cur);
            let offset = line_offset(cur);
            let chunk = ((LINE_BYTES - offset as u64).min(end - cur)) as usize;
            let extra = self.ensure_l1(line_addr);
            latency = latency.max(self.cfg.l1d_latency + extra);
            let l1 = self.l1_line_mut(line_addr);
            match legacy_line_store(l1, offset, &bytes[consumed..consumed + chunk]) {
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
        LegacyResult { latency, exception }
    }

    fn kmap_exception(e: CoreError, line_addr: u64, pc: u64) -> CaliformsException {
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

    fn cform(&mut self, insn: &CformInstruction, pc: u64) -> LegacyResult {
        let extra = self.ensure_l1(insn.line_addr);
        let latency = self.cfg.l1d_latency + extra;
        let l1 = self.l1_line_mut(insn.line_addr);
        let exception = match insn.execute(l1.line_mut()) {
            Ok(_) => {
                self.l1d.mark_dirty(insn.line_addr);
                None
            }
            Err(e) => Some(Self::kmap_exception(e, insn.line_addr, pc)),
        };
        LegacyResult { latency, exception }
    }

    fn cform_nt(&mut self, insn: &CformInstruction, pc: u64) -> LegacyResult {
        if let Some((l1line, dirty)) = self.l1d.invalidate(insn.line_addr) {
            if dirty {
                let spilled = spill(&l1line).expect("canonical lines always spill");
                if spilled.califormed {
                    self.spills += 1;
                }
                self.insert_l2(insn.line_addr, spilled, true);
            }
        }
        let (l2line, extra) = self.fetch_shared(insn.line_addr);
        let latency = self.cfg.l1d_latency + extra;
        let mut l1line = fill(&l2line).expect("hierarchy lines are well-formed");
        let exception = match insn.execute(l1line.line_mut()) {
            Ok(_) => {
                let spilled = spill(&l1line).expect("canonical lines always spill");
                self.insert_l2(insn.line_addr, spilled, true);
                None
            }
            Err(e) => Some(Self::kmap_exception(e, insn.line_addr, pc)),
        };
        LegacyResult { latency, exception }
    }

    fn export_stats(&self, stats: &mut SimStats) {
        stats.l1d = self.l1d.stats;
        stats.l2 = self.l2.stats;
        stats.l3 = self.l3.stats;
        stats.dram_accesses = self.dram_accesses;
        stats.spills = self.spills;
        stats.fills = self.fills;
    }
}

// --- pre-overhaul engine loop -----------------------------------------

/// Replays a trace through the frozen pre-overhaul path: a boxed
/// iterator feeding the legacy hierarchy, with the pre-overhaul engine's
/// cycle accounting, exception masking, and per-store `Vec` allocation.
/// Returns the same `(stats, exceptions)` the current engine produces —
/// the `replay` bin asserts they are bit-identical before reporting.
pub fn run_legacy(
    trace: Box<dyn Iterator<Item = TraceOp> + '_>,
) -> (SimStats, Vec<CaliformsException>) {
    let core = califorms_sim::CoreConfig::westmere();
    let mut hierarchy = LegacyHierarchy::new(HierarchyConfig::westmere());
    let mut mask = ExceptionMask::new();
    let l1_latency = hierarchy.cfg.l1d_latency;
    let (mut cycles, mut instructions) = (0.0f64, 0u64);
    let (mut loads, mut stores, mut cforms, mut stores_suppressed) = (0u64, 0u64, 0u64, 0u64);
    let mut exceptions: Vec<CaliformsException> = Vec::new();
    let mut pc = 0u64;
    for op in trace {
        pc += 1;
        instructions += op.instruction_count();
        let r = match op {
            TraceOp::Exec(n) => {
                cycles += core.exec_cycles(u64::from(n));
                continue;
            }
            TraceOp::MaskPush => {
                cycles += core.exec_cycles(1);
                mask.push_allow_all();
                continue;
            }
            TraceOp::MaskPop => {
                cycles += core.exec_cycles(1);
                mask.pop_window();
                continue;
            }
            TraceOp::Load { addr, size } => {
                loads += 1;
                hierarchy.load(addr, size as usize, pc)
            }
            TraceOp::Store { addr, size } => {
                stores += 1;
                // The pre-overhaul per-store heap allocation.
                let data = store_pattern(addr, size as usize);
                let r = hierarchy.store(addr, &data, pc);
                if r.exception.is_some() {
                    stores_suppressed += 1;
                }
                r
            }
            TraceOp::Cform {
                line_addr,
                attrs,
                mask: m,
            } => {
                cforms += 1;
                hierarchy.cform(&CformInstruction::new(line_addr, attrs, m), pc)
            }
            TraceOp::CformNt {
                line_addr,
                attrs,
                mask: m,
            } => {
                cforms += 1;
                hierarchy.cform_nt(&CformInstruction::new(line_addr, attrs, m), pc)
            }
        };
        cycles += core.exec_cycles(1) + core.memory_stall(r.latency, l1_latency);
        if let Some(exc) = r.exception {
            if let Some(delivered) = mask.filter(exc) {
                if exceptions.len() < MAX_RECORDED_EXCEPTIONS {
                    exceptions.push(delivered);
                }
            }
        }
    }
    let mut stats = SimStats {
        cycles,
        instructions,
        loads,
        stores,
        cforms,
        stores_suppressed,
        exceptions_delivered: mask.delivered_count(),
        exceptions_suppressed: mask.suppressed_count(),
        ..SimStats::default()
    };
    hierarchy.export_stats(&mut stats);
    (stats, exceptions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use califorms_sim::Engine;

    /// The frozen baseline must stay semantically identical to the
    /// current engine — otherwise the throughput comparison is
    /// meaningless.
    #[test]
    fn legacy_baseline_matches_current_engine() {
        let mut trace: Vec<TraceOp> = Vec::new();
        for i in 0..2_000u64 {
            trace.push(TraceOp::Store {
                addr: 0x1_0000 + (i * 56) % 8192,
                size: 8,
            });
            trace.push(TraceOp::Load {
                addr: 0x1_0000 + (i * 24) % 8192,
                size: 8,
            });
            if i % 64 == 0 {
                trace.push(TraceOp::Cform {
                    line_addr: 0x2_0000 + (i / 64) * 64,
                    attrs: 0x7F << 56,
                    mask: 0x7F << 56,
                });
                trace.push(TraceOp::Load {
                    addr: 0x2_0000 + (i / 64) * 64 + 60,
                    size: 1,
                }); // rogue
                trace.push(TraceOp::CformNt {
                    line_addr: 0x3_0000 + (i / 64) * 64,
                    attrs: 0x7F << 56,
                    mask: 0x7F << 56,
                });
            }
            trace.push(TraceOp::Exec(7));
        }
        let (legacy_stats, legacy_exc) = run_legacy(Box::new(trace.iter().copied()));
        let current = Engine::westmere().run(trace.iter().copied());
        assert_eq!(legacy_stats, current.stats);
        assert_eq!(legacy_exc, current.exceptions);
        assert!(current.stats.exceptions_delivered > 0);
    }
}
