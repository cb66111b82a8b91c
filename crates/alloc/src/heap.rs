//! The clean-before-use, quarantining heap allocator model.

use califorms_core::LineMap;
use califorms_layout::califormed::{CaliformedLayout, CformOp};
use califorms_sim::TraceOp;
use std::collections::VecDeque;

/// What `free` califorms (Section 6.1 vs the Section 8.2 measurement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FreeMode {
    /// Clean-before-use as designed: the whole freed block is califormed
    /// and zeroed (full temporal safety; what the security evaluation
    /// uses).
    #[default]
    FullObject,
    /// Only the object's security-span lines are re-califormed — the
    /// paper's *measured* emulation ("one dummy store instruction per
    /// to-be-califormed cache line", Section 8.2), which the performance
    /// figures are calibrated against.
    SpanOnly,
}

/// Allocator behaviour knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocatorConfig {
    /// Whether to emit `CFORM` instructions at all. Disabled for the
    /// "no-CFORM" reference series of Figures 11/12 (padding present, no
    /// security, isolating the cache-underutilisation component).
    pub emit_cforms: bool,
    /// What deallocation califorms.
    pub free_mode: FreeMode,
    /// Bookkeeping instructions charged per `malloc`/`free` call
    /// (size-class lookup, free-list manipulation).
    pub alloc_bookkeeping_insns: u32,
    /// Instructions charged to compute each `CFORM`'s address and masks
    /// from type-layout information (the LLVM hook of Section 8.2).
    pub cform_setup_insns: u32,
    /// Fixed per-call instrumentation cost (the allocation/deallocation
    /// hook: retrieving type information, dispatch) charged on `malloc`
    /// and `free` of a type that carries at least one security span.
    /// Types without spans are not instrumented at all — the compile-time
    /// selectivity that makes the intelligent policy's Figure 12 bill so
    /// small.
    pub instrumented_call_insns: u32,
    /// Use the non-temporal `CFORM` variant on deallocation (paper
    /// footnote 3): freed lines are califormed below the L1 instead of
    /// being pulled in, avoiding pollution by dead data.
    pub nt_cform_on_free: bool,
    /// Quarantine capacity in bytes: freed blocks are not reused until the
    /// quarantine exceeds this size (temporal safety window).
    pub quarantine_bytes: usize,
    /// Block alignment (x86-64 malloc guarantees 16).
    pub align: usize,
}

impl Default for AllocatorConfig {
    fn default() -> Self {
        Self {
            emit_cforms: true,
            free_mode: FreeMode::FullObject,
            alloc_bookkeeping_insns: 24,
            cform_setup_insns: 10,
            instrumented_call_insns: 32,
            nt_cform_on_free: false,
            quarantine_bytes: 1 << 20,
            align: 16,
        }
    }
}

/// Heap statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// `malloc` calls served.
    pub allocs: u64,
    /// `free` calls served.
    pub frees: u64,
    /// `CFORM` trace operations emitted.
    pub cform_ops: u64,
    /// Blocks recycled from the free list (vs fresh bump allocations).
    pub recycled: u64,
    /// Current bytes held in quarantine.
    pub quarantined_bytes: usize,
    /// High-water mark of the bump pointer (fresh heap consumed).
    pub heap_consumed: usize,
}

#[derive(Debug, Clone, Copy)]
struct FreeBlock {
    addr: u64,
    size: usize,
    /// Whether the block's bytes are currently all security bytes
    /// (recycled blocks are; fresh memory is not).
    califormed: bool,
}

#[derive(Debug, Clone)]
struct LiveAllocation {
    size: usize,
    /// Span mask per line, as issued at allocation (needed to free).
    layout_spans: Vec<CformOp>,
}

/// The model heap allocator.
///
/// Addresses are virtual: the heap hands out ranges from `[base, …)` and
/// emits the trace operations that make the simulated hierarchy reflect
/// each transition. Running those ops through
/// [`califorms_sim::Engine`] is what actually changes memory state.
#[derive(Debug)]
pub struct CaliformsHeap {
    cfg: AllocatorConfig,
    base: u64,
    bump: u64,
    free_list: Vec<FreeBlock>,
    quarantine: VecDeque<FreeBlock>,
    /// Bytes held in `quarantine`, kept as blocks enter and leave it so a
    /// `free` never re-sums the whole quarantine.
    quarantined: usize,
    // Keyed by block base address; a `LineMap` (deterministic hasher) so
    // no future iteration over live allocations can leak per-process
    // RandomState order into emitted trace ops (DESIGN.md §12).
    live: LineMap<LiveAllocation>,
    stats: HeapStats,
}

impl CaliformsHeap {
    /// Creates a heap starting at `base` (must be line-aligned).
    pub fn new(base: u64, cfg: AllocatorConfig) -> Self {
        assert_eq!(base % 64, 0, "heap base must be cache-line aligned");
        Self {
            cfg,
            base,
            bump: base,
            free_list: Vec::new(),
            quarantine: VecDeque::new(),
            quarantined: 0,
            live: LineMap::default(),
            stats: HeapStats::default(),
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> HeapStats {
        let mut s = self.stats;
        s.quarantined_bytes = self.quarantined;
        s.heap_consumed = (self.bump - self.base) as usize;
        s
    }

    /// Allocates an object with the given califormed layout, emitting the
    /// allocation-time trace ops into `ops`. Returns the object base.
    pub fn malloc(&mut self, layout: &CaliformedLayout, ops: &mut Vec<TraceOp>) -> u64 {
        self.stats.allocs += 1;
        let block_size = layout.size.max(1).div_ceil(self.cfg.align) * self.cfg.align;
        ops.push(TraceOp::Exec(self.cfg.alloc_bookkeeping_insns));

        let block = self.take_block(block_size);
        let spans = layout.cform_ops(block.addr);

        if self.cfg.emit_cforms && !spans.is_empty() {
            ops.push(TraceOp::Exec(self.cfg.instrumented_call_insns));
        }
        if self.cfg.emit_cforms {
            if block.califormed {
                // Clean-before-use: the recycled block is fully califormed.
                // One CFORM per line clears exactly the data bytes (span
                // positions stay set: mask 0 = "don't care" in the K-map).
                for line in Self::lines(block.addr, block_size) {
                    let region = Self::region_mask(line, block.addr, block_size);
                    let clear = region & !Self::mask_at(&spans, line);
                    if clear != 0 {
                        ops.push(TraceOp::Exec(self.cfg.cform_setup_insns));
                        ops.push(TraceOp::Cform {
                            line_addr: line,
                            attrs: 0,
                            mask: clear,
                        });
                        self.stats.cform_ops += 1;
                    }
                }
            } else {
                // Fresh memory: only the object's spans need setting.
                for &CformOp { line_addr, mask } in &spans {
                    ops.push(TraceOp::Exec(self.cfg.cform_setup_insns));
                    ops.push(TraceOp::Cform {
                        line_addr,
                        attrs: mask,
                        mask,
                    });
                    self.stats.cform_ops += 1;
                }
            }
        }

        self.live.insert(
            block.addr,
            LiveAllocation {
                size: block_size,
                layout_spans: spans,
            },
        );
        block.addr
    }

    /// Frees an object, emitting the `CFORM`s that caliform (and zero) the
    /// entire block, then quarantining it.
    ///
    /// # Panics
    ///
    /// Panics on a double free or a free of an unknown pointer — allocator
    /// state corruption the model treats as a test bug, not a runtime
    /// condition.
    pub fn free(&mut self, base: u64, ops: &mut Vec<TraceOp>) {
        let alloc = self
            .live
            .remove(&base)
            .expect("free of unknown or already-freed pointer");
        self.stats.frees += 1;
        ops.push(TraceOp::Exec(self.cfg.alloc_bookkeeping_insns));
        if self.cfg.emit_cforms && !alloc.layout_spans.is_empty() {
            ops.push(TraceOp::Exec(self.cfg.instrumented_call_insns));
        }

        let block_califormed = match (self.cfg.emit_cforms, self.cfg.free_mode) {
            (false, _) => false,
            (true, FreeMode::FullObject) => {
                // Set every byte that is not already a span security byte.
                // (The paper notes the non-temporal CFORM variant would
                // avoid polluting the L1 here; we model the plain variant.)
                for line in Self::lines(base, alloc.size) {
                    let region = Self::region_mask(line, base, alloc.size);
                    let set = region & !Self::mask_at(&alloc.layout_spans, line);
                    if set != 0 {
                        ops.push(TraceOp::Exec(self.cfg.cform_setup_insns));
                        ops.push(self.free_cform(line, set, set));
                        self.stats.cform_ops += 1;
                    }
                }
                true
            }
            (true, FreeMode::SpanOnly) => {
                // The measured emulation touches only the span lines: the
                // spans are *unset* so the recycled block comes back plain
                // (the clean-before-use invariant is then re-established by
                // the next malloc's set pass).
                for &CformOp { line_addr, mask } in &alloc.layout_spans {
                    ops.push(TraceOp::Exec(self.cfg.cform_setup_insns));
                    ops.push(self.free_cform(line_addr, 0, mask));
                    self.stats.cform_ops += 1;
                }
                false
            }
        };

        self.quarantine.push_back(FreeBlock {
            addr: base,
            size: alloc.size,
            califormed: block_califormed,
        });
        self.quarantined += alloc.size;
        self.drain_quarantine();
    }

    /// Whether a pointer is currently a live allocation.
    pub fn is_live(&self, base: u64) -> bool {
        self.live.contains_key(&base)
    }

    /// Number of blocks currently waiting in quarantine.
    pub fn quarantine_len(&self) -> usize {
        self.quarantine.len()
    }

    fn free_cform(&self, line_addr: u64, attrs: u64, mask: u64) -> TraceOp {
        if self.cfg.nt_cform_on_free {
            TraceOp::CformNt {
                line_addr,
                attrs,
                mask,
            }
        } else {
            TraceOp::Cform {
                line_addr,
                attrs,
                mask,
            }
        }
    }

    fn take_block(&mut self, size: usize) -> FreeBlock {
        // First fit from the free list.
        if let Some(pos) = self.free_list.iter().position(|b| b.size >= size) {
            let mut block = self.free_list.remove(pos);
            self.stats.recycled += 1;
            if block.size > size {
                // Split; the remainder keeps the block's califormed state.
                self.free_list.push(FreeBlock {
                    addr: block.addr + size as u64,
                    size: block.size - size,
                    califormed: block.califormed,
                });
                block.size = size;
            }
            return block;
        }
        let addr = self.bump;
        self.bump += size as u64;
        FreeBlock {
            addr,
            size,
            califormed: false,
        }
    }

    /// Releases the oldest quarantined blocks to the free list until the
    /// quarantine holds at most its capacity.
    fn drain_quarantine(&mut self) {
        while self.quarantined > self.cfg.quarantine_bytes {
            let block = self.quarantine.pop_front().expect("quarantined > 0");
            self.quarantined -= block.size;
            self.free_list.push(block);
        }
    }

    /// The span mask `spans` holds for `line`, or 0.
    fn mask_at(spans: &[CformOp], line: u64) -> u64 {
        spans
            .iter()
            .find(|op| op.line_addr == line)
            .map_or(0, |op| op.mask)
    }

    fn lines(base: u64, size: usize) -> impl Iterator<Item = u64> {
        let first = base & !63;
        let last = (base + size as u64 - 1) & !63;
        (first..=last).step_by(64)
    }

    /// Bits of `line` covered by `[base, base+size)`.
    fn region_mask(line: u64, base: u64, size: usize) -> u64 {
        let lo = base.max(line);
        let hi = (base + size as u64).min(line + 64);
        if lo >= hi {
            return 0;
        }
        let start = (lo - line) as u32;
        let len = (hi - lo) as u32;
        if len == 64 {
            u64::MAX
        } else {
            ((1u64 << len) - 1) << start
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use califorms_layout::{InsertionPolicy, StructDef};
    use califorms_sim::Engine;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn layout(policy: InsertionPolicy) -> CaliformedLayout {
        let mut rng = SmallRng::seed_from_u64(5);
        policy.apply(&StructDef::paper_example(), &mut rng)
    }

    fn run(ops: Vec<TraceOp>) -> Engine {
        let mut engine = Engine::westmere();
        for op in ops {
            engine.step(op);
        }
        engine
    }

    #[test]
    fn fresh_alloc_sets_only_spans() {
        let mut heap = CaliformsHeap::new(0x10000, AllocatorConfig::default());
        let mut ops = Vec::new();
        let l = layout(InsertionPolicy::Opportunistic);
        let base = heap.malloc(&l, &mut ops);
        assert_eq!(base, 0x10000);
        let engine = run(ops);
        // Padding bytes 1..4 are security bytes; data bytes are not.
        assert!(engine.hierarchy.peek_is_security_byte(base + 1));
        assert!(engine.hierarchy.peek_is_security_byte(base + 3));
        assert!(!engine.hierarchy.peek_is_security_byte(base));
        assert!(!engine.hierarchy.peek_is_security_byte(base + 4));
    }

    #[test]
    fn free_califorms_whole_block() {
        let mut heap = CaliformsHeap::new(0x10000, AllocatorConfig::default());
        let mut ops = Vec::new();
        let l = layout(InsertionPolicy::Opportunistic);
        let base = heap.malloc(&l, &mut ops);
        heap.free(base, &mut ops);
        let engine = run(ops);
        for off in 0..l.size as u64 {
            assert!(
                engine.hierarchy.peek_is_security_byte(base + off),
                "freed byte {off} must be califormed"
            );
            assert_eq!(engine.hierarchy.peek_byte(base + off), 0, "and zeroed");
        }
        assert_eq!(engine.delivered_exceptions().len(), 0, "no K-map faults");
    }

    #[test]
    fn use_after_free_is_detected() {
        let mut heap = CaliformsHeap::new(0x10000, AllocatorConfig::default());
        let mut ops = Vec::new();
        let l = layout(InsertionPolicy::Opportunistic);
        let base = heap.malloc(&l, &mut ops);
        heap.free(base, &mut ops);
        ops.push(TraceOp::Load {
            addr: base,
            size: 8,
        });
        let engine = run(ops);
        assert_eq!(engine.delivered_exceptions().len(), 1);
        assert_eq!(engine.delivered_exceptions()[0].fault_addr, base);
    }

    #[test]
    fn quarantine_delays_reuse() {
        let cfg = AllocatorConfig {
            quarantine_bytes: 256,
            ..AllocatorConfig::default()
        };
        let mut heap = CaliformsHeap::new(0x10000, cfg);
        let mut ops = Vec::new();
        let l = layout(InsertionPolicy::Opportunistic);
        let a = heap.malloc(&l, &mut ops);
        heap.free(a, &mut ops);
        // Immediately reallocating must NOT reuse the quarantined block.
        let b = heap.malloc(&l, &mut ops);
        assert_ne!(a, b, "quarantined block must not be recycled yet");
        // Burn through the quarantine.
        let mut owned = Vec::new();
        for _ in 0..8 {
            let p = heap.malloc(&l, &mut ops);
            owned.push(p);
        }
        for p in owned {
            heap.free(p, &mut ops);
        }
        // Quarantine capacity (256 B) is far exceeded; `a` is reusable now.
        let stats = heap.stats();
        assert!(stats.quarantined_bytes <= 256);
        let c = heap.malloc(&l, &mut ops);
        assert_eq!(c, a, "oldest quarantined block is recycled first");
        assert!(heap.stats().recycled >= 1);
    }

    #[test]
    fn recycled_alloc_clears_data_keeps_spans() {
        let cfg = AllocatorConfig {
            quarantine_bytes: 0, // immediate recycling
            ..AllocatorConfig::default()
        };
        let mut heap = CaliformsHeap::new(0x10000, cfg);
        let mut ops = Vec::new();
        let l = layout(InsertionPolicy::Opportunistic);
        let a = heap.malloc(&l, &mut ops);
        heap.free(a, &mut ops);
        let b = heap.malloc(&l, &mut ops);
        assert_eq!(a, b, "with no quarantine the block recycles immediately");
        let engine = run(ops);
        // Spans security, data clear — and, critically, no K-map fault
        // (set-over-set would have raised one).
        assert_eq!(engine.delivered_exceptions().len(), 0);
        assert!(engine.hierarchy.peek_is_security_byte(b + 1));
        assert!(!engine.hierarchy.peek_is_security_byte(b + 8));
    }

    #[test]
    fn no_cform_mode_emits_none() {
        let cfg = AllocatorConfig {
            emit_cforms: false,
            ..AllocatorConfig::default()
        };
        let mut heap = CaliformsHeap::new(0x10000, cfg);
        let mut ops = Vec::new();
        let l = layout(InsertionPolicy::full_1_to(7));
        let base = heap.malloc(&l, &mut ops);
        heap.free(base, &mut ops);
        assert!(ops.iter().all(|op| !matches!(op, TraceOp::Cform { .. })));
        assert_eq!(heap.stats().cform_ops, 0);
    }

    #[test]
    fn span_only_free_touches_only_span_lines() {
        let cfg = AllocatorConfig {
            free_mode: FreeMode::SpanOnly,
            quarantine_bytes: 0,
            ..AllocatorConfig::default()
        };
        let mut heap = CaliformsHeap::new(0x10000, cfg);
        let mut ops = Vec::new();
        let l = layout(InsertionPolicy::Opportunistic);
        let base = heap.malloc(&l, &mut ops);
        let cforms_before = heap.stats().cform_ops;
        heap.free(base, &mut ops);
        // Opportunistic paper-example spans sit in one line: one CFORM.
        assert_eq!(heap.stats().cform_ops - cforms_before, 1);
        let engine = run(ops);
        assert_eq!(engine.delivered_exceptions().len(), 0);
        // The freed block is plain (no whole-object caliform), and a
        // recycled re-malloc takes the cheap fresh path without faulting.
        assert!(!engine.hierarchy.peek_is_security_byte(base + 8));
        let mut ops2 = Vec::new();
        let again = heap.malloc(&l, &mut ops2);
        assert_eq!(again, base);
        let engine2 = run(ops2);
        assert_eq!(engine2.delivered_exceptions().len(), 0);
    }

    #[test]
    fn nt_free_emits_non_temporal_cforms() {
        let cfg = AllocatorConfig {
            nt_cform_on_free: true,
            ..AllocatorConfig::default()
        };
        let mut heap = CaliformsHeap::new(0x10000, cfg);
        let mut ops = Vec::new();
        let l = layout(InsertionPolicy::Opportunistic);
        let base = heap.malloc(&l, &mut ops);
        heap.free(base, &mut ops);
        assert!(ops.iter().any(|op| matches!(op, TraceOp::CformNt { .. })));
        let engine = run(ops);
        assert_eq!(engine.delivered_exceptions().len(), 0);
        // The freed block is fully califormed and NOT resident in the L1.
        assert!(engine.hierarchy.peek_is_security_byte(base + 8));
        assert!(!engine.hierarchy.l1_contains(base & !63));
    }

    #[test]
    #[should_panic(expected = "free of unknown")]
    fn double_free_panics() {
        let mut heap = CaliformsHeap::new(0x10000, AllocatorConfig::default());
        let mut ops = Vec::new();
        let l = layout(InsertionPolicy::None);
        let base = heap.malloc(&l, &mut ops);
        heap.free(base, &mut ops);
        heap.free(base, &mut ops);
    }

    #[test]
    fn full_policy_survives_alloc_free_cycles() {
        let mut heap = CaliformsHeap::new(
            0x10000,
            AllocatorConfig {
                quarantine_bytes: 512,
                ..AllocatorConfig::default()
            },
        );
        let l = layout(InsertionPolicy::full_1_to(7));
        let mut ops = Vec::new();
        let mut live = Vec::new();
        for round in 0..20 {
            let p = heap.malloc(&l, &mut ops);
            live.push(p);
            if round % 3 == 2 {
                let victim = live.remove(0);
                heap.free(victim, &mut ops);
            }
        }
        let engine = run(ops);
        assert_eq!(
            engine.delivered_exceptions().len(),
            0,
            "allocator K-map discipline must never fault"
        );
    }

    #[test]
    fn region_mask_math() {
        assert_eq!(CaliformsHeap::region_mask(0, 0, 64), u64::MAX);
        assert_eq!(CaliformsHeap::region_mask(0, 0, 8), 0xFF);
        assert_eq!(CaliformsHeap::region_mask(0, 8, 8), 0xFF00);
        assert_eq!(CaliformsHeap::region_mask(64, 0, 64), 0);
        assert_eq!(CaliformsHeap::region_mask(64, 60, 8), 0xF);
    }
}
