//! Integration tests for the OS layer and the Appendix B vector policies
//! through the facade crate, composed with the allocator.

use califorms::alloc::{AllocatorConfig, CaliformsHeap};
use califorms::layout::{InsertionPolicy, StructDef};
use califorms::sim::dma::DmaEngine;
use califorms::sim::os::{io_write, SwapManager, PAGE_BYTES};
use califorms::sim::vector::{vector_load, VectorMode};
use califorms::sim::{Engine, TraceOp};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Allocate a califormed object, swap its page out and in, and verify the
/// allocator-established protection survives the OS round trip.
#[test]
fn allocator_protection_survives_page_swap() {
    let mut rng = SmallRng::seed_from_u64(1);
    let layout = InsertionPolicy::full_1_to(7).apply(&StructDef::paper_example(), &mut rng);
    // Heap base on a page boundary so the object sits inside one page.
    let mut heap = CaliformsHeap::new(4 * PAGE_BYTES, AllocatorConfig::default());
    let mut ops = Vec::new();
    let base = heap.malloc(&layout, &mut ops);
    let mut engine = Engine::westmere();
    for op in ops {
        engine.step(op);
    }

    let page = base & !(PAGE_BYTES - 1);
    let mut swap = SwapManager::new();
    swap.swap_out(&mut engine.hierarchy, page);
    swap.swap_in(&mut engine.hierarchy, page);

    let span = layout.security_spans[0].offset as u64;
    engine.step(TraceOp::Load {
        addr: base + span,
        size: 1,
    });
    assert_eq!(
        engine.delivered_exceptions().len(),
        1,
        "span still armed after swap"
    );
}

/// `write()` of a califormed object exports field data but never span
/// markers; the object remains protected afterwards.
#[test]
fn io_export_strips_spans_end_to_end() {
    let mut rng = SmallRng::seed_from_u64(2);
    let layout = InsertionPolicy::intelligent_1_to(5).apply(&StructDef::paper_example(), &mut rng);
    let mut heap = CaliformsHeap::new(0x80_0000, AllocatorConfig::default());
    let mut ops = Vec::new();
    let base = heap.malloc(&layout, &mut ops);
    // Fill `buf` with recognisable data.
    let buf = layout.field_offset("buf").unwrap() as u64;
    for i in 0..8 {
        ops.push(TraceOp::Store {
            addr: base + buf + i * 8,
            size: 8,
        });
    }
    let mut engine = Engine::westmere();
    for op in ops {
        engine.step(op);
    }
    let export = io_write(&mut engine.hierarchy, base, layout.size);
    assert_eq!(export.data.len(), layout.size);
    assert_eq!(
        export.security_bytes_crossed,
        layout.security_bytes(),
        "every span byte crossed the boundary as zero"
    );
    for s in &layout.security_spans {
        assert!(export.data[s.offset..s.offset + s.len]
            .iter()
            .all(|&b| b == 0));
    }
    // Still armed in memory.
    let span = layout.security_spans[0].offset as u64;
    engine.step(TraceOp::Load {
        addr: base + span,
        size: 1,
    });
    assert_eq!(engine.delivered_exceptions().len(), 1);
}

/// A vectorised sweep over a califormed object behaves per Appendix B:
/// precise and trap-on-any fault, propagate poisons lanes instead.
#[test]
fn vector_sweep_over_califormed_object() {
    let mut rng = SmallRng::seed_from_u64(3);
    let layout = InsertionPolicy::full_1_to(7).apply(&StructDef::paper_example(), &mut rng);
    let build = || {
        let mut heap = CaliformsHeap::new(0x90_0000, AllocatorConfig::default());
        let mut ops = Vec::new();
        let base = heap.malloc(&layout, &mut ops);
        let mut engine = Engine::westmere();
        for op in ops {
            engine.step(op);
        }
        (engine, base)
    };
    let first_span = layout.security_spans[0].offset;
    let sweep_len = (first_span + 8).min(64);

    let (mut e, base) = build();
    let (r, _) = vector_load(&mut e.hierarchy, 0, base, sweep_len, VectorMode::Precise, 0);
    assert!(r.exception.is_some(), "precise catches the span");

    let (mut e, base) = build();
    let (r, v) = vector_load(
        &mut e.hierarchy,
        0,
        base,
        sweep_len,
        VectorMode::Propagate,
        0,
    );
    assert!(r.exception.is_none(), "propagate defers");
    assert!(v.poison != 0);
    // Consuming only the in-bounds field lanes is clean.
    let clean_mask = (1u64 << first_span) - 1;
    assert_eq!(v.use_lanes(clean_mask), None);
}

/// The DMA matrix through a real allocation: aware engine sees zeros at
/// spans, legacy engine sees the raw sentinel format.
#[test]
fn dma_engines_disagree_exactly_on_califormed_lines() {
    let mut rng = SmallRng::seed_from_u64(4);
    let layout = InsertionPolicy::full_1_to(3).apply(&StructDef::paper_example(), &mut rng);
    let mut heap = CaliformsHeap::new(0xA0_0000, AllocatorConfig::default());
    let mut ops = Vec::new();
    let base = heap.malloc(&layout, &mut ops);
    let mut engine = Engine::westmere();
    for op in ops {
        engine.step(op);
    }
    let aware = DmaEngine::respecting().read(&mut engine.hierarchy, base, 64);
    let legacy = DmaEngine::bypassing().read(&mut engine.hierarchy, base, 64);
    assert!(aware.security_bytes_seen > 0);
    assert_eq!(legacy.security_bytes_seen, 0);
    assert_ne!(aware.data, legacy.data, "sentinel format leaks raw");
}
