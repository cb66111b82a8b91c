//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **L2 metadata format** — naive bitvector-everywhere vs the sentinel
//!    format (the Section 5.2 motivation).
//! 2. **Non-temporal CFORM on free** — the footnote-3 optimisation the
//!    paper leaves unevaluated.
//! 3. **Quarantine size** — temporal-safety window vs heap growth.
//! 4. **SIMD/vector policy** — false-positive rates of the Appendix B
//!    options on a span-straddling sweep.

#![forbid(unsafe_code)]

use califorms_alloc::{AllocatorConfig, CaliformsHeap};
use califorms_layout::{InsertionPolicy, StructDef};
use califorms_sim::vector::{vector_load, VectorMode};
use califorms_sim::{CoreConfig, Engine, HierarchyConfig, TraceOp};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    metadata_format();
    nt_cform();
    quarantine();
    vector_modes();
}

fn metadata_format() {
    println!("=== Ablation 1: L2+ metadata format ===");
    println!();
    // Storage overhead per 64B line if the L1 format were used everywhere
    // vs the sentinel format (paper Section 5.2).
    let levels = [
        ("L2 256KB", 256 * 1024),
        ("L3 2MB", 2 * 1024 * 1024),
        ("DRAM 8GB", 8usize * 1024 * 1024 * 1024),
    ];
    println!("{:<10} | naive 8B/line | sentinel 1b/line", "level");
    for (name, bytes) in levels {
        let lines = bytes / 64;
        println!(
            "{:<10} | {:>10} KB | {:>10} KB",
            name,
            lines * 8 / 1024,
            lines.div_ceil(8) / 1024
        );
    }
    println!("naive: 12.5% everywhere; sentinel: 0.2% — the reason the paper");
    println!("accepts the spill/fill converters (~35k GE, off the hit path).");
    println!();
}

fn nt_cform() {
    println!("=== Ablation 2: non-temporal CFORM on free ===");
    println!();
    let mut rng = SmallRng::seed_from_u64(1);
    let layout = InsertionPolicy::Opportunistic.apply(&StructDef::paper_example(), &mut rng);
    let run = |nt: bool| {
        let cfg = AllocatorConfig {
            nt_cform_on_free: nt,
            quarantine_bytes: 1 << 16,
            ..AllocatorConfig::default()
        };
        let mut heap = CaliformsHeap::new(0x100_0000, cfg);
        let mut ops = Vec::new();
        // A hot working set that just fits the 32 KB L1, interleaved with
        // frees of long-cold objects: the temporal CFORM drags each dead
        // freed line through the L1, evicting hot data; the NT variant
        // updates it at the L2 and leaves the hot set alone.
        let hot: Vec<u64> = (0..480u64).map(|i| 0x200_0000 + i * 64).collect();
        let mut cold = Vec::new();
        let mut cursor = 0usize;
        for _ in 0..2_000usize {
            for _ in 0..48 {
                cursor = (cursor + 1) % hot.len();
                ops.push(TraceOp::Load {
                    addr: hot[cursor],
                    size: 8,
                });
            }
            let p = heap.malloc(&layout, &mut ops);
            cold.push(p);
            if cold.len() > 64 {
                heap.free(cold.remove(0), &mut ops);
            }
        }
        let engine = Engine::new(HierarchyConfig::westmere(), CoreConfig::westmere());
        engine.run(ops).stats
    };
    let temporal = run(false);
    let nt = run(true);
    println!(
        "temporal CFORM free: {:>12.0} cycles, L1 miss ratio {:.2}%",
        temporal.cycles,
        temporal.l1d.miss_ratio() * 100.0
    );
    println!(
        "non-temporal free:   {:>12.0} cycles, L1 miss ratio {:.2}%",
        nt.cycles,
        nt.l1d.miss_ratio() * 100.0
    );
    println!(
        "NT speedup: {:.2}% (paper: 'should provide better performance', not evaluated)",
        (temporal.cycles / nt.cycles - 1.0) * 100.0
    );
    println!();
}

fn quarantine() {
    println!("=== Ablation 3: quarantine capacity ===");
    println!();
    let mut rng = SmallRng::seed_from_u64(2);
    let layout = InsertionPolicy::Opportunistic.apply(&StructDef::paper_example(), &mut rng);
    println!(
        "{:>12} | {:>12} | {:>14} | reuse delay (allocs until a freed block returns)",
        "quarantine", "cform ops", "heap consumed"
    );
    for q in [0usize, 4 << 10, 64 << 10, 1 << 20] {
        let cfg = AllocatorConfig {
            quarantine_bytes: q,
            ..AllocatorConfig::default()
        };
        let mut heap = CaliformsHeap::new(0x100_0000, cfg);
        let mut ops = Vec::new();
        let probe = heap.malloc(&layout, &mut ops);
        heap.free(probe, &mut ops);
        let mut reuse_delay = None;
        for i in 0..20_000usize {
            let p = heap.malloc(&layout, &mut ops);
            if p == probe && reuse_delay.is_none() {
                reuse_delay = Some(i + 1);
            }
            heap.free(p, &mut ops);
        }
        let stats = heap.stats();
        println!(
            "{:>10} B | {:>12} | {:>12} B | {}",
            q,
            stats.cform_ops,
            stats.heap_consumed,
            reuse_delay
                .map(|d| d.to_string())
                .unwrap_or_else(|| "never (within 20k)".into()),
        );
    }
    println!("larger quarantine = longer use-after-free detection window, more");
    println!("fresh heap consumed — the temporal-safety dial of Section 6.1.");
    println!();
}

fn vector_modes() {
    println!("=== Ablation 4: SIMD/vector policies (Appendix B) ===");
    println!();
    // A 64B sweep over an object whose span sits mid-line: legitimate
    // vectorised code (e.g. memcmp) that never *uses* the span lanes.
    let build = || {
        let mut h = Engine::westmere().hierarchy;
        h.store(0, 0x9000, &[7u8; 64], 0);
        h.cform(
            0,
            &califorms_core::CformInstruction::set(0x9000, 0b111 << 24),
            0,
        );
        h
    };
    println!(
        "{:<12} | faults on load | usable w/ lane mask | false positive?",
        "mode"
    );
    for mode in [
        VectorMode::Precise,
        VectorMode::TrapOnAny,
        VectorMode::Propagate,
    ] {
        let mut h = build();
        let (r, v) = vector_load(&mut h, 0, 0x9000, 64, mode, 0);
        let faults = r.exception.is_some();
        let masked_ok = v.use_lanes(0xFFFF).is_none(); // consume clean lanes only
        let false_positive = faults && mode != VectorMode::Precise;
        println!(
            "{:<12} | {:<14} | {:<19} | {}",
            format!("{mode:?}"),
            faults,
            if mode == VectorMode::Propagate {
                masked_ok.to_string()
            } else {
                "n/a".into()
            },
            false_positive
        );
    }
    println!();
    println!("Precise = exact but serialises; TrapOnAny = cheap but false-positives");
    println!("on legitimate straddling sweeps; Propagate = exact with poison bits.");
}
