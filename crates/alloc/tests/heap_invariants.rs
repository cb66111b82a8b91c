//! Property tests on the allocator: arbitrary malloc/free interleavings
//! under every policy must keep the heap's structural invariants, hold
//! exactly what a FIFO quarantine holds, and never violate the CFORM
//! K-map when replayed on the simulator.

use califorms_alloc::{AllocatorConfig, CaliformsHeap, FreeMode};
use califorms_layout::{CType, CaliformedLayout, Field, InsertionPolicy, Scalar, StructDef};
use califorms_sim::{Engine, TraceOp};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;

#[derive(Debug, Clone)]
enum HeapOp {
    Malloc,
    /// Free the i-th live allocation (mod current count).
    Free(usize),
}

fn arb_op() -> impl Strategy<Value = HeapOp> {
    prop_oneof![
        3 => Just(HeapOp::Malloc),
        2 => (0usize..64).prop_map(HeapOp::Free),
    ]
}

fn arb_ops() -> impl Strategy<Value = Vec<HeapOp>> {
    proptest::collection::vec(arb_op(), 1..60)
}

/// A one-`char` struct (the smallest block), the paper example, and two
/// structs around `char` arrays of `page` and `arena` bytes, so that a
/// short history overflows every quarantine cap from 0 to 1 MiB, and
/// block totals land on and just past each cap.
fn sized_layouts(
    policy: InsertionPolicy,
    seed: u64,
    page: usize,
    arena: usize,
) -> [CaliformedLayout; 4] {
    let with_buf = |name: &str, n: usize| {
        StructDef::new(
            name,
            vec![
                Field::new("len", CType::Scalar(Scalar::Long)),
                Field::new(
                    "buf",
                    CType::Array(Box::new(CType::Scalar(Scalar::Char)), n),
                ),
            ],
        )
    };
    let tiny = StructDef::new("tiny", vec![Field::new("c", CType::Scalar(Scalar::Char))]);
    let mut rng = SmallRng::seed_from_u64(seed);
    [
        policy.apply(&tiny, &mut rng),
        policy.apply(&StructDef::paper_example(), &mut rng),
        policy.apply(&with_buf("page", page), &mut rng),
        policy.apply(&with_buf("arena", arena), &mut rng),
    ]
}

fn arb_policy() -> impl Strategy<Value = InsertionPolicy> {
    prop_oneof![
        Just(InsertionPolicy::Opportunistic),
        Just(InsertionPolicy::full_1_to(7)),
        Just(InsertionPolicy::intelligent_1_to(5)),
    ]
}

proptest! {
    /// Live allocations never overlap, frees round-trip, and the whole
    /// trace replays on the simulator without a single K-map fault —
    /// under both free modes and both CFORM variants.
    #[test]
    fn random_heap_histories_stay_sound(
        ops in arb_ops(),
        policy in arb_policy(),
        span_only in any::<bool>(),
        nt in any::<bool>(),
        quarantine in prop_oneof![Just(0usize), Just(512), Just(1 << 16)],
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let layout = policy.apply(&StructDef::paper_example(), &mut rng);
        let cfg = AllocatorConfig {
            free_mode: if span_only { FreeMode::SpanOnly } else { FreeMode::FullObject },
            nt_cform_on_free: nt,
            quarantine_bytes: quarantine,
            ..AllocatorConfig::default()
        };
        let mut heap = CaliformsHeap::new(0x1000_0000, cfg);
        let mut trace = Vec::new();
        let mut live: Vec<u64> = Vec::new();

        for op in ops {
            match op {
                HeapOp::Malloc => {
                    let base = heap.malloc(&layout, &mut trace);
                    // No overlap with any live allocation.
                    for &other in &live {
                        let disjoint = base + layout.size as u64 <= other
                            || other + layout.size as u64 <= base;
                        prop_assert!(disjoint, "{base:#x} overlaps {other:#x}");
                    }
                    prop_assert!(heap.is_live(base));
                    live.push(base);
                }
                HeapOp::Free(i) => {
                    if live.is_empty() {
                        continue;
                    }
                    let victim = live.remove(i % live.len());
                    heap.free(victim, &mut trace);
                    prop_assert!(!heap.is_live(victim));
                }
            }
        }

        // Touch every live object's fields, then replay everything.
        for &base in &live {
            for f in &layout.fields {
                trace.push(TraceOp::Load {
                    addr: base + f.offset as u64,
                    size: f.size.min(8) as u8,
                });
            }
        }
        let out = Engine::westmere().run(trace);
        prop_assert_eq!(
            out.stats.exceptions_delivered, 0,
            "allocator discipline must never fault"
        );
    }

    /// The quarantine holds exactly what a FIFO of freed block sizes holds
    /// after every operation, under caps from none to the default 1 MiB,
    /// and a free never leaves more than the cap quarantined.
    #[test]
    fn quarantine_matches_a_fifo_of_sizes(
        ops in proptest::collection::vec((arb_op(), 0usize..4), 1..120),
        policy in arb_policy(),
        page in 1usize..4_096,
        arena in 4_096usize..300_000,
        span_only in any::<bool>(),
        cap in prop_oneof![Just(0usize), Just(512), Just(4 << 10), Just(64 << 10), Just(1 << 20)],
        seed in any::<u64>(),
    ) {
        let layouts = sized_layouts(policy, seed, page, arena);
        let cfg = AllocatorConfig {
            free_mode: if span_only { FreeMode::SpanOnly } else { FreeMode::FullObject },
            quarantine_bytes: cap,
            ..AllocatorConfig::default()
        };
        let block_size = |l: &CaliformedLayout| l.size.max(1).div_ceil(cfg.align) * cfg.align;
        let mut heap = CaliformsHeap::new(0x1000_0000, cfg);
        let mut trace = Vec::new();
        let mut live: Vec<(u64, usize)> = Vec::new();
        let mut model: VecDeque<usize> = VecDeque::new();

        for (op, kind) in ops {
            match op {
                HeapOp::Malloc => {
                    let l = &layouts[kind];
                    live.push((heap.malloc(l, &mut trace), block_size(l)));
                }
                HeapOp::Free(i) => {
                    if live.is_empty() {
                        continue;
                    }
                    let (base, size) = live.remove(i % live.len());
                    heap.free(base, &mut trace);
                    model.push_back(size);
                    while model.iter().sum::<usize>() > cap {
                        model.pop_front();
                    }
                    prop_assert!(heap.stats().quarantined_bytes <= cap);
                }
            }
            trace.clear();
            prop_assert_eq!(heap.stats().quarantined_bytes, model.iter().sum::<usize>());
            prop_assert_eq!(heap.quarantine_len(), model.len());
        }
    }

    /// Heap statistics are internally consistent over any history.
    #[test]
    fn stats_are_consistent(ops in arb_ops(), seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let layout = InsertionPolicy::Opportunistic.apply(&StructDef::paper_example(), &mut rng);
        let mut heap = CaliformsHeap::new(0x2000_0000, AllocatorConfig::default());
        let mut trace = Vec::new();
        let mut live = Vec::new();
        let (mut mallocs, mut frees) = (0u64, 0u64);
        for op in ops {
            match op {
                HeapOp::Malloc => {
                    live.push(heap.malloc(&layout, &mut trace));
                    mallocs += 1;
                }
                HeapOp::Free(i) if !live.is_empty() => {
                    let v = live.remove(i % live.len());
                    heap.free(v, &mut trace);
                    frees += 1;
                }
                HeapOp::Free(_) => {}
            }
        }
        let stats = heap.stats();
        prop_assert_eq!(stats.allocs, mallocs);
        prop_assert_eq!(stats.frees, frees);
        prop_assert!(stats.recycled <= mallocs);
        prop_assert!(frees <= mallocs);
    }
}
