//! Generated traces are pinned as constants.
//!
//! Every replayed trace comes out of [`generate`] and the heap model under
//! it, so a change to the allocator or to the layout's `CFORM` masks that
//! moves one op, address or reuse decision changes every simulated result
//! downstream. Each pin is `(op count, warm-up length, FNV-1a of the
//! encoded pack bytes)`; the constants were recorded before the heap's
//! quarantine kept a running byte total and must hold unchanged across
//! performance work on the generator, the heap and the layout.

use califorms_alloc::{AllocatorConfig, CaliformsHeap, FreeMode, HeapStats};
use califorms_layout::{InsertionPolicy, StructDef};
use califorms_sim::{TraceOp, TracePack};
use califorms_workloads::{generate, spec, WorkloadConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn pack_digest(ops: &[TraceOp]) -> u64 {
    fnv1a(TracePack::from_ops(ops.iter().copied()).bytes())
}

/// `(op count, warm-up length, pack digest)` of one generated workload.
fn pin(profile: &str, cfg: WorkloadConfig) -> (usize, usize, u64) {
    let w = generate(&spec::by_name(profile).unwrap(), &cfg);
    (w.ops.len(), w.warmup_len, pack_digest(&w.ops))
}

#[test]
fn churn_trace_fills_the_quarantine() {
    // perfbench `mc_shared_2c`'s profile and policy at a quarter of its
    // length. By the end about 9.5k freed blocks are held, just under the
    // 1 MiB cap.
    let cfg = WorkloadConfig::with_policy(InsertionPolicy::intelligent_1_to(7), 400_000, 7);
    assert_eq!(
        pin("perlbench", cfg),
        (789_636, 28_400, 16_500_085_072_128_779_660)
    );
}

#[test]
fn churn_trace_recycles_blocks_past_the_cap() {
    // `mc_shared_2c`'s whole set-up: churn frees more than the quarantine
    // holds, so frees release blocks to the free list and first-fit reuse
    // order is in the trace.
    let cfg = WorkloadConfig::with_policy(InsertionPolicy::intelligent_1_to(7), 1_600_000, 7);
    assert_eq!(
        pin("perlbench", cfg),
        (3_078_493, 28_400, 678_105_728_330_551_646)
    );
}

#[test]
fn full_policy_trace_has_several_spans_per_line() {
    let cfg = WorkloadConfig::with_policy(InsertionPolicy::full_1_to(7), 10_000, 3);
    assert_eq!(
        pin("perlbench", cfg),
        (55_558, 34_000, 3_883_715_273_842_614_880)
    );
}

#[test]
fn warmup_heavy_baseline_trace() {
    assert_eq!(
        pin("mcf", WorkloadConfig::baseline(10_000, 101)),
        (817_792, 800_000, 95_461_337_182_503_094)
    );
}

#[test]
fn full_object_heap_churn_recycles_through_the_quarantine() {
    // 20k free/malloc pairs over a window of 32 live objects of two sizes,
    // with whole-object non-temporal CFORMs on free and the default 1 MiB
    // quarantine: about half the frees come back out of the quarantine and
    // are split by first fit.
    let mut rng = SmallRng::seed_from_u64(7);
    let layouts = [
        InsertionPolicy::full_1_to(7).apply(&StructDef::paper_example(), &mut rng),
        InsertionPolicy::intelligent_1_to(7).apply(&StructDef::paper_example(), &mut rng),
    ];
    let cfg = AllocatorConfig {
        nt_cform_on_free: true,
        ..AllocatorConfig::default()
    };
    assert_eq!(cfg.free_mode, FreeMode::FullObject);
    let mut heap = CaliformsHeap::new(0x1000_0000, cfg);
    let mut ops = Vec::new();
    let mut live: Vec<u64> = (0..32)
        .map(|i| heap.malloc(&layouts[i % 2], &mut ops))
        .collect();
    for _ in 0..20_000 {
        let slot = rng.gen_range(0..live.len());
        heap.free(live[slot], &mut ops);
        live[slot] = heap.malloc(&layouts[rng.gen_range(0..2)], &mut ops);
    }
    assert_eq!(
        (ops.len(), pack_digest(&ops)),
        (287_820, 3_568_771_812_367_959_878)
    );
    assert_eq!(heap.quarantine_len(), 8_726);
    assert_eq!(
        heap.stats(),
        HeapStats {
            allocs: 20_032,
            frees: 20_000,
            cform_ops: 103_878,
            recycled: 11_145,
            quarantined_bytes: 1_048_480,
            heap_consumed: 1_067_648,
        }
    );
}
