//! Criterion micro-benchmarks of the Califorms hot paths: the operations
//! the hardware performs on every L1 boundary crossing (spill/fill), on
//! every access (bitvector check), and on every allocation (`CFORM`).
//!
//! These are software-speed sanity checks for the *simulator* (the
//! hardware latencies are the VLSI model's subject); they also document
//! the asymptotic shape: spill cost grows with security-byte count,
//! fill is flat (parallel comparator bank), checks are O(1).

use califorms_core::{fill, spill, CaliformedLine, CformInstruction, L1Line};
use califorms_sim::{Engine, HierarchyConfig, TraceOp};
use califorms_workloads::{generate, spec, WorkloadConfig};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn line_with_n_security_bytes(n: usize) -> L1Line {
    let mut data = [0u8; 64];
    for (i, b) in data.iter_mut().enumerate() {
        *b = (i as u8).wrapping_mul(37);
    }
    let mut line = CaliformedLine::from_data(data);
    for i in 0..n {
        line.set_security_byte((i * 64 / n.max(1)).min(63));
    }
    L1Line::new(line)
}

fn bench_spill_fill(c: &mut Criterion) {
    let mut group = c.benchmark_group("spill");
    for n in [0usize, 1, 4, 16, 64] {
        let l1 = line_with_n_security_bytes(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &l1, |b, l1| {
            b.iter(|| spill(black_box(l1)).unwrap())
        });
    }
    group.finish();

    let mut group = c.benchmark_group("fill");
    for n in [0usize, 1, 4, 16, 64] {
        let l2 = spill(&line_with_n_security_bytes(n)).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &l2, |b, l2| {
            b.iter(|| fill(black_box(l2)).unwrap())
        });
    }
    group.finish();
}

fn bench_l1_check(c: &mut Criterion) {
    let l1 = line_with_n_security_bytes(8);
    c.bench_function("l1_load_check_8B", |b| {
        b.iter(|| black_box(&l1).load(black_box(16), 8))
    });
}

fn bench_cform(c: &mut Criterion) {
    c.bench_function("cform_execute_full_line", |b| {
        b.iter(|| {
            let mut line = CaliformedLine::zeroed();
            CformInstruction::set(0, black_box(u64::MAX))
                .execute(&mut line)
                .unwrap();
            line
        })
    });
}

fn bench_hierarchy(c: &mut Criterion) {
    c.bench_function("engine_10k_mixed_ops", |b| {
        let w = generate(
            &spec::by_name("sjeng").unwrap(),
            &WorkloadConfig::with_policy(
                califorms_layout::InsertionPolicy::intelligent_1_to(7),
                10_000,
                1,
            ),
        );
        b.iter(|| {
            let engine = Engine::new(
                HierarchyConfig::westmere(),
                califorms_sim::CoreConfig::westmere(),
            );
            engine.run(w.ops.iter().copied()).stats.cycles
        })
    });
    c.bench_function("hierarchy_l1_hit_load", |b| {
        let mut engine = Engine::westmere();
        engine.step(TraceOp::Store {
            addr: 0x1000,
            size: 8,
        });
        b.iter(|| {
            engine
                .hierarchy
                .load(0, black_box(0x1000), 8, 0, None)
                .latency
        })
    });
}

fn bench_layout(c: &mut Criterion) {
    use califorms_layout::{InsertionPolicy, StructDef, StructLayout};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let def = StructDef::paper_example();
    c.bench_function("layout_natural", |b| {
        b.iter(|| StructLayout::natural(black_box(&def)).size)
    });
    c.bench_function("layout_full_policy", |b| {
        let mut rng = SmallRng::seed_from_u64(1);
        b.iter(|| {
            InsertionPolicy::full_1_to(7)
                .apply(black_box(&def), &mut rng)
                .size
        })
    });
    c.bench_function("census_1000_structs", |b| {
        use califorms_layout::census::{Corpus, CorpusProfile};
        b.iter(|| {
            Corpus::generate(CorpusProfile::SpecCpu2006, 1_000, black_box(7))
                .fraction_with_padding()
        })
    });
}

fn bench_alloc(c: &mut Criterion) {
    use califorms_alloc::{AllocatorConfig, CaliformsHeap};
    use califorms_layout::{InsertionPolicy, StructDef};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(2);
    let layout = InsertionPolicy::intelligent_1_to(7).apply(&StructDef::paper_example(), &mut rng);
    c.bench_function("heap_malloc_free_pair", |b| {
        let mut heap = CaliformsHeap::new(0x1000_0000, AllocatorConfig::default());
        let mut ops = Vec::with_capacity(64);
        b.iter(|| {
            ops.clear();
            let p = heap.malloc(black_box(&layout), &mut ops);
            heap.free(p, &mut ops);
            ops.len()
        })
    });
}

fn bench_workload_generation(c: &mut Criterion) {
    c.bench_function("generate_10k_trace", |b| {
        let profile = spec::by_name("perlbench").unwrap();
        let cfg =
            WorkloadConfig::with_policy(califorms_layout::InsertionPolicy::full_1_to(7), 10_000, 3);
        b.iter(|| generate(black_box(&profile), &cfg).ops.len())
    });
    // perfbench `mc_shared_2c`'s set-up at a quarter of its length: churn
    // leaves about 9.5k freed blocks in the heap's 1 MiB quarantine, where
    // `generate_10k_trace` frees too few for a free's cost to depend on
    // how many are held.
    c.bench_function("generate_churn_400k", |b| {
        let profile = spec::by_name("perlbench").unwrap();
        let cfg = WorkloadConfig::with_policy(
            califorms_layout::InsertionPolicy::intelligent_1_to(7),
            400_000,
            7,
        );
        b.iter(|| generate(black_box(&profile), &cfg).ops.len())
    });
}

fn bench_tracepack(c: &mut Criterion) {
    use califorms_sim::tracepack::TracePack;
    let w = generate(
        &spec::by_name("libquantum").unwrap(),
        &WorkloadConfig::with_policy(
            califorms_layout::InsertionPolicy::intelligent_1_to(7),
            10_000,
            7,
        ),
    );
    let pack = w.to_pack();

    c.bench_function("pack_encode_10k", |b| {
        b.iter(|| TracePack::from_ops(black_box(&w.ops).iter().copied()).len_ops())
    });
    c.bench_function("pack_batch_decode_10k", |b| {
        b.iter(|| {
            let mut dec = black_box(&pack).decoder();
            let mut ring = [TraceOp::Exec(0); Engine::REPLAY_BATCH];
            let mut n = 0usize;
            loop {
                let k = dec.next_batch(&mut ring).unwrap();
                if k == 0 {
                    break;
                }
                n += k;
            }
            n
        })
    });
    c.bench_function("replay_packed_10k", |b| {
        b.iter(|| {
            Engine::westmere()
                .replay(black_box(&pack), None)
                .stats
                .cycles
        })
    });
    c.bench_function("replay_iter_10k", |b| {
        b.iter(|| {
            Engine::westmere()
                .run(black_box(&w.ops).iter().copied())
                .stats
                .cycles
        })
    });
    c.bench_function("replay_legacy_10k", |b| {
        b.iter(|| {
            califorms_bench::legacy_replay::run_legacy(Box::new(black_box(&w.ops).iter().copied()))
                .0
                .cycles
        })
    });
}

criterion_group!(
    benches,
    bench_spill_fill,
    bench_l1_check,
    bench_cform,
    bench_hierarchy,
    bench_layout,
    bench_alloc,
    bench_workload_generation,
    bench_tracepack
);
criterion_main!(benches);
