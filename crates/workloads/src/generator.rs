//! Turns a benchmark profile into a deterministic trace.
//!
//! A generated workload has two phases:
//!
//! 1. **Warmup** — the live object population is allocated through
//!    [`CaliformsHeap`], which emits the `CFORM`s the instrumented
//!    `malloc` would issue (plus its bookkeeping instructions).
//! 2. **Steady state** — `steady_ops` memory operations drawn from the
//!    profile's access mix (field accesses, array streams, pointer chases)
//!    interleaved with allocation churn and the profile's compute
//!    instructions.
//!
//! The *same* `(profile, seed, steady_ops)` triple generates the same
//! logical work under every insertion policy; only the object layouts —
//! and therefore addresses, cache behaviour and allocator-emitted ops —
//! differ. Slowdowns between two runs thus isolate exactly the effects the
//! paper measures: cache underutilisation from security bytes, and the
//! work of issuing `CFORM`s.

use crate::spec::BenchmarkProfile;
use califorms_alloc::{AllocatorConfig, CaliformsHeap};
use califorms_layout::{CaliformedLayout, InsertionPolicy};
use califorms_sim::TraceOp;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Workload generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Security-byte insertion policy applied to the benchmark's types.
    pub policy: InsertionPolicy,
    /// Whether the allocator issues `CFORM`s (the ±CFORM series of
    /// Figures 11/12).
    pub emit_cforms: bool,
    /// Steady-state memory operations to generate.
    pub steady_ops: usize,
    /// Seed for both the compiler's span randomisation and the access
    /// stream.
    pub seed: u64,
}

impl WorkloadConfig {
    /// Baseline: natural layout, no security bytes, no `CFORM`s.
    pub fn baseline(steady_ops: usize, seed: u64) -> Self {
        Self {
            policy: InsertionPolicy::None,
            emit_cforms: false,
            steady_ops,
            seed,
        }
    }

    /// A policy run with `CFORM`s on.
    pub fn with_policy(policy: InsertionPolicy, steady_ops: usize, seed: u64) -> Self {
        Self {
            policy,
            emit_cforms: true,
            steady_ops,
            seed,
        }
    }

    /// A policy run with `CFORM`s off (cache-underutilisation reference).
    pub fn without_cforms(policy: InsertionPolicy, steady_ops: usize, seed: u64) -> Self {
        Self {
            policy,
            emit_cforms: false,
            steady_ops,
            seed,
        }
    }
}

/// A generated workload, ready to run through [`califorms_sim::Engine`].
#[derive(Debug, Clone)]
pub struct Workload {
    /// Benchmark name.
    pub name: String,
    /// The trace. The first [`Self::warmup_len`] operations build the
    /// live-object population; measurement starts after them (the paper
    /// measures SimPoint steady-state regions, not program startup).
    pub ops: Vec<TraceOp>,
    /// Number of leading warmup operations.
    pub warmup_len: usize,
    /// The profile's memory-level-parallelism for
    /// [`califorms_sim::CoreConfig::with_overlap`].
    pub overlap: f64,
    /// Califormed object size (bytes).
    pub object_size: usize,
    /// Natural object size (bytes).
    pub natural_object_size: usize,
    /// Security bytes per object.
    pub security_bytes_per_object: usize,
}

impl Workload {
    /// Encodes the whole trace (warmup + steady state) into a
    /// [`TracePack`](califorms_sim::TracePack) for the batch-decoding
    /// replay path ([`califorms_sim::Engine::replay`]).
    pub fn to_pack(&self) -> califorms_sim::TracePack {
        califorms_sim::TracePack::from_ops(self.ops.iter().copied())
    }

    /// Encodes only the steady-state region (after
    /// [`Self::warmup_len`]) — the part the paper measures.
    pub fn steady_pack(&self) -> califorms_sim::TracePack {
        califorms_sim::TracePack::from_ops(self.ops[self.warmup_len..].iter().copied())
    }
}

struct FieldSlot {
    offset: usize,
    size: usize,
}

/// Generates the trace for `profile` under `cfg`.
pub fn generate(profile: &BenchmarkProfile, cfg: &WorkloadConfig) -> Workload {
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ hash_name(profile.name));
    let defs = profile.struct_defs();
    let layouts: Vec<CaliformedLayout> = defs
        .iter()
        .map(|(def, _)| cfg.policy.apply(def, &mut rng))
        .collect();

    let heap_cfg = AllocatorConfig {
        emit_cforms: cfg.emit_cforms,
        // The paper's measured instrumentation: dummy stores per
        // to-be-califormed line, span lines only (Section 8.2); the
        // address/mask computation is a handful of instructions per line
        // (type layout is known statically at each call site).
        free_mode: califorms_alloc::FreeMode::SpanOnly,
        cform_setup_insns: 8,
        instrumented_call_insns: 64,
        ..AllocatorConfig::default()
    };
    let mut heap = CaliformsHeap::new(0x1000_0000, heap_cfg);
    let mut ops: Vec<TraceOp> = Vec::with_capacity(cfg.steady_ops * 2 + profile.live_objects * 2);

    // --- Warmup: build the live population (weighted type mix). ---
    let total_weight: u32 = defs.iter().map(|(_, w)| w).sum();
    let type_of = |i: usize| -> usize {
        // Deterministic round-robin honouring the weights.
        let slot = (i as u32) % total_weight;
        let mut acc = 0;
        for (t, (_, w)) in defs.iter().enumerate() {
            acc += w;
            if slot < acc {
                return t;
            }
        }
        unreachable!("weights cover the range")
    };
    let mut objects: Vec<(u64, usize)> = (0..profile.live_objects)
        .map(|i| {
            let t = type_of(i);
            let base = heap.malloc(&layouts[t], &mut ops);
            // Programs initialise what they allocate (constructor /
            // memset): one store per field, sweeping arrays line by line.
            // This also equalises cache warmth across configurations —
            // without it the CFORM variant's write-allocate fetches would
            // pre-warm its caches and bias the steady-state comparison.
            for f in &layouts[t].fields {
                if f.size > 8 {
                    let mut off = 0;
                    while off < f.size {
                        ops.push(TraceOp::Store {
                            addr: base + (f.offset + off) as u64,
                            size: 8.min(f.size - off) as u8,
                        });
                        off += 64;
                    }
                } else {
                    ops.push(TraceOp::Store {
                        addr: base + f.offset as u64,
                        size: f.size as u8,
                    });
                }
            }
            (base, t)
        })
        .collect();
    let warmup_len = ops.len();

    // Accessible field slots per type (never the security bytes — a
    // correct program only touches its fields).
    let slots: Vec<Vec<FieldSlot>> = layouts
        .iter()
        .map(|l| {
            l.fields
                .iter()
                .map(|f| FieldSlot {
                    offset: f.offset,
                    size: f.size.min(8),
                })
                .collect()
        })
        .collect();
    let arrays: Vec<Option<FieldSlot>> = layouts
        .iter()
        .map(|l| {
            l.fields
                .iter()
                .find(|f| f.name == "buf")
                .map(|f| FieldSlot {
                    offset: f.offset,
                    size: f.size,
                })
        })
        .collect();
    // Chase pointers live in node objects (type 0): their `next` field.
    let next_slot = layouts[0]
        .field_offset("next")
        .expect("node type has a next pointer");
    let node_objects: Vec<usize> = (0..objects.len()).filter(|&i| type_of(i) == 0).collect();
    let record_objects: Vec<usize> = (0..objects.len()).filter(|&i| type_of(i) == 1).collect();

    // Stack frames: dirty-before-use — spans set on entry, unset on exit
    // (Section 6.1). Only frames whose locals carry spans are
    // instrumented; the fixed hook cost matches the heap's.
    let frame_layout = cfg.policy.apply(&profile.frame_def(), &mut rng);
    let mut stack = califorms_alloc::CaliformsStack::new(0x7FFF_FF00_0000 & !63);
    stack.emit_cforms = cfg.emit_cforms;
    stack.cform_setup_insns = 8;
    let frame_hook = if cfg.emit_cforms && !frame_layout.security_spans.is_empty() {
        64
    } else {
        0
    };
    let frame_slots: Vec<FieldSlot> = frame_layout
        .fields
        .iter()
        .map(|f| FieldSlot {
            offset: f.offset,
            size: f.size.min(8),
        })
        .collect();

    // Non-struct global data (big arrays, tables): its layout is identical
    // under every policy, diluting the padding effect exactly as real
    // programs do.
    let global_base = 0x8000_0000u64;
    let global_bytes = (profile.natural_wss() as u64).max(64 * 1024);
    let mut global_cursor = 0u64;

    // --- Steady state. ---
    let mut emitted = 0usize;
    let mut chase_cursor = 0usize;
    while emitted < cfg.steady_ops {
        ops.push(TraceOp::Exec(jitter(&mut rng, profile.exec_per_mem)));

        // Global (policy-independent) accesses: mostly sequential sweeps
        // with occasional random hops.
        if rng.gen_range(0..100) < profile.global_pct {
            let addr = if rng.gen_range(0..4) == 0 {
                global_base + rng.gen_range(0..global_bytes / 8) * 8
            } else {
                global_cursor = (global_cursor + 8) % global_bytes;
                global_base + global_cursor
            };
            ops.push(TraceOp::Load { addr, size: 8 });
            emitted += 1;
            continue;
        }

        // Function-call events: push a frame, touch its locals, pop.
        if rng.gen_range(0..1000) < profile.calls_per_kop {
            if frame_hook > 0 {
                ops.push(TraceOp::Exec(frame_hook));
            }
            let fbase = stack.push_frame(&frame_layout, &mut ops);
            for s in frame_slots.iter().take(3) {
                ops.push(TraceOp::Store {
                    addr: fbase + s.offset as u64,
                    size: s.size as u8,
                });
                emitted += 1;
            }
            if frame_hook > 0 {
                ops.push(TraceOp::Exec(frame_hook));
            }
            stack.pop_frame(&mut ops);
            continue;
        }

        // Allocation churn. Hot churn is dominated by the small scalar
        // *record* type (interpreters and tree searches recycle cons
        // cells and board nodes, not buffer-bearing structs) — this is
        // what makes the intelligent policy's CFORM bill so much smaller
        // than the opportunistic one's in Figure 12: records carry no
        // arrays or pointers, so intelligent instrumentation skips them.
        if rng.gen_range(0..1000) < profile.churn_per_kop {
            let slot = if rng.gen_range(0..10) < 9 && !record_objects.is_empty() {
                record_objects[rng.gen_range(0..record_objects.len())]
            } else {
                rng.gen_range(0..objects.len())
            };
            let (base, t) = objects[slot];
            heap.free(base, &mut ops);
            objects[slot] = (heap.malloc(&layouts[t], &mut ops), t);
            emitted += 1;
            continue;
        }

        let roll = rng.gen_range(0..100);
        if roll < profile.chase_pct {
            // Dependent pointer chase over node objects: deterministic
            // permutation walk through their `next` fields.
            chase_cursor = (chase_cursor
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1))
                % node_objects.len();
            let (base, _) = objects[node_objects[chase_cursor]];
            ops.push(TraceOp::Load {
                addr: base + next_slot as u64,
                size: 8,
            });
            emitted += 1;
        } else if roll < profile.chase_pct + profile.stream_pct {
            // Stream sequentially over an array-bearing object (or the
            // whole object when the type has no array).
            let (base, t) = objects[rng.gen_range(0..objects.len())];
            match &arrays[t] {
                Some(a) => {
                    let mut off = a.offset;
                    while off + 8 <= a.offset + a.size && emitted < cfg.steady_ops {
                        ops.push(TraceOp::Load {
                            addr: base + off as u64,
                            size: 8,
                        });
                        off += 8;
                        emitted += 1;
                    }
                }
                None => {
                    for s in &slots[t] {
                        if emitted >= cfg.steady_ops {
                            break;
                        }
                        ops.push(TraceOp::Load {
                            addr: base + s.offset as u64,
                            size: s.size as u8,
                        });
                        emitted += 1;
                    }
                }
            }
        } else {
            // Random field access, 70 % loads / 30 % stores.
            let (base, t) = objects[rng.gen_range(0..objects.len())];
            let s = &slots[t][rng.gen_range(0..slots[t].len())];
            let op = if rng.gen_range(0..10) < 7 {
                TraceOp::Load {
                    addr: base + s.offset as u64,
                    size: s.size as u8,
                }
            } else {
                TraceOp::Store {
                    addr: base + s.offset as u64,
                    size: s.size as u8,
                }
            };
            ops.push(op);
            emitted += 1;
        }
    }

    let total_weight_us = total_weight as usize;
    let avg = |f: &dyn Fn(&CaliformedLayout) -> usize| -> usize {
        defs.iter()
            .zip(&layouts)
            .map(|((_, w), l)| f(l) * *w as usize)
            .sum::<usize>()
            / total_weight_us
    };
    Workload {
        name: profile.name.to_string(),
        ops,
        warmup_len,
        overlap: profile.overlap,
        object_size: avg(&|l| l.size),
        natural_object_size: avg(&|l| l.natural_size),
        security_bytes_per_object: avg(&|l| l.security_bytes()),
    }
}

/// Runs a workload and returns its statistics — the common driver the
/// benches and tests share.
pub fn run_workload(
    workload: &Workload,
    hcfg: califorms_sim::HierarchyConfig,
) -> califorms_sim::SimStats {
    let core = califorms_sim::CoreConfig::westmere().with_overlap(workload.overlap);
    let mut engine = califorms_sim::Engine::new(hcfg, core);
    for op in &workload.ops[..workload.warmup_len] {
        engine.step(*op);
    }
    let warmup_cycles = engine.cycles();
    for op in &workload.ops[workload.warmup_len..] {
        engine.step(*op);
    }
    let mut stats = engine.finish().stats;
    // Report steady-state cycles only (SimPoint-style region measurement).
    stats.cycles -= warmup_cycles;
    stats
}

fn jitter<R: Rng + ?Sized>(rng: &mut R, around: u32) -> u32 {
    if around == 0 {
        return 0;
    }
    let lo = (around * 3) / 4;
    let hi = (around * 5) / 4;
    rng.gen_range(lo..=hi.max(lo + 1))
}

fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Convenience: a layout for a profile under a policy, with the same
/// seeding as [`generate`] (used by attack experiments that need to know
/// where spans landed).
pub fn layout_for(
    profile: &BenchmarkProfile,
    policy: InsertionPolicy,
    seed: u64,
) -> CaliformedLayout {
    let mut rng = SmallRng::seed_from_u64(seed ^ hash_name(profile.name));
    policy.apply(&profile.struct_def(), &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::by_name;
    use califorms_sim::HierarchyConfig;

    fn quick(name: &str, cfg: WorkloadConfig) -> Workload {
        generate(&by_name(name).unwrap(), &cfg)
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = WorkloadConfig::baseline(5_000, 7);
        let a = quick("sjeng", cfg);
        let b = quick("sjeng", cfg);
        assert_eq!(a.ops, b.ops);
        let c = quick("sjeng", WorkloadConfig::baseline(5_000, 8));
        assert_ne!(a.ops, c.ops, "different seeds differ");
    }

    #[test]
    fn baseline_emits_no_cforms_and_no_exceptions() {
        let w = quick("gobmk", WorkloadConfig::baseline(5_000, 1));
        assert!(w.ops.iter().all(|op| !matches!(op, TraceOp::Cform { .. })));
        let stats = run_workload(&w, HierarchyConfig::westmere());
        assert_eq!(stats.exceptions_delivered, 0);
        assert_eq!(stats.cforms, 0);
    }

    #[test]
    fn policy_run_emits_cforms_but_no_exceptions() {
        // A *correct* program never touches its security bytes: the whole
        // point of the evaluation is that overhead comes without faults.
        let cfg = WorkloadConfig::with_policy(InsertionPolicy::full_1_to(7), 5_000, 1);
        let w = quick("perlbench", cfg);
        assert!(w.ops.iter().any(|op| matches!(op, TraceOp::Cform { .. })));
        let stats = run_workload(&w, HierarchyConfig::westmere());
        assert_eq!(
            stats.exceptions_delivered, 0,
            "legitimate accesses must never fault"
        );
        assert!(stats.cforms > 0);
        assert!(w.security_bytes_per_object > 0);
        assert!(w.object_size > w.natural_object_size);
    }

    #[test]
    fn opportunistic_does_not_grow_objects() {
        let cfg = WorkloadConfig::with_policy(InsertionPolicy::Opportunistic, 2_000, 3);
        let w = quick("astar", cfg);
        assert_eq!(w.object_size, w.natural_object_size);
        let stats = run_workload(&w, HierarchyConfig::westmere());
        assert_eq!(stats.exceptions_delivered, 0);
    }

    #[test]
    fn padding_costs_cycles_on_cache_hungry_benchmarks() {
        let steady = 30_000;
        let base = quick("mcf", WorkloadConfig::baseline(steady, 2));
        let padded = quick(
            "mcf",
            WorkloadConfig::without_cforms(InsertionPolicy::FixedPad(7), steady, 2),
        );
        let sb = run_workload(&base, HierarchyConfig::westmere());
        let sp = run_workload(&padded, HierarchyConfig::westmere());
        assert!(
            sp.cycles > sb.cycles,
            "7 B padding must slow a cache-hungry benchmark"
        );
    }

    #[test]
    fn compute_bound_benchmark_barely_notices_latency() {
        let steady = 20_000;
        let w = quick("hmmer", WorkloadConfig::baseline(steady, 4));
        let a = run_workload(&w, HierarchyConfig::westmere());
        let b = run_workload(&w, HierarchyConfig::westmere_plus_one_cycle());
        let slowdown = b.slowdown_vs(&a);
        assert!(
            (0.0..0.02).contains(&slowdown),
            "hmmer: +1 cycle should cost <2 %, got {slowdown:.4}"
        );
    }

    #[test]
    fn all_profiles_generate_and_run_clean() {
        for b in crate::spec::all_benchmarks() {
            let cfg = WorkloadConfig::with_policy(InsertionPolicy::intelligent_1_to(7), 800, 5);
            let w = generate(&b, &cfg);
            let stats = run_workload(&w, HierarchyConfig::westmere());
            assert_eq!(
                stats.exceptions_delivered, 0,
                "{}: legit run must be clean",
                b.name
            );
            assert!(stats.instructions > 0);
        }
    }
}
