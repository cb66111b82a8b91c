//! Executable attack scenarios (Sections 7.2–7.3) run against the
//! simulated Califorms machine.
//!
//! Every scenario builds a victim heap through the real allocator (so the
//! `CFORM` discipline, quarantine and zeroing are all in effect) and then
//! performs the attacker's accesses through the simulated hierarchy, where
//! the L1 Califorms checker does the detecting.

use califorms_alloc::{AllocatorConfig, CaliformsHeap};
use califorms_layout::{CaliformedLayout, InsertionPolicy, StructDef};
use califorms_sim::lsq::{ForwardResult, LoadStoreQueue};
use califorms_sim::multicore::{MulticoreConfig, MulticoreEngine, Source};
use califorms_sim::{Engine, TraceOp};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How an attack ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackOutcome {
    /// A Califorms exception fired.
    Detected {
        /// Faulting address.
        fault_addr: u64,
        /// Attacker accesses performed before detection (inclusive).
        after_accesses: u64,
    },
    /// The attack completed without touching a security byte.
    Undetected {
        /// Attacker accesses performed.
        accesses: u64,
    },
}

impl AttackOutcome {
    /// Whether the defence caught the attack.
    pub fn detected(&self) -> bool {
        matches!(self, AttackOutcome::Detected { .. })
    }
}

/// A named attack result.
#[derive(Debug, Clone)]
pub struct AttackReport {
    /// Scenario name.
    pub name: &'static str,
    /// Outcome.
    pub outcome: AttackOutcome,
}

fn victim_heap() -> (Engine, CaliformsHeap) {
    (
        Engine::westmere(),
        CaliformsHeap::new(0x1000_0000, AllocatorConfig::default()),
    )
}

fn apply_ops(engine: &mut Engine, ops: &mut Vec<TraceOp>) {
    for op in ops.drain(..) {
        engine.step(op);
    }
}

fn layout(policy: InsertionPolicy, seed: u64) -> CaliformedLayout {
    let mut rng = SmallRng::seed_from_u64(seed);
    policy.apply(&StructDef::paper_example(), &mut rng)
}

/// Intra-object linear overflow: the attacker writes past the end of
/// `buf`, aiming at the function pointer `fp` behind it (the motivating
/// attack for byte-granular blacklisting).
pub fn intra_object_overflow(policy: InsertionPolicy, seed: u64) -> AttackReport {
    let (mut engine, mut heap) = victim_heap();
    let mut ops = Vec::new();
    let l = layout(policy, seed);
    let base = heap.malloc(&l, &mut ops);
    apply_ops(&mut engine, &mut ops);

    let buf = l.field_offset("buf").expect("paper example has buf") as u64;
    let fp = l.field_offset("fp").expect("paper example has fp") as u64;
    // Linear overflow: byte stores from buf start, past its 64 B, up to
    // and including the first byte of fp.
    let mut accesses = 0u64;
    for off in buf..=fp {
        accesses += 1;
        let before = engine.delivered_exceptions().len();
        engine.step(TraceOp::Store {
            addr: base + off,
            size: 1,
        });
        if engine.delivered_exceptions().len() > before {
            return AttackReport {
                name: "intra-object overflow",
                outcome: AttackOutcome::Detected {
                    fault_addr: engine.delivered_exceptions()[before].fault_addr,
                    after_accesses: accesses,
                },
            };
        }
    }
    AttackReport {
        name: "intra-object overflow",
        outcome: AttackOutcome::Undetected { accesses },
    }
}

/// Intra-object overread: same trajectory with loads (the case canaries
/// cannot catch — they only detect overwrites, Section 9).
pub fn intra_object_overread(policy: InsertionPolicy, seed: u64) -> AttackReport {
    let (mut engine, mut heap) = victim_heap();
    let mut ops = Vec::new();
    let l = layout(policy, seed);
    let base = heap.malloc(&l, &mut ops);
    apply_ops(&mut engine, &mut ops);

    let buf = l.field_offset("buf").unwrap() as u64;
    let fp = l.field_offset("fp").unwrap() as u64;
    let mut accesses = 0u64;
    for off in buf..=fp {
        accesses += 1;
        let before = engine.delivered_exceptions().len();
        engine.step(TraceOp::Load {
            addr: base + off,
            size: 1,
        });
        if engine.delivered_exceptions().len() > before {
            return AttackReport {
                name: "intra-object overread",
                outcome: AttackOutcome::Detected {
                    fault_addr: engine.delivered_exceptions()[before].fault_addr,
                    after_accesses: accesses,
                },
            };
        }
    }
    AttackReport {
        name: "intra-object overread",
        outcome: AttackOutcome::Undetected { accesses },
    }
}

/// Cross-core probe — the multi-core extension of the Section 7.2
/// heterogeneous-observer hazard: the victim (core 0) allocates a
/// califormed object and initialises it, leaving its lines **Modified in
/// the victim's L1**; the attacker (core 1) then sweeps the object from
/// another core. Every probed line is recalled through a cache-to-cache
/// transfer — a real bitvector→sentinel spill in the victim's L1 and a
/// sentinel→bitvector fill in the attacker's — and the attacker's L1
/// checker must trap at exactly the byte a same-core sweep would trap at.
pub fn cross_core_probe(policy: InsertionPolicy, seed: u64) -> AttackReport {
    let l = layout(policy, seed);

    // Victim shard: the instrumented allocator's CFORMs plus one store
    // per field, so the object's lines end up dirty and owned (M).
    let mut heap = CaliformsHeap::new(0x1000_0000, AllocatorConfig::default());
    let mut victim_ops = Vec::new();
    let base = heap.malloc(&l, &mut victim_ops);
    for f in &l.fields {
        victim_ops.push(TraceOp::Store {
            addr: base + f.offset as u64,
            size: f.size.min(8) as u8,
        });
    }

    // Attacker shard: sit out the victim's setup (a quantum boundary
    // makes prior-quantum state visible), then sweep byte by byte
    // from `buf` towards the function pointer behind it.
    let buf = l.field_offset("buf").expect("paper example has buf") as u64;
    let fp = l.field_offset("fp").expect("paper example has fp") as u64;
    let mut attacker_ops = vec![TraceOp::Exec(1_000_000)];
    for off in buf..=fp {
        attacker_ops.push(TraceOp::Load {
            addr: base + off,
            size: 1,
        });
    }

    let engine = MulticoreEngine::new(MulticoreConfig::westmere(2));
    let (out, _) = engine
        .replay(Source::Shards(vec![victim_ops, attacker_ops]))
        .expect("cross-core probe replays");
    let name = "cross-core probe";
    match out.exceptions[1].first() {
        Some(exc) => AttackReport {
            name,
            outcome: AttackOutcome::Detected {
                fault_addr: exc.fault_addr,
                after_accesses: exc.fault_addr - (base + buf) + 1,
            },
        },
        None => AttackReport {
            name,
            outcome: AttackOutcome::Undetected {
                accesses: fp - buf + 1,
            },
        },
    }
}

/// Use-after-free: read a freed object through a stale pointer. The
/// clean-before-use + quarantine heap keeps the region califormed, so the
/// very first dereference faults.
pub fn use_after_free(policy: InsertionPolicy, seed: u64) -> AttackReport {
    let (mut engine, mut heap) = victim_heap();
    let mut ops = Vec::new();
    let l = layout(policy, seed);
    let base = heap.malloc(&l, &mut ops);
    heap.free(base, &mut ops);
    apply_ops(&mut engine, &mut ops);

    let before = engine.delivered_exceptions().len();
    engine.step(TraceOp::Load {
        addr: base,
        size: 8,
    });
    if engine.delivered_exceptions().len() > before {
        AttackReport {
            name: "use-after-free",
            outcome: AttackOutcome::Detected {
                fault_addr: engine.delivered_exceptions()[before].fault_addr,
                after_accesses: 1,
            },
        }
    } else {
        AttackReport {
            name: "use-after-free",
            outcome: AttackOutcome::Undetected { accesses: 1 },
        }
    }
}

/// Memory-scan derandomisation (Section 7.3): the attacker sweeps object
/// by object looking for a target, touching every byte. Returns how many
/// **objects** were fully scanned before the first detection, for
/// comparison against the `(1 − P/N)^O` model.
pub fn heap_scan(policy: InsertionPolicy, objects: usize, seed: u64) -> AttackReport {
    let (mut engine, mut heap) = victim_heap();
    let mut ops = Vec::new();
    let l = layout(policy, seed);
    let bases: Vec<u64> = (0..objects).map(|_| heap.malloc(&l, &mut ops)).collect();
    apply_ops(&mut engine, &mut ops);

    let mut accesses = 0u64;
    for &base in &bases {
        for off in 0..l.size as u64 {
            accesses += 1;
            let before = engine.delivered_exceptions().len();
            engine.step(TraceOp::Load {
                addr: base + off,
                size: 1,
            });
            if engine.delivered_exceptions().len() > before {
                return AttackReport {
                    name: "heap scan",
                    outcome: AttackOutcome::Detected {
                        fault_addr: engine.delivered_exceptions()[before].fault_addr,
                        after_accesses: accesses,
                    },
                };
            }
        }
    }
    AttackReport {
        name: "heap scan",
        outcome: AttackOutcome::Undetected { accesses },
    }
}

/// Span-width guessing (the `1/7ⁿ` analysis): the attacker knows the field
/// order (source access) but not this build's random span widths, and
/// tries to land exactly on the first byte of the field after `buf` by
/// jumping a guessed width. Returns `(successes, detections, trials)`.
pub fn jump_over_trials(max_width: u8, trials: u32, seed: u64) -> (u32, u32, u32) {
    use califorms_layout::{CType, Field};
    // A byte-aligned boundary, so the inserted span is exactly the drawn
    // 1–max width (an 8-byte-aligned next field would fold alignment fill
    // into the span and skew the distribution the paper analyses).
    let def = StructDef::new(
        "victim",
        vec![
            Field::new("buf", CType::char_array(16)),
            Field::new("tgt", CType::char_array(8)),
        ],
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut successes = 0u32;
    let mut detections = 0u32;
    for t in 0..trials {
        // Fresh victim build with its own compile-time randomness.
        let mut build_rng = SmallRng::seed_from_u64(seed ^ u64::from(t).wrapping_mul(0x9E37));
        let l = InsertionPolicy::Full {
            min: 1,
            max: max_width,
        }
        .apply(&def, &mut build_rng);
        let (mut engine, mut heap) = victim_heap();
        let mut ops = Vec::new();
        let base = heap.malloc(&l, &mut ops);
        apply_ops(&mut engine, &mut ops);

        let buf_end = l.field_offset("buf").unwrap() as u64 + 16;
        let tgt = l.field_offset("tgt").unwrap() as u64;
        let guess = u64::from(rng.gen_range(1..=max_width));
        let target = base + buf_end + guess; // hoped to be tgt's first byte
        let before = engine.delivered_exceptions().len();
        engine.step(TraceOp::Store {
            addr: target,
            size: 1,
        });
        if engine.delivered_exceptions().len() > before {
            detections += 1;
        } else if target == base + tgt {
            successes += 1;
        }
    }
    (successes, detections, trials)
}

/// Speculative-probe resistance (Section 7.2): a speculative load of a
/// security byte must observe **zero**, not stale secret data, both from
/// the cache and from the LSQ (`CFORM` never store-forwards).
pub fn speculative_probe(seed: u64) -> AttackReport {
    let (mut engine, mut heap) = victim_heap();
    let mut ops = Vec::new();
    let l = layout(InsertionPolicy::full_1_to(7), seed);
    let base = heap.malloc(&l, &mut ops);
    apply_ops(&mut engine, &mut ops);
    // Victim writes a secret into its first field, then frees the object —
    // freeing califorms *and zeroes* the memory.
    engine.step(TraceOp::Store {
        addr: base,
        size: 1,
    });
    heap.free(base, &mut ops);
    apply_ops(&mut engine, &mut ops);

    // Attacker speculatively loads the freed secret's address. The
    // architectural value must be zero (no stale data), and the exception
    // is deferred — exactly what breaks the Spectre-style gadget.
    let mut loaded = Vec::new();
    engine
        .hierarchy
        .load(0, base, 1, u64::MAX, Some(&mut loaded));
    let leaked = loaded[0] != 0;

    // LSQ leg: a load younger than an in-flight CFORM gets zeros too.
    let mut lsq = LoadStoreQueue::new();
    lsq.push_store(base, vec![0x5E]); // older secret store in flight
    lsq.push_cform(base & !63, 1 << (base & 63)); // CFORM covering it
    let lsq_leaked = match lsq.resolve_load(base, 1) {
        ForwardResult::CformMatch { data } => data[0] != 0,
        other => panic!("expected CformMatch, got {other:?}"),
    };

    AttackReport {
        name: "speculative probe",
        outcome: if leaked || lsq_leaked {
            AttackOutcome::Undetected { accesses: 1 } // leak = defence failed
        } else {
            AttackOutcome::Detected {
                fault_addr: base,
                after_accesses: 1,
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_detected_under_full_and_intelligent() {
        for policy in [
            InsertionPolicy::full_1_to(7),
            InsertionPolicy::intelligent_1_to(7),
        ] {
            let r = intra_object_overflow(policy, 1);
            assert!(r.outcome.detected(), "{policy:?} must fence buf");
        }
    }

    #[test]
    fn overflow_missed_without_protection() {
        let r = intra_object_overflow(InsertionPolicy::None, 1);
        assert!(!r.outcome.detected());
        // buf→fp has no natural padding in the paper example, so the
        // opportunistic policy cannot catch this either (the paper's
        // "restricting the remaining attack surface" caveat).
        let r = intra_object_overflow(InsertionPolicy::Opportunistic, 1);
        assert!(!r.outcome.detected());
    }

    #[test]
    fn overread_detected_like_overwrite() {
        let r = intra_object_overread(InsertionPolicy::intelligent_1_to(7), 2);
        assert!(r.outcome.detected(), "tripwires catch overreads too");
    }

    #[test]
    fn detection_happens_at_first_span_byte() {
        let r = intra_object_overflow(InsertionPolicy::full_1_to(3), 3);
        match r.outcome {
            AttackOutcome::Detected { after_accesses, .. } => {
                // buf is 64 bytes; the 65th access is the first span byte.
                assert_eq!(after_accesses, 65);
            }
            _ => panic!("must detect"),
        }
    }

    #[test]
    fn cross_core_probe_traps_identically_to_same_core_probe() {
        for policy in [
            InsertionPolicy::full_1_to(7),
            InsertionPolicy::intelligent_1_to(7),
        ] {
            let same_core = intra_object_overread(policy, 11);
            let cross_core = cross_core_probe(policy, 11);
            assert!(cross_core.outcome.detected(), "{policy:?} must trap");
            assert_eq!(
                cross_core.outcome, same_core.outcome,
                "{policy:?}: the remote observer must fault at the same byte"
            );
        }
    }

    #[test]
    fn cross_core_probe_missed_without_protection() {
        let r = cross_core_probe(InsertionPolicy::None, 11);
        assert!(!r.outcome.detected());
    }

    #[test]
    fn uaf_detected_even_with_no_insertion_policy() {
        // Temporal safety comes from the allocator, not the spans.
        let r = use_after_free(InsertionPolicy::None, 4);
        assert!(r.outcome.detected());
    }

    #[test]
    fn heap_scan_is_caught_quickly_with_padding() {
        let r = heap_scan(InsertionPolicy::full_1_to(7), 50, 5);
        match r.outcome {
            AttackOutcome::Detected { after_accesses, .. } => {
                // The first object already contains spans; a linear scan
                // cannot cross it.
                assert!(after_accesses <= 200, "caught within ~1 object");
            }
            _ => panic!("scan must be detected"),
        }
    }

    #[test]
    fn heap_scan_survives_with_no_security_bytes() {
        let r = heap_scan(InsertionPolicy::None, 10, 6);
        assert!(!r.outcome.detected());
    }

    #[test]
    fn jump_over_success_rate_is_about_one_in_seven() {
        let (successes, detections, trials) = jump_over_trials(7, 3_000, 8);
        let rate = f64::from(successes) / f64::from(trials);
        assert!(
            (rate - 1.0 / 7.0).abs() < 0.03,
            "success rate {rate:.3} vs 1/7 ≈ 0.143"
        );
        // Guessing short lands inside the span: detected ~ 3/7 of trials.
        let det = f64::from(detections) / f64::from(trials);
        assert!(
            (det - 3.0 / 7.0).abs() < 0.04,
            "detection rate {det:.3} vs 3/7 ≈ 0.429"
        );
    }

    #[test]
    fn speculation_never_leaks() {
        let r = speculative_probe(9);
        assert!(r.outcome.detected(), "zero-return must hold on both paths");
    }
}
