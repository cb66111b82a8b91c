//! Integration tests of the multi-core subsystem (DESIGN.md §7):
//! cross-core detection at the exact faulting byte, bit-identical
//! determinism of the threaded quantum replay, and the conversion
//! invariants under coherence.

use califorms_sim::coherence::{CoherenceConfig, CoherentHierarchy};
use califorms_sim::multicore::{MulticoreConfig, MulticoreEngine, Source};
use califorms_sim::{Engine, HierarchyConfig, TraceOp, LINE_BYTES};
use proptest::prelude::*;

#[test]
fn cross_core_security_byte_access_traps_at_exact_byte() {
    // Victim (core 0) fills a line and blacklists byte 37; the line stays
    // Modified in core 0's L1. Attacker (core 1) waits out the setup
    // quantum, then sweeps bytes 36..=38 from the other core.
    let line = 0x2000u64;
    let victim = vec![
        TraceOp::Store {
            addr: line,
            size: 8,
        },
        TraceOp::Cform {
            line_addr: line,
            attrs: 1 << 37,
            mask: 1 << 37,
        },
    ];
    let attacker = vec![
        TraceOp::Exec(200_000),
        TraceOp::Load {
            addr: line + 36,
            size: 1,
        },
        TraceOp::Load {
            addr: line + 37,
            size: 1,
        },
        TraceOp::Load {
            addr: line + 38,
            size: 1,
        },
    ];
    let out = MulticoreEngine::new(MulticoreConfig::westmere(2))
        .replay(Source::Shards(vec![victim, attacker]))
        .expect("replay")
        .0;

    assert_eq!(
        out.stats.per_core[0].exceptions_delivered, 0,
        "victim is clean"
    );
    assert_eq!(out.stats.per_core[1].exceptions_delivered, 1);
    assert_eq!(out.exceptions[1].len(), 1);
    assert_eq!(
        out.exceptions[1][0].fault_addr,
        line + 37,
        "trap lands on the exact probed security byte"
    );
    // The probe forced a cache-to-cache transfer of a califormed line.
    assert_eq!(out.stats.combined.coherence.cache_to_cache_transfers, 1);
    assert_eq!(out.stats.combined.coherence.califormed_transfers, 1);
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// A pseudo-random shard mixing shared loads/stores, private traffic,
/// `CFORM`s and compute — enough entropy that any scheduling leak in the
/// engine would show up as diverging stats.
fn chaotic_shard(core: u64, seed: u64, n: usize) -> Vec<TraceOp> {
    const SHARED: u64 = 0x9000_0000;
    let mut s = seed ^ core.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let x = xorshift(&mut s);
        let shared_addr = SHARED + (x >> 8) % 256 * LINE_BYTES + (x >> 24) % 8 * 8;
        match x % 10 {
            0..=4 => ops.push(TraceOp::Load {
                addr: shared_addr,
                size: 8,
            }),
            5..=6 => ops.push(TraceOp::Store {
                addr: shared_addr,
                size: 8,
            }),
            7 => ops.push(TraceOp::Store {
                addr: 0xA000_0000 + core * 0x10_0000 + (x >> 16) % 4096 * 8,
                size: 8,
            }),
            8 => ops.push(TraceOp::Exec((x % 24) as u32)),
            _ => ops.push(TraceOp::Cform {
                line_addr: SHARED + (x >> 8) % 256 * LINE_BYTES,
                attrs: 1 << (x % 64),
                mask: 1 << (x % 64),
            }),
        }
    }
    ops
}

#[test]
fn same_seed_runs_are_bit_identical() {
    let run = || {
        let shards: Vec<_> = (0..4)
            .map(|c| chaotic_shard(c, 0xDEAD_BEEF, 4_000))
            .collect();
        MulticoreEngine::new(MulticoreConfig::westmere(4))
            .replay(Source::Shards(shards))
            .expect("replay")
            .0
    };
    let a = run();
    let b = run();
    // Bit-identical across runs (and therefore across host thread
    // schedules): every counter, every cycle count, every exception.
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.exceptions, b.exceptions);
    // And the chaos actually exercised the machine.
    assert!(a.stats.combined.coherence.invalidations > 0);
    assert!(
        a.stats.combined.exceptions_delivered > 0,
        "rogue CFORM traffic traps"
    );
}

#[test]
fn different_seeds_diverge() {
    let run = |seed| {
        let shards: Vec<_> = (0..2).map(|c| chaotic_shard(c, seed, 1_000)).collect();
        MulticoreEngine::new(MulticoreConfig::westmere(2))
            .replay(Source::Shards(shards))
            .expect("replay")
            .0
    };
    assert_ne!(run(1).stats, run(2).stats);
}

fn expand(half: [u8; 32]) -> [u8; 64] {
    let mut data = [0u8; 64];
    for (i, b) in data.iter_mut().enumerate() {
        *b = half[i % 32].wrapping_add(i as u8);
    }
    data
}

/// A hand-built shard carrying a wrapping access fails the same way on
/// both engines: the single-core engine panics, the multi-core engine
/// returns the panic as a typed error — in release builds too, where an
/// unchecked end of the range would wrap and make the access a silent
/// no-op.
#[test]
fn a_wrapping_access_in_a_shard_fails_on_both_engines() {
    for op in [
        TraceOp::Load {
            addr: u64::MAX - 3,
            size: 8,
        },
        TraceOp::Store {
            addr: u64::MAX - 3,
            size: 8,
        },
    ] {
        let single = std::panic::catch_unwind(|| Engine::westmere().run([op]));
        let message = single.expect_err("the single-core engine must refuse the access");
        let message = message
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert!(
            message.contains("wraps past the address space"),
            "{message}"
        );

        let err = MulticoreEngine::new(MulticoreConfig::westmere(1))
            .replay(Source::Shards(vec![vec![op]]))
            .expect_err("the multi-core engine must refuse the access");
        assert_eq!(err.core(), Some(0));
        assert!(
            err.to_string().contains("wraps past the address space"),
            "{err}"
        );
    }
}

proptest! {
    /// Invariant (conversion under coherence): a califormed line
    /// round-tripped through spill → cross-core transfer → fill preserves
    /// `(data, mask)` and the zeroing invariant for arbitrary masks.
    #[test]
    fn califormed_line_survives_cross_core_transfer(
        half in proptest::array::uniform32(any::<u8>()),
        mask in any::<u64>(),
    ) {
        let line = 0x4_0000u64;
        let data = expand(half);
        let mut h = CoherentHierarchy::new(
            HierarchyConfig::westmere(),
            CoherenceConfig::westmere(),
            2,
        );
        // Core 0 fills the line (fresh: no security bytes, store is clean),
        // then installs the arbitrary mask — the line is now Modified and
        // dirty in core 0's L1, in bitvector format.
        prop_assert!(h.store(0, line, &data, 0).exception.is_none());
        let insn = califorms_core::CformInstruction::new(line, mask, mask);
        prop_assert!(h.cform(0, &insn, 1).exception.is_none());

        // Core 1 reads the whole line: core 0 spills (Algorithm 1), the
        // sentinel line crosses the interconnect, core 1 fills
        // (Algorithm 2).
        let mut loaded = Vec::new();
        let r = h.load(1, line, 64, 2, Some(&mut loaded));
        prop_assert_eq!(r.exception.is_some(), mask != 0);
        for (i, &got) in loaded.iter().enumerate() {
            if mask >> i & 1 == 1 {
                prop_assert_eq!(got, 0, "security byte {} must read zero", i);
                prop_assert!(h.peek_is_security_byte(line + i as u64));
            } else {
                prop_assert_eq!(got, data[i], "data byte {} must survive", i);
            }
        }
        prop_assert_eq!(h.peek_mask(line), mask, "mask survives the round-trip");
        if mask != 0 {
            prop_assert_eq!(h.coherence_totals().califormed_transfers, 1);
        }
    }
}
