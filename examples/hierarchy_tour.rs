//! A tour of the simulated memory hierarchy: watch a califormed line get
//! evicted from the L1 (bitvector → sentinel spill), travel down to DRAM
//! with its single metadata bit, and come back (fill) with its security
//! bytes intact.
//!
//! ```sh
//! cargo run --example hierarchy_tour
//! ```

use califorms::sim::{Engine, TraceOp};

fn main() {
    let mut engine = Engine::westmere();
    let victim = 0x4_0000u64;

    // Write recognisable data and blacklist two interior bytes.
    engine.step(TraceOp::Store {
        addr: victim,
        size: 8,
    });
    engine.step(TraceOp::Cform {
        line_addr: victim,
        attrs: 1 << 20 | 1 << 41,
        mask: 1 << 20 | 1 << 41,
    });
    println!("line {victim:#x}: bytes 20 and 41 califormed (L1 bitvector format)");

    // Thrash the L1 set (32 KB / 8 ways / 64 B lines = 64 sets → stride 4 KB).
    for i in 1..=16u64 {
        engine.step(TraceOp::Load {
            addr: victim + i * 4096,
            size: 8,
        });
    }
    let spills = engine.hierarchy.spills();
    println!("after thrashing the set: {spills} califormed spill(s) L1 -> L2 (sentinel format)");
    assert!(spills >= 1);

    // Functional peek does not disturb the caches: the security bytes are
    // visible wherever the line currently lives.
    assert!(engine.hierarchy.peek_is_security_byte(victim + 20));
    assert!(engine.hierarchy.peek_is_security_byte(victim + 41));
    assert!(!engine.hierarchy.peek_is_security_byte(victim + 21));
    println!("security bytes survive in sentinel format below the L1");

    // Touch the line again: it fills back into the L1 (sentinel -> bitvector).
    engine.step(TraceOp::Load {
        addr: victim,
        size: 8,
    });
    let fills = engine.hierarchy.fills();
    println!("line re-filled into L1: {fills} califormed fill(s) so far");

    // Data integrity across the conversions.
    let mut data = Vec::new();
    let r = engine.hierarchy.load(0, victim, 8, 0, Some(&mut data));
    assert!(r.exception.is_none());
    println!("original data intact after spill+fill: {data:02x?}");

    // And the tripwire still fires.
    engine.step(TraceOp::Load {
        addr: victim + 20,
        size: 1,
    });
    let exc = engine
        .delivered_exceptions()
        .first()
        .expect("rogue access detected");
    println!("tripwire still armed after the round trip: {exc}");

    let stats = engine.finish().stats;
    println!();
    println!(
        "run stats: {} instructions, {:.0} cycles, L1 miss ratio {:.1}%, {} spills / {} fills",
        stats.instructions,
        stats.cycles,
        stats.l1d.miss_ratio() * 100.0,
        stats.spills,
        stats.fills,
    );
}
