//! Multi-core tour: replay a read-mostly shared table on 4 cores over
//! the MESI-coherent califormed hierarchy, watch the coherence counters,
//! then let an attacker core probe a line the victim core owns.
//!
//! ```sh
//! cargo run --example multicore
//! ```

use califorms::layout::InsertionPolicy;
use califorms::security::attacks::cross_core_probe;
use califorms::sim::multicore::{MulticoreConfig, MulticoreEngine, Source};
use califorms::sim::{HierarchyConfig, TraceOp};
use califorms::workloads::{generate_mt, run_mt, MtPattern, MtWorkloadConfig};

fn main() {
    // --- 1. Many concurrent users over one hot table. -------------------
    // 97 % loads of a shared 128 KB table, rare updates; every table line
    // carries a 7-byte security span installed by CFORMs, so each
    // cross-core transfer runs the real bitvector↔sentinel conversions.
    let workload = generate_mt(&MtWorkloadConfig {
        pattern: MtPattern::SharedTable,
        cores: 4,
        ops_per_core: 10_000,
        seed: 7,
        califormed: true,
    });
    let stats = run_mt(&workload, HierarchyConfig::westmere());
    println!("shared-table on {} cores:", stats.cores());
    for (c, s) in stats.per_core.iter().enumerate() {
        println!(
            "  core {c}: {:>6} instrs, {:>9.0} cycles, IPC {:.2}, L1 miss {:.1}%",
            s.instructions,
            s.cycles,
            s.ipc(),
            s.l1d.miss_ratio() * 100.0
        );
    }
    let coh = &stats.combined.coherence;
    println!(
        "  aggregate IPC {:.2} | invalidations {} | S→M upgrades {} | \
         cache-to-cache {} (califormed: {})",
        stats.aggregate_ipc(),
        coh.invalidations,
        coh.upgrades_s_to_m,
        coh.cache_to_cache_transfers,
        coh.califormed_transfers
    );
    assert_eq!(
        stats.combined.exceptions_delivered, 0,
        "legit threads never fault"
    );

    // --- 2. The hazard: a remote core probing an owned line. ------------
    // Victim (core 0) blacklists byte 21 of a line and keeps it Modified;
    // the attacker (core 1) probes it. The recall spills the line in the
    // victim's L1, the attacker's fill re-derives the bit vector, and the
    // probe traps at the exact byte.
    let line = 0x2000u64;
    let victim = vec![
        TraceOp::Store {
            addr: line,
            size: 8,
        },
        TraceOp::Cform {
            line_addr: line,
            attrs: 1 << 21,
            mask: 1 << 21,
        },
    ];
    let attacker = vec![
        TraceOp::Exec(100_000), // let the victim finish its setup quantum
        TraceOp::Load {
            addr: line + 21,
            size: 1,
        },
    ];
    let (out, _) = MulticoreEngine::new(MulticoreConfig::westmere(2))
        .replay(Source::Shards(vec![victim, attacker]))
        .expect("cross-core probe replays");
    let exc = out.exceptions[1][0];
    println!(
        "cross-core probe of byte 21: trapped at {:#x} (expected {:#x})",
        exc.fault_addr,
        line + 21
    );
    assert_eq!(exc.fault_addr, line + 21);

    // --- 3. The same result through the full attack scenario. -----------
    let report = cross_core_probe(InsertionPolicy::full_1_to(7), 7);
    println!("{}: {:?}", report.name, report.outcome);
    assert!(report.outcome.detected(), "remote sweeps must be caught");
}
