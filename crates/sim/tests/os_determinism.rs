//! Regression test for the `os.rs` nondeterministic-map finding: page
//! swap and I/O-boundary results — *including map-iteration-derived
//! output* — must be bit-identical across repeated **fresh processes**.
//!
//! `SwapManager`'s device/metadata maps used the default `RandomState`
//! hasher, whose per-process seed makes iteration order differ between
//! two runs of the same binary; any stats or swap-storm path iterating
//! them would have broken the repo's same-seed ⇒ bit-identical invariant.
//! They now use the deterministic `LineMap` (DESIGN.md §12). This test
//! re-executes itself as two child processes and asserts the digest —
//! swapped-page iteration order, metadata accounting, swap round-trip
//! loads and `io_write` exports — is byte-identical in both.

use califorms_core::CformInstruction;
use califorms_sim::os::{io_write, SwapManager, PAGE_BYTES};
use califorms_sim::{CoherenceConfig, CoherentHierarchy, HierarchyConfig};
use std::process::Command;

/// Runs a scripted swap/IO workload and folds everything order-sensitive
/// into one printable digest string.
fn swap_io_digest() -> String {
    let mut h = CoherentHierarchy::new(HierarchyConfig::westmere(), CoherenceConfig::westmere(), 1);
    let mut swap = SwapManager::new();
    let mut digest = String::new();

    // Populate and caliform a spread of pages, swap them out in a
    // scripted order with interleaved swap-ins (so the maps see inserts
    // *and* removals — bucket layout depends on the whole op sequence).
    let pages: Vec<u64> = (0..24u64).map(|i| 0x10_0000 + i * PAGE_BYTES).collect();
    for (i, &page) in pages.iter().enumerate() {
        h.store(0, page + (i as u64 % 64), &[i as u8 + 1; 4], 0);
        h.cform(0, &CformInstruction::set(page, 1 << (i % 56)), 0);
        swap.swap_out(&mut h, page);
        if i % 5 == 4 {
            let victim = pages[i - 2];
            swap.swap_in(&mut h, victim);
            swap.swap_out(&mut h, victim);
        }
    }

    // Map-iteration order, verbatim: this is the part a RandomState
    // hasher scrambles per process.
    digest.push_str("order:");
    for addr in swap.swapped_page_addrs() {
        digest.push_str(&format!("{addr:x},"));
    }
    digest.push_str(&format!(
        ";pages={};meta={}",
        swap.swapped_pages(),
        swap.metadata_bytes()
    ));

    // Swap everything back in (in the deterministic iteration order) and
    // digest the restored data plus the I/O-boundary export.
    for addr in swap.swapped_page_addrs() {
        swap.swap_in(&mut h, addr);
    }
    for (i, &page) in pages.iter().enumerate() {
        let mut data = Vec::new();
        h.load(0, page + (i as u64 % 64), 4, 0, Some(&mut data));
        digest.push_str(&format!(";d{i}={data:?}"));
    }
    let export = io_write(&mut h, pages[0], 64);
    digest.push_str(&format!(
        ";io={:?}/{}",
        export.data, export.security_bytes_crossed
    ));
    digest
}

const CHILD_ENV: &str = "CALIFORMS_OS_DIGEST_CHILD";

#[test]
fn swap_stats_identical_across_fresh_processes() {
    if std::env::var(CHILD_ENV).is_ok() {
        // Child mode: print the digest for the parent and stop.
        println!("DIGEST={}", swap_io_digest());
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let run_child = || {
        let out = Command::new(&exe)
            .args([
                "swap_stats_identical_across_fresh_processes",
                "--exact",
                "--nocapture",
            ])
            .env(CHILD_ENV, "1")
            .output()
            .expect("spawn child test process");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 test output");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(
            out.status.success(),
            "child test process failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
        );
        // libtest may merge the digest onto its own progress line, so
        // match the marker anywhere in a line, not just at its start.
        stdout
            .lines()
            .find_map(|l| l.split_once("DIGEST=").map(|(_, d)| d))
            .unwrap_or_else(|| {
                panic!("child printed no digest\nstdout:\n{stdout}\nstderr:\n{stderr}")
            })
            .to_string()
    };
    let a = run_child();
    let b = run_child();
    let local = swap_io_digest();
    assert_eq!(a, b, "digest differs between two fresh processes");
    assert_eq!(a, local, "child digest differs from in-process digest");
    assert!(a.contains("order:"), "digest covers iteration order");
}
