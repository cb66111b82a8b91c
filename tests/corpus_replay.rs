//! Replays every committed regression pack in `corpus/` through the
//! optimized simulator stacks and the differential oracle: all packs
//! must agree byte-for-byte on every configuration they target (see
//! `corpus/README.md`).

use califorms::oracle::corpus::{cores_from_file_name, read_pack, replay_pack_file};
use califorms::oracle::diff::{diff_pack, DiffConfig};
use std::num::NonZeroU64;

fn corpus_entries() -> Vec<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("corpus/ exists")
        .map(|e| e.expect("readable corpus entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "cftp"))
        .collect();
    entries.sort();
    entries
}

#[test]
fn every_corpus_pack_agrees_with_the_oracle() {
    let mut packs = 0usize;
    for path in corpus_entries() {
        packs += 1;
        let results = replay_pack_file(&path)
            .unwrap_or_else(|e| panic!("{}: unreadable: {e}", path.display()));
        assert!(!results.is_empty());
        for (cfg, divergence) in results {
            assert!(
                divergence.is_none(),
                "{} ({cfg}): {}",
                path.display(),
                divergence.unwrap()
            );
        }
    }
    assert!(packs >= 5, "corpus is populated (found {packs} packs)");
}

/// The cross-core-count corpus matrix: every multi-core regression
/// pack replays at 2 and 4 cores × weave batches {1, 64}, whatever core
/// count it was generated for, each run oracle-exact, plus a
/// checkpoint+resume replay at batch 64 that must be bit-identical to
/// the straight-through run.
///
/// Replaying a `-c4` pack at 2 cores is sound: the engine deals op `i`
/// to core `i % cores` whatever the pack was generated for, the oracle
/// lanes follow the same rule, and merging generated lanes keeps
/// blacklist writes core-exclusive (lane regions never overlap) — the
/// interleaving-independence argument of DESIGN.md §11 is preserved.
/// Single-core packs are excluded: their mask push/pop windows are not
/// lane-balanced, so dealing them to lanes makes the stream invalid.
#[test]
fn multicore_corpus_packs_agree_across_core_matrix() {
    let mut checked = 0usize;
    for path in corpus_entries() {
        let Some(cores) = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(cores_from_file_name)
        else {
            continue;
        };
        if cores < 2 {
            continue;
        }
        let pack = read_pack(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for replay_cores in [2usize, 4] {
            for batch in [1u32, 64] {
                let cfg = DiffConfig {
                    resume_at: NonZeroU64::new(2).filter(|_| batch == 64),
                    ..DiffConfig::multicore(replay_cores, batch)
                };
                let d = diff_pack(&pack, &[], &cfg);
                assert!(
                    d.is_none(),
                    "{} ({replay_cores} cores, batch {batch}): {}",
                    path.display(),
                    d.unwrap()
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 4, "matrix exercised multi-core packs");
}
