//! Reading, writing and replaying the `corpus/` of regression packs.
//!
//! A corpus entry is a raw [`TracePack`] byte stream (`.cftp`) whose
//! file name encodes the core count it was built for:
//! `<stem>-c<cores>.cftp`. Entries are replayed by
//! [`replay_pack_file`] — single-core packs through
//! [`califorms_sim::Engine`], multi-core packs through
//! [`califorms_sim::MulticoreEngine`] at weave batches 1 **and** 64 —
//! and every replay must agree with the oracle byte-for-byte. Shrunk
//! counterexamples from past fuzzing campaigns land here so the bug
//! they caught can never silently return.

use crate::diff::{diff_pack, DiffConfig, Divergence};
use califorms_sim::TracePack;
use std::io;
use std::path::Path;

/// Builds the canonical corpus file name for a pack.
pub fn pack_file_name(stem: &str, cores: usize) -> String {
    format!("{stem}-c{cores}.cftp")
}

/// Parses the core count out of a corpus file name (`None` if the name
/// does not follow the `…-c<cores>.cftp` convention).
pub fn cores_from_file_name(name: &str) -> Option<usize> {
    let stem = name.strip_suffix(".cftp")?;
    let idx = stem.rfind("-c")?;
    stem[idx + 2..].parse().ok()
}

/// Writes a pack's serialised bytes to `path`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_pack(path: &Path, pack: &TracePack) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, pack.bytes())
}

/// Reads and validates a pack from `path`.
///
/// # Errors
///
/// Filesystem errors, or `InvalidData` for a corrupt pack.
pub fn read_pack(path: &Path) -> io::Result<TracePack> {
    let bytes = std::fs::read(path)?;
    TracePack::from_bytes(bytes)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Replays one corpus file through every configuration it is meant for
/// and returns `(config description, divergence)` per replay.
///
/// # Errors
///
/// Filesystem errors, `InvalidData` for a corrupt pack, or
/// `InvalidInput` when the file name does not carry the `-c<cores>`
/// suffix — silently defaulting a renamed multi-core regression pack
/// to a single-core replay would quietly drop the coverage it was
/// committed for.
pub fn replay_pack_file(path: &Path) -> io::Result<Vec<(String, Option<Divergence>)>> {
    let pack = read_pack(path)?;
    let cores = path
        .file_name()
        .and_then(|n| n.to_str())
        .and_then(cores_from_file_name)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "{}: corpus packs must be named <stem>-c<cores>.cftp",
                    path.display()
                ),
            )
        })?;
    let mut results = Vec::new();
    if cores == 1 {
        results.push((
            "1-core".to_string(),
            diff_pack(&pack, &[], &DiffConfig::single()),
        ));
    } else {
        for batch in [1u32, 64] {
            results.push((
                format!("{cores}-core, weave batch {batch}"),
                diff_pack(&pack, &[], &DiffConfig::multicore(cores, batch)),
            ));
        }
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use califorms_sim::TraceOp;

    #[test]
    fn file_name_round_trips_cores() {
        assert_eq!(cores_from_file_name(&pack_file_name("probe", 4)), Some(4));
        assert_eq!(cores_from_file_name("probe-c1.cftp"), Some(1));
        assert_eq!(cores_from_file_name("plain.bin"), None);
        assert_eq!(cores_from_file_name("no-cores.cftp"), None);
    }

    #[test]
    fn write_read_replay_round_trip() {
        let dir = std::env::temp_dir().join("califorms-oracle-corpus-test");
        let path = dir.join(pack_file_name("roundtrip", 1));
        let pack = TracePack::from_ops([
            TraceOp::Cform {
                line_addr: 0x500,
                attrs: 1 << 3,
                mask: 1 << 3,
            },
            TraceOp::Load {
                addr: 0x503,
                size: 1,
            },
        ]);
        write_pack(&path, &pack).unwrap();
        let reread = read_pack(&path).unwrap();
        assert_eq!(reread, pack);
        for (cfg, d) in replay_pack_file(&path).unwrap() {
            assert_eq!(d, None, "{cfg} diverged");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
