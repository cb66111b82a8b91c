//! Negative-path tests of the checkpoint format: every class of
//! corruption — bad magic, wrong version, truncation at any byte,
//! checksum mismatch, section-length lies, framing garbage, wrong
//! engine kind, wrong pack — must surface as a typed
//! [`CheckpointError`], never a panic, through **both** resume entry
//! points ([`Engine::resume`] and [`MulticoreEngine::resume`]). The
//! positive controls at the top prove the uncorrupted bytes resume
//! bit-identically, so a rejection really is the corruption being
//! caught, and a resumed run keeps checkpointing on the original
//! cadence.

use califorms_sim::checkpoint::{CheckpointError, MAGIC, VERSION};
use califorms_sim::{
    Checkpoints, Engine, MulticoreConfig, MulticoreEngine, RunError, Source, TraceOp, TracePack,
    TracePackError,
};
use std::num::NonZeroU64;

/// A small deterministic workload: enough ops to cross several decode
/// batches / quanta, touching loads, stores and CFORMs.
fn pack() -> TracePack {
    let mut ops = Vec::new();
    for i in 0..3000u64 {
        let addr = 0x1000 + (i % 256) * 8;
        ops.push(TraceOp::Exec((i % 90) as u32 + 10));
        ops.push(TraceOp::Store { addr, size: 8 });
        ops.push(TraceOp::Load { addr, size: 8 });
        if i % 64 == 0 {
            ops.push(TraceOp::Cform {
                line_addr: 0x8000 + (i % 16) * 64,
                attrs: 1,
                mask: 1,
            });
        }
    }
    TracePack::from_ops(ops)
}

/// A checkpoint request every `interval` boundaries into `sink`.
fn every(interval: u64, sink: &mut dyn FnMut(Vec<u8>)) -> Option<Checkpoints<'_>> {
    Some(Checkpoints {
        every: NonZeroU64::new(interval).expect("a positive interval"),
        sink,
    })
}

/// Every checkpoint a single-core replay of `pack` captures, one per
/// `interval` decode batches.
fn single_checkpoints(pack: &TracePack, interval: u64) -> Vec<Vec<u8>> {
    let mut checkpoints = Vec::new();
    Engine::westmere().replay(pack, every(interval, &mut |b| checkpoints.push(b)));
    checkpoints
}

/// The multicore machine these tests checkpoint: a short quantum, so
/// the small workload crosses many boundaries.
fn mc_config(cores: usize) -> MulticoreConfig {
    MulticoreConfig::westmere(cores).with_quantum(500.0)
}

/// Every checkpoint a multicore replay of `pack` captures, one per
/// `interval` quanta.
fn multicore_checkpoints(pack: &TracePack, cores: usize, interval: u64) -> Vec<Vec<u8>> {
    let mut checkpoints = Vec::new();
    let mut sink = |b| checkpoints.push(b);
    let source = Source::Pack {
        pack,
        checkpoints: every(interval, &mut sink),
    };
    MulticoreEngine::new(mc_config(cores))
        .replay(source)
        .expect("checkpointed run");
    checkpoints
}

/// A valid mid-run single-core checkpoint (the corruption substrate).
fn single_checkpoint(pack: &TracePack) -> Vec<u8> {
    let checkpoints = single_checkpoints(pack, 1);
    assert!(checkpoints.len() >= 2, "workload must span several batches");
    checkpoints[0].clone()
}

/// A valid mid-run multicore checkpoint.
fn multicore_checkpoint(pack: &TracePack) -> Vec<u8> {
    let checkpoints = multicore_checkpoints(pack, 2, 2);
    assert!(!checkpoints.is_empty(), "workload must span several quanta");
    checkpoints[0].clone()
}

/// FNV-1a 64 (the trailer checksum), reimplemented here so targeted
/// corruptions can re-seal the trailer and reach the checks *behind*
/// the checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Recomputes the trailing checksum after a deliberate mutation.
fn reseal(bytes: &mut [u8]) {
    let n = bytes.len() - 8;
    let sum = fnv1a(&bytes[..n]);
    bytes[n..].copy_from_slice(&sum.to_le_bytes());
}

/// Resumes corrupted bytes on the single-core engine, expecting a typed
/// error.
fn single_err(pack: &TracePack, bytes: &[u8]) -> CheckpointError {
    Engine::resume(pack, bytes, None).expect_err("corrupt checkpoint resumed cleanly")
}

/// Resumes corrupted bytes on the multicore engine, expecting the typed
/// error to arrive wrapped in [`RunError::Checkpoint`].
fn multicore_err(pack: &TracePack, bytes: &[u8]) -> CheckpointError {
    match MulticoreEngine::resume(pack, bytes, None) {
        Err(RunError::Checkpoint(e)) => e,
        Err(other) => panic!("expected RunError::Checkpoint, got {other:?}"),
        Ok(_) => panic!("corrupt checkpoint resumed cleanly"),
    }
}

#[test]
fn uncorrupted_controls_resume_bit_identically() {
    let pack = pack();
    let reference = Engine::westmere().replay(&pack, None);
    let resumed = Engine::resume(&pack, &single_checkpoint(&pack), None).expect("valid checkpoint");
    assert_eq!(resumed, reference, "single-core positive control");

    let mc_ref = multicore_run(&pack, 2);
    let (mc, _) = MulticoreEngine::resume(&pack, &multicore_checkpoint(&pack), None)
        .expect("valid checkpoint");
    assert_eq!(mc.stats, mc_ref.stats, "multicore positive control");
    assert_eq!(mc.exceptions, mc_ref.exceptions);
}

/// A straight multicore replay of `pack` without checkpoints.
fn multicore_run(pack: &TracePack, cores: usize) -> califorms_sim::MulticoreOutcome {
    let source = Source::Pack {
        pack,
        checkpoints: None,
    };
    let (outcome, _) = MulticoreEngine::new(mc_config(cores))
        .replay(source)
        .expect("reference run");
    outcome
}

#[test]
fn resumed_runs_keep_checkpointing_on_the_original_cadence() {
    // Resuming from the first or a middle checkpoint with the same
    // request must reproduce the straight run's later checkpoints byte
    // for byte, and its outcome: every 2 decode batches on the
    // single-core engine, every 2 quanta at 1, 2 and 3 cores.
    let pack = pack();
    let reference = Engine::westmere().replay(&pack, None);
    let all = single_checkpoints(&pack, 2);
    assert!(all.len() >= 3, "workload must span several checkpoints");
    for from in [0, all.len() / 2] {
        let mut tail = Vec::new();
        let resumed = Engine::resume(&pack, &all[from], every(2, &mut |b| tail.push(b)))
            .expect("valid checkpoint");
        assert_eq!(resumed, reference, "single: resumed from checkpoint {from}");
        assert!(
            tail == all[from + 1..],
            "single: resumed from checkpoint {from}, {} of the straight run's {} later \
             checkpoints, not byte-identical",
            tail.len(),
            all.len() - from - 1
        );
    }
    for cores in 1..=3 {
        let reference = multicore_run(&pack, cores);
        let all = multicore_checkpoints(&pack, cores, 2);
        assert!(
            all.len() >= 3,
            "{cores} cores: workload must span several checkpoints"
        );
        for from in [0, all.len() / 2] {
            let mut tail = Vec::new();
            let (resumed, _) =
                MulticoreEngine::resume(&pack, &all[from], every(2, &mut |b| tail.push(b)))
                    .expect("valid checkpoint");
            assert_eq!(resumed.stats, reference.stats, "{cores} cores, from {from}");
            assert_eq!(resumed.exceptions, reference.exceptions);
            assert!(
                tail == all[from + 1..],
                "{cores} cores: resumed from checkpoint {from}, {} of the straight run's {} \
                 later checkpoints, not byte-identical",
                tail.len(),
                all.len() - from - 1
            );
        }
    }
}

/// `(count, FNV-1a over every checkpoint's bytes in order)`.
fn digest(checkpoints: &[Vec<u8>]) -> (usize, u64) {
    (checkpoints.len(), fnv1a(&checkpoints.concat()))
}

#[test]
fn checkpoint_bytes_match_recorded_constants() {
    // Recorded before the bound phase moved onto the calling thread. A
    // change to the checkpoint format or to simulated timing must
    // re-record these on purpose.
    let pack = pack();
    let got: Vec<(usize, u64)> = (1..=3)
        .map(|cores| digest(&multicore_checkpoints(&pack, cores, 2)))
        .chain([digest(&single_checkpoints(&pack, 1))])
        .collect();
    assert_eq!(
        got,
        [
            (47, 3_247_381_215_500_087_408),
            (27, 15_980_900_542_544_619_935),
            (18, 7_076_522_332_205_442_917),
            (9, 16_431_898_482_687_824),
        ],
        "multicore at 1, 2 and 3 cores every 2 quanta, then single-core every batch"
    );
}

#[test]
fn corrupted_magic_is_bad_magic_on_both_engines() {
    let pack = pack();
    for (bytes, which) in [
        (single_checkpoint(&pack), "single"),
        (multicore_checkpoint(&pack), "multi"),
    ] {
        for i in 0..MAGIC.len() {
            let mut b = bytes.clone();
            b[i] ^= 0x20;
            let err = if which == "single" {
                single_err(&pack, &b)
            } else {
                multicore_err(&pack, &b)
            };
            assert!(
                matches!(err, CheckpointError::BadMagic),
                "{which}: flip in magic byte {i} gave {err:?}"
            );
        }
    }
}

#[test]
fn future_version_is_rejected_with_the_version() {
    // Any version but the current one is refused: older ones too, since
    // checkpoints are run-local and never migrated.
    let pack = pack();
    let valid = single_checkpoint(&pack);
    for version in [0, VERSION - 1, VERSION + 3] {
        let mut bytes = valid.clone();
        bytes[4] = version;
        reseal(&mut bytes);
        match single_err(&pack, &bytes) {
            CheckpointError::UnsupportedVersion(v) => assert_eq!(v, version),
            other => panic!("version {version}: expected UnsupportedVersion, got {other:?}"),
        }
    }
}

/// CORE section tag (per-core architectural state).
const SEC_CORE: u8 = 0x03;
/// CURSOR section tag (one pack resume point per replay lane).
const SEC_CURSOR: u8 = 0x07;

/// Byte offset of section `tag`'s payload, found by walking the section
/// framing (tag u8, length u64, payload) from the header.
fn payload_at(bytes: &[u8], tag: u8) -> usize {
    let mut at = MAGIC.len() + 1;
    while at + 9 <= bytes.len() {
        let len = u64::from_le_bytes(bytes[at + 1..at + 9].try_into().unwrap()) as usize;
        if bytes[at] == tag {
            return at + 9;
        }
        at += 9 + len;
    }
    panic!("checkpoint has no section {tag:#04x}");
}

#[test]
fn impossible_cycle_counts_are_rejected_on_both_engines() {
    // The first core's `cycles` follows its u64 `pc`; the multicore CORE
    // section leads with a u64 core count.
    let pack = pack();
    for (bytes, cycles_off, which) in [
        (single_checkpoint(&pack), 8, "single"),
        (multicore_checkpoint(&pack), 16, "multi"),
    ] {
        let at = payload_at(&bytes, SEC_CORE) + cycles_off;
        for cycles in [f64::NAN, -1.0, f64::INFINITY] {
            let mut b = bytes.clone();
            b[at..at + 8].copy_from_slice(&cycles.to_bits().to_le_bytes());
            reseal(&mut b);
            let err = if which == "single" {
                single_err(&pack, &b)
            } else {
                multicore_err(&pack, &b)
            };
            assert!(
                matches!(err, CheckpointError::Corrupt(_)),
                "{which}: cycles {cycles} gave {err:?}"
            );
        }
    }
}

/// CONFIG section tag. On both engines its payload leads with the
/// hierarchy geometry: L1D size and ways (u64 each), L1D latency (u32),
/// then L2 size and ways.
const SEC_CONFIG: u8 = 0x02;

#[test]
fn impossible_cache_geometries_are_rejected_on_both_engines() {
    // An L1D way count whose set size overflows `ways * 64`, and a 2⁶² B
    // one-way L2 the cache constructor would try to allocate: both are
    // corrupt, never an overflow panic or an allocation abort.
    let pack = pack();
    let edits: [(&str, &[(usize, u64)]); 2] =
        [("L1D", &[(8, 1 << 58)]), ("L2", &[(20, 1 << 62), (28, 1)])];
    for (bytes, which) in [
        (single_checkpoint(&pack), "single"),
        (multicore_checkpoint(&pack), "multi"),
    ] {
        let config = payload_at(&bytes, SEC_CONFIG);
        for (level, fields) in edits {
            let mut b = bytes.clone();
            for &(off, value) in fields {
                b[config + off..config + off + 8].copy_from_slice(&value.to_le_bytes());
            }
            reseal(&mut b);
            let err = if which == "single" {
                single_err(&pack, &b)
            } else {
                multicore_err(&pack, &b)
            };
            assert!(
                matches!(err, CheckpointError::Corrupt(what) if what.starts_with(level)),
                "{which}: {level} geometry gave {err:?}"
            );
        }
    }
}

/// HIERARCHY section tag (the single-core hierarchy state).
const SEC_HIERARCHY: u8 = 0x04;

#[test]
fn single_core_l1_rejects_a_shared_line() {
    // The single-core L1 holds its lines E or M only: a resealed
    // checkpoint that marks one Shared must fail typed. The HIERARCHY
    // payload leads with 8 u64s (spill/fill/prefetch counters, four
    // stream trackers, the cursor), then the L1: clock, four stats and
    // the line count; each line is address, stamp, dirty flag, 64 data
    // bytes, the security mask and the MESI tag.
    let pack = pack();
    let bytes = single_checkpoint(&pack);
    let l1 = payload_at(&bytes, SEC_HIERARCHY) + 8 * 8;
    let lines = u64::from_le_bytes(bytes[l1 + 40..l1 + 48].try_into().unwrap());
    assert!(lines > 0, "the checkpointed L1 holds lines");
    let tag = l1 + 48 + 8 + 8 + 1 + 64 + 8;
    assert!(bytes[tag] <= 1, "a single-core line is M (0) or E (1)");
    let mut b = bytes.clone();
    b[tag] = 2; // Shared
    reseal(&mut b);
    assert!(
        matches!(single_err(&pack, &b), CheckpointError::Corrupt(_)),
        "a Shared line in the single-core L1 is corrupt"
    );
}

#[test]
fn truncation_at_every_byte_errors_typed() {
    // Cutting the checkpoint at *any* length short of the full stream
    // must fail typed — short prefixes as BadMagic/Truncated, longer
    // ones via the checksum trailer (the last 8 bytes of any cut are
    // interpreted as a checksum over content they don't match).
    let pack = pack();
    let bytes = single_checkpoint(&pack);
    for cut in 0..bytes.len() {
        let err = single_err(&pack, &bytes[..cut]);
        assert!(
            matches!(
                err,
                CheckpointError::BadMagic
                    | CheckpointError::Truncated
                    | CheckpointError::ChecksumMismatch { .. }
            ),
            "cut at {cut}/{} gave unexpected {err:?}",
            bytes.len()
        );
    }
}

#[test]
fn multicore_truncation_sweep_errors_typed() {
    // The multicore restore path shares the envelope validation; sweep
    // a coarser grid (the checkpoint is much larger) plus every cut in
    // the header and trailer neighborhoods.
    let pack = pack();
    let bytes = multicore_checkpoint(&pack);
    let n = bytes.len();
    let cuts = (0..32)
        .chain((n.saturating_sub(32))..n)
        .chain((0..n).step_by(997));
    for cut in cuts {
        let err = multicore_err(&pack, &bytes[..cut]);
        assert!(
            matches!(
                err,
                CheckpointError::BadMagic
                    | CheckpointError::Truncated
                    | CheckpointError::ChecksumMismatch { .. }
            ),
            "cut at {cut}/{n} gave unexpected {err:?}"
        );
    }
}

#[test]
fn any_bit_flip_is_caught_by_the_checksum() {
    let pack = pack();
    let bytes = single_checkpoint(&pack);
    // Flip one bit in every byte: header flips surface as their own
    // typed variants, everything else (payload or trailer) must be a
    // checksum mismatch — nothing decodes, nothing panics.
    for i in 0..bytes.len() {
        let mut b = bytes.clone();
        b[i] ^= 0x01;
        let err = single_err(&pack, &b);
        if i >= 5 {
            match err {
                CheckpointError::ChecksumMismatch { stored, computed } => {
                    assert_ne!(stored, computed)
                }
                other => panic!("flip at {i} gave {other:?}, expected checksum mismatch"),
            }
        }
    }
}

#[test]
fn section_length_lies_are_rejected() {
    let pack = pack();
    let base = single_checkpoint(&pack);
    // The first section starts right after magic+version: tag at byte
    // 5, its u64 length at bytes 6..14.
    let patch_len = |bytes: &mut [u8], len: u64| {
        bytes[6..14].copy_from_slice(&len.to_le_bytes());
        reseal(bytes);
    };

    // A length pointing far past the end of the stream.
    let mut b = base.clone();
    patch_len(&mut b, u64::MAX / 2);
    match single_err(&pack, &b) {
        CheckpointError::SectionLength(tag) => assert_eq!(tag, base[5]),
        other => panic!("overrun length gave {other:?}"),
    }

    // A length swallowing the entire rest of the stream (end marker
    // included): framing never terminates cleanly.
    let mut b = base.clone();
    patch_len(&mut b, (base.len() - 14 - 8) as u64);
    assert!(
        matches!(
            single_err(&pack, &b),
            CheckpointError::Truncated | CheckpointError::SectionLength(_)
        ),
        "swallowing length must fail framing"
    );

    // Off-by-one lies: the de-framed payloads land in the wrong
    // sections, which must fail typed (length, missing section, or a
    // semantic corruption) — never panic, never resume.
    let orig = u64::from_le_bytes(base[6..14].try_into().unwrap());
    for lie in [orig - 1, orig + 1] {
        let mut b = base.clone();
        patch_len(&mut b, lie);
        let err = single_err(&pack, &b);
        assert!(
            !matches!(err, CheckpointError::ChecksumMismatch { .. }),
            "resealed lie {lie} (orig {orig}) must fail structurally, got {err:?}"
        );
    }
}

#[test]
fn garbage_between_end_marker_and_trailer_is_counted() {
    let pack = pack();
    let mut bytes = single_checkpoint(&pack);
    let trailer_at = bytes.len() - 8;
    bytes.splice(trailer_at..trailer_at, [0xAAu8, 0xBB, 0xCC]);
    reseal(&mut bytes);
    match single_err(&pack, &bytes) {
        CheckpointError::TrailingBytes(n) => assert_eq!(n, 3),
        other => panic!("expected TrailingBytes(3), got {other:?}"),
    }
}

#[test]
fn unknown_section_tags_are_skipped_for_forward_compat() {
    // A newer minor revision may append sections this decoder doesn't
    // know; the length prefix lets it skip them and still resume.
    let pack = pack();
    let reference = Engine::westmere().replay(&pack, None);
    let mut bytes = single_checkpoint(&pack);
    let trailer_at = bytes.len() - 8;
    // end marker sits right before the trailer; insert ahead of it.
    let insert_at = trailer_at - 1;
    let mut extra = vec![0x7Eu8]; // unknown tag
    extra.extend_from_slice(&4u64.to_le_bytes());
    extra.extend_from_slice(&[1, 2, 3, 4]);
    bytes.splice(insert_at..insert_at, extra);
    reseal(&mut bytes);
    let resumed = Engine::resume(&pack, &bytes, None).expect("unknown section must be skipped");
    assert_eq!(resumed, reference, "skipping must not perturb the resume");
}

#[test]
fn engine_kind_cross_resume_is_a_config_mismatch() {
    let pack = pack();
    let single = single_checkpoint(&pack);
    let multi = multicore_checkpoint(&pack);
    match multicore_err(&pack, &single) {
        CheckpointError::ConfigMismatch(what) => assert!(
            what.contains("single-core"),
            "message should name the kind: {what}"
        ),
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
    match single_err(&pack, &multi) {
        CheckpointError::ConfigMismatch(what) => assert!(
            what.contains("multicore"),
            "message should name the kind: {what}"
        ),
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
}

#[test]
fn resume_against_a_shorter_pack_fails_typed() {
    // A checkpoint whose cursor points past the end of the pack it is
    // resumed against (wrong or truncated pack) must fail typed.
    let pack = pack();
    let bytes = single_checkpoint(&pack);
    let short = TracePack::from_ops([TraceOp::Exec(10)]);
    match single_err(&short, &bytes) {
        CheckpointError::Pack(_) => {}
        other => panic!("expected a Pack cursor error, got {other:?}"),
    }

    let mc = multicore_checkpoint(&pack);
    match multicore_err(&short, &mc) {
        CheckpointError::Pack(_) | CheckpointError::Corrupt(_) => {}
        other => panic!("expected a cursor error, got {other:?}"),
    }
}

#[test]
fn cursor_off_an_op_boundary_fails_typed() {
    // The checksum does not vouch for the cursor: a resealed edit of the
    // first lane's resume point (byte offset moved into or past an op,
    // or a wrong address context) must be caught by re-deriving the
    // point from the pack, never replayed and never a panic. The CURSOR
    // payload leads with a u64 lane count, then u64 byte_offset, u64
    // ops_read, u64 last_addr and a bool done.
    let pack = pack();
    for (bytes, which) in [
        (single_checkpoint(&pack), "single"),
        (multicore_checkpoint(&pack), "multi"),
    ] {
        let cursor = payload_at(&bytes, SEC_CURSOR);
        let field = |b: &[u8], off: usize| {
            u64::from_le_bytes(b[cursor + off..cursor + off + 8].try_into().unwrap())
        };
        let edits = [(8, 1u64), (8, 2), (8, 3), (24, 0x40)];
        for (off, delta) in edits {
            let mut b = bytes.clone();
            let edited = field(&b, off).wrapping_add(delta);
            b[cursor + off..cursor + off + 8].copy_from_slice(&edited.to_le_bytes());
            reseal(&mut b);
            let err = if which == "single" {
                single_err(&pack, &b)
            } else {
                multicore_err(&pack, &b)
            };
            let msg = err.to_string();
            match err {
                CheckpointError::Pack(TracePackError::CursorMismatch(p)) => assert_eq!(
                    (p.byte_offset, p.ops_read, p.last_addr),
                    (field(&b, 8), field(&b, 16), field(&b, 24)),
                    "{which}: the error carries the edited cursor"
                ),
                other => panic!("{which}: field +{off} edited by {delta:#x} gave {other:?}"),
            }
            assert!(
                msg.contains("cursor") && !msg.contains("truncated"),
                "{which}: {msg}"
            );
        }
    }
}

/// `(offset, tag)` of every ring-leftover op in a multicore checkpoint's
/// CURSOR payload: a u64 lane count, then per lane a resume point (three
/// u64s and a bool), u64 lane, stride and lane index, a u64 op count and
/// the ops, each a tag byte and its fixed-width fields.
fn leftover_ops(bytes: &[u8]) -> Vec<(usize, u8)> {
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let mut at = payload_at(bytes, SEC_CURSOR);
    let lanes = u64_at(at);
    at += 8;
    let mut ops = Vec::new();
    for _ in 0..lanes {
        at += 25 + 3 * 8;
        let n = u64_at(at);
        at += 8;
        for _ in 0..n {
            ops.push((at, bytes[at]));
            at += match bytes[at] {
                0 => 5,
                1 | 2 => 10,
                3 | 4 => 25,
                _ => 1,
            };
        }
    }
    ops
}

#[test]
fn ring_leftovers_are_held_to_the_pack_contract() {
    // A multicore checkpoint stores each lane's decoded but uncommitted
    // ops verbatim, and a resealed edit gets past the checksum. A
    // leftover op must then meet the pack decoder's contract: a `CFORM`
    // whose target is not line aligned, or an access that wraps past the
    // address space, is corrupt, never replayed into a panic.
    let pack = pack();
    let checkpoints = multicore_checkpoints(&pack, 2, 1);
    let misalign: fn(u64) -> u64 = |line_addr| line_addr + 1;
    let wrap: fn(u64) -> u64 = |_| u64::MAX;
    for (tags, edit) in [(&[3u8, 4][..], misalign), (&[1, 2][..], wrap)] {
        let (bytes, at) = checkpoints
            .iter()
            .find_map(|b| {
                let (at, _) = leftover_ops(b)
                    .into_iter()
                    .find(|(_, t)| tags.contains(t))?;
                Some((b.clone(), at))
            })
            .expect("some checkpoint leaves such an op in a lane's ring");
        let mut b = bytes.clone();
        let addr = u64::from_le_bytes(b[at + 1..at + 9].try_into().unwrap());
        let edited = edit(addr);
        b[at + 1..at + 9].copy_from_slice(&edited.to_le_bytes());
        reseal(&mut b);
        let err = multicore_err(&pack, &b);
        assert!(
            matches!(err, CheckpointError::Corrupt(_)),
            "leftover op tag {} at {edited:#x} gave {err:?}",
            b[at]
        );
        // The unedited checkpoint resumes.
        assert!(MulticoreEngine::resume(&pack, &bytes, None).is_ok());
    }
}

#[test]
fn empty_and_header_only_streams_fail_typed() {
    let pack = pack();
    // An empty stream is a zero-length prefix of the magic, so it
    // reads as truncation rather than foreign bytes.
    assert!(matches!(single_err(&pack, &[]), CheckpointError::Truncated));
    assert!(matches!(
        single_err(&pack, b"WXYZ"),
        CheckpointError::BadMagic
    ));
    let mut header = MAGIC.to_vec();
    header.push(VERSION);
    assert!(matches!(
        single_err(&pack, &header),
        CheckpointError::Truncated
    ));
}

#[test]
fn errors_render_useful_messages() {
    // The Display impls are what land in recovery logs and CI output.
    assert!(CheckpointError::BadMagic.to_string().contains("magic"));
    assert!(CheckpointError::Truncated.to_string().contains("truncated"));
    assert!(CheckpointError::UnsupportedVersion(9)
        .to_string()
        .contains('9'));
    assert!(CheckpointError::ChecksumMismatch {
        stored: 1,
        computed: 2
    }
    .to_string()
    .contains("checksum"));
    assert!(CheckpointError::SectionLength(0x03)
        .to_string()
        .contains("0x03"));
    assert!(CheckpointError::MissingSection("meta")
        .to_string()
        .contains("meta"));
    assert!(CheckpointError::TrailingBytes(7).to_string().contains('7'));
    assert!(CheckpointError::ConfigMismatch("cores")
        .to_string()
        .contains("cores"));
}
