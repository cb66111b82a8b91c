//! Negative-path tests of the checkpoint format: every class of
//! corruption — bad magic, wrong version, truncation at any byte,
//! checksum mismatch, section-length lies, framing garbage, wrong
//! engine kind, wrong pack — must surface as a typed
//! [`CheckpointError`], never a panic, through **both** resume entry
//! points (`Engine::resume_pack` and
//! `MulticoreEngine::try_resume_pack`). The positive controls at the
//! top prove the uncorrupted bytes resume bit-identically, so a
//! rejection really is the corruption being caught.

use califorms_sim::checkpoint::{CheckpointError, MAGIC, VERSION};
use califorms_sim::{Engine, MulticoreConfig, MulticoreEngine, RunError, TraceOp, TracePack};

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

/// A valid mid-run single-core checkpoint (the corruption substrate).
fn single_checkpoint(pack: &TracePack) -> Vec<u8> {
    let (_, checkpoints) = Engine::westmere().run_pack_checkpointed(pack, 1);
    assert!(checkpoints.len() >= 2, "workload must span several batches");
    checkpoints[0].clone()
}

/// A valid mid-run multicore checkpoint.
fn multicore_checkpoint(pack: &TracePack) -> Vec<u8> {
    let (_, checkpoints) = MulticoreEngine::new(MulticoreConfig::westmere(2).with_quantum(500.0))
        .try_run_pack_checkpointed(pack, 2)
        .expect("checkpointed run");
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
    Engine::resume_pack(pack, bytes).expect_err("corrupt checkpoint resumed cleanly")
}

/// Resumes corrupted bytes on the multicore engine, expecting the typed
/// error to arrive wrapped in [`RunError::Checkpoint`].
fn multicore_err(pack: &TracePack, bytes: &[u8]) -> CheckpointError {
    match MulticoreEngine::try_resume_pack(pack, bytes) {
        Err(RunError::Checkpoint(e)) => e,
        Err(other) => panic!("expected RunError::Checkpoint, got {other:?}"),
        Ok(_) => panic!("corrupt checkpoint resumed cleanly"),
    }
}

#[test]
fn uncorrupted_controls_resume_bit_identically() {
    let pack = pack();
    let reference = Engine::westmere().run_pack(&pack);
    let resumed = Engine::resume_pack(&pack, &single_checkpoint(&pack)).expect("valid checkpoint");
    assert_eq!(resumed, reference, "single-core positive control");

    let mc_ref = MulticoreEngine::new(MulticoreConfig::westmere(2).with_quantum(500.0))
        .try_run_pack(&pack)
        .expect("reference run");
    let mc = MulticoreEngine::try_resume_pack(&pack, &multicore_checkpoint(&pack))
        .expect("valid checkpoint");
    assert_eq!(mc.stats, mc_ref.stats, "multicore positive control");
    assert_eq!(mc.exceptions, mc_ref.exceptions);
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

/// Byte offset of the CORE section's payload, found by walking the
/// section framing (tag u8, length u64, payload) from the header.
fn core_payload_at(bytes: &[u8]) -> usize {
    const SEC_CORE: u8 = 0x03;
    let mut at = MAGIC.len() + 1;
    while at + 9 <= bytes.len() {
        let len = u64::from_le_bytes(bytes[at + 1..at + 9].try_into().unwrap()) as usize;
        if bytes[at] == SEC_CORE {
            return at + 9;
        }
        at += 9 + len;
    }
    panic!("checkpoint has no CORE section");
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
        let at = core_payload_at(&bytes) + cycles_off;
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
    let reference = Engine::westmere().run_pack(&pack);
    let mut bytes = single_checkpoint(&pack);
    let trailer_at = bytes.len() - 8;
    // end marker sits right before the trailer; insert ahead of it.
    let insert_at = trailer_at - 1;
    let mut extra = vec![0x7Eu8]; // unknown tag
    extra.extend_from_slice(&4u64.to_le_bytes());
    extra.extend_from_slice(&[1, 2, 3, 4]);
    bytes.splice(insert_at..insert_at, extra);
    reseal(&mut bytes);
    let resumed = Engine::resume_pack(&pack, &bytes).expect("unknown section must be skipped");
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
