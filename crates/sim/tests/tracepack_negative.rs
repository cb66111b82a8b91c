//! Negative-path tests of the `tracepack` wire format: every class of
//! corruption must surface as a typed decode error from
//! `TracePack::from_bytes` — never a panic, never a silent truncation —
//! whether the decoder meets it on its fixed-window fast path or in the
//! checked tail before the end marker.

use califorms_sim::tracepack::{TracePack, TracePackError, MAGIC, MAX_OP_BYTES, VERSION};
use califorms_sim::TraceOp;

/// A small valid pack to corrupt.
fn valid_bytes() -> Vec<u8> {
    TracePack::from_ops([
        TraceOp::Exec(100),
        TraceOp::Store {
            addr: 0x1000,
            size: 8,
        },
        TraceOp::Load {
            addr: 0x1008,
            size: 16,
        },
        TraceOp::Cform {
            line_addr: 0x1000,
            attrs: 0xFF,
            mask: 0xFF,
        },
        TraceOp::MaskPush,
        TraceOp::MaskPop,
    ])
    .bytes()
    .to_vec()
}

/// A pack whose corrupt op sits deep in the stream: it follows 64 valid
/// ops and is itself followed by more than [`MAX_OP_BYTES`] bytes, so
/// the in-memory decoder meets it on its fixed-window fast path rather
/// than in the checked tail that short corrupt packs exercise.
fn embedded(corrupt_op: &[u8]) -> Vec<u8> {
    let valid: Vec<TraceOp> = (0..64u64)
        .map(|i| TraceOp::Load {
            addr: 0x1000 + i * 8,
            size: 8,
        })
        .collect();
    let mut bytes = TracePack::from_ops(valid).bytes().to_vec();
    bytes.pop(); // the end marker
    bytes.extend_from_slice(corrupt_op);
    bytes.extend_from_slice(&[5; MAX_OP_BYTES + 1]); // MaskPush ops
    bytes.push(0xFF);
    bytes
}

/// A header-only pack holding just `op` (decoded in the checked tail).
fn lone(op: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.push(VERSION);
    bytes.extend_from_slice(op);
    bytes.push(0xFF);
    bytes
}

#[test]
fn corrupted_magic_is_bad_magic() {
    let mut bytes = valid_bytes();
    bytes[0] ^= 0x20;
    assert!(matches!(
        TracePack::from_bytes(bytes.clone()),
        Err(TracePackError::BadMagic)
    ));
}

#[test]
fn short_header_is_bad_magic_not_a_panic() {
    for n in 0..5usize {
        let bytes = valid_bytes()[..n].to_vec();
        assert!(matches!(
            TracePack::from_bytes(bytes.clone()),
            Err(TracePackError::BadMagic)
        ));
    }
}

#[test]
fn future_version_is_rejected_with_the_version() {
    // Any version but the current one is refused: 0 was never written,
    // and a future one may frame ops differently.
    for version in [0, VERSION + 3] {
        let mut bytes = valid_bytes();
        bytes[4] = version;
        match TracePack::from_bytes(bytes) {
            Err(TracePackError::UnsupportedVersion(v)) => assert_eq!(v, version),
            other => panic!("version {version}: expected UnsupportedVersion, got {other:?}"),
        }
    }
}

#[test]
fn unknown_op_tag_is_rejected() {
    for tag in [0x07u8, 0x42, 0xFE] {
        // The end marker after the bad tag must never be reached.
        for bytes in [lone(&[tag]), embedded(&[tag])] {
            match TracePack::from_bytes(bytes) {
                Err(TracePackError::BadTag(t)) => assert_eq!(t, tag),
                other => panic!("expected BadTag({tag:#x}), got {other:?}"),
            }
        }
    }
}

#[test]
fn truncation_mid_varint_is_truncated_not_silent() {
    // A Load whose address delta is a multi-byte varint, cut inside it:
    // every prefix ending mid-varint must report Truncated.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.push(VERSION);
    bytes.push(1); // Load
    bytes.extend_from_slice(&[0x80, 0x80, 0x80]); // varint continuation bytes, no terminator
    assert!(matches!(
        TracePack::from_bytes(bytes),
        Err(TracePackError::Truncated)
    ));
}

#[test]
fn every_truncation_point_of_a_real_pack_errors() {
    // Cutting a valid pack anywhere after the header (and before its
    // final byte) must yield Truncated — no cut point may decode
    // cleanly or panic. This sweeps cuts inside tags, mid-varint and
    // mid-size-byte alike.
    let bytes = valid_bytes();
    for cut in 5..bytes.len() - 1 {
        let prefix = bytes[..cut].to_vec();
        assert!(
            matches!(
                TracePack::from_bytes(prefix),
                Err(TracePackError::Truncated)
            ),
            "cut at {cut} must be Truncated"
        );
    }
}

#[test]
fn trailing_garbage_after_end_marker_is_counted() {
    let mut bytes = valid_bytes();
    bytes.extend_from_slice(&[0xAA, 0xBB, 0xCC]);
    match TracePack::from_bytes(bytes) {
        Err(TracePackError::TrailingBytes(n)) => assert_eq!(n, 3),
        other => panic!("expected TrailingBytes(3), got {other:?}"),
    }
}

#[test]
fn oversized_varint_is_rejected() {
    // An 11-byte varint cannot fit in a u64.
    let mut exec = vec![0]; // Exec
    exec.extend_from_slice(&[0xFF; 10]);
    exec.push(0x01);
    for bytes in [lone(&exec), embedded(&exec)] {
        assert!(matches!(
            TracePack::from_bytes(bytes),
            Err(TracePackError::VarintOverflow)
        ));
    }
}

#[test]
fn zero_and_oversized_access_sizes_are_rejected() {
    for size in [0u8, 65, 0xFF] {
        let store = [2, 0, size]; // Store, delta 0, size
        for bytes in [lone(&store), embedded(&store)] {
            match TracePack::from_bytes(bytes) {
                Err(TracePackError::BadSize(s)) => assert_eq!(s, size),
                other => panic!("expected BadSize({size}), got {other:?}"),
            }
        }
    }
}

/// Appends `v` as an LEB128 varint.
fn put_varint(op: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            op.push(byte);
            return;
        }
        op.push(byte | 0x80);
    }
}

/// `tag`, then the zigzag LEB128 delta from an op at `prev` to `addr`.
fn tagged_addr(tag: u8, prev: u64, addr: u64) -> Vec<u8> {
    let delta = addr.wrapping_sub(prev) as i64;
    let mut op = vec![tag];
    put_varint(&mut op, ((delta << 1) ^ (delta >> 63)) as u64);
    op
}

/// Encodes a `Load` (tag 1) or `Store` (tag 2) of `size` bytes at `addr`
/// as it follows an op at `prev`.
fn access_op(tag: u8, prev: u64, addr: u64, size: u8) -> Vec<u8> {
    let mut op = tagged_addr(tag, prev, addr);
    op.push(size);
    op
}

/// Encodes a `Cform` (tag 3) or `CformNt` (tag 4) of `line_addr` as it
/// follows an op at `prev`.
fn cform_op(tag: u8, prev: u64, line_addr: u64, attrs: u64, mask: u64) -> Vec<u8> {
    let mut op = tagged_addr(tag, prev, line_addr);
    put_varint(&mut op, attrs);
    put_varint(&mut op, mask);
    op
}

/// The last op of the 64 that [`embedded`] puts before its corrupt op.
const EMBEDDED_PREV: u64 = 0x1000 + 63 * 8;

#[test]
fn an_access_wrapping_past_the_address_space_is_rejected() {
    for tag in [1u8, 2] {
        for (addr, size) in [(u64::MAX - 3, 8u8), (u64::MAX, 2), (u64::MAX - 62, 64)] {
            for bytes in [
                lone(&access_op(tag, 0, addr, size)),
                embedded(&access_op(tag, EMBEDDED_PREV, addr, size)),
            ] {
                match TracePack::from_bytes(bytes) {
                    Err(TracePackError::AccessWraps { addr: a, size: s }) => {
                        assert_eq!((a, s), (addr, size));
                    }
                    other => panic!("expected AccessWraps at {addr:#x}, got {other:?}"),
                }
            }
        }
    }
    // Ending exactly at the top byte is not a wrap.
    for (addr, size) in [(u64::MAX - 7, 8u8), (u64::MAX, 1), (u64::MAX - 63, 64)] {
        let pack = TracePack::from_bytes(lone(&access_op(1, 0, addr, size))).unwrap();
        assert_eq!(pack.to_vec(), vec![TraceOp::Load { addr, size }]);
        let embedded = TracePack::from_bytes(embedded(&access_op(1, EMBEDDED_PREV, addr, size)));
        assert!(embedded.is_ok(), "{addr:#x}+{size}: {embedded:?}");
    }
}

#[test]
fn a_misaligned_cform_is_rejected() {
    // `CformInstruction::new` panics on a target that is not line
    // aligned, so the decoder must refuse such a pack before any engine
    // replays it.
    for tag in [3u8, 4] {
        for line_addr in [0x1001u64, 0x103F, 0x20, u64::MAX] {
            for bytes in [
                lone(&cform_op(tag, 0, line_addr, u64::MAX, u64::MAX)),
                embedded(&cform_op(tag, EMBEDDED_PREV, line_addr, 1, 1)),
            ] {
                match TracePack::from_bytes(bytes) {
                    Err(TracePackError::MisalignedCform { line_addr: a }) => {
                        assert_eq!(a, line_addr);
                    }
                    other => panic!("expected MisalignedCform at {line_addr:#x}, got {other:?}"),
                }
            }
        }
    }
    // Line-aligned targets decode, the top line of the address space too.
    for line_addr in [0u64, 0x1000, u64::MAX - 63] {
        let pack = TracePack::from_bytes(lone(&cform_op(3, 0, line_addr, 1, 1))).unwrap();
        let op = TraceOp::Cform {
            line_addr,
            attrs: 1,
            mask: 1,
        };
        assert_eq!(pack.to_vec(), vec![op]);
        let embedded =
            TracePack::from_bytes(embedded(&cform_op(4, EMBEDDED_PREV, line_addr, 1, 1)));
        assert!(embedded.is_ok(), "{line_addr:#x}: {embedded:?}");
    }
}

#[test]
#[should_panic(expected = "not cache-line aligned")]
fn encoding_a_misaligned_cform_panics() {
    TracePack::from_ops([TraceOp::CformNt {
        line_addr: 0x1008,
        attrs: 1,
        mask: 1,
    }]);
}

#[test]
fn errors_render_useful_messages() {
    // The Display impls are what land in fuzzer logs and CI output.
    assert!(TracePackError::BadMagic.to_string().contains("magic"));
    assert!(TracePackError::BadTag(0x42).to_string().contains("0x42"));
    assert!(TracePackError::Truncated.to_string().contains("truncated"));
    assert!(TracePackError::TrailingBytes(7).to_string().contains('7'));
    assert!(TracePackError::BadSize(65).to_string().contains("65"));
    assert!(TracePackError::AccessWraps {
        addr: u64::MAX - 3,
        size: 8
    }
    .to_string()
    .contains("0xfffffffffffffffc"));
    assert!(TracePackError::MisalignedCform { line_addr: 0x1001 }
        .to_string()
        .contains("0x1001"));
    assert!(TracePackError::UnsupportedVersion(9)
        .to_string()
        .contains('9'));
}
