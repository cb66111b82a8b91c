//! Property tests of the `tracepack` wire format: encode → decode is the
//! identity for arbitrary valid traces, one op at a time and in batches.

use califorms_sim::tracepack::{TracePack, MAX_OP_BYTES};
use califorms_sim::TraceOp;
use proptest::prelude::*;

/// A `Load`/`Store` address and size within the pack's access contract:
/// 1..=64 bytes that do not wrap past the top of the address space.
fn arb_access() -> impl Strategy<Value = (u64, u8)> {
    (any::<u64>(), 1u8..=64)
        .prop_map(|(addr, size)| (addr.min(u64::MAX - (u64::from(size) - 1)), size))
}

fn arb_op() -> impl Strategy<Value = TraceOp> {
    prop_oneof![
        any::<u32>().prop_map(TraceOp::Exec),
        arb_access().prop_map(|(addr, size)| TraceOp::Load { addr, size }),
        arb_access().prop_map(|(addr, size)| TraceOp::Store { addr, size }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(a, attrs, mask)| TraceOp::Cform {
            line_addr: a & !63,
            attrs,
            mask,
        }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(a, attrs, mask)| {
            TraceOp::CformNt {
                line_addr: a & !63,
                attrs,
                mask,
            }
        }),
        Just(TraceOp::MaskPush),
        Just(TraceOp::MaskPop),
    ]
}

proptest! {
    /// In-memory round trip: `from_ops` → `to_vec` is the identity, and
    /// re-parsing the serialised bytes yields the same pack.
    #[test]
    fn pack_round_trip_is_identity(ops in proptest::collection::vec(arb_op(), 0..200)) {
        let pack = TracePack::from_ops(ops.iter().copied());
        prop_assert_eq!(pack.len_ops(), ops.len() as u64);
        prop_assert_eq!(pack.to_vec(), ops);
        let reparsed = TracePack::from_bytes(pack.bytes().to_vec()).unwrap();
        prop_assert_eq!(reparsed.to_vec(), pack.to_vec());
    }

    /// Batch decoding at any batch size yields the same op sequence as
    /// one-at-a-time decoding.
    #[test]
    fn batch_decode_is_batch_size_invariant(
        ops in proptest::collection::vec(arb_op(), 0..200),
        batch in 1usize..17,
    ) {
        let pack = TracePack::from_ops(ops.iter().copied());
        prop_assert_eq!(drain_batches(&pack, batch), ops);
    }
}

/// Decodes `pack` through `next_batch` at batch size `batch`, checking
/// that the drained decoder consumed every byte after the header.
fn drain_batches(pack: &TracePack, batch: usize) -> Vec<TraceOp> {
    let mut dec = pack.decoder();
    let mut buf = vec![TraceOp::Exec(0); batch];
    let mut got = Vec::new();
    loop {
        let n = dec.next_batch(&mut buf).unwrap();
        if n == 0 {
            break;
        }
        got.extend_from_slice(&buf[..n]);
    }
    assert_eq!(dec.bytes_consumed() as usize, pack.bytes().len() - 5);
    got
}

/// The worst-case op — a `Cform` whose address delta, attrs and mask are
/// all 10-byte varints, `MAX_OP_BYTES` in all — at the edge of the
/// in-memory decoder's fixed window. Being `MAX_OP_BYTES` long it starts
/// at least `MAX_OP_BYTES` bytes before the end marker, where the window
/// holds it with no byte to spare; the sweep moves it outwards one byte
/// at a time, so the op after it starts `MAX_OP_BYTES - 1`,
/// `MAX_OP_BYTES` and `MAX_OP_BYTES + 1` bytes (and every other distance
/// up to twice that) before the marker, and the switch from the window
/// to the checked tail lands on and around every op boundary.
#[test]
fn worst_case_op_decodes_identically_at_the_window_edge() {
    let worst = TraceOp::Cform {
        line_addr: 1 << 63, // delta i64::MIN from address 0: zigzag u64::MAX
        attrs: u64::MAX,
        mask: u64::MAX,
    };
    let one = TracePack::from_ops([worst]);
    assert_eq!(one.bytes().len(), 5 + MAX_OP_BYTES + 1, "a 31-byte op");
    for lead in [0usize, 1, 40] {
        for tail in 0..=2 * MAX_OP_BYTES + 2 {
            let mut ops = vec![TraceOp::MaskPush; lead];
            ops.push(worst);
            ops.extend(std::iter::repeat_n(TraceOp::MaskPop, tail));
            let pack = TracePack::from_ops(ops.iter().copied());
            let marker = pack.bytes().len() - 1;
            assert_eq!(marker - (5 + lead), MAX_OP_BYTES + tail, "the op's start");

            let mut dec = pack.decoder();
            let mut one_at_a_time = Vec::new();
            while let Some(op) = dec.next_op().unwrap() {
                one_at_a_time.push(op);
            }
            assert_eq!(one_at_a_time, ops, "next_op, lead {lead}, tail {tail}");
            for batch in [1, 7, 256] {
                assert_eq!(
                    drain_batches(&pack, batch),
                    one_at_a_time,
                    "next_batch({batch}), lead {lead}, tail {tail}"
                );
            }
            assert_eq!(TracePack::from_bytes(pack.bytes().to_vec()).unwrap(), pack);
        }
    }
}
