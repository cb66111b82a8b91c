//! The word-parallel kernels equal a byte-by-byte reference.
//!
//! `spill`, `fill`, `CformInstruction::execute` and the `CaliformedLine`
//! constructors work on a line's eight 64-bit words. The `reference`
//! module below is a byte-at-a-time transcription of paper Algorithms 1
//! and 2 and of the Table 1 K-map, kept only as the oracle these
//! properties compare against. The spill/fill round trip alone cannot
//! catch a format change made on both sides at once, which would
//! silently alter every L2, DRAM and checkpoint byte; comparing each
//! kernel with the reference can.
//!
//! Run at depth with `PROPTEST_CASES=20000 cargo test --release -q -p
//! califorms-core`.

use califorms_core::cform::{CformInstruction, CformOutcome};
use califorms_core::convert::{fill, spill};
use califorms_core::hwlogic;
use califorms_core::line::{CaliformedLine, LINE_BYTES};
use califorms_core::{CoreError, L1Line, L2Line};
use proptest::prelude::*;

/// Byte-by-byte spill, fill and `CFORM`, written directly from the paper's
/// pseudo-code with one loop iteration per byte or bit.
mod reference {
    use super::*;

    type Result<T> = core::result::Result<T, CoreError>;

    fn find_first_n_ones(mut vector: u64, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let idx = vector.trailing_zeros();
            if idx == 64 {
                break;
            }
            out.push(idx as u8);
            vector &= !(1u64 << idx);
        }
        out
    }

    fn find_sentinel(data: &[u8; LINE_BYTES], security_mask: u64) -> Option<u8> {
        let mut used = 0u64;
        for (i, &byte) in data.iter().enumerate() {
            if security_mask >> i & 1 == 0 {
                used |= 1u64 << (byte & 0x3F);
            }
        }
        let idx = used.trailing_ones();
        (idx < 64).then_some(idx as u8)
    }

    pub fn sentinel_matches(data: &[u8; LINE_BYTES], sentinel: u8) -> u64 {
        let mut matches = 0u64;
        for (i, &byte) in data.iter().enumerate() {
            if byte & 0x3F == sentinel & 0x3F {
                matches |= 1u64 << i;
            }
        }
        matches
    }

    fn displacement_map(listed: &[u8], security_mask: u64) -> Vec<(usize, usize)> {
        let k = listed.len();
        let sources = (0..k).filter(|&i| security_mask >> i & 1 == 0);
        let targets = listed.iter().map(|&a| a as usize).filter(|&a| a >= k);
        sources.zip(targets).collect()
    }

    fn put_bits(out: &mut [u8; LINE_BYTES], bit: &mut usize, value: u8, width: usize) {
        for i in 0..width {
            let v = value >> i & 1;
            let (byte, off) = (*bit / 8, *bit % 8);
            out[byte] = out[byte] & !(1 << off) | v << off;
            *bit += 1;
        }
    }

    fn take_bits(bytes: &[u8; LINE_BYTES], bit: &mut usize, width: usize) -> u8 {
        let mut value = 0u8;
        for i in 0..width {
            let (byte, off) = (*bit / 8, *bit % 8);
            value |= (bytes[byte] >> off & 1) << i;
            *bit += 1;
        }
        value
    }

    fn encode_header(listed: &[u8], sentinel: Option<u8>, out: &mut [u8; LINE_BYTES]) {
        for b in out.iter_mut().take(listed.len()) {
            *b = 0;
        }
        let mut bit = 0;
        put_bits(out, &mut bit, (listed.len() - 1) as u8, 2);
        for &addr in listed {
            put_bits(out, &mut bit, addr, 6);
        }
        if let Some(s) = sentinel {
            put_bits(out, &mut bit, s & 0x3F, 6);
        }
    }

    /// The listed offsets and the sentinel of a califormed line's header.
    pub fn decode_header(bytes: &[u8; LINE_BYTES]) -> Result<(Vec<u8>, Option<u8>)> {
        let mut bit = 0;
        let code = take_bits(bytes, &mut bit, 2);
        let mut listed = Vec::new();
        for _ in 0..=code {
            listed.push(take_bits(bytes, &mut bit, 6));
        }
        if !listed.windows(2).all(|w| w[0] < w[1]) {
            return Err(CoreError::CorruptSentinelHeader {
                what: "listed addresses not strictly ascending",
            });
        }
        let sentinel = (code == 0b11).then(|| take_bits(bytes, &mut bit, 6));
        Ok((listed, sentinel))
    }

    /// Paper Algorithm 1 on a canonical line.
    pub fn spill(line: &CaliformedLine) -> Result<L2Line> {
        if !line.is_califormed() {
            return Ok(L2Line::plain(*line.data()));
        }
        let mask = line.security_mask();
        let n = mask.count_ones() as usize;
        let listed = find_first_n_ones(mask, n.min(4));
        let sentinel = if n >= 4 {
            Some(find_sentinel(line.data(), mask).ok_or(CoreError::NoSentinelAvailable)?)
        } else {
            None
        };
        let mut bytes = *line.data();
        for (src, dst) in displacement_map(&listed, mask) {
            bytes[dst] = line.data()[src];
        }
        encode_header(&listed, sentinel, &mut bytes);
        if let Some(s) = sentinel {
            let mut rest = mask;
            for &a in &listed {
                rest &= !(1u64 << a);
            }
            for (i, b) in bytes.iter_mut().enumerate() {
                if rest >> i & 1 == 1 {
                    *b = s;
                }
            }
        }
        Ok(L2Line {
            bytes,
            califormed: true,
        })
    }

    /// Paper Algorithm 2: the decoded `(data, security mask)` pair.
    pub fn fill(l2: &L2Line) -> Result<([u8; LINE_BYTES], u64)> {
        if !l2.califormed {
            return Ok((l2.bytes, 0));
        }
        let (listed, sentinel) = decode_header(&l2.bytes)?;
        let k = listed.len();
        let mut mask = 0u64;
        for &a in &listed {
            mask |= 1u64 << a;
        }
        if let Some(s) = sentinel {
            let header_region = (1u64 << k) - 1;
            mask |= sentinel_matches(&l2.bytes, s) & !header_region & !mask;
        }
        let mut data = l2.bytes;
        for (src, dst) in displacement_map(&listed, mask) {
            data[src] = l2.bytes[dst];
        }
        for (i, b) in data.iter_mut().enumerate() {
            if mask >> i & 1 == 1 {
                *b = 0;
            }
        }
        try_new(data, mask).map_err(|_| CoreError::CorruptSentinelHeader {
            what: "decoded line not canonical",
        })
    }

    /// `CaliformedLine::try_new`: the first non-zero security byte.
    pub fn try_new(data: [u8; LINE_BYTES], mask: u64) -> Result<([u8; LINE_BYTES], u64)> {
        for (i, &byte) in data.iter().enumerate() {
            if mask >> i & 1 == 1 && byte != 0 {
                return Err(CoreError::NonCanonicalSecurityByte { index: i });
            }
        }
        Ok((data, mask))
    }

    /// `CaliformedLine::new`: zero the data under the mask.
    pub fn canonicalize(mut data: [u8; LINE_BYTES], mask: u64) -> [u8; LINE_BYTES] {
        for (i, byte) in data.iter_mut().enumerate() {
            if mask >> i & 1 == 1 {
                *byte = 0;
            }
        }
        data
    }

    /// The Table 1 K-map: a validation pass that faults on the first
    /// offending byte, then a commit pass, one byte at a time.
    pub fn execute(
        attributes: u64,
        cform_mask: u64,
        line: &mut CaliformedLine,
    ) -> Result<CformOutcome> {
        for i in 0..LINE_BYTES {
            if cform_mask >> i & 1 == 0 {
                continue;
            }
            let is_sec = line.is_security_byte(i);
            let set = attributes >> i & 1 == 1;
            match (is_sec, set) {
                (true, true) => return Err(CoreError::CformSetOnSecurityByte { index: i }),
                (false, false) => return Err(CoreError::CformUnsetOnNormalByte { index: i }),
                _ => {}
            }
        }
        let mut outcome = CformOutcome {
            bytes_set: 0,
            bytes_unset: 0,
        };
        for i in 0..LINE_BYTES {
            if cform_mask >> i & 1 == 0 {
                continue;
            }
            if attributes >> i & 1 == 1 {
                line.set_security_byte(i);
                outcome.bytes_set += 1;
            } else {
                line.unset_security_byte(i);
                outcome.bytes_unset += 1;
            }
        }
        Ok(outcome)
    }
}

/// 64 bytes drawn from 32 random ones, as in `proptests.rs`; `spread`
/// picks how many distinct low-6-bit patterns the line holds, so both
/// crowded and roomy sentinel searches occur.
fn arb_data() -> impl Strategy<Value = [u8; LINE_BYTES]> {
    (proptest::array::uniform32(any::<u8>()), 0u8..4).prop_map(|(half, spread)| {
        let mut data = [0u8; LINE_BYTES];
        for (i, b) in data.iter_mut().enumerate() {
            *b = match spread {
                0 => half[i % 32],
                1 => half[i % 32].wrapping_add(i as u8),
                2 => (i as u8).wrapping_add(half[0] & 0xC0),
                _ => half[i % 4],
            };
        }
        data
    })
}

/// Security masks of every shape the header distinguishes: dense
/// (uniform), sparse (1–3 bytes, listed only), at least four bytes (the
/// sentinel code), and security bytes inside the 4-byte header region.
fn arb_mask() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(a, b, c)| a & b & c),
        (0u32..64, 0u32..64, 0u32..64, 0u8..3).prop_map(|(a, b, c, n)| {
            [a, b, c][..=n as usize]
                .iter()
                .fold(0u64, |m, &i| m | 1 << i)
        }),
        (any::<u64>(), 0u32..61).prop_map(|(r, lo)| r | 0b1111 << lo),
        (any::<u64>(), 1u64..16).prop_map(|(r, head)| r & !0xF | head),
        Just(u64::MAX),
    ]
}

fn arb_line() -> impl Strategy<Value = CaliformedLine> {
    (arb_data(), arb_mask()).prop_map(|(data, mask)| CaliformedLine::new(data, mask))
}

/// Any 64 bytes with the califormed bit either way; half the califormed
/// ones are a real spill with a few bytes flipped, so the decode reaches
/// the sentinel scan and the displacement, not only the header check.
fn arb_l2() -> impl Strategy<Value = L2Line> {
    (arb_data(), arb_line(), any::<u64>(), any::<u64>(), 0u8..4).prop_map(
        |(raw, line, flips, noise, kind)| match kind {
            0 => L2Line::plain(raw),
            1 => L2Line {
                bytes: raw,
                califormed: true,
            },
            _ => {
                let mut l2 = reference::spill(&line).expect("canonical lines spill");
                l2.califormed = true;
                if kind == 3 {
                    for (i, b) in l2.bytes.iter_mut().enumerate() {
                        if flips >> i & 1 == 1 && noise >> i & 3 == 0 {
                            *b ^= (noise >> (i % 8)) as u8 | 1;
                        }
                    }
                }
                l2
            }
        },
    )
}

/// A line with a `CFORM` `(attributes, mask)` that faults, succeeds, or
/// is legal on all but a few bytes, relative to the line's security mask.
fn arb_cform_case() -> impl Strategy<Value = (CaliformedLine, u64, u64)> {
    (arb_line(), any::<u64>(), any::<u64>(), any::<u64>(), 0u8..4).prop_map(
        |(line, attrs, mask, bad, kind)| {
            // Set every normal byte, unset every security byte: no fault.
            let legal = !line.security_mask();
            match kind {
                0 => (line, attrs, mask),
                1 => (line, legal, mask),
                2 => (
                    line,
                    legal ^ (bad & bad.rotate_left(17) & bad.rotate_left(41)),
                    mask,
                ),
                _ => (line, legal ^ 1 << (bad % 64), mask & bad),
            }
        },
    )
}

proptest! {
    /// `spill` writes exactly the reference's L2 bytes for every
    /// canonical line.
    #[test]
    fn spill_equals_reference(line in arb_line()) {
        let got = spill(&L1Line::new(line));
        prop_assert_eq!(got, reference::spill(&line));
    }

    /// `fill` decodes exactly the reference's line, or fails with the
    /// same error, for any L2 bytes.
    #[test]
    fn fill_equals_reference(l2 in arb_l2()) {
        let got = fill(&l2).map(|l1| (*l1.line().data(), l1.line().security_mask()));
        prop_assert_eq!(got, reference::fill(&l2));
    }

    /// `CFORM` gives the reference's outcome, first-fault index and kind,
    /// and resulting line for any `(line, attributes, mask)`.
    #[test]
    fn cform_execute_equals_reference(case in arb_cform_case()) {
        let (line, attrs, mask) = case;
        let (mut got, mut want) = (line, line);
        let got_outcome = CformInstruction::new(0, attrs, mask).execute(&mut got);
        let want_outcome = reference::execute(attrs, mask, &mut want);
        prop_assert_eq!(got_outcome, want_outcome);
        prop_assert_eq!(got, want);
    }

    /// The constructors zero and check exactly the reference's bytes.
    #[test]
    fn line_constructors_equal_reference(data in arb_data(), mask in arb_mask(), dirty in any::<u64>()) {
        let canonical = CaliformedLine::new(data, mask);
        prop_assert_eq!(*canonical.data(), reference::canonicalize(data, mask));
        prop_assert_eq!(canonical.security_mask(), mask);
        // Leave a few security bytes non-zero so `try_new` has a first
        // offender to find.
        let mut raw = reference::canonicalize(data, mask);
        for (i, b) in raw.iter_mut().enumerate() {
            if dirty >> i & 7 == 0 {
                *b = data[i];
            }
        }
        let got = CaliformedLine::try_new(raw, mask).map(|l| (*l.data(), l.security_mask()));
        prop_assert_eq!(got, reference::try_new(raw, mask));
    }

    /// The comparator bank matches the reference's per-byte compare,
    /// including bytes whose upper two bits differ.
    #[test]
    fn sentinel_matches_equal_reference(data in arb_data(), sentinel in any::<u8>()) {
        prop_assert_eq!(
            hwlogic::sentinel_matches(&data, sentinel),
            reference::sentinel_matches(&data, sentinel)
        );
    }
}
