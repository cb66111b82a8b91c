//! Hardware-style combinational blocks used by the spill/fill converters.
//!
//! The paper's Figures 8 and 9 build the L1↔L2 format converters out of a
//! small set of blocks: 6→64 one-hot decoders, an OR-reduction into a
//! *used-values* vector, *Find-index* blocks (64 shifters plus one
//! comparator) that locate the first set/clear bit, and a bank of 64
//! sentinel comparators. This module models those blocks as pure functions
//! over 64-bit vectors so that
//!
//! 1. the converter in [`crate::convert`] is a direct transcription of the
//!    paper's logic rather than an opaque re-derivation, and
//! 2. the VLSI cost model (`califorms-vlsi`) can count exactly these
//!    structures.
//!
//! Like the hardware, the per-byte banks act on all bytes at once: a line
//! is eight little-endian 64-bit words, and a comparator or a gated write
//! over the line is a handful of word-wide (SWAR) byte-mask operations per
//! word, not a loop over 64 bytes.

use crate::line::LINE_BYTES;

/// `0x01` in every byte of a word.
const LSB: u64 = 0x0101_0101_0101_0101;
/// `0x7F` in every byte of a word.
const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
/// `0x3F` in every byte of a word: the six bits a sentinel compares.
const LOW6: u64 = 0x3F3F_3F3F_3F3F_3F3F;

/// Expands the 8 bits of `bits` into a word whose byte `i` is `0xFF` when
/// bit `i` is set and `0x00` when it is clear: the byte-enable lines one
/// word of a gated write sees.
#[inline]
fn byte_mask(bits: u8) -> u64 {
    // Byte i of `spread` keeps only bit i of `bits` (0 or 1 << i); adding
    // 0x7F carries into the byte's top bit exactly when that bit is set,
    // and no sum leaves its byte.
    let spread = (u64::from(bits) * LSB) & 0x8040_2010_0804_0201;
    (((spread + LOW7) & !LOW7) >> 7) * 0xFF
}

/// Bit `i` of the result is set iff byte `i` of `word` is zero: an exact
/// zero-byte test (no carry crosses a byte), then a multiply that
/// gathers the eight flags into the low byte.
#[inline]
fn zero_byte_bits(word: u64) -> u64 {
    let zero_high = !(((word & LOW7) + LOW7) | word | LOW7);
    // Flag j sits at bit 8j; the multiplier's term 2^(7(8−j)) moves it to
    // bit 56 + j, and no two terms land on the same bit.
    ((zero_high >> 7).wrapping_mul(0x0102_0408_1020_4080)) >> 56
}

/// Bit `i` of the result is set iff byte `i` of the line, after each word
/// passes through `transform`, is zero.
#[inline(always)]
fn zero_bytes_after(data: &[u8; LINE_BYTES], transform: impl Fn(u64) -> u64) -> u64 {
    let (words, _) = data.as_chunks::<8>();
    let mut bits = 0;
    for (w, word) in words.iter().enumerate() {
        bits |= zero_byte_bits(transform(u64::from_le_bytes(*word))) << (8 * w);
    }
    bits
}

/// Bit `i` of the result is set iff byte `i` of `data` is zero.
#[inline]
pub(crate) fn zero_bytes(data: &[u8; LINE_BYTES]) -> u64 {
    zero_bytes_after(data, |word| word)
}

/// Gated write: stores `value` into every byte of `data` whose bit is set
/// in `select`, and leaves the other bytes as they are.
#[inline]
pub(crate) fn write_selected(data: &mut [u8; LINE_BYTES], select: u64, value: u8) {
    let fill = u64::from(value) * LSB;
    let (words, _) = data.as_chunks_mut::<8>();
    for (w, word) in words.iter_mut().enumerate() {
        let enable = byte_mask((select >> (8 * w)) as u8);
        *word = (u64::from_le_bytes(*word) & !enable | fill & enable).to_le_bytes();
    }
}

/// 6→64 one-hot decoder: returns a vector with only bit `value` set.
///
/// `value` is masked to its least significant 6 bits, mirroring the
/// hardware, which only ever sees 6 wires.
#[inline]
pub fn decode6(value: u8) -> u64 {
    1u64 << (value & 0x3F)
}

/// Builds the *used-values* vector of a line: bit `v` is set iff some
/// **normal** byte of the line has `v` as its least significant 6 bits.
///
/// Security bytes are excluded (their decoder outputs are gated by the
/// bitvector metadata): they carry no program data, and excluding them is
/// what guarantees a free pattern exists — with at least one security byte
/// there are at most 63 normal bytes, hence at most 63 used patterns out of
/// 64.
pub fn used_values(data: &[u8; LINE_BYTES], security_mask: u64) -> u64 {
    let mut used = 0u64;
    for (i, &byte) in data.iter().enumerate() {
        used |= (!security_mask >> i & 1) << (byte & 0x3F);
    }
    used
}

/// Find-index block: index of the first **zero** bit of `vector`, scanning
/// from bit 0, or `None` if all 64 bits are set.
///
/// The hardware realises this with 64 shift blocks feeding one comparator;
/// here `trailing_ones` is the same function.
#[inline]
pub fn find_first_zero(vector: u64) -> Option<u8> {
    let idx = vector.trailing_ones();
    (idx < 64).then_some(idx as u8)
}

/// Find-index block: index of the first **one** bit of `vector`, or `None`
/// if the vector is all zeros.
#[inline]
pub fn find_first_one(vector: u64) -> Option<u8> {
    let idx = vector.trailing_zeros();
    (idx < 64).then_some(idx as u8)
}

/// Successive-find block: the first `n` set bits of `vector`, as a
/// vector (all of them if it has fewer than `n`).
///
/// The spill path (Figure 8, step 8) chains four of these to extract the
/// first four security-byte locations; each stage masks off the bit the
/// previous stage found, which on a word is clearing the lowest set bit.
#[inline]
pub fn find_first_n_ones(vector: u64, n: usize) -> u64 {
    let mut rest = vector;
    for _ in 0..n {
        rest &= rest.wrapping_sub(1);
    }
    vector ^ rest
}

/// The indices of the set bits of `vector`, ascending: successive
/// find-index stages, each taking the lowest set bit (`trailing_zeros`)
/// and masking it off for the next.
#[inline]
pub(crate) fn ones(mut vector: u64) -> impl Iterator<Item = usize> {
    core::iter::from_fn(move || {
        (vector != 0).then(|| {
            let index = vector.trailing_zeros() as usize;
            vector &= vector - 1;
            index
        })
    })
}

/// Chooses the sentinel for a line: the first 6-bit pattern not used by any
/// normal byte (Figure 8's Find-index-of-first-0 over the used-values
/// vector).
///
/// Returns `None` only if every one of the 64 patterns is in use, which
/// cannot happen when the line holds at least one security byte.
pub fn find_sentinel(data: &[u8; LINE_BYTES], security_mask: u64) -> Option<u8> {
    find_first_zero(used_values(data, security_mask))
}

/// The parallel comparator bank of the fill path (Figure 9): bit `i` of the
/// result is set iff byte `i`'s least significant 6 bits equal `sentinel`.
pub fn sentinel_matches(data: &[u8; LINE_BYTES], sentinel: u8) -> u64 {
    let pattern = u64::from(sentinel & 0x3F) * LSB;
    zero_bytes_after(data, |word| (word & LOW6) ^ pattern)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode6_is_one_hot() {
        for v in 0u8..64 {
            assert_eq!(decode6(v).count_ones(), 1);
            assert_eq!(decode6(v).trailing_zeros(), v as u32);
        }
        // Only the low 6 bits participate.
        assert_eq!(decode6(0xFF), decode6(0x3F));
        assert_eq!(decode6(0x40), decode6(0x00));
    }

    #[test]
    fn used_values_ignores_security_bytes() {
        let mut data = [0u8; LINE_BYTES];
        data[0] = 5;
        data[1] = 9;
        let used = used_values(&data, 1 << 1);
        assert_eq!(used, decode6(5) | decode6(0)); // byte 1 excluded; rest are 0
    }

    #[test]
    fn used_values_collapses_on_low_six_bits() {
        let mut data = [0u8; LINE_BYTES];
        data[0] = 0x41; // low 6 bits = 1
        data[1] = 0x01; // low 6 bits = 1
        let used = used_values(&data, !0u64 << 2); // only bytes 0 and 1 normal
        assert_eq!(used, decode6(1));
    }

    #[test]
    fn find_first_zero_finds_gaps() {
        assert_eq!(find_first_zero(0), Some(0));
        assert_eq!(find_first_zero(0b0111), Some(3));
        assert_eq!(find_first_zero(u64::MAX), None);
        assert_eq!(find_first_zero(u64::MAX ^ (1 << 63)), Some(63));
    }

    #[test]
    fn find_first_one_finds_bits() {
        assert_eq!(find_first_one(0), None);
        assert_eq!(find_first_one(0b1000), Some(3));
        assert_eq!(find_first_one(1 << 63), Some(63));
    }

    #[test]
    fn find_first_n_ones_ascends_and_truncates() {
        let v = 1 << 3 | 1 << 17 | 1 << 42;
        assert_eq!(find_first_n_ones(v, 4), v);
        assert_eq!(find_first_n_ones(v, 2), 1 << 3 | 1 << 17);
        assert_eq!(find_first_n_ones(0, 4), 0);
        assert_eq!(ones(v).collect::<Vec<_>>(), vec![3, 17, 42]);
        assert_eq!(ones(u64::MAX).count(), 64);
    }

    #[test]
    fn byte_masks_select_whole_bytes() {
        for bits in 0..=u8::MAX {
            let mask = byte_mask(bits);
            for i in 0..8 {
                let byte = (mask >> (8 * i)) as u8;
                assert_eq!(byte, if bits >> i & 1 == 1 { 0xFF } else { 0 });
            }
        }
    }

    #[test]
    fn zero_bytes_is_exact() {
        // 0x80 and 0x01 neighbours are the classic false positives of the
        // cheap zero-byte test; this one has none.
        let mut data = [0x80u8; LINE_BYTES];
        data[3] = 0;
        data[4] = 0x01;
        data[63] = 0;
        assert_eq!(zero_bytes(&data), 1 << 3 | 1 << 63);
        assert_eq!(zero_bytes(&[0; LINE_BYTES]), u64::MAX);
    }

    #[test]
    fn write_selected_touches_only_selected_bytes() {
        let mut data = [0xAAu8; LINE_BYTES];
        write_selected(&mut data, 1 | 1 << 9 | 1 << 63, 0x17);
        for (i, &b) in data.iter().enumerate() {
            assert_eq!(b, if [0, 9, 63].contains(&i) { 0x17 } else { 0xAA });
        }
    }

    #[test]
    fn sentinel_always_exists_with_a_security_byte() {
        // Worst case: normal bytes cover 63 distinct low-6 patterns.
        let mut data = [0u8; LINE_BYTES];
        for (i, byte) in data.iter_mut().enumerate().take(63) {
            *byte = i as u8; // patterns 0..=62
        }
        // byte 63 is the security byte
        let mask = 1u64 << 63;
        assert_eq!(find_sentinel(&data, mask), Some(63));
    }

    #[test]
    fn sentinel_matches_compares_low_six_bits() {
        let mut data = [0xFFu8; LINE_BYTES];
        data[2] = 0x2A;
        data[7] = 0x6A; // low 6 bits also 0x2A
        let m = sentinel_matches(&data, 0x2A);
        assert_eq!(m, 1 << 2 | 1 << 7);
    }

    #[test]
    fn no_sentinel_when_all_patterns_used_by_normal_bytes() {
        let mut data = [0u8; LINE_BYTES];
        for (i, byte) in data.iter_mut().enumerate() {
            *byte = i as u8;
        }
        assert_eq!(find_sentinel(&data, 0), None);
    }
}
