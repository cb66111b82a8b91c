//! The L2-and-beyond cache-line format: *califorms-sentinel* (Section 5.2).
//!
//! Beyond the L1, a line carries a single metadata bit (*califormed?* — 1
//! bit per 64 B line, 0.2 % overhead). A califormed line stores its
//! blacklist metadata **inside** the line, in a header occupying the first
//! ≤4 bytes (paper Figure 7):
//!
//! ```text
//! byte 0 bits [1:0]  count code: 00→1, 01→2, 10→3, 11→4 or more
//! then, packed 6 bits at a time (LSB first):
//!   code 00:  Addr0
//!   code 01:  Addr0 Addr1
//!   code 10:  Addr0 Addr1 Addr2
//!   code 11:  Addr0 Addr1 Addr2 Addr3 Sentinel   (exactly 32 bits = 4 B)
//! ```
//!
//! `Addr0..Addr3` are the line offsets of the first (lowest-addressed) four
//! security bytes, ascending. With the `11` code, every *additional*
//! security byte is marked by holding the 6-bit **sentinel** value — a
//! pattern chosen at spill time to differ from the least significant 6 bits
//! of every normal byte. Such a pattern always exists: at least one security
//! byte means at most 63 normal bytes, hence at most 63 of the 64 patterns
//! are in use.
//!
//! The original data of the header bytes is displaced into the listed
//! security-byte slots (which hold no data of their own). The exact
//! displacement rule — a detail the paper leaves implicit — is documented on
//! [`displacement_map`] and is what makes the encoding invertible even when
//! security bytes fall *inside* the header region.
//!
//! Encoding/decoding between this format and the canonical
//! [`CaliformedLine`](crate::line::CaliformedLine) is performed by
//! [`crate::convert::spill`] and [`crate::convert::fill`].

use crate::error::{CoreError, Result};
use crate::hwlogic::{find_first_n_ones, ones};
use crate::line::LINE_BYTES;

/// A cache line as held in the L2 cache and beyond: 64 bytes plus the
/// single *califormed?* metadata bit (stored in spare ECC bits once in
/// DRAM).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Line {
    /// Raw line bytes — califormed-format if [`Self::califormed`] is set,
    /// plain data otherwise.
    pub bytes: [u8; LINE_BYTES],
    /// The per-line metadata bit.
    pub califormed: bool,
}

impl L2Line {
    /// A non-califormed line of plain data.
    pub const fn plain(bytes: [u8; LINE_BYTES]) -> Self {
        Self {
            bytes,
            califormed: false,
        }
    }

    /// Decodes this line's header.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CorruptSentinelHeader`] if the line is not
    /// califormed or the listed addresses are not strictly ascending (the
    /// canonical order the spill hardware emits).
    pub fn header(&self) -> Result<SentinelHeader> {
        if !self.califormed {
            return Err(CoreError::CorruptSentinelHeader {
                what: "line is not califormed",
            });
        }
        SentinelHeader::decode(&self.bytes)
    }
}

/// Number of header bytes used for a given listed-address count (1–4).
///
/// Count 1 needs 2+6=8 bits (1 byte); count 2 needs 14 bits (2 bytes);
/// count 3 needs 20 bits (3 bytes); count 4 needs 2+24+6=32 bits (4 bytes).
pub const fn header_len(listed: usize) -> usize {
    listed
}

/// Decoded califorms-sentinel header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SentinelHeader {
    /// The listed security bytes `Addr0..Addr3` as a bit vector: bit `a`
    /// is set for each listed line offset `a`. A spill lists the first
    /// `min(n, 4)` of the line's `n` security bytes, so 1–4 bits are set.
    pub listed: u64,
    /// The sentinel pattern, present only when the count code is `11`
    /// (four **or more** security bytes).
    pub sentinel: Option<u8>,
}

impl SentinelHeader {
    /// Encodes the header into the first [`header_bytes`](Self::header_bytes)
    /// bytes of `out`, leaving the other bytes as they are.
    ///
    /// # Panics
    ///
    /// Panics unless `listed` has 1–4 bits set and `sentinel` is `Some`
    /// exactly when it has 4 — the spill path constructs its header so
    /// this holds by design.
    pub fn encode(&self, out: &mut [u8; LINE_BYTES]) {
        let count = self.listed.count_ones();
        assert!(
            (1..=4).contains(&count),
            "listed address count must be 1..=4"
        );
        assert_eq!(
            self.sentinel.is_some(),
            count == 4,
            "sentinel present iff count code is 11"
        );
        // Figure 7 as one little-endian word: the count code in bits 1:0,
        // then a 6-bit field per listed offset, ascending, then the
        // sentinel. Its unused high bits are zero.
        let mut word = count - 1;
        for (field, addr) in ones(self.listed).enumerate() {
            word |= (addr as u32) << (2 + 6 * field);
        }
        if let Some(s) = self.sentinel {
            word |= u32::from(s & 0x3F) << 26;
        }
        let header_bytes = u32::MAX >> (32 - 8 * count);
        let old = u32::from_le_bytes([out[0], out[1], out[2], out[3]]);
        out[..4].copy_from_slice(&(old & !header_bytes | word).to_le_bytes());
    }

    /// Decodes the header from the first bytes of a califormed line.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CorruptSentinelHeader`] if the listed addresses
    /// are not strictly ascending.
    pub fn decode(bytes: &[u8; LINE_BYTES]) -> Result<Self> {
        let word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        let count = (word & 0b11) + 1;
        let mut listed = 0u64;
        for field in 0..count {
            let addr = word >> (2 + 6 * field) & 0x3F;
            // Strictly ascending: no earlier address at or above this one.
            if listed >> addr != 0 {
                return Err(CoreError::CorruptSentinelHeader {
                    what: "listed addresses not strictly ascending",
                });
            }
            listed |= 1 << addr;
        }
        let sentinel = (count == 4).then_some((word >> 26) as u8);
        Ok(Self { listed, sentinel })
    }

    /// The number of header bytes this header occupies.
    pub fn header_bytes(&self) -> usize {
        header_len(self.listed.count_ones() as usize)
    }
}

/// The displacement rule that preserves the header bytes' original data.
///
/// Yields `(source, target)` pairs, ascending: original data of header byte
/// `source` is stored at security-byte slot `target` while the line is in
/// sentinel format.
///
/// * *sources* — header byte offsets `0..k` that are **not** themselves
///   security bytes (security bytes carry no data to preserve);
/// * *targets* — **listed** security-byte slots at offset `≥ k`.
///
/// `k` is the header length, one byte per bit of `listed`. The counts
/// always match because `k` equals the listed count `c`, so
/// `|sources| = k − |S ∩ [0,k)| = c − |S ∩ [0,k)| = |targets|`.
/// Restricting targets to *listed* slots keeps displaced data out of the
/// sentinel scan's way on fill. The pairs come from two bit vectors, so
/// building the map allocates nothing.
pub fn displacement_map(listed: u64, security_mask: u64) -> impl Iterator<Item = (usize, usize)> {
    let header_region = find_first_n_ones(u64::MAX, header_len(listed.count_ones() as usize));
    ones(!security_mask & header_region).zip(ones(listed & !header_region))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(offsets: &[u8]) -> u64 {
        offsets.iter().fold(0, |m, &a| m | 1 << a)
    }

    #[test]
    fn header_round_trips_all_counts() {
        for count in 1..=4usize {
            let listed: Vec<u8> = (0..count as u8).map(|i| i * 13 + 2).collect();
            let header = SentinelHeader {
                listed: bits(&listed),
                sentinel: (count == 4).then_some(0x2Au8),
            };
            let mut out = [0xEEu8; LINE_BYTES];
            header.encode(&mut out);
            let hdr = SentinelHeader::decode(&out).unwrap();
            assert_eq!(hdr, header);
            assert_eq!(hdr.header_bytes(), count);
            // Bytes beyond the header untouched.
            assert!(out[count..].iter().all(|&b| b == 0xEE));
        }
    }

    #[test]
    fn count_code_occupies_low_two_bits() {
        let mut out = [0u8; LINE_BYTES];
        SentinelHeader {
            listed: 1 << 7,
            sentinel: None,
        }
        .encode(&mut out);
        assert_eq!(out[0] & 0b11, 0b00);
        assert_eq!(out[0] >> 2, 7);
    }

    #[test]
    fn four_security_bytes_pack_exactly_four_bytes() {
        let mut out = [0xFFu8; LINE_BYTES];
        let header = SentinelHeader {
            listed: bits(&[0, 1, 2, 63]),
            sentinel: Some(0x3F),
        };
        header.encode(&mut out);
        assert_eq!(out[0] & 0b11, 0b11);
        assert_eq!(SentinelHeader::decode(&out).unwrap(), header);
        assert_eq!(out[4], 0xFF, "byte 4 is data, not header");
    }

    #[test]
    fn decode_rejects_descending_addresses() {
        // Count code 01, then Addr0 = 9 and Addr1 = 3: the two 6-bit
        // address fields of a valid [3, 9] header, swapped.
        let word: u32 = 0b01 | 9 << 2 | 3 << 8;
        let mut swapped = [0u8; LINE_BYTES];
        swapped[..4].copy_from_slice(&word.to_le_bytes());
        assert!(SentinelHeader::decode(&swapped).is_err());
        // A repeated address is not strictly ascending either.
        let word: u32 = 0b01 | 9 << 2 | 9 << 8;
        swapped[..4].copy_from_slice(&word.to_le_bytes());
        assert!(SentinelHeader::decode(&swapped).is_err());
    }

    #[test]
    fn displacement_counts_match_by_construction() {
        // Security bytes inside the header region shrink both sides equally.
        let listed = bits(&[1, 9, 17, 33]);
        let map: Vec<_> = displacement_map(listed, listed).collect();
        assert_eq!(map, vec![(0, 9), (2, 17), (3, 33)]);
    }

    #[test]
    fn displacement_empty_when_header_is_all_security() {
        let listed = bits(&[0, 1, 2, 3]);
        let mask = 0b1111u64 | 1 << 63;
        assert_eq!(displacement_map(listed, mask).count(), 0);
    }

    #[test]
    fn displacement_simple_case() {
        // One security byte at 40: header is byte 0, its data moves to 40.
        let map: Vec<_> = displacement_map(1 << 40, 1 << 40).collect();
        assert_eq!(map, vec![(0, 40)]);
    }

    #[test]
    #[should_panic(expected = "sentinel present iff")]
    fn encode_rejects_missing_sentinel() {
        let mut out = [0u8; LINE_BYTES];
        SentinelHeader {
            listed: 0b1111,
            sentinel: None,
        }
        .encode(&mut out);
    }
}
