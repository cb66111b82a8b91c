//! The `CFORM` instruction (Section 4.1, Table 1).
//!
//! `CFORM R1, R2, R3` califorms one 64 B line:
//!
//! * `R1` — cache-line-aligned virtual address of the target line;
//! * `R2` — *attributes* bit vector: bit `i` = 1 requests byte `i` become a
//!   security byte, 0 requests it become a regular byte;
//! * `R3` — *mask* bit vector: bit `i` = 1 allows byte `i`'s state to
//!   change, 0 leaves it untouched (partial metadata updates).
//!
//! Per-byte semantics are the paper's Table 1 K-map:
//!
//! | initial \ (R2, R3)   | X, Disallow | Set, Allow    | Unset, Allow  |
//! |----------------------|-------------|---------------|---------------|
//! | **Regular byte**     | Regular     | Security byte | **Exception** |
//! | **Security byte**    | Security    | **Exception** | Regular byte  |
//!
//! Double-califorming and un-califorming a normal byte both raise the
//! privileged Califorms exception: they indicate allocator state confusion
//! or an attack on the metadata interface.
//!
//! In the pipeline the instruction behaves like a store (write-allocate
//! fetch into L1, then metadata manipulation) — that behaviour lives in the
//! simulator's LSQ; this module implements the architectural state change.

use crate::error::{CoreError, Result};
use crate::line::{CaliformedLine, LINE_BYTES};

/// A decoded `CFORM` instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CformInstruction {
    /// Cache-line-aligned start address of the 64 B target region (R1).
    pub line_addr: u64,
    /// Attribute bits: 1 = set security byte, 0 = unset (R2).
    pub attributes: u64,
    /// Mask bits: 1 = allow the byte's state to change (R3).
    pub mask: u64,
}

/// Result of executing a `CFORM` on a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CformOutcome {
    /// Number of bytes newly turned into security bytes.
    pub bytes_set: u32,
    /// Number of security bytes turned back into regular bytes.
    pub bytes_unset: u32,
}

impl CformInstruction {
    /// Builds a `CFORM`, checking alignment of `line_addr`.
    ///
    /// # Panics
    ///
    /// Panics if `line_addr` is not 64-byte aligned — a misaligned R1 is an
    /// encoding error, not a runtime condition.
    pub fn new(line_addr: u64, attributes: u64, mask: u64) -> Self {
        assert_eq!(
            line_addr % LINE_BYTES as u64,
            0,
            "CFORM target must be cache-line aligned"
        );
        Self {
            line_addr,
            attributes,
            mask,
        }
    }

    /// A `CFORM` that sets exactly the security bytes in `set_mask` (attributes
    /// and mask equal), the common allocation-time encoding.
    pub fn set(line_addr: u64, set_mask: u64) -> Self {
        Self::new(line_addr, set_mask, set_mask)
    }

    /// A `CFORM` that unsets exactly the security bytes in `unset_mask`.
    pub fn unset(line_addr: u64, unset_mask: u64) -> Self {
        Self::new(line_addr, 0, unset_mask)
    }

    /// Executes the instruction against a line, per the Table 1 K-map.
    ///
    /// On success the line's metadata (and the zeroing of affected bytes)
    /// is updated and the outcome counts are returned. On an exception the
    /// line is left **unmodified** — the instruction faults before
    /// committing any of its byte updates, like a store that fails its
    /// permission check.
    ///
    /// # Errors
    ///
    /// * [`CoreError::CformSetOnSecurityByte`] — Set/Allow on a byte that is
    ///   already a security byte;
    /// * [`CoreError::CformUnsetOnNormalByte`] — Unset/Allow on a byte that
    ///   is a regular byte.
    pub fn execute(&self, line: &mut CaliformedLine) -> Result<CformOutcome> {
        let old = line.security_mask();
        let set = self.mask & self.attributes;
        let unset = self.mask & !self.attributes;
        // The K-map's two exception cells for all 64 bytes at once; the
        // lowest faulting byte is the one a byte-order scan would report.
        let faults = set & old | unset & !old;
        if faults != 0 {
            let index = faults.trailing_zeros() as usize;
            return Err(if old >> index & 1 == 1 {
                CoreError::CformSetOnSecurityByte { index }
            } else {
                CoreError::CformUnsetOnNormalByte { index }
            });
        }
        // Commit: every allowed byte flips state and is zeroed. The unset
        // bytes were security bytes, whose data is already zero, so
        // canonicalising under the new mask zeroes exactly the set ones.
        *line = CaliformedLine::new(*line.data(), old ^ self.mask);
        Ok(CformOutcome {
            bytes_set: set.count_ones(),
            bytes_unset: unset.count_ones(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_turns_regular_into_security() {
        let mut line = CaliformedLine::from_data([7; LINE_BYTES]);
        let outcome = CformInstruction::set(0, 0b1010).execute(&mut line).unwrap();
        assert_eq!(outcome.bytes_set, 2);
        assert_eq!(outcome.bytes_unset, 0);
        assert!(line.is_security_byte(1) && line.is_security_byte(3));
        assert_eq!(line.read_byte(1), 0, "califormed bytes are zeroed");
        assert_eq!(line.read_byte(0), 7, "masked-off bytes untouched");
    }

    #[test]
    fn unset_turns_security_into_regular() {
        let mut line = CaliformedLine::zeroed();
        line.set_security_byte(5);
        let outcome = CformInstruction::unset(64, 1 << 5)
            .execute(&mut line)
            .unwrap();
        assert_eq!(outcome.bytes_unset, 1);
        assert!(!line.is_security_byte(5));
    }

    #[test]
    fn kmap_set_on_security_is_exception() {
        let mut line = CaliformedLine::zeroed();
        line.set_security_byte(2);
        let err = CformInstruction::set(0, 1 << 2)
            .execute(&mut line)
            .unwrap_err();
        assert_eq!(err, CoreError::CformSetOnSecurityByte { index: 2 });
    }

    #[test]
    fn kmap_unset_on_normal_is_exception() {
        let mut line = CaliformedLine::zeroed();
        let err = CformInstruction::unset(0, 1 << 9)
            .execute(&mut line)
            .unwrap_err();
        assert_eq!(err, CoreError::CformUnsetOnNormalByte { index: 9 });
    }

    #[test]
    fn kmap_dont_care_never_faults() {
        // mask = 0 everywhere: any attribute pattern is a no-op.
        let mut line = CaliformedLine::from_data([3; LINE_BYTES]);
        line.set_security_byte(0);
        let before = line;
        let outcome = CformInstruction::new(0, u64::MAX, 0)
            .execute(&mut line)
            .unwrap();
        assert_eq!(line, before);
        assert_eq!((outcome.bytes_set, outcome.bytes_unset), (0, 0));
    }

    #[test]
    fn kmap_exhaustive_single_byte() {
        // All four (initial, R2) combinations under Allow, per Table 1.
        for (initially_security, set_bit, expect_err) in [
            (false, true, false), // Regular + Set    → Security
            (false, false, true), // Regular + Unset  → Exception
            (true, true, true),   // Security + Set   → Exception
            (true, false, false), // Security + Unset → Regular
        ] {
            let mut line = CaliformedLine::zeroed();
            if initially_security {
                line.set_security_byte(0);
            }
            let insn = CformInstruction::new(0, set_bit as u64, 1);
            assert_eq!(
                insn.execute(&mut line).is_err(),
                expect_err,
                "initial_security={initially_security} set={set_bit}"
            );
        }
    }

    #[test]
    fn faulting_cform_commits_nothing() {
        let mut line = CaliformedLine::from_data([1; LINE_BYTES]);
        line.set_security_byte(8);
        let before = line;
        // Byte 0 would legally be set, but byte 8 faults: atomic failure.
        let insn = CformInstruction::set(0, 1 | 1 << 8);
        assert!(insn.execute(&mut line).is_err());
        assert_eq!(line, before);
    }

    #[test]
    fn partial_update_mixes_set_and_unset() {
        let mut line = CaliformedLine::from_data([2; LINE_BYTES]);
        line.set_security_byte(1);
        // Set byte 0, unset byte 1, leave the rest.
        let insn = CformInstruction::new(0, 0b01, 0b11);
        let outcome = insn.execute(&mut line).unwrap();
        assert_eq!((outcome.bytes_set, outcome.bytes_unset), (1, 1));
        assert!(line.is_security_byte(0));
        assert!(!line.is_security_byte(1));
    }

    #[test]
    #[should_panic(expected = "cache-line aligned")]
    fn misaligned_address_panics() {
        CformInstruction::set(13, 1);
    }
}
