//! Property-based tests for the core Califorms invariants (DESIGN.md §6).

use califorms_core::bitvector1::L1Line1;
use califorms_core::bitvector4::L1Line4;
use califorms_core::cform::CformInstruction;
use califorms_core::convert::{fill, spill};
use califorms_core::hwlogic;
use califorms_core::line::{CaliformedLine, LINE_BYTES};
use califorms_core::L1Line;
use proptest::prelude::*;

fn arb_line() -> impl Strategy<Value = CaliformedLine> {
    (proptest::array::uniform32(any::<u8>()), any::<u64>()).prop_map(|(half, mask)| {
        // Expand 32 random bytes into 64 deterministically (keeps the
        // strategy small without losing byte diversity).
        let mut data = [0u8; LINE_BYTES];
        for i in 0..LINE_BYTES {
            data[i] = half[i % 32].wrapping_add(i as u8);
        }
        CaliformedLine::new(data, mask)
    })
}

proptest! {
    /// Invariant (format round-trip): fill ∘ spill = identity.
    #[test]
    fn spill_fill_round_trip(line in arb_line()) {
        let l1 = L1Line::new(line);
        let l2 = spill(&l1).expect("spill always succeeds on canonical lines");
        let back = fill(&l2).expect("fill of spilled line succeeds");
        prop_assert_eq!(back, l1);
    }

    /// Invariant (sentinel existence): any line with ≥1 security byte has a
    /// free 6-bit pattern among its normal bytes.
    #[test]
    fn sentinel_always_found(line in arb_line()) {
        prop_assume!(line.is_califormed());
        let s = hwlogic::find_sentinel(line.data(), line.security_mask());
        prop_assert!(s.is_some());
        let s = s.unwrap();
        for i in line.normal_byte_indices() {
            prop_assert_ne!(line.data()[i] & 0x3F, s & 0x3F);
        }
    }

    /// The spilled format marks the line califormed iff it has security
    /// bytes, and clean lines are stored verbatim (the "natural" format).
    #[test]
    fn clean_lines_stay_natural(line in arb_line()) {
        let l2 = spill(&L1Line::new(line)).unwrap();
        prop_assert_eq!(l2.califormed, line.is_califormed());
        if !line.is_califormed() {
            prop_assert_eq!(&l2.bytes, line.data());
        }
    }

    /// Loads never observe security-byte data: every byte a load returns
    /// from a security position is zero, and violations are flagged.
    #[test]
    fn loads_zero_security_bytes(line in arb_line(), offset in 0usize..64, len in 1usize..16) {
        let len = len.min(LINE_BYTES - offset);
        let l1 = L1Line::new(line);
        let r = l1.load(offset, len);
        for i in 0..len {
            if line.is_security_byte(offset + i) {
                prop_assert_eq!(r.data[i], 0);
                prop_assert_eq!(r.violating_bytes >> i & 1, 1);
            } else {
                prop_assert_eq!(r.data[i], line.data()[offset + i]);
            }
        }
        prop_assert_eq!(r.violation, r.violating_bytes != 0);
    }

    /// CFORM set∘unset over any mask restores the original security mask
    /// (with affected data zeroed), and never faults when applied to
    /// disjoint state.
    #[test]
    fn cform_set_unset_round_trip(line in arb_line(), delta in any::<u64>()) {
        let free = !line.security_mask() & delta;
        prop_assume!(free != 0);
        let mut work = line;
        CformInstruction::set(0, free).execute(&mut work).unwrap();
        prop_assert_eq!(work.security_mask(), line.security_mask() | free);
        CformInstruction::unset(0, free).execute(&mut work).unwrap();
        prop_assert_eq!(work.security_mask(), line.security_mask());
        // Data at the touched positions is zeroed, untouched data survives.
        for i in 0..LINE_BYTES {
            if free >> i & 1 == 1 {
                prop_assert_eq!(work.read_byte(i), 0);
            } else if !line.is_security_byte(i) {
                prop_assert_eq!(work.read_byte(i), line.read_byte(i));
            }
        }
    }

    /// CFORM faults atomically: on error the line is unchanged.
    #[test]
    fn cform_faults_atomically(line in arb_line(), attrs in any::<u64>(), mask in any::<u64>()) {
        let mut work = line;
        let insn = CformInstruction::new(0, attrs, mask);
        if insn.execute(&mut work).is_err() {
            prop_assert_eq!(work, line);
        }
    }

    /// Appendix variants are lossless encodings of the canonical line.
    #[test]
    fn appendix_variants_round_trip(line in arb_line()) {
        prop_assert_eq!(L1Line4::encode(&line).decode(), line);
        prop_assert_eq!(L1Line1::encode(&line).decode(), line);
        // And their access checks agree with the canonical mask.
        let v4 = L1Line4::encode(&line);
        let v1 = L1Line1::encode(&line);
        for i in 0..LINE_BYTES {
            prop_assert_eq!(v4.is_security_byte(i), line.is_security_byte(i));
            prop_assert_eq!(v1.is_security_byte(i), line.is_security_byte(i));
        }
    }

    /// The sentinel header survives the spill: decoding the spilled line's
    /// header yields the first min(n,4) security locations in order.
    #[test]
    fn header_lists_first_locations(line in arb_line()) {
        prop_assume!(line.is_califormed());
        let l2 = spill(&L1Line::new(line)).unwrap();
        let header = l2.header().unwrap();
        let expected = line
            .security_byte_indices()
            .take(4)
            .fold(0u64, |listed, i| listed | 1 << i);
        prop_assert_eq!(header.listed, expected);
        prop_assert_eq!(
            header.sentinel.is_some(),
            line.security_byte_count() >= 4
        );
    }
}
