//! Califormed layouts: where fields and security bytes land after a policy
//! runs, and the `CFORM` operations an allocator must issue (Section 6.1).

use califorms_core::LINE_BYTES;

/// A run of security bytes within a califormed layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecuritySpan {
    /// Byte offset of the first security byte.
    pub offset: usize,
    /// Span length in bytes.
    pub len: usize,
}

/// A struct layout after security-byte insertion.
#[derive(Debug, Clone, PartialEq)]
pub struct CaliformedLayout {
    /// Struct name.
    pub name: String,
    /// Fields at their (possibly shifted) offsets.
    pub fields: Vec<crate::layout::PlacedField>,
    /// Security-byte spans, ascending, non-overlapping.
    pub security_spans: Vec<SecuritySpan>,
    /// Total object size including security bytes.
    pub size: usize,
    /// Struct alignment (unchanged by insertion).
    pub align: usize,
    /// The natural (pre-insertion) size, for overhead accounting.
    pub natural_size: usize,
}

/// One `CFORM` the allocator issues: a line address plus the byte mask to
/// set (or unset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CformOp {
    /// Cache-line-aligned address.
    pub line_addr: u64,
    /// Bit `i` set ⇒ byte `i` of the line is a security byte of this object.
    pub mask: u64,
}

impl CaliformedLayout {
    /// Total security bytes in the object.
    pub fn security_bytes(&self) -> usize {
        self.security_spans.iter().map(|s| s.len).sum()
    }

    /// Memory overhead factor vs the natural layout (1.0 = free).
    pub fn memory_overhead(&self) -> f64 {
        if self.natural_size == 0 {
            1.0
        } else {
            self.size as f64 / self.natural_size as f64
        }
    }

    /// Whether byte `offset` within the object is a security byte.
    pub fn is_security_offset(&self, offset: usize) -> bool {
        self.security_spans
            .iter()
            .any(|s| (s.offset..s.offset + s.len).contains(&offset))
    }

    /// Fraction of the object that is blacklisted (the `P/N` of the
    /// Section 7.3 derandomisation analysis).
    pub fn blacklist_fraction(&self) -> f64 {
        if self.size == 0 {
            0.0
        } else {
            self.security_bytes() as f64 / self.size as f64
        }
    }

    /// The per-line `CFORM` set operations for an object allocated at
    /// `base` (which the paper's `malloc` issues after allocation;
    /// one `CFORM` covers one line), in ascending line order. Lines
    /// without security bytes get no operation.
    ///
    /// Each span is cut at line boundaries into pieces, and each piece is
    /// one contiguous bit range. The spans are ascending and
    /// non-overlapping, so a piece either lands on the line of the last op
    /// or starts a new one.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not at least 8-byte aligned — heap allocators
    /// guarantee ABI alignment, and the mask math assumes in-line offsets.
    pub fn cform_ops(&self, base: u64) -> Vec<CformOp> {
        assert_eq!(base % 8, 0, "allocation base must be ABI-aligned");
        const LINE: u64 = LINE_BYTES as u64;
        let mut ops: Vec<CformOp> = Vec::new();
        for span in &self.security_spans {
            let mut addr = base + span.offset as u64;
            let end = addr + span.len as u64;
            while addr < end {
                let line_addr = addr & !(LINE - 1);
                let lo = addr - line_addr;
                let hi = (end - line_addr).min(LINE);
                let mask = (u64::MAX >> (LINE - (hi - lo))) << lo;
                match ops.last_mut() {
                    Some(op) if op.line_addr == line_addr => op.mask |= mask,
                    _ => ops.push(CformOp { line_addr, mask }),
                }
                addr = line_addr + hi;
            }
        }
        ops
    }

    /// Byte offset of a named field, if present.
    pub fn field_offset(&self, name: &str) -> Option<usize> {
        self.fields
            .iter()
            .find(|f| f.name == name)
            .map(|f| f.offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctype::StructDef;
    use crate::policy::InsertionPolicy;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn layout() -> CaliformedLayout {
        let mut rng = SmallRng::seed_from_u64(7);
        InsertionPolicy::Opportunistic.apply(&StructDef::paper_example(), &mut rng)
    }

    #[test]
    fn security_byte_accounting() {
        let l = layout();
        assert_eq!(l.security_bytes(), 3);
        assert!(l.is_security_offset(1));
        assert!(l.is_security_offset(3));
        assert!(!l.is_security_offset(0));
        assert!(!l.is_security_offset(4));
        assert!((l.blacklist_fraction() - 3.0 / 88.0).abs() < 1e-12);
    }

    #[test]
    fn cform_ops_single_line() {
        let l = layout();
        let ops = l.cform_ops(0x1000);
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].line_addr, 0x1000);
        assert_eq!(ops[0].mask, 0b1110); // bytes 1..4
    }

    #[test]
    fn cform_ops_span_multiple_lines() {
        let l = layout();
        // Base at 8 bytes below a line boundary puts offsets 1..4 in the
        // same line; shift so the span crosses: base = line end - 2.
        let base = (0x1000 + 62) & !7u64; // 0x1038: offsets 1..4 → 0x1039..0x103C, same line
        let ops = l.cform_ops(base);
        assert_eq!(ops.len(), 1);
        // Now force a cross: security span at offsets 1,2,3 from base 0x103E
        // isn't ABI-aligned; craft a layout instead.
        let cross = CaliformedLayout {
            name: "X".into(),
            fields: vec![],
            security_spans: vec![SecuritySpan { offset: 62, len: 4 }],
            size: 72,
            align: 8,
            natural_size: 64,
        };
        let ops = cross.cform_ops(0x1000);
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].line_addr, 0x1000);
        assert_eq!(ops[0].mask, 1 << 62 | 1 << 63);
        assert_eq!(ops[1].line_addr, 0x1040);
        assert_eq!(ops[1].mask, 0b11);
    }

    #[test]
    fn no_spans_no_ops() {
        let mut rng = SmallRng::seed_from_u64(7);
        let l = InsertionPolicy::None.apply(&StructDef::paper_example(), &mut rng);
        assert!(l.cform_ops(0x2000).is_empty());
        assert_eq!(l.blacklist_fraction(), 0.0);
    }

    #[test]
    fn field_offsets_are_queryable() {
        let l = layout();
        assert_eq!(l.field_offset("c"), Some(0));
        assert_eq!(l.field_offset("i"), Some(4));
        assert_eq!(l.field_offset("buf"), Some(8));
        assert_eq!(l.field_offset("nope"), None);
    }

    #[test]
    fn full_policy_mask_bits_match_span_bytes() {
        let mut rng = SmallRng::seed_from_u64(11);
        let l = InsertionPolicy::full_1_to(7).apply(&StructDef::paper_example(), &mut rng);
        let total_bits: u32 = l.cform_ops(0).iter().map(|op| op.mask.count_ones()).sum();
        assert_eq!(total_bits as usize, l.security_bytes());
    }
}
