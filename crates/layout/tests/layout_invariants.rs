//! Property tests on the layout engine and insertion policies: whatever
//! struct definition and policy are thrown at them, the resulting layouts
//! must keep the structural invariants a C compiler (and the allocator)
//! depend on.

use califorms_layout::califormed::{CaliformedLayout, CformOp, SecuritySpan};
use califorms_layout::ctype::{CType, Field, Scalar, StructDef};
use califorms_layout::{InsertionPolicy, StructLayout};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// `cform_ops` as one loop iteration per security byte, with a linear
/// search for the byte's line and a final sort, kept only as the oracle
/// the line-piece walk is compared against.
mod reference {
    use super::*;

    pub fn cform_ops(layout: &CaliformedLayout, base: u64) -> Vec<CformOp> {
        let mut ops: Vec<CformOp> = Vec::new();
        for span in &layout.security_spans {
            for i in 0..span.len {
                let addr = base + (span.offset + i) as u64;
                let line_addr = addr & !63;
                let bit = (addr - line_addr) as u32;
                match ops.iter_mut().find(|op| op.line_addr == line_addr) {
                    Some(op) => op.mask |= 1 << bit,
                    None => ops.push(CformOp {
                        line_addr,
                        mask: 1 << bit,
                    }),
                }
            }
        }
        ops.sort_by_key(|op| op.line_addr);
        ops
    }
}

fn arb_scalar() -> impl Strategy<Value = Scalar> {
    prop_oneof![
        Just(Scalar::Char),
        Just(Scalar::Short),
        Just(Scalar::Int),
        Just(Scalar::Long),
        Just(Scalar::Float),
        Just(Scalar::Double),
        Just(Scalar::Ptr),
        Just(Scalar::FnPtr),
    ]
}

fn arb_struct() -> impl Strategy<Value = StructDef> {
    proptest::collection::vec((arb_scalar(), 0usize..3, 1usize..24), 1..10).prop_map(|fields| {
        StructDef::new(
            "s",
            fields
                .into_iter()
                .enumerate()
                .map(|(i, (scalar, kind, n))| {
                    let ty = match kind {
                        0 => CType::Scalar(scalar),
                        1 => CType::Array(Box::new(CType::Scalar(scalar)), n),
                        _ => CType::Struct(StructDef::new(
                            format!("inner{i}"),
                            vec![
                                Field::new("a", CType::Scalar(Scalar::Char)),
                                Field::new("b", CType::Scalar(scalar)),
                            ],
                        )),
                    };
                    Field::new(format!("f{i}"), ty)
                })
                .collect(),
        )
    })
}

fn arb_policy() -> impl Strategy<Value = InsertionPolicy> {
    prop_oneof![
        Just(InsertionPolicy::None),
        Just(InsertionPolicy::Opportunistic),
        (1u8..=7, 1u8..=7).prop_map(|(a, b)| InsertionPolicy::Full {
            min: a.min(b),
            max: a.max(b)
        }),
        (1u8..=7, 1u8..=7).prop_map(|(a, b)| InsertionPolicy::Intelligent {
            min: a.min(b),
            max: a.max(b)
        }),
        (1u8..=7).prop_map(InsertionPolicy::FixedPad),
    ]
}

/// A layout with arbitrary ascending, non-overlapping spans: gaps of 0 to
/// 80 bytes (adjacent spans included) and lengths of 1 to 200 bytes, so
/// spans start and end anywhere in a line and may cover whole lines.
fn arb_span_layout() -> impl Strategy<Value = CaliformedLayout> {
    proptest::collection::vec((0usize..80, 1usize..200), 0..12).prop_map(|pieces| {
        let mut offset = 0;
        let security_spans: Vec<SecuritySpan> = pieces
            .into_iter()
            .map(|(gap, len)| {
                let span = SecuritySpan {
                    offset: offset + gap,
                    len,
                };
                offset = span.offset + span.len;
                span
            })
            .collect();
        CaliformedLayout {
            name: "spans".into(),
            fields: vec![],
            security_spans,
            size: offset.max(1),
            align: 16,
            natural_size: 0,
        }
    })
}

proptest! {
    /// Natural layout: fields are in bounds, non-overlapping, aligned;
    /// density accounting is exact.
    #[test]
    fn natural_layout_invariants(def in arb_struct()) {
        let layout = StructLayout::natural(&def);
        let mut cursor = 0usize;
        for (f, df) in layout.fields.iter().zip(&def.fields) {
            prop_assert!(f.offset >= cursor, "fields in declaration order");
            prop_assert_eq!(f.offset % df.ty.align(), 0, "field aligned");
            prop_assert!(f.offset + f.size <= layout.size, "field in bounds");
            cursor = f.offset + f.size;
        }
        prop_assert_eq!(layout.size % layout.align, 0, "size multiple of align");
        prop_assert_eq!(
            layout.payload_bytes() + layout.padding_bytes(),
            layout.size,
            "payload + padding == size"
        );
        let d = layout.density();
        prop_assert!((0.0..=1.0).contains(&d));
    }

    /// Califormed layouts: spans and fields tile without overlap, fields
    /// keep their alignment, and no span byte falls inside a field.
    #[test]
    fn califormed_layout_invariants(def in arb_struct(), policy in arb_policy(), seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let l = policy.apply(&def, &mut rng);
        for f in &l.fields {
            prop_assert!(f.offset + f.size <= l.size);
            for s in &l.security_spans {
                let disjoint = f.offset + f.size <= s.offset || s.offset + s.len <= f.offset;
                prop_assert!(disjoint, "span {:?} overlaps field {}", s, f.name);
            }
        }
        for s in &l.security_spans {
            prop_assert!(s.len >= 1);
            prop_assert!(s.offset + s.len <= l.size, "span in bounds");
        }
        // Strictly ascending and non-overlapping: `cform_ops` merges each
        // span's first line piece into the previous span's last op.
        for w in l.security_spans.windows(2) {
            prop_assert!(w[0].offset < w[1].offset, "{:?}: spans not ascending", policy);
            prop_assert!(w[0].offset + w[0].len <= w[1].offset, "spans ordered, disjoint");
        }
        prop_assert!(l.size >= l.natural_size || !policy.changes_layout());
        prop_assert_eq!(l.size % l.align.max(1), 0);
        // Every field keeps its natural alignment.
        for (f, df) in l.fields.iter().zip(&def.fields) {
            prop_assert_eq!(f.offset % df.ty.align(), 0, "{} aligned", f.name);
        }
    }

    /// CFORM mask bits equal the span byte count, for any allocation base.
    #[test]
    fn cform_ops_cover_exactly_the_spans(
        def in arb_struct(),
        policy in arb_policy(),
        seed in any::<u64>(),
        base_block in 0u64..1024,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let l = policy.apply(&def, &mut rng);
        let base = 0x1000_0000 + base_block * 16;
        let ops = l.cform_ops(base);
        let bits: u32 = ops.iter().map(|op| op.mask.count_ones()).sum();
        prop_assert_eq!(bits as usize, l.security_bytes());
        // Masks point at the right absolute bytes.
        for op in &ops {
            for bit in 0..64u64 {
                if op.mask >> bit & 1 == 1 {
                    let addr = op.line_addr + bit;
                    let off = (addr - base) as usize;
                    prop_assert!(l.is_security_offset(off), "offset {off}");
                }
            }
        }
    }

    /// `cform_ops` equals the per-byte reference at 16-byte-aligned bases,
    /// for policy layouts and for spans of any length and placement,
    /// including spans that cover whole lines and spans that touch.
    #[test]
    fn cform_ops_match_the_per_byte_reference(
        def in arb_struct(),
        policy in arb_policy(),
        seed in any::<u64>(),
        spans in arb_span_layout(),
        base_block in 0u64..1024,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let base = 0x1000_0000 + base_block * 16;
        for l in [&policy.apply(&def, &mut rng), &spans] {
            prop_assert_eq!(l.cform_ops(base), reference::cform_ops(l, base));
        }
    }
}
