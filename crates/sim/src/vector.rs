//! SIMD/vector load handling (paper Appendix B).
//!
//! Wide vector loads (e.g. 512-bit AVX-512) complicate precise
//! security-byte checking. The paper sketches three options and leaves
//! choosing between them as future work; this module implements all
//! three so the ablation bench can compare them:
//!
//! 1. [`VectorMode::Precise`] — behave like per-byte scalar loads (gather
//!    with masks): exact detection, zeros substituted, highest cost.
//! 2. [`VectorMode::TrapOnAny`] — issue the wide load as is and trap if it
//!    touches *any* security byte: cheap, but **false positives** when a
//!    vector sweep legitimately straddles a span.
//! 3. [`VectorMode::Propagate`] — add one poison bit per byte to the
//!    vector register, defer the exception to a *use* of a poisoned lane:
//!    no false positives on loads whose poisoned lanes are masked off
//!    before use.

use crate::coherence::CoherentHierarchy;
use crate::hierarchy::MemResult;
use califorms_core::{AccessKind, CaliformsException, ExceptionKind};

/// The Appendix B vector-load policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VectorMode {
    /// Option 1: per-byte precise checking (vector gather semantics).
    #[default]
    Precise,
    /// Option 2: trap when any loaded byte is a security byte.
    TrapOnAny,
    /// Option 3: propagate per-byte poison into the register; trap on use.
    Propagate,
}

/// A vector register value with its poison mask (option 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorValue {
    /// The lane bytes (zeros in poisoned lanes).
    pub data: Vec<u8>,
    /// Bit `i` set ⇒ lane byte `i` is poisoned (came from a security byte).
    pub poison: u64,
}

impl VectorValue {
    /// Whether using lanes `use_mask` (bit per byte) faults: any poisoned
    /// lane that is actually consumed raises the deferred exception.
    pub fn use_lanes(&self, use_mask: u64) -> Option<u64> {
        let hit = self.poison & use_mask;
        (hit != 0).then_some(hit)
    }
}

/// Performs a wide vector load of `len` bytes (≤64) by core `core`
/// under `mode`.
///
/// Returns the memory result (latency, possible exception) plus the
/// register value: the loaded bytes and, for [`VectorMode::Propagate`],
/// the poison mask (empty otherwise).
pub fn vector_load(
    hierarchy: &mut CoherentHierarchy,
    core: usize,
    addr: u64,
    len: usize,
    mode: VectorMode,
    pc: u64,
) -> (MemResult, VectorValue) {
    assert!(len <= 64, "one vector register's worth");
    // The data path is shared: the hierarchy load already substitutes
    // zeros and reports the first violating byte.
    let mut data = Vec::with_capacity(len);
    let r = hierarchy.load(core, addr, len, pc, Some(&mut data));
    // Reconstruct the per-byte poison from the functional view (the
    // hardware gets this from the L1 bit vector directly).
    let mut poison = 0u64;
    for i in 0..len {
        if hierarchy.peek_is_security_byte(addr + i as u64) {
            poison |= 1 << i;
        }
    }
    let value = VectorValue {
        data,
        poison: if mode == VectorMode::Propagate {
            poison
        } else {
            0
        },
    };
    let result = match mode {
        // Precise: identical to scalar semantics — the exception (if any)
        // is the per-byte one the load already produced.
        VectorMode::Precise => r,
        // TrapOnAny: same trigger condition here (any security byte in
        // range), but the trap is immediate and indiscriminate — the
        // difference shows up in false-positive accounting, not in this
        // single-access API.
        VectorMode::TrapOnAny => MemResult {
            exception: (poison != 0).then(|| CaliformsException {
                fault_addr: addr + poison.trailing_zeros() as u64,
                access: AccessKind::Load,
                kind: ExceptionKind::SecurityByteAccess,
                pc,
            }),
            ..r
        },
        // Propagate: the load itself never faults; poison travels in the
        // register.
        VectorMode::Propagate => MemResult {
            exception: None,
            ..r
        },
    };
    (result, value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coherence::CoherenceConfig;
    use crate::hierarchy::HierarchyConfig;
    use califorms_core::CformInstruction;

    fn hier() -> CoherentHierarchy {
        CoherentHierarchy::new(HierarchyConfig::westmere(), CoherenceConfig::westmere(), 1)
    }

    fn hier_with_span() -> (CoherentHierarchy, u64) {
        let mut h = hier();
        let base = 0x7000u64;
        h.store(0, base, &[0x11; 32], 0);
        // Span at bytes 16..19.
        h.cform(0, &CformInstruction::set(base, 0b111 << 16), 0);
        (h, base)
    }

    #[test]
    fn precise_mode_matches_scalar_semantics() {
        let (mut h, base) = hier_with_span();
        let (r, v) = vector_load(&mut h, 0, base, 32, VectorMode::Precise, 0);
        assert!(r.exception.is_some());
        assert_eq!(r.exception.unwrap().fault_addr, base + 16);
        assert_eq!(v.data[16], 0, "zero substituted");
        assert_eq!(v.data[15], 0x11);
        assert_eq!(v.poison, 0, "no poison tracking in precise mode");
    }

    #[test]
    fn trap_on_any_faults_even_on_clean_lanes_present() {
        let (mut h, base) = hier_with_span();
        let (r, _) = vector_load(&mut h, 0, base, 32, VectorMode::TrapOnAny, 0);
        assert!(r.exception.is_some());
        // A vector load that misses the span entirely is clean.
        let (r, _) = vector_load(&mut h, 0, base, 16, VectorMode::TrapOnAny, 0);
        assert!(r.exception.is_none());
    }

    #[test]
    fn propagate_defers_to_use() {
        let (mut h, base) = hier_with_span();
        let (r, v) = vector_load(&mut h, 0, base, 32, VectorMode::Propagate, 0);
        assert!(r.exception.is_none(), "load never faults");
        assert_eq!(v.poison, 0b111 << 16);
        // Using only the clean lower lanes: fine.
        assert_eq!(v.use_lanes(0xFFFF), None);
        // Consuming a poisoned lane faults.
        assert_eq!(v.use_lanes(1 << 17), Some(1 << 17));
        // Poisoned lanes read zero (no data leak even before use).
        assert_eq!(v.data[17], 0);
    }

    #[test]
    fn clean_vectors_are_clean_in_every_mode() {
        for mode in [
            VectorMode::Precise,
            VectorMode::TrapOnAny,
            VectorMode::Propagate,
        ] {
            let mut h = hier();
            h.store(0, 0x9000, &[3; 64], 0);
            let (r, v) = vector_load(&mut h, 0, 0x9000, 64, mode, 0);
            assert!(r.exception.is_none(), "{mode:?}");
            assert_eq!(v.poison, 0);
            assert_eq!(v.data, vec![3; 64]);
        }
    }
}
