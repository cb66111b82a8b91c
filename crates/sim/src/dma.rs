//! Heterogeneous / DMA access (Section 7.2, "Heterogeneous Architectural
//! Attacks").
//!
//! Califorms' protection lives in the memory hierarchy's layers; a DMA
//! engine (or accelerator) that bypasses them sees the **raw sentinel
//! format** below the L1. This module models both worlds:
//!
//! * a *califorms-aware* engine ([`DmaEngine::respecting`]) performs the
//!   fill conversion and honours security bytes — the mitigation the
//!   paper prescribes ("these mechanisms \[must\] always respect the
//!   security byte semantics");
//! * a *legacy* engine ([`DmaEngine::bypassing`]) copies raw bytes. The
//!   tests demonstrate the two failure modes the paper warns about: the
//!   tripwires are silently skipped, **and** the data itself is garbled,
//!   because a califormed line's first bytes hold the header and the
//!   displaced data sits in the security-byte slots.

use crate::coherence::CoherentHierarchy;
use crate::{line_base, line_offset, LINE_BYTES};
use califorms_core::fill_canonical;

/// Result of a DMA transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DmaTransfer {
    /// Bytes delivered to the device.
    pub data: Vec<u8>,
    /// Security bytes encountered (aware engines report them; bypassing
    /// engines cannot tell and always report 0).
    pub security_bytes_seen: usize,
}

/// A DMA engine reading below the L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaEngine {
    /// Whether the engine understands the califorms-sentinel format.
    pub respects_califorms: bool,
}

impl DmaEngine {
    /// An engine extended with califorms support (the mitigation).
    pub const fn respecting() -> Self {
        Self {
            respects_califorms: true,
        }
    }

    /// A legacy engine that bypasses the security-byte semantics.
    pub const fn bypassing() -> Self {
        Self {
            respects_califorms: false,
        }
    }

    /// Reads `[addr, addr+len)` directly from memory (the machine first
    /// writes the lines back from every core's L1, as a coherent DMA would
    /// force). A transfer may cover up to and including the last byte of
    /// the address space.
    ///
    /// # Panics
    ///
    /// Panics if the transfer wraps around the 64-bit address space
    /// (`addr + len - 1` overflows) — a wrapping descriptor is a
    /// programming error (real DMA engines fault it), and the old
    /// unchecked arithmetic made it silently read nothing.
    pub fn read(&self, hierarchy: &mut CoherentHierarchy, addr: u64, len: usize) -> DmaTransfer {
        let mut data = Vec::with_capacity(len);
        let mut security = 0usize;
        if len == 0 {
            return DmaTransfer {
                data,
                security_bytes_seen: security,
            };
        }
        // Inclusive last byte, so a transfer ending flush at the top of
        // the address space is representable and only true wraps fault.
        let last = addr.checked_add(len as u64 - 1).unwrap_or_else(|| {
            panic!(
                "DMA transfer [{addr:#x}, {addr:#x} + {len:#x}) wraps past the \
                 top of the address space"
            )
        });
        let mut line_addr = line_base(addr);
        loop {
            hierarchy.evict_line_to_dram(line_addr);
            let raw = hierarchy.dram_line(line_addr);
            let line_last = (line_addr | (LINE_BYTES - 1)).min(last);
            let start = if line_addr <= addr {
                line_offset(addr)
            } else {
                0
            };
            let end_off = (line_last - line_addr) as usize;
            if self.respects_califorms {
                let l1 = fill_canonical(&raw);
                for off in start..=end_off {
                    if l1.line().is_security_byte(off) {
                        security += 1;
                        data.push(0); // zero-substitute, like the core would
                    } else {
                        data.push(l1.line().data()[off]);
                    }
                }
            } else {
                // Legacy path: raw bytes, sentinel header and all.
                data.extend_from_slice(&raw.bytes[start..=end_off]);
            }
            if line_last == last {
                break;
            }
            line_addr += LINE_BYTES;
        }
        DmaTransfer {
            data,
            security_bytes_seen: security,
        }
    }
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

    fn hier_with_victim() -> (CoherentHierarchy, u64) {
        let mut h = hier();
        let base = 0x6_0000u64;
        h.store(0, base, &[0xAB; 16], 0);
        h.cform(0, &CformInstruction::set(base, 1 << 4), 0);
        (h, base)
    }

    #[test]
    fn respecting_dma_behaves_like_the_core() {
        let (mut h, base) = hier_with_victim();
        let t = DmaEngine::respecting().read(&mut h, base, 16);
        assert_eq!(t.security_bytes_seen, 1);
        assert_eq!(t.data[4], 0, "security byte zero-substituted");
        assert_eq!(t.data[0], 0xAB);
        assert_eq!(t.data[15], 0xAB);
    }

    #[test]
    fn bypassing_dma_misses_tripwires_and_garbles_data() {
        let (mut h, base) = hier_with_victim();
        let t = DmaEngine::bypassing().read(&mut h, base, 16);
        assert_eq!(t.security_bytes_seen, 0, "legacy engine is blind");
        // The raw sentinel line puts the header in byte 0 (count code +
        // Addr0 = 4 → byte0 = 0b000100_00 = 0x10, not the program's 0xAB):
        // the device receives garbage, the paper's compatibility hazard.
        assert_ne!(t.data[0], 0xAB, "header where data should be");
        // And the displaced original byte sits in the security slot.
        assert_eq!(t.data[4], 0xAB, "displaced data visible raw");
    }

    /// A transfer that would wrap past the top of the address space must
    /// fault loudly instead of silently reading nothing (`addr + len`
    /// used to wrap, making `cur < end` false immediately).
    #[test]
    #[should_panic(expected = "wraps past the top of the address space")]
    fn wrapping_transfer_panics() {
        let mut h = hier();
        DmaEngine::respecting().read(&mut h, u64::MAX - 7, 16);
    }

    /// The top of the address space stays addressable: a transfer
    /// covering the whole final line — including the very last byte —
    /// is served without tripping the wrap check.
    #[test]
    fn transfer_ending_at_address_space_top_is_served() {
        let mut h = hier();
        let base = u64::MAX - 63; // final line's base
        h.store(0, base, &[0xEE; 8], 0);
        let t = DmaEngine::respecting().read(&mut h, base, 64);
        assert_eq!(t.data.len(), 64);
        assert_eq!(&t.data[..8], &[0xEE; 8]);
        let t = DmaEngine::bypassing().read(&mut h, base, 64);
        assert_eq!(t.data.len(), 64);
        // An unaligned tail read of just the last bytes also works.
        let t = DmaEngine::respecting().read(&mut h, u64::MAX - 2, 3);
        assert_eq!(t.data.len(), 3);
        // Zero-length transfers are trivially empty.
        let t = DmaEngine::respecting().read(&mut h, base, 0);
        assert!(t.data.is_empty());
    }

    #[test]
    fn clean_lines_are_identical_for_both_engines() {
        let mut h = hier();
        h.store(0, 0x7_0000, &[3, 1, 4, 1, 5, 9, 2, 6], 0);
        let a = DmaEngine::respecting().read(&mut h, 0x7_0000, 8);
        let b = DmaEngine::bypassing().read(&mut h, 0x7_0000, 8);
        assert_eq!(a.data, b.data);
        assert_eq!(a.data, vec![3, 1, 4, 1, 5, 9, 2, 6]);
    }
}
