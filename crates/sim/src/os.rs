//! Operating-system support (Section 6.3): page swap with metadata
//! preservation, and the I/O boundary where califormed data must be
//! un-califormed.
//!
//! * **Page swaps.** Lines stay califormed throughout the memory
//!   hierarchy, with the per-line metadata bit parked in spare ECC bits —
//!   which swap devices don't have. On swap-out the page-fault handler
//!   gathers the 64 per-line bits of a 4 KB page into one 8 B word stored
//!   in a reserved kernel region ("the metadata for a 4KB page consumes
//!   only 8B"); on swap-in the bits are reclaimed and the ECC bits
//!   restored.
//! * **I/O boundary.** A califormed line is un-califormed only when its
//!   bytes cross a boundary where the format cannot be understood (pipe,
//!   filesystem, socket): the exported copy carries zeros in security-byte
//!   positions and the metadata never leaves the machine.

use crate::coherence::CoherentHierarchy;
use crate::dma::DmaEngine;
use crate::hierarchy::LineMap;
use crate::LINE_BYTES;
use califorms_core::L2Line;

/// Page size: 4 KB = 64 cache lines.
pub const PAGE_BYTES: u64 = 4096;
/// Lines per page.
pub const LINES_PER_PAGE: u64 = PAGE_BYTES / LINE_BYTES;

/// The kernel's swap state: page payloads on the (simulated) swap device
/// plus the reserved-region metadata words.
///
/// # Determinism invariant
///
/// Both maps use the deterministic [`LineMap`] hasher, **not** the
/// default per-process-seeded `RandomState`: their iteration order (and
/// therefore anything derived from it, like [`Self::swapped_page_addrs`]
/// or a future swap-storm/stats path) is a pure function of the
/// swap-out/swap-in sequence, identical across fresh processes. The
/// `nondet-map` lint in `califorms-analyze` enforces this structurally.
#[derive(Debug, Default)]
pub struct SwapManager {
    /// Swap device: page base → 64 line payloads (raw bytes only — no
    /// metadata bit, that's the point).
    device: LineMap<Vec<[u8; LINE_BYTES as usize]>>,
    /// Reserved kernel region: page base → one 64-bit word, bit `i` =
    /// *line i of the page is califormed*.
    metadata: LineMap<u64>,
}

impl SwapManager {
    /// A fresh swap manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pages currently swapped out.
    pub fn swapped_pages(&self) -> usize {
        self.device.len()
    }

    /// Bytes of reserved kernel address space consumed by swap metadata
    /// (8 B per swapped page — the Section 6.3 accounting).
    pub fn metadata_bytes(&self) -> usize {
        self.metadata.len() * 8
    }

    /// Base addresses of the currently swapped-out pages, in the swap
    /// device's map-iteration order. Because the device is a [`LineMap`],
    /// that order is a deterministic function of the swap-out/swap-in
    /// sequence — the same across fresh processes — so callers (swap-storm
    /// workloads, kernel stats) may iterate it without perturbing
    /// bit-identical results (`crates/sim/tests/os_determinism.rs` checks
    /// this across processes).
    pub fn swapped_page_addrs(&self) -> Vec<u64> {
        self.device.keys().copied().collect()
    }

    /// Swaps a page out: every line is first written back from the caches,
    /// then its payload goes to the swap device and its metadata bit into
    /// the reserved region; the DRAM copies are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `page_addr` is not page-aligned or the page is already
    /// swapped out (kernel invariant violations).
    pub fn swap_out(&mut self, hierarchy: &mut CoherentHierarchy, page_addr: u64) {
        assert_eq!(page_addr % PAGE_BYTES, 0, "page-aligned address required");
        assert!(
            !self.device.contains_key(&page_addr),
            "page already swapped out"
        );
        let mut payload = Vec::with_capacity(LINES_PER_PAGE as usize);
        let mut meta = 0u64;
        for i in 0..LINES_PER_PAGE {
            let line_addr = page_addr + i * LINE_BYTES;
            hierarchy.evict_line_to_dram(line_addr);
            let line = hierarchy.dram_line(line_addr);
            if line.califormed {
                meta |= 1 << i;
            }
            payload.push(line.bytes);
            hierarchy.remove_dram_line(line_addr);
        }
        self.device.insert(page_addr, payload);
        self.metadata.insert(page_addr, meta);
    }

    /// Swaps a page back in, restoring each line's payload to DRAM and its
    /// metadata bit to the spare ECC bits; the reserved-region word is
    /// reclaimed.
    ///
    /// # Panics
    ///
    /// Panics if the page is not currently swapped out.
    pub fn swap_in(&mut self, hierarchy: &mut CoherentHierarchy, page_addr: u64) {
        let payload = self
            .device
            .remove(&page_addr)
            .expect("swap-in of a resident page");
        let meta = self
            .metadata
            .remove(&page_addr)
            .expect("metadata exists for every swapped page");
        for (i, bytes) in payload.into_iter().enumerate() {
            let line_addr = page_addr + i as u64 * LINE_BYTES;
            hierarchy.set_dram_line(
                line_addr,
                L2Line {
                    bytes,
                    califormed: meta >> i & 1 == 1,
                },
            );
        }
    }
}

/// Result of exporting memory across the I/O boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoExport {
    /// The un-califormed bytes as the other end sees them (zeros where
    /// security bytes sat).
    pub data: Vec<u8>,
    /// How many security bytes were crossed (audit trail; a `write()` of a
    /// struct with spans is legitimate, but the kernel can log it).
    pub security_bytes_crossed: usize,
}

/// Copies `[addr, addr+len)` out of the memory system in un-califormed
/// form — the `write(2)`-to-pipe/file/socket path. The in-memory lines
/// remain califormed; only the exported copy is stripped. The kernel
/// reads memory as a califorms-aware DMA engine does
/// ([`DmaEngine::respecting`]), so an export may end flush at the top of
/// the address space.
///
/// # Panics
///
/// Panics if the export wraps around the 64-bit address space, as
/// [`DmaEngine::read`] does.
pub fn io_write(hierarchy: &mut CoherentHierarchy, addr: u64, len: usize) -> IoExport {
    let t = DmaEngine::respecting().read(hierarchy, addr, len);
    IoExport {
        data: t.data,
        security_bytes_crossed: t.security_bytes_seen,
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

    /// The bytes a load of `len` at `addr` returns.
    fn read(h: &mut CoherentHierarchy, addr: u64, len: usize) -> Vec<u8> {
        let mut data = Vec::new();
        h.load(0, addr, len, 0, Some(&mut data));
        data
    }

    #[test]
    fn swap_out_in_preserves_data_and_metadata() {
        let mut h = hier();
        let page = 0x10_0000u64;
        // Populate a few lines, caliform some bytes.
        h.store(0, page, &[1, 2, 3, 4], 0);
        h.store(0, page + 128, &[5, 6], 0);
        h.cform(0, &CformInstruction::set(page, 1 << 60), 0);
        h.cform(0, &CformInstruction::set(page + 128, 1 << 7), 0);

        let mut swap = SwapManager::new();
        swap.swap_out(&mut h, page);
        assert_eq!(swap.swapped_pages(), 1);
        assert_eq!(swap.metadata_bytes(), 8, "8B of metadata per 4KB page");
        // Page is gone from memory.
        assert_eq!(h.dram_line(page), L2Line::plain([0; 64]));

        swap.swap_in(&mut h, page);
        assert_eq!(swap.swapped_pages(), 0);
        assert_eq!(swap.metadata_bytes(), 0, "metadata reclaimed");
        assert_eq!(read(&mut h, page, 4), vec![1, 2, 3, 4]);
        assert_eq!(read(&mut h, page + 128, 2), vec![5, 6]);
        assert!(h.peek_is_security_byte(page + 60));
        assert!(h.peek_is_security_byte(page + 128 + 7));
        assert!(!h.peek_is_security_byte(page + 1));
        // Tripwires still live after the round trip.
        assert!(h.load(0, page + 60, 1, 0, None).exception.is_some());
    }

    #[test]
    fn swap_handles_fully_clean_pages() {
        let mut h = hier();
        let page = 0x20_0000u64;
        h.store(0, page + 64, &[7; 8], 0);
        let mut swap = SwapManager::new();
        swap.swap_out(&mut h, page);
        swap.swap_in(&mut h, page);
        assert_eq!(read(&mut h, page + 64, 8), vec![7; 8]);
        assert!(!h.dram_line(page + 64).califormed);
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn unaligned_swap_out_panics() {
        SwapManager::new().swap_out(&mut hier(), 0x100);
    }

    #[test]
    #[should_panic(expected = "already swapped")]
    fn double_swap_out_panics() {
        let mut h = hier();
        let mut swap = SwapManager::new();
        swap.swap_out(&mut h, 0x30_0000);
        swap.swap_out(&mut h, 0x30_0000);
    }

    #[test]
    fn io_write_strips_security_bytes_without_unarming_them() {
        let mut h = hier();
        let base = 0x40_0000u64;
        h.store(0, base, &[0xAA; 8], 0);
        h.cform(0, &CformInstruction::set(base, 1 << 3), 0);
        let export = io_write(&mut h, base, 8);
        assert_eq!(
            export.data,
            vec![0xAA, 0xAA, 0xAA, 0, 0xAA, 0xAA, 0xAA, 0xAA]
        );
        assert_eq!(export.security_bytes_crossed, 1);
        // The in-memory copy is still protected.
        assert!(h.peek_is_security_byte(base + 3));
        assert!(h.load(0, base + 3, 1, 0, None).exception.is_some());
    }

    #[test]
    fn io_write_spans_lines() {
        let mut h = hier();
        let base = 0x50_0000u64 + 60;
        h.store(0, base, &[1, 2, 3, 4, 5, 6, 7, 8], 0);
        let export = io_write(&mut h, base, 8);
        assert_eq!(export.data, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(export.security_bytes_crossed, 0);
    }
}
