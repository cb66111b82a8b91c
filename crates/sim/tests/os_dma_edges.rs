//! Edge-case coverage for the OS support (`os.rs`) and DMA (`dma.rs`)
//! paths: page boundaries, zero-length transfers, and
//! metadata-preservation corners that the mainline tests skip.

use califorms_core::CformInstruction;
use califorms_sim::dma::DmaEngine;
use califorms_sim::os::{io_write, SwapManager, PAGE_BYTES};
use califorms_sim::{Hierarchy, HierarchyConfig};

fn hier() -> Hierarchy {
    Hierarchy::new(HierarchyConfig::westmere())
}

/// The bytes a load of `len` at `addr` returns.
fn read(h: &mut Hierarchy, addr: u64, len: usize) -> Vec<u8> {
    let mut data = Vec::new();
    h.load(addr, len, 0, Some(&mut data));
    data
}

// --- DMA --------------------------------------------------------------

#[test]
fn zero_length_dma_is_empty_everywhere() {
    let mut h = hier();
    h.store(0x5000, &[1, 2, 3], 0);
    for addr in [0x5000u64, 0x5001, 0x503F, u64::MAX] {
        for engine in [DmaEngine::respecting(), DmaEngine::bypassing()] {
            let t = engine.read(&mut h, addr, 0);
            assert!(t.data.is_empty());
            assert_eq!(t.security_bytes_seen, 0);
        }
    }
    // And the hierarchy still serves the data afterwards.
    assert_eq!(read(&mut h, 0x5000, 3), vec![1, 2, 3]);
}

#[test]
fn dma_across_a_page_boundary_is_contiguous() {
    let mut h = hier();
    let boundary = 0x10_0000u64 + PAGE_BYTES; // second page starts here
    h.store(boundary - 4, &[1, 2, 3, 4], 0);
    h.store(boundary, &[5, 6, 7, 8], 0);
    h.cform(&CformInstruction::set(boundary, 1 << 2), 0);
    let t = DmaEngine::respecting().read(&mut h, boundary - 4, 8);
    assert_eq!(t.data, vec![1, 2, 3, 4, 5, 6, 0, 8]);
    assert_eq!(t.security_bytes_seen, 1);
}

#[test]
fn single_byte_dma_at_line_edges() {
    let mut h = hier();
    h.store(0x6000 + 63, &[0xAB], 0);
    h.store(0x6040, &[0xCD], 0);
    let t = DmaEngine::respecting().read(&mut h, 0x6000 + 63, 1);
    assert_eq!(t.data, vec![0xAB]);
    let t = DmaEngine::respecting().read(&mut h, 0x6040, 1);
    assert_eq!(t.data, vec![0xCD]);
}

#[test]
fn dma_of_a_fully_califormed_line_sees_only_zeros() {
    let mut h = hier();
    h.cform(&CformInstruction::set(0x7000, u64::MAX), 0);
    let t = DmaEngine::respecting().read(&mut h, 0x7000, 64);
    assert_eq!(t.data, vec![0u8; 64]);
    assert_eq!(t.security_bytes_seen, 64);
}

// --- OS: swap ---------------------------------------------------------

#[test]
fn adjacent_pages_swap_independently() {
    let mut h = hier();
    let p0 = 0x40_0000u64;
    let p1 = p0 + PAGE_BYTES;
    // Data straddling the page boundary: last line of p0, first of p1.
    h.store(p1 - 8, &[1; 8], 0);
    h.store(p1, &[2; 8], 0);
    h.cform(&CformInstruction::set(p1 - 64, 1 << 0), 0);
    h.cform(&CformInstruction::set(p1, 1 << 9), 0);

    let mut swap = SwapManager::new();
    swap.swap_out(&mut h, p0);
    // p1 is untouched while p0 is out.
    assert_eq!(read(&mut h, p1, 8), vec![2; 8]);
    assert!(h.peek_is_security_byte(p1 + 9));

    swap.swap_out(&mut h, p1);
    assert_eq!(swap.swapped_pages(), 2);
    assert_eq!(swap.metadata_bytes(), 16);

    // Swap back in the opposite order; everything returns intact.
    swap.swap_in(&mut h, p1);
    swap.swap_in(&mut h, p0);
    assert_eq!(read(&mut h, p1 - 8, 8), vec![1; 8]);
    assert_eq!(read(&mut h, p1, 8), vec![2; 8]);
    assert!(h.peek_is_security_byte(p1 - 64));
    assert!(h.peek_is_security_byte(p1 + 9));
    assert!(
        h.load(p1 + 9, 1, 0, None).exception.is_some(),
        "tripwire still live"
    );
}

#[test]
fn swap_of_the_last_metadata_bit_line() {
    // The 64th line of a page maps to bit 63 of the metadata word — the
    // sign bit, where an arithmetic-shift bug would corrupt state.
    let mut h = hier();
    let page = 0x80_0000u64;
    let last_line = page + PAGE_BYTES - 64;
    h.store(last_line, &[7; 4], 0);
    h.cform(&CformInstruction::set(last_line, 1 << 33), 0);
    let mut swap = SwapManager::new();
    swap.swap_out(&mut h, page);
    swap.swap_in(&mut h, page);
    assert_eq!(read(&mut h, last_line, 4), vec![7; 4]);
    assert!(h.peek_is_security_byte(last_line + 33));
    assert!(!h.dram_line(page).califormed, "line 0 stayed plain");
}

// --- OS: I/O boundary -------------------------------------------------

#[test]
fn io_write_of_zero_length_is_empty() {
    let mut h = hier();
    let export = io_write(&mut h, 0x9000, 0);
    assert!(export.data.is_empty());
    assert_eq!(export.security_bytes_crossed, 0);
}

#[test]
fn io_write_across_a_page_boundary_strips_spans_on_both_sides() {
    let mut h = hier();
    let boundary = 0x90_0000u64 + PAGE_BYTES;
    h.store(boundary - 8, &[0x11; 8], 0);
    h.store(boundary, &[0x22; 8], 0);
    h.cform(&CformInstruction::set(boundary - 64, 1 << 60), 0); // byte -4
    h.cform(&CformInstruction::set(boundary, 1 << 1), 0);
    let export = io_write(&mut h, boundary - 8, 16);
    assert_eq!(export.security_bytes_crossed, 2);
    assert_eq!(export.data[4], 0, "span byte before the boundary stripped");
    assert_eq!(export.data[9], 0, "span byte after the boundary stripped");
    assert_eq!(export.data[0], 0x11);
    assert_eq!(export.data[8], 0x22);
    // In-memory protection is unchanged.
    assert!(h.peek_is_security_byte(boundary - 4));
    assert!(h.peek_is_security_byte(boundary + 1));
}
