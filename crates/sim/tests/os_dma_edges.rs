//! Edge-case coverage for the OS support (`os.rs`) and DMA (`dma.rs`)
//! paths: page boundaries, zero-length transfers, the top of the address
//! space, metadata-preservation corners that the mainline tests skip,
//! and eviction from a machine of two cores.

use califorms_core::CformInstruction;
use califorms_sim::dma::DmaEngine;
use califorms_sim::os::{io_write, SwapManager, PAGE_BYTES};
use califorms_sim::{CoherenceConfig, CoherentHierarchy, HierarchyConfig, Mesi};

fn machine(cores: usize) -> CoherentHierarchy {
    CoherentHierarchy::new(
        HierarchyConfig::westmere(),
        CoherenceConfig::westmere(),
        cores,
    )
}

fn hier() -> CoherentHierarchy {
    machine(1)
}

/// The bytes a load of `len` at `addr` by core `c` returns.
fn read_by(h: &mut CoherentHierarchy, c: usize, addr: u64, len: usize) -> Vec<u8> {
    let mut data = Vec::new();
    h.load(c, addr, len, 0, Some(&mut data));
    data
}

/// The bytes a load of `len` at `addr` by core 0 returns.
fn read(h: &mut CoherentHierarchy, addr: u64, len: usize) -> Vec<u8> {
    read_by(h, 0, addr, len)
}

// --- DMA --------------------------------------------------------------

#[test]
fn zero_length_dma_is_empty_everywhere() {
    let mut h = hier();
    h.store(0, 0x5000, &[1, 2, 3], 0);
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
    h.store(0, boundary - 4, &[1, 2, 3, 4], 0);
    h.store(0, boundary, &[5, 6, 7, 8], 0);
    h.cform(0, &CformInstruction::set(boundary, 1 << 2), 0);
    let t = DmaEngine::respecting().read(&mut h, boundary - 4, 8);
    assert_eq!(t.data, vec![1, 2, 3, 4, 5, 6, 0, 8]);
    assert_eq!(t.security_bytes_seen, 1);
}

#[test]
fn single_byte_dma_at_line_edges() {
    let mut h = hier();
    h.store(0, 0x6000 + 63, &[0xAB], 0);
    h.store(0, 0x6040, &[0xCD], 0);
    let t = DmaEngine::respecting().read(&mut h, 0x6000 + 63, 1);
    assert_eq!(t.data, vec![0xAB]);
    let t = DmaEngine::respecting().read(&mut h, 0x6040, 1);
    assert_eq!(t.data, vec![0xCD]);
}

#[test]
fn dma_of_a_fully_califormed_line_sees_only_zeros() {
    let mut h = hier();
    h.cform(0, &CformInstruction::set(0x7000, u64::MAX), 0);
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
    h.store(0, p1 - 8, &[1; 8], 0);
    h.store(0, p1, &[2; 8], 0);
    h.cform(0, &CformInstruction::set(p1 - 64, 1 << 0), 0);
    h.cform(0, &CformInstruction::set(p1, 1 << 9), 0);

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
        h.load(0, p1 + 9, 1, 0, None).exception.is_some(),
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
    h.store(0, last_line, &[7; 4], 0);
    h.cform(0, &CformInstruction::set(last_line, 1 << 33), 0);
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
    h.store(0, boundary - 8, &[0x11; 8], 0);
    h.store(0, boundary, &[0x22; 8], 0);
    h.cform(0, &CformInstruction::set(boundary - 64, 1 << 60), 0); // byte -4
    h.cform(0, &CformInstruction::set(boundary, 1 << 1), 0);
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

#[test]
fn swap_cycle_of_a_modified_line_on_two_cores() {
    // Core 0 holds a califormed line Modified when the OS swaps its page
    // out and back in. The eviction must write that copy back through the
    // spill, drop it and the line's directory entry, and count no
    // coherence event.
    let mut h = machine(2);
    let page = 0xA0_0000u64;
    let line = page + 3 * 64;
    h.store(0, line, &[0x5A; 16], 0);
    h.cform(0, &CformInstruction::set(line, 0b11 << 20), 0);
    assert_eq!(h.l1_state(0, line), Some(Mesi::Modified));
    let coherence = h.coherence_totals();

    let mut swap = SwapManager::new();
    swap.swap_out(&mut h, page);
    assert_eq!(h.l1_state(0, line), None, "the L1 copy left with the page");
    swap.swap_in(&mut h, page);
    assert_eq!(h.coherence_totals(), coherence, "eviction counts no event");

    // Bytes and security bytes survived the round trip.
    assert_eq!(read_by(&mut h, 1, line, 16), vec![0x5A; 16]);
    assert!(h.peek_is_security_byte(line + 20));
    assert!(h.peek_is_security_byte(line + 21));
    assert!(!h.peek_is_security_byte(line + 22));
    // No stale directory entry names core 0: core 1's read was a private
    // miss served by memory, not a recall from core 0.
    assert_eq!(h.l1_state(1, line), Some(Mesi::Exclusive));
    assert_eq!(h.l1_state(0, line), None);
    assert_eq!(h.coherence_totals().cache_to_cache_transfers, 0);
    assert!(
        h.load(1, line + 20, 1, 0, None).exception.is_some(),
        "tripwire still live"
    );
}

#[test]
fn io_write_may_end_at_the_top_of_the_address_space() {
    let mut h = hier();
    let last_line = u64::MAX - 63;
    h.store(0, u64::MAX - 7, &[1, 2, 3, 4, 5, 6, 7, 8], 0);
    h.cform(0, &CformInstruction::set(last_line, 1 << 62), 0);
    let export = io_write(&mut h, u64::MAX - 7, 8);
    assert_eq!(export.data, vec![1, 2, 3, 4, 5, 6, 0, 8]);
    assert_eq!(export.security_bytes_crossed, 1);
    let export = io_write(&mut h, last_line, 64);
    assert_eq!(export.data.len(), 64);
    assert_eq!(&export.data[56..], &[1, 2, 3, 4, 5, 6, 0, 8]);
    assert_eq!(export.security_bytes_crossed, 1);
}

#[test]
#[should_panic(expected = "wraps past the top of the address space")]
fn io_write_that_wraps_panics() {
    io_write(&mut hier(), u64::MAX - 63, 100);
}
