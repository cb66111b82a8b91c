//! Load/store-queue semantics for in-flight `CFORM` instructions
//! (Section 5.3).
//!
//! `CFORM` is handled like a store in the pipeline, with one crucial
//! difference: it must **never** forward a value to a younger load whose
//! address matches — the load receives **zero** instead, and both loads and
//! stores younger than an in-flight `CFORM` that touch its bytes are marked
//! for a Califorms exception at commit. This is the tamper-resistance rule
//! that stops an attacker from using store-to-load forwarding as a side
//! channel to observe califorming in flight.
//!
//! The model is functional (the paper argues the CFORM match is off the
//! critical path and has no timing effect); the engine and the security
//! tests use it to check the forwarding rules.

use crate::{line_base, LINE_BYTES};
use std::collections::VecDeque;

/// An entry occupying the LSQ, oldest first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LsqEntry {
    /// An in-flight store: address, data.
    Store {
        /// Byte address of the store.
        addr: u64,
        /// Store payload.
        data: Vec<u8>,
    },
    /// An in-flight `CFORM`: line address plus the bytes whose state it
    /// changes (attributes ∧ mask — the "to-be-califormed" bytes the match
    /// logic checks).
    Cform {
        /// Cache-line-aligned target address.
        line_addr: u64,
        /// Bit `i` set ⇒ byte `i` of the line is being (un)califormed.
        affected: u64,
    },
}

/// What the LSQ tells a younger load about its address match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForwardResult {
    /// No older in-flight entry overlaps: go to the cache.
    NoMatch,
    /// A store fully covers the load: forward its bytes.
    Forwarded(Vec<u8>),
    /// A store partially overlaps: stall/replay (modelled as going to the
    /// cache after the store drains; no data here).
    PartialOverlap,
    /// The youngest overlapping entry is a `CFORM`: the load receives
    /// zeros and is marked for a Califorms exception at commit.
    CformMatch {
        /// The zeros handed to the load.
        data: Vec<u8>,
    },
}

/// Whether an in-flight `CFORM` over `line_addr` with to-be-califormed
/// byte mask `affected` overlaps the byte range `[lo, hi)` — first a
/// (cheap) line-address match, then the mask confirms the byte overlap:
/// the two-step match of Section 5.3.
fn cform_overlaps(line_addr: u64, affected: u64, lo: u64, hi: u64) -> bool {
    if line_base(lo) != line_addr && line_base(hi - 1) != line_addr {
        return false;
    }
    for a in lo..hi {
        if line_base(a) == line_addr && affected >> (a - line_addr) & 1 == 1 {
            return true;
        }
    }
    false
}

/// Deterministic LSQ activity counters: pure functions of the op stream,
/// so they can ride in telemetry snapshots and bit-identity diffs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LsqStats {
    /// Loads resolved against the queue.
    pub loads_resolved: u64,
    /// Loads fully forwarded from an in-flight store.
    pub forwards: u64,
    /// Loads stalled on a partial store overlap (replay after drain).
    pub partial_overlap_stalls: u64,
    /// Loads zeroed by an in-flight `CFORM` match.
    pub cform_matches: u64,
    /// Younger stores flagged against an in-flight `CFORM`.
    pub store_cform_conflicts: u64,
}

/// A program-ordered load/store queue.
///
/// Entries live in a `VecDeque` so commit-time retirement
/// ([`Self::retire_oldest`]) pops the front in O(1) — with a `Vec`,
/// `remove(0)` shifts the whole queue and draining a full LSQ under load
/// is quadratic.
#[derive(Debug, Default)]
pub struct LoadStoreQueue {
    entries: VecDeque<LsqEntry>,
    stats: LsqStats,
}

impl LoadStoreQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of in-flight entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts an in-flight store (program order: youngest last).
    pub fn push_store(&mut self, addr: u64, data: Vec<u8>) {
        self.entries.push_back(LsqEntry::Store { addr, data });
    }

    /// Inserts an in-flight `CFORM`. Each LSQ entry carries a "is CFORM"
    /// bit in hardware; here it is the enum discriminant.
    pub fn push_cform(&mut self, line_addr: u64, affected: u64) {
        assert_eq!(line_addr % LINE_BYTES, 0, "CFORM targets a full line");
        self.entries.push_back(LsqEntry::Cform {
            line_addr,
            affected,
        });
    }

    /// Resolves a younger load against the queue: scans from the youngest
    /// older entry, returning the first overlap's verdict.
    pub fn resolve_load(&mut self, addr: u64, len: usize) -> ForwardResult {
        self.stats.loads_resolved += 1;
        let lo = addr;
        let hi = addr + len as u64;
        for entry in self.entries.iter().rev() {
            match entry {
                LsqEntry::Store { addr: sa, data } => {
                    let slo = *sa;
                    let shi = *sa + data.len() as u64;
                    if hi <= slo || lo >= shi {
                        continue;
                    }
                    if slo <= lo && hi <= shi {
                        let start = (lo - slo) as usize;
                        self.stats.forwards += 1;
                        return ForwardResult::Forwarded(data[start..start + len].to_vec());
                    }
                    self.stats.partial_overlap_stalls += 1;
                    return ForwardResult::PartialOverlap;
                }
                LsqEntry::Cform {
                    line_addr,
                    affected,
                } => {
                    if cform_overlaps(*line_addr, *affected, lo, hi) {
                        self.stats.cform_matches += 1;
                        return ForwardResult::CformMatch { data: vec![0; len] };
                    }
                }
            }
        }
        ForwardResult::NoMatch
    }

    /// Whether a younger **store** to `[addr, addr+len)` must be marked for
    /// a Califorms exception (it follows an in-flight `CFORM` touching the
    /// same bytes).
    ///
    /// Every older in-flight `CFORM` is checked, not just the youngest
    /// overlapping entry: a store's exception mark depends on *any* older
    /// `CFORM` touching its bytes, so an intervening in-flight store to
    /// the same bytes must not mask the conflict. (Delegating to
    /// [`Self::resolve_load`] did exactly that — its scan stops at the
    /// youngest overlapping store, which is correct for forwarding but
    /// let a store younger than both escape its commit-time mark.)
    pub fn store_conflicts_with_cform(&mut self, addr: u64, len: usize) -> bool {
        let lo = addr;
        let hi = addr + len as u64;
        let conflict = self.entries.iter().any(|entry| match entry {
            LsqEntry::Cform {
                line_addr,
                affected,
            } => cform_overlaps(*line_addr, *affected, lo, hi),
            LsqEntry::Store { .. } => false,
        });
        if conflict {
            self.stats.store_cform_conflicts += 1;
        }
        conflict
    }

    /// Deterministic activity counters accumulated so far.
    pub fn stats(&self) -> LsqStats {
        self.stats
    }

    /// Drains the oldest entry (commit). O(1): the queue is a `VecDeque`.
    pub fn retire_oldest(&mut self) -> Option<LsqEntry> {
        self.entries.pop_front()
    }

    /// Memory-serialising barrier: drains everything (the paper's
    /// LSQ-modification-free alternative).
    pub fn drain_all(&mut self) -> Vec<LsqEntry> {
        std::mem::take(&mut self.entries).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_forwards_to_covered_load() {
        let mut q = LoadStoreQueue::new();
        q.push_store(0x100, vec![1, 2, 3, 4]);
        assert_eq!(
            q.resolve_load(0x101, 2),
            ForwardResult::Forwarded(vec![2, 3])
        );
    }

    #[test]
    fn partial_overlap_is_not_forwarded() {
        let mut q = LoadStoreQueue::new();
        q.push_store(0x100, vec![1, 2]);
        assert_eq!(q.resolve_load(0x101, 4), ForwardResult::PartialOverlap);
    }

    #[test]
    fn cform_never_forwards_returns_zeros() {
        let mut q = LoadStoreQueue::new();
        q.push_cform(0x1000, 1 << 8 | 1 << 9);
        match q.resolve_load(0x1008, 2) {
            ForwardResult::CformMatch { data } => assert_eq!(data, vec![0, 0]),
            other => panic!("expected CformMatch, got {other:?}"),
        }
    }

    #[test]
    fn cform_without_byte_overlap_is_no_match() {
        let mut q = LoadStoreQueue::new();
        q.push_cform(0x1000, 1 << 8);
        assert_eq!(q.resolve_load(0x1010, 4), ForwardResult::NoMatch);
    }

    #[test]
    fn youngest_matching_entry_wins() {
        let mut q = LoadStoreQueue::new();
        q.push_store(0x1008, vec![7, 7]);
        q.push_cform(0x1000, 1 << 8 | 1 << 9);
        // CFORM is younger than the store: the load sees the CFORM.
        assert!(matches!(
            q.resolve_load(0x1008, 2),
            ForwardResult::CformMatch { .. }
        ));
        // Reverse order: store younger than CFORM forwards normally.
        let mut q = LoadStoreQueue::new();
        q.push_cform(0x1000, 1 << 8 | 1 << 9);
        q.push_store(0x1008, vec![7, 7]);
        assert_eq!(
            q.resolve_load(0x1008, 2),
            ForwardResult::Forwarded(vec![7, 7])
        );
    }

    #[test]
    fn younger_store_conflict_is_flagged() {
        let mut q = LoadStoreQueue::new();
        q.push_cform(0x1000, 0xFF);
        assert!(q.store_conflicts_with_cform(0x1000, 4));
        assert!(!q.store_conflicts_with_cform(0x1000 + 8, 4));
    }

    #[test]
    fn retire_and_drain() {
        let mut q = LoadStoreQueue::new();
        q.push_store(0, vec![1]);
        q.push_cform(0x40, 1);
        assert_eq!(q.len(), 2);
        assert!(matches!(q.retire_oldest(), Some(LsqEntry::Store { .. })));
        let rest = q.drain_all();
        assert_eq!(rest.len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn line_crossing_load_matches_cform_in_second_line() {
        let mut q = LoadStoreQueue::new();
        q.push_cform(0x1040, 1); // byte 0 of the second line
        assert!(matches!(
            q.resolve_load(0x1030, 32),
            ForwardResult::CformMatch { .. }
        ));
    }

    /// Regression (Section 5.3 masking bug): a store younger than both an
    /// in-flight `CFORM` and an intervening in-flight store to the same
    /// bytes must still be flagged. The old implementation delegated to
    /// `resolve_load`, whose youngest-first scan stopped at the
    /// intervening store and reported no conflict.
    #[test]
    fn cform_conflict_is_not_masked_by_younger_inflight_store() {
        let mut q = LoadStoreQueue::new();
        q.push_cform(0x1000, 0xFF); // CFORM over bytes 0..8
        q.push_store(0x1000, vec![7; 4]); // store A, same bytes, younger
                                          // Store B to the same bytes: the CFORM conflict must survive A.
        assert!(
            q.store_conflicts_with_cform(0x1000, 4),
            "an in-flight store must not mask an older CFORM conflict"
        );
        // A load, by contrast, correctly sees store A first (forwarding).
        assert_eq!(
            q.resolve_load(0x1000, 4),
            ForwardResult::Forwarded(vec![7; 4])
        );
        // Bytes the CFORM does not touch stay conflict-free.
        assert!(!q.store_conflicts_with_cform(0x1008, 4));
    }

    /// A store whose only overlap with an in-flight `CFORM` sits in the
    /// *second* line of a line-crossing range is still flagged.
    #[test]
    fn line_crossing_store_conflict_in_second_line() {
        let mut q = LoadStoreQueue::new();
        q.push_cform(0x1040, 0b100); // byte 2 of the second line
        q.push_store(0x1020, vec![1; 8]); // unrelated younger store
        assert!(q.store_conflicts_with_cform(0x1030, 32)); // 0x1030..0x1050
        assert!(!q.store_conflicts_with_cform(0x1030, 16)); // stops at 0x1040
    }

    /// Line-crossing loads against an in-flight `CFORM` whose affected
    /// bytes sit only in the second line: byte-granular `CformMatch` when
    /// the range reaches the byte, `NoMatch` when it stops short
    /// (exercises the `line_base(hi - 1)` arm of the two-step match).
    #[test]
    fn line_crossing_load_byte_granular_second_line_match() {
        let mut q = LoadStoreQueue::new();
        q.push_cform(0x1040, 1 << 2); // byte 0x1042 only
                                      // 0x103C..0x1044 crosses into the second line and covers 0x1042.
        match q.resolve_load(0x103C, 8) {
            ForwardResult::CformMatch { data } => assert_eq!(data, vec![0; 8]),
            other => panic!("expected CformMatch, got {other:?}"),
        }
        // 0x103C..0x1042 crosses the boundary but stops one byte short.
        assert_eq!(q.resolve_load(0x103C, 6), ForwardResult::NoMatch);
        // Same-length range entirely inside the first line: no match.
        assert_eq!(q.resolve_load(0x1030, 8), ForwardResult::NoMatch);
    }

    #[test]
    fn stats_count_each_resolution_kind() {
        let mut q = LoadStoreQueue::new();
        q.push_store(0x100, vec![1, 2, 3, 4]);
        q.push_cform(0x1000, 0xFF);
        let _ = q.resolve_load(0x100, 4); // forwarded
        let _ = q.resolve_load(0x102, 4); // partial overlap
        let _ = q.resolve_load(0x1000, 2); // CFORM match
        let _ = q.resolve_load(0x9000, 2); // no match
        assert!(q.store_conflicts_with_cform(0x1000, 4));
        assert!(!q.store_conflicts_with_cform(0x2000, 4));
        let s = q.stats();
        assert_eq!(s.loads_resolved, 4);
        assert_eq!(s.forwards, 1);
        assert_eq!(s.partial_overlap_stalls, 1);
        assert_eq!(s.cform_matches, 1);
        assert_eq!(s.store_cform_conflicts, 1);
    }

    #[test]
    fn retire_drains_in_fifo_order_under_load() {
        let mut q = LoadStoreQueue::new();
        for i in 0..1000u64 {
            q.push_store(i * 8, vec![i as u8]);
        }
        for i in 0..1000u64 {
            match q.retire_oldest() {
                Some(LsqEntry::Store { addr, .. }) => assert_eq!(addr, i * 8),
                other => panic!("expected store, got {other:?}"),
            }
        }
        assert!(q.retire_oldest().is_none());
    }
}
