//! A generic set-associative, write-back cache with true-LRU replacement.
//!
//! The cache is generic over its line payload so the L1 can hold
//! [`califorms_core::L1Line`] (bitvector format) while L2/L3 hold
//! [`califorms_core::L2Line`] (sentinel format) — the format conversion at
//! the boundary is then *forced* by the types, mirroring the hardware.

use crate::stats::CacheStats;
use crate::LINE_BYTES;

/// A line evicted to make room for an insertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Eviction<V> {
    /// Line base address of the victim.
    pub line_addr: u64,
    /// Victim payload.
    pub value: V,
    /// Whether the victim was dirty (must be written back).
    pub dirty: bool,
}

#[derive(Debug, Clone)]
struct Entry<V> {
    tag: u64,
    /// Recency stamp: strictly increasing across the cache, bumped on
    /// every (architectural or internal) touch. The eviction victim is
    /// the set's minimum stamp — exactly the least recently used line.
    stamp: u64,
    dirty: bool,
    value: V,
}

/// The address of the line with `tag` in set `set_idx` of a cache with
/// `2^set_bits` sets: the inverse of `SetAssocCache::index`.
fn address_of(set_bits: u32, tag: u64, set_idx: usize) -> u64 {
    (tag << set_bits | set_idx as u64) * LINE_BYTES
}

/// Set-associative cache keyed by 64 B line address.
///
/// True-LRU replacement is tracked with per-entry recency stamps rather
/// than by keeping each set sorted: a hit bumps one `u64` instead of
/// rotating the set's entries (`Vec::remove` + `insert` memmoves of
/// line-sized payloads), which keeps the replay hot path to a single
/// set scan per access. Victim selection is identical to the sorted
/// form — stamps are unique and monotonic, so min-stamp = LRU.
#[derive(Debug, Clone)]
pub struct SetAssocCache<V> {
    sets: Vec<Vec<Entry<V>>>,
    /// log2 of the set count: a line number's low `set_bits` bits pick
    /// its set and the rest are its tag.
    set_bits: u32,
    ways: usize,
    clock: u64,
    /// Hit latency in cycles, exposed for the hierarchy's accounting.
    pub latency: u32,
    /// Hit/miss/eviction counters.
    pub stats: CacheStats,
}

/// A line found by `SetAssocCache::probe_entry`: the payload plus its
/// dirty bit, so read-modify-write accesses (the store hot path) can set
/// dirtiness without a second set scan.
#[derive(Debug)]
pub struct AccessedLine<'a, V> {
    /// The line payload.
    pub value: &'a mut V,
    /// The line's dirty (must-write-back) bit.
    pub dirty: &'a mut bool,
}

impl<V> SetAssocCache<V> {
    /// Creates a cache of `size_bytes` capacity with `ways` ways and the
    /// given hit latency.
    ///
    /// # Panics
    ///
    /// Panics unless `size_bytes` is a multiple of `ways * 64` and the
    /// resulting set count is a power of two (hardware indexing).
    pub fn new(size_bytes: usize, ways: usize, latency: u32) -> Self {
        assert!(ways > 0, "cache must have at least one way");
        let line = LINE_BYTES as usize;
        assert_eq!(size_bytes % (ways * line), 0, "capacity not divisible");
        let set_count = size_bytes / (ways * line);
        assert!(
            set_count.is_power_of_two(),
            "set count must be a power of two"
        );
        Self {
            sets: (0..set_count).map(|_| Vec::with_capacity(ways)).collect(),
            set_bits: set_count.trailing_zeros(),
            ways,
            clock: 0,
            latency,
            stats: CacheStats::default(),
        }
    }

    /// Number of sets.
    pub fn set_count(&self) -> usize {
        self.sets.len()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.sets.len() * self.ways * LINE_BYTES as usize
    }

    fn index(&self, line_addr: u64) -> (usize, u64) {
        let line_no = line_addr / LINE_BYTES;
        let set = (line_no as usize) & (self.sets.len() - 1);
        (set, line_no >> self.set_bits)
    }

    /// Looks up a line, updating LRU and hit/miss counters.
    ///
    /// Returns a mutable reference to the payload on a hit.
    pub fn access(&mut self, line_addr: u64) -> Option<&mut V> {
        let (set_idx, tag) = self.index(line_addr);
        self.clock += 1;
        let clock = self.clock;
        let set = &mut self.sets[set_idx];
        match set.iter_mut().find(|e| e.tag == tag) {
            Some(e) => {
                self.stats.hits += 1;
                e.stamp = clock;
                Some(&mut e.value)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Looks up a line, updating LRU but **not** the hit/miss counters,
    /// exposing the dirty bit alongside the payload. The caller decides
    /// whether (and how) to count the access — the L1 access path
    /// (`crate::coherence`) probes once, counts a hit only when the line
    /// serves the access as it stands, and leaves the miss count to the
    /// miss path that makes the line resident.
    pub(crate) fn probe_entry(&mut self, line_addr: u64) -> Option<AccessedLine<'_, V>> {
        let (set_idx, tag) = self.index(line_addr);
        self.clock += 1;
        let clock = self.clock;
        let e = self.sets[set_idx].iter_mut().find(|e| e.tag == tag)?;
        e.stamp = clock;
        Some(AccessedLine {
            value: &mut e.value,
            dirty: &mut e.dirty,
        })
    }

    /// Looks up a line without affecting LRU order or counters.
    pub fn peek(&self, line_addr: u64) -> Option<&V> {
        let (set_idx, tag) = self.index(line_addr);
        self.sets[set_idx]
            .iter()
            .find(|e| e.tag == tag)
            .map(|e| &e.value)
    }

    /// Looks up a line mutably without affecting LRU order or counters.
    ///
    /// The coherence controller uses this to downgrade or probe remote
    /// copies: a directory-induced state change is not an architectural
    /// access by the owning core and must not perturb its LRU or counters.
    pub fn peek_mut(&mut self, line_addr: u64) -> Option<&mut V> {
        let (set_idx, tag) = self.index(line_addr);
        self.sets[set_idx]
            .iter_mut()
            .find(|e| e.tag == tag)
            .map(|e| &mut e.value)
    }

    /// Marks a resident line dirty (no-op if absent).
    pub fn mark_dirty(&mut self, line_addr: u64) {
        let (set_idx, tag) = self.index(line_addr);
        if let Some(e) = self.sets[set_idx].iter_mut().find(|e| e.tag == tag) {
            e.dirty = true;
        }
    }

    /// Clears a resident line's dirty bit (no-op if absent) — used when a
    /// coherence downgrade writes the line back but keeps it Shared.
    pub fn clear_dirty(&mut self, line_addr: u64) {
        let (set_idx, tag) = self.index(line_addr);
        if let Some(e) = self.sets[set_idx].iter_mut().find(|e| e.tag == tag) {
            e.dirty = false;
        }
    }

    /// Whether a resident line is dirty (`None` if absent).
    pub fn is_dirty(&self, line_addr: u64) -> Option<bool> {
        let (set_idx, tag) = self.index(line_addr);
        self.sets[set_idx]
            .iter()
            .find(|e| e.tag == tag)
            .map(|e| e.dirty)
    }

    /// Inserts (or replaces) a line as MRU, returning the victim if the set
    /// was full.
    pub fn insert(&mut self, line_addr: u64, value: V, dirty: bool) -> Option<Eviction<V>> {
        let (set_idx, tag) = self.index(line_addr);
        self.clock += 1;
        let clock = self.clock;
        let set_bits = self.set_bits;
        let ways = self.ways;
        let set = &mut self.sets[set_idx];
        if let Some(e) = set.iter_mut().find(|e| e.tag == tag) {
            e.value = value;
            e.dirty = e.dirty || dirty;
            e.stamp = clock;
            return None;
        }
        let victim = if set.len() == ways {
            let pos = set
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
                // analyze::allow(hot-path-unwrap): a full set always has a victim: the iterator is non-empty
                .expect("full set is non-empty");
            let victim = set.swap_remove(pos);
            self.stats.evictions += 1;
            if victim.dirty {
                self.stats.writebacks += 1;
            }
            Some(Eviction {
                line_addr: address_of(set_bits, victim.tag, set_idx),
                value: victim.value,
                dirty: victim.dirty,
            })
        } else {
            None
        };
        set.push(Entry {
            tag,
            stamp: clock,
            dirty,
            value,
        });
        victim
    }

    /// Removes a line, returning its payload and dirtiness.
    pub fn invalidate(&mut self, line_addr: u64) -> Option<(V, bool)> {
        let (set_idx, tag) = self.index(line_addr);
        let set = &mut self.sets[set_idx];
        set.iter().position(|e| e.tag == tag).map(|pos| {
            let e = set.swap_remove(pos);
            (e.value, e.dirty)
        })
    }

    /// Number of lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// The LRU clock (checkpoint serialization; restored by
    /// [`Self::import_lines`]).
    pub(crate) fn clock(&self) -> u64 {
        self.clock
    }

    /// Snapshot of every resident line for checkpointing, in set-major
    /// order and, within a set, in the set `Vec`'s current order. That
    /// order matters: `insert`/`invalidate` use `swap_remove`, so the
    /// within-set order is itself a function of the op history, and a
    /// restore must reproduce it exactly for victim selection (min-stamp
    /// ties cannot occur — stamps are unique — but set-scan order feeds
    /// `find`, so we keep the bit-identity contract conservative).
    pub(crate) fn export_lines(&self) -> Vec<(u64, u64, bool, &V)> {
        let mut out = Vec::with_capacity(self.resident_lines());
        for (set_idx, set) in self.sets.iter().enumerate() {
            for e in set {
                let addr = address_of(self.set_bits, e.tag, set_idx);
                out.push((addr, e.stamp, e.dirty, &e.value));
            }
        }
        out
    }

    /// Rebuilds the cache contents from an [`Self::export_lines`]
    /// snapshot taken on a cache of identical geometry: clears every
    /// set, restores the LRU clock, and reinserts each line preserving
    /// its stamp, dirty bit and within-set position.
    ///
    /// # Errors
    ///
    /// Returns a message (the checkpoint layer wraps it into its typed
    /// error) when a line's stamp runs ahead of `clock` or a set
    /// overflows its associativity — both only possible with a corrupt
    /// or foreign checkpoint.
    pub(crate) fn import_lines(
        &mut self,
        clock: u64,
        lines: Vec<(u64, u64, bool, V)>,
    ) -> Result<(), &'static str> {
        for set in &mut self.sets {
            set.clear();
        }
        self.clock = clock;
        for (line_addr, stamp, dirty, value) in lines {
            if stamp > clock {
                return Err("cache line stamp ahead of LRU clock");
            }
            if line_addr % LINE_BYTES != 0 {
                return Err("cache line address not line-aligned");
            }
            let (set_idx, tag) = self.index(line_addr);
            let set = &mut self.sets[set_idx];
            if set.len() == self.ways {
                return Err("cache set overflows associativity");
            }
            if set.iter().any(|e| e.tag == tag) {
                return Err("duplicate cache line in checkpoint");
            }
            set.push(Entry {
                tag,
                stamp,
                dirty,
                value,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> SetAssocCache<u32> {
        // 4 sets × 2 ways × 64 B = 512 B
        SetAssocCache::new(512, 2, 4)
    }

    #[test]
    fn geometry_is_derived_from_capacity() {
        let c = cache();
        assert_eq!(c.set_count(), 4);
        assert_eq!(c.ways(), 2);
        assert_eq!(c.capacity(), 512);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = cache();
        assert!(c.access(0).is_none());
        assert!(c.insert(0, 42, false).is_none());
        assert_eq!(c.access(0), Some(&mut 42));
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn same_set_conflict_evicts_lru() {
        let mut c = cache();
        // Lines 0, 4*64, 8*64 map to set 0 (4 sets).
        let (a, b, d) = (0u64, 4 * 64, 8 * 64);
        c.insert(a, 1, false);
        c.insert(b, 2, false);
        // Touch `a` so `b` becomes LRU.
        assert!(c.access(a).is_some());
        let ev = c.insert(d, 3, false).expect("set is full");
        assert_eq!(ev.line_addr, b);
        assert_eq!(ev.value, 2);
        assert!(!ev.dirty);
        assert!(c.peek(a).is_some());
        assert!(c.peek(b).is_none());
        assert!(c.peek(d).is_some());
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = cache();
        c.insert(0, 1, true);
        c.insert(4 * 64, 2, false);
        c.insert(8 * 64, 3, false); // evicts line 0 (LRU, dirty)
        let ev_dirty = c.stats.writebacks;
        assert_eq!(ev_dirty, 1);
        assert_eq!(c.stats.evictions, 1);
    }

    #[test]
    fn reinsert_merges_dirtiness() {
        let mut c = cache();
        c.insert(0, 1, true);
        assert!(c.insert(0, 5, false).is_none(), "replacement, not eviction");
        c.insert(4 * 64, 2, false);
        let ev = c.insert(8 * 64, 3, false).unwrap();
        assert!(ev.dirty, "dirtiness sticks across replacement");
        assert_eq!(ev.value, 5);
    }

    #[test]
    fn mark_dirty_and_invalidate() {
        let mut c = cache();
        c.insert(64, 9, false);
        c.mark_dirty(64);
        assert_eq!(c.invalidate(64), Some((9, true)));
        assert_eq!(c.invalidate(64), None);
    }

    #[test]
    fn peek_does_not_touch_lru() {
        let mut c = cache();
        c.insert(0, 1, false);
        c.insert(4 * 64, 2, false);
        // peek at line 0 (LRU untouched: 0 is still LRU after peeking? No —
        // 4*64 was inserted last, so 0 is LRU. Peek must not promote it.)
        assert!(c.peek(0).is_some());
        let ev = c.insert(8 * 64, 3, false).unwrap();
        assert_eq!(ev.line_addr, 0, "peek did not promote the line");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        SetAssocCache::<u8>::new(3 * 64 * 2, 2, 1);
    }
}
