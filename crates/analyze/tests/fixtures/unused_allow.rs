//! Fixture: one directive that absorbs a finding, and two left behind
//! after the code they excused was removed.

pub struct Cache {
    // analyze::allow(nondet-map): scratch map, never iterated in results
    pub scratch: HashMap<u64, u32>,
    // analyze::allow(nondet-map): the map this excused is gone
    pub lines: Vec<u64>,
}

pub fn first(v: &[u64]) -> u64 {
    v.first().copied().unwrap_or(0) // analyze::allow(host-time): no clock is read here
}
