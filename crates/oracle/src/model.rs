//! The flat reference model: the paper's semantics with no caches, LSQ
//! or coherence.
//!
//! [`FlatMemory`] is a plain line-address → [`CaliformedLine`] map — one
//! canonical *(data, blacklist-mask)* pair per 64 B line, nothing else.
//! Because there is only one copy of every line, spill/fill conversions
//! are no-ops by construction and the zeroing invariant (data under a
//! security byte is zero) is structural, courtesy of
//! [`CaliformedLine`].
//!
//! [`OracleCore`] replays a [`TraceOp`] stream against a `FlatMemory`
//! with byte-exact exception semantics mirroring
//! [`califorms_sim::Engine::step`]:
//!
//! * a load or store that touches a blacklisted byte faults at the
//!   **lowest-addressed** violating byte of the access (line-crossing
//!   accesses are checked chunk by chunk in ascending address order);
//! * a faulting store chunk is suppressed in full, other chunks of the
//!   same access still commit (the cache controller splits at line
//!   boundaries);
//! * `CFORM`/`CFORM-NT` follow the Table 1 K-map, fault before
//!   committing anything, and zero every byte whose state changes;
//! * stores synthesise the deterministic address-derived payload the
//!   replay engines use ([`califorms_sim::engine::store_pattern`]);
//! * `MaskPush`/`MaskPop` drive a real
//!   [`ExceptionMask`] so delivery/suppression accounting matches.
//!
//! The `pc` carried by each exception is the 1-based index of the op in
//! the replayed stream (per core), exactly as the engines count it.

use califorms_core::{
    AccessKind, CaliformedLine, CaliformsException, CformInstruction, CoreError, ExceptionKind,
    ExceptionMask, LINE_BYTES,
};
use califorms_sim::engine::store_pattern;
use califorms_sim::{line_base, line_offset, TraceOp};
use std::collections::BTreeMap;

/// The flat, cache-free memory: one canonical line per touched line
/// address. Untouched lines read as all-zero, non-califormed lines —
/// the same as the simulator's demand-created DRAM.
#[derive(Debug, Default, Clone)]
pub struct FlatMemory {
    lines: BTreeMap<u64, CaliformedLine>,
}

impl FlatMemory {
    /// An empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// The canonical state of the line holding `line_addr` (zeroed if
    /// never touched).
    pub fn line(&self, line_addr: u64) -> CaliformedLine {
        self.lines
            .get(&line_addr)
            .copied()
            .unwrap_or_else(CaliformedLine::zeroed)
    }

    /// Every touched line, ascending by address — the diff domain.
    pub fn lines(&self) -> impl Iterator<Item = (u64, &CaliformedLine)> {
        self.lines.iter().map(|(&a, l)| (a, l))
    }

    /// Number of touched lines.
    pub fn touched_lines(&self) -> usize {
        self.lines.len()
    }

    fn line_mut(&mut self, line_addr: u64) -> &mut CaliformedLine {
        self.lines.entry(line_addr).or_default()
    }

    /// What a califorms-respecting reader (the core, a respecting DMA
    /// engine, the I/O export path) sees for `[addr, addr + len)`:
    /// the data with zeros at blacklisted positions, plus the number of
    /// security bytes in the range.
    pub fn read_bytes(&self, addr: u64, len: usize) -> (Vec<u8>, usize) {
        let mut data = Vec::with_capacity(len);
        let mut security = 0usize;
        for i in 0..len as u64 {
            let a = addr + i;
            let line = self.line(line_base(a));
            let off = line_offset(a);
            if line.is_security_byte(off) {
                security += 1;
                data.push(0);
            } else {
                data.push(line.read_byte(off));
            }
        }
        (data, security)
    }
}

/// Architectural counters of one replayed core, mirroring the fields of
/// [`califorms_sim::SimStats`] that are functions of program semantics
/// alone (no timing, no cache geometry).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OracleCounters {
    /// Retired instructions.
    pub instructions: u64,
    /// Load ops replayed.
    pub loads: u64,
    /// Store ops replayed.
    pub stores: u64,
    /// `CFORM`/`CFORM-NT` ops replayed.
    pub cforms: u64,
    /// Stores suppressed by a security-byte violation.
    pub stores_suppressed: u64,
    /// Exceptions delivered to the handler.
    pub exceptions_delivered: u64,
    /// Exceptions suppressed by an armed whitelist mask.
    pub exceptions_suppressed: u64,
}

/// One core's replay state over a (possibly shared) [`FlatMemory`]:
/// whitelist mask, program counter, counters, and the recorded delivered
/// exceptions (capped like the engines cap theirs).
#[derive(Debug, Default, Clone)]
pub struct OracleCore {
    mask: ExceptionMask,
    pc: u64,
    counters: OracleCounters,
    exceptions: Vec<CaliformsException>,
}

/// Maps a `CFORM` K-map fault onto the privileged exception, mirroring
/// the simulator's mapping (Table 1 semantics).
fn kmap_exception(e: CoreError, line_addr: u64, pc: u64) -> CaliformsException {
    let (kind, index) = match e {
        CoreError::CformSetOnSecurityByte { index } => (ExceptionKind::CformDoubleSet, index),
        CoreError::CformUnsetOnNormalByte { index } => (ExceptionKind::CformUnsetNormal, index),
        other => unreachable!("CFORM faults are K-map faults: {other}"),
    };
    CaliformsException {
        fault_addr: line_addr + index as u64,
        access: AccessKind::Cform,
        kind,
        pc,
    }
}

impl OracleCore {
    /// A fresh core (disarmed mask, zero counters).
    pub fn new() -> Self {
        Self::default()
    }

    /// The counters accumulated so far.
    pub fn counters(&self) -> OracleCounters {
        let mut c = self.counters;
        c.exceptions_delivered = self.mask.delivered_count();
        c.exceptions_suppressed = self.mask.suppressed_count();
        c
    }

    /// Delivered exceptions in program order, capped at
    /// [`califorms_sim::cpu::MAX_RECORDED_EXCEPTIONS`] like the
    /// engines' records.
    pub fn exceptions(&self) -> &[CaliformsException] {
        &self.exceptions
    }

    fn deliver(&mut self, exception: Option<CaliformsException>) {
        if let Some(exc) = exception {
            if let Some(delivered) = self.mask.filter(exc) {
                if self.exceptions.len() < califorms_sim::cpu::MAX_RECORDED_EXCEPTIONS {
                    self.exceptions.push(delivered);
                }
            }
        }
    }

    /// Checks `[addr, addr + len)` against the blacklist without writing,
    /// returning the exception for the lowest-addressed violating byte.
    fn check_access(
        mem: &mut FlatMemory,
        addr: u64,
        len: usize,
        access: AccessKind,
        pc: u64,
    ) -> Option<CaliformsException> {
        let mut exception = None;
        let mut cur = addr;
        let end = addr + len as u64;
        while cur < end {
            let line_addr = line_base(cur);
            let offset = line_offset(cur);
            let chunk = ((LINE_BYTES as u64 - offset as u64).min(end - cur)) as usize;
            // Touch the line so it participates in the state diff even
            // when the access is a pure read of a cold line.
            let line = mem.line_mut(line_addr);
            let violating = line.security_mask() & califorms_core::range_mask(offset, chunk);
            if violating != 0 && exception.is_none() {
                exception = Some(CaliformsException {
                    fault_addr: line_addr + u64::from(violating.trailing_zeros()),
                    access,
                    kind: ExceptionKind::SecurityByteAccess,
                    pc,
                });
            }
            cur += chunk as u64;
        }
        exception
    }

    /// Commits a store of the deterministic replay payload, chunk by
    /// chunk: a violating chunk is suppressed in full (and reports the
    /// first violating byte), clean chunks commit.
    fn do_store(
        mem: &mut FlatMemory,
        addr: u64,
        len: usize,
        pc: u64,
    ) -> Option<CaliformsException> {
        let bytes = store_pattern(addr, len);
        let mut exception = None;
        let mut cur = addr;
        let end = addr + len as u64;
        let mut consumed = 0usize;
        while cur < end {
            let line_addr = line_base(cur);
            let offset = line_offset(cur);
            let chunk = ((LINE_BYTES as u64 - offset as u64).min(end - cur)) as usize;
            let line = mem.line_mut(line_addr);
            match line.write_bytes(offset, &bytes[consumed..consumed + chunk]) {
                Ok(()) => {}
                Err(CoreError::StoreToSecurityByte { index }) => {
                    if exception.is_none() {
                        exception = Some(CaliformsException {
                            fault_addr: line_addr + index as u64,
                            access: AccessKind::Store,
                            kind: ExceptionKind::SecurityByteAccess,
                            pc,
                        });
                    }
                }
                Err(other) => unreachable!("store can only fault on security bytes: {other}"),
            }
            cur += chunk as u64;
            consumed += chunk;
        }
        exception
    }

    /// Replays one trace op against `mem`, with the same architectural
    /// outcome (state change, exception site and kind, delivery vs
    /// suppression, counters) as [`califorms_sim::Engine::step`].
    ///
    /// # Panics
    ///
    /// Panics exactly where the engines do: a misaligned `CFORM` target,
    /// an unbalanced `MaskPop`, or an access wrapping the address space.
    pub fn step(&mut self, mem: &mut FlatMemory, op: TraceOp) {
        self.pc += 1;
        self.counters.instructions += op.instruction_count();
        match op {
            TraceOp::Exec(_) => {}
            TraceOp::Load { addr, size } => {
                self.counters.loads += 1;
                let exc = Self::check_access(mem, addr, size as usize, AccessKind::Load, self.pc);
                self.deliver(exc);
            }
            TraceOp::Store { addr, size } => {
                self.counters.stores += 1;
                let exc = Self::do_store(mem, addr, size as usize, self.pc);
                if exc.is_some() {
                    self.counters.stores_suppressed += 1;
                }
                self.deliver(exc);
            }
            TraceOp::Cform {
                line_addr,
                attrs,
                mask,
            }
            | TraceOp::CformNt {
                line_addr,
                attrs,
                mask,
            } => {
                // The non-temporal variant differs only in cache
                // placement; architecturally both are the same Table 1
                // state change, which is all the flat model has.
                self.counters.cforms += 1;
                let insn = CformInstruction::new(line_addr, attrs, mask);
                let line = mem.line_mut(line_addr);
                let exc = match insn.execute(line) {
                    Ok(_) => None,
                    Err(e) => Some(kmap_exception(e, line_addr, self.pc)),
                };
                self.deliver(exc);
            }
            TraceOp::MaskPush => self.mask.push_allow_all(),
            TraceOp::MaskPop => self.mask.pop_window(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replay(ops: &[TraceOp]) -> (FlatMemory, OracleCore) {
        let mut mem = FlatMemory::new();
        let mut core = OracleCore::new();
        for &op in ops {
            core.step(&mut mem, op);
        }
        (mem, core)
    }

    #[test]
    fn store_then_load_is_clean() {
        let (mem, core) = replay(&[
            TraceOp::Store {
                addr: 0x1000,
                size: 8,
            },
            TraceOp::Load {
                addr: 0x1000,
                size: 8,
            },
        ]);
        assert!(core.exceptions().is_empty());
        let (data, sec) = mem.read_bytes(0x1000, 8);
        assert_eq!(data, store_pattern(0x1000, 8));
        assert_eq!(sec, 0);
    }

    #[test]
    fn rogue_load_faults_at_exact_byte_with_pc() {
        let (_, core) = replay(&[
            TraceOp::Cform {
                line_addr: 0x200,
                attrs: 1 << 5,
                mask: 1 << 5,
            },
            TraceOp::Load {
                addr: 0x203,
                size: 8,
            },
        ]);
        assert_eq!(core.exceptions().len(), 1);
        let exc = core.exceptions()[0];
        assert_eq!(exc.fault_addr, 0x205);
        assert_eq!(exc.access, AccessKind::Load);
        assert_eq!(exc.pc, 2, "pc is the 1-based op index");
    }

    #[test]
    fn violating_store_chunk_is_suppressed_others_commit() {
        // Blacklist byte 1 of the second line; store crosses into it.
        let (mem, core) = replay(&[
            TraceOp::Cform {
                line_addr: 0x40,
                attrs: 1 << 1,
                mask: 1 << 1,
            },
            TraceOp::Store {
                addr: 0x3C,
                size: 8,
            },
        ]);
        assert_eq!(core.counters().stores_suppressed, 1);
        assert_eq!(core.exceptions()[0].fault_addr, 0x41);
        // First-line chunk committed, second-line chunk suppressed.
        let pattern = store_pattern(0x3C, 8);
        let (data, _) = mem.read_bytes(0x3C, 4);
        assert_eq!(data, pattern[..4]);
        let (data, _) = mem.read_bytes(0x40, 4);
        assert_eq!(data, vec![0, 0, 0, 0]);
    }

    #[test]
    fn kmap_double_set_faults_and_commits_nothing() {
        let (mem, core) = replay(&[
            TraceOp::Cform {
                line_addr: 0,
                attrs: 0b11,
                mask: 0b11,
            },
            TraceOp::Cform {
                line_addr: 0,
                attrs: 0b110,
                mask: 0b110,
            },
        ]);
        assert_eq!(core.exceptions().len(), 1);
        assert_eq!(core.exceptions()[0].kind, ExceptionKind::CformDoubleSet);
        assert_eq!(core.exceptions()[0].fault_addr, 1);
        // The faulting CFORM committed nothing: byte 2 is still normal.
        assert!(!mem.line(0).is_security_byte(2));
    }

    #[test]
    fn mask_window_suppresses_but_counts() {
        let (_, core) = replay(&[
            TraceOp::Cform {
                line_addr: 0x80,
                attrs: 1,
                mask: 1,
            },
            TraceOp::MaskPush,
            TraceOp::Load {
                addr: 0x80,
                size: 1,
            },
            TraceOp::MaskPop,
            TraceOp::Load {
                addr: 0x80,
                size: 1,
            },
        ]);
        let c = core.counters();
        assert_eq!(c.exceptions_suppressed, 1);
        assert_eq!(c.exceptions_delivered, 1);
        assert_eq!(core.exceptions().len(), 1);
    }
}
