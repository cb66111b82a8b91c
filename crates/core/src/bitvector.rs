//! The L1 cache-line format: *califorms-bitvector* (Section 5.1).
//!
//! The L1 keeps one metadata bit per data byte (an 8 B bit vector per 64 B
//! line, 12.5 % storage overhead) so that loads and stores that hit in the
//! L1 never need address recalculation: the metadata array is looked up in
//! parallel with the tag array (paper Figure 6) and the *Califorms checker*
//! decides, per byte, whether the access touches a security byte.
//!
//! Access semantics (Section 5.1):
//!
//! * a **load** of a security byte returns the predetermined value **zero**
//!   (defeating speculative-disclosure side channels) and records a
//!   privileged exception to be raised when the load becomes
//!   non-speculative;
//! * a **store** to a security byte raises the exception before committing
//!   and leaves memory unchanged.
//!
//! [`L1Line`] models the line held in the L1 data array together with its
//! bit vector; [`L1AccessResult`] is what the checker hands the pipeline.

use crate::error::Result;
use crate::line::{CaliformedLine, LINE_BYTES};

/// A cache line in L1 *califorms-bitvector* format: 64 data bytes plus a
/// 64-bit security bit vector.
///
/// This is a thin, format-specific view over the canonical
/// [`CaliformedLine`]; the conversion is free because the L1 format *is*
/// the canonical format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Line {
    line: CaliformedLine,
}

/// Result of a checked L1 data access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct L1AccessResult {
    /// Bytes returned to the pipeline (zeros in security-byte positions).
    pub data: Vec<u8>,
    /// Whether the access touched at least one security byte, i.e. whether
    /// a privileged Califorms exception must be raised at commit.
    pub violation: bool,
    /// Bit `i` set iff accessed byte `i` (line-relative) was a security byte.
    pub violating_bytes: u64,
}

impl L1Line {
    /// Wraps a canonical line in the L1 format.
    pub const fn new(line: CaliformedLine) -> Self {
        Self { line }
    }

    /// A line of zeros with no security bytes.
    pub const fn zeroed() -> Self {
        Self {
            line: CaliformedLine::zeroed(),
        }
    }

    /// The canonical line content.
    pub const fn line(&self) -> &CaliformedLine {
        &self.line
    }

    /// Mutable access to the canonical line content.
    pub fn line_mut(&mut self) -> &mut CaliformedLine {
        &mut self.line
    }

    /// Consumes the view, returning the canonical line.
    pub const fn into_line(self) -> CaliformedLine {
        self.line
    }

    /// The security bit vector (the L1 metadata array entry).
    pub const fn bitvector(&self) -> u64 {
        self.line.security_mask()
    }

    /// Checked load of `len` bytes starting at line offset `offset`.
    ///
    /// Returns the data (zeros where security bytes sit) plus the violation
    /// information. Never fails: per the paper the load *completes* with a
    /// predetermined value and the exception is deferred to commit.
    ///
    /// # Panics
    ///
    /// Panics if the access overruns the line (`offset + len > 64`); the
    /// cache controller splits line-crossing accesses before they get here.
    pub fn load(&self, offset: usize, len: usize) -> L1AccessResult {
        assert!(
            offset + len <= LINE_BYTES,
            "access crosses the line boundary"
        );
        // One shifted AND against the bit vector finds every violating
        // byte at once (the checker's parallel comparator bank), and the
        // canonical-line invariant — data under a security byte is zero —
        // lets the data copy be a straight memcpy.
        let violating = if len == 0 {
            0
        } else {
            (self.line.security_mask() >> offset) & crate::line::range_mask(0, len)
        };
        L1AccessResult {
            data: self.line.data()[offset..offset + len].to_vec(),
            violation: violating != 0,
            violating_bytes: violating,
        }
    }

    /// Checked store of `bytes` starting at line offset `offset`.
    ///
    /// If any targeted byte is a security byte the store is suppressed
    /// entirely (it would never commit) and the first offending byte is
    /// reported.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::StoreToSecurityByte`](crate::CoreError::StoreToSecurityByte)
    /// on a violation.
    ///
    /// # Panics
    ///
    /// Panics if the access overruns the line.
    pub fn store(&mut self, offset: usize, bytes: &[u8]) -> Result<()> {
        self.line.write_bytes(offset, bytes)
    }
}

impl From<CaliformedLine> for L1Line {
    fn from(line: CaliformedLine) -> Self {
        Self::new(line)
    }
}

impl From<L1Line> for CaliformedLine {
    fn from(l1: L1Line) -> Self {
        l1.into_line()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;

    fn line_with_security(at: &[usize]) -> L1Line {
        let mut line = CaliformedLine::from_data([0x5A; LINE_BYTES]);
        for &i in at {
            line.set_security_byte(i);
        }
        L1Line::new(line)
    }

    #[test]
    fn clean_load_returns_data_without_violation() {
        let l1 = line_with_security(&[]);
        let r = l1.load(8, 8);
        assert!(!r.violation);
        assert_eq!(r.data, vec![0x5A; 8]);
        assert_eq!(r.violating_bytes, 0);
    }

    #[test]
    fn load_of_security_byte_returns_zero_and_flags() {
        let l1 = line_with_security(&[10]);
        let r = l1.load(8, 4);
        assert!(r.violation);
        assert_eq!(r.data, vec![0x5A, 0x5A, 0x00, 0x5A]);
        assert_eq!(r.violating_bytes, 0b0100);
    }

    #[test]
    fn store_over_security_byte_is_suppressed_entirely() {
        let mut l1 = line_with_security(&[17]);
        let err = l1.store(16, &[1, 2, 3, 4]).unwrap_err();
        assert_eq!(err, CoreError::StoreToSecurityByte { index: 17 });
        // Nothing committed, not even the non-violating bytes.
        assert_eq!(l1.load(16, 1).data, vec![0x5A]);
    }

    #[test]
    fn clean_store_commits() {
        let mut l1 = line_with_security(&[0]);
        l1.store(1, &[9, 8, 7]).unwrap();
        assert_eq!(l1.load(1, 3).data, vec![9, 8, 7]);
    }

    #[test]
    fn bitvector_tracks_mask() {
        let l1 = line_with_security(&[0, 63]);
        assert_eq!(l1.bitvector(), 1 | 1 << 63);
    }

    #[test]
    #[should_panic(expected = "crosses the line boundary")]
    fn line_crossing_access_panics() {
        line_with_security(&[]).load(60, 8);
    }

    #[test]
    fn whole_line_load_flags_every_security_byte() {
        let l1 = line_with_security(&[0, 1, 62]);
        let r = l1.load(0, LINE_BYTES);
        assert_eq!(r.violating_bytes, 0b11 | 1 << 62);
    }
}
