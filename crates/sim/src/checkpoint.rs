//! `checkpoint`: versioned binary snapshots of engine state for
//! crash-tolerant replay.
//!
//! A checkpoint captures everything that feeds the bit-identity contract
//! — core state (pc, exception masks, counters), the full hierarchy
//! (L1 lines with their MESI state and dirty/recency state, the shared
//! levels, the MESI directory), the runtime counters, and the replay
//! cursor ([`crate::tracepack::ResumePoint`]
//! per lane) — so a run killed at any quantum boundary can be resumed
//! from its last checkpoint and produce results byte-identical to a
//! straight-through run (verified by the `resume_at` mode of the
//! differential oracle, `califorms-oracle`).
//!
//! The format follows the same discipline as `tracepack`:
//!
//! ```text
//! header  := magic "CFCK" | version u8 (=4)
//! section := tag u8 (!= 0xFF) | len u64 LE | payload[len]
//! end     := 0xFF
//! trailer := checksum u64 LE (FNV-1a over every preceding byte)
//! ```
//!
//! Sections are length-prefixed, and the trailing checksum rejects torn
//! or bit-flipped files before any payload is interpreted. Every decode
//! failure — bad magic, wrong version, truncation at any byte, checksum
//! mismatch, section-length lies, semantically impossible payloads —
//! surfaces as a typed [`CheckpointError`], never a panic (negative-path
//! suite in `crates/sim/tests/checkpoint.rs`).
//!
//! Checkpoints are only taken at *quantum boundaries*: for the
//! single-core [`crate::engine::Engine`] that is a decode-batch edge,
//! for the [`crate::multicore::MulticoreEngine`] it is the point after
//! the weave, where no op is in flight on any core. The whole run is on
//! the calling thread, so serialization is plain sequential code.
//!
//! A replay asks for checkpoints with a [`Checkpoints`] request
//! (`Engine::replay`, `Source::Pack` on `MulticoreEngine::replay`), and
//! each engine's `resume` continues from any checkpoint it captured.

use crate::trace::TraceOp;
use crate::tracepack::{access_wraps, ResumePoint, TracePackError, MAX_ACCESS_BYTES};
use califorms_core::{
    AccessKind, CaliformedLine, CaliformsException, ExceptionKind, ExceptionMask, L1Line, L2Line,
    LINE_BYTES,
};
use std::num::NonZeroU64;

/// A request to checkpoint a replay: capture the whole machine after
/// every `every`-th boundary and hand each checkpoint to `sink` the
/// moment it is taken, in capture order. A boundary is a quantum on the
/// [`crate::multicore::MulticoreEngine`] and a decode batch of
/// [`crate::engine::Engine::REPLAY_BATCH`] ops on the
/// [`crate::engine::Engine`]. A resumed run keeps the original run's
/// cadence when it is given the same `every`, so a crash-tolerant driver
/// can pass one request to the first run and to every resume.
pub struct Checkpoints<'s> {
    /// Boundaries from one checkpoint to the next.
    pub every: NonZeroU64,
    /// Receives each checkpoint's bytes.
    pub sink: &'s mut dyn FnMut(Vec<u8>),
}

/// The four magic bytes opening every checkpoint.
pub const MAGIC: [u8; 4] = *b"CFCK";

/// Checkpoint format version. Checkpoints are run-local and never
/// migrated, so the decoder reads exactly this version and rejects every
/// other one, older or newer.
pub const VERSION: u8 = 4;

/// End-of-sections marker tag.
const TAG_END: u8 = 0xFF;

/// Checkpoint encode/decode/resume failure. Every variant is a
/// recoverable, typed condition — the recovery layer (bench
/// `crashrecovery` driver) reacts by falling back to an earlier
/// checkpoint instead of crashing.
#[derive(Debug)]
pub enum CheckpointError {
    /// The stream does not start with [`MAGIC`].
    BadMagic,
    /// The stream's version is not [`VERSION`].
    UnsupportedVersion(u8),
    /// The stream ended before its framing said it would (truncated
    /// tail, or a section length pointing past the end).
    Truncated,
    /// The trailing FNV-1a checksum does not match the content.
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum computed over the preceding bytes.
        computed: u64,
    },
    /// A section carried an unknown tag byte.
    BadSection(u8),
    /// A section's declared length disagrees with its payload (the
    /// decoder needed more or fewer bytes than the frame held).
    SectionLength(u8),
    /// A required section is missing.
    MissingSection(&'static str),
    /// Bytes follow the checksum trailer.
    TrailingBytes(usize),
    /// The payload decoded but is semantically impossible (e.g. a cache
    /// set over associativity, a stamp ahead of the LRU clock).
    Corrupt(&'static str),
    /// The checkpoint was taken against a different configuration than
    /// the one resuming it.
    ConfigMismatch(&'static str),
    /// The embedded replay cursor does not fit the pack being resumed
    /// (wrong or shorter pack).
    Pack(TracePackError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (decoder knows {VERSION})"
                )
            }
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            CheckpointError::BadSection(t) => write!(f, "unknown checkpoint section tag {t:#04x}"),
            CheckpointError::SectionLength(t) => {
                write!(
                    f,
                    "checkpoint section {t:#04x} length disagrees with its payload"
                )
            }
            CheckpointError::MissingSection(name) => {
                write!(f, "checkpoint is missing its {name} section")
            }
            CheckpointError::TrailingBytes(n) => {
                write!(f, "checkpoint has {n} byte(s) after the checksum trailer")
            }
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
            CheckpointError::ConfigMismatch(what) => {
                write!(f, "checkpoint configuration mismatch: {what}")
            }
            CheckpointError::Pack(e) => write!(f, "checkpoint cursor does not fit the pack: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Pack(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TracePackError> for CheckpointError {
    fn from(e: TracePackError) -> Self {
        CheckpointError::Pack(e)
    }
}

/// Checkpoint result alias.
pub type Result<T> = std::result::Result<T, CheckpointError>;

/// FNV-1a 64-bit over `bytes` — the trailer checksum. Deterministic and
/// dependency-free; collision resistance is not a goal (checkpoints
/// detect *accidental* corruption; an adversarial writer already owns
/// the process).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// --- byte writer ------------------------------------------------------

/// Canonical little-endian byte writer for checkpoint payloads.
#[derive(Debug, Default)]
pub(crate) struct Wr {
    buf: Vec<u8>,
}

impl Wr {
    /// Starts a checkpoint: magic + version.
    pub(crate) fn checkpoint() -> Self {
        let mut w = Self::default();
        w.buf.extend_from_slice(&MAGIC);
        w.buf.push(VERSION);
        w
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        // Bit pattern, not value: -0.0, NaNs and signalling payloads all
        // round-trip exactly (cycles are part of the bit-identity
        // contract).
        self.u64(v.to_bits());
    }

    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Opens a length-prefixed section; close with [`Self::end_section`].
    pub(crate) fn begin_section(&mut self, tag: u8) -> usize {
        debug_assert_ne!(tag, TAG_END);
        self.buf.push(tag);
        self.buf.extend_from_slice(&0u64.to_le_bytes());
        self.buf.len()
    }

    /// Patches the section length opened at `start`.
    pub(crate) fn end_section(&mut self, start: usize) {
        let len = (self.buf.len() - start) as u64;
        self.buf[start - 8..start].copy_from_slice(&len.to_le_bytes());
    }

    /// Writes the end marker and checksum trailer, returning the bytes.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        self.buf.push(TAG_END);
        let sum = fnv1a(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

// --- byte reader ------------------------------------------------------

/// Bounded little-endian reader over one section's payload. Every read
/// is bounds-checked and fails typed — a lying section length can never
/// read outside its frame.
#[derive(Debug)]
pub(crate) struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        let b = *self.buf.get(self.pos).ok_or(CheckpointError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Corrupt("boolean byte outside {0, 1}")),
        }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(CheckpointError::Truncated)?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u64` collection-length prefix that must fit in `usize`.
    pub(crate) fn count(&mut self) -> Result<usize> {
        let v = self.u64()?;
        // A length can never exceed the remaining payload (every element
        // is at least one byte), so a lying count fails here instead of
        // attempting a giant allocation.
        if v > self.remaining() as u64 {
            return Err(CheckpointError::Truncated);
        }
        Ok(v as usize)
    }
}

// --- section framing --------------------------------------------------

/// One parsed section: its tag and payload slice.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Section<'a> {
    pub(crate) tag: u8,
    pub(crate) payload: &'a [u8],
}

/// Validates the envelope (magic, version, checksum, framing) and
/// returns the sections in file order. This runs **before** any payload
/// is interpreted, so a corrupt file is rejected by the checksum no
/// matter where the flip landed.
pub(crate) fn parse_sections(bytes: &[u8]) -> Result<Vec<Section<'_>>> {
    // magic(4) + version(1) + end(1) + checksum(8)
    if bytes.len() < 5 {
        return Err(if bytes.starts_with(&MAGIC[..bytes.len().min(4)]) {
            CheckpointError::Truncated
        } else {
            CheckpointError::BadMagic
        });
    }
    if bytes[..4] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    if bytes[4] != VERSION {
        return Err(CheckpointError::UnsupportedVersion(bytes[4]));
    }
    if bytes.len() < 14 {
        return Err(CheckpointError::Truncated);
    }
    let (content, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes([
        trailer[0], trailer[1], trailer[2], trailer[3], trailer[4], trailer[5], trailer[6],
        trailer[7],
    ]);
    let computed = fnv1a(content);
    if stored != computed {
        return Err(CheckpointError::ChecksumMismatch { stored, computed });
    }
    let mut sections = Vec::new();
    let mut pos = 5usize;
    loop {
        let tag = *content.get(pos).ok_or(CheckpointError::Truncated)?;
        pos += 1;
        if tag == TAG_END {
            break;
        }
        let len_bytes = content
            .get(pos..pos + 8)
            .ok_or(CheckpointError::Truncated)?;
        let len = u64::from_le_bytes([
            len_bytes[0],
            len_bytes[1],
            len_bytes[2],
            len_bytes[3],
            len_bytes[4],
            len_bytes[5],
            len_bytes[6],
            len_bytes[7],
        ]);
        pos += 8;
        let end = (pos as u64)
            .checked_add(len)
            .filter(|&e| e <= content.len() as u64)
            .ok_or(CheckpointError::SectionLength(tag))? as usize;
        sections.push(Section {
            tag,
            payload: &content[pos..end],
        });
        pos = end;
    }
    if pos != content.len() {
        return Err(CheckpointError::TrailingBytes(content.len() - pos));
    }
    Ok(sections)
}

/// Finds a required section by tag.
pub(crate) fn require<'a>(sections: &[Section<'a>], tag: u8, name: &'static str) -> Result<Rd<'a>> {
    sections
        .iter()
        .find(|s| s.tag == tag)
        .map(|s| Rd::new(s.payload))
        .ok_or(CheckpointError::MissingSection(name))
}

/// Checks that a section's payload was consumed exactly.
pub(crate) fn consumed(r: &Rd<'_>, tag: u8) -> Result<()> {
    if r.remaining() == 0 {
        Ok(())
    } else {
        Err(CheckpointError::SectionLength(tag))
    }
}

// --- section tags -----------------------------------------------------

/// Engine kind + core count.
pub(crate) const SEC_META: u8 = 0x01;
/// Hierarchy/core (and, multicore, coherence/runtime) configuration.
pub(crate) const SEC_CONFIG: u8 = 0x02;
/// Per-core replay state (repeated per core in one section).
pub(crate) const SEC_CORE: u8 = 0x03;
/// Single-core hierarchy state.
pub(crate) const SEC_HIERARCHY: u8 = 0x04;
/// Multi-core coherent hierarchy state.
pub(crate) const SEC_COHERENT: u8 = 0x05;
/// Runtime counters + the end of the next quantum.
pub(crate) const SEC_RUNTIME: u8 = 0x06;
/// Replay cursor(s): one `ResumePoint` (+ ring leftovers) per lane.
pub(crate) const SEC_CURSOR: u8 = 0x07;

/// Engine kind discriminants in [`SEC_META`].
pub(crate) const KIND_SINGLE: u8 = 0;
pub(crate) const KIND_MULTI: u8 = 1;

// --- shared type serializers ------------------------------------------

pub(crate) fn put_exception(w: &mut Wr, e: &CaliformsException) {
    w.u64(e.fault_addr);
    w.u8(match e.access {
        AccessKind::Load => 0,
        AccessKind::Store => 1,
        AccessKind::Cform => 2,
    });
    w.u8(match e.kind {
        ExceptionKind::SecurityByteAccess => 0,
        ExceptionKind::CformDoubleSet => 1,
        ExceptionKind::CformUnsetNormal => 2,
    });
    w.u64(e.pc);
}

pub(crate) fn get_exception(r: &mut Rd<'_>) -> Result<CaliformsException> {
    let fault_addr = r.u64()?;
    let access = match r.u8()? {
        0 => AccessKind::Load,
        1 => AccessKind::Store,
        2 => AccessKind::Cform,
        _ => return Err(CheckpointError::Corrupt("unknown access kind")),
    };
    let kind = match r.u8()? {
        0 => ExceptionKind::SecurityByteAccess,
        1 => ExceptionKind::CformDoubleSet,
        2 => ExceptionKind::CformUnsetNormal,
        _ => return Err(CheckpointError::Corrupt("unknown exception kind")),
    };
    let pc = r.u64()?;
    Ok(CaliformsException {
        fault_addr,
        access,
        kind,
        pc,
    })
}

pub(crate) fn put_exceptions(w: &mut Wr, list: &[CaliformsException]) {
    w.u64(list.len() as u64);
    for e in list {
        put_exception(w, e);
    }
}

pub(crate) fn get_exceptions(r: &mut Rd<'_>) -> Result<Vec<CaliformsException>> {
    let n = r.count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_exception(r)?);
    }
    Ok(out)
}

pub(crate) fn put_mask(w: &mut Wr, m: &ExceptionMask) {
    let windows = m.windows();
    w.u64(windows.len() as u64);
    for &(lo, hi) in windows {
        w.u64(lo);
        w.u64(hi);
    }
    w.u64(m.suppressed_count());
    w.u64(m.delivered_count());
}

pub(crate) fn get_mask(r: &mut Rd<'_>) -> Result<ExceptionMask> {
    let n = r.count()?;
    let mut windows = Vec::with_capacity(n);
    for _ in 0..n {
        let lo = r.u64()?;
        let hi = r.u64()?;
        windows.push((lo, hi));
    }
    let suppressed = r.u64()?;
    let delivered = r.u64()?;
    ExceptionMask::from_parts(windows, suppressed, delivered).map_err(CheckpointError::Corrupt)
}

pub(crate) fn put_califormed_line(w: &mut Wr, line: &CaliformedLine) {
    w.bytes(line.data());
    w.u64(line.security_mask());
}

pub(crate) fn get_califormed_line(r: &mut Rd<'_>) -> Result<CaliformedLine> {
    let raw = r.take(LINE_BYTES)?;
    let mut data = [0u8; LINE_BYTES];
    data.copy_from_slice(raw);
    let mask = r.u64()?;
    CaliformedLine::try_new(data, mask)
        .map_err(|_| CheckpointError::Corrupt("security byte carries non-zero data"))
}

pub(crate) fn put_l1_line(w: &mut Wr, line: &L1Line) {
    put_califormed_line(w, line.line());
}

pub(crate) fn get_l1_line(r: &mut Rd<'_>) -> Result<L1Line> {
    Ok(L1Line::new(get_califormed_line(r)?))
}

pub(crate) fn put_l2_line(w: &mut Wr, line: &L2Line) {
    w.bytes(&line.bytes);
    w.bool(line.califormed);
}

pub(crate) fn get_l2_line(r: &mut Rd<'_>) -> Result<L2Line> {
    let raw = r.take(LINE_BYTES)?;
    let mut bytes = [0u8; LINE_BYTES];
    bytes.copy_from_slice(raw);
    let califormed = r.bool()?;
    Ok(L2Line { bytes, califormed })
}

pub(crate) fn put_cache_stats(w: &mut Wr, s: &crate::stats::CacheStats) {
    w.u64(s.hits);
    w.u64(s.misses);
    w.u64(s.evictions);
    w.u64(s.writebacks);
}

pub(crate) fn get_cache_stats(r: &mut Rd<'_>) -> Result<crate::stats::CacheStats> {
    Ok(crate::stats::CacheStats {
        hits: r.u64()?,
        misses: r.u64()?,
        evictions: r.u64()?,
        writebacks: r.u64()?,
    })
}

pub(crate) fn put_resume_point(w: &mut Wr, p: &ResumePoint) {
    w.u64(p.byte_offset);
    w.u64(p.ops_read);
    w.u64(p.last_addr);
    w.bool(p.done);
}

pub(crate) fn get_resume_point(r: &mut Rd<'_>) -> Result<ResumePoint> {
    Ok(ResumePoint {
        byte_offset: r.u64()?,
        ops_read: r.u64()?,
        last_addr: r.u64()?,
        done: r.bool()?,
    })
}

/// One decoded op (ring leftovers of a multicore lane cursor).
pub(crate) fn put_trace_op(w: &mut Wr, op: &TraceOp) {
    match *op {
        TraceOp::Exec(n) => {
            w.u8(0);
            w.u32(n);
        }
        TraceOp::Load { addr, size } => {
            w.u8(1);
            w.u64(addr);
            w.u8(size);
        }
        TraceOp::Store { addr, size } => {
            w.u8(2);
            w.u64(addr);
            w.u8(size);
        }
        TraceOp::Cform {
            line_addr,
            attrs,
            mask,
        } => {
            w.u8(3);
            w.u64(line_addr);
            w.u64(attrs);
            w.u64(mask);
        }
        TraceOp::CformNt {
            line_addr,
            attrs,
            mask,
        } => {
            w.u8(4);
            w.u64(line_addr);
            w.u64(attrs);
            w.u64(mask);
        }
        TraceOp::MaskPush => w.u8(5),
        TraceOp::MaskPop => w.u8(6),
    }
}

pub(crate) fn get_trace_op(r: &mut Rd<'_>) -> Result<TraceOp> {
    Ok(match r.u8()? {
        0 => TraceOp::Exec(r.u32()?),
        1 => {
            let (addr, size) = checked_access(r)?;
            TraceOp::Load { addr, size }
        }
        2 => {
            let (addr, size) = checked_access(r)?;
            TraceOp::Store { addr, size }
        }
        3 => TraceOp::Cform {
            line_addr: checked_line_addr(r)?,
            attrs: r.u64()?,
            mask: r.u64()?,
        },
        4 => TraceOp::CformNt {
            line_addr: checked_line_addr(r)?,
            attrs: r.u64()?,
            mask: r.u64()?,
        },
        5 => TraceOp::MaskPush,
        6 => TraceOp::MaskPop,
        _ => return Err(CheckpointError::Corrupt("unknown trace op tag")),
    })
}

pub(crate) fn put_core_weave(w: &mut Wr, s: &crate::stats::CoreWeaveStats) {
    w.u64(s.turns);
    w.u64(s.transactions);
    w.u64(s.batched);
    w.u64(s.contended);
}

pub(crate) fn get_core_weave(r: &mut Rd<'_>) -> Result<crate::stats::CoreWeaveStats> {
    Ok(crate::stats::CoreWeaveStats {
        turns: r.u64()?,
        transactions: r.u64()?,
        batched: r.u64()?,
        contended: r.u64()?,
    })
}

/// The address and size of a load/store in [`get_trace_op`], held to the
/// trace pack's access contract.
fn checked_access(r: &mut Rd<'_>) -> Result<(u64, u8)> {
    let addr = r.u64()?;
    let size = r.u8()?;
    if size == 0 || size as usize > MAX_ACCESS_BYTES {
        return Err(CheckpointError::Corrupt(
            "trace op access size out of range",
        ));
    }
    if access_wraps(addr, size) {
        return Err(CheckpointError::Corrupt(
            "trace op access wraps past the address space",
        ));
    }
    Ok((addr, size))
}

/// The target of a `CFORM` in [`get_trace_op`], held to the trace pack's
/// line-alignment contract.
fn checked_line_addr(r: &mut Rd<'_>) -> Result<u64> {
    let line_addr = r.u64()?;
    if !line_addr.is_multiple_of(crate::LINE_BYTES) {
        return Err(CheckpointError::Corrupt(
            "trace op CFORM target not line-aligned",
        ));
    }
    Ok(line_addr)
}

// --- cache + config serializers ---------------------------------------

/// Serializes a [`SetAssocCache`]'s full replacement state: LRU clock,
/// counters, and every resident line with its stamp, dirty bit and
/// within-set position (see `SetAssocCache::export_lines` for why the
/// order is load-bearing).
pub(crate) fn put_cache<V>(
    w: &mut Wr,
    cache: &crate::cache::SetAssocCache<V>,
    put: impl Fn(&mut Wr, &V),
) {
    w.u64(cache.clock());
    put_cache_stats(w, &cache.stats);
    let lines = cache.export_lines();
    w.u64(lines.len() as u64);
    for (addr, stamp, dirty, v) in lines {
        w.u64(addr);
        w.u64(stamp);
        w.bool(dirty);
        put(w, v);
    }
}

/// Restores a [`SetAssocCache`] serialized by [`put_cache`] into a cache
/// of identical geometry.
pub(crate) fn get_cache<V>(
    r: &mut Rd<'_>,
    cache: &mut crate::cache::SetAssocCache<V>,
    get: impl Fn(&mut Rd<'_>) -> Result<V>,
) -> Result<()> {
    let clock = r.u64()?;
    cache.stats = get_cache_stats(r)?;
    let n = r.count()?;
    let mut lines = Vec::with_capacity(n);
    for _ in 0..n {
        let addr = r.u64()?;
        let stamp = r.u64()?;
        let dirty = r.bool()?;
        lines.push((addr, stamp, dirty, get(r)?));
    }
    cache
        .import_lines(clock, lines)
        .map_err(CheckpointError::Corrupt)
}

/// The largest cache level a checkpoint may describe: 8× the 2 MiB
/// Westmere L3, the largest geometry the workspace builds. A bigger
/// level in a checkpoint is corrupt, not a machine to allocate.
const MAX_LEVEL_BYTES: usize = 16 << 20;

fn usize_from(v: u64) -> Result<usize> {
    usize::try_from(v).map_err(|_| CheckpointError::Corrupt("size exceeds the address space"))
}

pub(crate) fn put_hier_config(w: &mut Wr, cfg: &crate::hierarchy::HierarchyConfig) {
    w.u64(cfg.l1d_size as u64);
    w.u64(cfg.l1d_ways as u64);
    w.u32(cfg.l1d_latency);
    w.u64(cfg.l2_size as u64);
    w.u64(cfg.l2_ways as u64);
    w.u32(cfg.l2_latency);
    w.u64(cfg.l3_size as u64);
    w.u64(cfg.l3_ways as u64);
    w.u32(cfg.l3_latency);
    w.u32(cfg.dram_latency);
    w.u32(cfg.extra_l2_latency);
    w.u32(cfg.extra_l3_latency);
    w.bool(cfg.stream_prefetcher);
    w.u32(cfg.prefetch_residual);
}

pub(crate) fn get_hier_config(r: &mut Rd<'_>) -> Result<crate::hierarchy::HierarchyConfig> {
    let cfg = crate::hierarchy::HierarchyConfig {
        l1d_size: usize_from(r.u64()?)?,
        l1d_ways: usize_from(r.u64()?)?,
        l1d_latency: r.u32()?,
        l2_size: usize_from(r.u64()?)?,
        l2_ways: usize_from(r.u64()?)?,
        l2_latency: r.u32()?,
        l3_size: usize_from(r.u64()?)?,
        l3_ways: usize_from(r.u64()?)?,
        l3_latency: r.u32()?,
        dram_latency: r.u32()?,
        extra_l2_latency: r.u32()?,
        extra_l3_latency: r.u32()?,
        stream_prefetcher: r.bool()?,
        prefetch_residual: r.u32()?,
    };
    // Reject geometries the cache constructors would panic on, or that
    // would allocate more than any modelled machine holds — a corrupt
    // config section must stay a typed error.
    for (size, ways, what) in [
        (cfg.l1d_size, cfg.l1d_ways, "L1D geometry"),
        (cfg.l2_size, cfg.l2_ways, "L2 geometry"),
        (cfg.l3_size, cfg.l3_ways, "L3 geometry"),
    ] {
        let sets = ways
            .checked_mul(LINE_BYTES)
            .filter(|&set_bytes| set_bytes != 0 && size % set_bytes == 0)
            .map(|set_bytes| size / set_bytes);
        if size > MAX_LEVEL_BYTES || !sets.is_some_and(usize::is_power_of_two) {
            return Err(CheckpointError::Corrupt(what));
        }
    }
    Ok(cfg)
}

pub(crate) fn put_core_config(w: &mut Wr, cfg: &crate::cpu::CoreConfig) {
    w.u32(cfg.width);
    w.f64(cfg.overlap);
}

pub(crate) fn get_core_config(r: &mut Rd<'_>) -> Result<crate::cpu::CoreConfig> {
    let width = r.u32()?;
    let overlap = r.f64()?;
    if width == 0 || !(0.0..1.0).contains(&overlap) {
        return Err(CheckpointError::Corrupt("core timing parameters"));
    }
    Ok(crate::cpu::CoreConfig { width, overlap })
}
