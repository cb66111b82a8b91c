//! `tracepack`: a compact binary trace format.
//!
//! The paper's evaluation replays SimPoint regions of hundreds of millions
//! of memory operations; holding them as `Vec<TraceOp>` costs 32 B per op
//! and walking them through boxed iterator chains wastes the replay hot
//! path. A *trace pack* stores the same stream in a few bytes per op:
//!
//! ```text
//! header  := magic "CFTP" | version u8 (=1)
//! op      := tag u8 | payload
//! end     := 0xFF
//!
//! tag 0  Exec     | varint n
//! tag 1  Load     | svarint addr-delta | u8 size (1..=64)
//! tag 2  Store    | svarint addr-delta | u8 size (1..=64)
//! tag 3  Cform    | svarint addr-delta | varint attrs | varint mask
//! tag 4  CformNt  | svarint addr-delta | varint attrs | varint mask
//! tag 5  MaskPush |
//! tag 6  MaskPop  |
//! ```
//!
//! `varint` is LEB128 (7 bits per byte, low bits first); `svarint` is a
//! zigzag-encoded varint. Addresses are **delta-encoded** against the
//! previous op's address (`Cform`/`CformNt` use their line address), so
//! the sequential and strided streams real programs produce collapse to
//! one- or two-byte deltas. The `0xFF` end marker lets a reader
//! distinguish a complete stream from a truncated one. A `Load`/`Store`
//! may end at the top byte of the address space but not wrap past it,
//! and a `Cform`/`CformNt` target is line (64-byte) aligned.
//!
//! [`TracePack`] is the owned in-memory form the replay hot path
//! batch-decodes from (see [`crate::engine::Engine::replay`]).
//!
//! **One op decoder.** The per-op rules (tags, varint limits, access
//! sizes, the address context) are written once, as an inlined decoder
//! generic over where its bytes come from. [`PackDecoder::next_batch`]
//! feeds it a fixed [`MAX_OP_BYTES`] window while a worst-case op still
//! fits in what is left of the pack, so no read inside an op can fail
//! and the cursor and address context live in registers; only the last
//! few bytes before the end go through checked reads, which is where a
//! truncated stream is caught. Every in-memory consumer drains that one
//! loop: [`TracePack::from_bytes`] validates through it, so the code that
//! accepted a pack is the code that replays it, and the engines' replay
//! rings and the multicore decoder lanes fill from it.

use crate::trace::TraceOp;
use crate::LINE_BYTES;

/// The four magic bytes opening every pack.
pub const MAGIC: [u8; 4] = *b"CFTP";

/// Current format version.
pub const VERSION: u8 = 1;

/// End-of-stream marker tag.
const TAG_END: u8 = 0xFF;

/// Largest access size a packed `Load`/`Store` may carry (one cache line;
/// the cache controller splits anything larger before it reaches the
/// hierarchy, and the generators never emit it).
pub const MAX_ACCESS_BYTES: usize = 64;

/// Worst-case encoded size of one op: tag + 10-byte address delta + two
/// 10-byte varints (`Cform` attrs/mask).
pub const MAX_OP_BYTES: usize = 1 + 10 + 10 + 10;

/// Decoding failure.
#[derive(Debug)]
pub enum TracePackError {
    /// The stream does not start with [`MAGIC`].
    BadMagic,
    /// The stream's version is not [`VERSION`] (older and newer ones
    /// alike are refused).
    UnsupportedVersion(u8),
    /// An op carried an unknown tag byte.
    BadTag(u8),
    /// The stream ended without the end marker (or inside an op).
    Truncated,
    /// Bytes follow the end marker (corrupted tail or concatenated
    /// streams); the payload is the number of trailing bytes.
    TrailingBytes(usize),
    /// A varint ran past 10 bytes (cannot fit in `u64`).
    VarintOverflow,
    /// A `Load`/`Store` size outside `1..=`[`MAX_ACCESS_BYTES`].
    BadSize(u8),
    /// A `Load`/`Store` whose bytes run past the top of the address space.
    AccessWraps {
        /// The access's first byte.
        addr: u64,
        /// Its size in bytes.
        size: u8,
    },
    /// A `Cform`/`CformNt` whose target is not a cache-line (64-byte)
    /// aligned address.
    MisalignedCform {
        /// The op's target address.
        line_addr: u64,
    },
    /// A resume cursor that is not an op boundary of this pack: decoding
    /// its `ops_read` ops from the start does not end at its byte offset,
    /// address context and end-of-stream flag. The payload is the
    /// rejected cursor.
    CursorMismatch(ResumePoint),
}

impl std::fmt::Display for TracePackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TracePackError::BadMagic => write!(f, "not a trace pack (bad magic)"),
            TracePackError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace pack version {v} (decoder knows {VERSION})"
                )
            }
            TracePackError::BadTag(t) => write!(f, "unknown trace pack op tag {t:#04x}"),
            TracePackError::Truncated => write!(f, "trace pack truncated (no end marker)"),
            TracePackError::TrailingBytes(n) => {
                write!(f, "trace pack has {n} byte(s) after the end marker")
            }
            TracePackError::VarintOverflow => write!(f, "trace pack varint exceeds 64 bits"),
            TracePackError::BadSize(s) => {
                write!(
                    f,
                    "trace pack access size {s} outside 1..={MAX_ACCESS_BYTES}"
                )
            }
            TracePackError::AccessWraps { addr, size } => write!(
                f,
                "trace pack access of {size} bytes at {addr:#x} wraps past the address space"
            ),
            TracePackError::MisalignedCform { line_addr } => write!(
                f,
                "trace pack CFORM target {line_addr:#x} is not cache-line aligned"
            ),
            TracePackError::CursorMismatch(p) => write!(
                f,
                "resume cursor (byte {}, op {}) is not an op boundary of this trace pack",
                p.byte_offset, p.ops_read
            ),
        }
    }
}

impl std::error::Error for TracePackError {}

/// Whether an access of `size ≥ 1` bytes at `addr` runs past the top of
/// the address space (its last byte would be beyond `u64::MAX`).
#[inline]
pub(crate) fn access_wraps(addr: u64, size: u8) -> bool {
    addr.checked_add(u64::from(size) - 1).is_none()
}

/// Decoding result alias.
pub type Result<T> = std::result::Result<T, TracePackError>;

// --- varint primitives over byte slices -------------------------------

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Where the op decoder reads its bytes: a fixed window that holds a
/// whole worst-case op, so no read can fail, or a checked slice whose
/// end is the end of the available stream.
trait OpBytes {
    /// The byte at `pos`; [`TracePackError::Truncated`] past the end.
    fn at(&self, pos: usize) -> Result<u8>;
}

impl OpBytes for [u8; MAX_OP_BYTES] {
    #[inline(always)]
    fn at(&self, pos: usize) -> Result<u8> {
        Ok(self[pos])
    }
}

impl OpBytes for [u8] {
    #[inline(always)]
    fn at(&self, pos: usize) -> Result<u8> {
        self.get(pos).copied().ok_or(TracePackError::Truncated)
    }
}

/// Reads the varint at `*pos` and advances past it. At most 10 bytes:
/// the tenth may only carry the top bit of a `u64`. The fixed trip count
/// bounds every read, which lets the compiler prove the window reads of
/// [`decode_op`] in range and drop their bounds checks.
#[inline(always)]
fn varint<B: OpBytes + ?Sized>(src: &B, pos: &mut usize) -> Result<u64> {
    let mut v = 0;
    for shift in [0, 7, 14, 21, 28, 35, 42, 49, 56] {
        let b = src.at(*pos)?;
        *pos += 1;
        v |= u64::from(b & 0x7F) << shift;
        if b < 0x80 {
            return Ok(v);
        }
    }
    let b = src.at(*pos)?;
    *pos += 1;
    if b > 1 {
        return Err(TracePackError::VarintOverflow);
    }
    Ok(v | u64::from(b) << 63)
}

/// The format's per-op decode rules, shared by every decode path: decodes
/// the op at `*pos` (or the end marker → `None`) and advances past it.
/// `last_addr` moves to the op's address only when the op decodes; on an
/// error `*pos` stops inside the op, so callers decode on a copy of their
/// cursor and keep it at the op's start.
#[inline(always)]
fn decode_op<B: OpBytes + ?Sized>(
    src: &B,
    pos: &mut usize,
    last_addr: &mut u64,
) -> Result<Option<TraceOp>> {
    let tag = src.at(*pos)?;
    *pos += 1;
    let op = match tag {
        0 => TraceOp::Exec(
            u32::try_from(varint(src, pos)?).map_err(|_| TracePackError::VarintOverflow)?,
        ),
        1 | 2 => {
            let addr = last_addr.wrapping_add(unzigzag(varint(src, pos)?) as u64);
            let size = src.at(*pos)?;
            *pos += 1;
            if size == 0 || size as usize > MAX_ACCESS_BYTES {
                return Err(TracePackError::BadSize(size));
            }
            if access_wraps(addr, size) {
                return Err(TracePackError::AccessWraps { addr, size });
            }
            *last_addr = addr;
            if tag == 1 {
                TraceOp::Load { addr, size }
            } else {
                TraceOp::Store { addr, size }
            }
        }
        3 | 4 => {
            let line_addr = last_addr.wrapping_add(unzigzag(varint(src, pos)?) as u64);
            let attrs = varint(src, pos)?;
            let mask = varint(src, pos)?;
            if !line_addr.is_multiple_of(LINE_BYTES) {
                return Err(TracePackError::MisalignedCform { line_addr });
            }
            *last_addr = line_addr;
            if tag == 3 {
                TraceOp::Cform {
                    line_addr,
                    attrs,
                    mask,
                }
            } else {
                TraceOp::CformNt {
                    line_addr,
                    attrs,
                    mask,
                }
            }
        }
        5 => TraceOp::MaskPush,
        6 => TraceOp::MaskPop,
        TAG_END => return Ok(None),
        other => return Err(TracePackError::BadTag(other)),
    };
    Ok(Some(op))
}

// --- encoding ---------------------------------------------------------

/// Encoder state of [`TracePack::from_ops`].
#[derive(Debug, Default)]
struct Encoder {
    last_addr: u64,
    ops: u64,
}

impl Encoder {
    #[inline]
    fn addr_delta(&mut self, out: &mut Vec<u8>, addr: u64) {
        let delta = addr.wrapping_sub(self.last_addr) as i64;
        self.last_addr = addr;
        put_varint(out, zigzag(delta));
    }

    /// Appends one encoded op to `out`.
    ///
    /// # Panics
    ///
    /// Panics if a `Load`/`Store` size is `0` or exceeds
    /// [`MAX_ACCESS_BYTES`], if the access wraps past the top of the
    /// address space, or if a `Cform`/`CformNt` target is not line
    /// aligned — the format's (and hierarchy's) access contract.
    fn encode(&mut self, out: &mut Vec<u8>, op: TraceOp) {
        self.ops += 1;
        match op {
            TraceOp::Exec(n) => {
                out.push(0);
                put_varint(out, u64::from(n));
            }
            TraceOp::Load { addr, size } | TraceOp::Store { addr, size } => {
                assert!(
                    size != 0 && size as usize <= MAX_ACCESS_BYTES,
                    "trace pack access size {size} outside 1..={MAX_ACCESS_BYTES}"
                );
                assert!(
                    !access_wraps(addr, size),
                    "trace pack access of {size} bytes at {addr:#x} wraps past the address space"
                );
                out.push(if matches!(op, TraceOp::Load { .. }) {
                    1
                } else {
                    2
                });
                self.addr_delta(out, addr);
                out.push(size);
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
                assert!(
                    line_addr.is_multiple_of(LINE_BYTES),
                    "trace pack CFORM target {line_addr:#x} is not cache-line aligned"
                );
                out.push(if matches!(op, TraceOp::Cform { .. }) {
                    3
                } else {
                    4
                });
                self.addr_delta(out, line_addr);
                put_varint(out, attrs);
                put_varint(out, mask);
            }
            TraceOp::MaskPush => out.push(5),
            TraceOp::MaskPop => out.push(6),
        }
    }
}

// --- owned pack -------------------------------------------------------

/// An owned, fully-encoded trace pack: the in-memory form the replay hot
/// path batch-decodes from, and the unit [`crate::multicore::MulticoreEngine`]
/// shards across cores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracePack {
    bytes: Vec<u8>,
    ops: u64,
}

impl TracePack {
    /// Encodes an op stream into a pack.
    ///
    /// # Panics
    ///
    /// Panics on an access size outside `1..=`[`MAX_ACCESS_BYTES`], an
    /// access that wraps past the top of the address space, or a `CFORM`
    /// target that is not line aligned.
    pub fn from_ops<I: IntoIterator<Item = TraceOp>>(ops: I) -> Self {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        let mut enc = Encoder::default();
        for op in ops {
            enc.encode(&mut bytes, op);
        }
        bytes.push(TAG_END);
        Self {
            bytes,
            ops: enc.ops,
        }
    }

    /// Parses a pack from its serialised bytes (e.g. read back from disk),
    /// validating the header and draining the stream once through
    /// [`PackDecoder::next_batch`] — the loop that replays it — to count
    /// ops and reject corruption up front.
    ///
    /// # Errors
    ///
    /// Any [`TracePackError`].
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self> {
        if bytes.len() < 5 || bytes[..4] != MAGIC {
            return Err(TracePackError::BadMagic);
        }
        if bytes[4] != VERSION {
            return Err(TracePackError::UnsupportedVersion(bytes[4]));
        }
        let mut dec = PackDecoder::new(&bytes[5..]);
        let mut batch = [TraceOp::Exec(0); DECODE_BATCH];
        while dec.next_batch(&mut batch)? > 0 {}
        let trailing = dec.body.len() - dec.pos;
        if trailing > 0 {
            return Err(TracePackError::TrailingBytes(trailing));
        }
        let ops = dec.ops_read;
        Ok(Self { bytes, ops })
    }

    /// The serialised bytes (header + op stream + end marker).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Number of ops in the pack.
    pub fn len_ops(&self) -> u64 {
        self.ops
    }

    /// Whether the pack holds no ops.
    pub fn is_empty(&self) -> bool {
        self.ops == 0
    }

    /// Encoded bytes per op — the compaction the format buys.
    pub fn bytes_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            (self.bytes.len() - 6) as f64 / self.ops as f64
        }
    }

    /// A zero-I/O batch decoder over this pack.
    pub fn decoder(&self) -> PackDecoder<'_> {
        PackDecoder::new(&self.bytes[5..])
    }

    /// A decoder positioned at `point`, as captured by
    /// [`PackDecoder::resume_point`] against this same pack: decoding
    /// from here is byte-for-byte identical to decoding from the start
    /// and skipping `point.ops_read` ops (the resume seam of
    /// `crate::checkpoint`). The point is re-derived, not trusted: the
    /// pack's first `point.ops_read` ops are decoded and must end exactly
    /// at its byte offset, address context and end-of-stream flag. A
    /// checkpoint's checksum does not vouch for its cursor (anyone can
    /// reseal edited bytes), and an offset inside an op would otherwise
    /// replay garbage.
    ///
    /// # Errors
    ///
    /// [`TracePackError::Truncated`] when the offset runs past the
    /// encoded stream (a cursor taken on a longer pack);
    /// [`TracePackError::CursorMismatch`] when it is not an op boundary
    /// of this pack.
    pub fn resume_from(&self, point: ResumePoint) -> Result<PackDecoder<'_>> {
        let mut dec = self.decoder();
        if point.byte_offset > dec.body.len() as u64 {
            return Err(TracePackError::Truncated);
        }
        let mut batch = [TraceOp::Exec(0); DECODE_BATCH];
        while dec.ops_read < point.ops_read {
            let want = (point.ops_read - dec.ops_read).min(DECODE_BATCH as u64) as usize;
            if dec.next_batch(&mut batch[..want])? == 0 {
                break;
            }
        }
        if point.done {
            // Consumes the end marker, or decodes one op too many.
            dec.next_batch(&mut batch[..1])?;
        }
        if dec.resume_point() != point {
            return Err(TracePackError::CursorMismatch(point));
        }
        Ok(dec)
    }

    /// Iterates the decoded ops.
    ///
    /// # Panics
    ///
    /// Panics on a corrupt stream — a pack built by [`Self::from_ops`] or
    /// validated by [`Self::from_bytes`] is always well-formed.
    pub fn iter(&self) -> impl Iterator<Item = TraceOp> + '_ {
        let mut dec = self.decoder();
        // analyze::allow(hot-path-unwrap): packs are validated at construction by from_ops/from_bytes
        std::iter::from_fn(move || dec.next_op().expect("validated pack is well-formed"))
    }

    /// Decodes the whole pack into a `Vec` (tests and tools; replay paths
    /// should batch-decode instead).
    pub fn to_vec(&self) -> Vec<TraceOp> {
        self.iter().collect()
    }
}

/// A seekable decode-resume point: where a [`PackDecoder`] stands in the
/// encoded stream, plus the delta-decoding context needed to continue
/// from there. Addresses are delta-encoded, so the byte offset alone is
/// not enough — `last_addr` carries the decoder's address context across
/// the seam. Obtained from [`PackDecoder::resume_point`]; turned back
/// into a live decoder by [`TracePack::resume_from`]. Checkpoints
/// (`crate::checkpoint`) persist exactly this per replay lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResumePoint {
    /// Encoded bytes consumed past the 5-byte header.
    pub byte_offset: u64,
    /// Ops decoded so far.
    pub ops_read: u64,
    /// Address context for delta decoding (the previous op's address).
    pub last_addr: u64,
    /// Whether the end marker has already been consumed.
    pub done: bool,
}

/// Ops decoded per batch when validating or re-deriving a resume point.
const DECODE_BATCH: usize = 256;

/// Zero-I/O decoder over an in-memory [`TracePack`]; the replay engines
/// drive it a batch at a time.
#[derive(Debug, Clone)]
pub struct PackDecoder<'a> {
    /// The encoded op stream (the pack past its header).
    body: &'a [u8],
    /// Encoded bytes consumed.
    pos: usize,
    last_addr: u64,
    done: bool,
    ops_read: u64,
}

impl<'a> PackDecoder<'a> {
    fn new(body: &'a [u8]) -> Self {
        Self {
            body,
            pos: 0,
            last_addr: 0,
            done: false,
            ops_read: 0,
        }
    }

    /// Decodes the next op; `Ok(None)` at end of stream.
    ///
    /// # Errors
    ///
    /// Any [`TracePackError`] on a corrupt stream.
    #[inline]
    pub fn next_op(&mut self) -> Result<Option<TraceOp>> {
        let mut one = [TraceOp::Exec(0)];
        Ok(match self.next_batch(&mut one)? {
            0 => None,
            _ => Some(one[0]),
        })
    }

    /// Ops decoded so far (deterministic decode-progress counter).
    pub fn ops_read(&self) -> u64 {
        self.ops_read
    }

    /// Encoded bytes consumed so far, including the end marker once the
    /// stream is drained.
    pub fn bytes_consumed(&self) -> u64 {
        self.pos as u64
    }

    /// Captures the decoder's current position as a seekable
    /// [`ResumePoint`]; [`TracePack::resume_from`] reconstructs an
    /// equivalent decoder from it.
    pub fn resume_point(&self) -> ResumePoint {
        ResumePoint {
            byte_offset: self.pos as u64,
            ops_read: self.ops_read,
            last_addr: self.last_addr,
            done: self.done,
        }
    }

    /// Decodes up to `out.len()` ops into `out`, returning the count;
    /// fewer than `out.len()` only at end of stream (0 once drained).
    ///
    /// While a worst-case [`MAX_OP_BYTES`] op still fits in the rest of
    /// the pack, each op decodes from a fixed window that no read can
    /// overrun, with the cursor and address context held in locals; the
    /// last bytes before the end go through checked reads. On an error
    /// the decoder stays at the start of the op that failed.
    ///
    /// # Errors
    ///
    /// Any [`TracePackError`] on a corrupt stream.
    #[inline]
    pub fn next_batch(&mut self, out: &mut [TraceOp]) -> Result<usize> {
        let body = self.body;
        let mut pos = self.pos;
        let mut last_addr = self.last_addr;
        let mut done = self.done;
        let mut n = 0;
        let status = 'batch: {
            while n < out.len() && !done {
                let Some(window) = body.get(pos..).and_then(<[u8]>::first_chunk) else {
                    break;
                };
                let mut len = 0;
                match decode_op::<[u8; MAX_OP_BYTES]>(window, &mut len, &mut last_addr) {
                    Ok(Some(op)) => {
                        out[n] = op;
                        n += 1;
                    }
                    Ok(None) => done = true,
                    Err(e) => break 'batch Err(e),
                }
                pos += len;
            }
            while n < out.len() && !done {
                let mut at = pos;
                match decode_op(body, &mut at, &mut last_addr) {
                    Ok(Some(op)) => {
                        out[n] = op;
                        n += 1;
                    }
                    Ok(None) => done = true,
                    Err(e) => break 'batch Err(e),
                }
                pos = at;
            }
            Ok(n)
        };
        self.pos = pos;
        self.last_addr = last_addr;
        self.done = done;
        self.ops_read += n as u64;
        status
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<TraceOp> {
        vec![
            TraceOp::Exec(400),
            TraceOp::Store {
                addr: 0x1000,
                size: 8,
            },
            TraceOp::Load {
                addr: 0x1008,
                size: 8,
            },
            TraceOp::Cform {
                line_addr: 0x1040,
                attrs: 0x7F << 56,
                mask: 0x7F << 56,
            },
            TraceOp::MaskPush,
            TraceOp::Load {
                addr: 0x1041,
                size: 1,
            },
            TraceOp::MaskPop,
            TraceOp::CformNt {
                line_addr: 0x1040,
                attrs: 0,
                mask: 0x7F << 56,
            },
            TraceOp::Exec(0),
            TraceOp::Load {
                addr: u64::MAX - 63,
                size: 64,
            },
        ]
    }

    #[test]
    fn round_trip_in_memory() {
        let ops = sample_ops();
        let pack = TracePack::from_ops(ops.iter().copied());
        assert_eq!(pack.len_ops(), ops.len() as u64);
        assert_eq!(pack.to_vec(), ops);
    }

    #[test]
    fn batch_decode_matches_one_at_a_time() {
        let ops = sample_ops();
        let pack = TracePack::from_ops(ops.iter().copied());
        let mut dec = pack.decoder();
        let mut buf = [TraceOp::Exec(0); 3];
        let mut got = Vec::new();
        loop {
            let n = dec.next_batch(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        assert_eq!(got, ops);
    }

    #[test]
    fn sequential_streams_compress_hard() {
        let ops: Vec<TraceOp> = (0..10_000u64)
            .map(|i| TraceOp::Load {
                addr: 0x8000_0000 + i * 8,
                size: 8,
            })
            .collect();
        let pack = TracePack::from_ops(ops.iter().copied());
        assert!(
            pack.bytes_per_op() <= 3.5,
            "sequential loads must pack to a few bytes/op, got {}",
            pack.bytes_per_op()
        );
        assert_eq!(pack.to_vec(), ops);
    }

    #[test]
    fn from_bytes_validates_and_counts() {
        let ops = sample_ops();
        let pack = TracePack::from_ops(ops.iter().copied());
        let reparsed = TracePack::from_bytes(pack.bytes().to_vec()).unwrap();
        assert_eq!(reparsed, pack);
    }

    #[test]
    fn truncated_stream_is_detected() {
        let pack = TracePack::from_ops(sample_ops());
        let cut = pack.bytes()[..pack.bytes().len() - 1].to_vec();
        assert!(matches!(
            TracePack::from_bytes(cut),
            Err(TracePackError::Truncated)
        ));
    }

    #[test]
    fn trailing_bytes_after_end_marker_are_rejected() {
        let mut bytes = TracePack::from_ops(sample_ops()).bytes().to_vec();
        bytes.push(0x00); // garbage (or a concatenated second stream)
        assert!(matches!(
            TracePack::from_bytes(bytes),
            Err(TracePackError::TrailingBytes(1))
        ));
    }

    #[test]
    fn foreign_streams_are_rejected() {
        assert!(matches!(
            TracePack::from_bytes(b"ELF\x7f....".to_vec()),
            Err(TracePackError::BadMagic)
        ));
        let mut bytes = TracePack::from_ops([TraceOp::MaskPush]).bytes().to_vec();
        bytes[4] = VERSION + 1;
        assert!(matches!(
            TracePack::from_bytes(bytes),
            Err(TracePackError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn bad_tag_and_bad_size_are_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(0x42);
        assert!(matches!(
            TracePack::from_bytes(bytes),
            Err(TracePackError::BadTag(0x42))
        ));

        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(1); // Load
        bytes.push(0); // addr delta 0
        bytes.push(65); // size 65 > 64
        assert!(matches!(
            TracePack::from_bytes(bytes),
            Err(TracePackError::BadSize(65))
        ));
    }

    #[test]
    #[should_panic(expected = "access size")]
    fn encoding_oversized_access_panics() {
        TracePack::from_ops([TraceOp::Load { addr: 0, size: 65 }]);
    }

    #[test]
    #[should_panic(expected = "wraps past the address space")]
    fn encoding_a_wrapping_access_panics() {
        TracePack::from_ops([TraceOp::Store {
            addr: u64::MAX - 3,
            size: 8,
        }]);
    }

    #[test]
    fn empty_pack_round_trips() {
        let pack = TracePack::from_ops(std::iter::empty());
        assert!(pack.is_empty());
        assert_eq!(pack.to_vec(), Vec::<TraceOp>::new());
        assert_eq!(pack.bytes().len(), 6, "header + end marker");
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 63, -64] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn resume_from_matches_decode_from_start_then_skip() {
        let ops = sample_ops();
        let pack = TracePack::from_ops(ops.iter().copied());
        // At every op boundary: capture a resume point, then prove the
        // resumed decoder yields exactly the suffix a fresh decoder
        // yields after skipping the same number of ops.
        for skip in 0..=ops.len() {
            let mut dec = pack.decoder();
            for _ in 0..skip {
                dec.next_op().unwrap().unwrap();
            }
            let point = dec.resume_point();
            // One byte off, or with a wrong address context or end flag,
            // the point is not an op boundary of this pack.
            for bad in [
                ResumePoint {
                    byte_offset: point.byte_offset + 1,
                    ..point
                },
                ResumePoint {
                    last_addr: point.last_addr ^ 0x40,
                    ..point
                },
                ResumePoint {
                    done: true,
                    ..point
                },
            ] {
                assert!(
                    matches!(pack.resume_from(bad), Err(TracePackError::CursorMismatch(p)) if p == bad),
                    "{bad:?} accepted after skipping {skip}"
                );
            }
            let mut resumed = pack.resume_from(point).unwrap();
            assert_eq!(resumed.ops_read(), skip as u64);
            assert_eq!(resumed.bytes_consumed(), dec.bytes_consumed());
            let mut from_start = pack.decoder();
            for _ in 0..skip {
                from_start.next_op().unwrap().unwrap();
            }
            loop {
                let a = resumed.next_op().unwrap();
                let b = from_start.next_op().unwrap();
                assert_eq!(a, b, "suffix diverged after skipping {skip}");
                if a.is_none() {
                    break;
                }
            }
            assert_eq!(resumed.bytes_consumed(), from_start.bytes_consumed());
        }
    }

    #[test]
    fn resume_from_rejects_offset_past_stream() {
        let pack = TracePack::from_ops(sample_ops());
        let point = ResumePoint {
            byte_offset: pack.bytes().len() as u64, // 5 past the body end
            ..ResumePoint::default()
        };
        assert!(matches!(
            pack.resume_from(point),
            Err(TracePackError::Truncated)
        ));
    }

    #[test]
    fn resume_point_after_drain_is_done() {
        let pack = TracePack::from_ops(sample_ops());
        let mut dec = pack.decoder();
        while dec.next_op().unwrap().is_some() {}
        let point = dec.resume_point();
        assert!(point.done);
        let mut resumed = pack.resume_from(point).unwrap();
        assert!(resumed.next_op().unwrap().is_none(), "done is sticky");
    }

    #[test]
    fn decoder_tracks_ops_and_bytes_consumed() {
        let ops = sample_ops();
        let pack = TracePack::from_ops(ops.iter().copied());
        let mut dec = pack.decoder();
        assert_eq!((dec.ops_read(), dec.bytes_consumed()), (0, 0));
        let mut buf = [TraceOp::Exec(0); 2];
        let n = dec.next_batch(&mut buf).unwrap();
        assert_eq!(n, 2);
        assert_eq!(dec.ops_read(), 2);
        let mid = dec.bytes_consumed();
        assert!(mid > 0);
        while dec.next_op().unwrap().is_some() {}
        assert_eq!(dec.ops_read(), ops.len() as u64);
        // Drained: every encoded byte after the header is accounted for.
        assert_eq!(dec.bytes_consumed(), (pack.bytes().len() - 5) as u64);
        assert!(dec.bytes_consumed() > mid);
    }
}
