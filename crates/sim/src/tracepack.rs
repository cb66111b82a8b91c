//! `tracepack`: a compact, streaming binary trace format.
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
//! distinguish a complete stream from a truncated one.
//!
//! [`TracePackWriter`] and [`TracePackReader`] encode/decode against any
//! `io::Write`/`io::Read` without materialising the trace (the reader
//! refills a fixed internal buffer); [`TracePack`] is the owned in-memory
//! form the replay hot path batch-decodes from (see
//! [`crate::engine::Engine::run_pack`]).

use crate::trace::TraceOp;
use std::io::{self, Read, Write};

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
    /// Underlying reader/writer failed.
    Io(io::Error),
    /// The stream does not start with [`MAGIC`].
    BadMagic,
    /// The stream's version is newer than this decoder.
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
}

impl std::fmt::Display for TracePackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TracePackError::Io(e) => write!(f, "trace pack I/O error: {e}"),
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
        }
    }
}

impl std::error::Error for TracePackError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TracePackError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TracePackError {
    fn from(e: io::Error) -> Self {
        TracePackError::Io(e)
    }
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

/// A cursor over an encoded byte slice: the shared decoding core of the
/// streaming reader and the in-memory batch decoder.
#[derive(Debug, Clone)]
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    #[inline]
    fn byte(&mut self) -> Result<u8> {
        let b = *self.buf.get(self.pos).ok_or(TracePackError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    #[inline]
    fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift >= 63 && b > if shift == 63 { 1 } else { 0 } {
                return Err(TracePackError::VarintOverflow);
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(TracePackError::VarintOverflow);
            }
        }
    }

    /// Decodes one op (or the end marker → `None`), updating `last_addr`.
    #[inline]
    fn op(&mut self, last_addr: &mut u64) -> Result<Option<TraceOp>> {
        let tag = self.byte()?;
        let op = match tag {
            0 => TraceOp::Exec(
                u32::try_from(self.varint()?).map_err(|_| TracePackError::VarintOverflow)?,
            ),
            1 | 2 => {
                let delta = unzigzag(self.varint()?);
                let addr = last_addr.wrapping_add(delta as u64);
                *last_addr = addr;
                let size = self.byte()?;
                if size == 0 || size as usize > MAX_ACCESS_BYTES {
                    return Err(TracePackError::BadSize(size));
                }
                if tag == 1 {
                    TraceOp::Load { addr, size }
                } else {
                    TraceOp::Store { addr, size }
                }
            }
            3 | 4 => {
                let delta = unzigzag(self.varint()?);
                let line_addr = last_addr.wrapping_add(delta as u64);
                *last_addr = line_addr;
                let attrs = self.varint()?;
                let mask = self.varint()?;
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
}

// --- encoding ---------------------------------------------------------

/// Encoder state shared by the streaming writer and [`TracePack::from_ops`].
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
    /// [`MAX_ACCESS_BYTES`] — the format's (and hierarchy's) access-size
    /// contract.
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

/// Streaming encoder: writes the header up front, ops as they arrive, and
/// the end marker on [`finish`](Self::finish). Never materialises the
/// trace; ops are staged through a small internal buffer that is flushed
/// to the sink whenever it fills.
#[derive(Debug)]
pub struct TracePackWriter<W: Write> {
    sink: W,
    buf: Vec<u8>,
    enc: Encoder,
    finished: bool,
}

/// Flush threshold of the writer's staging buffer.
const WRITER_BUF: usize = 64 * 1024;

impl<W: Write> TracePackWriter<W> {
    /// Starts a pack on `sink`, writing the header.
    ///
    /// # Errors
    ///
    /// Propagates sink write failures.
    pub fn new(mut sink: W) -> Result<Self> {
        sink.write_all(&MAGIC)?;
        sink.write_all(&[VERSION])?;
        Ok(Self {
            sink,
            buf: Vec::with_capacity(WRITER_BUF + MAX_OP_BYTES),
            enc: Encoder::default(),
            finished: false,
        })
    }

    /// Encodes and stages one op.
    ///
    /// # Errors
    ///
    /// Propagates sink write failures when the staging buffer flushes.
    ///
    /// # Panics
    ///
    /// Panics on an access size outside `1..=`[`MAX_ACCESS_BYTES`].
    pub fn write_op(&mut self, op: TraceOp) -> Result<()> {
        debug_assert!(!self.finished, "write_op after finish");
        self.enc.encode(&mut self.buf, op);
        if self.buf.len() >= WRITER_BUF {
            self.sink.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Ops written so far.
    pub fn ops_written(&self) -> u64 {
        self.enc.ops
    }

    /// Writes the end marker, flushes, and returns the sink.
    ///
    /// # Errors
    ///
    /// Propagates sink write/flush failures.
    pub fn finish(mut self) -> Result<W> {
        self.finished = true;
        self.buf.push(TAG_END);
        self.sink.write_all(&self.buf)?;
        self.buf.clear();
        self.sink.flush()?;
        Ok(self.sink)
    }
}

// --- streaming reader -------------------------------------------------

/// Refill size of the reader's internal buffer.
const READER_BUF: usize = 64 * 1024;

/// Streaming decoder over any `io::Read`: refills a fixed internal buffer
/// and decodes ops from it, so a multi-gigabyte pack file replays in
/// constant memory. Use [`next_batch`](Self::next_batch) on the hot path;
/// the `Iterator` impl yields one op at a time for convenience.
#[derive(Debug)]
pub struct TracePackReader<R: Read> {
    source: R,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    source_done: bool,
    last_addr: u64,
    ops_read: u64,
    finished: bool,
}

impl<R: Read> TracePackReader<R> {
    /// Opens a pack, validating the header.
    ///
    /// # Errors
    ///
    /// [`TracePackError::BadMagic`] / [`TracePackError::UnsupportedVersion`]
    /// on a foreign stream, I/O errors from the source.
    pub fn new(mut source: R) -> Result<Self> {
        let mut header = [0u8; 5];
        source.read_exact(&mut header).map_err(|e| {
            // A short stream is "not a pack"; a real I/O failure must
            // surface as such, not masquerade as corruption.
            if e.kind() == io::ErrorKind::UnexpectedEof {
                TracePackError::BadMagic
            } else {
                TracePackError::Io(e)
            }
        })?;
        if header[..4] != MAGIC {
            return Err(TracePackError::BadMagic);
        }
        if header[4] != VERSION {
            return Err(TracePackError::UnsupportedVersion(header[4]));
        }
        Ok(Self {
            source,
            buf: vec![0u8; READER_BUF],
            start: 0,
            end: 0,
            source_done: false,
            last_addr: 0,
            ops_read: 0,
            finished: false,
        })
    }

    /// Tops up the internal buffer so at least [`MAX_OP_BYTES`] are
    /// available (unless the source is exhausted).
    fn refill(&mut self) -> Result<()> {
        if self.source_done || self.end - self.start >= MAX_OP_BYTES {
            return Ok(());
        }
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        while self.end < MAX_OP_BYTES {
            let n = self.source.read(&mut self.buf[self.end..])?;
            if n == 0 {
                self.source_done = true;
                break;
            }
            self.end += n;
        }
        Ok(())
    }

    /// Decodes the next op; `Ok(None)` at the (validated) end of stream.
    ///
    /// # Errors
    ///
    /// Any [`TracePackError`]; [`TracePackError::Truncated`] if the source
    /// ends before the end marker.
    pub fn next_op(&mut self) -> Result<Option<TraceOp>> {
        if self.finished {
            return Ok(None);
        }
        self.refill()?;
        let mut cur = Cursor {
            buf: &self.buf[self.start..self.end],
            pos: 0,
        };
        let op = cur.op(&mut self.last_addr)?;
        self.start += cur.pos;
        match op {
            Some(op) => {
                self.ops_read += 1;
                Ok(Some(op))
            }
            None => {
                self.finished = true;
                Ok(None)
            }
        }
    }

    /// Decodes up to `out.len()` ops into `out`, returning how many were
    /// written (0 at end of stream). The replay engines call this to amortise
    /// per-op dispatch over a fixed ring.
    ///
    /// # Errors
    ///
    /// Any [`TracePackError`].
    pub fn next_batch(&mut self, out: &mut [TraceOp]) -> Result<usize> {
        let mut n = 0;
        while n < out.len() {
            match self.next_op()? {
                Some(op) => {
                    out[n] = op;
                    n += 1;
                }
                None => break,
            }
        }
        Ok(n)
    }

    /// Ops decoded so far.
    pub fn ops_read(&self) -> u64 {
        self.ops_read
    }
}

impl<R: Read> Iterator for TracePackReader<R> {
    type Item = Result<TraceOp>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_op().transpose()
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
    /// Panics on an access size outside `1..=`[`MAX_ACCESS_BYTES`].
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
    /// validating the header and walking the stream once to count ops and
    /// reject corruption up front.
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
        let mut cur = Cursor {
            buf: &bytes[5..],
            pos: 0,
        };
        let mut last_addr = 0u64;
        let mut ops = 0u64;
        while cur.op(&mut last_addr)?.is_some() {
            ops += 1;
        }
        if cur.pos != cur.buf.len() {
            return Err(TracePackError::TrailingBytes(cur.buf.len() - cur.pos));
        }
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
        PackDecoder {
            cur: Cursor {
                buf: &self.bytes[5..],
                pos: 0,
            },
            last_addr: 0,
            done: false,
            ops_read: 0,
        }
    }

    /// A decoder positioned at `point`, as captured by
    /// [`PackDecoder::resume_point`] against this same pack: decoding
    /// from here is byte-for-byte identical to decoding from the start
    /// and skipping `point.ops_read` ops (the resume seam of
    /// `crate::checkpoint`).
    ///
    /// # Errors
    ///
    /// [`TracePackError::Truncated`] when the offset runs past the
    /// encoded stream — a resume point can only be *too far*, never
    /// misaligned, because the checkpoint reader validates its own
    /// checksum first; a lying offset on a shorter pack must surface as
    /// a typed error, not a panic.
    pub fn resume_from(&self, point: ResumePoint) -> Result<PackDecoder<'_>> {
        let body = &self.bytes[5..];
        if point.byte_offset > body.len() as u64 {
            return Err(TracePackError::Truncated);
        }
        Ok(PackDecoder {
            cur: Cursor {
                buf: body,
                pos: point.byte_offset as usize,
            },
            last_addr: point.last_addr,
            done: point.done,
            ops_read: point.ops_read,
        })
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
        // analyze::allow(hot-path-alloc): tests-and-tools convenience; replay engines batch-decode instead
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

/// Zero-I/O decoder over an in-memory [`TracePack`]; the replay engines
/// drive it a batch at a time.
#[derive(Debug, Clone)]
pub struct PackDecoder<'a> {
    cur: Cursor<'a>,
    last_addr: u64,
    done: bool,
    ops_read: u64,
}

impl PackDecoder<'_> {
    /// Decodes the next op; `Ok(None)` at end of stream.
    ///
    /// # Errors
    ///
    /// Any [`TracePackError`] on a corrupt stream.
    #[inline]
    pub fn next_op(&mut self) -> Result<Option<TraceOp>> {
        if self.done {
            return Ok(None);
        }
        let op = self.cur.op(&mut self.last_addr)?;
        if op.is_none() {
            self.done = true;
        } else {
            self.ops_read += 1;
        }
        Ok(op)
    }

    /// Ops decoded so far (deterministic decode-progress counter).
    pub fn ops_read(&self) -> u64 {
        self.ops_read
    }

    /// Encoded bytes consumed so far, including the end marker once the
    /// stream is drained.
    pub fn bytes_consumed(&self) -> u64 {
        self.cur.pos as u64
    }

    /// Captures the decoder's current position as a seekable
    /// [`ResumePoint`]; [`TracePack::resume_from`] reconstructs an
    /// equivalent decoder from it.
    pub fn resume_point(&self) -> ResumePoint {
        ResumePoint {
            byte_offset: self.cur.pos as u64,
            ops_read: self.ops_read,
            last_addr: self.last_addr,
            done: self.done,
        }
    }

    /// Decodes up to `out.len()` ops into `out`, returning the count
    /// (0 at end of stream).
    ///
    /// # Errors
    ///
    /// Any [`TracePackError`] on a corrupt stream.
    #[inline]
    pub fn next_batch(&mut self, out: &mut [TraceOp]) -> Result<usize> {
        let mut n = 0;
        while n < out.len() {
            match self.next_op()? {
                Some(op) => {
                    out[n] = op;
                    n += 1;
                }
                None => break,
            }
        }
        Ok(n)
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
    fn round_trip_through_writer_and_reader() {
        let ops = sample_ops();
        let mut w = TracePackWriter::new(Vec::new()).unwrap();
        for &op in &ops {
            w.write_op(op).unwrap();
        }
        assert_eq!(w.ops_written(), ops.len() as u64);
        let bytes = w.finish().unwrap();

        let pack = TracePack::from_ops(ops.iter().copied());
        assert_eq!(bytes, pack.bytes(), "writer and from_ops agree");

        let mut r = TracePackReader::new(bytes.as_slice()).unwrap();
        let mut got = Vec::new();
        while let Some(op) = r.next_op().unwrap() {
            got.push(op);
        }
        assert_eq!(got, ops);
        assert!(r.next_op().unwrap().is_none(), "end is sticky");
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
        let mut r = TracePackReader::new(&pack.bytes()[..pack.bytes().len() - 1]).unwrap();
        let err = loop {
            match r.next_op() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("truncation must not look like clean EOF"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, TracePackError::Truncated));
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
