//! The versa-net wire protocol: versioned, checksummed, length-prefixed
//! binary frames (DESIGN.md §7.1).
//!
//! Every frame is
//!
//! ```text
//! magic "VN" (2) | version u16 (2) | type u8 (1) | tag u64 (8) |
//! len u32 (4) | payload (len) | crc32(payload) u32 (4)
//! ```
//!
//! all little-endian. The `tag` multiplexes concurrent requests over one
//! connection: a response carries the tag of the request it answers.
//! The CRC covers the payload only (the header is validated field by
//! field), using the IEEE polynomial.
//!
//! [`write_frame`] is the one encoder and [`read_frame`] the one
//! decoder. Both stream: bulk bytes (`Ship` and `ExecOk` buffers) go to
//! the wire straight from the sender's arena buffer and come off it
//! straight into the [`AlignedBuf`] the receiver installs in its own
//! arena, with the checksum accumulated on the way — one pass and one
//! buffer per tile crossing. [`encode_frame`] / [`decode_frame`] run the
//! same two functions over an in-memory buffer, so the property tests
//! exercise the streaming path without sockets. Decoding NEVER panics:
//! every malformed input maps to a typed [`ProtoError`].

use std::fmt;
use std::io::{self, Read, Write};
use std::sync::Arc;
use versa_mem::AlignedBuf;

/// Protocol magic: the first two bytes of every frame.
pub const MAGIC: [u8; 2] = *b"VN";

/// Protocol version spoken by this build. Version 2 added
/// [`Frame::Free`]; peers of different versions fail at the first frame
/// with [`ProtoError::BadVersion`].
pub const VERSION: u16 = 2;

/// Frame header length (everything before the payload).
pub const HEADER_LEN: usize = 2 + 2 + 1 + 8 + 4;

/// Hard cap on payload length (1 GiB): a corrupt length field must not
/// turn into an unbounded allocation.
pub const MAX_PAYLOAD: u32 = 1 << 30;

/// Why a frame failed to decode. Every variant is a *protocol* error:
/// decoding malformed bytes returns one of these, never panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// Fewer bytes than the header + declared payload + checksum need.
    Truncated,
    /// The first two bytes are not `"VN"`.
    BadMagic,
    /// The version field differs from [`VERSION`].
    BadVersion(u16),
    /// The payload checksum does not match.
    BadChecksum,
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    BadLength(u32),
    /// Unknown frame type byte.
    BadFrameType(u8),
    /// The payload is structurally malformed for its frame type.
    BadPayload,
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// Transport-level I/O failure (connect, read, write).
    Io(String),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "truncated frame"),
            ProtoError::BadMagic => write!(f, "bad magic (not a versa-net frame)"),
            ProtoError::BadVersion(v) => {
                write!(f, "protocol version mismatch (got {v}, want {VERSION})")
            }
            ProtoError::BadChecksum => write!(f, "payload checksum mismatch"),
            ProtoError::BadLength(n) => write!(f, "payload length {n} exceeds cap {MAX_PAYLOAD}"),
            ProtoError::BadFrameType(t) => write!(f, "unknown frame type {t}"),
            ProtoError::BadPayload => write!(f, "malformed payload"),
            ProtoError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            ProtoError::Io(m) => write!(f, "i/o error: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> ProtoError {
        ProtoError::Io(e.to_string())
    }
}

/// One access clause of an [`Frame::Exec`] request, in wire form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireAccess {
    /// Allocation id.
    pub data: u32,
    /// Byte offset of the accessed range.
    pub offset: u64,
    /// Length of the accessed range.
    pub len: u64,
    /// Full length of the backing allocation (the worker materializes
    /// output-only buffers it never received bytes for).
    pub alloc_len: u64,
    /// Access mode: 0 = In, 1 = Out, 2 = InOut.
    pub mode: u8,
}

/// Every message that crosses the wire (DESIGN.md §7.1 frame table).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Worker → coordinator, first frame on a connection: advertise
    /// capabilities and gossip any cached profile hints (empty = none).
    Hello {
        /// Node name (host:port or a user label).
        name: String,
        /// SMP workers the node contributes.
        smp_workers: u32,
        /// SIMD tier the node's kernels dispatch to (informational).
        simd_tier: String,
        /// Profile-hints text cached from a previous membership.
        hints: String,
    },
    /// Coordinator → worker: membership granted. Carries the node's
    /// dense id and the coordinator's current profile hints (the warm
    /// gossip that lets a joining node skip the learning phase).
    Welcome {
        /// Dense node id (1-based; 0 is the coordinator).
        node_id: u16,
        /// Coordinator profile-hints text (empty = cold).
        hints: String,
    },
    /// Coordinator → worker: the full bytes of one allocation, shared
    /// with the sender's arena (no copy on either side of the wire).
    Ship {
        /// Allocation id.
        data: u32,
        /// The bytes.
        bytes: Arc<AlignedBuf>,
    },
    /// Worker → coordinator: shipment received and stored.
    ShipAck,
    /// Coordinator → worker: run one task.
    Exec {
        /// Task id (logging only; the worker holds no graph).
        task: u64,
        /// Template name, resolved against the worker's own registry.
        template: String,
        /// Version to run.
        version: u16,
        /// Attempt number (1-based).
        attempt: u32,
        /// Access clauses.
        accesses: Vec<WireAccess>,
    },
    /// Worker → coordinator: task succeeded.
    ExecOk {
        /// Measured kernel time on the worker, nanoseconds.
        kernel_ns: u64,
        /// `(allocation, full bytes)` for every written allocation.
        writes: Vec<(u32, Arc<AlignedBuf>)>,
    },
    /// Worker → coordinator: the task's kernel failed (panic or typed
    /// error). The *connection* is still healthy.
    ExecErr {
        /// Human-readable failure.
        message: String,
    },
    /// Liveness probe, either direction.
    Heartbeat,
    /// Liveness reply.
    HeartbeatAck,
    /// Coordinator → worker: leave cleanly. Carries the coordinator's
    /// final hints so the worker can cache warmth for its next join.
    Shutdown {
        /// Final profile-hints text (empty = none).
        hints: String,
    },
    /// Worker → coordinator: shutting down.
    ShutdownAck,
    /// Coordinator → worker, one-way (no reply): the allocation was
    /// freed; drop every copy of it.
    Free {
        /// Allocation id.
        data: u32,
    },
}

impl Frame {
    /// The frame's wire type byte.
    pub fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 1,
            Frame::Welcome { .. } => 2,
            Frame::Ship { .. } => 3,
            Frame::ShipAck => 4,
            Frame::Exec { .. } => 5,
            Frame::ExecOk { .. } => 6,
            Frame::ExecErr { .. } => 7,
            Frame::Heartbeat => 8,
            Frame::HeartbeatAck => 9,
            Frame::Shutdown { .. } => 10,
            Frame::ShutdownAck => 11,
            Frame::Free { .. } => 12,
        }
    }
}

// ---------------------------------------------------------------- crc32

/// IEEE CRC-32 slicing tables, built at compile time. Table 0 is the
/// classic bytewise table; table `k` advances a byte through `k` further
/// zero bytes, so 16 lookups fold 16 input bytes at once.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut s = 1;
    while s < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    t
};

/// A running IEEE CRC-32 (slicing-by-16).
#[derive(Clone, Copy)]
struct Crc(u32);

impl Crc {
    fn new() -> Crc {
        Crc(!0)
    }

    fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut c = self.0;
        let mut chunks = bytes.chunks_exact(16);
        for b in &mut chunks {
            let w = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            c = t[15][(w & 0xFF) as usize]
                ^ t[14][((w >> 8) & 0xFF) as usize]
                ^ t[13][((w >> 16) & 0xFF) as usize]
                ^ t[12][(w >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        for &b in chunks.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    fn finish(self) -> u32 {
        !self.0
    }
}

/// IEEE CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc::new();
    crc.update(bytes);
    crc.finish()
}

// ------------------------------------------------------------- encoding

/// Where an encoded payload goes. Small fields are copied; bulk bytes
/// are passed by reference so a stream writer can hand them to the
/// socket without staging them.
trait Sink {
    fn small(&mut self, bytes: &[u8]) -> io::Result<()>;
    fn bulk(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.small(bytes)
    }
}

/// Measures a payload without touching its bytes.
struct Count(usize);

impl Sink for Count {
    fn small(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.0 += bytes.len();
        Ok(())
    }
}

/// Streams one frame: the header and small fields gather in `pending`,
/// bulk bytes go straight to `out`, and the payload checksum runs over
/// everything as it is written.
struct StreamSink<'a, W: Write> {
    out: &'a mut W,
    pending: Vec<u8>,
    /// Where the checksummed bytes start in `pending` (the header is
    /// not covered).
    covered: usize,
    crc: Crc,
}

impl<W: Write> StreamSink<'_, W> {
    fn flush_pending(&mut self) -> io::Result<()> {
        self.crc.update(&self.pending[self.covered..]);
        self.covered = 0;
        let res = self.out.write_all(&self.pending);
        self.pending.clear();
        res
    }

    /// Append the checksum and push everything out.
    fn finish(mut self) -> io::Result<()> {
        self.crc.update(&self.pending[self.covered..]);
        let crc = self.crc.finish();
        self.pending.extend_from_slice(&crc.to_le_bytes());
        self.out.write_all(&self.pending)?;
        self.out.flush()
    }
}

impl<W: Write> Sink for StreamSink<'_, W> {
    fn small(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.pending.extend_from_slice(bytes);
        Ok(())
    }
    fn bulk(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.flush_pending()?;
        self.crc.update(bytes);
        self.out.write_all(bytes)
    }
}

// Length prefixes are `u32`. The casts cannot truncate on the wire:
// `write_frame` measures the payload first and rejects one over
// `MAX_PAYLOAD` (< 4 GiB) before writing anything.

fn put_str(s: &mut impl Sink, v: &str) -> io::Result<()> {
    s.small(&(v.len() as u32).to_le_bytes())?;
    s.small(v.as_bytes())
}

fn put_bulk(s: &mut impl Sink, v: &[u8]) -> io::Result<()> {
    s.small(&(v.len() as u32).to_le_bytes())?;
    s.bulk(v)
}

/// The payload layout of every frame type — the single source of truth
/// both for measuring a payload and for writing it.
fn emit_payload(frame: &Frame, s: &mut impl Sink) -> io::Result<()> {
    match frame {
        Frame::Hello { name, smp_workers, simd_tier, hints } => {
            put_str(s, name)?;
            s.small(&smp_workers.to_le_bytes())?;
            put_str(s, simd_tier)?;
            put_str(s, hints)
        }
        Frame::Welcome { node_id, hints } => {
            s.small(&node_id.to_le_bytes())?;
            put_str(s, hints)
        }
        Frame::Ship { data, bytes } => {
            s.small(&data.to_le_bytes())?;
            put_bulk(s, bytes.as_bytes())
        }
        Frame::ShipAck | Frame::Heartbeat | Frame::HeartbeatAck | Frame::ShutdownAck => Ok(()),
        Frame::Exec { task, template, version, attempt, accesses } => {
            s.small(&task.to_le_bytes())?;
            put_str(s, template)?;
            s.small(&version.to_le_bytes())?;
            s.small(&attempt.to_le_bytes())?;
            s.small(&(accesses.len() as u32).to_le_bytes())?;
            for a in accesses {
                s.small(&a.data.to_le_bytes())?;
                s.small(&a.offset.to_le_bytes())?;
                s.small(&a.len.to_le_bytes())?;
                s.small(&a.alloc_len.to_le_bytes())?;
                s.small(&[a.mode])?;
            }
            Ok(())
        }
        Frame::ExecOk { kernel_ns, writes } => {
            s.small(&kernel_ns.to_le_bytes())?;
            s.small(&(writes.len() as u32).to_le_bytes())?;
            for (data, bytes) in writes {
                s.small(&data.to_le_bytes())?;
                put_bulk(s, bytes.as_bytes())?;
            }
            Ok(())
        }
        Frame::ExecErr { message } => put_str(s, message),
        Frame::Shutdown { hints } => put_str(s, hints),
        Frame::Free { data } => s.small(&data.to_le_bytes()),
    }
}

/// Write one frame to a stream: header, small fields, bulk bytes
/// straight from the frame's buffers, then the checksum.
///
/// # Errors
/// [`ProtoError::BadLength`] when the payload would exceed
/// [`MAX_PAYLOAD`] (nothing is written), or the stream's I/O error.
pub fn write_frame(stream: &mut impl Write, frame: &Frame, tag: u64) -> Result<(), ProtoError> {
    let mut count = Count(0);
    emit_payload(frame, &mut count)?;
    let len = u32::try_from(count.0).unwrap_or(u32::MAX);
    if len > MAX_PAYLOAD {
        return Err(ProtoError::BadLength(len));
    }
    let mut sink = StreamSink {
        out: stream,
        pending: Vec::with_capacity(64),
        covered: HEADER_LEN,
        crc: Crc::new(),
    };
    sink.pending.extend_from_slice(&MAGIC);
    sink.pending.extend_from_slice(&VERSION.to_le_bytes());
    sink.pending.push(frame.type_byte());
    sink.pending.extend_from_slice(&tag.to_le_bytes());
    sink.pending.extend_from_slice(&len.to_le_bytes());
    emit_payload(frame, &mut sink)?;
    sink.finish()?;
    Ok(())
}

/// Encode `frame` with request tag `tag` into a self-contained wire
/// frame (header + payload + checksum).
///
/// # Panics
/// Panics if the payload exceeds [`MAX_PAYLOAD`].
pub fn encode_frame(frame: &Frame, tag: u64) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, frame, tag).unwrap_or_else(|e| panic!("cannot encode frame: {e}"));
    out
}

// ------------------------------------------------------------- decoding

fn map_eof(e: io::Error) -> ProtoError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        ProtoError::Truncated
    } else {
        e.into()
    }
}

/// The payload of one frame as it streams in: every read is bounded by
/// what is left of the declared length, and checksummed as it passes.
struct Payload<'a, R: Read> {
    stream: &'a mut R,
    left: usize,
    crc: Crc,
}

impl<R: Read> Payload<'_, R> {
    fn fill(&mut self, dst: &mut [u8]) -> Result<(), ProtoError> {
        if dst.len() > self.left {
            return Err(ProtoError::BadPayload);
        }
        self.stream.read_exact(dst).map_err(map_eof)?;
        self.left -= dst.len();
        self.crc.update(dst);
        Ok(())
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ProtoError> {
        let mut b = [0u8; N];
        self.fill(&mut b)?;
        Ok(b)
    }
    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.array::<1>()?[0])
    }
    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.array()?))
    }
    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `u32` count of `record`-byte entries (a byte length when
    /// `record` is 1), rejected when what is left of the declared
    /// payload cannot hold them — before anything is allocated.
    fn count(&mut self, record: usize) -> Result<usize, ProtoError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(record) > self.left {
            return Err(ProtoError::BadPayload);
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        let mut raw = vec![0u8; self.count(1)?];
        self.fill(&mut raw)?;
        String::from_utf8(raw).map_err(|_| ProtoError::BadUtf8)
    }

    /// Bulk bytes, read straight into the buffer the receiver keeps.
    fn bulk(&mut self) -> Result<Arc<AlignedBuf>, ProtoError> {
        let mut buf = AlignedBuf::zeroed(self.count(1)?);
        self.fill(buf.as_bytes_mut())?;
        Ok(Arc::new(buf))
    }

    /// Consume what is left of the payload and the trailing checksum,
    /// then settle the frame. The error precedence matches a decoder
    /// that checksums the whole payload before parsing it: truncation
    /// first, then the checksum, then structural errors.
    fn finish(mut self, parsed: Result<Frame, ProtoError>) -> Result<Frame, ProtoError> {
        if let Err(e @ (ProtoError::Truncated | ProtoError::Io(_))) = parsed {
            return Err(e);
        }
        let trailing = self.left > 0;
        let mut scratch = [0u8; 8192];
        while self.left > 0 {
            let n = self.left.min(scratch.len());
            self.fill(&mut scratch[..n])?;
        }
        let mut declared = [0u8; 4];
        self.stream.read_exact(&mut declared).map_err(map_eof)?;
        if self.crc.finish() != u32::from_le_bytes(declared) {
            return Err(ProtoError::BadChecksum);
        }
        let frame = parsed?;
        if trailing {
            // The whole payload must be consumed: trailing garbage is
            // malformed.
            return Err(ProtoError::BadPayload);
        }
        Ok(frame)
    }
}

/// Parse the payload of a frame of type `ty`.
fn parse_payload(ty: u8, p: &mut Payload<'_, impl Read>) -> Result<Frame, ProtoError> {
    Ok(match ty {
        1 => Frame::Hello {
            name: p.string()?,
            smp_workers: p.u32()?,
            simd_tier: p.string()?,
            hints: p.string()?,
        },
        2 => Frame::Welcome { node_id: p.u16()?, hints: p.string()? },
        3 => Frame::Ship { data: p.u32()?, bytes: p.bulk()? },
        4 => Frame::ShipAck,
        5 => {
            let task = p.u64()?;
            let template = p.string()?;
            let version = p.u16()?;
            let attempt = p.u32()?;
            // Each access is 29 bytes.
            let n = p.count(29)?;
            let mut accesses = Vec::with_capacity(n);
            for _ in 0..n {
                accesses.push(WireAccess {
                    data: p.u32()?,
                    offset: p.u64()?,
                    len: p.u64()?,
                    alloc_len: p.u64()?,
                    mode: match p.u8()? {
                        m @ 0..=2 => m,
                        _ => return Err(ProtoError::BadPayload),
                    },
                });
            }
            Frame::Exec { task, template, version, attempt, accesses }
        }
        6 => {
            let kernel_ns = p.u64()?;
            // Each write is at least an id and a length prefix.
            let n = p.count(8)?;
            let mut writes = Vec::with_capacity(n);
            for _ in 0..n {
                writes.push((p.u32()?, p.bulk()?));
            }
            Frame::ExecOk { kernel_ns, writes }
        }
        7 => Frame::ExecErr { message: p.string()? },
        8 => Frame::Heartbeat,
        9 => Frame::HeartbeatAck,
        10 => Frame::Shutdown { hints: p.string()? },
        11 => Frame::ShutdownAck,
        12 => Frame::Free { data: p.u32()? },
        t => return Err(ProtoError::BadFrameType(t)),
    })
}

/// Read exactly one frame from a blocking stream. Distinguishes a clean
/// EOF *between* frames (`Ok(None)`) from truncation *inside* one
/// (`Err(Truncated)`).
///
/// Small fields are read piecewise, so wrap a socket in a
/// [`std::io::BufReader`]; bulk reads larger than its buffer bypass it
/// and land directly in the frame's [`AlignedBuf`].
pub fn read_frame(stream: &mut impl Read) -> Result<Option<(Frame, u64)>, ProtoError> {
    let mut header = [0u8; HEADER_LEN];
    // First byte decides clean-EOF vs truncated.
    match stream.read(&mut header[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(e.into()),
    }
    stream.read_exact(&mut header[1..]).map_err(map_eof)?;
    if header[0..2] != MAGIC {
        return Err(ProtoError::BadMagic);
    }
    let version = u16::from_le_bytes([header[2], header[3]]);
    if version != VERSION {
        return Err(ProtoError::BadVersion(version));
    }
    let ty = header[4];
    let tag = u64::from_le_bytes(header[5..13].try_into().expect("8-byte tag field"));
    let len = u32::from_le_bytes(header[13..17].try_into().expect("4-byte length field"));
    if len > MAX_PAYLOAD {
        return Err(ProtoError::BadLength(len));
    }
    let mut payload = Payload { stream, left: len as usize, crc: Crc::new() };
    let parsed = parse_payload(ty, &mut payload);
    Ok(Some((payload.finish(parsed)?, tag)))
}

/// Decode one frame from the front of `buf`. Returns the frame, its
/// tag, and the number of bytes consumed. `Err(Truncated)` means "feed
/// me more bytes"; every other error is a permanent protocol violation.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, u64, usize), ProtoError> {
    let mut rest = buf;
    match read_frame(&mut rest)? {
        Some((frame, tag)) => Ok((frame, tag, buf.len() - rest.len())),
        None => Err(ProtoError::Truncated),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise CRC the slicing tables replaced, kept as the
    /// reference the fast path must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    fn buf(bytes: &[u8]) -> Arc<AlignedBuf> {
        Arc::new(AlignedBuf::from_bytes(bytes))
    }

    /// Seal `payload` as a frame of type `ty` with a correct checksum.
    fn seal(ty: u8, payload: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC);
        wire.extend_from_slice(&VERSION.to_le_bytes());
        wire.push(ty);
        wire.extend_from_slice(&0u64.to_le_bytes());
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(payload);
        wire.extend_from_slice(&crc32(payload).to_le_bytes());
        wire
    }

    #[test]
    fn crc32_known_vector() {
        // The classic "123456789" IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_bytewise_reference() {
        // Every length through several 16-byte blocks plus remainders,
        // at every start alignment.
        let data: Vec<u8> =
            (0..2048 + 16u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for start in 0..16 {
            for len in 0..=2048 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn crc32_streams_across_splits() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
        for cut in [0, 1, 15, 16, 17, 500, 999, 1000] {
            let mut crc = Crc::new();
            crc.update(&data[..cut]);
            crc.update(&data[cut..]);
            assert_eq!(crc.finish(), crc32_bytewise(&data), "cut at {cut}");
        }
    }

    #[test]
    fn empty_payload_frames_round_trip() {
        for f in [Frame::ShipAck, Frame::Heartbeat, Frame::HeartbeatAck, Frame::ShutdownAck] {
            let wire = encode_frame(&f, 7);
            let (got, tag, used) = decode_frame(&wire).unwrap();
            assert_eq!(got, f);
            assert_eq!(tag, 7);
            assert_eq!(used, wire.len());
        }
    }

    #[test]
    fn exec_frame_round_trips() {
        let f = Frame::Exec {
            task: 42,
            template: "matmul_tile".into(),
            version: 3,
            attempt: 2,
            accesses: vec![
                WireAccess { data: 1, offset: 0, len: 64, alloc_len: 64, mode: 0 },
                WireAccess { data: 2, offset: 8, len: 56, alloc_len: 128, mode: 2 },
            ],
        };
        let wire = encode_frame(&f, u64::MAX);
        assert_eq!(decode_frame(&wire).unwrap(), (f, u64::MAX, wire.len()));
    }

    #[test]
    fn free_frame_round_trips() {
        let f = Frame::Free { data: 0xDEAD };
        let wire = encode_frame(&f, 3);
        assert_eq!(wire.len(), HEADER_LEN + 4 + 4);
        assert_eq!(decode_frame(&wire).unwrap(), (f, 3, wire.len()));
    }

    #[test]
    fn bulk_frames_round_trip() {
        let big: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        for f in [
            Frame::Ship { data: 4, bytes: buf(&big) },
            Frame::ExecOk {
                kernel_ns: 9,
                writes: vec![(1, buf(&big)), (2, buf(b"tiny")), (3, buf(&big[..4096]))],
            },
        ] {
            let wire = encode_frame(&f, 11);
            assert_eq!(decode_frame(&wire).unwrap(), (f, 11, wire.len()));
        }
    }

    #[test]
    fn bad_mode_is_rejected() {
        let f = Frame::Exec {
            task: 1,
            template: "t".into(),
            version: 0,
            attempt: 1,
            accesses: vec![WireAccess { data: 0, offset: 0, len: 8, alloc_len: 8, mode: 0 }],
        };
        let mut wire = encode_frame(&f, 0);
        // The mode byte is the last payload byte; corrupt it and re-seal
        // the checksum so only the mode check can object.
        let plen = wire.len() - 4 - HEADER_LEN;
        let last = HEADER_LEN + plen - 1;
        wire[last] = 9;
        let crc = crc32(&wire[HEADER_LEN..HEADER_LEN + plen]);
        let n = wire.len();
        wire[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode_frame(&wire), Err(ProtoError::BadPayload));
    }

    #[test]
    fn trailing_garbage_in_payload_is_rejected() {
        assert_eq!(decode_frame(&seal(8, &[0xAB])), Err(ProtoError::BadPayload));
    }

    #[test]
    fn stream_read_write_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Ship { data: 9, bytes: buf(&[1, 2, 3]) }, 5).unwrap();
        write_frame(&mut wire, &Frame::ShipAck, 5).unwrap();
        let mut cursor = io::Cursor::new(wire);
        let (f1, t1) = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!((f1, t1), (Frame::Ship { data: 9, bytes: buf(&[1, 2, 3]) }, 5));
        let (f2, _) = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(f2, Frame::ShipAck);
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF between frames");
    }

    #[test]
    fn eof_inside_frame_is_truncated() {
        let wire = encode_frame(&Frame::Heartbeat, 1);
        let mut cursor = io::Cursor::new(&wire[..wire.len() - 2]);
        assert_eq!(read_frame(&mut cursor), Err(ProtoError::Truncated));
    }
}
